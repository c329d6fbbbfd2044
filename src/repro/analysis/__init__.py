"""Analysis and presentation helpers: layouts and rendering."""

from repro.analysis.layout import fruchterman_reingold_layout, kamada_kawai_layout, layout_cluster_separation
from repro.analysis.visualize import ascii_cluster_table, render_dot, render_fig4_bars

__all__ = [
    "kamada_kawai_layout",
    "fruchterman_reingold_layout",
    "layout_cluster_separation",
    "ascii_cluster_table",
    "render_dot",
    "render_fig4_bars",
]
