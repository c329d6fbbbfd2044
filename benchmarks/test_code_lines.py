"""The code-line count of ``code_lines.py``, on small source strings.

These are plain tests of the counting rule; they count no tree but a
temporary one.
"""

import textwrap

from benchmarks.code_lines import count_source, count_tree, main

SOURCE = textwrap.dedent(
    '''\
    """Module docstring,
    over two lines."""

    import os  # a trailing comment counts its line

    # a comment line


    class Thing:
        """Class docstring."""

        limit = 3

        def method(self):
            """Method
            docstring."""
            text = """a string
    that is not a docstring"""
            return (os.sep,
                    text)


    def function():
        "One-line docstring."
        pass
    '''
)


def test_a_line_counts_when_it_holds_code_outside_every_docstring():
    # import, class, limit, def method, the two-line string assignment,
    # the two-line return, def function, pass.
    assert count_source(SOURCE) == 10


def test_a_docstring_only_counts_in_its_own_position():
    assert count_source('x = 1\n"""not a docstring"""\n') == 2
    assert count_source('def f():\n    x = 1\n    "not a docstring"\n') == 3


def test_packages_and_delta(tmp_path, capsys):
    for tree, body in (("base", "x = 1\n"), ("head", "x = 1\ny = 2\n")):
        package = tmp_path / tree / "src" / "repro" / "pkg"
        package.mkdir(parents=True)
        (package / "mod.py").write_text(body)
        (package.parent / "cli.py").write_text('"""Doc."""\nimport os\n')
    assert count_tree(tmp_path / "head") == {"pkg": 2, "repro": 1}
    assert main([str(tmp_path / "head"), str(tmp_path / "base")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "src/ code lines: 2 -> 3 (+1)"
