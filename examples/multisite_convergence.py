#!/usr/bin/env python3
"""NMI convergence across multi-site datasets (the paper's Fig. 13).

Runs the measurement campaign on several of the paper's datasets, clusters the
cumulative aggregate after every iteration, and prints the NMI-vs-iterations
curves as an ASCII chart.  Simpler topologies converge in a couple of
iterations; the four-site setting needs the most; the B-T dataset saturates
below 1 because its ground truth is hierarchical.

Run with:  python examples/multisite_convergence.py
"""

from repro.experiments.runners import run_fig13


def ascii_curve(values, width=40):
    """Render a 0..1 curve as one ASCII line per iteration."""
    lines = []
    for i, value in enumerate(values, start=1):
        bar = "#" * int(round(value * width))
        lines.append(f"  iter {i:2d} |{bar:<{width}}| {value:.2f}")
    return "\n".join(lines)


def main() -> None:
    studies = run_fig13(
        datasets=["B", "B-T", "G-T", "B-G-T", "B-G-T-L"],
        per_site=8,
        iterations=10,
        num_fragments=500,
        seed=5,
    )

    print("NMI between the recovered clustering and the ground truth, as a")
    print("function of the number of aggregated BitTorrent broadcasts:\n")
    for name, study in studies.items():
        curve = study["curve"]
        reached = next((k for k, v in enumerate(curve, start=1) if v >= 0.99), None)
        print(f"dataset {name}  (final NMI {curve[-1]:.2f}, "
              f"perfect after {reached if reached else '>10'} iterations)")
        print(ascii_curve(curve))
        print()

    print("Paper reference (Fig. 13): B, G-T, B-G-T converge to NMI=1 within ~2")
    print("iterations, B-G-T-L needs ~15, and B-T saturates around 0.7 because")
    print("the single-level clustering cannot express its hierarchical ground truth.")


if __name__ == "__main__":
    main()
