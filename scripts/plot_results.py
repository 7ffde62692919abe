#!/usr/bin/env python3
"""Render the figure driver's CSV output as ASCII bar charts.

Usage:
    SILOZ_RESULTS_DIR=results ./build/bench/bench_artifacts fig4
    scripts/plot_results.py results/fig4_exec_time.csv

Each row of the CSV (variant, workload, overhead_pct, ci95_pct) becomes one
bar, mirroring the paper's Figs 4-7 layout. Pure standard library — no
matplotlib dependency — so it runs anywhere the benches do.
"""
import csv
import sys


def render(path: str) -> None:
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    if not rows:
        print(f"{path}: empty")
        return

    variants = sorted({row["variant"] for row in rows})
    scale = max(abs(float(row["overhead_pct"])) + float(row["ci95_pct"]) for row in rows)
    scale = max(scale, 0.5)  # the paper's +/-0.5% guide band
    width = 30  # characters per half-axis

    print(f"== {path} (full bar = {scale:.2f}%) ==")
    for variant in variants:
        print(f"\n{variant}:")
        for row in rows:
            if row["variant"] != variant:
                continue
            value = float(row["overhead_pct"])
            ci = float(row["ci95_pct"])
            cells = int(round(abs(value) / scale * width))
            bar = "#" * cells
            left = bar.rjust(width) if value < 0 else " " * width
            right = bar.ljust(width) if value >= 0 else " " * width
            print(f"  {row['workload']:>14} {left}|{right} {value:+.3f}% (+/-{ci:.3f}%)")
    print()


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__)
        return 1
    for path in sys.argv[1:]:
        render(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
