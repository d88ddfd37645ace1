"""Scaling series: one per driving parameter, as reference figures.

    python3 perfbench/scaling.py

Times single CLI commands, each on a fresh import of the program, along
rank, window W, terms x depth, jet order and Sen dim x precision,
reference-normalized like the benchmark, and prints a markdown table (median normalized ms, median raw ms).  These are
not benchmark metrics; README.md records them to show where each layer's
cost grows.
"""

from __future__ import annotations

import random
import shutil
import statistics
import sys

import run

sys.path.insert(0, str(run.SRC))

import modules as M  # noqa: E402
import workloads as W  # noqa: E402

REPEATS = 5


def rank_series():
    for d in range(2, 7):
        vals = [k % 3 for k in range(d)]
        lam = [3**v * u for v, u in zip(vals, (2, 4, 5, 7, 8, 10))]
        parts = [M.module(3, [-3, 1], [[x]], [(v, [M.rational_vec([1])])]) for x, v in zip(lam, vals)]
        yield f"rank {d}", "phimod", M.direct_sum(parts)


def window_series():
    for w in (10, 20, 40, 80, 120):
        yield f"W {w}", "polygon", {"kind": "epsilon_minus_one", "p": 3, "window": str(w)}


def terms_series():
    for nx, ny, depth in ((2, 4, 3), (4, 4, 4), (4, 8, 5), (6, 8, 5), (7, 8, 6)):
        xy = W.vflat_product(random.Random(0), 3, 3, nx, ny, depth)[2]
        yield f"{nx * ny} terms x depth {depth}", "tilt", xy


def jet_series():
    for order in (4, 8, 12, 16, 20):
        yield f"order {order}", "jet", {"action": "verify-cocycle", "p": 5, "order": order, "chi": "2", "c": "1"}


def sen_series():
    for d, prec in ((2, 20), (2, 60), (3, 40), (4, 20), (4, 60)):
        line, _ = W.sen_line(random.Random(0), 5, d, prec)
        yield f"dim {d} x precision {prec}", "sen", {k: v for k, v in line.items() if k != "command"}


SERIES = {
    "rank (phimod, direct sum of rank-1 pieces, p = 3)": rank_series,
    "window W (polygon epsilon_minus_one, p = 3)": window_series,
    "terms x depth (tilt vflat of an eps-power product, p = 3)": terms_series,
    "jet order (jet verify-cocycle, p = 5)": jet_series,
    "Sen dim x precision (sen, p = 5)": sen_series,
}


def main():
    work = run.OUT / "scaling"
    work.mkdir(parents=True, exist_ok=True)
    clock = run.Clock()
    try:
        print("| series | point | normalized ms | raw ms |\n|---|---|---|---|")
        for title, series in SERIES.items():
            for label, command, payload in series():
                op = W.Op(label.replace(" ", "_"), "-", command, payload)
                (argv,) = run.write_inputs([op], work)
                norm, raw = [], []
                for _ in range(REPEATS):
                    cli = run.fresh_cli()
                    (code, _, exc), wall, factor = clock.call(lambda: run.run_cli(cli, argv))
                    if exc or code not in (0, 3):
                        raise SystemExit(f"{label}: exit {code} {exc or ''}")
                    norm.append(wall * factor * 1000)
                    raw.append(wall * 1000)
                print(f"| {title} | {label} | {statistics.median(norm):.1f} | {statistics.median(raw):.1f} |")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
