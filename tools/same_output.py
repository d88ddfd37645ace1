"""Compare the CLI output of this checkout with another one.

    python3 tools/same_output.py PARENT_CHECKOUT [--seeds 1 7 23]
                                 [--workloads admissibility periods mixed_batch]

Builds every operation of the benchmark workloads (``perfbench/workloads.py``
of this checkout) at the given seeds and the operations of ``FIXED``, writes
their input files and command lines once with the benchmark's own
``write_inputs`` (``perfbench/run.py``), and runs every operation through
``period_lab.cli.main`` of each checkout, each checkout in its own
interpreter with only its own ``src`` on the path.
Every operation runs twice: as the benchmark runs it (JSON reports) and
again with ``--format text``, which prints Python reprs of the report
values, so a report that changes the type of a value differs there.
It also runs each checkout's own ``demos/*.py`` against that checkout's
``src`` and compares them by file name.  Lists every operation and demo
whose stdout or exit code differs (a demo that only one checkout has
differs) and exits 1 if there is one, else prints the number of operations
compared in each format, of demos and of runs of the ``FIXED`` operations,
and exits 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, command, payload) of the operations compared at every run, each
# reaching a path that no workload operation and no demo reaches:
# the field_modulus search for f > 1 (f = 2 at p = 3); the
# inexact-teichmuller branch of run_tilt, and theta's root exponent
# through padic.residue for the prime-to-p denominator of eps^(1/2);
# Cantor-Zassenhaus in roots_mod_p (p >= 128); is_irreducible_mod_p on
# the cubic x^3 + x - 1, irreducible over Q_2
_TERM = {"coeff": 1, "a": "0", "c": "0"}
FIXED = [
    ("tilt-theta-f2", "tilt", {"p": 3, "op": "theta", "level": 2,
                               "expr": [{**_TERM, "u": {"f": 2, "poly": [0, 1]}}]}),
    ("tilt-theta-inexact", "tilt", {"p": 5, "op": "theta", "level": 1,
                                    "expr": [{**_TERM, "a": "1/2"},
                                             {**_TERM, "u": {"f": 1, "poly": [2]}}]}),
    ("sen-p131", "sen", {"p": 131, "level": 1, "matrix": [[132, 0], [0, 263]], "precision": 4}),
    ("phimod-cubic-p2", "phimod", {
        "p": 2, "eisenstein": [-2, 1], "frobenius": [[0, 0, 1], [1, 0, -1], [0, 1, 0]],
        "filtration": [{"jump": 0, "basis": [[["1"], ["0"], ["0"]], [["0"], ["1"], ["0"]],
                                             [["0"], ["0"], ["1"]]]}],
    }),
]

# run in each checkout's interpreter: argv lists on stdin, one
# [exit code, stdout] pair per operation on stdout
CHILD = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from period_lab import cli
out = []
for argv in json.load(sys.stdin):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    out.append([code, buf.getvalue()])
json.dump(out, sys.stdout)
"""


def run_checkout(checkout: Path, argvs: list) -> list:
    src = checkout.resolve() / "src"
    if not (src / "period_lab" / "cli.py").is_file():
        raise SystemExit(f"no period_lab sources under {src}")
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(src)],
        input=json.dumps(argvs), capture_output=True, text=True, check=True,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    return json.loads(done.stdout)


def run_demos(checkout: Path) -> dict:
    """{file name: [exit code, stdout]} of each demo of the checkout, run
    from its root with only its own ``src`` on the path."""
    root = checkout.resolve()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(root / "src")
    out = {}
    for demo in sorted((root / "demos").glob("*.py")):
        done = subprocess.run(
            [sys.executable, str(demo)], capture_output=True, text=True, cwd=root, env=env
        )
        out[demo.name] = [done.returncode, done.stdout]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the checkout to compare with")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7, 23])
    parser.add_argument("--workloads", nargs="+", default=["admissibility", "periods", "mixed_batch"])
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "perfbench"))
    import run
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        names, argvs = [], []
        for name in args.workloads:
            for seed in args.seeds:
                work = Path(tmp) / f"{name}-{seed}"
                work.mkdir()
                ops = workloads.WORKLOADS[name](seed)
                names += [f"{name} seed {seed} {op.name}" for op in ops]
                argvs += run.write_inputs(ops, work)
        work = Path(tmp) / "fixed"
        work.mkdir()
        names += [f"fixed {name}" for name, _, _ in FIXED]
        argvs += run.write_inputs(
            [workloads.Op(name, "small", command, payload) for name, command, payload in FIXED], work
        )
        argvs += [argv + ["--format", "text"] for argv in argvs]
        ours = run_checkout(ROOT, argvs)
        theirs = run_checkout(args.parent, argvs)
    # ours and theirs: every operation in JSON, then every one in text format;
    # the fixed operations are the last len(FIXED) of each half
    m = len(names)
    n = m - len(FIXED)
    same = [a == b for a, b in zip(ours, theirs)]
    differ = [name for name, ok in zip(names, same) if not ok]
    differ_text = [name for name, ok in zip(names, same[m:]) if not ok]
    ours_demos, theirs_demos = run_demos(ROOT), run_demos(args.parent)
    demos = sorted(set(ours_demos) | set(theirs_demos))
    differ_demos = [d for d in demos if ours_demos.get(d) != theirs_demos.get(d)]
    for name in differ:
        print(f"differs: {name}")
    for name in differ_text:
        print(f"differs: {name} in text format")
    for d in differ_demos:
        print(f"differs: demo {d}")
    print(f"{sum(same[:n])} of {n} operations print the same stdout and exit code")
    print(f"{len(demos) - len(differ_demos)} of {len(demos)} demos print the same stdout and exit code")
    print(f"{sum(same[m:m + n])} of {n} operations print the same stdout and exit code "
          "in text format")
    print(f"{sum(same[n:m]) + sum(same[m + n:])} of {2 * len(FIXED)} runs of the {len(FIXED)} "
          "fixed operations, in JSON and in text format, print the same stdout and exit code")
    return 1 if differ or differ_text or differ_demos else 0


if __name__ == "__main__":
    sys.exit(main())
