"""period-lab benchmark: one workload, timed through ``cli.main``.

    python3 perfbench/run.py --workload admissibility --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout, in one process with no extra threads
(set-up time spawns short-lived interpreters one at a time).  A run
repeats whole passes over the workload's seeded operation list until
``--seconds`` have passed, then checks the first pass's outputs with the
independent oracles and checks that every later pass printed the same.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end with ``--trace 0``, per-layer with
``--trace 1``).  A table for people goes to stderr.

Every time is reference-normalized: wall time x (REF_NOMINAL_S / the mean
of the stdlib-``fractions`` reference loop timed just before and just
after the call).  See README.md for why and for the figures.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# the reference loop's time at nominal speed; a constant of the benchmark
REF_NOMINAL_S = 0.001
REF_ITERATIONS = 150
SETUP_SPAWNS = 12


def reference_loop():
    """Fixed stdlib work that uses no period-lab code: fractions
    arithmetic, plus the dict, str and json churn a CLI call also has.
    Across separate processes this loop tracked the workloads within 1 %,
    a loop of bare fractions arithmetic within 3-7 % (README.md)."""
    acc = Fraction(0)
    rows = []
    for k in range(1, REF_ITERATIONS + 1):
        x = Fraction(k % 17 + 1, k % 13 + 2) * Fraction(k % 7 + 3, k % 5 + 4)
        acc += x
        rows.append({"k": k, "x": str(x)})
    return acc, json.loads(json.dumps(rows))


def reference_time() -> float:
    """The loop's wall time, with the cyclic collector off: the loop makes
    no cycles, and a collection it happened to trigger would time the
    heap, not the machine."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference_loop()
        return time.perf_counter() - start
    finally:
        gc.enable()


class Clock:
    """Times calls between reference loops; the loop after one call is the
    loop before the next."""

    def __init__(self):
        self.last_ref = reference_time()
        self.refs = [self.last_ref]

    def call(self, fn):
        """(result, wall seconds, normalization factor)."""
        before = self.last_ref
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        self.last_ref = reference_time()
        self.refs.append(self.last_ref)
        return result, wall, REF_NOMINAL_S / ((before + self.last_ref) / 2)


def fresh_cli():
    """period_lab.cli imported anew, with every period_lab module: a user
    pays one process per command, so no pass may start with the caches a
    previous pass left at module level (tilt._MODULUS_CACHE, say)."""
    for name in [n for n in sys.modules if n == "period_lab" or n.startswith("period_lab.")]:
        del sys.modules[name]
    from period_lab import cli

    return cli


def run_cli(cli, argv):
    """(exit code or None, stdout, exception text or None)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            return cli.main(argv), buf.getvalue(), None
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            return None, buf.getvalue(), f"{type(exc).__name__}: {exc}"


class Setup:
    """Cold starts: a fresh interpreter until period_lab.cli is imported.
    The starts are spread over the run, between operations, so that their
    median speaks for the whole run and not for its first second."""

    def __init__(self, clock, seconds: float):
        self.clock = clock
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.interval = seconds / SETUP_SPAWNS
        self.norm, self.raw = [], []
        self._spawn()  # writes the bytecode caches, as an installed copy has them
        self.next_at = time.perf_counter()

    def _spawn(self):
        subprocess.run([sys.executable, "-c", "import period_lab.cli"], env=self.env, cwd=ROOT,
                       check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)

    def sample(self, force=False):
        if len(self.norm) >= SETUP_SPAWNS or not (force or time.perf_counter() >= self.next_at):
            return
        _, wall, factor = self.clock.call(self._spawn)
        self.norm.append(wall * factor)
        self.raw.append(wall)
        self.next_at = time.perf_counter() + self.interval

    def finish(self) -> tuple:
        """(median normalized s, median raw s)."""
        while len(self.norm) < SETUP_SPAWNS:
            self.sample(force=True)
        return statistics.median(self.norm), statistics.median(self.raw)


def write_inputs(ops, work: Path) -> list:
    """Input files for every operation; returns each operation's argv."""
    argvs = []
    for op in ops:
        if op.command == "jet":
            pl = op.payload
            argv = ["jet", pl["action"], "--p", str(pl["p"])]
            if pl["action"] == "gr-check":
                argv += ["--m", str(pl["m"])]
            else:
                argv += ["--order", str(pl["order"]), "--chi", pl["chi"], "--c", pl["c"]]
            argvs.append(argv)
            continue
        if op.command == "batch":
            path = work / f"{op.name}.jsonl"
            path.write_text("".join(json.dumps(line) + "\n" for line in op.payload))
        else:
            path = work / f"{op.name}.json"
            path.write_text(json.dumps(op.payload))
        argvs.append([op.command, "--input", str(path)])
    return argvs


def run_pass(ops, argvs, clock, outputs, setup):
    """One pass over every operation, on a fresh import of the program:
    per-op (normalized s, wall s, factor).  The first pass's outputs are
    kept; later ones must match them."""
    cli = fresh_cli()
    gc.collect()
    times = []
    stable = True
    for i, argv in enumerate(argvs):
        setup.sample()
        result, wall, factor = clock.call(lambda: run_cli(cli, argv))
        times.append((wall * factor, wall, factor))
        if len(outputs) <= i:
            outputs.append(result)
        elif outputs[i] != result:
            stable = False
    return times, stable


def check_outputs(ops, outputs):
    """Oracle verdicts: per-op failure reason (or None) and decided counts."""
    import oracles

    reasons, decided, reports = [], [], {}
    for op, (code, stdout, exc) in zip(ops, outputs):
        if exc is not None:
            reasons.append(exc)
            decided.append(0)
            continue
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            reasons.append("stdout is not one JSON report")
            decided.append(0)
            continue
        reports[op.name] = report
        if op.command == "batch":
            why = oracles.check_batch(op.payload, report, code, op.meta)
            n = sum(1 for r in report.get("results", []) if r["status"] == "ok")
        elif "error" in report:
            why, n = f"exit {code}: {report['error']}", 0
        else:
            why = oracles.CHECKS[op.command](op.payload, report, code, op.meta)
            n = int(code == 0)
        reasons.append(why)
        decided.append(0 if why else n)
    for i, op in enumerate(ops):
        if reasons[i] or not op.links:
            continue
        why = _check_links(op, reports, reasons, ops, oracles)
        if why:
            reasons[i], decided[i] = why, 0
    return reasons, decided


def _check_links(op, reports, reasons, ops, oracles):
    """Properties that tie several operations' answers together.  Skipped
    when a linked operation failed: that failure is counted already, and
    its report has no verdict to compare."""
    failed = {o.name for o, why in zip(ops, reasons) if why}
    linked = [v for vs in op.links.values() for v in ([vs] if isinstance(vs, str) else vs)]
    if any(name in failed for name in linked):
        return None
    me = reports[op.name]
    if "dual_of" in op.links:
        other = reports.get(op.links["dual_of"])
        a, b = other["verdict"]["status"], me["verdict"]["status"]
        if "undecided" not in (a, b) and a != b:
            return f"D is {a} but its dual is {b}"
    if "tensor_of" in op.links:
        statuses = [reports[n]["verdict"]["status"] for n in op.links["tensor_of"]]
        if statuses == ["admissible"] * 2 and me["verdict"]["status"] == "not-admissible":
            return "admissible (x) admissible came out not admissible"
    if "product_of" in op.links:
        vx, vy = (oracles.vflat_value(reports[n]) for n in op.links["product_of"])
        return oracles.vflat_additive(vx, vy, oracles.vflat_value(me))
    return None


def end_to_end(ops, passes, col):
    """commands_per_s and the tier medians from per-op times; ``col`` 0
    takes the normalized times, 1 the raw wall times."""
    def tier(name):
        return statistics.median(t[col] * 1000 for times in passes for op, t in zip(ops, times)
                                 if op.tier == name)

    rate = statistics.median(len(ops) / sum(t[col] for t in times) for times in passes)
    return {"commands_per_s": (rate, "1/s"), "small_p50_ms": (tier("small"), "ms"),
            "large_p50_ms": (tier("large"), "ms")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if not (SRC / "period_lab" / "cli.py").is_file():
        print(f"period-lab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # the reference loop only speaks for the core it ran on: keep this
    # process, and the interpreters it spawns, on one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    clock = Clock()
    setup = Setup(clock, args.seconds)
    ops = workloads.WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"inputs-{os.getpid()}"
    work.mkdir()
    try:
        argvs = write_inputs(ops, work)
        # the benchmark's own objects stay out of the program's collections
        gc.collect()
        gc.freeze()
        untraced, traced, outputs = [], [], []
        tracer = tracing.Tracer() if args.trace else None
        stable = True
        deadline = time.perf_counter() + args.seconds
        while True:
            times, ok = run_pass(ops, argvs, clock, outputs, setup)
            untraced.append(times)
            stable = stable and ok
            if tracer is not None:
                traced.append(_traced_pass(ops, argvs, clock, outputs, tracer))
                # same outputs, and the same call counts as the first traced pass
                stable = stable and traced[-1][0] and traced[-1][2] == traced[0][2]
            if time.perf_counter() >= deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_s, setup_raw = setup.finish()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reasons, decided = check_outputs(ops, outputs)
    n_pass = len(untraced) + len(traced)
    unexpected = [(op.name, why) for op, why in zip(ops, reasons) if why and not op.fault]
    failed_per_pass = sum(1 for why in reasons if why)
    for op, why in zip(ops, reasons):
        if why:
            print(f"FAILED {op.name} [{op.fault or 'unexpected'}]: {why}", file=sys.stderr)
    if not stable:
        print("outputs or traced call counts differ between passes", file=sys.stderr)

    pass_s = [sum(t[0] for t in times) for times in untraced]
    raw = dict(end_to_end(ops, untraced, 1), setup_s=(setup_raw, "s"))
    if args.trace:
        metrics = _per_layer(tracing, traced, pass_s, tracer, args, ops)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            **end_to_end(ops, untraced, 0),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "verdicts_decided": (sum(decided), "count"),
        }
    refs = statistics.quantiles(clock.refs, n=4)
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced)} "
          f"traced passes of {len(ops)} operations; reference loop median {refs[1] * 1000:.3f} ms, "
          f"quartile spread {(refs[2] - refs[0]) / refs[1]:.3f}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        beside = f"   raw {raw[name][0]:.4f}" if name in raw else ""
        print(f"  {name:48s} {value:14.4f} {unit}{beside}", file=sys.stderr)
    result = {
        "correct": stable and not unexpected,
        "attempted": n_pass * len(ops),
        "failed": n_pass * failed_per_pass,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _traced_pass(ops, argvs, clock, outputs, tracer):
    """One traced pass, on a fresh import of the program: (outputs stable,
    pass seconds, per-function calls, normalized total and self seconds)."""
    cli = fresh_cli()
    n = len(tracer.calls)
    calls, total, own = [0] * n, [0.0] * n, [0.0] * n
    tracer.keep_spans = not tracer.spans
    tracer.install()
    try:
        gc.collect()
        stable, pass_s = True, 0.0
        for i, argv in enumerate(argvs):
            c0, t0, o0 = tracer.snapshot()
            result, wall, factor = clock.call(lambda: run_cli(cli, argv))
            pass_s += wall * factor
            stable = stable and outputs[i] == result
            for f in range(n):
                calls[f] += tracer.calls[f] - c0[f]
                total[f] += (tracer.total[f] - t0[f]) * factor
                own[f] += (tracer.own[f] - o0[f]) * factor
    finally:
        tracer.remove()
        tracer.keep_spans = False
    return stable, pass_s, calls, total, own


def _per_layer(tracing, traced, pass_s, tracer, args, ops):
    calls = traced[0][2]
    n = len(calls)
    total = [statistics.median(t[3][f] for t in traced) for f in range(n)]
    own = [statistics.median(t[4][f] for t in traced) for f in range(n)]
    units = dict(tracing.metric_names())
    metrics = {k: (v, units[k]) for k, v in tracing.layer_metrics(calls, total, own).items()}
    overhead = statistics.median(t[1] for t in traced) / statistics.median(pass_s) - 1
    metrics["trace.overhead_pct"] = (overhead * 100, "%")
    tracer.write(OUT / f"trace-{args.workload}.txt",
                 {"workload": args.workload, "seed": args.seed, "operations": len(ops)})
    return metrics


if __name__ == "__main__":
    sys.exit(main())
