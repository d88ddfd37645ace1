"""Self-tests of the benchmark: each oracle accepts the program's answer
on small cases and rejects a deliberately wrong one; the tracer patches
every binding and restores them; the workloads are seeded."""

import copy
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import modules as M  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from period_lab import cli, filtered_phi  # noqa: E402


def run(command, payload):
    """(report, exit code) of one command, through a batch of one line so
    no file is needed."""
    line = dict(payload, command=command)
    buf = io.StringIO()
    sys_stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(line) + "\n")
    try:
        with redirect_stdout(buf):
            cli.main(["batch", "--input", "-"])
    finally:
        sys.stdin = sys_stdin
    (res,) = json.loads(buf.getvalue())["results"]
    return res["report"], 3 if res["status"] == "undecided" else 0


def accepts_and_rejects(command, payload, tamper, meta=None):
    report, code = run(command, payload)
    check = oracles.CHECKS[command]
    assert check(payload, report, code, meta or {}) is None
    wrong = copy.deepcopy(report)
    tamper(wrong)
    assert check(payload, wrong, code, meta or {}) is not None


def test_phimod_oracle():
    rank2 = M.module(3, [-3, 1], [[3, 0], [0, 1]],
                     M.hodge_filtration([M.rational_vec([1, 1]), M.rational_vec([1, 0])], [1, 0]))

    def flip(r):
        r["verdict"]["status"] = "not-admissible"

    accepts_and_rejects("phimod", rank2, flip)
    truth = oracles.phimod_truth(workloads.D1_MODULES[0])
    assert truth["status"] == "not-admissible"  # the D1 repro, decided by brute force


def test_polygon_oracles():
    def bump(r):
        r["polygon"]["vertices"][1][1] = "7"

    accepts_and_rejects("polygon", {"kind": "epsilon_minus_one", "p": 3, "window": "7/2"}, bump)
    accepts_and_rejects("polygon", {"kind": "t", "p": 2, "window": ["-3/2", "4"]}, bump)
    series = {"kind": "series", "points": [["0", "3"], ["1", "1"], ["2", None], ["3", "0"], ["4", "2"]]}
    accepts_and_rejects("polygon", series, lambda r: r["polygon"]["vertices"].pop(1))


def test_herbrand_jet_char_oracles():
    accepts_and_rejects("herbrand", {"e": 6, "orders": [6, 3, 3]},
                        lambda r: r.update(different_valuation="1"))
    accepts_and_rejects("jet", {"action": "verify-cocycle", "p": 3, "order": 5, "chi": "4", "c": "1"},
                        lambda r: r.update(verified=False))
    accepts_and_rejects("char", {"op": "classify", "p": 5, "lambda": "2", "a": "3/2", "b": 1},
                        lambda r: r["flags"].update(hodge_tate=True))


def test_tilt_oracles():
    accepts_and_rejects("tilt", {"p": 3, "op": "generator-check", "builtin": "omega", "depth": 3},
                        lambda r: r.update(passes=False))
    accepts_and_rejects("tilt", {"p": 5, "op": "vflat", "builtin": "epsilon_minus_one", "depth": 3},
                        lambda r: r.update(value="1"))
    assert oracles.vflat_additive(1, 2, 3) is None
    assert oracles.vflat_additive(1, 2, 4) is not None


def test_sen_oracle():
    import random

    line, meta = workloads.sen_line(random.Random(0), 5, 2, 20)
    payload = {k: v for k, v in line.items() if k != "command"}
    accepts_and_rejects("sen", payload,
                        lambda r: r["hodge_tate"].update(integer_weights=[0, 2]), meta)
    d2 = {"p": 3, "level": 0, "matrix": [["4"]], "precision": 25}
    report, code = run("sen", d2)
    assert "valuation 24" in oracles.check_sen(d2, report, code, {})


def test_batch_oracle():
    lines = [{"command": "herbrand", "e": 2, "orders": [2]},
             {"command": "jet", "action": "gr-check", "p": 3, "m": 4}]
    buf = io.StringIO()
    sys_stdin, sys.stdin = sys.stdin, io.StringIO("".join(json.dumps(x) + "\n" for x in lines))
    try:
        with redirect_stdout(buf):
            code = cli.main(["batch", "--input", "-"])
    finally:
        sys.stdin = sys_stdin
    report = json.loads(buf.getvalue())
    assert oracles.check_batch(lines, report, code, [{}, {}]) is None
    report["counts"]["ok"] = 1
    assert oracles.check_batch(lines, report, code, [{}, {}]) is not None


def test_batch_oracle_accepts_isolated_d3_error():
    """The D3 fix the repository README promises: the bad line fails alone
    and the file exits 2.  A hand-made summary of that must pass."""
    lines, metas = workloads.fault_file(*next(f for f in workloads.FAULT_FILES if f[0] == "D3"))
    good = lines[:-1]
    buf = io.StringIO()
    sys_stdin, sys.stdin = sys.stdin, io.StringIO("".join(json.dumps(x) + "\n" for x in good))
    try:
        with redirect_stdout(buf):
            cli.main(["batch", "--input", "-"])
    finally:
        sys.stdin = sys_stdin
    report = json.loads(buf.getvalue())
    n = len(lines)
    report["results"].append({"line": n, "status": "error", "message": "bad input"})
    report["counts"]["error"] = 1
    assert oracles.check_batch(lines, report, 2, metas) is None
    assert oracles.check_batch(lines, report, 0, metas) is not None
    # an error on any other line is still a failure
    assert oracles.check_batch(lines, report, 2, [{}] * n) is not None


def test_linked_failure_is_not_a_crash():
    import run as bench

    rank2 = M.module(3, [-3, 1], [[3, 0], [0, 1]],
                     M.hodge_filtration([M.rational_vec([1, 1]), M.rational_vec([1, 0])], [1, 0]))
    report, code = run("phimod", rank2)
    ops = [workloads.Op("a", "small", "phimod", rank2),
           workloads.Op("b", "small", "phimod", rank2, links={"dual_of": "a"}),
           workloads.Op("c", "small", "phimod", rank2, links={"tensor_of": ("a", "b")})]
    good = (code, json.dumps(report), None)
    for broken in ((None, "", "TypeError: boom"), (2, json.dumps({"error": "bad"}), None)):
        reasons, decided = bench.check_outputs(ops, [broken, good, good])
        assert reasons[0] and reasons[1:] == [None, None] and decided == [0, 1, 1]


def test_each_pass_starts_from_a_fresh_import():
    import run as bench

    # the rest of the suite holds the modules imported now: put them back
    saved = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "period_lab"}
    try:
        first = bench.fresh_cli()
        sys.modules["period_lab.tilt"]._MODULUS_CACHE["stale"] = True
        second = bench.fresh_cli()
        assert second is not first and "stale" not in sys.modules["period_lab.tilt"]._MODULUS_CACHE
    finally:
        for name in [n for n in sys.modules if n.split(".")[0] == "period_lab"]:
            del sys.modules[name]
        sys.modules.update(saved)


def test_tracer_patches_every_binding():
    import period_lab.characters as characters
    import period_lab.linalg as linalg

    original = linalg.char_poly
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert filtered_phi.char_poly is linalg.char_poly is characters.char_poly
        assert linalg.char_poly is not original
        assert cli.HANDLERS["phimod"] is cli.run_phimod
        D = filtered_phi.FilteredPhiModule.from_json(workloads.D1_MODULES[0])
        filtered_phi.is_admissible(D)
    finally:
        tracer.remove()
    assert linalg.char_poly is original and filtered_phi.char_poly is original
    counts = dict(zip(tracing._names(), tracer.calls))
    assert counts["linalg.char_poly"] >= 1
    assert counts["filtered_phi.FilteredPhiModule.from_json"] == 1
    assert counts["filtered_phi.FilteredPhiModule.induced_hodge_number"] == 2
    assert counts["padic.rational_valuation"] >= 1


def test_workloads_are_seeded():
    a = [op.payload for op in workloads.periods(7)]
    assert a == [op.payload for op in workloads.periods(7)]
    assert a != [op.payload for op in workloads.periods(8)]
