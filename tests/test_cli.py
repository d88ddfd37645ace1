import argparse
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from period_lab import cli
from period_lab.cli import SchemaError, main
from period_lab.filtered_phi import FilteredPhiModule

_emit = cli._emit


def _assert_str_keys(value):
    if isinstance(value, dict):
        assert all(type(key) is str for key in value), sorted(map(repr, value))
        for item in value.values():
            _assert_str_keys(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _assert_str_keys(item)


@pytest.fixture(autouse=True)
def reports_have_str_keys(monkeypatch):
    """Every report that a test of this module prints has str keys only:
    the report writer encodes each key as a string and takes no other
    type, where json.dumps would convert an int or float key."""

    def checked(report, args):
        _assert_str_keys(report)
        _emit(report, args)

    monkeypatch.setattr(cli, "_emit", checked)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_char_classify(capsys):
    code, report = run_json(
        capsys, "char", "classify", "--p", "5", "--lambda", "1", "--a", "0", "--b", "1"
    )
    assert code == 0
    assert report["schema"] == "period-lab/1"
    assert report["flags"]["crystalline"] is False
    assert report["flags"]["de_rham"] is True


def test_char_multiply_via_stdin(tmp_path, capsys):
    payload = {
        "op": "multiply",
        "factors": [
            {"p": 5, "lambda": "2", "a": "1", "b": 0},
            {"p": 5, "lambda": "1/2", "a": "-1", "b": 0},
        ],
    }
    f = tmp_path / "mult.json"
    f.write_text(json.dumps(payload))
    code, report = run_json(capsys, "char", "multiply", "--input", str(f))
    assert code == 0
    assert report["character"] == {"a": "0", "b": 0, "lambda": "1", "p": 5}


def test_jet_cocycle_flags(capsys):
    code, report = run_json(
        capsys, "jet", "verify-cocycle", "--p", "3", "--order", "6", "--chi", "4", "--c", "1"
    )
    assert code == 0
    assert report["verified"] is True


def test_jet_gr_check(capsys):
    code, report = run_json(capsys, "jet", "gr-check", "--p", "2", "--m", "3")
    assert code == 0
    assert report["generates_graded_piece"] is True


def test_phimod_admissible(tmp_path, capsys):
    module = {
        "p": 5,
        "eisenstein": [-5, 1],
        "dim": 1,
        "frobenius": [["25"]],
        "filtration": [{"jump": 2, "basis": [[["1"]]]}],
    }
    f = tmp_path / "mod.json"
    f.write_text(json.dumps(module))
    code, report = run_json(capsys, "phimod", "--input", str(f))
    assert code == 0
    assert report["verdict"]["status"] == "admissible"
    assert report["hodge_tate_weights"] == [-2]


def test_phimod_undecided_exit_code(tmp_path, capsys):
    module = {
        "p": 5,
        "eisenstein": [-5, 1],
        "dim": 3,
        "frobenius": [
            ["5", "1", "0"],
            ["0", "5", "0"],
            ["0", "0", "625"],
        ],
        "filtration": [
            {"jump": 1, "basis": [[["1"], ["0"], ["0"]], [["0"], ["1"], ["0"]], [["0"], ["0"], ["1"]]]},
            {"jump": 2, "basis": [[["0"], ["1"], ["0"]], [["0"], ["0"], ["1"]]]},
            {"jump": 3, "basis": [[["0"], ["0"], ["1"]]]},
        ],
    }
    f = tmp_path / "mod3.json"
    f.write_text(json.dumps(module))
    code, report = run_json(capsys, "phimod", "--input", str(f))
    assert code == 3
    assert report["verdict"]["status"] == "undecided"


def test_malformed_json_exit_2(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    code, report = run_json(capsys, "char", "classify", "--input", str(f))
    assert code == 2
    assert "line 1" in report["error"]


def test_missing_field_exit_2(tmp_path, capsys):
    f = tmp_path / "missing.json"
    f.write_text(json.dumps({"orders": [4, 2]}))
    code, report = run_json(capsys, "herbrand", "--input", str(f))
    assert code == 2
    assert "'e'" in report["error"]


def test_sen_report(tmp_path, capsys):
    payload = {"p": 3, "level": 1, "matrix": [["1", "3"], ["0", "1"]]}
    f = tmp_path / "sen.json"
    f.write_text(json.dumps(payload))
    code, report = run_json(capsys, "sen", "--input", str(f))
    assert code == 0
    assert report["is_trivial"] is False
    assert report["hodge_tate"]["status"] == "not-hodge-tate"


def test_tilt_generator_check(tmp_path, capsys):
    payload = {"p": 3, "op": "generator-check", "builtin": "omega", "level": 3, "depth": 3}
    f = tmp_path / "tilt.json"
    f.write_text(json.dumps(payload))
    code, report = run_json(capsys, "tilt", "--input", str(f))
    assert code == 0
    assert report["passes"] is True


def test_polygon_report_and_text_format(tmp_path, capsys):
    payload = {"kind": "epsilon_minus_one", "p": 2, "window": 2}
    f = tmp_path / "poly.json"
    f.write_text(json.dumps(payload))
    code, report = run_json(capsys, "polygon", "--input", str(f))
    assert code == 0
    assert report["polygon"]["vertices"] == [["0", "2"], ["1", "1"], ["2", "1/2"]]
    code2, out2 = run_cli(capsys, "polygon", "--input", str(f), "--format", "text")
    assert code2 == 0 and "vertices" in out2


def test_determinism(tmp_path, capsys):
    payload = {"kind": "t", "p": 3, "window": ["-2", "2"]}
    f = tmp_path / "t.json"
    f.write_text(json.dumps(payload))
    _, out1 = run_cli(capsys, "polygon", "--input", str(f))
    _, out2 = run_cli(capsys, "polygon", "--input", str(f))
    assert out1 == out2


def test_report_reparses_under_schema(tmp_path, capsys):
    f = tmp_path / "chi.json"
    f.write_text(json.dumps({"p": 5, "lambda": "1", "a": "1", "b": 0}))
    _, report = run_json(capsys, "char", "classify", "--input", str(f))
    # round-trip: the embedded character reparses as the same input
    code2, report2 = run_json(
        capsys,
        "char",
        "classify",
        "--p",
        str(report["character"]["p"]),
        "--lambda",
        report["character"]["lambda"],
        "--a",
        report["character"]["a"],
        "--b",
        str(report["character"]["b"]),
    )
    assert report2 == report


# ---------------------------------------------------------------------------
# batch mode
# ---------------------------------------------------------------------------


def test_batch_empty(tmp_path, capsys):
    f = tmp_path / "empty.jsonl"
    f.write_text("")
    code, report = run_json(capsys, "batch", "--input", str(f))
    assert code == 0
    assert report["counts"] == {"ok": 0, "undecided": 0, "error": 0}


def test_batch_error_isolation(tmp_path, capsys):
    lines = [
        json.dumps({"command": "char", "p": 5, "lambda": "1", "a": "1", "b": 0}),
        "{broken",
        json.dumps({"command": "char", "p": 5, "lambda": "2", "a": "0", "b": 0}),
        json.dumps({"command": "jet", "action": "gr-check", "p": 2, "m": 2}),
    ]
    f = tmp_path / "batch.jsonl"
    f.write_text("\n".join(lines) + "\n")
    code, report = run_json(capsys, "batch", "--input", str(f))
    assert code == 2
    assert report["counts"] == {"ok": 3, "undecided": 0, "error": 1}
    statuses = [r["status"] for r in report["results"]]
    assert statuses == ["ok", "error", "ok", "ok"]


def test_batch_dim1_grid(tmp_path, capsys):
    lines = []
    p = 5
    for k in range(-3, 4):
        for r in range(-3, 4):
            lam = str(p**k) if k >= 0 else f"1/{p**-k}"
            module = {
                "command": "phimod",
                "p": p,
                "eisenstein": [-p, 1],
                "dim": 1,
                "frobenius": [[lam]],
                "filtration": [{"jump": r, "basis": [[["1"]]]}],
            }
            lines.append(json.dumps(module))
    f = tmp_path / "grid.jsonl"
    f.write_text("\n".join(lines))
    code, report = run_json(capsys, "batch", "--input", str(f))
    assert code == 0
    verdicts = [
        r["report"]["verdict"]["status"] == "admissible" for r in report["results"]
    ]
    expected = [k == r for k in range(-3, 4) for r in range(-3, 4)]
    assert verdicts == expected


def test_batch_determinism(tmp_path, capsys):
    lines = [
        json.dumps({"command": "char", "p": 5, "lambda": "1", "a": "1", "b": 0}),
        json.dumps({"command": "herbrand", "e": 4, "orders": [4, 2, 2]}),
    ]
    f = tmp_path / "det.jsonl"
    f.write_text("\n".join(lines))
    _, out1 = run_cli(capsys, "batch", "--input", str(f))
    _, out2 = run_cli(capsys, "batch", "--input", str(f))
    assert out1 == out2


@pytest.mark.parametrize(
    "bad",
    [
        {"command": "herbrand", "e": None, "orders": [2]},
        {"command": "sen", "p": 3, "level": 1, "matrix": []},
        {"command": "sen", "p": 3, "level": 1, "matrix": [["1", "0"]]},
        {"command": "polygon", "kind": "epsilon_minus_one", "p": 1, "window": "3"},
        # fields of the wrong JSON type, which fail inside the handlers
        {"command": "tilt", "p": 3, "op": "theta", "builtin": "omega", "level": None},
        {"command": "jet", "p": 3, "action": "gr-check", "m": None},
        {"command": "herbrand", "e": 2, "orders": None},
        {"command": "phimod", "p": 5, "eisenstein": [-5, 1], "dim": 1, "frobenius": [["25"]],
         "filtration": [{"jump": None, "basis": [[["1"]]]}]},
        {"command": "polygon", "kind": "t", "p": 3, "window": 5},
        # stated precision 0 - 2 < 1: log(50)/49 is a 7-adic unit, once
        # printed as [["0"]] with is_trivial true
        {"command": "sen", "p": 7, "level": 2, "matrix": [["50"]], "precision": 0},
        # a zero denominator, and integer fields that are not integers:
        # none of them may be truncated or raise past the boundary
        {"command": "char", "p": 5, "lambda": "1/0", "a": "0", "b": 0},
        {"command": "phimod", "p": 5, "eisenstein": [-5, 1], "dim": 1, "frobenius": [["25"]],
         "filtration": [{"jump": 2.9, "basis": [[["1"]]]}]},
        {"command": "tilt", "p": 3, "op": "theta", "level": 2,
         "expr": [{"coeff": 1.7, "a": "1", "c": "0"}]},
        {"command": "tilt", "p": 3, "op": "theta", "builtin": "omega", "level": 2.7},
        {"command": "char", "p": 5, "lambda": "1", "a": "0", "b": 1.5},
        {"command": "sen", "p": 7, "level": 0, "matrix": [["50"]], "precision": True},
        # negative depth and n_max, once an empty answer
        {"command": "tilt", "p": 3, "op": "vflat", "builtin": "epsilon_minus_one", "depth": -1},
        {"command": "tilt", "p": 3, "op": "probe", "builtin": "omega", "level": 2, "n_max": -1},
        # a term that is not an object (AttributeError), and window ends
        # too large to list the ladder's vertices (OverflowError)
        {"command": "tilt", "p": 2, "op": "vflat", "expr": [[]], "depth": 6},
        {"command": "polygon", "kind": "epsilon_minus_one", "p": 3,
         "window": "1000000000000000000000000000000"},
        {"command": "polygon", "kind": "t", "p": 3, "window": ["-2", 10**30]},
        # a filtration step spanned by the zero vector
        {"command": "phimod", "p": 5, "eisenstein": [-5, 1], "frobenius": [["1", "0"], ["0", "1"]],
         "filtration": [{"jump": 0, "basis": [[["1"], ["0"]], [["0"], ["1"]]]},
                        {"jump": 1, "basis": [[["0"], ["0"]]]}]},
    ],
)
def test_batch_isolates_invalid_field(tmp_path, capsys, bad):
    run_alone_and_in_batch(tmp_path, capsys, bad)


def run_alone_and_in_batch(tmp_path, capsys, bad) -> tuple:
    """The error messages of the line ``bad`` run alone and as the middle
    line of a batch.  Alone it exits 2 with a JSON error, never a
    traceback; in the batch only its line fails."""
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({k: v for k, v in bad.items() if k != "command"}))
    code, report = run_json(capsys, bad["command"], "--input", str(f))
    assert code == 2
    assert set(report) == {"schema", "error"}
    good = json.dumps({"command": "herbrand", "e": 4, "orders": [4, 2, 2]})
    f = tmp_path / "bad.jsonl"
    f.write_text("\n".join([good, json.dumps(bad), good]) + "\n")
    code, batch = run_json(capsys, "batch", "--input", str(f))
    assert code == 2
    assert batch["counts"] == {"ok": 2, "undecided": 0, "error": 1}
    assert [r["status"] for r in batch["results"]] == ["ok", "error", "ok"]
    return report["error"], batch["results"][1]["message"]


_TERM = {"coeff": 1, "a": "1/3", "c": "0"}
_MODULE = {"p": 5, "eisenstein": [-5, 1], "frobenius": [["25"]],
           "filtration": [{"jump": 2, "basis": [[["1"]]]}]}
_CHARACTER = {"p": 5, "lambda": "2", "a": "1", "b": 0}


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"command": "tilt", "p": 3, "expr": [_TERM, {"a": "0", "c": "0"}]},
         "missing required field 'coeff' in expr[1]"),
        ({"command": "tilt", "p": 3, "expr": [{**_TERM, "u": {"f": 1}}]},
         "missing required field 'poly' in expr[0].u"),
        ({"command": "phimod", **{k: v for k, v in _MODULE.items() if k != "eisenstein"}},
         "missing required field 'eisenstein'"),
        ({"command": "phimod", **_MODULE,
          "filtration": [{"jump": 0, "basis": [[["1"]]]}, {"basis": [[["1"]]]}]},
         "missing required field 'jump' in filtration[1]"),
        ({"command": "char", "op": "multiply",
          "factors": [_CHARACTER, {k: v for k, v in _CHARACTER.items() if k != "p"}]},
         "missing required field 'p' in factors[1]"),
        # an item that is not an object is named as such, not as missing a field
        ({"command": "char", "op": "multiply", "factors": [_CHARACTER, [5, "2", "1"]]},
         "factors[1] must be a JSON object, got [5, '2', '1']"),
        ({"command": "phimod", **_MODULE, "filtration": [[2, [[["1"]]]]]},
         "filtration[0] must be a JSON object, got [2, [[['1']]]]"),
    ],
)
def test_a_missing_field_and_a_non_object_are_named(tmp_path, capsys, bad, message):
    assert run_alone_and_in_batch(tmp_path, capsys, bad) == (message, message)


@pytest.mark.parametrize("op", ["theta", "probe", "generator-check"])
def test_tilt_rejects_a_negative_level(tmp_path, capsys, op):
    bad = {"p": 3, "op": op, "builtin": "omega", "level": -1}
    message = "level must be nonnegative, got -1"
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(bad))
    code, report = run_json(capsys, "tilt", "--input", str(f))
    assert (code, report["error"]) == (2, message)
    # as the middle line of a batch, that line alone fails
    good = json.dumps({"command": "herbrand", "e": 4, "orders": [4, 2, 2]})
    f = tmp_path / "bad.jsonl"
    f.write_text("\n".join([good, json.dumps({"command": "tilt", **bad}), good]) + "\n")
    code, report = run_json(capsys, "batch", "--input", str(f))
    assert code == 2
    assert [r["status"] for r in report["results"]] == ["ok", "error", "ok"]
    assert report["results"][1]["message"] == message


@pytest.mark.parametrize("kind, extra", [("epsilon_minus_one", {"window": "3"}), ("t", {"window": ["1", "3"]})])
def test_polygon_rejects_non_prime(tmp_path, capsys, kind, extra):
    f = tmp_path / "poly.json"
    f.write_text(json.dumps({"kind": kind, "p": 4, **extra}))
    code, report = run_json(capsys, "polygon", "--input", str(f))
    assert code == 2
    assert "prime" in report["error"]


@pytest.mark.parametrize(
    "command, payload",
    [
        ("phimod", {"p": 4, "eisenstein": [-4, 1], "dim": 1, "frobenius": [["8"]],
                    "filtration": [{"jump": 1, "basis": [[["1"]]]}]}),
        ("sen", {"p": 4, "level": 1, "matrix": [["5"]], "precision": 10}),
    ],
)
def test_phimod_and_sen_reject_non_prime(tmp_path, capsys, command, payload):
    f = tmp_path / "in.json"
    f.write_text(json.dumps(payload))
    code, report = run_json(capsys, command, "--input", str(f))
    assert code == 2
    assert "prime" in report["error"]
    # inside a batch the line fails alone
    good = {"command": "herbrand", "e": 4, "orders": [4, 2, 2]}
    f.write_text("\n".join(json.dumps(x) for x in (good, dict(payload, command=command), good)) + "\n")
    code, report = run_json(capsys, "batch", "--input", str(f))
    assert code == 2
    assert [r["status"] for r in report["results"]] == ["ok", "error", "ok"]
    assert "prime" in report["results"][1]["message"]


def run_process(argv, stdin):
    """The CLI in a fresh interpreter, stopped after 2 s."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "period_lab.cli", *argv],
        input=stdin, capture_output=True, text=True, timeout=2,
        env={**os.environ, "PYTHONPATH": str(src)},
    )


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["tilt", "--input", "-"], {"p": 1, "op": "theta", "builtin": "omega", "level": 2}),
        (["jet", "--input", "-"], {"p": 1, "action": "verify-cocycle", "chi": "1", "c": "0"}),
        (["jet", "--input", "-"], {"p": 6, "action": "gr-check", "m": 3}),
        (["jet", "--p", "1", "--chi", "1", "--c", "0"], None),
    ],
)
def test_tilt_and_jet_reject_non_prime(argv, payload):
    # p = 1 used to loop forever in the valuation of chi
    proc = run_process(argv, json.dumps(payload) if payload else "")
    assert proc.returncode == 2, proc.stderr
    assert "prime" in json.loads(proc.stdout)["error"]
    if payload is None:
        return
    good = {"command": "herbrand", "e": 4, "orders": [4, 2, 2]}
    lines = (good, dict(payload, command=argv[0]), good)
    proc = run_process(["batch", "--input", "-"], "".join(json.dumps(x) + "\n" for x in lines))
    assert proc.returncode == 2, proc.stderr
    report = json.loads(proc.stdout)
    assert [r["status"] for r in report["results"]] == ["ok", "error", "ok"]
    assert "prime" in report["results"][1]["message"]


@pytest.mark.parametrize("p, f", [(3, 100), (10007, 4), (2**61 - 1, 4), (1013, 3)])
def test_tilt_rejects_a_finite_field_past_the_caps(tmp_path, capsys, p, f):
    # the first three are past the field-order cap, and each searched for
    # its modulus for 3 s or more before it; every x^3 + c is reducible
    # mod 1013, so the fourth is past the candidate cap
    payload = {"p": p, "op": "theta", "level": 2,
               "expr": [{"coeff": 1, "a": "0", "c": "0", "u": {"f": f, "poly": [0, 1]}}]}
    good = {"command": "herbrand", "e": 4, "orders": [4, 2, 2]}
    single, batch = tmp_path / "tilt.json", tmp_path / "batch.jsonl"
    single.write_text(json.dumps(payload))
    lines = (good, dict(payload, command="tilt"), good)
    batch.write_text("".join(json.dumps(x) + "\n" for x in lines))
    start = time.perf_counter()
    code, report = run_json(capsys, "tilt", "--input", str(single))
    assert time.perf_counter() - start < 1
    assert code == 2 and str(p) in report["error"]
    start = time.perf_counter()
    code, report = run_json(capsys, "batch", "--input", str(batch))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert [r["status"] for r in report["results"]] == ["ok", "error", "ok"]


@pytest.mark.parametrize(
    "changes",
    [
        {"dim": 2},  # a 1x1 Frobenius
        {"dim": 2, "frobenius": [["25", "0"], ["0", "1"]]},  # 1-entry basis vectors
        # no declared dim: the Frobenius size sets it
        {"dim": None, "filtration": [{"jump": 1, "basis": [[["1"], ["0"]]]}]},
    ],
)
def test_phimod_checks_declared_dim(tmp_path, capsys, changes):
    module = {"p": 5, "eisenstein": [-5, 1], "dim": 1, "frobenius": [["25"]],
              "filtration": [{"jump": 1, "basis": [[["1"]]]}]}
    module = {k: v for k, v in {**module, **changes}.items() if v is not None}
    with pytest.raises(SchemaError, match="dim"):
        FilteredPhiModule.from_json(module)
    f = tmp_path / "mod.json"
    f.write_text(json.dumps(module))
    code, report = run_json(capsys, "phimod", "--input", str(f))
    assert code == 2
    assert "dim" in report["error"]


_RANK2 = {"p": 5, "eisenstein": [-5, 1], "dim": 2, "frobenius": [["1", "0"], ["0", "5"]],
          "filtration": [{"jump": 0, "basis": [[["1"], ["0"]], [["0"], ["1"]]]},
                         {"jump": 1, "basis": [[["0"], ["1"]]]}]}


@pytest.mark.parametrize(
    "field, changes",
    [
        # strings were read character by character: ["10", "05"] as
        # [[1, 0], [0, 5]], a vector "10" as [1, 0], an entry "12" as 1 + 2 pi
        ("frobenius", {"frobenius": ["10", "05"]}),
        ("frobenius", {"frobenius": 12}),
        ("frobenius", {"frobenius": [12, ["0", "5"]]}),
        ("eisenstein", {"eisenstein": "-51"}),
        ("filtration", {"filtration": "x"}),
        ("basis", {"filtration": [{"jump": 0, "basis": ["10", "01"]}]}),
        ("basis", {"filtration": [{"jump": 0, "basis": [[["1"], "0"], [["0"], ["1"]]]}]}),
        ("basis", {"filtration": [{"jump": 0, "basis": [[["1"], ["0"]], [["0"], "12"]]}]}),
        ("basis", {"filtration": [{"jump": 0, "basis": [[["1"], ["0"]], [["0"], 12]]}]}),
    ],
)
def test_phimod_rejects_strings_and_numbers_where_lists_belong(tmp_path, capsys, field, changes):
    module = {**_RANK2, **changes}
    f = tmp_path / "mod.json"
    f.write_text(json.dumps(module))
    code, report = run_json(capsys, "phimod", "--input", str(f))
    assert code == 2
    assert report["error"].startswith(f"field {field!r} must be a list")
    # the middle line of a batch fails alone, with the same message
    good = {"command": "phimod", **_RANK2}
    f = tmp_path / "mods.jsonl"
    f.write_text("".join(json.dumps(x) + "\n" for x in (good, {"command": "phimod", **module}, good)))
    code, batch = run_json(capsys, "batch", "--input", str(f))
    assert code == 2
    assert [r["status"] for r in batch["results"]] == ["ok", "error", "ok"]
    assert batch["results"][1]["message"] == report["error"]


@pytest.mark.parametrize(
    "command, payload, field",
    [
        # strings were read character by character: orders "42" as [4, 2],
        # the window "12" as [1, 2], the points "12" as one point (1, 2)
        ("herbrand", {"e": 4, "orders": "42"}, "orders"),
        ("polygon", {"kind": "t", "p": 3, "window": "12"}, "window"),
        ("polygon", {"kind": "series", "points": "12"}, "points"),
        ("polygon", {"kind": "series", "points": [["0", "1"], "12"]}, "points"),
        ("tilt", {"p": 3, "op": "theta", "level": 2, "expr": "abc"}, "expr"),
        ("char", {"op": "multiply", "factors": "x"}, "factors"),
    ],
)
def test_strings_where_lists_belong_are_refused(tmp_path, capsys, command, payload, field):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(payload))
    code, report = run_json(capsys, command, "--input", str(f))
    assert code == 2
    assert report["error"].startswith(f"field {field!r} must be a list")
    # the middle line of a batch fails alone, with the same message
    good = json.dumps({"command": "herbrand", "e": 4, "orders": [4, 2, 2]})
    f = tmp_path / "bad.jsonl"
    f.write_text("\n".join([good, json.dumps({"command": command, **payload}), good]) + "\n")
    code, batch = run_json(capsys, "batch", "--input", str(f))
    assert code == 2
    assert [r["status"] for r in batch["results"]] == ["ok", "error", "ok"]
    assert batch["results"][1]["message"] == report["error"]


@pytest.mark.parametrize("command", ["herbrand", "polygon", "tilt", "jet", "phimod", "char", "sen", "batch"])
def test_every_subcommand_takes_the_common_flags(command):
    from period_lab.cli import build_parser

    args = build_parser().parse_args(
        [command, "--input", "x.json", "--format", "text", "--precision", "7", "--order", "3"]
    )
    assert (args.command, args.input, args.format, args.precision, args.order) == (
        command, "x.json", "text", 7, 3
    )


def test_flags_do_not_carry_over_between_calls(capsys):
    code, out = run_cli(capsys, "jet", "gr-check", "--p", "3", "--m", "2", "--format", "text")
    assert code == 0 and "generates_graded_piece: True" in out
    # the next call gives neither --p nor --format: JSON, and p is missing
    code, report = run_json(capsys, "jet", "gr-check", "--m", "2")
    assert code == 2
    assert "'p'" in report["error"]


def test_main_builds_the_parser_once(monkeypatch, capsys):
    from period_lab import cli

    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        assert run_json(capsys, "jet", "gr-check", "--p", "2", "--m", "3")[0] == 0
        assert run_json(capsys, "jet", "gr-check", "--p", "3", "--m", "2")[0] == 0
    finally:
        cli._parser.cache_clear()
    assert built == [1]


@pytest.mark.parametrize("eisenstein", [[0, 1], [-9, 1], [1, 1]])
def test_phimod_checks_eisenstein_at_degree_one(tmp_path, capsys, eisenstein):
    # pi would be 0, 9 or -1: none of them a uniformizer of Q_3
    module = {"p": 3, "eisenstein": eisenstein, "dim": 1, "frobenius": [["3"]],
              "filtration": [{"jump": 1, "basis": [[["1"]]]}]}
    f = tmp_path / "mod.json"
    f.write_text(json.dumps(module))
    code, report = run_json(capsys, "phimod", "--input", str(f))
    assert code == 2
    assert set(report) == {"schema", "error"}
    good = {**module, "eisenstein": [-6, 1]}
    f.write_text(json.dumps(good))
    code, report = run_json(capsys, "phimod", "--input", str(f))
    assert code == 0 and report["verdict"]["status"] == "admissible"
    lines = [{"command": "phimod", **m} for m in (good, module, good)]
    f = tmp_path / "mods.jsonl"
    f.write_text("".join(json.dumps(line) + "\n" for line in lines))
    code, report = run_json(capsys, "batch", "--input", str(f))
    assert code == 2
    assert [r["status"] for r in report["results"]] == ["ok", "error", "ok"]


def test_batch_needs_input(capsys):
    code, report = run_json(capsys, "batch")
    assert code == 2
    assert set(report) == {"schema", "error"} and "--input" in report["error"]


@pytest.mark.parametrize("text", ["[]", '"p"', "7"])
def test_input_must_be_a_json_object(tmp_path, capsys, text):
    f = tmp_path / "in.json"
    f.write_text(text)
    code, report = run_json(capsys, "jet", "--input", str(f))
    assert code == 2 and "JSON object" in report["error"]
    good = json.dumps({"command": "herbrand", "e": 4, "orders": [4, 2, 2]})
    f.write_text("\n".join([good, text, good]) + "\n")
    code, report = run_json(capsys, "batch", "--input", str(f))
    assert [r["status"] for r in report["results"]] == ["ok", "error", "ok"]


def test_sen_precision_flag_zero_is_not_ignored(tmp_path, capsys):
    f = tmp_path / "sen.json"
    f.write_text(json.dumps({"p": 7, "level": 0, "matrix": [["50"]], "precision": 20}))
    code, report = run_json(capsys, "sen", "--input", str(f), "--precision", "0")
    assert code == 2
    assert "precision 0" in report["error"]


@pytest.mark.parametrize(
    "command, payload, flags, field, want",
    [
        ("sen", {"p": 7, "level": 0, "matrix": [["50"]], "precision": 20}, ["--precision", "5"],
         lambda r: r["operator"]["precision"], 5),
        ("tilt", {"p": 3, "op": "theta", "builtin": "omega", "level": 2}, ["--precision", "3"],
         lambda r: r["theta"]["level"], 3),
        ("jet", {"p": 3, "action": "verify-cocycle", "chi": "4", "c": "1", "order": 6}, ["--order", "4"],
         lambda r: r["order"], 4),
        ("jet", {"p": 3, "action": "gr-check", "m": 2}, ["--m", "3", "--p", "2"],
         lambda r: (r["m"], r["p"]), (3, 2)),
        ("char", {"p": 5, "lambda": "1", "a": "1", "b": 0}, ["--b", "1"],
         lambda r: r["character"]["b"], 1),
    ],
)
def test_a_given_flag_beats_the_payload(tmp_path, capsys, command, payload, flags, field, want):
    f = tmp_path / "in.json"
    f.write_text(json.dumps(payload))
    code, report = run_json(capsys, command, "--input", str(f), *flags)
    assert code in (0, 3) and field(report) == want
    # without the flag the payload holds
    code, report = run_json(capsys, command, "--input", str(f))
    assert field(report) != want
    # in a batch the common flags reach every line
    if flags[0] in ("--precision", "--order"):
        f.write_text(json.dumps(dict(payload, command=command)) + "\n")
        code, report = run_json(capsys, "batch", "--input", str(f), *flags)
        assert field(report["results"][0]["report"]) == want


def test_positional_action_only_when_given(tmp_path, capsys):
    f = tmp_path / "in.json"
    f.write_text(json.dumps({"p": 3, "action": "gr-check", "m": 2}))
    code, report = run_json(capsys, "jet", "--input", str(f))
    assert code == 0 and "generates_graded_piece" in report
    code, report = run_json(capsys, "jet", "verify-cocycle", "--input", str(f))
    assert code == 2 and "'chi'" in report["error"]


@pytest.mark.parametrize(
    "command, payload",
    [
        ("phimod", {"p": 5, "eisenstein": ["-5", "1"], "frobenius": [["1e300000"]],
                    "filtration": [{"jump": 0, "basis": [[["1"]]]}]}),
        ("tilt", {"p": 3, "op": "vflat", "expr": [{"coeff": 1, "a": "1e300000", "c": "0"}]}),
        ("tilt", {"p": 3, "op": "theta", "expr": [{"coeff": 1, "a": "0", "c": "1e-300000"}]}),
    ],
)
def test_exponent_literal_exits_2_within_a_second(tmp_path, capsys, command, payload):
    # "1e300000" once ran for more than 60 s inside Fraction's parser
    f = tmp_path / "in.json"
    f.write_text(json.dumps(payload))
    start = time.perf_counter()
    code, report = run_json(capsys, command, "--input", str(f))
    assert time.perf_counter() - start < 1
    assert code == 2 and "300000' expands" in report["error"]


def test_polygon_windows_past_the_digit_cap_are_refused_before_work(tmp_path, capsys):
    # each window prints p^W (or p^(1 - lo)) with more than 4,300 digits;
    # they once failed on CPython's int -> str limit after the work
    refused = [
        {"kind": "epsilon_minus_one", "p": 2, "window": 14_400},
        {"kind": "epsilon_minus_one", "p": 3, "window": 10_000},
        {"kind": "epsilon_minus_one", "p": 7, "window": 5_200},
        {"kind": "epsilon_minus_one", "p": 101, "window": 2_200},
        {"kind": "t", "p": 2, "window": ["-14400", "0"]},
    ]
    good = {"command": "herbrand", "e": 4, "orders": [4, 2, 2]}
    single, batch = tmp_path / "poly.json", tmp_path / "batch.jsonl"
    for payload in refused:
        single.write_text(json.dumps(payload))
        start = time.perf_counter()
        code, report = run_json(capsys, "polygon", "--input", str(single))
        assert time.perf_counter() - start < 1
        assert code == 2 and "4,300-digit cap" in report["error"]
        batch.write_text("".join(json.dumps(x) + "\n" for x in (good, dict(payload, command="polygon"), good)))
        code, report = run_json(capsys, "batch", "--input", str(batch))
        assert code == 2
        assert [r["status"] for r in report["results"]] == ["ok", "error", "ok"]
        assert "4,300-digit cap" in report["results"][1]["message"]
    # 101^2100 has 4,210 digits: still printed
    single.write_text(json.dumps({"kind": "epsilon_minus_one", "p": 101, "window": 2_100}))
    code, report = run_json(capsys, "polygon", "--input", str(single))
    assert code == 0
    assert report["polygon"]["right_ray"] == f"-1/{101**2100}"


def test_sen_precisions_past_the_digit_cap_are_refused_before_work(tmp_path, capsys):
    # 7^(6000 + V) has more than 4,300 digits; the operator once failed on
    # CPython's int -> str limit after 4.7 s of work
    payload = {"p": 7, "level": 1, "matrix": [["8", "7"], ["0", "15"]], "precision": 6_000}
    good = {"command": "herbrand", "e": 4, "orders": [4, 2, 2]}
    single, batch = tmp_path / "sen.json", tmp_path / "batch.jsonl"
    single.write_text(json.dumps(payload))
    start = time.perf_counter()
    code, report = run_json(capsys, "sen", "--input", str(single))
    assert time.perf_counter() - start < 0.5
    assert code == 2 and "4,300-digit cap" in report["error"]
    batch.write_text("".join(json.dumps(x) + "\n" for x in (good, dict(payload, command="sen"), good)))
    start = time.perf_counter()
    code, report = run_json(capsys, "batch", "--input", str(batch))
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert [r["status"] for r in report["results"]] == ["ok", "error", "ok"]
    assert "4,300-digit cap" in report["results"][1]["message"]
    # the flag is checked the same way
    code, report = run_json(capsys, "sen", "--input", str(single), "--precision", "100000")
    assert code == 2 and "4,300-digit cap" in report["error"]
    single.write_text(json.dumps(dict(payload, precision=2_000)))
    code, report = run_json(capsys, "sen", "--input", str(single))
    assert code == 0 and report["operator"]["precision"] == 1_999


# leaves and keys of the reports the writer must print as json.dumps does:
# non-ASCII text, quotes, backslashes and control characters, big ints
_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\\n\t\x00\x1f\u2028\ud800')), max_size=8)
_LEAVES = st.one_of(_TEXT, st.integers(), st.integers(-10**60, 10**60), st.booleans(), st.none())
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=16,
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.dictionaries(_TEXT, _VALUES, max_size=5))
def test_report_writer_prints_what_json_dumps_prints(report):
    buf = io.StringIO()
    with redirect_stdout(buf):
        _emit(report, argparse.Namespace(format="json"))
    assert buf.getvalue() == json.dumps(report, sort_keys=True, indent=2) + "\n"


def test_text_format_is_unchanged(tmp_path, capsys):
    lines = [
        {"command": "sen", "p": 3, "level": 1, "matrix": [["1", "3"], ["0", "1"]], "precision": 4},
        {"command": "herbrand", "e": 4, "orders": [4, 2, 2]},
        {"command": "nope"},
    ]
    f = tmp_path / "batch.jsonl"
    f.write_text("".join(json.dumps(x) + "\n" for x in lines))
    code, out = run_cli(capsys, "batch", "--input", str(f), "--format", "text")
    assert code == 2
    assert out == """\
counts:
  error: 1
  ok: 2
  undecided: 0
results:
  line: 1
  report:
    hodge_tate:
      generalized_weights: ['0', '0']
      integer_weights: [0, 0]
      status: not-hodge-tate
    is_trivial: False
    operator:
      matrix: [['0', '1'], ['0', '0']]
      p: 3
      precision: 3
  status: ok
  -
  line: 2
  report:
    different_valuation: 5/4
    phi:
      breakpoints: [['1', '1'], ['3', '2']]
      final_slope: 1/4
    psi:
      breakpoints: [['1', '1'], ['2', '3']]
      final_slope: 4
  status: ok
  -
  line: 3
  message: unknown command 'nope'
  status: error
  -
schema: period-lab/1
"""
