import argparse
import ast
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cli_reference
from period_lab import cli, padic
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


@pytest.mark.parametrize("fault", [IndexError("list index out of range"),
                                   AssertionError("a component of the wrong size")])
def test_an_internal_fault_exits_4_and_fails_only_its_batch_line(tmp_path, capsys, monkeypatch, fault):
    """A handler that raises anything but an input error is an internal
    error.  Alone it exits 4 with a JSON error naming the exception's type
    and message, never a traceback; as the middle line of a batch its line
    gets the status internal-error, counted under error, the lines around
    it are still answered, and the file exits 4.  Each time the traceback
    goes to stderr."""

    def broken(payload, args):
        raise fault

    monkeypatch.setitem(cli.HANDLERS, "phimod", broken)
    f = tmp_path / "module.json"
    f.write_text("{}")
    code = main(["phimod", "--input", str(f)])
    out, err = capsys.readouterr()
    assert code == 4
    message = f"internal error: {type(fault).__name__}: {fault}"
    assert json.loads(out) == {"schema": cli.SCHEMA, "error": message}
    # the traceback goes to stderr, for whoever reports the fault
    assert err.startswith("Traceback") and err.rstrip().endswith(f"{type(fault).__name__}: {fault}")
    good = json.dumps({"command": "herbrand", "e": 4, "orders": [4, 2, 2]})
    f = tmp_path / "faulty.jsonl"
    f.write_text("\n".join([good, json.dumps({"command": "phimod"}), good]) + "\n")
    code, batch = run_json(capsys, "batch", "--input", str(f))
    assert code == 4
    assert batch["counts"] == {"ok": 2, "undecided": 0, "error": 1}
    assert [r["status"] for r in batch["results"]] == ["ok", "internal-error", "ok"]
    assert batch["results"][1] == {"line": 2, "status": "internal-error", "message": message}
    assert batch["results"][0]["report"] == batch["results"][2]["report"]


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


_THETA = {"command": "tilt", "p": 3, "op": "theta", "level": 2}


@pytest.mark.parametrize(
    "bad, message",
    [
        # a string was read one character at a time ("12" as [1, 2], exit 0)
        ({**_THETA, "expr": [{**_TERM, "u": {"f": 1, "poly": "12"}}]},
         "field 'poly' must be a list, got '12'"),
        # a number exited with "'int' object is not iterable"
        ({**_THETA, "expr": [{**_TERM, "u": {"f": 1, "poly": 12}}]},
         "field 'poly' must be a list, got 12"),
        ({"command": "sen", "p": 7, "matrix": 7}, "field 'matrix' must be a list, got 7"),
        # a u that is empty or false was read as the Teichmueller lift of 1
        ({**_THETA, "expr": [{**_TERM, "u": {}}]}, "missing required field 'poly' in expr[0].u"),
        ({**_THETA, "expr": [{**_TERM, "u": 0}]}, "expr[0].u must be a JSON object, got 0"),
        # a list was looked up as a name: "unhashable type: 'list'"
        ({**_THETA, "builtin": ["omega"]}, "field 'builtin' must be a string, got ['omega']"),
    ],
)
def test_a_value_of_the_wrong_type_is_named(tmp_path, capsys, bad, message):
    assert run_alone_and_in_batch(tmp_path, capsys, bad) == (message, message)


def test_a_batch_command_that_is_not_a_string_is_named(tmp_path, capsys):
    # a list was looked up among the handlers: "unhashable type: 'list'"
    good = json.dumps({"command": "herbrand", "e": 4, "orders": [4, 2, 2]})
    f = tmp_path / "bad.jsonl"
    f.write_text("\n".join([good, json.dumps({**_THETA, "command": ["tilt"]}), good]) + "\n")
    code, batch = run_json(capsys, "batch", "--input", str(f))
    assert code == 2
    assert [r["status"] for r in batch["results"]] == ["ok", "error", "ok"]
    assert batch["results"][1]["message"] == "field 'command' must be a string, got ['tilt']"


@pytest.mark.parametrize(
    "bad, message",
    [
        # a series point or a t window of the wrong length exited 2 with
        # Python's "too many values to unpack (expected 2)"
        ({"command": "polygon", "kind": "series", "points": [[0, "1", 5]]},
         "points[0] must be a pair [x, v], got [0, '1', 5]"),
        ({"command": "polygon", "kind": "series", "points": [[0, "1"], [1]]},
         "points[1] must be a pair [x, v], got [1]"),
        ({"command": "polygon", "kind": "t", "p": 3, "window": [0]},
         "window must be a pair [lo, hi], got [0]"),
    ],
)
def test_a_pair_of_the_wrong_length_is_named(tmp_path, capsys, bad, message):
    assert run_alone_and_in_batch(tmp_path, capsys, bad) == (message, message)


_COCYCLE = {"command": "jet", "action": "verify-cocycle", "p": 3, "order": 4, "chi": "2", "c": "1"}
_PHIMOD = {"command": "phimod", "p": 5, "eisenstein": [-5, 1]}


def _vectors(*rows):
    """Filtration basis vectors over Q_p from rational rows."""
    return [[[str(x)] for x in row] for row in rows]


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"command": "char", "op": "multiply", "factors": [_CHARACTER, {**_CHARACTER, "p": 7}]},
         "mixed primes"),
        ({**_COCYCLE, "chi": "3"}, "chi must be a p-adic unit"),
        ({**_COCYCLE, "c": "1/3"}, "cocycle value must be p-integral"),
        ({**_COCYCLE, "order": 0}, "truncation order must be >= 1"),
        ({**_COCYCLE, "order": 1}, "the cocycle needs order >= 2"),
        ({"command": "jet", "action": "gr-check", "p": 3, "m": -1}, "negative filtration order"),
        ({"command": "herbrand", "e": 2, "orders": []}, "totally ramified model requires g_0 = e"),
        ({"command": "herbrand", "e": 2, "orders": [2, 0]}, "group orders are >= 1"),
        ({"command": "sen", "p": 3, "level": -1, "matrix": [[4]]}, "level must be nonnegative"),
        ({**_PHIMOD, "frobenius": [["1", "0"], ["0"]],
          "filtration": [{"jump": 0, "basis": _vectors((1, 0))}]},
         "Frobenius matrix must be square"),
        ({**_PHIMOD, "frobenius": [["1", "0"], ["0", "5"]], "filtration": [{"jump": 0, "basis": []}]},
         "filtration subspaces must be nonzero"),
        ({**_PHIMOD, "frobenius": [["1", "0", "0"], ["0", "5", "0"], ["0", "0", "25"]],
          "filtration": [
              {"jump": 0, "basis": _vectors((1, 0, 0), (0, 1, 0), (0, 0, 1))},
              {"jump": 1, "basis": _vectors((1, 0, 0), (0, 1, 0))},
              {"jump": 2, "basis": _vectors((0, 0, 1))},
          ]},
         "filtration subspaces must be nested"),
        ({"command": "tilt", "p": 3, "op": "sum", "builtin": "omega"}, "unknown tilt op 'sum'"),
        ({"command": "jet", "action": "sum", "p": 3}, "unknown jet action 'sum'"),
        ({"command": "char", "op": "sum", **_CHARACTER}, "unknown char op 'sum'"),
        ({"command": "char", "op": "multiply", "factors": []}, "multiply needs at least one factor"),
        # a zero order past g_1 is refused before the divisibility test
        # divides by it
        ({"command": "herbrand", "e": 4, "orders": [4, 2, 0]}, "group orders are >= 1"),
        ({"command": "herbrand", "e": 4, "orders": [4, 2, 2, 0]}, "group orders are >= 1"),
    ],
)
def test_a_refused_input_keeps_its_message(tmp_path, capsys, bad, message):
    assert run_alone_and_in_batch(tmp_path, capsys, bad) == (message, message)


@pytest.mark.parametrize("eisenstein", [[-3, 1], [-3, 0, 1]])
@pytest.mark.parametrize(
    "line, more",
    [
        ([["1"], ["1"]], [["2"], ["2"]]),
        ([["1"], ["1"]], [["0"], ["0"]]),
        ([["1"], ["1"]], [["0", "1"], ["0", "1"]]),  # pi times the line
        ([["1"], ["0"]], [["0", "2"], ["0"]]),  # the stable line of eigenvalue 1
        ([["0", "1"], ["1"]], [["0", "2"], ["2"]]),  # over Q_p only when e = 1
    ],
)
def test_a_middle_line_listed_twice_decides_as_listed_once(tmp_path, capsys, eisenstein, line,
                                                           more):
    """A rank-2 middle step that lists its line beside a K-multiple of it
    gets the report of the step that lists the line once, alone and as
    the middle line of a batch."""
    def module(basis):
        return {"command": "phimod", "p": 3, "eisenstein": eisenstein,
                "frobenius": [["1", "0"], ["0", "3"]],
                "filtration": [{"jump": 0, "basis": _vectors((1, 0), (0, 1))},
                               {"jump": 1, "basis": basis}]}

    def run(payload):
        f = tmp_path / "module.json"
        f.write_text(json.dumps({k: v for k, v in payload.items() if k != "command"}))
        code, alone = run_json(capsys, "phimod", "--input", str(f))
        assert alone.pop("schema") == "period-lab/1"
        good = json.dumps({"command": "herbrand", "e": 4, "orders": [4, 2, 2]})
        f = tmp_path / "batch.jsonl"
        f.write_text("\n".join([good, json.dumps(payload), good]) + "\n")
        batch_code, batch = run_json(capsys, "batch", "--input", str(f))
        assert batch_code == 0
        assert [r["status"] for r in batch["results"]] == ["ok", "ok", "ok"]
        return code, alone, batch["results"][1]["report"]

    code, report, in_batch = run(module([line]))
    assert code == 0
    assert in_batch == report
    for basis in ([line, more], [more, line]):
        assert run(module(basis)) == (code, report, report)


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"command": "char", **_CHARACTER, "lambda": "1_001"}, "Invalid literal for Fraction: '1_001'"),
        ({"command": "char", **_CHARACTER, "p": "1_1"}, "field 'p' must be an integer, got '1_1'"),
    ],
)
def test_a_numeric_string_with_an_underscore_is_refused(tmp_path, capsys, bad, message):
    assert run_alone_and_in_batch(tmp_path, capsys, bad) == (message, message)


@pytest.mark.parametrize(
    "command, payload, flag, field",
    [
        ("tilt", {"p": 3, "op": "theta", "builtin": "omega"}, "--precision", "level"),
        ("sen", {"p": 7, "level": 0, "matrix": [["50"]]}, "--precision", "precision"),
        ("jet", {"action": "verify-cocycle", "p": 3, "chi": "2", "c": "1"}, "--order", "order"),
        ("jet", {"action": "gr-check", "p": 3}, "--m", "m"),
        ("jet", {"action": "gr-check", "m": 2}, "--p", "p"),
        ("char", {"lambda": "1", "a": "0"}, "--p", "p"),
        ("char", _CHARACTER, "--b", "b"),
    ],
)
def test_an_integer_flag_reads_as_its_json_field(tmp_path, capsys, command, payload, flag, field):
    # argparse's int() read "1_0" as 10, where the JSON field refuses it
    f = tmp_path / "in.json"
    f.write_text(json.dumps({**payload, field: "1_0"}))
    code, from_json = run_json(capsys, command, "--input", str(f))
    assert code == 2
    assert from_json["error"] == f"field {field!r} must be an integer, got '1_0'"
    f.write_text(json.dumps(payload))
    assert run_json(capsys, command, "--input", str(f), flag, "1_0") == (2, from_json)
    if flag in ("--precision", "--order"):  # the common flags reach every batch line
        f.write_text(json.dumps({**payload, "command": command}) + "\n")
        code, report = run_json(capsys, "batch", "--input", str(f), flag, "1_0")
        assert code == 2 and report["results"][0]["message"] == from_json["error"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["char", "classify", "--p", "1_1", "--lambda", "1", "--a", "0"],
         "field 'p' must be an integer, got '1_1'"),
        (["jet", "gr-check", "--p", "3", "--m", "1_0"], "field 'm' must be an integer, got '1_0'"),
        (["jet", "gr-check", "--p", "3", "--m", "x"], "field 'm' must be an integer, got 'x'"),
    ],
)
def test_a_bad_integer_flag_gets_the_json_error(capsys, argv, message):
    assert run_json(capsys, *argv) == (2, {"schema": cli.SCHEMA, "error": message})


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"command": "jet", "action": "verify-cocycle", "p": 5, "chi": "2", "c": "1/2"}, "order"),
        ({"command": "jet", "action": "gr-check", "p": 5}, "m"),
    ],
)
def test_jet_orders_past_the_cap_are_refused_before_work(tmp_path, capsys, payload, field):
    cap = cli.MAX_JET_ORDER
    message = f"field {field!r} must be at most {cap:,}, got {cap + 1}"
    start = time.perf_counter()
    assert run_alone_and_in_batch(tmp_path, capsys, {**payload, field: cap + 1}) == (message, message)
    assert time.perf_counter() - start < 1
    code, report = run_json(capsys, "jet", "gr-check", "--p", "5", "--m", str(cap))
    assert code == 0 and report["generates_graded_piece"] is True


@pytest.mark.parametrize(
    "payload, field, cap",
    [
        ({"op": "theta", "builtin": "omega"}, "level", cli.MAX_TILT_LEVEL),
        ({"op": "generator-check", "builtin": "omega"}, "level", cli.MAX_TILT_LEVEL),
        ({"op": "vflat", "builtin": "omega"}, "depth", cli.MAX_TILT_DEPTH),
        ({"op": "generator-check", "builtin": "omega"}, "depth", cli.MAX_TILT_DEPTH),
        ({"op": "probe", "builtin": "omega"}, "level", cli.MAX_PROBE_LEVEL),
        # the probe caps level + n_max
        ({"op": "probe", "builtin": "omega", "level": 3}, "n_max", cli.MAX_PROBE_LEVEL - 3),
        ({"op": "probe", "builtin": "omega", "level": 0}, "n_max", cli.MAX_PROBE_LEVEL),
        # read before the expression, which is not parsed
        ({"op": "vflat", "expr": "not a term list"}, "depth", cli.MAX_TILT_DEPTH),
        # p is read first, before the other fields and before primality
        ({"op": "theta", "builtin": "omega"}, "p", cli.MAX_TILT_P),
        ({"op": "vflat", "expr": "not a term list", "depth": 10**9}, "p", cli.MAX_TILT_P),
        ({"op": "probe", "builtin": "omega", "level": 4000, "n_max": 4000}, "p", cli.MAX_TILT_P),
    ],
)
def test_tilt_fields_past_their_cap_are_refused_before_work(tmp_path, capsys, payload, field, cap):
    message = f"field {field!r} must be at most {cap:,}, got {cap + 1}"
    start = time.perf_counter()
    bad = {"command": "tilt", "p": 5, **payload, field: cap + 1}
    assert run_alone_and_in_batch(tmp_path, capsys, bad) == (message, message)
    assert time.perf_counter() - start < 1


def test_tilt_refuses_the_first_prime_past_its_cap(tmp_path, capsys):
    # v_flat's cost per depth grows about as p^2; the cap itself answers
    message = f"field 'p' must be at most {cli.MAX_TILT_P}, got 11"
    bad = {"command": "tilt", "p": 11, "op": "generator-check", "builtin": "omega"}
    assert run_alone_and_in_batch(tmp_path, capsys, bad) == (message, message)
    f = tmp_path / "tilt.json"
    f.write_text(json.dumps({"p": cli.MAX_TILT_P, "op": "generator-check", "builtin": "omega"}))
    code, report = run_json(capsys, "tilt", "--input", str(f))
    assert code == 0 and report["passes"] is True


def test_jet_rationals_past_the_digit_cap_are_refused(tmp_path, capsys):
    """verify-cocycle's time grows with the digits of c and chi, which are
    capped; at the cap a small order still answers."""
    line = {"command": "jet", "action": "verify-cocycle", "p": 5, "order": 1024}
    for chi, c, field, shown in (("2", "1/1000", "c", "1/1000"), ("2", "-1000", "c", "-1000"),
                                 ("1001/3", "1", "chi", "1001/3")):
        message = (f"field {field!r} must have a numerator and a denominator of at most "
                   f"3 digits, got {shown}")
        start = time.perf_counter()
        bad = {**line, "chi": chi, "c": c}
        assert run_alone_and_in_batch(tmp_path, capsys, bad) == (message, message)
        assert time.perf_counter() - start < 1
    code, report = run_json(capsys, "jet", "--p", "5", "--order", "6", "--chi=-998/997",
                            "--c=-999/998")
    assert code == 0 and report["verified"] is True


def test_an_input_path_that_does_not_exist(tmp_path, capsys):
    path = tmp_path / "absent.json"
    for command in ("herbrand", "batch"):
        code, report = run_json(capsys, command, "--input", str(path))
        assert code == 2
        assert report["error"] == (
            f"cannot read {path}: [Errno 2] No such file or directory: '{path}'"
        )


def test_blank_lines_of_a_batch_are_skipped(tmp_path, capsys):
    good = json.dumps({"command": "herbrand", "e": 4, "orders": [4, 2, 2]})
    f = tmp_path / "blank.jsonl"
    f.write_text("\n".join(["", good, "   ", "\t", good, ""]) + "\n")
    code, report = run_json(capsys, "batch", "--input", str(f))
    assert code == 0
    assert report["counts"] == {"ok": 2, "undecided": 0, "error": 0}
    assert [r["line"] for r in report["results"]] == [2, 5]


@pytest.mark.parametrize(
    "payload, field, want",
    [
        # [2] at p = 5 is a 4th root of unity, outside every p^N-th cyclotomic field
        ({"p": 5, "op": "theta", "level": 1, "expr": [{**_TERM, "a": "0", "u": {"f": 1, "poly": [2]}}]},
         "is_zero", "inexact-teichmuller"),
        ({"p": 3, "op": "vflat", "depth": 0, "builtin": "omega"}, "stabilized", False),
    ],
)
def test_an_undecided_tilt_answer_exits_3(tmp_path, capsys, payload, field, want):
    f = tmp_path / "in.json"
    f.write_text(json.dumps(payload))
    code, report = run_json(capsys, "tilt", "--input", str(f))
    assert code == 3 and report[field] == want


# one small operation of each command; the tilt one reads an expression
_EVERY_COMMAND = [
    ("herbrand", {"e": 4, "orders": [4, 2, 2]}),
    ("polygon", {"kind": "series", "points": [[0, "1"], [1, "0"]]}),
    ("tilt", {"p": 3, "op": "theta", "level": 1, "expr": [_TERM]}),
    ("jet", {"action": "gr-check", "p": 3, "m": 2}),
    ("phimod", {"p": 5, "eisenstein": [-5, 1], "frobenius": [["25"]],
                "filtration": [{"jump": 2, "basis": [[["1"]]]}]}),
    ("char", {"op": "classify", **_CHARACTER}),
    ("sen", {"p": 3, "level": 1, "matrix": [["4"]], "precision": 6}),
]


def test_every_json_method_in_the_package_is_one_a_command_calls(tmp_path, capsys):
    # CPython 3.10 has no co_qualname, so a definition is its file and first
    # line (its first decorator's line, as the code object records it)
    src = Path(cli.__file__).resolve().parent
    defined = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in ("to_json", "from_json"):
                line = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                defined[(str(path), line)] = f"{path.name}:{node.lineno} {node.name}"
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno))

    f = tmp_path / "in.json"
    for command, payload in _EVERY_COMMAND:
        f.write_text(json.dumps(payload))
        for fmt in ("json", "text"):
            sys.setprofile(profile)
            try:
                code = main([command, "--input", str(f), "--format", fmt])
            finally:
                sys.setprofile(None)
            capsys.readouterr()
            assert code == 0, command
    called = {(str(Path(name).resolve()), line) for name, line in called}
    assert defined
    assert sorted(name for key, name in defined.items() if key not in called) == []


# run in a fresh interpreter, so that no cache an earlier test filled (the
# field moduli of tilt, say) keeps a function from being called: every
# operation of the three benchmark workloads at seed 1, the fixed
# operations of tools/same_output.py in JSON and text, --help at the top
# and for each command, and every demo, all under one profiler; prints
# the (file, first line) of each function called
_REACHED_CHILD = r"""
import contextlib, io, json, runpy, sys, tempfile
from pathlib import Path

root = Path(sys.argv[1])
sys.path[:0] = [str(root / "perfbench"), str(root / "tools")]
import run, workloads
from same_output import FIXED
from period_lab import cli

reached = set()


def profile(frame, event, arg):
    if event == "call":
        reached.add(frame.f_code)


with tempfile.TemporaryDirectory() as tmp:
    ops = [op for make in workloads.WORKLOADS.values() for op in make(1)]
    fixed = [workloads.Op(name, "small", command, payload) for name, command, payload in FIXED]
    argvs = run.write_inputs(ops + fixed, Path(tmp))
    argvs += [argv + ["--format", "text"] for argv in argvs[len(ops):]]
    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            for argv in argvs:
                cli.main(argv)
            for argv in [["--help"], *([command, "--help"] for command in cli.COMMANDS)]:
                with contextlib.suppress(SystemExit):
                    cli.main(argv)
            for demo in sorted((root / "demos").glob("*.py")):
                runpy.run_path(str(demo), run_name="__main__")
        finally:
            sys.setprofile(None)
json.dump([[code.co_filename, code.co_firstlineno] for code in reached], sys.stdout)
"""

# public functions that no command and no demo reaches in that run, and
# what holds each: the traced benchmark run looks up every name of
# perfbench/tracing.py TARGETS, and these are reached by an edge branch
_HELD_BY_A_BRANCH = {
    "jets.JetContext.zero": "JetElement.__pow__, when the power vanishes below the order",
    "linalg.squarefree_part": "rational_roots (a TARGETS name) on a polynomial with a repeated "
                              "root and no certificate passed; phimod passes one",
    "tilt.FqElement.power": "tilt probe past n = 0 on Teichmueller parts of f > 1 that "
                            "cancel at the level (theta of phi^n applies Frobenius to them)",
}


def test_every_public_function_in_the_package_is_reached():
    # keyed as in the JSON-method guard above: CPython 3.10 has no
    # co_qualname, so a definition is its file and first line
    root = Path(__file__).resolve().parents[1]
    src = Path(cli.__file__).resolve().parent
    defined = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            owner, members = "", [node]
            if isinstance(node, ast.ClassDef):
                owner, members = node.name + ".", node.body
            for f in members:
                if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"):
                    line = min([f.lineno, *(d.lineno for d in f.decorator_list)])
                    defined[(str(path), line)] = f"{path.stem}.{owner}{f.name}"
    proc = subprocess.run(
        [sys.executable, "-c", _REACHED_CHILD, str(root)], capture_output=True, text=True,
        timeout=600, env={**os.environ, "PYTHONPATH": str(src.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    reached = {(str(Path(name).resolve()), line) for name, line in json.loads(proc.stdout)}
    sys.path.insert(0, str(root / "perfbench"))
    try:
        import tracing
    finally:
        sys.path.remove(str(root / "perfbench"))
    held = {f"{module}.{name}" for _, module, name, *_ in tracing.TARGETS} | set(_HELD_BY_A_BRANCH)
    assert set(_HELD_BY_A_BRANCH) <= set(defined.values())
    assert sorted(name for key, name in defined.items() if key not in reached and name not in held) == []


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


_PRIME_LINES = [
    {"command": "tilt", "p": 5, "op": "theta", "builtin": "omega", "level": 2},
    {"command": "tilt", "p": 3, "op": "vflat", "expr": [_TERM], "depth": 2},
    {"command": "tilt", "p": 3, "op": "generator-check", "builtin": "epsilon_minus_one"},
    {"command": "jet", "p": 5, "action": "verify-cocycle", "chi": "2", "c": "1", "order": 4},
    {"command": "jet", "p": 3, "action": "gr-check", "m": 3},
    {"command": "sen", "p": 3, "level": 1, "matrix": [["4", 3], ["0", "1"]], "precision": 10},
]


@pytest.mark.parametrize("line", _PRIME_LINES, ids=lambda line: f"{line['command']}-{line['p']}")
def test_one_primality_test_per_line(tmp_path, capsys, monkeypatch, line):
    # every binding of the Miller-Rabin test in the package counts
    calls = []
    test = padic.is_probable_prime

    def counted(n):
        calls.append(n)
        return test(n)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("period_lab") and hasattr(module, "is_probable_prime"):
            monkeypatch.setattr(module, "is_probable_prime", counted)
    f = tmp_path / "in.json"
    f.write_text(json.dumps({k: v for k, v in line.items() if k != "command"}))
    code, _ = run_json(capsys, line["command"], "--input", str(f))
    assert code in (0, 3) and calls == [line["p"]]
    calls.clear()
    f.write_text(json.dumps(line) + "\n" + json.dumps(line) + "\n")
    code, report = run_json(capsys, "batch", "--input", str(f))
    assert report["counts"]["error"] == 0 and calls == [line["p"]] * 2


def test_a_composite_p_keeps_its_message(tmp_path, capsys):
    f = tmp_path / "in.json"
    f.write_text(json.dumps({"p": 4, "level": 1, "matrix": [["5"]], "precision": 10}))
    code, report = run_json(capsys, "sen", "--input", str(f))
    assert code == 2 and report["error"] == "field 'p' must be a prime, got 4"


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
    args = cli.parse_args(
        [command, "--input", "x.json", "--format", "text", "--precision", "7", "--order", "3"]
    )
    # the integer flags stay strings: the handlers read them as JSON fields
    assert (args.command, args.input, args.format, args.precision, args.order) == (
        command, "x.json", "text", "7", "3"
    )


# the parser's surface before the flags were declared in one table: per
# subcommand, in --help's order, each argument's option strings, choices,
# default and nargs after the help flag and the common flags; the tables
# still build the same argparse parser in cli_reference
_COMMON_SURFACE = [
    (["--input"], None, None, None),
    (["--format"], ("json", "text"), "json", None),
    (["--precision"], None, None, None),
    (["--order"], None, None, None),
]
_SURFACE = {
    "herbrand": [], "polygon": [], "phimod": [], "sen": [], "tilt": [],
    "jet": [([], ("verify-cocycle", "gr-check"), None, "?"), (["--p"], None, None, None),
            (["--chi"], None, None, None), (["--c"], None, None, None), (["--m"], None, None, None)],
    "char": [([], ("classify", "multiply"), None, "?"), (["--p"], None, None, None),
             (["--lambda"], None, None, None), (["--a"], None, None, None), (["--b"], None, None, None)],
    "batch": [],
}


def test_the_parser_surface_is_unchanged():
    sub = next(a for a in cli_reference.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(_SURFACE)
    for name, extra in _SURFACE.items():
        help_flag, *rest = sub.choices[name]._actions
        assert help_flag.option_strings == ["-h", "--help"]
        got = [(a.option_strings, a.choices, a.default, a.nargs) for a in rest]
        assert got == _COMMON_SURFACE + extra, name


def _read(reader, argv):
    """vars() of the namespace that reader gives argv, or its exit code,
    with stdout and stderr kept apart: a refusal prints nothing to stdout."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            return vars(reader(argv))
    except SystemExit as exc:
        assert exc.code != 2 or (out.getvalue() == "" and "error:" in err.getvalue())
        return exc.code


# the flag names of every command, the positional tokens and the values
# the parity test draws: "-7/3" goes to the reference in its "=" form, as
# argparse reads a value that starts with "-" as a flag unless it looks
# like a negative number
_ARGV_FLAGS = sorted({*cli.COMMON_FLAGS, *(f for flags in cli.FLAGS.values() for f in flags)} - {"action"})
_ARGV_VALUES = ["x", "-", "7", "-2", "-7/3", "json", "xml", ""]
_ARGV_STRAY = ["x", "-", "7", "-2", "-x", "divide", "batch"]
_ARGV_UNKNOWN = ["--nope", "--inputs", "--zz=1", "-x"]


@st.composite
def _argv_pairs(draw):
    """(argv for the reader, argv for the reference): a command with its
    flags in both forms, repeated or not, and its action, then in half the
    draws up to three faults.  A flag another flag of the command starts
    with (--p without --p, a prefix argparse would expand) is not drawn,
    nor -h, nor a "--" that argparse leaves over: "--" stands only on jet
    and char, right before the action or at the end."""
    command = draw(st.sampled_from(cli.COMMANDS))
    flags = cli._flags(command)
    others = [f for f in _ARGV_FLAGS if not any(g.startswith(f) for g in flags)]

    def flag(name, value):
        equals = [f"--{name}={value}"]
        ours = [f"--{name}", value] if draw(st.booleans()) else equals
        return ours, equals if value == "-7/3" else ours

    items = []
    for _ in range(draw(st.integers(0, 6))):
        name = draw(st.sampled_from(flags))
        items.append(flag(name, draw(st.sampled_from(("json", "text") if name == "format" else _ARGV_VALUES))))
    actions = cli.ACTIONS.get(command)
    action = draw(st.sampled_from([None, *actions])) if actions else None
    dashes = ["--"] if actions and draw(st.booleans()) else []
    if action is not None:
        items.insert(draw(st.integers(0, len(items))), ([*dashes, action],) * 2)
    elif dashes:
        items.append((dashes, dashes))
    bare = []
    for _ in range(draw(st.integers(1, 3)) if draw(st.booleans()) else 0):
        fault = draw(st.sampled_from(["unknown", "stray", "other", "format", "bare", "command"]))
        if fault == "command":
            command = "nope"
            continue
        if fault == "bare":
            # a flag with no value left, at the end
            bare = [f"--{draw(st.sampled_from(flags + others))}"]
            continue
        if fault == "unknown":
            item = ([draw(st.sampled_from(_ARGV_UNKNOWN))],) * 2
        elif fault == "stray":
            item = ([draw(st.sampled_from(_ARGV_STRAY))],) * 2
        elif fault == "other":
            item = flag(draw(st.sampled_from(others)), draw(st.sampled_from(_ARGV_VALUES)))
        else:
            item = flag("format", draw(st.sampled_from(["xml", "x", "-", "", "JSON"])))
        items.insert(draw(st.integers(0, len(items))), item)
    return ([command, *(t for ours, _ in items for t in ours), *bare],
            [command, *(t for _, ref in items for t in ref), *bare])


_REFERENCE = cli_reference.build_parser()


@settings(max_examples=1000, deadline=None)
@given(pair=_argv_pairs())
def test_the_reader_agrees_with_the_argparse_reference(pair):
    ours, reference = pair
    assert _read(cli.parse_args, ours) == _read(_REFERENCE.parse_args, reference)


@pytest.mark.parametrize("argv", [
    ["jet", "verify-cocycle", "--p", "5", "--order", "6", "--chi", "2", "--c", "1"],
    ["jet", "--p", "5", "gr-check", "--m", "3", "--p", "7"],
    ["char", "--p=5", "--", "classify"],
    ["tilt", "--input", "-", "--format=text", "--precision", "-2"],
    ["batch", "--input=", "--order", "7"],
])
def test_the_reader_reads_what_the_reference_reads(argv):
    ours = _read(cli.parse_args, argv)
    assert isinstance(ours, dict)
    assert ours == _read(_REFERENCE.parse_args, argv)


@pytest.mark.parametrize("command, flag, base", [
    ("jet", "chi", ["verify-cocycle", "--p", "5", "--order", "6", "--c", "1"]),
    ("jet", "c", ["verify-cocycle", "--p", "5", "--order", "6", "--chi", "2"]),
    ("char", "lambda", ["classify", "--p", "5", "--a", "1", "--b", "0"]),
    ("char", "a", ["classify", "--p", "5", "--lambda", "1", "--b", "0"]),
])
def test_a_negative_rational_can_follow_its_flag(tmp_path, capsys, command, flag, base):
    # argparse took "-7/3" for a flag and exited 2 ("expected one
    # argument"), where --c=-7/3 and the field "c": "-7/3" were read
    spaced = run_cli(capsys, command, *base, f"--{flag}", "-7/3")
    assert spaced == run_cli(capsys, command, *base, f"--{flag}=-7/3")
    assert spaced[0] == 0
    f = tmp_path / "in.json"
    f.write_text(json.dumps({cli.FLAGS[command][flag]: "-7/3"}))
    assert spaced == run_cli(capsys, command, *base, "--input", str(f))


@pytest.mark.parametrize("command", ["herbrand", "polygon", "phimod", "sen", "tilt", "batch"])
@pytest.mark.parametrize("form", [["--p", "7"], ["--p=7"], ["--prec", "7"], ["--in", "-"]])
def test_a_flag_takes_its_whole_name_only(capsys, command, form):
    # argparse read --p as --precision on these commands: sen ran at
    # precision 7 and tilt at level 7
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", "-", *form])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert f"unrecognized arguments: {form[0]}" in err


@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
def test_help_names_every_command_or_every_flag_and_choice(capsys, command):
    for flag in ("--help", "-h"):
        with pytest.raises(SystemExit) as exc:
            main([flag] if command is None else [command, flag])
        out, err = capsys.readouterr()
        assert (exc.value.code, err) == (0, "")
        if command is None:
            assert all(name in out for name in cli.COMMANDS)
            continue
        assert all(f"--{flag_name}" in out for flag_name in cli._flags(command))
        assert all(choice in out for choice in (*cli.ACTIONS.get(command, ()), "json", "text"))


@pytest.mark.parametrize("argv", [
    ["jet", "--nope"], ["tilt", "--format", "xml"], ["tilt", "--format=xml"], ["char", "divide"],
    [], ["nope"], ["--input", "x", "tilt"], ["jet", "--p"], ["jet", "--p", "--m", "2"],
    ["jet", "gr-check", "classify"], ["tilt", "x"], ["--", "jet"], ["jet", "--", "--p", "5"],
])
def test_a_usage_error_exits_2_and_prints_nothing(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.startswith("usage: period-lab") and "error: " in err


def test_the_command_line_exits_as_main_does():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    cases = [(["--help"], 0), (["jet", "--help"], 0), (["jet", "--nope"], 2), (["sen", "--input", "-", "--p", "7"], 2)]
    for argv, code in cases:
        proc = subprocess.run([sys.executable, "-m", "period_lab.cli", *argv], capture_output=True,
                              text=True, env=env, timeout=30, stdin=subprocess.DEVNULL)
        assert proc.returncode == code, (argv, proc.stderr)
        assert (proc.stdout == "") == (code == 2)


_FLAG_BASE = {
    "tilt": {"p": 5, "op": "theta", "builtin": "omega"},
    "sen": {"p": 7, "level": 0, "matrix": [["50"]]},
    "jet": {"p": 5, "chi": "2", "c": "1"},
    "char": {"p": 5, "lambda": "1", "a": "1", "b": 0},
    # gr-check is the one action that reads m
    ("jet", "m"): {"p": 5, "action": "gr-check"},
}
_INTEGER_FIELDS = {"level", "precision", "order", "p", "m"}


@pytest.mark.parametrize(
    "command, flag, field",
    [(command, flag, field) for command, flags in cli.FLAGS.items() for flag, field in flags.items()],
)
def test_every_flag_sets_its_field(tmp_path, capsys, command, flag, field):
    """A given flag prints what its field set in the input prints, and
    differs from the input without it: a bad integer comes back as that
    field's error."""
    value = cli.ACTIONS[command][-1] if flag == "action" else "x"
    argv = [value] if flag == "action" else [f"--{flag}", value]
    payload = _FLAG_BASE.get((command, flag), _FLAG_BASE[command])
    f = tmp_path / "in.json"
    f.write_text(json.dumps(payload))
    base = run_json(capsys, command, "--input", str(f))
    flagged = run_json(capsys, command, *argv, "--input", str(f))
    f.write_text(json.dumps({**payload, field: value}))
    assert flagged == run_json(capsys, command, "--input", str(f)) != base
    if field in _INTEGER_FIELDS:
        assert flagged == (2, {"schema": cli.SCHEMA, "error": f"field {field!r} must be an integer, got 'x'"})


def _parent_ladder_below(p, e, factor):
    # the window check before the two digit caps shared one test
    return not (e * (p.bit_length() - 1) >= cli._DIGIT_LIMIT.bit_length()
                or p**e * factor >= cli._DIGIT_LIMIT)


def _parent_sen_below(p, e):
    return e * (p.bit_length() - 1) < cli._DIGIT_LIMIT.bit_length() and p ** max(e, 0) < cli._DIGIT_LIMIT


@settings(max_examples=300, deadline=None)
@given(p=st.integers(2, 10**6), e=st.integers(-100, 15_000),
       factor=st.one_of(st.integers(1, 10**30), st.integers(1, 10**4400)))
def test_below_digit_cap_is_the_two_checks_it_replaced(p, e, factor):
    try:
        parent = _parent_ladder_below(p, e, factor)
    except OverflowError:
        # e < 0 made p**e a float, which a factor past 10^308 overflowed
        # (a traceback): the cap now refuses such a window
        assert e < 0 and factor > 10**300
        assert cli._below_digit_cap(p, e, factor) == (factor < cli._DIGIT_LIMIT)
        return
    assert cli._below_digit_cap(p, e, factor) == parent
    assert cli._below_digit_cap(p, e) == _parent_sen_below(p, e)


def test_flags_do_not_carry_over_between_calls(capsys):
    code, out = run_cli(capsys, "jet", "gr-check", "--p", "3", "--m", "2", "--format", "text")
    assert code == 0 and "generates_graded_piece: True" in out
    # the next call gives neither --p nor --format: JSON, and p is missing
    code, report = run_json(capsys, "jet", "gr-check", "--m", "2")
    assert code == 2
    assert "'p'" in report["error"]


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


def test_a_reversed_window_with_a_long_denominator_exits_2(tmp_path, capsys):
    # lo > hi <= 0 gives E < 0, and p**E was a float that a denominator
    # past 10^308 overflowed: a traceback, not a JSON error
    d = 10**400
    for hi, error in (("-1", "empty window"), (f"-{d + 1}/{d}", "empty window")):
        line = {"command": "polygon", "kind": "t", "p": 3, "window": [f"{2 * d + 1}/{d}", hi]}
        assert run_alone_and_in_batch(tmp_path, capsys, line) == (error, error)
    # den(lo) den(hi) = 10^4400 is past the cap, whatever E is
    d = 10**2200
    line = {"command": "polygon", "kind": "t", "p": 3, "window": [f"{2 * d + 1}/{d}", f"-{d + 1}/{d}"]}
    error = run_alone_and_in_batch(tmp_path, capsys, line)[0]
    assert "4,300-digit cap" in error


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
