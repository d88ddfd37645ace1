"""Command-line front end: parse object descriptions, dispatch, report.

Subcommands: herbrand, polygon, tilt, jet, phimod, char, sen, batch.
Input is JSON (``--input FILE`` or ``-`` for stdin; the jet and char
commands also accept everything through flags).  A flag that is given
sets its payload field (``FLAGS``), over the input and over each line of
a batch file; integer fields take a JSON integer or an integer string.
Reports are JSON by default (deterministic: sorted keys, no timestamps,
schema version embedded) or plain text with ``--format text``.

Exit codes: 0 success; 2 schema/parse errors (position-annotated for
malformed JSON); 3 for first-class "undecided"/"inconclusive" verdicts,
which are outcomes, not failures.  Batch mode isolates per-line errors
and exits 2 iff any line failed hard, else 3 iff any line was undecided,
else 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import characters, filtered_phi, jets, polygons, ramification, tilt
from .padic import (
    INF,
    MAX_DIGITS,
    SchemaError,
    _is_probable_prime,
    format_rational,
    parse_int,
    parse_list,
    parse_rational,
    require,
)

SCHEMA = "period-lab/1"

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_UNDECIDED = 3


# exceptions that mean "this input is malformed": exit 2, and in batch only
# the offending line fails
INPUT_ERRORS = (SchemaError, ValueError, KeyError, TypeError)


def _read_input(args) -> str:
    """The text of ``--input``: a file path, or '-' for stdin."""
    if not args.input:
        raise SchemaError("missing --input (file path or '-')")
    if args.input == "-":
        return sys.stdin.read()
    try:
        with open(args.input) as fh:
            return fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {args.input}: {exc}") from exc


def _parse_json(text: str, name: str) -> dict:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{name}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(payload, dict):
        raise SchemaError(f"{name}: expected a JSON object")
    return payload


def _int(payload: dict, key: str, default=None) -> int:
    """An integer field; required when it has no default."""
    value = require(payload, key) if default is None else payload.get(key, default)
    return parse_int(value, key)


def _require_prime(payload: dict) -> int:
    p = _int(payload, "p")
    if not _is_probable_prime(p):
        raise SchemaError(f"field 'p' must be a prime, got {p}")
    return p


# ---------------------------------------------------------------------------
# handlers: payload -> (report dict, exit code)
# ---------------------------------------------------------------------------


def run_herbrand(payload: dict, args):
    e = _int(payload, "e")
    orders = [parse_int(g, "orders") for g in parse_list(require(payload, "orders"), "orders")]
    data = ramification.RamificationData(e, orders)
    phi = ramification.herbrand_phi(data)
    psi = ramification.herbrand_psi(phi)
    report = {
        "phi": phi.to_json(),
        "psi": psi.to_json(),
        "different_valuation": format_rational(
            ramification.different_valuation(data)
        ),
    }
    return report, EXIT_OK


# CPython converts no int of more than 4,300 digits to a string (its
# default limit).  The ladder window [lo, hi] prints no integer above
# p^E den(lo) den(hi), E = max(ceil(hi), 1 - floor(lo)): p^ceil(hi) is the
# right ray's denominator and p^(1 - floor(lo)) bounds the numerators on
# the left.  A window past that is refused before any work, whatever limit
# the interpreter is set to; the cap also bounds |lo| and |hi| below 14,286
_DIGIT_LIMIT = 10**MAX_DIGITS


def _ladder_window(p: int, lo, hi) -> tuple:
    """The window ends as rationals; a SchemaError when the window would
    print an integer of more than MAX_DIGITS digits."""
    lo, hi = parse_rational(lo), parse_rational(hi)
    E = max(math.ceil(hi), 1 - math.floor(lo))
    # p^E >= 2^((bits - 1) E) is past the limit without forming p^E
    if (
        E * (p.bit_length() - 1) >= _DIGIT_LIMIT.bit_length()
        or p**E * lo.denominator * hi.denominator >= _DIGIT_LIMIT
    ):
        raise SchemaError(
            f"polygon window [{format_rational(lo)}, {format_rational(hi)}] at p = {p} "
            f"would print integers past the {MAX_DIGITS:,}-digit cap"
        )
    return lo, hi


def run_polygon(payload: dict, args):
    kind = payload.get("kind", "series")
    if kind == "series":
        pts = []
        for point in parse_list(require(payload, "points"), "points"):
            x, v = parse_list(point, "points")
            pts.append((parse_rational(x), INF if v in (None, "inf") else parse_rational(v)))
        poly = polygons.hull(pts)
    elif kind == "epsilon_minus_one":
        p = _require_prime(payload)
        _, hi = _ladder_window(p, 0, require(payload, "window"))
        poly = polygons.epsilon_minus_one_polygon(p, hi)
    elif kind == "t":
        lo, hi = parse_list(require(payload, "window"), "window")
        p = _require_prime(payload)
        poly = polygons.t_polygon(p, *_ladder_window(p, lo, hi))
    else:
        raise SchemaError(f"unknown polygon kind {kind!r}")
    report = {"polygon": poly.to_json()}
    if args.format == "text":
        report["sketch"] = polygons.ascii_sketch(poly)
    return report, EXIT_OK


def _tilt_expr(payload: dict, p: int) -> tilt.TiltExpr:
    if "builtin" in payload:
        name = payload["builtin"]
        builders = {
            "omega": tilt.TiltExpr.omega,
            "epsilon_minus_one": tilt.TiltExpr.epsilon_minus_one,
            "p_flat_minus_p": tilt.TiltExpr.p_flat_minus_p,
        }
        if name not in builders:
            raise SchemaError(f"unknown builtin expression {name!r}")
        return builders[name](p)
    return tilt.TiltExpr.from_json(p, require(payload, "expr"))


def _theta_json(value: tilt.GradedThetaValue) -> dict:
    pieces = []
    for (frac, key), elt in sorted(
        value.pieces.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
    ):
        if elt.is_zero():
            continue
        pieces.append(
            {
                "fractional_scale": format_rational(frac),
                "teichmuller": None if key is None else {"f": key[0], "poly": list(key[1])},
                "coefficients": {
                    str(k): format_rational(v) for k, v in sorted(elt.coeffs.items())
                },
            }
        )
    return {"level": value.context.N, "exact": value.exact, "pieces": pieces}


def _valuation_json(v):
    return None if v is None else ("inf" if v is INF else format_rational(v))


def run_tilt(payload: dict, args):
    p = _require_prime(payload)
    op = payload.get("op", "theta")
    expr = _tilt_expr(payload, p)
    if op == "theta":
        level = _int(payload, "level", 3)
        value = tilt.theta(expr, level)
        report = {"theta": _theta_json(value)}
        try:
            report["is_zero"] = value.is_zero()
            return report, EXIT_OK
        except tilt.InexactTeichmullerError:
            report["is_zero"] = "inexact-teichmuller"
            return report, EXIT_UNDECIDED
    if op == "vflat":
        depth = _int(payload, "depth", 3)
        res = tilt.vflat_sum(expr, depth)
        report = {
            "values": [_valuation_json(v) for v in res.values],
            "stabilized": res.stabilized,
            "conclusive": res.conclusive,
        }
        if res.stabilized:
            report["value"] = _valuation_json(res.value)
            return report, EXIT_OK
        return report, EXIT_UNDECIDED
    if op == "probe":
        level = _int(payload, "level", 3)
        n_max = _int(payload, "n_max", 3)
        report = {"kernel_orbit": tilt.ker_theta_orbit_probe(expr, level, n_max)}
        return report, EXIT_OK
    if op == "generator-check":
        level = _int(payload, "level", 3)
        depth = _int(payload, "depth", 3)
        rep = tilt.generator_condition_check(expr, level, depth)
        report = {
            "theta_is_zero": rep.theta_is_zero,
            "vflat_values": [_valuation_json(v) for v in rep.vflat.values],
            "vflat_is_one": rep.vflat_is_one,
            "passes": rep.passes,
        }
        return report, EXIT_OK if rep.passes is not None else EXIT_UNDECIDED
    raise SchemaError(f"unknown tilt op {op!r}")


def run_jet(payload: dict, args):
    action = payload.get("action", "verify-cocycle")
    p = _require_prime(payload)
    order = _int(payload, "order", 6)
    if action == "verify-cocycle":
        g = tilt.GaloisElement(
            parse_rational(require(payload, "chi")),
            parse_rational(require(payload, "c")),
            p=p,
        )
        ctx = jets.JetContext(p, order)
        ok = jets.verify_cocycle(g, ctx)
        return {"verified": ok, "order": order, "p": p}, EXIT_OK
    if action == "gr-check":
        m = _int(payload, "m", order)
        ok = jets.gr_generator_check(m, p)
        return {"generates_graded_piece": ok, "m": m, "p": p}, EXIT_OK
    raise SchemaError(f"unknown jet action {action!r}")


def run_phimod(payload: dict, args):
    _require_prime(payload)
    D = filtered_phi.FilteredPhiModule.from_json(payload)
    verdict = filtered_phi.is_admissible(D)
    report = {
        "verdict": verdict.to_json(),
        "hodge_tate_weights": D.hodge_tate_weights(),
    }
    code = EXIT_UNDECIDED if verdict.status == filtered_phi.UNDECIDED else EXIT_OK
    return report, code


def run_char(payload: dict, args):
    op = payload.get("op", "classify")
    if op == "classify":
        chi = characters.CharacterTriple.from_json(payload)
        return {"character": chi.to_json(), "flags": characters.classify(chi).to_json()}, EXIT_OK
    if op == "multiply":
        factors = parse_list(require(payload, "factors"), "factors")
        if not factors:
            raise SchemaError("multiply needs at least one factor")
        acc = characters.CharacterTriple.from_json(factors[0], "factors[0]")
        for n, item in enumerate(factors[1:], 1):
            acc = acc.multiply(characters.CharacterTriple.from_json(item, f"factors[{n}]"))
        return {"character": acc.to_json(), "flags": characters.classify(acc).to_json()}, EXIT_OK
    raise SchemaError(f"unknown char op {op!r}")


def _sen_precision(p: int, precision: int) -> int:
    """The precision; a SchemaError when the operator would print an
    integer of more than MAX_DIGITS digits.  Every printed numerator and
    denominator is below p^(precision + V), V as in
    ``characters.log_series_length``, which the check reads only once
    p^precision itself is known to be below the cap."""
    if precision * (p.bit_length() - 1) < _DIGIT_LIMIT.bit_length():
        V = characters.log_series_length(p, precision)[1]
        if p ** max(precision + V, 0) < _DIGIT_LIMIT:
            return precision
    raise SchemaError(
        f"sen at p = {p}, precision {precision} would print integers past the "
        f"{MAX_DIGITS:,}-digit cap"
    )


def run_sen(payload: dict, args):
    p = _require_prime(payload)
    level = _int(payload, "level", 1)
    precision = _sen_precision(p, _int(payload, "precision", 20))
    rows = require(payload, "matrix")
    if not rows or any(not isinstance(row, list) or len(row) != len(rows) for row in rows):
        raise SchemaError("field 'matrix' must be a nonempty square list of rows")
    matrix = [[parse_rational(x) for x in row] for row in rows]
    inp = characters.SenInput(p, level, matrix)
    op = characters.sen_operator(inp, precision)
    verdict = characters.hodge_tate_via_sen(op)
    report = {
        "operator": op.to_json(),
        "is_trivial": characters.is_trivial_via_sen(op),
        "hodge_tate": verdict.to_json(),
    }
    code = EXIT_UNDECIDED if verdict.status == "indeterminate" else EXIT_OK
    return report, code


HANDLERS = {
    "herbrand": run_herbrand,
    "polygon": run_polygon,
    "tilt": run_tilt,
    "jet": run_jet,
    "phimod": run_phimod,
    "char": run_char,
    "sen": run_sen,
}

# the payload field each command-line flag sets, per command; a flag that
# is given wins over the input
FLAGS = {
    "tilt": {"precision": "level"},
    "sen": {"precision": "precision"},
    "jet": {"action": "action", "order": "order", "p": "p", "chi": "chi", "c": "c", "m": "m"},
    "char": {"action": "op", "p": "p", "lam": "lambda", "a": "a", "b": "b"},
}


def _run(command: str, payload: dict, args):
    """The command's handler on the payload, with the given flags laid over it."""
    for flag, field in FLAGS.get(command, {}).items():
        value = getattr(args, flag, None)
        if value is not None:
            payload[field] = value
    return HANDLERS[command](payload, args)


# ---------------------------------------------------------------------------
# batch mode
# ---------------------------------------------------------------------------


def run_batch(args):
    lines = _read_input(args).splitlines()
    results = []
    counts = {"ok": 0, "undecided": 0, "error": 0}
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            payload = _parse_json(line, f"line {lineno}")
            command = require(payload, "command")
            if command not in HANDLERS:
                raise SchemaError(f"unknown command {command!r}")
            report, code = _run(command, payload, args)
            kind = "undecided" if code == EXIT_UNDECIDED else "ok"
            counts[kind] += 1
            results.append({"line": lineno, "status": kind, "report": report})
        except INPUT_ERRORS as exc:
            counts["error"] += 1
            results.append({"line": lineno, "status": "error", "message": str(exc)})
    summary = {"schema": SCHEMA, "counts": counts, "results": results}
    _emit(summary, args)
    if counts["error"]:
        return EXIT_SCHEMA
    if counts["undecided"]:
        return EXIT_UNDECIDED
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _emit(report: dict, args):
    # the bytes of json.dumps(report, sort_keys=True, indent=2), written by
    # _write_json: given an indent, CPython 3.10 and 3.11 leave the C
    # encoder for a pure-Python generator, which took about 9 % of a
    # mixed_batch pass
    if getattr(args, "format", "json") == "json":
        out = []
        _write_json(report, out, "\n")
        print("".join(out))
    else:
        _emit_text(report)


_encode_str = json.encoder.encode_basestring_ascii


def _write_json(value, out: list, newline: str):
    """Append the pieces of json.dumps(value, sort_keys=True, indent=2) to
    out, for a value of str-keyed dicts, lists, tuples and leaves;
    newline is "\\n" and the indent of the line value starts on."""
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep)
            out.append(_encode_str(key))
            out.append(": ")
            _write_json(value[key], out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        out.append(json.dumps(value))


def _emit_text(report: dict, indent: int = 0):
    pad = "  " * indent
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _emit_text(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{pad}{key}:")
            for item in value:
                _emit_text(item, indent + 1)
                print(f"{pad}  -")
        elif key == "sketch":
            print(value)
        else:
            print(f"{pad}{key}: {value}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="period-lab",
        description="exact computations around p-adic period rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags every subcommand takes, declared once
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="JSON input: file path or '-' for stdin")
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--precision", type=int, default=None)
    common.add_argument("--order", type=int, default=None)

    for name in ("herbrand", "polygon", "phimod", "sen", "tilt"):
        sub.add_parser(name, parents=[common])

    jet_p = sub.add_parser("jet", parents=[common])
    jet_p.add_argument("action", nargs="?", choices=("verify-cocycle", "gr-check"))
    jet_p.add_argument("--p", type=int)
    jet_p.add_argument("--chi")
    jet_p.add_argument("--c")
    jet_p.add_argument("--m", type=int)

    char_p = sub.add_parser("char", parents=[common])
    char_p.add_argument("action", nargs="?", choices=("classify", "multiply"))
    char_p.add_argument("--p", type=int)
    char_p.add_argument("--lambda", dest="lam")
    char_p.add_argument("--a")
    char_p.add_argument("--b", type=int)

    sub.add_parser("batch", parents=[common])
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of the process: building it
    costs more than a small command.  Every parse returns a fresh
    namespace, so nothing carries over from one call to the next."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "batch":
            return run_batch(args)
        if args.command in ("jet", "char") and not args.input:
            payload = {}  # everything comes from the flags
        else:
            payload = _parse_json(_read_input(args), "<stdin>" if args.input == "-" else args.input)
        report, code = _run(args.command, payload, args)
    except INPUT_ERRORS as exc:
        _emit({"schema": SCHEMA, "error": str(exc)}, args)
        return EXIT_SCHEMA
    report = {"schema": SCHEMA, **report}
    _emit(report, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
