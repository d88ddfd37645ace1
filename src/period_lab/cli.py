"""Command-line front end: parse object descriptions, dispatch, report.

Subcommands: herbrand, polygon, tilt, jet, phimod, char, sen, batch.
Input is JSON (``--input FILE`` or ``-`` for stdin; the jet and char
commands also accept everything through flags).  The flags are declared
once, in the tables ``COMMON_FLAGS``, ``FLAGS`` and ``ACTIONS``, which
``parse_args`` reads argv from directly; a flag takes its whole name only,
and one that is given sets its payload field, over the input and over
each line of a batch file; integer fields take a JSON integer or an
integer string.
Reports are JSON by default (deterministic: sorted keys, no timestamps,
schema version embedded) or plain text with ``--format text``.

Exit codes: 0 success; 2 schema/parse errors (position-annotated for
malformed JSON); 3 for first-class "undecided"/"inconclusive" verdicts,
which are outcomes, not failures; 4 for an internal error, any other
exception a handler raises, reported as "internal error: <Type>:
<message>" with its traceback on stderr.  Batch mode isolates per-line errors
and exits 4 iff any line met an internal error, else 2 iff any line
failed hard, else 3 iff any line was undecided, else 0.
"""

from __future__ import annotations

import json
import math
import sys
import types

from . import characters, filtered_phi, jets, polygons, ramification, tilt
from .padic import (
    INF,
    MAX_DIGITS,
    Prime,
    SchemaError,
    format_rational,
    parse_int,
    parse_list,
    parse_number,
    parse_rational,
    require,
)

SCHEMA = "period-lab/1"

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_UNDECIDED = 3
EXIT_INTERNAL = 4


# exceptions that mean "this input is malformed": exit 2, and in batch only
# the offending line fails; any other exception is an internal error
INPUT_ERRORS = (SchemaError, ValueError, KeyError, TypeError)


def _internal_error(exc: Exception) -> str:
    """The error an internal fault reports; its traceback goes to stderr."""
    import traceback  # only on this path: it is not loaded at start-up

    traceback.print_exception(exc, file=sys.stderr)
    return f"internal error: {type(exc).__name__}: {exc}"


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


def _int(payload: dict, key: str, default=None, cap=None) -> int:
    """An integer field; required when it has no default, refused past cap."""
    value = parse_int(require(payload, key) if default is None else payload.get(key, default), key)
    if cap is not None and value > cap:
        raise SchemaError(f"field {key!r} must be at most {cap:,}, got {value}")
    return value


# Caps on the fields that set how much work a command does, each refused
# with exit 2 before any work; the README's table of caps gives the
# slowest admitted run of each, measured on 2 cores.  A jet's time grows
# with its order and with the digits of c, mostly of its denominator.  The
# tilt caps hold at every admitted p: v_flat's cost per depth grows about
# as p^2 at large p (0.5 s at depth 3 at p = 1,009, 7.5 s at depth 1 at
# p = 4,001), past what a depth cap scaled by p's bit length would bound.
# The probe evaluates phi^n(x) at level N for every n <= n_max, each on
# integers of N p-digits, so level and n_max share one cap.
MAX_JET_ORDER = 1024
MAX_JET_DIGITS = 3
MAX_TILT_P = 7
MAX_TILT_LEVEL = 1_000_000
MAX_TILT_DEPTH = 10_000
MAX_PROBE_LEVEL = 8_000


def _jet_rational(payload: dict, key: str):
    """The rational field ``key`` of a jet payload; a SchemaError when its
    numerator or denominator has more than MAX_JET_DIGITS digits."""
    x = parse_rational(require(payload, key))
    bound = 10**MAX_JET_DIGITS
    if not -bound < x.numerator < bound or x.denominator >= bound:
        raise SchemaError(
            f"field {key!r} must have a numerator and a denominator of at most "
            f"{MAX_JET_DIGITS} digits, got {format_rational(x)}"
        )
    return x


def _require_prime(payload: dict, cap=None) -> Prime:
    """The field 'p', at most ``cap``, as a ``Prime``, which the handler
    passes on, so that its primality is tested once per command."""
    p = _int(payload, "p", cap=cap)
    try:
        return Prime(p)
    except ValueError:
        raise SchemaError(f"field 'p' must be a prime, got {p}") from None


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


def _below_digit_cap(p: int, e: int, factor: int = 1) -> bool:
    """Whether p^e * factor, factor >= 1, is below 10^MAX_DIGITS; p^e is
    not formed when p^e >= 2^((bits - 1) e) is already past the limit."""
    return e * (p.bit_length() - 1) < _DIGIT_LIMIT.bit_length() and p ** max(e, 0) * factor < _DIGIT_LIMIT


def _ladder_window(p: int, lo, hi) -> tuple:
    """The window ends as rationals; a SchemaError when the window would
    print an integer of more than MAX_DIGITS digits."""
    lo, hi = parse_rational(lo), parse_rational(hi)
    E = max(math.ceil(hi), 1 - math.floor(lo))
    if not _below_digit_cap(p, E, lo.denominator * hi.denominator):
        raise SchemaError(
            f"polygon window [{format_rational(lo)}, {format_rational(hi)}] at p = {p} "
            f"would print integers past the {MAX_DIGITS:,}-digit cap"
        )
    return lo, hi


def _pair(items: list, where: str, shape: str) -> list:
    """``items`` when it holds two, else a SchemaError naming where it was read."""
    if len(items) != 2:
        raise SchemaError(f"{where} must be a pair {shape}, got {items!r}")
    return items


def run_polygon(payload: dict, args):
    kind = payload.get("kind", "series")
    if kind == "series":
        pts = []
        for n, point in enumerate(parse_list(require(payload, "points"), "points")):
            x, v = _pair(parse_list(point, "points"), f"points[{n}]", "[x, v]")
            pts.append((parse_rational(x), INF if v in (None, "inf") else parse_rational(v)))
        poly = polygons.hull(pts)
    elif kind == "epsilon_minus_one":
        p = _require_prime(payload).p
        _, hi = _ladder_window(p, 0, require(payload, "window"))
        poly = polygons.epsilon_minus_one_polygon(p, hi)
    elif kind == "t":
        lo, hi = _pair(parse_list(require(payload, "window"), "window"), "window", "[lo, hi]")
        p = _require_prime(payload).p
        poly = polygons.t_polygon(p, *_ladder_window(p, lo, hi))
    else:
        raise SchemaError(f"unknown polygon kind {kind!r}")
    report = {"polygon": poly.to_json()}
    if args.format == "text":
        report["sketch"] = polygons.ascii_sketch(poly)
    return report, EXIT_OK


def _tilt_expr(payload: dict, prime: Prime) -> tilt.TiltExpr:
    if "builtin" in payload:
        name = payload["builtin"]
        if not isinstance(name, str):
            raise SchemaError(f"field 'builtin' must be a string, got {name!r}")
        builders = {
            "omega": tilt.TiltExpr.omega,
            "epsilon_minus_one": tilt.TiltExpr.epsilon_minus_one,
            "p_flat_minus_p": tilt.TiltExpr.p_flat_minus_p,
        }
        if name not in builders:
            raise SchemaError(f"unknown builtin expression {name!r}")
        return builders[name](prime)
    return tilt.TiltExpr.from_json(prime, require(payload, "expr"))


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
    prime = _require_prime(payload, MAX_TILT_P)
    op = payload.get("op", "theta")
    # the integer fields of a known op are read and capped before the
    # expression is
    if op in ("theta", "generator-check"):
        level = _int(payload, "level", 3, cap=MAX_TILT_LEVEL)
    if op in ("vflat", "generator-check"):
        depth = _int(payload, "depth", 3, cap=MAX_TILT_DEPTH)
    if op == "probe":
        level = _int(payload, "level", 3, cap=MAX_PROBE_LEVEL)
        n_max = _int(payload, "n_max", 3, cap=MAX_PROBE_LEVEL - max(level, 0))
    expr = _tilt_expr(payload, prime)
    if op == "theta":
        value = tilt.theta(expr, level)
        report = {"theta": _theta_json(value)}
        try:
            report["is_zero"] = value.is_zero()
            return report, EXIT_OK
        except tilt.InexactTeichmullerError:
            report["is_zero"] = "inexact-teichmuller"
            return report, EXIT_UNDECIDED
    if op == "vflat":
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
        report = {"kernel_orbit": tilt.ker_theta_orbit_probe(expr, level, n_max)}
        return report, EXIT_OK
    if op == "generator-check":
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
    prime = _require_prime(payload)
    p = prime.p
    order = _int(payload, "order", 6, cap=MAX_JET_ORDER)
    if action == "verify-cocycle":
        g = tilt.GaloisElement(_jet_rational(payload, "chi"), _jet_rational(payload, "c"), p=p)
        ctx = jets.JetContext(prime, order)
        ok = jets.verify_cocycle(g, ctx)
        return {"verified": ok, "order": order, "p": p}, EXIT_OK
    if action == "gr-check":
        m = _int(payload, "m", order, cap=MAX_JET_ORDER)
        ok = jets.gr_generator_check(m, prime)
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
    denominator is below p^(precision + V), V >= 0 as in
    ``characters.log_series_length``, which the check reads only once
    p^precision itself is known to be below the cap."""
    if _below_digit_cap(p, precision):
        V = characters.log_series_length(p, precision)[1]
        if _below_digit_cap(p, precision + V):
            return precision
    raise SchemaError(
        f"sen at p = {p}, precision {precision} would print integers past the "
        f"{MAX_DIGITS:,}-digit cap"
    )


def run_sen(payload: dict, args):
    prime = _require_prime(payload)
    level = _int(payload, "level", 1)
    precision = _sen_precision(prime.p, _int(payload, "precision", 20))
    rows = parse_list(require(payload, "matrix"), "matrix")
    if not rows or any(not isinstance(row, list) or len(row) != len(rows) for row in rows):
        raise SchemaError("field 'matrix' must be a nonempty square list of rows")
    matrix = [[parse_number(x) for x in row] for row in rows]
    inp = characters.SenInput(prime, level, matrix)
    op = characters.sen_operator(inp, precision)
    verdict = characters.hodge_tate_via_sen(op)
    report = {
        "operator": op.to_json(),
        "is_trivial": characters.is_trivial_via_sen(op),
        "hodge_tate": verdict.to_json(),
    }
    code = EXIT_UNDECIDED if verdict.status == "indeterminate" else EXIT_OK
    return report, code


# in the order that --help lists the subcommands, batch last
HANDLERS = {
    "herbrand": run_herbrand,
    "polygon": run_polygon,
    "phimod": run_phimod,
    "sen": run_sen,
    "tilt": run_tilt,
    "jet": run_jet,
    "char": run_char,
}

# The command line, declared once; parse_args, --help, _run and main read
# it.  COMMON_FLAGS: every subcommand's flags, each with its help text or
# its choices and default (every flag's value stays a string, the integer
# flags read like the JSON field they set).  FLAGS:
# the payload field each flag sets, per command, over the input; "action"
# is the positional.  ACTIONS: its choices, for the commands that take
# their whole input from flags when --input is absent.
COMMON_FLAGS = {
    "input": {"help": "JSON input: file path or '-' for stdin"},
    "format": {"choices": ("json", "text"), "default": "json"},
    "precision": {},
    "order": {},
}
FLAGS = {
    "tilt": {"precision": "level"},
    "sen": {"precision": "precision"},
    "jet": {"action": "action", "order": "order", "p": "p", "chi": "chi", "c": "c", "m": "m"},
    "char": {"action": "op", "p": "p", "lambda": "lambda", "a": "a", "b": "b"},
}
ACTIONS = {"jet": ("verify-cocycle", "gr-check"), "char": ("classify", "multiply")}


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
    internal = False
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            payload = _parse_json(line, f"line {lineno}")
            command = require(payload, "command")
            if not isinstance(command, str):
                raise SchemaError(f"field 'command' must be a string, got {command!r}")
            if command not in HANDLERS:
                raise SchemaError(f"unknown command {command!r}")
            report, code = _run(command, payload, args)
            kind = "undecided" if code == EXIT_UNDECIDED else "ok"
            counts[kind] += 1
            results.append({"line": lineno, "status": kind, "report": report})
        except INPUT_ERRORS as exc:
            counts["error"] += 1
            results.append({"line": lineno, "status": "error", "message": str(exc)})
        except Exception as exc:
            counts["error"] += 1
            internal = True
            results.append({"line": lineno, "status": "internal-error",
                            "message": _internal_error(exc)})
    summary = {"schema": SCHEMA, "counts": counts, "results": results}
    _emit(summary, args)
    if internal:
        return EXIT_INTERNAL
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


COMMANDS = (*HANDLERS, "batch")
PROG = "period-lab"


def _flags(command: str) -> list:
    """The flags of command, in --help's order: the common ones first."""
    return [*COMMON_FLAGS, *(f for f in FLAGS.get(command, ()) if f not in COMMON_FLAGS and f != "action")]


def _choices(choices) -> str:
    return "{" + ",".join(choices) + "}"


def _metavar(flag: str) -> str:
    choices = COMMON_FLAGS.get(flag, {}).get("choices")
    return _choices(choices) if choices else flag.upper()


def _usage(command=None) -> str:
    if command is None:
        return f"usage: {PROG} [-h] {_choices(COMMANDS)} ..."
    words = [f"usage: {PROG} {command} [-h]", *(f"[--{flag} {_metavar(flag)}]" for flag in _flags(command))]
    if command in ACTIONS:
        words.append(f"[{_choices(ACTIONS[command])}]")
    return " ".join(words)


def _help(command=None) -> str:
    lines = [_usage(command), "", "exact computations around p-adic period rings", ""]
    if command is None:
        return "\n".join([*lines, "commands:", *(f"  {name}" for name in COMMANDS)])
    if command in ACTIONS:
        lines += ["action:", f"  {_choices(ACTIONS[command])}"]
    lines += ["flags:", "  -h, --help"]
    for flag in _flags(command):
        lines.append(f"  --{flag} {_metavar(flag)}  {COMMON_FLAGS.get(flag, {}).get('help', '')}".rstrip())
    return "\n".join(lines)


def _refuse(command, message: str):
    """A usage error: the usage line and the message on stderr, nothing
    on stdout, exit 2."""
    print(_usage(command), file=sys.stderr)
    print(f"{PROG}{'' if command is None else ' ' + command}: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_SCHEMA)


def _invalid_choice(name: str, value: str, choices) -> str:
    return f"argument {name}: invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})"


def parse_args(argv=None) -> types.SimpleNamespace:
    """The command line read from the tables: the command, each of its
    flags (None when not given, --format json by default) and, for the
    commands of ACTIONS, the action.  A flag takes its whole name only, as
    ``--flag value`` or ``--flag=value``; the token after a flag is its
    value unless it is -h, --help or starts with "--", so a negative
    rational can follow its flag.  A repeated flag keeps its last value,
    the action may stand anywhere, and after "--" every token is
    positional.  -h or --help prints usage and exits 0; anything else the
    tables do not declare exits 2."""
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        _refuse(None, "the following arguments are required: command")
    command, *rest = argv
    if command in ("-h", "--help"):
        print(_help())
        raise SystemExit(EXIT_OK)
    if command not in COMMANDS:
        _refuse(None, _invalid_choice("command", command, COMMANDS))
    flags = _flags(command)
    args = dict.fromkeys(flags)
    args.update((flag, options["default"]) for flag, options in COMMON_FLAGS.items() if "default" in options)
    actions = ACTIONS.get(command)
    if actions:
        args["action"] = None
    positional_only = False
    tokens = iter(rest)
    for token in tokens:
        if positional_only or token == "-" or not token.startswith("-"):
            if not actions or args["action"] is not None:
                _refuse(command, f"unrecognized arguments: {token}")
            if token not in actions:
                _refuse(command, _invalid_choice("action", token, actions))
            args["action"] = token
        elif token == "--":
            positional_only = True
        elif token in ("-h", "--help"):
            print(_help(command))
            raise SystemExit(EXIT_OK)
        else:
            flag, given, value = token[2:].partition("=")
            if not token.startswith("--") or flag not in flags:
                _refuse(command, f"unrecognized arguments: {token}")
            if not given:
                value = next(tokens, None)
                if value is None or value in ("-h", "--help") or value.startswith("--"):
                    _refuse(command, f"argument --{flag}: expected one argument")
            choices = COMMON_FLAGS.get(flag, {}).get("choices")
            if choices and value not in choices:
                _refuse(command, _invalid_choice("--" + flag, value, choices))
            args[flag] = value
    return types.SimpleNamespace(command=command, **args)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.command == "batch":
            return run_batch(args)
        if args.command in ACTIONS and not args.input:
            payload = {}  # everything comes from the flags
        else:
            payload = _parse_json(_read_input(args), "<stdin>" if args.input == "-" else args.input)
        report, code = _run(args.command, payload, args)
    except INPUT_ERRORS as exc:
        _emit({"schema": SCHEMA, "error": str(exc)}, args)
        return EXIT_SCHEMA
    except Exception as exc:
        _emit({"schema": SCHEMA, "error": _internal_error(exc)}, args)
        return EXIT_INTERNAL
    report = {"schema": SCHEMA, **report}
    _emit(report, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
