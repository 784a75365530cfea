"""Command-line front end: verification suites with deterministic reports.

Exit codes: 0 when everything requested passed, 1 when a verification ran
and failed, 2 on input or validation problems (unknown flags, missing,
unreadable or malformed files, budget exceeded, tame-completeness guards).
JSON and CSV output is byte-identical across runs for a fixed command line;
text output is for humans.  Exact values are printed as numerator/denominator
or term lists; decimals appear only for requested real evaluations and carry
the precision used.
"""

from __future__ import annotations

import argparse
import functools
import gc
import io
import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii
from fractions import Fraction
from itertools import chain, repeat

from . import _lazy_module
from .numutil import (
    DEFAULT_PRECISION,
    BudgetExceededError,
    HenselMismatchError,
    PoleError,
    SmoothnessError,
    check_exact_digits,
    decimal_digits,
    exact_prime,
    parse_integer,
    parse_rational,
    short_repr,
)

__all__ = ["main", "run_to_string"]

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2


# Bound here, each library module runs on its first use, so that a command runs only the modules
# it calls: padic count, measure and nullset, and etale enumerate and crossvalidate, never run qexpr.
localfields, massformulas, mckay, padic, qexpr, selftest, stringy = map(
    _lazy_module, ["localfields", "massformulas", "mckay", "padic", "qexpr", "selftest", "stringy"])


# ---------------------------------------------------------------------------
# Value rendering
# ---------------------------------------------------------------------------


def _expr_payload(value) -> object:
    if qexpr.is_infinite(value):
        return "Infinite"
    parts = ({"terms": value.to_json()} if isinstance(value, qexpr.QExpr)
             else {"num": value.num.to_json(), "den": value.den.to_json()})
    # the reduced exponents and coefficients, as str() prints them: counted first, since past
    # Python's int-to-str limit str() could not print them
    largest = max([abs(n) for terms in parts.values() for term in terms for n in term], default=0)
    check_exact_digits(largest, "output", "digits in a printed exponent or coefficient")
    return {"pretty": str(value), **parts}


def _eval_payload(value, q0: Fraction) -> object:
    if qexpr.is_infinite(value):
        return "Infinite"
    value.check_powers(q0)
    if value.num.exponent_denominator() == 1 and value.den.exponent_denominator() == 1:
        exact = value.evaluate(q0)
        check_exact_digits(exact, "evaluation", "digits in the exact value at q")
        return {"q": str(q0), "exact": str(exact)}
    approx = value.evaluate(q0)
    return {
        "q": str(q0),
        "approx": _decimal_text(approx),
        "precision": str(DEFAULT_PRECISION),
    }


def _decimal_text(value: Fraction, digits: int = 15) -> str:
    """value rounded half-even to digits significant digits in integer arithmetic, and written as
    f"{x:.{digits}g}" writes a float x: positional from 10^-4 to 10^digits, trailing zeros dropped.
    Kept because Fraction has no __format__ before Python 3.12, where format(value, ".15g") agrees."""
    if not value:
        return "0"
    size = abs(value)
    exponent = decimal_digits(size.numerator) - decimal_digits(size.denominator)  # or one more
    if size < Fraction(10) ** exponent:
        exponent -= 1
    mantissa = round(size / Fraction(10) ** (exponent - digits + 1))  # Fraction rounds ties to even
    if mantissa == 10**digits:  # rounded up to the next power of 10
        mantissa, exponent = mantissa // 10, exponent + 1
    text, sign = str(mantissa), "-" if value < 0 else ""
    if not -4 <= exponent < digits:
        return sign + (text[0] + "." + text[1:]).rstrip("0").rstrip(".") + f"e{exponent:+03d}"
    if exponent < 0:  # 0.00ddd: the point goes after the first of -exponent zeros
        text, exponent = "0" * -exponent + text, 0
    return sign + (text[:exponent + 1] + "." + text[exponent + 1:]).rstrip("0").rstrip(".")


def _cell(value) -> str:
    """The text and CSV form of one value."""
    if isinstance(value, dict):
        return value["pretty"] if "pretty" in value else json.dumps(value, sort_keys=True)
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (list, tuple)):
        return json.dumps(value)
    return str(value)


# Rows rendered and written at a time, so that the text of a large table is never held at once.
_ROWS_PER_WRITE = 1024


def _text_chunks(table: tuple, cell, member, brackets: tuple):
    """The cell texts of table = (column names, row tuples), one list per column, _ROWS_PER_WRITE
    rows at a time: cell(value) each; an all-int column as it is, since the JSON template and
    the CSV writer both write str(value); and in a column of lists or tuples the member texts
    joined in brackets = (start, separator, end), each distinct member object rendered once as
    member(object): the table holds the members, so their ids stay unique while it is written."""
    start, separator, end = brackets
    memo: dict[int, str] = {}
    get, put = memo.get, memo.setdefault
    rows = table[1]
    for first in range(0, len(rows), _ROWS_PER_WRITE):
        texts = []
        for column in zip(*rows[first:first + _ROWS_PER_WRITE]):
            kinds = set(map(type, column))
            if kinds <= {int}:
                texts.append(column)
            elif kinds <= {list, tuple}:
                texts.append([start + separator.join([get(id(obj)) or put(id(obj), member(obj)) for obj in value])
                              + end if value else "[]" for value in column])
            else:
                texts.append(list(map(cell, column)))
        yield texts


_CSV_CELLS = _cell, json.dumps, ("[", ", ", "]")


def _write_text(report: dict, table: tuple | None, stream) -> None:
    stream.writelines(line + "\n" for line in report.get("_lines", ()))
    stream.writelines(f"{key}: {_cell(value)}\n" for key, value in report.items() if key != "_lines")
    if table and table[1] and "_lines" not in report:  # selftest prints its lines instead
        texts = [[name, *map(str, chain.from_iterable(parts))]
                 for name, parts in zip(table[0], zip(*_text_chunks(table, *_CSV_CELLS)))]
        padded = [map(str.ljust, column, repeat(max(map(len, column)))) for column in texts]
        stream.write("\n")
        stream.writelines(line.rstrip() + "\n" for line in map("  ".join, zip(*padded)))


def _json_text(value, indent: str = "\n") -> str:
    """json.dumps(value, sort_keys=True, indent=2) for string-keyed reports, without the
    pure-Python encoder json uses whenever an indent is given; int leaves are written inline."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is dict or kind is list or kind is tuple:
        if not value:
            return "{}" if kind is dict else "[]"
        inner = indent + "  "
        if kind is dict:
            return "{" + ",".join([inner + encode_basestring_ascii(k) + ": " + (
                repr(v) if type(v) is int else _json_text(v, inner)) for k, v in sorted(value.items())]) + indent + "}"
        return "[" + inner + ("," + inner).join([repr(v) if type(v) is int else _json_text(v, inner)
                                                 for v in value]) + indent + "]"
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    return json.dumps(value)  # int and float; a TypeError for anything else


def _write_json(report: dict, table: tuple | None, stream) -> None:
    """_json_text of the report with the table's rows as dicts under "rows", the rows from one
    %-template of the sorted column names filled from the cell texts, _ROWS_PER_WRITE at a time."""
    payload = {k: v for k, v in report.items() if k != "_lines"}
    if table is not None:
        payload["rows"] = table
    for i, key in enumerate(sorted(payload)):
        stream.write(("," if i else "{") + "\n  " + encode_basestring_ascii(key) + ": ")
        if (value := payload[key]) is not table:
            stream.write(_json_text(value, "\n  "))
            continue
        columns, rows = table
        order = sorted(range(len(columns)), key=columns.__getitem__)
        template = "{" + ",".join(["\n      " + encode_basestring_ascii(columns[j]).replace("%", "%%") + ": %s"
                                   for j in order]) + "\n    }"
        cells = (functools.partial(_json_text, indent="\n      "), functools.partial(_json_text, indent="\n        "),
                 ("[\n        ", ",\n        ", "\n      ]"))  # the cells of a row, and their members
        separator = "[\n    "
        for texts in _text_chunks(table, *cells):
            stream.write(separator + ",\n    ".join(map(template.__mod__, zip(*[texts[j] for j in order]))))
            separator = ",\n    "
        stream.write("\n  ]" if rows else "[]")
    stream.write("\n}\n")


# A CSV cell is quoted, with its quotes doubled, when it holds one of these: csv.writer's minimal
# quoting, and a lone \r, which csv.reader would read as a line end.
_csv_special = re.compile('[,"\r\n]').search


def _csv_column(texts: list[str]) -> list[str]:
    """A column of cell texts as CSV fields; its cells are scanned one by one only if the
    column holds a special character at all."""
    if not _csv_special(whole := "".join(texts)):
        return texts
    if '"' in whole:
        texts = [t.replace('"', '""') for t in texts]
    return ['"' + t + '"' if _csv_special(t) else t for t in texts]


def _csv_rows(columns: list) -> str:
    """The CSV lines of columns of cell texts; an all-int column may stay a tuple of ints."""
    return "".join(map((",".join(["%s"] * len(columns)) + "\n").__mod__, zip(*columns)))


def _write_csv(report: dict, table: tuple | None, stream) -> None:
    if table is None:
        scalars = {k: v for k, v in report.items() if k != "_lines"}
        stream.write(_csv_rows([_csv_column([key, _cell(value)]) for key, value in scalars.items()]))
        return
    stream.write(_csv_rows([_csv_column([name]) for name in table[0]]))
    for texts in _text_chunks(table, *_CSV_CELLS):  # an all-int column comes as its tuple of ints
        stream.write(_csv_rows([column if type(column) is tuple else _csv_column(column) for column in texts]))


_WRITERS = {"text": _write_text, "json": _write_json, "csv": _write_csv}


# ---------------------------------------------------------------------------
# Argument helpers
# ---------------------------------------------------------------------------


def _integer_option(value: str, kind: str) -> int:
    # argparse's wording for a ValueError, with the value cut by short_repr: a refusal stays one short line
    try:
        return parse_integer(value, "an integer option")
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {kind} value: {short_repr(value)}") from None


def _prime(value: str) -> int:
    try:
        return exact_prime(_integer_option(value, "_prime"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _positive(value: str) -> int:
    n = _integer_option(value, "_positive")
    if n < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return n


def _rational(value: str) -> Fraction:
    # Counted as it is parsed, before any work: every rational option is printed in the report.
    try:
        return parse_rational(value, "a rational option")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _rational_list(value: str) -> list[Fraction]:
    value = value.strip()
    if not value:
        return []
    return [_rational(part) for part in value.split(",")]


# ---------------------------------------------------------------------------
# Handlers: each returns (exit_code, report, table), the table (column names, row tuples) or None.
# Each reads the library functions it calls from their home module at call time.
# ---------------------------------------------------------------------------


def _cmd_mass_serre(args):
    mass = massformulas.serre_mass(args.n, args.f)
    report = {"n": args.n, "f": args.f, "mass": _expr_payload(mass)}
    return EXIT_OK, report, None


def _cmd_mass_bhargava(args):
    mass = massformulas.bhargava_mass(args.n)
    report = {"n": args.n, "mass": _expr_payload(mass)}
    return EXIT_OK, report, None


def _mass_match(nmax, columns, pairs):
    """A mass check's result, one row (*key, computed, expected, match) per (key, computed, expected) pair: QExpr
    is canonical, so an expected mass equal to the computed one is printed by the computed one's text."""
    rows = [(*key, text, text if match else str(expected), match) for key, value, expected in pairs
            for text, match in [(str(value), value == expected)]]
    all_match = all(row[-1] for row in rows)
    return (EXIT_OK if all_match else EXIT_VERIFICATION_FAILED), {"nmax": nmax, "all_match": all_match}, (columns, rows)


def _cmd_mass_expcheck(args):
    exp, partition = massformulas.mass_series_via_exp(args.nmax), massformulas.bhargava_series(args.nmax)
    pairs = zip([(n,) for n in range(1, args.nmax + 1)], exp.coefficients[1:], partition.coefficients[1:])
    return _mass_match(args.nmax, ("n", "exponential", "partition_formula", "match"), pairs)


def _cmd_mass_invert(args):
    recovered = massformulas.recover_N_from_M(massformulas.bhargava_series(args.nmax))
    pairs = [((f, m), value, massformulas.serre_mass(m, f)) for (f, m), value in sorted(recovered.items())]
    return _mass_match(args.nmax, ("f", "m", "recovered", "expected", "match"), pairs)


def _cmd_etale_enumerate(args):
    algebras = localfields.count_tame_etale_algebras(args.p, args.n)  # first: it holds the degree budget
    classes = localfields.enumerate_tame_field_classes(args.p, args.n)
    rows = [(cls.f, cls.e, cls.orbit, cls.degree, cls.disc_exponent, cls.aut_order) for cls in classes]
    report = {
        "p": args.p,
        "n": args.n,
        "field_classes": len(classes),
        "etale_algebras": algebras,
        "wild_strata_skipped": [list(stratum) for stratum in localfields.skipped_wild_strata(args.p, args.n)],
        "complete": localfields.tame_enumeration_is_complete(args.p, args.n),
    }
    return EXIT_OK, report, (("f", "e", "orbit", "degree", "d", "aut"), rows)


def _cmd_etale_mass(args):
    mass = localfields.algebra_mass_sum(args.p, args.n)
    expected = massformulas.bhargava_mass(args.n).evaluate(args.p)
    match = mass == expected
    report = {
        "p": args.p,
        "n": args.n,
        "mass": str(mass),
        "partition_formula_at_p": str(expected),
        "match": match,
    }
    return (EXIT_OK if match else EXIT_VERIFICATION_FAILED), report, None


def _cmd_etale_crossvalidate(args):
    verdicts = localfields.crossvalidate_fixtures(localfields.load_fixtures(args.fixtures))
    rows = [(fx.label, fx.p, fx.n, fx.e, fx.f, fx.disc_exponent, fx.aut_order, status, reason)
            for fx, status, reason in verdicts]
    statuses = [status for _, status, _ in verdicts]
    report = {
        "fixtures": len(verdicts),
        "matched": statuses.count("matched"),
        "uncheckable": statuses.count("uncheckable (wild)"),
        "mismatches": statuses.count("mismatch"),
        "ok": "mismatch" not in statuses,
    }
    table = ("label", "p", "n", "e", "f", "d", "aut", "status", "reason"), rows
    return (EXIT_OK if report["ok"] else EXIT_VERIFICATION_FAILED), report, table


def _cmd_mckay_verify(args):
    result = mckay.verify_wild_mckay(args.p, args.n)
    report = {
        "p": args.p,
        "n": args.n,
        "mass_side": str(result.mass_side),
        "hilb_side": str(result.hilb_side),
        "passed": result.passed,
    }
    return (EXIT_OK if result.passed else EXIT_VERIFICATION_FAILED), report, (mckay.ROW_COLUMNS, result.rows)


def _value_report(report: dict, value, at_q: Fraction | None) -> dict:
    """report, the value's payload and, given --at-q, its evaluation, which is taken (or refused) first."""
    evaluated = {} if at_q is None else {"evaluated": _eval_payload(value, at_q)}
    return {**report, "value": _expr_payload(value), **evaluated}


def _cmd_stringy_eval(args):
    value = stringy.stringy_count_snc(stringy.SncLogPairData.load(args.input))
    return EXIT_OK, _value_report({"input": args.input}, value, args.at_q), None


def _cmd_stringy_point(args):
    value = stringy.stringy_point_contribution(args.a, args.c)
    return EXIT_OK, _value_report({"a": str(args.a), "c": [str(c) for c in args.c]}, value, args.at_q), None


def _cmd_padic_count(args):
    system = padic.PolySystem.load(args.input)
    result = padic.count_points_mod(system, args.m)
    check_exact_digits(result.normalized, "lifting", "digits in the normalized count")
    report = {
        "input": args.input,
        "p": system.p,
        "n": system.num_vars,
        "d": system.dim,
        "m": args.m,
        "count": result.count,
        "normalized": str(result.normalized),
    }
    return EXIT_OK, report, None


def _cmd_padic_measure(args):
    system = padic.PolySystem.load(args.input)
    result = padic.smooth_measure_check(system, args.mmax)
    report = {
        "input": args.input,
        "p": system.p,
        "d": system.dim,
        "m_max": args.mmax,
        "counts": result.counts,
        "residue_points": result.counts[0],
        "measure": str(result.measure),
    }
    return EXIT_OK, report, None


def _cmd_padic_integral(args):
    partial, exact = padic.monomial_integral(args.c, args.p, args.terms)
    # evaluated (or refused) before the closed form is rendered
    at_p = {} if qexpr.is_infinite(exact) else {"exact_at_p": _eval_payload(exact, Fraction(args.p))}
    report = {
        "c": str(args.c),
        "p": args.p,
        "terms": args.terms,
        "partial": _decimal_text(partial),
        "exact": _expr_payload(exact),
        **at_p,
    }
    return EXIT_OK, report, None


def _cmd_padic_nullset(args):
    system = padic.PolySystem.load(args.input)
    fraction = padic.null_set_fraction(system, args.m)
    check_exact_digits(fraction, "lifting", "digits in the box fraction")
    report = {
        "input": args.input,
        "p": system.p,
        "n": system.num_vars,
        "m": args.m,
        "fraction": str(fraction),
        "fraction_approx": _decimal_text(fraction, 6),
    }
    return EXIT_OK, report, None


def _cmd_selftest(args):
    results = selftest.run_all()
    rows = [(r.number, r.name, r.passed, r.detail) for r in results]
    all_passed = all(r.passed for r in results)
    report = {
        "_lines": [r.line() for r in results],
        "criteria": len(results),
        "all_passed": all_passed,
    }
    table = ("criterion", "name", "passed", "detail"), rows
    return (EXIT_OK if all_passed else EXIT_VERIFICATION_FAILED), report, table


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


_P = ("--p", {"type": _prime, "required": True})
_N = ("--n", {"type": _positive, "required": True})
_NMAX = ("--nmax", {"type": _positive, "required": True})
_M = ("--m", {"type": _positive, "required": True})
_INPUT = ("--input", {"required": True})
_AT_Q = ("--at-q", {"type": _rational, "default": None, "metavar": "Q",
                    "help": "also evaluate at q = Q (rational, > 0)"})

# The top-level groups in the order they are listed, with their help.
_GROUP_HELP = {
    "mass": "symbolic mass formulas",
    "etale": "tame local-field enumeration",
    "mckay": "wild McKay identity for S_n",
    "stringy": "stringy point counts of SNC data",
    "padic": "exact residue-ring measures",
    "selftest": "run every acceptance criterion",
}

# One row per subcommand: (group, action or None, help, handler, flags); a group without
# actions is its own command, with the group's help.  Rows are registered in order; --format
# is added to every command.
_COMMANDS = [
    ("mass", "serre", "totally ramified mass q^(f(1-n))", _cmd_mass_serre,
     [_N, ("--f", {"type": _positive, "default": 1})]),
    ("mass", "bhargava", "etale algebra mass by partitions", _cmd_mass_bhargava, [_N]),
    ("mass", "expcheck", "exponential identity vs partition formula", _cmd_mass_expcheck, [_NMAX]),
    ("mass", "invert", "recover totally ramified masses from the series", _cmd_mass_invert, [_NMAX]),
    ("etale", "enumerate", "field classes of degree n over Q_p", _cmd_etale_enumerate, [_P, _N]),
    ("etale", "mass", "stratum-weight mass vs partition formula at q=p", _cmd_etale_mass, [_P, _N]),
    ("etale", "crossvalidate", "check database fixtures against the enumeration", _cmd_etale_crossvalidate,
     [("--fixtures", {"required": True})]),
    ("mckay", "verify", "mass side vs Hilbert-scheme count at q=p", _cmd_mckay_verify, [_P, _N]),
    ("stringy", "eval", "evaluate the stratum formula from a JSON file", _cmd_stringy_eval,
     [_INPUT, _AT_Q]),
    ("stringy", "point", "single-point weight q^a prod (q-1)/(q^(1-c)-1)", _cmd_stringy_point,
     [("--a", {"type": _rational, "default": Fraction(0)}),
      ("--c", {"type": _rational_list, "default": (), "help": "comma-separated coefficients"}),
      _AT_Q]),
    ("padic", "count", "count solutions in (Z/p^m)^n", _cmd_padic_count,
     [("--input", {"required": True, "help": "PolySystem JSON file"}), _M]),
    ("padic", "measure", "smooth measure check via lift counting", _cmd_padic_measure,
     [_INPUT, ("--mmax", {"type": _positive, "required": True})]),
    ("padic", "integral", "monomial integral: truncation vs closed form", _cmd_padic_integral,
     [("--c", {"type": _rational, "required": True}), _P, ("--terms", {"type": _positive, "default": 60})]),
    ("padic", "nullset", "box fraction of a null set", _cmd_padic_nullset, [_INPUT, _M]),
    ("selftest", None, None, _cmd_selftest, []),
]

# Each _COMMANDS row by the argv words that name it: ("padic", "measure"), or ("selftest",).
_ROWS = {tuple(filter(None, row[:2])): row for row in _COMMANDS}


def _add_command(parser, group, action, _help, handler, flags) -> argparse.ArgumentParser:
    """parser with the flags of one _COMMANDS row and --format; its namespace names the command."""
    for flag, options in flags:
        parser.add_argument(flag, **options)
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.set_defaults(handler=handler, group=group, action=action)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full tree: every group with its help, and every command parser under its group."""
    parser = argparse.ArgumentParser(
        prog="wildmckay",
        description="exact mass formulas, stringy counts and p-adic measures",
    )
    subparsers = parser.add_subparsers(dest="group", required=True)
    group_parsers = {group: subparsers.add_parser(group, help=help_text) for group, help_text in _GROUP_HELP.items()}
    actions = {}
    for row in _COMMANDS:
        group, action, help_text = row[:3]
        command = group_parsers[group]
        if action is not None:
            if group not in actions:
                actions[group] = command.add_subparsers(dest="action", required=True)
            command = actions[group].add_parser(action, help=help_text)
        _add_command(command, *row)
    return parser


@functools.cache  # called with the keys of _ROWS only; parse_known_args keeps no state
def _command_parser(name: tuple) -> argparse.ArgumentParser:
    return _add_command(argparse.ArgumentParser(prog="wildmckay " + " ".join(name)), *_ROWS[name])


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed by the parser of the command its first words name, which the full tree hands every
    later word: it prints each --help screen and usage error the tree would.  The full tree parses an
    argv that names no command, or that has words left over, which it refuses under its own usage."""
    name = tuple(argv[:2]) if tuple(argv[:2]) in _ROWS else tuple(argv[:1])
    if name in _ROWS:
        args, extras = _command_parser(name).parse_known_args(argv[len(name):])
        if not extras:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None, stdout=None) -> int:
    # Pause the cyclic collector for the command (as Mercurial's util.nogc does while it builds
    # large containers): reports are acyclic and alive until written, so its passes would free
    # nothing; reference counting still frees every acyclic temporary.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv, sys.stdout if stdout is None else stdout)
    finally:
        if enabled:
            gc.enable()


def _run(argv: list[str] | None, stream) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if stream is None:  # the process started with its standard output closed
            raise OSError("standard output is closed")
        args = _parse(argv)  # an option past its digits cap is a BudgetExceededError
        code, report, table = args.handler(args)
        command = " ".join(filter(None, (args.group, args.action)))  # selftest has no action
        _WRITERS[args.format]({"command": command, **report}, table, stream)
        stream.flush()  # a closed pipe shows here, not in the interpreter's flush at exit
    except SystemExit as exc:  # from argparse: --help, or a usage error
        code = exc.code
        return code if isinstance(code, int) else EXIT_INPUT_ERROR
    except (SmoothnessError, HenselMismatchError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    except (BudgetExceededError, PoleError, OSError, ValueError) as exc:
        if isinstance(exc, BrokenPipeError) and stream is sys.stdout:  # as the signal module's docs advise,
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())  # the flush at exit writes nowhere
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return code


def run_to_string(argv: list[str]) -> str:
    """Run the CLI capturing stdout; used by determinism checks and tests."""
    buffer = io.StringIO()
    main(argv, stdout=buffer)
    return buffer.getvalue()


if __name__ == "__main__":
    sys.exit(main())
