"""Seeded workloads: the CLI commands each run sends, and their oracles.

A workload is a fixed list of op slots.  Each slot fixes what sets an op's
cost (command, degree, prime class, divisor pattern); the seed fills in
everything that does not (coefficients, translations, primes of equal
algebra count, divisor order, output format) and shuffles
the slots.  So runs with different seeds send different input bytes but
the same amount of work, and their timings are comparable.

Every op is checked against `oracles`, which never imports wildmckay.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from oracles import (
    SINGULAR_GOLDENS,
    bhargava_terms,
    count_fp,
    eval_terms,
    exponent_lcm,
    expect,
    hilbert_count,
    legendre,
    parse_pretty,
    partitions_exactly,
    point_weight,
    quad_terms,
)

WORKLOADS = ("mass-series", "padic-lift", "tame-mckay", "stringy-gcd")


@dataclass
class Op:
    argv: list[str]
    fmt: str
    check: Callable[[dict, list | None], None]
    corrupt: Callable[[dict, list | None], None]


@dataclass
class Workload:
    ops: list[Op]
    warmup: list[list[str]]


# ---------------------------------------------------------------------------
# Output tables: the CLI prints a JSON report (rows under "rows") or CSV
# (rows when the command has rows, else one header and one scalar row).
# ---------------------------------------------------------------------------


def load_output(fmt: str, text: str) -> tuple[dict, list | None]:
    if fmt == "json":
        report = json.loads(text)
        return report, report.pop("rows", None)
    header, *body = list(csv.reader(io.StringIO(text)))
    rows = [dict(zip(header, values)) for values in body]
    return {}, rows


def dump_output(fmt: str, report: dict, rows: list | None) -> str:
    if fmt == "json":
        payload = dict(report)
        if rows is not None:
            payload["rows"] = rows
        return json.dumps(payload)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(rows[0]))
    writer.writerows([list(row.values()) for row in rows])
    return buffer.getvalue()


def fields(fmt: str, report: dict, rows: list | None) -> dict:
    """Scalar fields of a row-less report in either format."""
    return report if fmt == "json" else rows[0]


def as_list(value) -> list:
    return value if isinstance(value, list) else json.loads(value)


def truthy(value) -> bool:
    """A JSON true or a CSV "yes"."""
    return value is True or value == "yes"


def bump_rational(text: str) -> str:
    return str(Fraction(text) + 1)


def bump_pretty(text: str) -> str:
    """Change one coefficient of a pretty-printed q-expression."""
    head = text.split(" ", 1)
    if head[0][:1].isdigit() and "*" not in head[0]:
        return " ".join([str(Fraction(head[0]) + 1)] + head[1:])
    return "2*" + text


# ---------------------------------------------------------------------------
# mass-series
# ---------------------------------------------------------------------------

# (command, nmax) slots; N alone sets the cost of a mass command.
MASS_SLOTS = [("invert", 18), ("invert", 20), ("expcheck", 19), ("expcheck", 21), ("expcheck", 22)]


def _check_invert(nmax: int, fmt: str):
    def check(report, rows):
        if fmt == "json":
            expect(report["all_match"] is True and report["nmax"] == nmax, "invert report")
        seen = set()
        for row in rows:
            f, m = int(row["f"]), int(row["m"])
            seen.add((f, m))
            expect(truthy(row["match"]), f"invert row {f},{m} not matched")
            expect(parse_pretty(row["recovered"]) == {Fraction(f * (1 - m)): 1},
                   f"N({f},{m}) = {row['recovered']}, want q^({f * (1 - m)})")
        want = {(f, m) for m in range(1, nmax + 1) for f in range(1, nmax // m + 1)}
        expect(seen == want and len(rows) == len(want), "invert rows do not cover f*m <= nmax")
    return check


def _check_expcheck(nmax: int, fmt: str):
    def check(report, rows):
        if fmt == "json":
            expect(report["all_match"] is True and report["nmax"] == nmax, "expcheck report")
        expect([int(row["n"]) for row in rows] == list(range(1, nmax + 1)), "expcheck degrees")
        for row in rows:
            n = int(row["n"])
            expect(truthy(row["match"]), f"expcheck n={n} not matched")
            expect(parse_pretty(row["exponential"]) == bhargava_terms(n),
                   f"exp coefficient {n} = {row['exponential']}")
    return check


def _corrupt_row_text(column: str):
    def corrupt(report, rows):
        rows[-1][column] = bump_pretty(rows[-1][column])
    return corrupt


def build_mass_series(rng: random.Random, _inputs: Path) -> Workload:
    ops = []
    for command, nmax in MASS_SLOTS:
        fmt = rng.choice(("json", "csv"))
        argv = ["mass", command, "--nmax", str(nmax), "--format", fmt]
        if command == "invert":
            ops.append(Op(argv, fmt, _check_invert(nmax, fmt), _corrupt_row_text("recovered")))
        else:
            ops.append(Op(argv, fmt, _check_expcheck(nmax, fmt), _corrupt_row_text("exponential")))
    rng.shuffle(ops)
    warmup = [["mass", "invert", "--nmax", "4", "--format", "json"],
              ["mass", "expcheck", "--nmax", "4", "--format", "csv"]]
    return Workload(ops, warmup)


# ---------------------------------------------------------------------------
# padic-lift
# ---------------------------------------------------------------------------

# (command, family, p, m or m_max, family parameter).  For conics the
# parameter is chi(-ab), which fixes #X(F_p) = p - chi(-ab); for cubics it
# is the required #X(F_p).  Both fix the lifting work, p^n per point per level.
# The costliest op fills two slots, so the 90th latency percentile falls
# inside one cost class.
PADIC_SLOTS = [
    ("measure", "conic", 13, 4, 1),
    ("measure", "conic", 13, 4, 1),
    ("measure", "conic", 11, 4, -1),
    ("measure", "cubic", 7, 5, 9),
    ("measure", "conic", 5, 5, 1),
    ("nullset", "cusp", 5, 4, None),
    ("count", "node", 5, 4, None),
    ("count", "cusp", 7, 3, None),
    ("nullset", "node", 7, 3, None),
    ("count", "cusp", 11, 2, None),
]


def _unit(rng: random.Random, p: int) -> int:
    return rng.randrange(1, p)


def _merge(terms) -> list:
    acc: dict[tuple[int, ...], int] = {}
    for exps, coeff in terms:
        acc[tuple(exps)] = acc.get(tuple(exps), 0) + coeff
    return [[list(exps), coeff] for exps, coeff in acc.items() if coeff]


def _conic(rng, p, chi):
    """a(x-s)^2 + b(y-t)^2 - c with chi(-ab) = chi: #X(F_p) = p - chi."""
    while True:
        a, b, c, s, t = (_unit(rng, p) for _ in range(5))
        const = a * s * s + b * t * t - c
        if legendre(-a * b, p) == chi and const % p:
            break
    poly = _merge([((2, 0), a), ((1, 0), -2 * a * s), ((0, 2), b), ((0, 1), -2 * b * t), ((0, 0), const)])
    return poly, p - chi


def _cubic(rng, p, points):
    """y^2 - x^3 - Ax - B, smooth mod p, with exactly `points` affine F_p points."""
    candidates = []
    for A in range(1, p):
        for B in range(1, p):
            if (4 * A**3 + 27 * B * B) % p == 0:
                continue
            poly = [[[0, 2], 1], [[3, 0], -1], [[1, 0], -A], [[0, 0], -B]]
            if count_fp(poly, p) == points:
                candidates.append(poly)
    expect(bool(candidates), f"no smooth cubic over F_{p} with {points} points")
    return rng.choice(candidates), points


def _cusp(rng, p):
    """u(x-s)^2 - v(y-t)^3: a unit rescaling and translation of x^2 - y^3."""
    u, v, s, t = (_unit(rng, p) for _ in range(4))
    return _merge([((2, 0), u), ((1, 0), -2 * u * s), ((0, 0), u * s * s), ((0, 3), -v),
                   ((0, 2), 3 * v * t), ((0, 1), -3 * v * t * t), ((0, 0), v * t**3)])


def _node(rng, p):
    """u(x-s)(y-t): a unit rescaling and translation of xy."""
    u, s, t = (_unit(rng, p) for _ in range(3))
    return _merge([((1, 1), u), ((1, 0), -u * t), ((0, 1), -u * s), ((0, 0), u * s * t)])


def _check_measure(p, mmax, points, fmt):
    def check(report, rows):
        got = fields(fmt, report, rows)
        want = [points * p ** (m - 1) for m in range(1, mmax + 1)]
        expect(as_list(got["counts"]) == want, f"counts {got['counts']} != {want}")
        expect(int(got["residue_points"]) == points, "residue point count")
        expect(Fraction(got["measure"]) == Fraction(points, p), f"measure {got['measure']} != {points}/{p}")
    return check


def _corrupt_measure(fmt):
    def corrupt(report, rows):
        got = fields(fmt, report, rows)
        counts = as_list(got["counts"])
        counts[-1] += 1
        got["counts"] = counts if fmt == "json" else json.dumps(counts)
    return corrupt


def _check_count(p, m, golden, fmt):
    def check(report, rows):
        got = fields(fmt, report, rows)
        expect(int(got["count"]) == golden, f"count {got['count']} != golden {golden}")
        expect(Fraction(got["normalized"]) == Fraction(golden, p**m), "normalized count")
    return check


def _corrupt_count(fmt):
    def corrupt(report, rows):
        got = fields(fmt, report, rows)
        got["count"] = int(got["count"]) + 1
    return corrupt


def _check_nullset(p, m, golden, fmt):
    def check(report, rows):
        got = fields(fmt, report, rows)
        expect(Fraction(got["fraction"]) == Fraction(golden, p ** (2 * m)),
               f"null-set fraction {got['fraction']} != {golden}/{p ** (2 * m)}")
    return check


def _corrupt_nullset(fmt):
    def corrupt(report, rows):
        got = fields(fmt, report, rows)
        got["fraction"] = bump_rational(got["fraction"])
    return corrupt


def build_padic_lift(rng: random.Random, inputs: Path) -> Workload:
    ops = []
    for index, (command, family, p, m, param) in enumerate(PADIC_SLOTS):
        fmt = rng.choice(("json", "csv"))
        path = inputs / f"padic-{index}.json"
        if family == "conic":
            poly, points = _conic(rng, p, param)
        elif family == "cubic":
            poly, points = _cubic(rng, p, param)
        else:
            poly = _cusp(rng, p) if family == "cusp" else _node(rng, p)
        path.write_text(json.dumps({"p": p, "n": 2, "d": 1, "polys": [poly]}) + "\n")
        flag = "--mmax" if command == "measure" else "--m"
        argv = ["padic", command, "--input", str(path), flag, str(m), "--format", fmt]
        if command == "measure":
            ops.append(Op(argv, fmt, _check_measure(p, m, points, fmt), _corrupt_measure(fmt)))
        elif command == "count":
            golden = SINGULAR_GOLDENS[(family, p, m)]
            ops.append(Op(argv, fmt, _check_count(p, m, golden, fmt), _corrupt_count(fmt)))
        else:
            golden = SINGULAR_GOLDENS[(family, p, m)]
            ops.append(Op(argv, fmt, _check_nullset(p, m, golden, fmt), _corrupt_nullset(fmt)))
    rng.shuffle(ops)
    warm = inputs / "warmup.json"
    warm.write_text(json.dumps({"p": 5, "n": 2, "d": 1, "polys": [[[[2, 0], 1], [[0, 2], 1], [[0, 0], -1]]]}) + "\n")
    warmup = [["padic", "measure", "--input", str(warm), "--mmax", "2", "--format", "json"],
              ["padic", "count", "--input", str(warm), "--m", "1", "--format", "csv"],
              ["padic", "nullset", "--input", str(warm), "--m", "1", "--format", "json"]]
    return Workload(ops, warmup)


# ---------------------------------------------------------------------------
# tame-mckay
# ---------------------------------------------------------------------------

# Primes > 12 grouped by the number of tame etale algebras they give in each
# degree 8..12 (within 6% inside a group), so the seed can pick any member.
PRIMES_MANY = (13, 31, 37, 97)
PRIMES_FEW = (23, 47, 59, 83)

# The costliest op, a 1.7 MB JSON verify at n = 12, fills two of the 14
# slots, so the 90th latency percentile falls inside one cost class.
TAME_SLOTS = [
    ("mckay", 12, PRIMES_MANY, "json"),
    ("mckay", 12, PRIMES_MANY, "json"),
    ("mckay", 12, PRIMES_FEW, "csv"),
    ("mckay", 11, PRIMES_MANY, "csv"),
    ("mckay", 10, PRIMES_FEW, "json"),
    ("mckay", 9, PRIMES_MANY, "json"),
    ("mckay", 8, PRIMES_FEW, "csv"),
    ("mass", 12, PRIMES_MANY, "json"),
    ("mass", 11, PRIMES_FEW, "json"),
    ("mass", 10, PRIMES_MANY, "json"),
    ("mass", 9, PRIMES_FEW, "json"),
    ("enumerate", 12, PRIMES_MANY, "json"),
    ("enumerate", 10, PRIMES_FEW, "json"),
    ("enumerate", 8, PRIMES_MANY, "json"),
]


def _check_mckay(p, n, fmt):
    hilb = hilbert_count(n, p)

    def check(report, rows):
        if fmt == "json":
            expect(report["passed"] is True, "mckay report not passed")
            expect(Fraction(report["mass_side"]) == hilb, f"mass_side {report['mass_side']} != {hilb}")
            expect(Fraction(report["hilb_side"]) == hilb, f"hilb_side {report['hilb_side']} != {hilb}")
        total = sum(Fraction(int(row["term_num"]), int(row["term_den"])) for row in rows)
        expect(total == hilb, f"sum of algebra terms {total} != #Hilb^{n}(A^2)(F_{p}) = {hilb}")
        expect(all(int(row["v"]) == int(row["w"]) for row in rows), "w != v for some algebra")
    return check


def _corrupt_mckay(report, rows):
    rows[0]["term_num"] = int(rows[0]["term_num"]) + 1


def _check_etale_mass(p, n):
    want = sum(Fraction(partitions_exactly(n, n - i), p**i) for i in range(n))

    def check(report, rows):
        expect(report["match"] is True, "etale mass not matched")
        expect(Fraction(report["mass"]) == want, f"mass {report['mass']} != {want}")
    return check


def _corrupt_etale_mass(report, rows):
    report["mass"] = bump_rational(report["mass"])


def _check_enumerate(p, n):
    """Serre's mass formula for tame strata: sum over classes of 1/#Aut is
    1/f in each (f, e) stratum, and d = f(e - 1)."""
    strata = {(f, n // f) for f in range(1, n + 1) if n % f == 0}

    def check(report, rows):
        expect(report["complete"] is True and report["wild_strata_skipped"] == [], "tame completeness")
        expect(report["field_classes"] == len(rows), "field class count")
        mass: dict[tuple[int, int], Fraction] = {}
        for row in rows:
            f, e = row["f"], row["e"]
            expect(row["degree"] == n and f * e == n and row["d"] == f * (e - 1), f"class row {row}")
            mass[(f, e)] = mass.get((f, e), 0) + Fraction(1, row["aut"])
        expect(mass == {(f, e): Fraction(1, f) for f, e in strata}, f"stratum masses {mass}")
    return check


def _corrupt_enumerate(report, rows):
    rows[0]["aut"] += 1


def build_tame_mckay(rng: random.Random, _inputs: Path) -> Workload:
    ops = []
    for command, n, primes, fmt in TAME_SLOTS:
        p = rng.choice(primes)
        if command == "mckay":
            argv = ["mckay", "verify", "--p", str(p), "--n", str(n), "--format", fmt]
            ops.append(Op(argv, fmt, _check_mckay(p, n, fmt), _corrupt_mckay))
        elif command == "mass":
            argv = ["etale", "mass", "--p", str(p), "--n", str(n), "--format", fmt]
            ops.append(Op(argv, fmt, _check_etale_mass(p, n), _corrupt_etale_mass))
        else:
            argv = ["etale", "enumerate", "--p", str(p), "--n", str(n), "--format", fmt]
            ops.append(Op(argv, fmt, _check_enumerate(p, n), _corrupt_enumerate))
    rng.shuffle(ops)
    warmup = [["mckay", "verify", "--p", "5", "--n", "3", "--format", "json"],
              ["etale", "mass", "--p", "5", "--n", "3", "--format", "json"],
              ["etale", "enumerate", "--p", "5", "--n", "3", "--format", "json"]]
    return Workload(ops, warmup)


# ---------------------------------------------------------------------------
# stringy-gcd
# ---------------------------------------------------------------------------

# Divisor coefficients (denominators <= 3) and vertical coefficients a of
# each eval slot.  Both set the degrees that meet in the QFrac gcds, and the
# stratum counts set the size of the gcd coefficients, so all three are
# fixed per slot (costs differ by up to 1.7x between count draws); the seed
# permutes the divisors, which leaves the cost unchanged.  Below the six
# 0.4 s slots sit three cheap ops and above them two 0.85 s ones, so the
# median falls mid-way into the 0.4 s class and the 90th latency percentile
# into the 0.85 s one.  Six divisors are left out on purpose: one such input
# took about 113 s (gcd coefficient growth).
FIVE_A = ("1/2", "-1/3", "2/3", "-1/2", "1/3")
FIVE_B = ("1/3", "-1/3", "2/3", "-2/3", "-4/3")
FOUR_SLOW = (("1/2", "-1/3", "2/3", "-5/3"), ("0", "1/3", "1"))
STRINGY_EVAL_SLOTS = [
    (FIVE_A, ("0",)),
    (FIVE_A, ("0",)),
    (FIVE_A, ("0",)),
    (FIVE_B, ("0",)),
    (FIVE_B, ("0",)),
    (("1/2", "-1/3", "2/3", "-3/2"), ("0", "1/2")),
    FOUR_SLOW,
    FOUR_SLOW,
    (("1/2", "-1/3", "2/3"), ("0", "2")),
]
STRINGY_POINT_SLOTS = [("1/2", "-1/3", "2/3", "-1"), ("1/3", "-1/2", "1/2")]
EVAL_POINTS = (2, 3)


def _check_value(direct: Callable[[int, int], Fraction], input_lcm: int):
    """Evaluate the returned term lists at q = t^r and compare with `direct`."""
    def check(report, rows):
        value = report["value"]
        num, den = quad_terms(value["num"]), quad_terms(value["den"])
        r = math.lcm(input_lcm, exponent_lcm(e for e, _ in num + den))
        for t in EVAL_POINTS:
            got = eval_terms(num, t, r) / eval_terms(den, t, r)
            expect(got == direct(t, r), f"value at q={t}^{r} disagrees with the stratum sum")
    return check


def _corrupt_value(report, rows):
    report["value"]["num"][0][2] += 1


def _snc_input(rng, cs, a_values, counts):
    cs = list(cs)
    rng.shuffle(cs)
    k = len(cs)
    subsets = [list(s) for size in range(k + 1) for s in itertools.combinations(range(1, k + 1), size)]
    vertical = []
    for a in a_values:
        strata = [{"subset": s, "count": counts.randint(1, 9)} for s in subsets]
        vertical.append({"a": a, "strata": strata})
    total = sum(st["count"] for comp in vertical for st in comp["strata"])
    return {"horizontal": cs, "vertical": vertical, "total": total}


def _stratum_sum(data):
    def direct(t, r):
        total = Fraction(0)
        for comp in data["vertical"]:
            for st in comp["strata"]:
                cs = [data["horizontal"][j - 1] for j in st["subset"]]
                total += st["count"] * point_weight(t, r, Fraction(comp["a"]), cs)
        return total
    return direct


def build_stringy_gcd(rng: random.Random, inputs: Path) -> Workload:
    ops = []
    for index, (cs, a_values) in enumerate(STRINGY_EVAL_SLOTS):
        data = _snc_input(rng, cs, a_values, random.Random(f"stringy-counts:{index}"))
        path = inputs / f"snc-{index}.json"
        path.write_text(json.dumps(data) + "\n")
        lcm = exponent_lcm([Fraction(c) for c in cs] + [Fraction(v["a"]) for v in data["vertical"]])
        argv = ["stringy", "eval", "--input", str(path), "--format", "json"]
        ops.append(Op(argv, "json", _check_value(_stratum_sum(data), lcm), _corrupt_value))
    for pool in STRINGY_POINT_SLOTS:
        cs = list(pool)
        rng.shuffle(cs)
        a = rng.choice(("0", "1/2", "1", "3/2"))
        lcm = exponent_lcm([Fraction(c) for c in cs] + [Fraction(a)])
        # "--c=" keeps argparse from reading a leading "-1/3" as an option.
        argv = ["stringy", "point", f"--a={a}", f"--c={','.join(cs)}", "--format", "json"]
        direct = lambda t, r, a=a, cs=cs: point_weight(t, r, Fraction(a), cs)
        ops.append(Op(argv, "json", _check_value(direct, lcm), _corrupt_value))
    rng.shuffle(ops)
    warm = inputs / "warmup.json"
    warm.write_text(json.dumps({"horizontal": ["1/2"], "vertical": [{"a": 0, "strata": [
        {"subset": [], "count": 1}, {"subset": [1], "count": 1}]}]}) + "\n")
    warmup = [["stringy", "eval", "--input", str(warm), "--format", "json"],
              ["stringy", "point", "--a", "0", "--c", "1/2", "--format", "json"]]
    return Workload(ops, warmup)


BUILDERS = {
    "mass-series": build_mass_series,
    "padic-lift": build_padic_lift,
    "tame-mckay": build_tame_mckay,
    "stringy-gcd": build_stringy_gcd,
}


def build(name: str, seed: int, inputs: Path) -> Workload:
    inputs.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](random.Random(f"{name}:{seed}"), inputs)
