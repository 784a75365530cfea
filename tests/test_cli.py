"""End-to-end tests of the command-line interface: exit codes, schemas,
determinism of machine-readable output."""

import csv
import errno
import gc
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from wildmckay import cli, localfields, massformulas, numutil, padic, qexpr, stringy
from wildmckay.cli import _json_text, main, run_to_string
from wildmckay.qexpr import QExpr, QFrac

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


# Each command that reads a file, with the file's option last.
FILE_OPTIONS = [["padic", "count", "--m", "2", "--input"], ["stringy", "eval", "--input"],
                ["etale", "crossvalidate", "--fixtures"]]


def run(argv):
    buffer = io.StringIO()
    code = main(argv, stdout=buffer)
    return code, buffer.getvalue()


class TestExitCodes:
    def test_pass_is_zero(self):
        code, _ = run(["mass", "expcheck", "--nmax", "6"])
        assert code == 0

    def test_unknown_subcommand_is_two(self):
        code, _ = run(["mass", "frobnicate"])
        assert code == 2

    def test_unknown_group_is_two(self):
        code, _ = run(["nonsense"])
        assert code == 2

    def test_completeness_guard_is_two(self):
        code, _ = run(["mckay", "verify", "--p", "3", "--n", "4"])
        assert code == 2

    def test_non_prime_rejected(self, capsys):
        code, _ = run(["etale", "mass", "--p", "6", "--n", "2"])
        assert code == 2
        assert "wildmckay etale mass: error: argument --p: p=6 is not prime" in capsys.readouterr().err.splitlines()

    def test_budget_exceeded_is_two(self, monkeypatch):
        monkeypatch.setattr(padic, "POINTS_BUDGET", 100)
        code, _ = run(["padic", "count", "--input", str(DATA / "sample_circle.json"), "--m", "4"])
        assert code == 2

    def test_budget_flag_is_a_usage_error(self, capsys):
        circle = str(DATA / "sample_circle.json")
        for argv in (
            ["padic", "count", "--input", circle, "--m", "2"],
            ["padic", "measure", "--input", circle, "--mmax", "2"],
            ["padic", "nullset", "--input", circle, "--m", "2"],
            ["selftest"],
        ):
            assert run(argv + ["--budget", "100"]) == (2, "")
            assert "unrecognized arguments: --budget 100" in capsys.readouterr().err

    def test_precision_flag_is_a_usage_error(self, capsys):
        # Gone: QFrac.evaluate takes every approximation within 10^-20 of its size as well, so no
        # precision changed a printed digit.
        for argv in (["stringy", "point", "--at-q", "5"], ["stringy", "eval", "--input", str(DATA / "sample_snc_pair.json")],
                     ["padic", "integral", "--c", "1/2", "--p", "5"]):
            assert run(argv + ["--precision", "1e-3"]) == (2, "")
            assert [line for line in capsys.readouterr().err.splitlines() if "error:" in line] == [
                "wildmckay: error: unrecognized arguments: --precision 1e-3"], argv

    def test_table_flag_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        # Gone: it wrote the rows that --format json prints to a second file, in a second shape.
        monkeypatch.chdir(tmp_path)
        assert run(["mckay", "verify", "--p", "5", "--n", "2", "--table", "breakdown.json"]) == (2, "")
        assert [line for line in capsys.readouterr().err.splitlines() if "error:" in line] == [
            "wildmckay: error: unrecognized arguments: --table breakdown.json"]
        assert not list(tmp_path.iterdir())

    def test_algebra_budget_is_checked_before_listing(self, capsys):
        start = time.perf_counter()
        code, out = run(["mckay", "verify", "--p", "101", "--n", "40"])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err == "error: algebras budget exceeded: need 634306319 algebras listed, budget 100000\n"
        assert elapsed < 5  # counted in well under a second; listing would take hours

    def test_algebra_budget_equal_to_the_count_passes(self, monkeypatch, capsys):
        # 19 etale algebras of degree 4 over Q_5
        monkeypatch.setattr(localfields, "ALGEBRAS_BUDGET", 19)
        assert run(["mckay", "verify", "--p", "5", "--n", "4"])[0] == 0
        monkeypatch.setattr(localfields, "ALGEBRAS_BUDGET", 18)
        assert run(["mckay", "verify", "--p", "5", "--n", "4"])[0] == 2
        assert capsys.readouterr().err == "error: algebras budget exceeded: need 19 algebras listed, budget 18\n"

    def test_malformed_input_is_two(self, tmp_path, capsys):
        def write(name, payload):
            path = tmp_path / name
            path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
            return str(path)

        circle = {"p": 5, "n": 2, "d": 1}

        def stratum(count):
            return {"vertical": [{"strata": [{"subset": [], "count": count}]}]}
        snc = str(DATA / "sample_snc_pair.json")
        cases = [
            ["padic", "count", "--input", write("bad.json", "{not json"), "--m", "1"],
            # zero denominators, on the command line and in SNC data
            ["stringy", "point", "--c", "1/0"],
            ["stringy", "eval", "--input", snc, "--at-q", "1/0"],
            ["stringy", "eval", "--input", write("snc.json", {"horizontal": ["1/0"], "vertical": []})],
            # inexact or ill-shaped integers in input files
            ["padic", "count", "--input", write("float.json", {**circle, "polys": [[[[2, 0], 1.5]]]}), "--m", "1"],
            ["padic", "count", "--input", write("polys.json", {**circle, "polys": 5}), "--m", "1"],
            ["etale", "crossvalidate", "--fixtures", write("fixtures.json", [5])],
            # top-level JSON that is not an object
            ["padic", "count", "--input", write("list.json", [1]), "--m", "1"],
            ["stringy", "eval", "--input", write("snc-list.json", [1])],
            # inexact stratum counts and totals, and ill-shaped SNC entries
            ["stringy", "eval", "--input", write("count.json", stratum(1.5))],
            ["stringy", "eval", "--input", write("total.json", {**stratum(1), "total": 1.0})],
            ["stringy", "eval", "--input", write("entry.json", {"vertical": [5]})],
            # an evaluation point that is not positive
            ["stringy", "point", "--a", "1/2", "--at-q", "0"],
            ["stringy", "point", "--a", "1/2", "--at-q=-1/2"],
        ]
        for argv in cases:
            code, _ = run(argv)
            err = capsys.readouterr().err
            assert code == 2, argv
            assert len([line for line in err.splitlines() if "error:" in line]) == 1, err
            assert "Traceback" not in err

    @pytest.mark.parametrize("bad", [{"p": 0}, {"p": 1}, {"p": 4}, {"e": 0, "n": 0}, {"f": 0, "n": 0}, {"aut": 0},
                                     {"c": -1}, {"p": 10**31 + 1}],
                             ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()))
    def test_malformed_fixture_record_is_two(self, bad, tmp_path, capsys):
        # p = 0 ended in a ZeroDivisionError; p = 1 or 4, e = n = 0 and aut = 0 were "uncheckable (wild)";
        # a p past the exact primality test was refused without the record's label.
        record = {"p": 5, "n": 2, "e": 2, "f": 1, "c": 1, "aut": 2, "label": "5.2.1.1", **bad}
        path = tmp_path / "fixtures.json"
        path.write_text(json.dumps([record]))
        assert run(["etale", "crossvalidate", "--fixtures", str(path)]) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: fixture '5.2.1.1': ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("bad, message", [
        ({"label": None}, "fixture #2: missing field 'label'"),
        ({"c": None}, "fixture 'x': missing field 'c'"),
        ({"aut": 2.0}, "fixture 'x': aut must be an integer, got 2.0"),
        (5, "fixture #2: fixture record must be a JSON object, got 5"),
    ], ids=["no-label", "no-c", "float-aut", "not-an-object"])
    def test_every_fixture_refusal_names_the_record(self, bad, message, tmp_path, capsys):
        # these printed a bare "'label'" or "'c'" (the KeyError) or no record name at all;
        # a record without a label is named by its 1-based position in the file
        good = {"p": 5, "n": 2, "e": 2, "f": 1, "c": 1, "aut": 2, "label": "5.2.1.1"}
        if isinstance(bad, dict):  # a None value drops the field
            bad = {key: value for key, value in {**good, "label": "x", **bad}.items() if value is not None}
        path = tmp_path / "fixtures.json"
        path.write_text(json.dumps([good, bad]))
        assert run(["etale", "crossvalidate", "--fixtures", str(path)]) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("label", [None, [1], 5])
    def test_fixture_label_must_be_a_string(self, label, tmp_path, capsys):
        # a null or [1] label was read through str() and matched under "None" or "[1]", exit 0
        path = tmp_path / "fixtures.json"
        path.write_text(json.dumps([{"p": 5, "n": 2, "e": 2, "f": 1, "c": 1, "aut": 2, "label": label}]))
        assert run(["etale", "crossvalidate", "--fixtures", str(path)]) == (2, "")
        assert capsys.readouterr().err == f"error: fixture #1: label must be a string, got {label!r}\n"

    @pytest.mark.parametrize("missing", ["p", "n", "d", "polys"])
    def test_polynomial_system_refusal_names_the_missing_field(self, missing, tmp_path, capsys):
        # these printed a bare "'n'" (the KeyError)
        system = {"p": 5, "n": 2, "d": 1, "polys": [[[[2, 0], 1], [[0, 2], 1], [[0, 0], -1]]]}
        del system[missing]
        path = tmp_path / "system.json"
        path.write_text(json.dumps(system))
        for argv in (["count", "--m", "1"], ["measure", "--mmax", "1"], ["nullset", "--m", "1"]):
            assert run(["padic", argv[0], "--input", str(path), *argv[1:]]) == (2, "")
            assert capsys.readouterr().err == f"error: missing field {missing!r}\n"

    @pytest.mark.parametrize("stratum, missing", [({"subset": []}, "count"), ({"count": 1}, "subset"), ({}, "subset")])
    def test_stratum_refusal_names_the_missing_field(self, stratum, missing, tmp_path, capsys):
        # these printed a bare "'count'" or "'subset'" (the KeyError)
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"vertical": [{"a": 0, "strata": [{"subset": [], "count": 1}]},
                                                 {"a": 1, "strata": [stratum]}]}))
        assert run(["stringy", "eval", "--input", str(path)]) == (2, "")
        assert capsys.readouterr().err == f"error: missing field {missing!r}\n"

    def test_missing_file_is_two(self):
        code, _ = run(["stringy", "eval", "--input", "no-such-file.json"])
        assert code == 2

    @pytest.mark.parametrize("argv", FILE_OPTIONS, ids=lambda argv: "-".join(argv[:2]))
    def test_directory_input_is_two(self, argv, tmp_path, capsys):
        # an IsADirectoryError ended in a traceback and exit 1, the code of a failed verification
        assert run(argv + [str(tmp_path)]) == (2, "")
        message = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(tmp_path)!r}"
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", FILE_OPTIONS, ids=lambda argv: "-".join(argv[:2]))
    def test_deeply_nested_input_is_two(self, argv, tmp_path, capsys):
        # json.load raised a RecursionError: a traceback and exit 1
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert run(argv + [str(path)]) == (2, "")
        assert capsys.readouterr().err == f"error: {path}: JSON nested too deeply to read\n"

    def test_closed_stdout_is_two(self):
        # the report was written outside _run's try: a BrokenPipeError traceback and exit 1, the code of a
        # failed verification; the 1.7 MB report cannot fit in the pipe once its read end is closed
        argv = [sys.executable, "-m", "wildmckay.cli", "mckay", "verify", "--p", "13", "--n", "12", "--format", "json"]
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as process:
            assert process.stdout.read(1) == b"{"
            process.stdout.close()
            _, err = process.communicate(timeout=120)
        assert (process.returncode, err.decode()) == (2, f"error: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n")

    def test_started_with_stdout_closed_is_two(self):
        # sys.stdout is None then: the writer raised AttributeError, a traceback and exit 1
        argv = [sys.executable, "-m", "wildmckay.cli", "mass", "serre", "--n", "2"]
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run(argv, env=env, stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1), timeout=120)
        assert (done.returncode, done.stderr.decode()) == (2, "error: standard output is closed\n")

    def test_smoothness_violation_is_one(self, tmp_path):
        node = tmp_path / "node.json"
        node.write_text(json.dumps({"p": 5, "n": 2, "d": 1, "polys": [[[[1, 1], 1]]]}))
        code, _ = run(["padic", "measure", "--input", str(node), "--mmax", "2"])
        assert code == 1

    def test_partial_sums_past_the_float_range_are_reported(self, capsys):
        code, out = run(["padic", "integral", "--c", "101", "--p", "5", "--format", "json"])
        assert code == 0 and capsys.readouterr().err == ""
        report = json.loads(out)
        assert (report["partial"], report["exact"]) == ("5.28586422064452e+4193", "Infinite")
        code, out = run(["stringy", "point", "--a", "1001/2", "--at-q", "10", "--format", "json"])
        assert code == 0
        assert json.loads(out)["evaluated"]["approx"] == "3.16227766016838e+500"

    def test_decimals_below_the_float_range_are_reported(self, tmp_path):
        # float() underflows without an error: these printed "0", or a subnormal float's wrong
        # digits (9.63428009390431e-322), where mpmath at 50 digits gives the digits below.
        point = tmp_path / "point.json"
        point.write_text(json.dumps({"p": 5, "n": 2, "d": 2, "polys": [[[[1, 0], 1], [[0, 0], -3]],
                                                                      [[[0, 1], 1], [[0, 0], -3]]]}))
        cases = [
            (["stringy", "point", "--a=-1000", "--c=1/2", "--at-q", "5"], "3.46747469133088e-699",
             lambda mp: (mp.sqrt(5) + 1) / mp.mpf(5) ** 1000),
            (["stringy", "point", "--a=-460", "--c=1/2", "--at-q", "5"], "9.63419963596723e-322",
             lambda mp: (mp.sqrt(5) + 1) / mp.mpf(5) ** 460),
            (["padic", "integral", "--c=-500", "--p", "5", "--terms", "3"], "5.23742497263383e-351",
             lambda mp: mp.fsum(mp.mpf(5) ** (-501 * i) for i in (1, 2, 3)) * mp.mpf(4) / 5),
            (["padic", "nullset", "--input", str(point), "--m", "300"], "4.14952e-420", lambda mp: mp.mpf(5) ** -600),
        ]
        for argv, text, _ in cases:
            code, out = run(argv + ["--format", "json"])
            report = json.loads(out)
            assert code == 0 and text in (report.get("evaluated", {}).get("approx"), report.get("partial"),
                                          report.get("fraction_approx")), argv
        assert cli._decimal_text(Fraction(0)) == "0"
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for _, text, value in cases:
                assert mpmath.nstr(value(mpmath), len(text.split("e")[0]) - 1) == text

    def test_primes_past_the_exact_test_are_two(self, capsys):
        code, out = run(["etale", "mass", "--p", "2305843009213693951", "--n", "2", "--format", "json"])
        assert code == 0 and json.loads(out)["match"] is True
        code, out = run(["etale", "mass", "--p", "3317044064679887385961981", "--n", "2"])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert [line for line in err.splitlines() if "error:" in line] == [
            "wildmckay etale mass: error: argument --p: cannot decide whether 3317044064679887385961981 is prime: "
            "the test is exact only below 3317044064679887385961981"
        ]


class TestRefusalMessages:
    def test_large_values_are_echoed_short(self, tmp_path, capsys):
        # These echoed the whole value: 1,677,827, 338,939 and 200,046 bytes of stderr.
        inputs = {
            "object.json": {f"k{i}": i for i in range(100_000)},
            "numbers.json": list(range(50_000)),
            "system.json": {"p": 5, "n": 1, "d": 0, "polys": [[[[1], "x" * 200_000]]]},
        }
        for name, value in inputs.items():
            (tmp_path / name).write_text(json.dumps(value))
        assert (tmp_path / "object.json").stat().st_size > 1_600_000
        for argv, message in (
            (["etale", "crossvalidate", "--fixtures", str(tmp_path / "object.json")],
             "error: fixture file must be a JSON array, got {'k0': 0, 'k1': 1,"),
            (["stringy", "eval", "--input", str(tmp_path / "numbers.json")],
             "error: SNC pair data must be a JSON object, got [0, 1, 2,"),
            (["padic", "count", "--input", str(tmp_path / "system.json"), "--m", "1"],
             "error: coefficient must be an integer, got 'xxx"),
        ):
            assert run(argv) == (2, "")
            err = capsys.readouterr().err
            assert err.startswith(message) and err.endswith("...\n") and len(err) < 300, err[:300]

    def test_integer_option_values_are_echoed_short(self, capsys):
        # argparse echoed the whole value: 100,145 and 100,140 bytes of stderr.
        long = "x" * 100_000
        for argv, message in ((["etale", "mass", "--p", "5", "--n", "1e" + long], "--n: invalid _positive value: '1exx"),
                              (["etale", "mass", "--p", long, "--n", "2"], "--p: invalid _prime value: 'xxx")):
            assert run(argv) == (2, "")
            err = capsys.readouterr().err
            assert f"error: argument {message}" in err and err.endswith("...\n") and len(err) < 300, err[:300]

    def test_short_repr(self):
        limit = numutil.SHORT_REPR_LIMIT
        assert numutil.short_repr([1, 2]) == "[1, 2]"
        assert numutil.short_repr("x" * (limit - 2)) == repr("x" * (limit - 2))
        assert numutil.short_repr("x" * (limit - 1)) == "'" + "x" * (limit - 1) + "..."

    def test_key_error_in_a_handler_propagates(self, monkeypatch):
        # every missing field is a ValueError that names it, so a KeyError is a bug, not bad input
        def lookup(value, q0):
            raise KeyError("x")

        monkeypatch.setattr(cli, "_eval_payload", lookup)
        with pytest.raises(KeyError):
            main(["stringy", "point", "--a", "0", "--at-q", "5"], stdout=io.StringIO())


def decimal_oracle(value: Fraction, digits: int) -> str:
    """digits significant digits of value, rounded half-even by integer division, written with
    Decimal in the style of f"{x:.{digits}g}" for a float x."""
    from decimal import Decimal, localcontext

    if not value:
        return "0"
    a, b = abs(value.numerator), value.denominator
    exponent = len(str(a)) - len(str(b))
    if a < b * 10**exponent if exponent >= 0 else a * 10**-exponent < b:
        exponent -= 1
    shift = digits - 1 - exponent  # mantissa = value * 10^shift, rounded
    num, den = (a * 10**shift, b) if shift >= 0 else (a, b * 10**-shift)
    mantissa, rest = divmod(num, den)
    if 2 * rest > den or (2 * rest == den and mantissa % 2):
        mantissa += 1
    if mantissa == 10**digits:
        mantissa, exponent, shift = mantissa // 10, exponent + 1, shift - 1
    sign = "-" if value < 0 else ""
    with localcontext() as context:
        context.prec = digits + 10
        if -4 <= exponent < digits:
            text = format(Decimal(mantissa).scaleb(-shift), "f")
            return sign + (text.rstrip("0").rstrip(".") if "." in text else text)
        text = format(Decimal(mantissa).scaleb(1 - digits), "f").rstrip("0").rstrip(".")
        return f"{sign}{text}e{'-' if exponent < 0 else '+'}{abs(exponent):02d}"


class TestDecimalText:
    def test_matches_the_integer_oracle(self):
        # Rounded through a float, 1.6% of random rationals printed a wrong last digit.
        import random

        rng = random.Random(20)
        values = [Fraction(242, 729), Fraction(-10**6 + 5, 10**13), Fraction(999999500001, 10**6), Fraction(1, 3 * 10**500),
                  Fraction(7**2000, 3**1000), -Fraction(10**330 + 1, 3), Fraction(5, 10**5), Fraction(1, 10**5)]
        for _ in range(10000):
            size = rng.choice((3, 17, 40, 700))
            values.append(Fraction(rng.randint(-10**size, 10**size), rng.randint(1, 10 ** rng.choice((1, 17, 40, 700)))))
        for digits in (15, 6):
            # exact ties: digits kept digits, then a 5 and nothing after it
            values += [(rng.randint(10**(digits - 1), 10**digits - 1) * 10 + 5) * Fraction(10) ** rng.randint(-400, 30)
                       for _ in range(500)]
        for value in values:
            for digits in (15, 6):
                assert cli._decimal_text(value, digits) == decimal_oracle(value, digits), (value, digits)
                if sys.version_info >= (3, 12):  # Fraction.__format__, the standard library's own rounding
                    assert cli._decimal_text(value, digits) == format(value, f".{digits}g"), (value, digits)
        # a float prints the exact value of its binary fraction in the same style
        for x in (1e-5, 0.0001, 123456789012345.0, 1234567890123456.0, 2.5e-300, -1.7976931348623157e308):
            assert cli._decimal_text(Fraction(x)) == decimal_oracle(Fraction(x), 15) == f"{x:.15g}"

    def test_reported_repros(self):
        assert cli._decimal_text(Fraction(242, 729)) == "0.33196159122085"
        code, out = run(["padic", "integral", "--c=-5", "--p", "11", "--terms", "2", "--format", "json"])
        assert code == 0 and json.loads(out)["partial"] == "5.13158407895086e-07"


class TestCollectorPause:
    """main pauses the cyclic collector for one command and restores its state on every path."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_restored(self, enabled, tmp_path, monkeypatch, capsys):
        node = tmp_path / "node.json"
        node.write_text(json.dumps({"p": 5, "n": 2, "d": 1, "polys": [[[[1, 1], 1]]]}))
        seen = []
        original = massformulas.serre_mass

        def serre_mass(n, f):
            seen.append(gc.isenabled())
            if n == 3:
                raise RuntimeError("escapes main")
            return original(n, f)

        monkeypatch.setattr(massformulas, "serre_mass", serre_mass)
        cases = [
            (["mckay", "verify", "--p", "7", "--n", "4", "--format", "json"], 0),
            (["padic", "measure", "--input", str(node), "--mmax", "2"], 1),
            (["mckay", "verify", "--p", "3", "--n", "4"], 2),
            (["mckay", "verify", "--p", "7"], 2),  # argparse error
            (["mckay", "verify", "--help"], 0),  # argparse exit
            (["mass", "serre", "--n", "2"], 0),
        ]
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            for argv, expected in cases:
                assert run(argv)[0] == expected, argv
                assert gc.isenabled() is enabled, argv
            with pytest.raises(RuntimeError):
                run(["mass", "serre", "--n", "3"])
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False, False]
        capsys.readouterr()


class TestBudgets:
    """Each capped command exits 2 with one line past its cap, before any work."""

    @staticmethod
    def refused(argv, capsys, message):
        assert run(argv) + (capsys.readouterr().err,) == (2, "", f"error: {message}\n")

    def test_mass_nmax_cap(self, monkeypatch, capsys):
        cap = massformulas.NMAX_BUDGET
        assert run(["mass", "expcheck", "--nmax", str(cap)])[0] == 0
        monkeypatch.setattr(massformulas.TruncatedSeries, "exp", None)  # any work would fail
        monkeypatch.setattr(massformulas, "partition_row", None)
        monkeypatch.setattr(massformulas, "partition_rows", None)
        for command in ("expcheck", "invert"):
            self.refused(["mass", command, "--nmax", str(cap + 1)], capsys,
                         f"series budget exceeded: need {cap + 1} degrees, budget {cap}")

    def test_etale_degree_caps(self, monkeypatch, capsys):
        count_cap, mass_cap = localfields.COUNT_DEGREE_BUDGET, localfields.MASS_DEGREE_BUDGET
        assert run(["etale", "mass", "--p", "211", "--n", "20"])[0] == 0
        monkeypatch.setattr(localfields, "enumerate_tame_field_classes", None)
        monkeypatch.setattr(localfields, "_stratum_weight", None)
        self.refused(["etale", "mass", "--p", "1009", "--n", str(mass_cap + 1)], capsys,
                     f"mass budget exceeded: need {mass_cap + 1} degrees, budget {mass_cap}")
        for argv in (["etale", "enumerate", "--p", "1009"], ["mckay", "verify", "--p", "1009"]):
            self.refused(argv + ["--n", str(count_cap + 1)], capsys,
                         f"count budget exceeded: need {count_cap + 1} degrees, budget {count_cap}")

    def test_bhargava_degree_cap(self, monkeypatch, capsys):
        cap = massformulas.BHARGAVA_DEGREE_BUDGET
        code, out = run(["mass", "bhargava", "--n", "500", "--format", "json"])  # a RecursionError once
        assert code == 0 and json.loads(out)["mass"]["terms"][0] == [-499, 1, 1, 1]
        monkeypatch.setattr(massformulas, "partition_row", None)
        for n in (cap + 1, 10**9):
            start = time.perf_counter()
            self.refused(["mass", "bhargava", "--n", str(n)], capsys,
                         f"partition budget exceeded: need {n} degrees, budget {cap}")
            assert time.perf_counter() - start < 1

    def test_fraction_dense_degree_cap(self, monkeypatch, capsys):
        # r * (exponent span) t-degrees of the rows a q-fraction is folded and reduced on: the factor
        # q^a is an exponent, not a row, so q^a (q - 1) / (q^(1/2) - 1) is 2 t-degrees at any a, where
        # (q - 1) / (q^(1 - c) - 1) is 3 * (10^8 + 3) / 3 at c = -10^8 / 3 and 2 * (1 + 49999/2) at
        # c = -49999/2; an evaluation at q0 takes r residue classes, 50,001 for q^(1/50001) (at
        # q0 = 1, where no power of q0 is counted).
        cap = qexpr.DENSE_DEGREE_BUDGET
        top = cap // 2 - 1
        for a in (top, top + 1, 10**9):  # the last two were refused at 50,002 and 2,000,000,002 t-degrees
            start = time.perf_counter()
            code, out = run(["stringy", "point", f"--a={a}", "--c=1/2", "--format", "json"])
            assert code == 0 and json.loads(out)["value"]["pretty"] == f"q^({2 * a + 1}/2) + q^{a}"
            assert time.perf_counter() - start < 1
        monkeypatch.setattr(stringy, "_cyclotomic_qfrac", None)  # refused before any reduction
        for argv, size in ((["--c=-100000000/3"], 100_000_003), (["--c=-49999/2"], cap + 1),
                           (["--a=1/50001", "--at-q=1"], 50_001)):
            start = time.perf_counter()
            self.refused(["stringy", "point", *argv], capsys,
                         f"fraction budget exceeded: need {size} t-degrees, budget {cap}")
            assert time.perf_counter() - start < 1

    def test_vertical_shift_is_not_dense_work(self, tmp_path):
        # One vertical component at a = 10^9 over one divisor c = 1/2: the shift t^(2 a) is an
        # exponent of the built value, not a row of zeros in front of it.
        path = tmp_path / "snc.json"
        path.write_text(json.dumps({"horizontal": ["1/2"], "vertical": [
            {"a": 10**9, "strata": [{"subset": [1], "count": 1}]}]}))
        start = time.perf_counter()
        code, out = run(["stringy", "eval", "--input", str(path), "--format", "json"])
        assert code == 0 and json.loads(out)["value"]["pretty"] == "q^(2000000001/2) + q^1000000000"
        assert time.perf_counter() - start < 1

    def test_integral_shell_bits_cap(self, monkeypatch, capsys):
        # c = 1/2 at p = 999983: shell i costs 20 i bits, so T terms cost 10 T (T + 1) shell bits.
        cap = padic.INTEGRAL_BUDGET
        terms = max(t for t in range(1, 10**4) if 10 * t * (t + 1) <= cap)
        argv = ["padic", "integral", "--c", "1/2", "--p", "999983", "--terms"]
        assert run(argv + [str(terms)])[0] == 0
        monkeypatch.setattr(qexpr, "QExpr", None)  # any work would fail
        self.refused(argv + [str(terms + 1)], capsys,
                     f"integral budget exceeded: need {10 * (terms + 1) * (terms + 2)} shell bits, budget {cap}")

    def test_integral_largest_shell_cap(self, capsys):
        # Under INTEGRAL_BUDGET, but one exact power of 5^16666666 or 5^5000000 took 15.5 s or 4.8 s.
        cap = padic.LARGEST_SHELL_BUDGET
        for c, terms, largest in (("16666667", 1, 49_999_998), ("1000001", 5, 15_000_000)):
            start = time.perf_counter()
            self.refused(["padic", "integral", "--c", c, "--p", "5", "--terms", str(terms)], capsys,
                         f"integral budget exceeded: need {largest} bits in the largest shell, budget {cap}")
            assert time.perf_counter() - start < 1
        top = cap // 3 + 1  # one term at p = 5 costs 3 (c - 1) bits
        argv = ["padic", "integral", "--p", "5", "--terms", "1", "--c"]
        assert run(argv + [str(top)])[0] == 0
        self.refused(argv + [str(top + 1)], capsys,
                     f"integral budget exceeded: need {3 * top} bits in the largest shell, budget {cap}")

    def test_integral_root_degree_cap(self, capsys):
        # The shells of c = 1 + 1/r lie in r residue classes of one root p^(1/r), bounded as a dense
        # form's t-degrees are; with one root per shell, r = 10^12 ran past 100 s over 10 terms.
        cap = qexpr.DENSE_DEGREE_BUDGET
        argv = ["padic", "integral", "--p", "5", "--terms", "10"]
        assert run(argv + [f"--c={cap + 1}/{cap}"])[0] == 0
        for r in (cap + 1, 10**12):
            start = time.perf_counter()
            self.refused(argv + [f"--c={r + 1}/{r}"], capsys, f"fraction budget exceeded: need {r} t-degrees, budget {cap}")
            assert time.perf_counter() - start < 1

    def test_integral_exact_digits_cap(self, capsys):
        # An integer c < 1 has the value 1 / (p + p^2 + ... + p^(1-c)) at q = p, printed in full.
        # Past the cap the power p^(1-c) is counted before it is formed.
        cap = padic.EXACT_DIGITS_BUDGET
        for c, p in (("-6000", "5"), ("-4000", "11")):
            code, out = run(["padic", "integral", "--c", c, "--p", p, "--terms", "1", "--format", "json"])
            assert code == 0 and json.loads(out)["exact_at_p"]["exact"].startswith("1/")
        for c, digits in (("-20000", 13981), ("-6200", 4335)):
            start = time.perf_counter()
            self.refused(["padic", "integral", "--c", c, "--p", "5", "--terms", "1"], capsys,
                         f"evaluation budget exceeded: need {digits} digits in a power of q, budget {cap}")
            assert time.perf_counter() - start < 1
        # The lowest c whose value at p = 5 has at most cap digits, and the next one.
        top = min(c for c in range(-6200, -6000) if (5 ** (2 - c) - 5) // 4 < 10**cap)
        argv = ["padic", "integral", "--p", "5", "--terms", "1", "--c"]
        assert run(argv + [str(top)])[0] == 0
        self.refused(argv + [str(top - 1)], capsys,
                     f"evaluation budget exceeded: need {cap + 1} digits in a power of q, budget {cap}")

    def test_exact_value_digits_cap(self, monkeypatch, capsys):
        # One cap for every printed exact value, checked before any power or mass work.
        cap = numutil.EXACT_DIGITS_BUDGET
        assert padic.EXACT_DIGITS_BUDGET is cap
        code, out = run(["stringy", "point", "--a", "5000", "--at-q", "5", "--format", "json"])
        assert code == 0 and json.loads(out)["evaluated"] == {"exact": str(5**5000), "q": "5"}  # 3,495 digits
        # 5^6151 has 4,300 digits and prints; 5^6152 has 4,301.
        assert run(["stringy", "point", "--a", "6151", "--at-q", "1/5"])[0] == 0
        # Past the cap the largest power is counted before it is formed: a * log10(max(a, b)) digits
        # for q^a at q0 = a/b, and n - 1 digits of p for the denominator of the degree-n mass at p.
        monkeypatch.setattr(qexpr.QFrac, "evaluate", None)
        monkeypatch.setattr(localfields, "_tame_classes_by_degree", None)
        monkeypatch.setattr(localfields, "_stratum_weight", None)
        for argv, message in (
            (["stringy", "point", "--a", "10000000", "--at-q", "5"], "evaluation budget exceeded: need 6989701"),
            (["stringy", "point", "--a", "40000", "--c", "0", "--at-q", "5"], "evaluation budget exceeded: need 27959"),
            (["stringy", "point", "--a", "6152", "--at-q", "1/5"], "evaluation budget exceeded: need 4301"),
            (["etale", "mass", "--p", "2999999999999999999999957", "--n", "200"], "mass budget exceeded: need 4871"),
        ):
            unit = "the mass at p" if argv[0] == "etale" else "a power of q"
            start = time.perf_counter()
            self.refused(argv, capsys, f"{message} digits in {unit}, budget {cap}")
            assert time.perf_counter() - start < 1

    def test_approximate_power_digits_cap(self, monkeypatch, capsys):
        # An exponent i r + j over t = q^(1/r) (0 <= j < r) is evaluated from the exact power q0^i
        # and r powers of one root q0^(1/r); both are counted, before any power, as the digits of
        # q0^max(r, |i|) at q0 = a/b, max(r, |i|) log10 max(a, b): q^(12303/2) needs 5^6151, 4,300
        # digits, and is taken, q^(12307/2) needs 5^6153, 4,301.  Many residue classes cost one
        # root: q^(1/997) - 1 has 997 of them, 5^997 has 697 digits, (10^1000)^997 997,001.
        cap = numutil.EXACT_DIGITS_BUDGET
        for argv, key, approx in (
            (["stringy", "point", "--a", "12303/2", "--at-q", "5"], "evaluated", "5.17584989697289e+4299"),
            (["stringy", "point", "--a", "6150/7", "--c=1/2", "--at-q", "5"], "evaluated", "4.02803164676897e+614"),
            (["stringy", "point", "--a", "0", "--c=1/997", "--at-q", "5"], "evaluated", "1.00202029649897"),
            (["padic", "integral", "--c=-2001/2", "--p", "5", "--terms", "1"], "exact_at_p", None),
        ):
            start = time.perf_counter()
            code, out = run(argv + ["--format", "json"])
            assert time.perf_counter() - start < 1, argv
            assert code == 0 and approx in (None, json.loads(out)[key]["approx"]), argv
        evaluate = qexpr.QFrac.evaluate

        def laurent_only(frac, q0):
            assert len(frac.den.terms) == 1, f"{frac} was evaluated"
            return evaluate(frac, q0)

        monkeypatch.setattr(cli, "_expr_payload", None)  # rendering the value would fail
        for argv, digits in (
            (["stringy", "point", "--a", "12307/2", "--at-q", "5"], 4301),
            (["stringy", "point", "--a", "1000001/2", "--at-q", "5"], 349486),
            (["stringy", "point", "--a", "10000001/2", "--at-q", "5"], 3494851),
            (["stringy", "point", "--a", f"{10**400}/3", "--at-q", "5"], 698970004336019),  # counted up to 10^15
            (["padic", "integral", "--c=-20001/2", "--p", "5", "--terms", "1"], 6992),
            (["stringy", "point", "--a", "0", "--c=1/997", "--at-q", str(10**1000)], 997001),
        ):
            # as would any evaluation, but that of padic integral's partial sum, a Laurent value, first
            monkeypatch.setattr(qexpr.QFrac, "evaluate", laurent_only if argv[0] == "padic" else None)
            start = time.perf_counter()
            self.refused(argv, capsys,
                         f"evaluation budget exceeded: need {digits} digits in a power of q, budget {cap}")
            assert time.perf_counter() - start < 1

    def test_rational_option_digits_cap(self, capsys):
        # Every rational option is printed in the report, so it is counted as it is parsed: before,
        # a 5,001-digit --a or --c ended in Python's own int-to-str message.
        cap = numutil.EXACT_DIGITS_BUDGET
        message = f"input budget exceeded: need 5001 digits in a rational option, budget {cap}"
        for argv in (["stringy", "point", "--a", "1e5000"], ["padic", "integral", "--c", "1e5000", "--p", "5"],
                     ["stringy", "point", "--c", "1/2,1e-5000"], ["stringy", "point", "--at-q", "1e5000"]):
            self.refused(argv, capsys, message)
        code, out = run(["stringy", "point", "--a", "1e4299", "--format", "json"])  # 4,300 digits
        assert code == 0 and json.loads(out)["a"] == "1" + "0" * 4299
        # counted from one power of 10, where a power per digit past a coarse estimate took 7 s
        start = time.perf_counter()
        self.refused(["stringy", "point", "--a", "1e1000000"], capsys,
                     f"input budget exceeded: need 1000001 digits in a rational option, budget {cap}")
        assert time.perf_counter() - start < 3

    def test_digit_strings_counted_before_int_reads_them(self, tmp_path, capsys):
        # A digit string past Python's own int-to-str limit (4,300 digits) ended in its message,
        # and 5,000 leading zeros before a 1 did too, although the value is 1.
        cap = numutil.EXACT_DIGITS_BUDGET
        snc = tmp_path / "snc.json"
        snc.write_text(json.dumps({"horizontal": ["1" + "0" * 4300], "vertical": []}))
        for argv, digits in ((["stringy", "point", "--a", "1" + "0" * 4300], "4301 digits in a rational option"),
                             (["stringy", "point", "--a", "1/" + "7" * 4301], "4301 digits in a rational option"),
                             (["stringy", "point", "--c", "1" + "3" * 4400 + ".5"], "4402 digits in a rational option"),
                             (["stringy", "eval", "--input", str(snc)], "4301 digits in a rational")):
            self.refused(argv, capsys, f"input budget exceeded: need {digits}, budget {cap}")
        for text, value in (("0" * 5000 + "1", "1"), ("-" + "0" * 5000 + "2/0" + "0" * 5000 + "4", "-1/2"),
                            ("0" * 5000 + ".5e" + "0" * 5000 + "1", "5")):
            code, out = run(["stringy", "point", f"--a={text}", "--format", "json"])
            assert code == 0 and json.loads(out)["a"] == value

    def test_integer_options_counted_before_int_reads_them(self, capsys):
        # --p, --n, --nmax, --m, --mmax, --f and --terms were read by int() itself: a 5,001-digit
        # --n ended in "argument --n: invalid _positive value:" and echoed every digit.
        cap = numutil.EXACT_DIGITS_BUDGET
        big = "1" + "0" * 5000
        for argv in (["etale", "mass", "--p", "5", "--n", big], ["etale", "mass", "--p", big, "--n", "2"],
                     ["mass", "invert", "--nmax", big], ["padic", "integral", "--c", "1/2", "--p", "5", "--terms", big]):
            self.refused(argv, capsys, f"input budget exceeded: need 5001 digits in an integer option, budget {cap}")
        # Leading zeros are not counted, as in a rational option; int()'s grammar decides the rest.
        for text, value in ((" 7 ", 7), ("+7", 7), ("0_7", 7), ("0" * 5000 + "7", 7), ("\u0663", 3), ("-0", 0)):
            assert numutil.parse_integer(text, "an integer option") == value
        for text in ("x", "1.5", "1.", ".5", "1e3", "2/1", "_1", "+-1", "1__0", "0x10", "", " "):
            with pytest.raises(ValueError):
                numutil.parse_integer(text, "an integer option")
        assert run(["etale", "mass", "--p", "7", "--n", "1.0"]) == (2, "")
        assert capsys.readouterr().err.endswith("error: argument --n: invalid _positive value: '1.0'\n")

    @pytest.mark.parametrize("limit", [0, 4300, 100_000])
    def test_integer_digits_cap_is_not_int_limit(self, limit, tmp_path, capsys):
        # Under int()'s limit 0 (no limit) a reader that left the count to int() read all 5,001 digits.
        # Every digit string is counted against EXACT_DIGITS_BUDGET, whatever that limit: 5,000
        # Arabic-Indic zeros (which are no ASCII "0" and so are counted) and a 7 as a rational option,
        # a JSON integer, and a rational handed to the library were read under 0 and 100,000, and the
        # last ended in int()'s own ValueError under 4,300.
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python has no int-to-str digit limit")
        cap = numutil.EXACT_DIGITS_BUDGET
        path = tmp_path / "integer.json"
        path.write_text('{"a": 1%s}' % ("0" * 5000))
        previous = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(limit)
            for text in ("1" + "0" * 5000, "-" + "0" * 100 + "9" * 4301, "1_" * 4300 + "1"):
                with pytest.raises(numutil.BudgetExceededError, match="need (5001|4301) digits in an integer option"):
                    numutil.parse_integer(text, "an integer option")
            assert numutil.parse_integer("9" * 4300, "an integer option") == 10**4300 - 1
            assert numutil.parse_integer("0" * 5000 + "7", "an integer option") == 7
            self.refused(["stringy", "point", "--a", "\u0660" * 5000 + "7"], capsys,
                         f"input budget exceeded: need 5001 digits in a rational option, budget {cap}")
            with pytest.raises(numutil.BudgetExceededError, match=f"need 5001 digits in a JSON integer, budget {cap}$"):
                numutil.read_json(path)
            with pytest.raises(numutil.BudgetExceededError, match=f"need 5000 digits in a rational, budget {cap}$"):
                stringy.stringy_point_contribution("1" * 5000, [])
        finally:
            sys.set_int_max_str_digits(previous)

    def test_integer_reads_what_int_reads(self):
        # The reader that went through parse_rational (three Fractions per option) is the second oracle.
        import random

        def through_rational(text):
            return int(text if re.search("[/.eE]", text) else numutil.parse_rational(text, "an integer option"))

        rng = random.Random(34)
        alphabet = ["0", "0", "1", "7", "_", "_", "+", "-", " ", "\t", "\n", "　", "\xa0", "٣", "٠",
                    "５", "\U0001d7d8", "x", ".", "e", "/"]
        for _ in range(20000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 9)))
            expected = []
            for oracle in (int, through_rational):
                try:
                    expected.append(oracle(text))
                except ValueError:
                    expected.append(None)
            if None in expected:
                with pytest.raises(ValueError):
                    numutil.parse_integer(text, "an integer option")
            else:
                assert numutil.parse_integer(text, "an integer option") == expected[0] == expected[1], repr(text)
        # "\x1c" to "\x1f" are whitespace to str.isspace() and to re, not to int(): read as before
        assert numutil.parse_integer("\x1c7\x1f", "an integer option") == through_rational("\x1c7\x1f") == 7

    def test_json_integers_counted_before_int_reads_them(self, tmp_path, monkeypatch, capsys):
        # A 5,001-digit JSON integer ended in Python's own int-to-str message, worded by release.
        cap, big = numutil.EXACT_DIGITS_BUDGET, "9" * 5001
        texts = {"stratum.json": '{"vertical": [{"a": %s, "strata": [{"subset": [], "count": 1}]}]}',
                 "poly.json": '{"p": 5, "n": 2, "d": 1, "polys": [[[[2, 0], %s], [[0, 0], -1]]]}',
                 "fixture.json": '[{"p": 5, "n": 2, "e": 2, "f": 1, "c": %s, "aut": 2, "label": "x"}]'}
        for command, (name, text) in zip(FILE_OPTIONS, texts.items()):
            (tmp_path / name).write_text(text % big)
            self.refused(command + [str(tmp_path / name)], capsys,
                         f"input budget exceeded: need 5001 digits in a JSON integer, budget {cap}")
        # a file that parses is read once, with no hook on its integers
        monkeypatch.setattr(numutil, "_int", None)
        assert numutil.read_json(DATA / "sample_fixtures.json")[0]["label"] == "2.2.0.1"

    def test_printed_exponents_counted_before_str_prints_them(self, capsys):
        # 2 (1 - n) for a 4,300-digit n and 3 a for a 4,300-digit a have 4,301 digits, which str()
        # could not print: each ended in Python's own int-to-str message.
        cap, nines = numutil.EXACT_DIGITS_BUDGET, "9" * 4300
        for argv in (["mass", "serre", "--n", nines, "--f", "2"], ["stringy", "point", "--a", nines, "--c=1/3"]):
            self.refused(argv, capsys,
                         f"output budget exceeded: need 4301 digits in a printed exponent or coefficient, budget {cap}")
        code, out = run(["mass", "serre", "--n", nines, "--format", "json"])  # 1 - n has 4,300 digits
        assert code == 0 and json.loads(out)["mass"]["terms"] == [[1 - int(nines), 1, 1, 1]]

    def test_trailing_fraction_zeros_are_not_counted(self, capsys):
        # 1.000...0 is 1, but the fraction's trailing zeros were counted: 5,000 of them were refused.
        for text, value in (("1." + "0" * 5000, "1"), ("2.5" + "0" * 5000 + "e-1", "1/4"), ("-0.5_0" + "_0" * 3000, "-1/2"),
                            ("1" + "0" * 4299 + "." + "0" * 5000, "1" + "0" * 4299)):
            code, out = run(["stringy", "point", f"--a={text}", "--format", "json"])
            assert code == 0 and json.loads(out)["a"] == value
        # a/b is counted before it is reduced, so 10^4300 / 10^4300 stays refused although it is 1
        big = "1" + "0" * 4300
        self.refused(["stringy", "point", "--a", f"{big}/{big}"], capsys,
                     f"input budget exceeded: need 4301 digits in a rational option, budget {numutil.EXACT_DIGITS_BUDGET}")

    def test_exponent_notation_counted_before_it_is_built(self, tmp_path, capsys):
        # 10^30000000 took past 60 s to build before it was counted, and a JSON rational was not
        # counted at all: 10^-3000000 ended in Python's int-to-str message after 1.8 s.
        cap = numutil.EXACT_DIGITS_BUDGET
        snc = tmp_path / "snc.json"
        snc.write_text(json.dumps({"horizontal": ["1e-3000000"], "vertical": []}))
        for argv, digits in ((["stringy", "point", "--a", "1e30000000"], "30000001 digits in a rational option"),
                             (["stringy", "point", "--c", "2.5e-30000000"], "30000000 digits in a rational option"),
                             (["stringy", "eval", "--input", str(snc)], "3000001 digits in a rational")):
            start = time.perf_counter()
            self.refused(argv, capsys, f"input budget exceeded: need {digits}, budget {cap}")
            assert time.perf_counter() - start < 1
        start = time.perf_counter()
        code, out = run(["stringy", "point", "--a", "0e99999999", "--format", "json"])
        assert code == 0 and json.loads(out)["a"] == "0" and time.perf_counter() - start < 1

    def test_degree_of_an_input_file_capped_before_any_work(self, tmp_path, capsys):
        # A fixture of degree 10^8 and the polynomial x^(10^8) - 1 each ran past 60 s.
        fixtures = tmp_path / "fixtures.json"
        fixtures.write_text(json.dumps([{"p": 5, "n": 10**8, "e": 1, "f": 10**8, "c": 0, "aut": 10**8, "label": "x"}]))
        system = tmp_path / "system.json"
        system.write_text(json.dumps({"p": 5, "n": 1, "d": 0, "polys": [[[[10**8], 1], [[0], -1]]]}))
        for argv, message in (
            (["etale", "crossvalidate", "--fixtures", str(fixtures)],
             f"count budget exceeded: need {10**8} degrees, budget {localfields.COUNT_DEGREE_BUDGET}"),
            (["padic", "count", "--input", str(system), "--m", "1"],
             f"lifting budget exceeded: need 69897001 digits in p^({10**8}m), budget {numutil.EXACT_DIGITS_BUDGET}"),
        ):
            start = time.perf_counter()
            self.refused(argv, capsys, message)
            assert time.perf_counter() - start < 1

    def test_exact_value_powers_counted_before_evaluation(self, tmp_path, monkeypatch, capsys):
        # The largest power is counted even where a part might vanish at q0: q^10000 (q - 5) is 0
        # at q = 5.  q^10000001 + 5 q^10000000 at q = 5, and 1 / (1 + q + ... + q^49998) at
        # q = 10^100, ran 14 s each before they were refused by the digits of the value.
        cap = numutil.EXACT_DIGITS_BUDGET
        monkeypatch.setattr(qexpr.QFrac, "evaluate", None)  # any evaluation would fail
        start = time.perf_counter()
        with pytest.raises(numutil.BudgetExceededError, match="need 6991 digits in a power of q"):  # 5^10001
            cli._eval_payload(QFrac(QExpr({10001: 1, 10000: -5})), Fraction(5))
        assert time.perf_counter() - start < 1
        path = tmp_path / "root.json"
        path.write_text(json.dumps({"vertical": [{"a": 10000001, "strata": [{"subset": [], "count": 1}]},
                                                 {"a": 10000000, "strata": [{"subset": [], "count": 5}]}]}))
        for argv, digits in ((["stringy", "point", "--a", "0", "--c=-49998", "--at-q", "1e100"], 4999801),
                             (["stringy", "eval", "--input", str(path), "--at-q", "5"], 6989701)):
            start = time.perf_counter()
            self.refused(argv, capsys, f"evaluation budget exceeded: need {digits} digits in a power of q, budget {cap}")
            assert time.perf_counter() - start < 1

    def test_exact_value_of_many_terms_in_one_pass(self, capsys):
        # (q - 1) / (q^(1 - c) - 1) = 1 / (1 + q + ... + q^(-c)) is one integer Horner pass over
        # the 1 - c terms at q = 5; its largest power 5^(-c) is counted before the pass.
        cap = numutil.EXACT_DIGITS_BUDGET
        for c, digits, seconds in (("-20000", 13980, 1), ("-49997", 34947, 2)):
            start = time.perf_counter()
            self.refused(["stringy", "point", "--a", "0", f"--c={c}", "--at-q", "5"], capsys,
                         f"evaluation budget exceeded: need {digits} digits in a power of q, budget {cap}")
            assert time.perf_counter() - start < seconds

    @pytest.mark.parametrize("poly, command, m, digits", [
        ("x-3", "nullset", 10000, 6990),
        ("x-3", "count", 30000, 20970),
        ("x-3", "measure", 30000, 20970),
        ("x2-2", "count", 20000, 27959),  # no root mod 5: the frontier is empty from level 1
    ])
    def test_padic_depth_cap(self, poly, command, m, digits, monkeypatch, tmp_path, capsys):
        # p^(m deg) may have at most EXACT_DIGITS_BUDGET digits, counted as m deg log10 p before
        # any lifting: a degree-deg polynomial's values at points mod p^m are about that large.
        terms = {"x-3": [[[1], 1], [[0], -3]], "x2-2": [[[2], 1], [[0], -2]]}[poly]
        power = {"x-3": "p^m", "x2-2": "p^(2m)"}[poly]
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"p": 5, "n": 1, "d": 0, "polys": [terms]}))
        monkeypatch.setattr(padic, "_compiled", None)  # any lifting work would fail
        flag = "--mmax" if command == "measure" else "--m"
        start = time.perf_counter()
        self.refused(["padic", command, "--input", str(path), flag, str(m)], capsys,
                     f"lifting budget exceeded: need {digits} digits in {power}, budget {numutil.EXACT_DIGITS_BUDGET}")
        assert time.perf_counter() - start < 1

    def test_padic_printed_fraction_digits(self, tmp_path, capsys):
        # 5^6151 has 4,300 digits and 5^6152 4,301.  The point (3, 3), declared of dimension 2,
        # counts 1 at every level, so its normalized count and its box fraction are 1/5^(2m).
        cap = numutil.EXACT_DIGITS_BUDGET
        path = tmp_path / "point.json"
        path.write_text(json.dumps({"p": 5, "n": 2, "d": 2, "polys": [[[[1, 0], 1], [[0, 0], -3]],
                                                                      [[[0, 1], 1], [[0, 0], -3]]]}))
        code, out = run(["padic", "count", "--input", str(path), "--m", "3075", "--format", "json"])
        assert code == 0 and json.loads(out)["normalized"] == f"1/{5**6150}"
        for command, unit in (("count", "normalized count"), ("nullset", "box fraction")):
            self.refused(["padic", command, "--input", str(path), "--m", "3076"], capsys,
                         f"lifting budget exceeded: need 4301 digits in the {unit}, budget {cap}")
        self.refused(["padic", "count", "--input", str(path), "--m", "6152"], capsys,
                     f"lifting budget exceeded: need 4301 digits in p^m, budget {cap}")
        assert run(["padic", "count", "--input", str(path), "--m", "6151"])[0] == 2  # p^m fits, 1/p^(2m) does not

    @pytest.mark.parametrize("argv", [["stringy", "point", "--a", "0", "--c=-49997"],
                                      ["stringy", "eval", "--input", str(DATA / "sample_snc_pair.json")]])
    def test_evaluation_refused_before_the_value_renders(self, argv, monkeypatch, capsys):
        def refuse(value, q0):
            raise numutil.BudgetExceededError(1, 0, "evaluation")

        monkeypatch.setattr(cli, "_eval_payload", refuse)
        monkeypatch.setattr(cli, "_expr_payload", None)  # rendering the value would fail
        self.refused(argv + ["--at-q", "5"], capsys, "evaluation budget exceeded: need 1 points evaluated, budget 0")

    def test_exact_value_digits_counted_after_evaluation(self, tmp_path, capsys):
        # (q - 1) / (q^7001 - 1) = 1 / (1 + q + ... + q^7000) is refused by its power 5^7000,
        # 4,893 digits, before it is evaluated.  10^4299 q^10 forms only 5^10, and its value 10^4299 5^10 at q = 5 has 4,306
        # digits, found once it is computed.
        cap = numutil.EXACT_DIGITS_BUDGET
        self.refused(["stringy", "point", "--a", "0", "--c=-7000", "--at-q", "5"], capsys,
                     f"evaluation budget exceeded: need 4893 digits in a power of q, budget {cap}")
        path = tmp_path / "count.json"
        path.write_text(json.dumps({"vertical": [{"a": 10, "strata": [{"subset": [], "count": 10**4299}]}]}))
        self.refused(["stringy", "eval", "--input", str(path), "--at-q", "5"], capsys,
                     f"evaluation budget exceeded: need 4306 digits in the exact value at q, budget {cap}")


# Every --help screen, and usage errors: no group, an unknown group or action, a group without its
# action, an option before the group (which argparse reads as the group, or skips to parse the
# group after it), a missing required flag and a bad --p.
SCREENS = [["--help"], *([group, "--help"] for group in cli._GROUP_HELP),
           *([group, action, "--help"] for group, action, *_ in cli._COMMANDS if action)]
USAGE_ERRORS = [[], ["frobnicate"], ["mass", "frobnicate"], ["mass"], ["--format", "json", "mass", "serre", "--n", "2"],
                ["--format=json", "mass", "serre", "--n", "2"], ["padic", "count", "--m", "2"],
                ["etale", "enumerate", "--p", "4", "--n", "3"]]
# One valid argv per command (files are not read while parsing).
COMMAND_LINES = [["mass", "serre", "--n", "4", "--f", "2"], ["mass", "bhargava", "--n", "4", "--format", "csv"],
                 ["mass", "expcheck", "--nmax", "6"], ["mass", "invert", "--nmax", "6", "--format", "json"],
                 ["etale", "enumerate", "--p", "5", "--n", "2"], ["etale", "mass", "--format", "csv", "--p", "7", "--n", "3"],
                 ["etale", "crossvalidate", "--fixtures", "fixtures.json"], ["mckay", "verify", "--n", "5", "--p", "7"],
                 ["stringy", "eval", "--input", "snc.json", "--at-q", "9"], ["stringy", "point", "--c", "1/2,-1/3"],
                 ["padic", "count", "--input", "system.json", "--m", "2"],
                 ["padic", "measure", "--input", "system.json", "--mmax", "4", "--format", "json"],
                 ["padic", "integral", "--c", "2/3", "--p", "5"], ["padic", "nullset", "--input", "system.json", "--m", "3"],
                 ["selftest", "--format", "json"]]
# The words argparse reads in more than one way: --opt=value, abbreviations, a repeated option, "--"
# before and after the options, -h after options, an extra positional, an unknown option, an
# argument to a command without options, and integers int() reads with spaces, a sign, an
# underscore and a Unicode digit.
ODD_WORDS = [["padic", "measure", "--input=system.json", "--mmax=4"], ["padic", "measure", "--inp", "system.json", "--mm", "2"],
             ["mass", "serre", "--n", "2", "--fo", "json"], ["mass", "serre", "--n", "2", "--n", "3"],
             ["mass", "serre", "--", "--n", "2"], ["mass", "serre", "--n", "2", "--"], ["mass", "serre", "--n", "2", "-h"],
             ["mass", "serre", "--n", "2", "extra"], ["mckay", "verify", "--p", "7", "--n", "5", "--bogus"],
             ["selftest", "x"], ["selftest", "--format", "json", "--", "x"],
             *(["etale", "mass", "--p", "7", "--n", text] for text in (" 7 ", "+3", "0_3", "\u0663", "1.5", "0"))]


def parsed(argv, capsys):
    """cli._parse(argv): the namespace, or the exit code of argparse's exit, and what it printed."""
    try:
        result = vars(cli._parse(list(argv)))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


class TestParser:
    @pytest.mark.parametrize("argv", SCREENS + USAGE_ERRORS + COMMAND_LINES + ODD_WORDS,
                             ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_lazy_parser_prints_what_the_full_tree_prints(self, argv, monkeypatch, capsys):
        lazy = parsed(argv, capsys)
        monkeypatch.setattr(cli, "_ROWS", {})  # no command parser: the full tree's own parse_args
        assert parsed(argv, capsys) == lazy
        assert isinstance(lazy[0], dict) or (lazy[0] in (0, 2) and (lazy[1] or lazy[2]))

    def test_grids_name_every_command(self):
        assert sorted(tuple(argv[:1 if argv[0] == "selftest" else 2]) for argv in COMMAND_LINES) == sorted(cli._ROWS)

    def test_a_command_never_builds_the_full_tree(self, monkeypatch):
        def refuse():
            raise AssertionError("the full tree was built")

        monkeypatch.setattr(cli, "build_parser", refuse)
        monkeypatch.chdir(ROOT)
        cli._command_parser.cache_clear()
        assert run(["mass", "serre", "--n", "2"])[0] == 0
        assert cli._command_parser.cache_info().currsize == 1
        assert cli._command_parser(("mass", "serre")) and cli._command_parser.cache_info().currsize == 1
        for case in json.loads((ROOT / "tests" / "golden" / "cli.json").read_text()):
            assert run(case["argv"]) == (case["exit"], case["stdout"]), case["id"]
        assert cli._command_parser.cache_info().currsize == len(cli._ROWS)

    def test_cached_parser_recovers_after_a_malformed_call(self, capsys):
        golden = {case["id"]: case for case in json.loads((ROOT / "tests" / "golden" / "cli.json").read_text())}
        case = golden["mass-invert-nmax20-csv"]
        assert run(["mass", "invert", "--nmax", "zero", "--format", "csv"]) == (2, "")
        assert run(["mass", "frobnicate"]) == (2, "")
        assert run(case["argv"]) == (case["exit"], case["stdout"])
        assert capsys.readouterr().err.count("error:") == 2


class TestReports:
    def test_mass_serre_json(self):
        code, out = run(["mass", "serre", "--n", "2", "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["mass"]["pretty"] == "q^(-1)"
        assert report["mass"]["terms"] == [[-1, 1, 1, 1]]

    def test_etale_enumerate_json(self):
        code, out = run(["etale", "enumerate", "--p", "5", "--n", "2", "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["field_classes"] == 3
        assert report["etale_algebras"] == 4
        assert report["complete"] is True
        assert len(report["rows"]) == 3

    def test_etale_enumerate_reports_wild_strata(self):
        code, out = run(["etale", "enumerate", "--p", "5", "--n", "5", "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert [1, 5] in report["wild_strata_skipped"]
        assert report["complete"] is False

    def test_etale_enumerate_has_no_fixtures_option(self, capsys):
        # fixtures are cross-validated by `etale crossvalidate` alone
        code, out = run(["etale", "enumerate", "--p", "5", "--n", "2", "--fixtures", str(DATA / "sample_fixtures.json")])
        err = capsys.readouterr().err
        assert (code, out) == (2, "")
        assert err.startswith("usage: ") and "unrecognized arguments: --fixtures" in err

    def test_rationals_print_as_str_prints_them(self):
        # a negative value out of lowest terms, and an integral one, which prints without "/1"
        code, out = run(["stringy", "point", "--a=-6/14", "--c=4/2", "--format", "json"])
        report = json.loads(out)
        assert (code, report["a"], report["c"]) == (0, "-3/7", ["2"])

    def test_a_small_monomial_denominator_is_not_a_pole(self, capsys):
        # q^(-k/2) (q^(1/2) + 1) at q = 1/5: its denominator q^(k/2) was refused from k = 251 on, as
        # "denominator q^(2001/2) vanishes (or nearly) at q=1/5"; mpmath at 50 digits gives the same digits
        for a, text in (("-2001/2", "3.02010451040385e+699"), ("-251/2", "7.60795925285582e+87"),
                        ("-201/2", "2.55280751408721e+70")):
            code, out = run(["stringy", "point", f"--a={a}", "--c=1/2", "--at-q", "1/5", "--format", "json"])
            assert (code, capsys.readouterr().err) == (0, "")
            assert json.loads(out)["evaluated"] == {"q": "1/5", "approx": text, "precision": "1/1000000000000"}

    def test_divergent_value_is_evaluated_as_infinite(self, tmp_path):
        path = tmp_path / "divergent.json"
        path.write_text(json.dumps({"horizontal": [1], "vertical": [{"a": 0, "strata": [{"subset": [1], "count": 1}]}]}))
        code, out = run(["stringy", "eval", "--input", str(path), "--at-q", "5", "--format", "json"])
        report = json.loads(out)
        assert (code, report["value"], report["evaluated"]) == (0, "Infinite", "Infinite")

    def test_no_coefficients_is_the_empty_product(self):
        code, out = run(["stringy", "point", "--a", "2", "--c=", "--at-q", "3", "--format", "json"])
        report = json.loads(out)
        assert (code, report["c"], report["value"]["pretty"], report["evaluated"]["exact"]) == (0, [], "q^2", "9")

    def test_etale_mass_exact_match(self):
        code, out = run(["etale", "mass", "--p", "7", "--n", "3", "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["mass"] == "57/49"
        assert report["match"] is True

    def test_crossvalidate_sample_fixtures(self):
        code, out = run(
            ["etale", "crossvalidate", "--fixtures", str(DATA / "sample_fixtures.json"), "--format", "json"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert report["uncheckable"] == 3

    def test_crossvalidate_mismatch_exits_one(self, tmp_path):
        bogus = tmp_path / "fixtures.json"
        bogus.write_text(
            json.dumps([{"p": 5, "n": 2, "e": 2, "f": 1, "c": 1, "aut": 3, "label": "bogus"}])
        )
        code, out = run(["etale", "crossvalidate", "--fixtures", str(bogus), "--format", "json"])
        assert code == 1

    def test_crossvalidate_impossible_wild_records_exit_one(self, tmp_path):
        # d = 5 past the largest d of a quadratic over Q_2, and #Aut not dividing the degree
        records = [{"p": 2, "n": 2, "e": 2, "f": 1, "c": 5, "aut": 2, "label": "2.2.5.1"},
                   {"p": 2, "n": 2, "e": 2, "f": 1, "c": 2, "aut": 7, "label": "2.2.2.1"},
                   {"p": 3, "n": 3, "e": 3, "f": 1, "c": 3, "aut": 2, "label": "3.3.3.1"}]
        for record in records:
            fixtures = tmp_path / "fixtures.json"
            fixtures.write_text(json.dumps([record]))
            code, out = run(["etale", "crossvalidate", "--fixtures", str(fixtures), "--format", "json"])
            report = json.loads(out)
            assert code == 1 and (report["mismatches"], report["uncheckable"]) == (1, 0)

    def test_crossvalidate_gives_duplicate_labels_their_own_verdicts(self, tmp_path):
        # two records labelled alike both read "matched", each with the mismatch's reason
        record = {"p": 5, "n": 2, "e": 2, "f": 1, "c": 1, "aut": 2, "label": "same"}
        fixtures = tmp_path / "fixtures.json"
        fixtures.write_text(json.dumps([record, {**record, "c": 7}]))
        code, out = run(["etale", "crossvalidate", "--fixtures", str(fixtures), "--format", "json"])
        report = json.loads(out)
        assert code == 1
        assert [(row["d"], row["status"], row["reason"]) for row in report["rows"]] == [
            (1, "matched", ""), (7, "mismatch", "no remaining tame class over Q_5 with (e,f,d,aut)=(2, 1, 7, 2)")
        ]
        assert (report["matched"], report["mismatches"], report["ok"]) == (1, 1, False)

    def test_crossvalidate_csv_quotes_carriage_returns(self, tmp_path):
        # csv.writer quotes a lone \r on Python 3.13 but not on 3.11; the writer quotes it on both
        record = {"p": 5, "n": 2, "e": 2, "f": 1, "c": 1, "aut": 2}
        labels = ["a\rb", "x\r\ny"]
        fixtures = tmp_path / "fixtures.json"
        fixtures.write_text(json.dumps([{**record, "label": label} for label in labels]))
        code, out = run(["etale", "crossvalidate", "--fixtures", str(fixtures), "--format", "csv"])
        assert code == 0
        assert out.split("\n")[1:] == ['"a\rb",5,2,2,1,1,2,matched,', '"x\r', 'y",5,2,2,1,1,2,matched,', ""]
        rows = list(csv.reader(io.StringIO(out, newline="")))
        assert [row[0] for row in rows] == ["label", *labels]
        assert rows[1][1:] == rows[2][1:] == ["5", "2", "2", "1", "1", "2", "matched", ""]

    def test_stringy_eval_with_numeric(self):
        code, out = run(
            [
                "stringy",
                "eval",
                "--input",
                str(DATA / "sample_snc_pair.json"),
                "--at-q",
                "9",
                "--format",
                "json",
            ]
        )
        assert code == 0
        report = json.loads(out)
        # 3 + (q^(1/2)+1) + 2/(q+1) + q at q=9 -> 4 + 3 + 1/5 + 9 + 1/5... exact: 3+4+0.2+9 = 16.2
        assert report["evaluated"]["approx"].startswith("16.2")

    def test_stringy_divergent_input(self, tmp_path):
        data = tmp_path / "pair.json"
        data.write_text(
            json.dumps(
                {"horizontal": [1], "vertical": [{"a": 0, "strata": [{"subset": [1], "count": 2}]}]}
            )
        )
        code, out = run(["stringy", "eval", "--input", str(data), "--format", "json"])
        assert code == 0
        assert json.loads(out)["value"] == "Infinite"

    def test_padic_count_report(self):
        code, out = run(
            ["padic", "count", "--input", str(DATA / "sample_circle.json"), "--m", "2", "--format", "json"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["count"] == 20
        assert report["normalized"] == "4/5"

    def test_padic_measure_report(self):
        code, out = run(
            ["padic", "measure", "--input", str(DATA / "sample_circle.json"), "--mmax", "3", "--format", "json"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["counts"] == [4, 20, 100]
        assert report["measure"] == "4/5"

    def test_padic_integral_divergent(self):
        code, out = run(["padic", "integral", "--c", "1", "--p", "5", "--format", "json"])
        assert code == 0
        assert json.loads(out)["exact"] == "Infinite"

    @pytest.mark.parametrize("c, p, terms, digits", [
        ("0", 3, 5, "0.33196159122085"),  # 242/729, printed 0.331961591220851 through a float
        ("2/3", 5, 60, "1.1267987369779"),
        ("-7/3", 7, 20, "0.00130834459988058"),
        ("1/2", 999983, 2235, "0.00100100851710867"),
        ("1/997", 5, 60, "0.200404059299793"),
        ("280/3", 5, 300, "2.3561888403983e+19361"),
        ("3/2", 999983, 2235, "9.82162846749385e+6704"),
    ])
    def test_padic_integral_partial_prints_the_digits_of_the_sum(self, c, p, terms, digits):
        # 15 significant digits of sum_{i <= terms} p^(i (c - 1)) (1 - 1/p), as mpmath gives them at
        # 50 digits; one root per shell, each floored, printed ...778, ...985173, ...710836 and
        # 0.20040405929974 for the first four.
        code, out = run(["padic", "integral", f"--c={c}", "--p", str(p), "--terms", str(terms), "--format", "json"])
        assert code == 0 and json.loads(out)["partial"] == digits
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            step = mpmath.mpf(p) ** (mpmath.mpf(Fraction(c).numerator) / Fraction(c).denominator - 1)
            assert mpmath.nstr(mpmath.fsum(step**i for i in range(1, terms + 1)) * (1 - mpmath.mpf(1) / p), 15) == digits

    def test_padic_nullset(self):
        code, out = run(
            ["padic", "nullset", "--input", str(DATA / "sample_circle.json"), "--m", "1", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["fraction"] == "4/25"


# One tuple object twice at the same depth and once at another, as `mckay verify` rows share entries.
_ENTRY = (1, 12, (0, 5), "x", [2])
SHARED_TUPLES = {"rows": [{"factors": [_ENTRY]}, {"factors": [_ENTRY, (1, 12, (0, 5), "x", [2])]}], "top": _ENTRY}
# Dicts of one key shape in two insertion orders, at two depths, with keys a %-template or
# str.format would misread, and non-ASCII keys.
ODD_KEYS = {"%s": 1, "{0}": [2], "100%": "%d", "{}": {"%%": None}, "\u00e9": 3, "\u65e5\u672c": 4}
SHAPES = {"a": {"x": 1, "y": [{"x": 2, "y": 3}, {"y": 4, "x": 5}]}, "b": {"y": 6, "x": {"x": 7, "y": 8}},
          "x": 9, "y": 10}


# The table commands besides `mckay verify`, each with rows of every cell kind they print.
TABLE_COMMANDS = [
    ["mass", "expcheck", "--nmax", "5"],
    ["mass", "invert", "--nmax", "6"],
    ["etale", "enumerate", "--p", "5", "--n", "6"],
    ["etale", "crossvalidate", "--fixtures", str(DATA / "sample_fixtures.json")],
    ["selftest"],
]

# A table of every cell kind over three write chunks: odd column names, a column of ints and
# bools, lists and tuples (empty or sharing one tuple), strings to escape, None and dicts.
_MEMBER = (3, (0, 1), "x")
ODD_TABLE = (("%s", "\u00e9", "{0}", "mixed", "members", "value"), [
    (i, f'q"{i}\n,', i % 2 == 0, i if i % 3 else i % 2 == 1, [[], [_MEMBER], (_MEMBER, [i, None], "s")][i % 3],
     [None, {"pretty": f"q^{i}", "terms": [i]}, {"b": i, "a": [1.5]}, 10**30 + i][i % 4])
    for i in range(2 * cli._ROWS_PER_WRITE + 5)])


class TestJsonWriter:
    """The report writer against json.dumps(..., sort_keys=True, indent=2)."""

    @pytest.mark.parametrize("value", [
        {}, [], (), "", 0, -7, 10**200, -(10**80), True, False, None, 1.5,
        {"a": {}, "b": [], "c": [[]], "d": [{}]},
        [[1, [2, [3, []]]], [[], {}], [[[[]]]]],
        {"z": True, "y": False, "x": None, "B": 1, "a": 2, "é": 3, "_": [None, True, 0]},
        ["\u00e9t\u00e9", "\u65e5\u672c", "\U0001f600", "\u2028", "tab\tnew\nline", 'q"uote\\slash', "\x00\x1f\x7f"],
        {"rows": [{"factors": [[1, 2, [0, 1], 3]], "term_num": 3**40, "term_den": 2}], "mass": "1/2"},
        (1, (2, "three"), [4.25]),
        SHARED_TUPLES,
        ODD_KEYS,
        [ODD_KEYS, {"n": ODD_KEYS}, dict(reversed(ODD_KEYS.items()))],
        SHAPES,
        [{"d": 1, "c": 2, "b": 3}, {"b": 4, "c": 5, "d": 6}, {"c": 7, "b": 8, "d": 9}],
    ])
    def test_matches_json_dumps(self, value):
        assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2)

    def test_unsupported_values_raise_like_json(self):
        with pytest.raises(TypeError):
            _json_text({"x": object()})

    @pytest.mark.parametrize("rows", [ODD_TABLE[1], ODD_TABLE[1][:1], []], ids=["chunks", "one", "empty"])
    def test_tables_match_json_dumps_of_row_dicts(self, rows):
        report = {"command": "t", "a": 1, "zeta": [True], "_lines": ["not written"]}
        out = io.StringIO()
        cli._write_json(report, (ODD_TABLE[0], rows), out)
        payload = {"command": "t", "a": 1, "zeta": [True], "rows": [dict(zip(ODD_TABLE[0], row)) for row in rows]}
        assert out.getvalue() == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_reports_match_json_dumps(self):
        for argv in (["mckay", "verify", "--p", "7", "--n", "5"], ["stringy", "point", "--a", "1/2", "--c=-1/3,1/2"],
                     *TABLE_COMMANDS):
            code, out = run(argv + ["--format", "json"])
            assert code == 0
            assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def csv_cell(_, value):
    """The CSV text of one cell: a pretty form, yes/no, or JSON for lists and other dicts."""
    if isinstance(value, dict):
        return value["pretty"] if "pretty" in value else json.dumps(value, sort_keys=True)
    if isinstance(value, bool):
        return "yes" if value else "no"
    return json.dumps(value) if isinstance(value, (list, tuple)) else str(value)


def csv_text(columns, rows, cell):
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([cell(column, value) for column, value in zip(columns, row)])
    return expected.getvalue()


class TestCsvWriter:
    @pytest.mark.parametrize("p, n", [(13, 8), (31, 12)])
    def test_mckay_rows_match_csv_writer_and_json_dumps(self, p, n):
        from wildmckay.mckay import ROW_COLUMNS, verify_wild_mckay

        rows = verify_wild_mckay(p, n).rows
        expected = csv_text(ROW_COLUMNS, rows, lambda key, value: json.dumps(value) if key == "factors" else str(value))
        assert run(["mckay", "verify", "--p", str(p), "--n", str(n), "--format", "csv"]) == (0, expected)

    @pytest.mark.parametrize("argv", TABLE_COMMANDS, ids=lambda argv: "-".join(argv[:2]))
    def test_tables_match_csv_writer_and_json_dumps(self, argv):
        args = cli._parse(argv)
        code, _, (columns, rows) = args.handler(args)
        assert run(argv + ["--format", "csv"]) == (code, csv_text(columns, rows, csv_cell))

    def test_every_cell_kind_matches_csv_writer(self):
        out = io.StringIO()
        cli._write_csv({"command": "t"}, ODD_TABLE, out)
        assert out.getvalue() == csv_text(*ODD_TABLE, csv_cell)

    def test_empty_table_prints_its_header(self, tmp_path):
        fixtures = tmp_path / "fixtures.json"
        fixtures.write_text("[]")
        code, out = run(["etale", "crossvalidate", "--fixtures", str(fixtures), "--format", "csv"])
        assert (code, out) == (0, "label,p,n,e,f,d,aut,status,reason\n")
        code, out = run(["etale", "crossvalidate", "--fixtures", str(fixtures), "--format", "json"])
        assert (code, json.loads(out)["rows"]) == (0, [])


class TestDeterminism:
    COMMANDS = [
        ["mass", "expcheck", "--nmax", "5", "--format", "json"],
        ["mass", "invert", "--nmax", "5", "--format", "csv"],
        ["etale", "enumerate", "--p", "7", "--n", "4", "--format", "json"],
        ["mckay", "verify", "--p", "7", "--n", "3", "--format", "csv"],
        ["stringy", "point", "--a", "1", "--c", "1/2,-1", "--at-q", "5", "--format", "json"],
    ]

    def test_json_and_csv_outputs_are_byte_identical(self):
        for argv in self.COMMANDS:
            assert run_to_string(argv) == run_to_string(argv), argv


class TestSelftest:
    def test_selftest_passes(self):
        code, out = run(["selftest", "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["all_passed"] is True
        assert len(report["rows"]) == 10
