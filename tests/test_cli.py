import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from smoothdiv import cli, convolution, oracle, special
from smoothdiv.cli import (
    CONFIG_ENV_VAR,
    EXIT_DOMAIN,
    EXIT_RESOURCE,
    EXIT_USAGE,
    OutputRecord,
    UsageError,
    fmt17,
    load_settings,
    parse_output_record,
    validate_output_record,
)


def run_cli(*args, env_extra=None, timeout=300):
    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "smoothdiv", *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def record_of(proc):
    d = json.loads(proc.stdout)
    validate_output_record(d)
    return d


class TestSpecialCommand:
    def test_rho_value(self):
        proc = run_cli("special", "--fn", "rho", "--u", "2")
        assert proc.returncode == 0
        rec = record_of(proc)
        assert float(rec["outputs"]["value"]) == pytest.approx(1 - math.log(2), rel=1e-12)
        assert "table_max_certificate" in rec["outputs"]

    def test_omega_value(self):
        proc = run_cli("special", "--fn", "omega", "--u", "1.5")
        assert float(record_of(proc)["outputs"]["value"]) == pytest.approx(2 / 3, rel=1e-10)

    def test_rho_below_zero(self):
        proc = run_cli("special", "--fn", "rho", "--u", "-2")
        assert float(record_of(proc)["outputs"]["value"]) == 0.0

    def test_domain_error_exit_code(self):
        proc = run_cli("special", "--fn", "rho1", "--u", "-1")
        assert proc.returncode == EXIT_DOMAIN
        assert "domain error" in proc.stderr


class TestEstimateCommand:
    def test_theta_json_fields(self):
        proc = run_cli("estimate", "theta", "--x", "1e12", "--y", "1e4", "--z", "1e6")
        rec = record_of(proc)
        for key in ("main_term", "second_term", "value", "error_envelope"):
            assert key in rec["outputs"]
        assert "in_theorem_domain=true" in rec["flags"]

    def test_out_of_domain_still_succeeds(self):
        proc = run_cli("estimate", "theta", "--x", "1e12", "--y", "1e4", "--z", "2e4")
        assert proc.returncode == 0
        assert "in_theorem_domain=false" in record_of(proc)["flags"]

    def test_s_domain_cap_does_not_overflow(self):
        # exp(exp((log y)^(3/5-eps))) exceeds the largest double for y = 1e300.
        proc = run_cli("estimate", "s", "--y", "1e300", "--z", "1e6")
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "in_theorem_domain=true" in record_of(proc)["flags"]

    @pytest.mark.parametrize("kind, extra", [("psi-h", ()), ("theta", ("--z", "1e20"))])
    def test_y_lower_bound_does_not_overflow(self, kind, extra, capsys):
        # exp((log log x)^(5/3+eps)) exceeds the largest double for x = 1e300, eps = 5.
        code = cli.main(["estimate", kind, "--x", "1e300", "--y", "1e10", *extra,
                         "--epsilon", "5"])
        out, err = capsys.readouterr()
        assert code == 0, err
        assert "Traceback" not in err
        flags = json.loads(out)["flags"]
        assert "in_theorem_domain=false" in flags
        assert any("y >= exp(273034): FAIL" in f for f in flags)

    def test_s_past_the_tau_cutoff_is_positive(self, capsys):
        # v = 14: tau(v) is all tail beyond the quadrature's cutoff.
        assert cli.main(["estimate", "s", "--y", "100", "--z", "1e28"]) == 0
        outputs = json.loads(capsys.readouterr().out)["outputs"]
        assert float(outputs["main_term"]) > 0.0 and float(outputs["value"]) > 0.0

    def test_lemma6_checks_y_before_any_quadrature(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(convolution, "quad", lambda *args: calls.append(args))
        argv = ["estimate", "lemma6", "--x", "1e4", "--y", "2", "--z", "1"]
        assert cli.main(argv) == EXIT_DOMAIN
        assert capsys.readouterr().err == "domain error: lemma 6 requires y >= 3\n"
        assert calls == []

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf"])
    def test_non_finite_epsilon_is_usage_error(self, epsilon, capsys):
        # --epsilon nan once exited 0 with the flag "y >= nan: FAIL".
        argv = ["estimate", "psi-h", "--x", "1e6", "--y", "1e3", f"--epsilon={epsilon}"]
        assert cli.main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and "--epsilon" in err

    def test_missing_flag_is_usage_error(self):
        proc = run_cli("estimate", "theta", "--x", "1e6")
        assert proc.returncode == EXIT_USAGE

    def test_csv_and_json_carry_identical_values(self):
        args = ("estimate", "s", "--y", "1e4", "--z", "1e8")
        rec = record_of(run_cli(*args))
        lines = run_cli(*args, "--format", "csv").stdout.splitlines()
        header, row = lines[0].split(","), lines[1].split(",")
        csv_map = dict(zip(header, row))
        assert csv_map["out_value"] == rec["outputs"]["value"]
        assert csv_map["out_error_envelope"] == rec["outputs"]["error_envelope"]


class TestExactCommand:
    def test_psi(self):
        proc = run_cli("exact", "psi", "--x", "100", "--y", "5")
        assert record_of(proc)["outputs"]["value"] == "34"

    def test_theta(self):
        proc = run_cli("exact", "theta", "--x", "20", "--y", "2", "--z", "3")
        assert record_of(proc)["outputs"]["value"] == "5"

    def test_smoothpart(self):
        proc = run_cli("exact", "smoothpart", "--n", "12", "--y", "2")
        assert record_of(proc)["outputs"]["value"] == "4"

    @pytest.mark.parametrize("n, code, value", [
        ("12.7", EXIT_USAGE, None),   # was silently truncated to 12
        ("1e6", 0, "1000000"),        # integer-valued float spelling stays accepted
        ("0", EXIT_DOMAIN, None),     # integer but outside smooth_part's domain
        # Integer literals are read exactly: 2**53 + 1 = 3 * 107 * 28059810762433
        # was read as 2**53, and 2**63 - 1 as 2**63, refused with exit 3.
        ("9007199254740993", 0, "3"),
        ("9223372036854775807", 0, "1"),
    ])
    def test_smoothpart_n_must_be_integer_valued(self, n, code, value):
        proc = run_cli("exact", "smoothpart", "--n", n, "--y", "5")
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        if value is not None:
            assert record_of(proc)["outputs"]["value"] == value
        if code == EXIT_USAGE:
            assert "--n" in proc.stderr

    def test_resource_error(self):
        # psi(1e15, 1e3) walks about 3.5e11 smooth numbers: refused by the
        # work bound.  (psi(1e12, 100), refused by the old ceiling on x,
        # now answers in about a second.)
        proc = run_cli("exact", "psi", "--x", "1e15", "--y", "1e3")
        assert proc.returncode == EXIT_RESOURCE
        assert "resource error" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["exact", "psi", "--x", "inf", "--y", "5"],
        ["exact", "theta", "--x", "nan", "--y", "5", "--z", "3"],
        ["exact", "s", "--y", "10", "--z", "inf"],
        ["compare", "--kind", "s", "--x", "100", "--y", "10", "--z", "nan"],
    ])
    def test_non_finite_sieve_limit_is_domain_error(self, argv, capsys):
        assert cli.main(argv) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("domain error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["exact", "psi", "--x", "1e5", "--y", "nan"],
        ["exact", "phi", "--x", "1e5", "--y", "nan"],
        ["exact", "theta", "--x", "1e5", "--y", "nan", "--z", "10"],
        ["exact", "theta", "--x", "1e5", "--y", "30", "--z", "nan"],
        ["exact", "smoothpart", "--n", "12", "--y", "nan"],
    ])
    def test_nan_bound_is_domain_error(self, argv, capsys):
        # The first three ended in a ValueError traceback; smoothpart printed
        # 12 and theta with z = nan printed 0.
        assert cli.main(argv) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("domain error: ") and err.count("\n") == 1

    def test_infinite_y_takes_every_prime(self, capsys):
        assert cli.main(["exact", "smoothpart", "--n", "12", "--y", "inf"]) == 0
        assert json.loads(capsys.readouterr().out)["outputs"]["value"] == "12"

    @pytest.mark.parametrize("argv", [
        ["exact", "psi", "--x", "1e19", "--y", "3"],
        ["exact", "s", "--y", "3", "--z", "1e19"],
        ["exact", "theta", "--x", "1e19", "--y", "3", "--z", "1e18"],
        ["exact", "smoothpart", "--n", "1e19", "--y", "7"],
        ["exact", "phi", "--x", "1e19", "--y", "3"],
    ], ids=lambda argv: " ".join(argv))
    def test_counts_past_int64_are_resource_errors(self, argv, tmp_path):
        # Under a ceiling above 2**63 the int64 walk never emptied (psi, s)
        # and the others overflowed into an internal error.  A hang fails
        # the test at the timeout instead of stalling the run.
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"sieve_ceiling": 10**20}))
        proc = run_cli("--config", str(config), *argv, timeout=60)
        assert proc.returncode == EXIT_RESOURCE, proc.stderr
        assert proc.stderr.startswith("resource error: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv, value", [
        (["exact", "phi", "--x", "5e9", "--y", "3"], "1666666667"),
        (["exact", "theta", "--x", "1e18", "--y", "3", "--z", "1e12"], "13009569"),
    ], ids=["phi-5e9", "theta-1e18"])
    def test_rough_counts_past_2_32_answer(self, argv, value):
        # Under the default config: the table lists the primes up to y only,
        # and the work (5e9 rough flags; 1e6 of them beside 1,178 smooth d) is
        # within the bound.  phi(x, 3) is 2 floor(x/6) + [x mod 6 >= 1] +
        # [x mod 6 >= 5], and the theta is the sum of that over the
        # 3-smooth d > 1e12 at x/d.
        assert record_of(run_cli(*argv))["outputs"]["value"] == value


# Each is refused by the work bound under a ceiling past 2**63.  The first
# three walk smooth numbers, and where nothing bounded the work they walked
# until memory ran out.
_REFUSED_BEFORE_WORK = [
    ["exact", "psi", "--x", "1e15", "--y", "1e3"],
    ["exact", "s", "--y", "1e3", "--z", "1e15"],
    ["exact", "theta", "--x", "1e15", "--y", "1e3", "--z", "1e12"],
    ["exact", "phi", "--x", "1e15", "--y", "30"],
    ["estimate", "phi", "--x", "1e15", "--y", "1e12"],
]


@pytest.mark.parametrize("argv", _REFUSED_BEFORE_WORK, ids=" ".join)
def test_refusals_come_before_any_work(argv, ceiling_configs, capsys):
    argv = ["--config", ceiling_configs[10**20], *argv]
    cli.main(argv)  # loads the default tables, which are no part of a refusal
    capsys.readouterr()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = cli.main(argv)
        took = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code == EXIT_RESOURCE and out == "", err
    assert err.startswith("resource error: ") and err.count("\n") == 1
    assert "past the budget" in err
    assert took < 1.0 and peak < 2**20, (took, peak)


class TestCompareCommand:
    def test_single_point_grid(self):
        proc = run_cli("compare", "--kind", "theta", "--x", "1e4", "--u", "3", "--v", "1.5")
        doc = json.loads(proc.stdout)
        assert doc["schema"] == "smoothdiv/comparison-report/1"
        assert len(doc["rows"]) == 1
        assert "max_ratio" in doc["summary"] and "median_ratio" in doc["summary"]

    def test_malformed_grid(self):
        proc = run_cli("compare", "--x", "1e4,zap", "--u", "3", "--v", "1.5")
        assert proc.returncode == EXIT_USAGE

    def test_conflicting_rules(self):
        proc = run_cli("compare", "--x", "1e4", "--u", "3", "--y", "20", "--v", "1.5")
        assert proc.returncode == EXIT_USAGE

    def test_report_file(self, tmp_path):
        path = tmp_path / "report.json"
        proc = run_cli("compare", "--kind", "psi-h", "--x", "1e4,1e5", "--u", "2.5",
                       "--report", str(path))
        assert proc.returncode == 0
        doc = json.loads(path.read_text())
        assert len(doc["rows"]) == 2

    @pytest.mark.parametrize("where", ["missing/report.json", "."])
    def test_unwritable_report_is_usage_error(self, tmp_path, capsys, where):
        # A report into a missing directory was an internal error (exit 4).
        argv = ["compare", "--kind", "psi-h", "--x", "1e4", "--u", "2.5",
                "--report", str(tmp_path / where)]
        assert cli.main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and "--report" in err


    def test_config_sets_epsilon(self, tmp_path, capsys):
        # The same config and point as TestConfig::test_config_file_sets_epsilon.
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({"epsilon": 0.5}))
        argv = ["compare", "--kind", "psi-h", "--x", "1e6", "--y", "1e3"]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["rows"][0]["in_domain"] is True
        assert cli.main(["--config", str(cfg), *argv]) == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert row["in_domain"] is False
        assert "FAIL" in row["note"]

    def test_lemma6_exact_uses_configured_table(self, tmp_path, capsys):
        # The exact column weights by omega as the estimate does; it took the
        # default table (...955) while the estimate took the configured one.
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({"omega_u_cut": 10}))
        argv = ["compare", "--kind", "lemma6", "--x", "1e7", "--y", "3", "--z", "10"]
        assert cli.main(["--config", str(cfg), *argv]) == 0
        assert json.loads(capsys.readouterr().out)["rows"][0]["exact"] == "0.28852493158428977"

    @pytest.mark.parametrize("argv", [
        ["compare", "--kind", "psi-h", "--x", "1e5", "--u", "0"],
        ["compare", "--kind", "psi-h", "--x", "1e5", "--u", "1e-300"],
        ["compare", "--kind", "s", "--x", "1e5", "--y", "10", "--v", "1e6"],
        ["compare", "--kind", "s", "--x", "1e5", "--y", "-10", "--v", "0.5"],
    ])
    def test_underivable_grid_is_domain_error(self, argv, capsys):
        # ZeroDivisionError, OverflowError (twice) and a complex z before.
        assert cli.main(argv) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("domain error: ") and err.count("\n") == 1

    def test_s_sieve_sized_by_z(self, capsys):
        # S(y, z) needs a sieve up to z, not up to x: z > max(x) still answers.
        assert cli.main(["exact", "s", "--y", "10", "--z", "1e6"]) == 0
        exact = json.loads(capsys.readouterr().out)["outputs"]["value"]
        assert cli.main(["compare", "--kind", "s", "--x", "100", "--y", "10", "--z", "1e6"]) == 0
        assert json.loads(capsys.readouterr().out)["rows"][0]["exact"] == exact


class TestDsaRiskCommand:
    def test_headline(self):
        proc = run_cli("dsa-risk", "--k", "863", "--l", "80", "--m", "160")
        rec = record_of(proc)
        assert float(rec["outputs"]["eta"]) == pytest.approx(0.09576, abs=5e-4)

    def test_with_empirical(self):
        proc = run_cli("dsa-risk", "--k", "40", "--l", "10", "--m", "20",
                       "--empirical", "20000", "--seed", "7")
        rec = record_of(proc)
        assert "empirical" in rec["outputs"] and "empirical_std_err" in rec["outputs"]
        assert 0.0 < float(rec["outputs"]["empirical"]) < 1.0

    def test_domain_error(self):
        proc = run_cli("dsa-risk", "--k", "1", "--l", "10", "--m", "20")
        assert proc.returncode == EXIT_DOMAIN

    @pytest.mark.parametrize("k, l, m, negative", [(20, 3, 19, True), (863, 80, 160, False)])
    def test_negative_eta_is_flagged(self, k, l, m, negative, capsys):
        assert cli.main(["dsa-risk", "--k", str(k), "--l", str(l), "--m", str(m)]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert (float(rec["outputs"]["eta"]) < 0) is negative
        assert ("eta_negative=true" in rec["flags"]) is negative

    @pytest.mark.parametrize("argv, code, needle", [
        (["--seed", "-1"], EXIT_USAGE, "--seed"),
        (["--seed", str(2**128)], EXIT_USAGE, "--seed"),
        (["--k", "2", "--l", "5000", "--m", "5"], EXIT_RESOURCE, "2^5000"),
        (["--k", str(2**62), "--l", "1", "--m", "1"], EXIT_RESOURCE, "memory"),
        (["--k", str(10**400)], EXIT_DOMAIN, "2**1024"),
        (["--empirical", "0"], EXIT_DOMAIN, "sample"),  # was ignored: exit 0, no Monte Carlo
    ])
    def test_flag_values_that_crashed(self, argv, code, needle, capsys):
        # A later flag overrides the default one before it.
        base = ["dsa-risk", "--k", "70", "--l", "10", "--m", "20", "--empirical", "3"]
        assert cli.main(base + argv) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and needle in err

    def test_csv_quotes_a_flag_with_commas(self, capsys):
        # The regime warning reads "(k, l, m) = (40, 10, 40) is outside ...".
        argv = ["dsa-risk", "--k", "40", "--l", "10", "--m", "40"]
        assert cli.main(argv) == 0
        flags = json.loads(capsys.readouterr().out)["flags"]
        assert any("," in f for f in flags)
        assert cli.main(argv + ["--format", "csv"]) == 0
        header, row = csv.reader(io.StringIO(capsys.readouterr().out))
        assert len(row) == len(header)
        assert row[header.index("flags")] == ";".join(flags)

    def test_largest_seed_and_huge_k_and_m_run(self, capsys):
        # 2**128 - 1 is the largest Philox key; u = k/l = 2**62 once meant
        # testing ~2**62 split points; 1 << m was built although m >= k.
        base = ["dsa-risk", "--k", "70", "--l", "10", "--m", "20", "--empirical", "3"]
        assert cli.main(base + ["--seed", str(2**128 - 1)]) == 0
        assert cli.main(["dsa-risk", "--k", str(2**62), "--l", "1", "--m", "1"]) == 0
        capsys.readouterr()
        assert cli.main(base + ["--m", str(2**128)]) == 0
        assert json.loads(capsys.readouterr().out)["outputs"]["empirical"] == "0"


class TestValidateCommand:
    def test_special_suite_exits_zero(self):
        proc = run_cli("validate", "special")
        assert proc.returncode == 0
        assert "FAIL" not in proc.stdout

    @pytest.mark.parametrize("config, text", [
        ({"target_rel_err": 1e-9}, "<= target 1e-09\n"),
        # A shorter table is sampled up to its end (u = 30, not 40).
        ({"rho_u_max": 30, "omega_u_cut": 20}, "rho decreasing on [1, 30]"),
    ])
    def test_config_reaches_the_suites(self, tmp_path, capsys, config, text):
        # The suites ran on the default tables whatever the config said.
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps(config))
        assert cli.main(["--config", str(cfg), "validate", "special"]) == 0
        assert text in capsys.readouterr().out


class TestLimitFlag:
    """Each command sizes its sieve from its count, so ``--limit`` is gone."""

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("argv", [
        ["exact", "psi", "--x", "100", "--y", "5"],
        ["compare", "--x", "1e3", "--u", "2", "--v", "1.2"],
        ["dsa-risk", "--k", "40", "--l", "10", "--m", "20", "--empirical", "3"],
        ["validate", "oracle"],
    ])
    def test_non_finite_limit_is_usage_error(self, argv, value, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--limit", value])
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --limit" in captured.err


class TestDeterminism:
    def test_compare_byte_identical_across_runs_and_thread_counts(self):
        args = ("compare", "--kind", "theta", "--x", "1e4,3e4", "--u", "3", "--v", "1.5")
        a = run_cli(*args, env_extra={"OMP_NUM_THREADS": "1"})
        b = run_cli(*args, env_extra={"OMP_NUM_THREADS": "4"})
        assert a.stdout.encode() == b.stdout.encode()

    def test_validate_byte_identical(self):
        a = run_cli("validate", "convolution", env_extra={"OMP_NUM_THREADS": "1"})
        b = run_cli("validate", "convolution", env_extra={"OMP_NUM_THREADS": "4"})
        assert a.stdout.encode() == b.stdout.encode()

    def test_seeded_dsa_risk_byte_identical(self):
        args = ("dsa-risk", "--k", "40", "--l", "10", "--m", "20",
                "--empirical", "10000", "--seed", "11")
        assert run_cli(*args).stdout == run_cli(*args).stdout


class TestLastResortHandler:
    # An exception no command maps still ends in one stderr line and an exit
    # code other than 1, which belongs to failed validation alone.
    @pytest.mark.parametrize("exc, code, line", [
        (MemoryError(), EXIT_RESOURCE, "resource error: out of memory"),
        (MemoryError("cannot allocate 8 GiB"), EXIT_RESOURCE,
         "resource error: cannot allocate 8 GiB"),
        (RuntimeError("boom\nsecond line"), EXIT_DOMAIN, "internal error: RuntimeError: boom second line"),
        (KeyError("u"), EXIT_DOMAIN, "internal error: KeyError: 'u'"),
    ])
    def test_unmapped_exception(self, monkeypatch, capsys, exc, code, line):
        def raise_(*args):
            raise exc

        monkeypatch.setattr(cli, "cmd_special", raise_)
        assert cli.main(["special", "--fn", "rho", "--u", "2"]) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert err == line + "\n"


class TestOutputRecord:
    def test_json_round_trip_lossless(self):
        rec = OutputRecord("demo", {"x": 1.0 / 3.0}, {"value": 2.0 / 7.0}, ["flag=true"])
        text = rec.render("json")
        back = parse_output_record(text)
        assert back.inputs["x"] == fmt17(1.0 / 3.0)
        assert float(back.outputs["value"]) == 2.0 / 7.0
        assert json.dumps(json.loads(text)) == json.dumps(back.to_dict())

    def test_field_order_stable(self):
        rec = OutputRecord("demo", {"b": 1, "a": 2}, {"z": 3, "y": 4})
        d = rec.to_dict()
        assert list(d.keys()) == ["command", "inputs", "outputs", "flags", "version"]
        assert list(d["inputs"].keys()) == ["b", "a"]  # insertion order preserved

    def test_schema_rejects_missing_fields(self):
        with pytest.raises(ValueError):
            validate_output_record({"command": "x", "inputs": {}, "outputs": {}})


class TestConfig:
    # zeta(1, y) lists the primes up to y a block at a time, outside any
    # table, in a few MiB at any y: the sieve ceiling, which caps tables,
    # does not bound it, and the work bound does.  A 1e8 product answers
    # under a 1e6 ceiling (0.6 s); a 1e12 one is refused before it starts.
    # compare's phi needs y <= x, so its table to min(x, y) = y meets the
    # ceiling first.
    @pytest.mark.parametrize("argv, why", [
        (["estimate", "phi", "--x", "1e12", "--y", "1e12"], "past the budget"),
        (["compare", "--kind", "phi", "--x", "1e12", "--y", "1e12"], "exceeds the ceiling"),
        (["exact", "s", "--y", "1e12", "--z", "10"], "past the budget"),
        (["compare", "--kind", "s", "--x", "100", "--y", "1e12", "--z", "10"], "past the budget"),
    ], ids=["estimate-phi", "compare-phi", "exact-s", "compare-s"])
    def test_euler_product_obeys_the_config_ceiling(self, tmp_path, capsys, argv, why):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"sieve_ceiling": 1000000}))
        assert cli.main(["--config", str(cfg), *argv]) == EXIT_RESOURCE
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and why in err
        # y at the ceiling answers, and so does a product past it.
        argv = [a if a != "1e12" else "1e6" for a in argv]
        assert cli.main(["--config", str(cfg), *argv]) == 0
        assert cli.main(["--config", str(cfg), "estimate", "phi", "--x", "1e12", "--y", "1e8"]) == 0

    def test_unallocatable_sieve_is_resource_error(self, tmp_path, capsys):
        # A ceiling the config accepts, and y = inf, which asks for every
        # prime up to 10**16: a list allocated at a bound on pi(10**16),
        # 3.4e14 int64 (2.4 PiB), that no address space holds, so numpy
        # refuses it without allocating.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"sieve_ceiling": 10**17}))
        assert cli.main(["--config", str(cfg), "exact", "psi", "--x", "1e16",
                         "--y", "inf"]) == EXIT_RESOURCE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("resource error: ") and err.count("\n") == 1

    def test_small_y_counts_past_any_full_sieve(self, tmp_path, capsys):
        # The same x with y = 10 reads only the primes 2, 3, 5 and 7, so it
        # answers: the 7-smooth n <= 10**16, enumerated here.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"sieve_ceiling": 10**17}))
        assert cli.main(["--config", str(cfg), "exact", "psi", "--x", "1e16",
                         "--y", "10"]) == 0
        smooth = [1]
        for p in (2, 3, 5, 7):
            smooth = [n * p**a for n in smooth for a in range(60) if n * p**a <= 10**16]
        assert json.loads(capsys.readouterr().out)["outputs"]["value"] == str(len(smooth))

    def test_config_file_sets_epsilon(self, tmp_path):
        # Larger epsilon tightens the y lower bound enough to flip the flag.
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({"epsilon": 0.5}))
        default = record_of(run_cli("estimate", "psi-h", "--x", "1e6", "--y", "1e3"))
        assert "in_theorem_domain=true" in default["flags"]
        stricter = record_of(run_cli("--config", str(cfg),
                                     "estimate", "psi-h", "--x", "1e6", "--y", "1e3"))
        assert "in_theorem_domain=false" in stricter["flags"]

    def test_env_var_config(self, tmp_path):
        # A table of the primes up to min(x, y) = 2000, past the ceiling.
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({"sieve_ceiling": 1000}))
        proc = run_cli("exact", "psi", "--x", "5000", "--y", "2000",
                       env_extra={"SMOOTHDIV_CONFIG": str(cfg)})
        assert proc.returncode == EXIT_RESOURCE

    def test_unreachable_table_target_is_resource_error(self, tmp_path, capsys):
        # No table build certifies 1e-30; that is a resource limit, not exit 1.
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({"target_rel_err": 1e-30}))
        code = cli.main(["--config", str(cfg), "special", "--fn", "rho", "--u", "2"])
        err = capsys.readouterr().err
        assert code == EXIT_RESOURCE
        assert err.startswith("resource error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("raw", [{"rho_u_max": 100000},
                                     {"rho_u_max": 136, "target_rel_err": 1.0},
                                     {"rho_u_max": 130, "target_rel_err": 1.0},
                                     {"rho_u_max": 133, "target_rel_err": 1.0},
                                     {"rho_u_max": 135, "target_rel_err": 1.0}])
    def test_uncertifiable_rho_ceiling_is_resource_error(self, tmp_path, capsys, raw):
        # rho(u_max) below the smallest normal double: refused at once, not
        # after a build that cannot succeed (at u_max = 100000, one of degree
        # 1.18M), nor passed with a broken certificate under a loose target
        # (u_max = 135 exited 0 with a certificate of 1).
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps(raw))
        code = cli.main(["--config", str(cfg), "special", "--fn", "rho", "--u", "3"])
        out, err = capsys.readouterr()
        assert code == EXIT_RESOURCE and out == ""
        assert err.startswith("resource error: dickman table u_max=") and err.count("\n") == 1
        assert "cannot be certified" in err

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        proc = run_cli("--config", str(cfg), "exact", "psi", "--x", "100", "--y", "5")
        assert proc.returncode == EXIT_USAGE

    @pytest.mark.parametrize("raw", [
        {"epsilon": "abc"},
        {"epsilon": True},
        {"epsilon": None},
        {"sieve_ceiling": 1.5},
        {"rho_u_max": 100.0},
        {"omega_u_cut": False},
        [1, 2],
    ])
    def test_config_type_errors_name_the_key(self, tmp_path, raw):
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps(raw))
        with pytest.raises(UsageError) as err:
            load_settings(str(cfg))
        if isinstance(raw, dict):
            assert repr(next(iter(raw))) in str(err.value)

    @pytest.mark.parametrize("raw", [
        {"abs_tol": -1},
        {"rel_tol": 0},
        {"target_rel_err": -1e-10},
        {"abs_tol": math.nan},
        {"rel_tol": math.inf},
        {"target_rel_err": -math.inf},
        {"sieve_ceiling": 1},
        {"sieve_ceiling": -5},
        {"epsilon": math.nan},  # json reads NaN and Infinity
        {"epsilon": -math.inf},
    ])
    def test_config_range_errors_name_the_key(self, tmp_path, capsys, raw):
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps(raw))
        code = cli.main(["--config", str(cfg), "special", "--fn", "rho", "--u", "2"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert repr(next(iter(raw))) in err

    def test_defaults_and_boundary_values_load(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
        assert load_settings(None) == cli.Settings()
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({"abs_tol": 1e-300, "rel_tol": 1, "target_rel_err": 0.5,
                                   "sieve_ceiling": 2}))
        s = load_settings(str(cfg))
        assert (s.abs_tol, s.rel_tol, s.target_rel_err, s.sieve_ceiling) == (1e-300, 1.0, 0.5, 2)

    def test_config_accepts_numbers_for_float_fields(self, tmp_path):
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({"epsilon": 1, "abs_tol": 1e-14, "sieve_ceiling": 1000}))
        s = load_settings(str(cfg))
        assert (s.epsilon, s.abs_tol, s.sieve_ceiling) == (1.0, 1e-14, 1000)
        assert isinstance(s.epsilon, float)

    def test_config_type_error_exits_usage(self, tmp_path):
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({"epsilon": "abc"}))
        proc = run_cli("--config", str(cfg), "estimate", "psi-h", "--x", "1e6", "--y", "1e3")
        assert proc.returncode == EXIT_USAGE
        assert "'epsilon'" in proc.stderr
        assert "Traceback" not in proc.stderr


# sha256 of stdout for one argv per kind of each subcommand, plus one CSV and
# one table record.  Recorded before the kind dispatch moved into the
# harness registry; any change to these bytes is a change of output.
PINNED_STDOUT = [
    (("estimate", "theta", "--x", "1e12", "--y", "1e4", "--z", "1e6"),
     "7edd97a67a5321ca7aab05d37d421b49e117cb68f088d5663f2fbdc20bc1f310"),
    (("estimate", "psi-h", "--x", "1e6", "--y", "1e3"),
     "c0bfd2ce694e15334dce7099a94e7b24fd2feaeb4c7766d0402bc03bd811d41e"),
    (("estimate", "psi-s", "--x", "1e6", "--y", "1e3"),
     "ff06104b5e8c599afb72b826164a06a7b1e0c6d5b95b98f81c1ee794ce601db4"),
    (("estimate", "phi", "--x", "1e6", "--y", "50"),
     "67ebb18d313e7372e79d7bf869eeb70ba14d557d4206bb1594601b06eb201aa7"),
    (("estimate", "s", "--y", "1e4", "--z", "1e8"),
     "d592cc2796ecb69dc6d93ed0d106f90a54853b0c40004f8f780d49abc185f076"),
    (("estimate", "lemma6", "--x", "1e6", "--y", "50", "--z", "500"),
     "d19ca2530cab577b91c2d80d0c6edba490aa197260b113a7dfb6d055b4fced0f"),
    (("exact", "theta", "--x", "1e4", "--y", "20", "--z", "100"),
     "198a23b5bfd33ea93c37522bed1a22e21644d3984f1d74f22382b6f91108b9d5"),
    (("exact", "psi", "--x", "1e4", "--y", "7"),
     "d1942d2145d23aeb9e94736387d78f902ce66b408a38c8cf6e74557e4ebc2928"),
    (("exact", "phi", "--x", "1e4", "--y", "20"),
     "bc2ea2461252d5d8e565382a2e9b7b4e74b382b78f480302511369b290de5af5"),
    (("exact", "s", "--y", "100", "--z", "1e3"),
     "f35197d0fcf8e03841b1d2308457774fde00c59162b21551eb28b60c0a8a4a6e"),
    (("exact", "smoothpart", "--n", "360", "--y", "5"),
     "acf2e00c5a743f094e9a4525fb7778a06263cecf3766721aebd06684ea626233"),
    (("compare", "--kind", "theta", "--x", "1e4,1e5", "--u", "3", "--v", "1.5"),
     "8479df8a849d8f822cdc3583b19c5efcd0e796afefba4bc4057498a807d09b75"),
    (("compare", "--kind", "psi-h", "--x", "1e4,1e5", "--u", "2.5"),
     "f47fce339485f9fe3e3f5260fa55d49d7786a426dc0925d3c348510e9219805c"),
    (("compare", "--kind", "psi-s", "--x", "1e4,1e5", "--u", "2.5"),
     "0c54a8786eb7295c9d67edc93716064daaff1e8fd8142faf45c4ce1f9050b6e6"),
    (("compare", "--kind", "phi", "--x", "1e4,1e5", "--y", "20"),
     "15f804b2094b3aa6e2f04f950fc0fcabafb300aae86d76b41a0689f02f8f7806"),
    (("compare", "--kind", "s", "--x", "1e4", "--y", "100", "--z", "1e3"),
     "5f0b1d74f65fd91c91f85850078cf6dca72a45b02a9a095c32ee305958ac7203"),
    (("compare", "--kind", "lemma6", "--x", "1e5,1e6", "--y", "50", "--z", "500"),
     "db1bcfca07006c98cfa25e9c730a30781b0e1fe748348d7041d41437bb4138a0"),
    (("estimate", "theta", "--x", "1e12", "--y", "1e4", "--z", "1e6", "--format", "csv"),
     "3634c9643597bd01163b2611fa0c2ed25a443bc6cdece59bbab436493d633832"),
    (("exact", "psi", "--x", "1e4", "--y", "7", "--format", "table"),
     "cc072452632bdfa1b14706922c715f660090f05d6070568533b0ee0a2d78eaab"),
    (("special", "--fn", "rho", "--u", "7.3"),
     "d61dbf7dfe0a818537013c34e556182950c0a7862f4e0c9e40612fa29cef09d5"),
    (("special", "--fn", "rho1", "--u", "3.7"),
     "f6be66418330c439145f3504ee7799a9b3960112bafc0c1be04721f776959dac"),
    (("special", "--fn", "rho2", "--u", "2.5"),
     "347abd0b63f1afc687b173de7e3d84a181b30ec2f3576d00a73034b229a74fc2"),
    (("special", "--fn", "omega", "--u", "4.25"),
     "931cbef9fedbd8189c0366b2be817fbf9c318d8201c40bb1c58a836fe7a46fc5"),
    (("special", "--fn", "omega1", "--u", "2.5"),
     "129a6b3ef5f81d8e392ca34379851f26fb2888800dc40deb39c260952a3a9410"),
    (("validate", "special"), "37e81ee9aff75a7c6888310bac26af4f9ac3c1541e656540e17c2c9d7d10d4e1"),
    (("validate", "convolution"),
     "c52202ac4ae7f3858f933c57d77ce4e7a0eafd1e132afac553a46fd6f9c1016a"),
    # Monte Carlo on the int64 path (k <= 62) and the big-int path.
    (("dsa-risk", "--k", "40", "--l", "10", "--m", "20", "--empirical", "20000", "--seed", "7"),
     "c86fea9db44920e6999ec202ed55328abec9de5b8a3c40a806127e141944dfd2"),
    (("dsa-risk", "--k", "100", "--l", "14", "--m", "30", "--empirical", "2000", "--seed", "7"),
     "43af5f4f2c48e32618261d0aaba436c534b30d525dcee5d6bb775220da993f16"),
    # eta alone: the headline; u = 100, where C_or and C_or' are cut at
    # different knots and pieces are bisected; m < l, so v < 1.
    (("dsa-risk", "--k", "863", "--l", "80", "--m", "160"),
     "8de7d50b897f0531d5386474be471c1b5179e8537ab23cda775900517afda48e"),
    (("dsa-risk", "--k", "4000", "--l", "40", "--m", "60"),
     "554773c470be1cb5cb0412e43ecdb448b259d2bd685ed846b5af205b55370ab3"),
    (("dsa-risk", "--k", "100", "--l", "20", "--m", "10"),
     "8dacd5c8be56fa21c435a153931f6c0ee66e87c0b7ca38469f6e25e801413bfa"),
    (("validate", "estimators"),
     "ab666b701c4fbabbc6b0d30fce3711a6c7e4ee669e526a1fd276f80cb99c5801"),
    # Recorded before the convolution suite's checks were batched and the
    # special suite's Simpson rule took arrays.
    (("validate", "oracle"), "f0d6c0e4622bc9f3b993e0cc5c558f51623ed68daba6e7cbd68dff679163bd66"),
    (("validate", "all"), "364a36cb580c6c120df7123099d7c54ba40b7b1ebc5882e00e10345fd5bc92c7"),
]


# The same, on tables built to a non-default size.  Recorded before the table
# construction moved from Decimal to binary fixed point.
SMALL_TABLES = {"rho_u_max": 30, "omega_u_cut": 20}
PINNED_STDOUT_SMALL_TABLES = [
    (("special", "--fn", "rho", "--u", "7.3"),
     "be4faa839969f5c9640d7b279ea9b4e0e564474e5558b3fde81bda7774bccdc0"),
    (("validate", "special"), "05a2e4b7221e64b7663aa9e18351470773e4ab17f676c4f05cc4ce74fb2c7547"),
]


class TestPinnedOutput:
    @pytest.mark.parametrize("argv, digest", PINNED_STDOUT,
                             ids=[" ".join(argv) for argv, _ in PINNED_STDOUT])
    def test_stdout_bytes(self, argv, digest, capsys, monkeypatch):
        monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
        assert cli.main(list(argv)) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, digest", PINNED_STDOUT_SMALL_TABLES,
                             ids=[" ".join(argv) for argv, _ in PINNED_STDOUT_SMALL_TABLES])
    def test_stdout_bytes_small_tables(self, argv, digest, capsys, tmp_path):
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps(SMALL_TABLES))
        assert cli.main(["--config", str(cfg), *argv]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSharedParser:
    """One parser serves every ``cli.main`` call in a process."""

    def test_calls_stay_independent(self, capsys, monkeypatch, tmp_path):
        monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
        assert cli.build_parser() is cli.build_parser()
        with pytest.raises(SystemExit) as exc:  # argparse's own usage error
            cli.main(["special", "--fn", "nope", "--u", "1"])
        assert exc.value.code == EXIT_USAGE
        assert cli.main(["estimate", "theta", "--x", "1e6"]) == EXIT_USAGE
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        missing = str(tmp_path / "missing.json")
        assert cli.main(["--config", missing, "special", "--fn", "rho", "--u", "2"]) == EXIT_USAGE
        capsys.readouterr()
        argv, digest = PINNED_STDOUT[0]
        assert cli.main(list(argv)) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_help_is_laid_out_per_call(self, capsys, monkeypatch):
        helps = {}
        for columns in (60, 120):
            monkeypatch.setenv("COLUMNS", str(columns))
            with pytest.raises(SystemExit) as exc:
                cli.main(["compare", "--help"])
            assert exc.value.code == 0
            helps[columns] = capsys.readouterr().out
        assert helps[60] != helps[120]
        assert helps[60].count("\n") > helps[120].count("\n")


# -- the exit-code contract over random argv --------------------------------------

# Finite draws span every float: each sieve stays under the config's ceiling
# of 1e6, and each count within the work bound.
_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, -7.5, 1.0, 2.0, 2.5, 1e-300, -1e-300, 1e300, -1e300,
                     math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=False, allow_infinity=False),
)
# Huge integers are ones numpy refuses to allocate for outright; a k near
# 2**32 would draw gigabytes of sample words.
_INTS = st.one_of(st.integers(-3, 100),
                  st.sampled_from([2**62, 2**64, 2**128, 2**128 - 1, 10**40, 10**400]))


def _flag(name, values):
    """``--name=value`` (the = keeps a negative value from reading as a flag)."""
    return values.map(lambda v: [f"--{name}={v!r}"])


def _maybe(name, values):
    return st.one_of(st.just([]), _flag(name, values))


def _argv(head, *flags):
    return st.tuples(*flags).map(lambda parts: head + [t for part in parts for t in part])


_EXACT_KINDS = [k for k, e in cli.KINDS.items() if e.exact_command]
_ARGV = st.one_of(
    st.sampled_from(["rho", "rho1", "rho2", "omega", "omega1"]).flatmap(
        lambda fn: _argv(["special", f"--fn={fn}"], _flag("u", _FLOATS))),
    st.sampled_from(cli._ESTIMATE_KINDS).flatmap(
        lambda kind: _argv(["estimate", kind], _maybe("x", _FLOATS), _maybe("y", _FLOATS),
                           _maybe("z", _FLOATS), _maybe("epsilon", _FLOATS))),
    st.sampled_from(_EXACT_KINDS).flatmap(
        lambda kind: _argv(["exact", kind], _maybe("x", _FLOATS), _maybe("y", _FLOATS),
                           _maybe("z", _FLOATS), _maybe("n", _FLOATS))),
    st.sampled_from(cli._ESTIMATE_KINDS).flatmap(
        lambda kind: _argv(
            ["compare", f"--kind={kind}"],
            st.lists(_FLOATS, min_size=1, max_size=3).map(
                lambda xs: ["--x=" + ",".join(map(repr, xs))]),
            _maybe("u", _FLOATS), _maybe("y", _FLOATS), _maybe("v", _FLOATS),
            _maybe("z", _FLOATS))),
    _argv(["dsa-risk"], _flag("k", _INTS), _flag("l", _INTS), _flag("m", _INTS),
          _maybe("empirical", st.one_of(st.integers(-2, 40), st.sampled_from([2**62, 10**40]))),
          _maybe("seed", _INTS)),
)


# ``exact`` under a ceiling past 2**63, so x, z and n from all of _FLOATS,
# and from the int64 edge itself, reach the counts.  y is drawn small and
# finite: the table lists the primes up to min(y, bound), so no draw sieves
# gigabytes.  A mid-range x beside y near 1e3 is refused by the work bound
# before it walks; each of the derandomised draws runs in milliseconds.
_PAST_INT64 = st.one_of(_FLOATS, st.sampled_from([2.0**63, 1e19, 1e20]))
_EXACT_PAST_INT64 = st.sampled_from(_EXACT_KINDS).flatmap(
    lambda kind: _argv(["exact", kind], _maybe("x", _PAST_INT64),
                       _maybe("y", st.floats(-10.0, 1e3)), _maybe("z", _PAST_INT64),
                       _maybe("n", _PAST_INT64)))


@pytest.fixture(scope="module")
def ceiling_configs(tmp_path_factory):
    """Config paths by ceiling: 1e6, and 1e20, past 2**63."""
    configs = {}
    for ceiling in (10**6, 10**20):
        path = tmp_path_factory.mktemp("config") / "conf.json"
        path.write_text(json.dumps({"sieve_ceiling": ceiling}))
        configs[ceiling] = str(path)
    return configs


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(case=st.one_of(st.tuples(st.just(10**6), _ARGV),
                      st.tuples(st.just(10**20), _EXACT_PAST_INT64)))
def test_any_argv_exits_with_a_contract_code(ceiling_configs, case):
    # 0 success, 2 usage, 3 resource, 4 domain; 1 belongs to validate alone.
    # Every error but argparse's own is one line on stderr.
    ceiling, argv = case
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["--config", ceiling_configs[ceiling], *argv])
        except SystemExit as exc:  # argparse rejects bad argv this way
            assert exc.code == EXIT_USAGE, (argv, err.getvalue())
            return
    assert code in (0, EXIT_USAGE, EXIT_RESOURCE, EXIT_DOMAIN), (argv, code, err.getvalue())
    assert err.getvalue().count("\n") == (code != 0), (argv, err.getvalue())


# -- exact and compare sieve only the primes up to y ----------------------------------


def _main(argv):
    """(exit code, stdout) of one in-process ``cli.main`` call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


_Y_EDGES = st.sampled_from([math.inf, -math.inf, -1.0, 0.0, 0.5, 1.0, 1.999, 2.0, 2.5,
                            math.nan])
_Z_EDGES = st.sampled_from([-math.inf, -1.0, 0.0, 0.5, 0.999, 1.0, math.inf])


@st.composite
def _exact_or_compare_argv(draw):
    """``exact`` or ``compare`` argv of any kind at desk scale, y and z drawn
    beside the edges: y = inf, y >= x, y < 2 and NaN, z < 1 and z >= x."""
    xs = draw(st.lists(st.one_of(st.integers(1, 20000), st.floats(0.5, 2e4)),
                       min_size=1, max_size=3))
    x = max(xs)
    y = draw(st.one_of(_Y_EDGES, st.floats(0.0, 3e4), st.just(float(x)),
                       st.floats(float(x), 1e6), st.floats(2.0, max(2.0, x**0.5))), "y")
    # The last z lies in the estimates' window 1 <= z <= x/y where it exists.
    window = x / y if 2.0 <= y < math.inf else x
    z = draw(st.one_of(_Z_EDGES, st.floats(1.0, max(1.0, float(x))), st.just(float(x)),
                       st.floats(float(x), 1e5), st.floats(1.0, max(1.0, window))), "z")
    values = {"x": x, "y": y, "z": z, "n": max(1, math.floor(x))}
    if draw(st.booleans()):
        kind = draw(st.sampled_from(_EXACT_KINDS))
        return ["exact", kind, *(f"--{k}={values[k]!r}" for k in cli.KINDS[kind].params)]
    kind = draw(st.sampled_from(cli._ESTIMATE_KINDS))
    argv = ["compare", f"--kind={kind}", "--x=" + ",".join(map(repr, xs)), f"--y={y!r}"]
    return argv + ([f"--z={z!r}"] if "z" in cli.KINDS[kind].params else [])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(argv=_exact_or_compare_argv())
def test_exact_and_compare_answer_as_on_a_full_sieve(argv):
    # The reference sieves every prime up to the counting bound and counts
    # theta by the blocked route.
    got = _main(argv)
    sieve_for = cli._sieve_for
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_sieve_for", lambda bound, settings, y: sieve_for(bound, settings))
        mp.setattr(oracle, "theta_exact_decomposed", oracle.theta_exact)
        want = _main(argv)
    assert got == want, argv
    if any(a.startswith("--y=nan") for a in argv):
        assert got == (EXIT_DOMAIN, ""), argv


_GUARD_ARGV = [
    (["exact", "theta", "--x", "1e5", "--y", "50", "--z", "100"], 50),
    (["exact", "psi", "--x", "1e5", "--y", "30"], 30),
    (["exact", "psi", "--x", "1000", "--y", "1e5"], 1000),
    (["exact", "phi", "--x", "1e5", "--y", "20"], 20),
    (["exact", "s", "--y", "40", "--z", "1e5"], 40),
    (["exact", "smoothpart", "--n", "99991", "--y", "12"], 12),
    (["exact", "smoothpart", "--n", "360", "--y", "1e4"], 360),
    (["compare", "--kind", "theta", "--x", "1e4,1e5", "--u", "3", "--v", "1.5"], 46),
    (["compare", "--kind", "theta", "--x", "100,1000", "--y", "1e4", "--z", "10"], 1000),
    (["compare", "--kind", "psi-h", "--x", "1e4,1e5", "--u", "2.5"], 100),
    (["compare", "--kind", "psi-s", "--x", "1e4,1e5", "--y", "30"], 30),
    (["compare", "--kind", "phi", "--x", "1e4,1e5", "--y", "20"], 20),
    (["compare", "--kind", "s", "--x", "100", "--y", "40", "--z", "1e5"], 40),
    (["compare", "--kind", "lemma6", "--x", "1e5,1e6", "--y", "50", "--z", "500"], 50),
]


@pytest.mark.parametrize("argv, most", _GUARD_ARGV, ids=[" ".join(a) for a, _ in _GUARD_ARGV])
def test_nothing_is_sieved_past_y_or_the_counting_bound(argv, most, monkeypatch):
    # ``most`` is min(largest y, counting bound), rounded down: the table's
    # primes and the Euler product's (up to y) both stay within it.  Both
    # lists come from the prime stream, which every prime list enters.
    sieved = []
    real = oracle._prime_blocks
    monkeypatch.setattr(oracle, "_prime_blocks", lambda n: sieved.append(n) or real(n))
    assert _main(argv)[0] == 0
    assert sieved and max(sieved) <= most, sieved


def test_a_non_default_omega_cut_builds_no_rho_table(tmp_path, monkeypatch):
    # Each table is picked on its own: only omega leaves its defaults, so the
    # default rho table is loaded and the Dickman construction never runs.
    built = []
    real = special._dickman_segments
    monkeypatch.setattr(special, "_dickman_segments",
                        lambda *args: built.append(args) or real(*args))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"omega_u_cut": 40}))
    cli._omega_table_for.cache_clear()
    special.default_dickman.cache_clear()
    code, out = _main(["--config", str(cfg), "estimate", "theta",
                       "--x", "1e12", "--y", "1e4", "--z", "1e6"])
    assert code == 0 and built == []
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7edd97a67a5321ca7aab05d37d421b49e117cb68f088d5663f2fbdc20bc1f310")


def test_exact_s_sieves_the_primes_up_to_y_once(monkeypatch):
    # The table's primes reach y = z, so the Euler product takes them: one
    # prime stream, not a second one inside zeta_one_y.  A stream lists its
    # primes to sqrt(n) through a stream one level down, which is not
    # counted: only the streams opened outside another.
    want = _main(["exact", "s", "--y", "1e6", "--z", "1e6"])
    sieved, depth = [], [0]
    real = oracle._prime_blocks

    def spy(n):
        if depth[0] == 0:
            sieved.append(n)
        depth[0] += 1
        try:
            yield from real(n)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(oracle, "_prime_blocks", spy)
    assert _main(["exact", "s", "--y", "1e6", "--z", "1e6"]) == want
    assert want[0] == 0 and sieved == [10**6]


@pytest.mark.parametrize("argv", [
    ["exact", "psi", "--x", "2e8", "--y", "100"],
    ["exact", "theta", "--x", "2e8", "--y", "50", "--z", "1e4"],
    ["exact", "s", "--y", "100", "--z", "1e8"],
], ids=lambda argv: " ".join(argv))
def test_exact_peak_is_far_below_a_sieve_to_the_bound(argv):
    # A sieve to 2e8 peaked at ~180 MiB (~92 MiB to 1e8 for s); the primes
    # up to y and the counts' own buffers take a few MiB.
    tracemalloc.start()
    try:
        code, _ = _main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 12 * 2**20
