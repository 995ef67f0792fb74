import json
import math
import os
import subprocess
import sys

import pytest

from smoothdiv.cli import (
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

    def test_missing_flag_is_usage_error(self):
        proc = run_cli("estimate", "theta", "--x", "1e6")
        assert proc.returncode == EXIT_USAGE

    def test_csv_and_json_carry_identical_values(self):
        args = ("estimate", "s", "--y", "1e4", "--z", "1e8")
        rec = record_of(run_cli(*args))
        csv = run_cli(*args, "--format", "csv").stdout.splitlines()
        header, row = csv[0].split(","), csv[1].split(",")
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
        proc = run_cli("exact", "psi", "--x", "1e12", "--y", "100")
        assert proc.returncode == EXIT_RESOURCE
        assert "resource error" in proc.stderr


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


class TestValidateCommand:
    def test_special_suite_exits_zero(self):
        proc = run_cli("validate", "special")
        assert proc.returncode == 0
        assert "FAIL" not in proc.stdout


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
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({"sieve_ceiling": 1000}))
        proc = run_cli("exact", "psi", "--x", "5000", "--y", "7",
                       env_extra={"SMOOTHDIV_CONFIG": str(cfg)})
        assert proc.returncode == EXIT_RESOURCE

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
