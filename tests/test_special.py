import fnmatch
import hashlib
import math
import tomllib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from smoothdiv import (
    ConstructionError,
    build_buchstab_table,
    DomainError,
    EULER_GAMMA,
    EXP_GAMMA,
    EXP_NEG_GAMMA,
    build_dickman_table,
    omega,
    omega_prime,
    rho,
    rho_double_prime,
    rho_prime,
)
from smoothdiv import cli, special
from smoothdiv.piecewise import save_piecewise
from smoothdiv.special import dickman_degree_for, omega_deviations_decimal

from oracles import (
    RHO_3,
    buchstab_coeffs_decimal,
    dickman_coeffs_decimal,
    omega_deviations_decimal_60,
    rho_closed,
    rho_delay_grid,
    simpson_halving,
)


class TestConstants:
    def test_gamma_product(self):
        prod = EXP_GAMMA * EXP_NEG_GAMMA
        assert abs(prod - 1.0) <= 4 * np.finfo(float).eps

    def test_gamma_value(self):
        assert EULER_GAMMA == pytest.approx(0.5772156649015329, rel=0, abs=0)


class TestRho:
    def test_constant_on_unit_interval(self, dickman):
        assert rho(0.5, dickman) == 1.0
        assert rho(0.0, dickman) == 1.0
        assert rho(1.0, dickman) == 1.0

    def test_one_to_two_closed_form(self, dickman):
        assert rho(1.5, dickman) == pytest.approx(1 - math.log(1.5), rel=1e-12)

    def test_below_zero(self, dickman):
        assert rho(-1.0, dickman) == 0.0
        assert rho(-0.001, dickman) == 0.0

    def test_rho_3_against_independent_oracles(self, dickman):
        # Two independent oracles must agree with each other and the table.
        assert rho_closed(3.0) == pytest.approx(RHO_3, rel=1e-12)
        assert rho_delay_grid(3.0) == pytest.approx(RHO_3, rel=1e-11)
        assert rho(3.0, dickman) == pytest.approx(RHO_3, rel=1e-10)

    def test_vector_matches_scalar(self, dickman):
        us = np.array([-1.0, 0.3, 1.7, 2.9, 14.2, 60.0])
        vec = rho(us, dickman)
        for u, v in zip(us, vec):
            assert rho(float(u), dickman) == v

    def test_underflow_reports_zero(self, dickman):
        assert rho(90.0, dickman) == 0.0
        assert rho(150.0, dickman) == 0.0  # beyond ceiling, but underflowed

    def test_ceiling_error_names_ceiling(self):
        small = build_dickman_table(u_max=12)
        with pytest.raises(DomainError, match="u_max=12"):
            rho(15.0, small)

    def test_non_finite_rejected(self, dickman):
        with pytest.raises(DomainError):
            rho(float("nan"), dickman)
        with pytest.raises(DomainError):
            rho(float("inf"), dickman)


class TestRhoPrime:
    def test_flat_region(self, dickman):
        assert rho_prime(0.5, dickman) == 0.0

    def test_forced_by_delay_ode(self, dickman):
        assert rho_prime(1.5, dickman) == pytest.approx(-1.0 / 1.5, rel=1e-12)
        assert rho_prime(2.5, dickman) == pytest.approx(-(1 - math.log(1.5)) / 2.5, rel=1e-12)

    def test_right_continuous_at_one(self, dickman):
        assert rho_prime(1.0, dickman) == -1.0

    def test_domain(self, dickman):
        with pytest.raises(DomainError):
            rho_prime(0.0, dickman)
        with pytest.raises(DomainError):
            rho_prime(-2.0, dickman)


class TestRhoDoublePrime:
    def test_on_one_two(self, dickman):
        assert rho_double_prime(1.5, dickman) == pytest.approx(1 / 2.25, rel=1e-12)

    def test_closed_form_two_three(self, dickman):
        expected = ((1 - math.log(1.5)) + 2.5 / 1.5) / 6.25
        assert rho_double_prime(2.5, dickman) == pytest.approx(expected, rel=1e-12)

    def test_right_continuous_at_two(self, dickman):
        # limit from the right: (rho(1) - 2 rho'(1+)) / 4 = (1 + 2) / 4
        assert rho_double_prime(2.0, dickman) == pytest.approx(0.75, rel=1e-12)

    def test_positive_at_four(self, dickman):
        assert rho_double_prime(4.0, dickman) > 0.0

    def test_domain(self, dickman):
        with pytest.raises(DomainError):
            rho_double_prime(1.0, dickman)


class TestOmega:
    def test_one_over_u(self, buchstab):
        assert omega(1.7, buchstab) == pytest.approx(1 / 1.7, rel=1e-10)

    def test_below_one(self, buchstab):
        assert omega(0.9, buchstab) == 0.0
        assert omega(-3.0, buchstab) == 0.0

    def test_two_to_three_closed_form(self, buchstab):
        assert omega(2.5, buchstab) == pytest.approx((1 + math.log(1.5)) / 2.5, rel=1e-10)

    def test_converges_to_constant(self, buchstab):
        assert omega(20.0, buchstab) == pytest.approx(EXP_NEG_GAMMA, abs=1e-9)
        assert omega(35.0, buchstab) == EXP_NEG_GAMMA

    def test_non_finite_rejected(self, buchstab):
        with pytest.raises(DomainError):
            omega(float("inf"), buchstab)


class TestOmegaPrime:
    def test_vanishing_delayed_term(self, buchstab):
        assert omega_prime(1.5, buchstab) == pytest.approx(-(2 / 3) / 1.5, rel=1e-10)

    def test_closed_forms(self, buchstab):
        expected = (2 / 3 - (1 + math.log(1.5)) / 2.5) / 2.5
        assert omega_prime(2.5, buchstab) == pytest.approx(expected, rel=1e-9)

    def test_right_continuous_at_one(self, buchstab):
        assert omega_prime(1.0, buchstab) == -1.0

    def test_flat_in_the_tail(self, buchstab):
        assert abs(omega_prime(25.0, buchstab)) <= 1e-9

    def test_domain(self, buchstab):
        with pytest.raises(DomainError):
            omega_prime(0.99, buchstab)


@pytest.mark.parametrize("fn, bad, message", [
    (rho_prime, 0.0, "rho_prime requires finite u > 0"),
    (rho_double_prime, 1.0, "rho_double_prime requires finite u > 1"),
    (omega_prime, 0.99, "omega_prime requires finite u >= 1"),
])
@pytest.mark.parametrize("wrap", [float, lambda u: np.array([2.5, u])], ids=["scalar", "array"])
def test_derivative_domain_message(fn, bad, message, wrap):
    for u in (bad, math.nan, math.inf):
        with pytest.raises(DomainError) as exc:
            fn(wrap(u))
        assert str(exc.value) == message


class TestDelayOdeIdentities:
    def test_rho_identity(self, dickman):
        rng = np.random.Generator(np.random.Philox(key=11))
        for u in rng.uniform(1.0, 40.0, size=200):
            u = float(u)
            lhs = u * rho(u, dickman)
            rhs = dickman.integral(max(u - 1.0, 0.0), u)
            assert abs(lhs - rhs) <= 1e-8 * abs(lhs)

    def test_rho_identity_simpson_crosscheck(self, dickman):
        rng = np.random.Generator(np.random.Philox(key=12))
        for u in rng.uniform(1.5, 25.0, size=10):
            u = float(u)
            k = float(math.floor(u))
            integral = (simpson_halving(lambda s: rho(s, dickman), u - 1.0, k)
                        + simpson_halving(lambda s: rho(s, dickman), k, u))
            assert u * rho(u, dickman) == pytest.approx(integral, rel=1e-8)

    def test_omega_identity(self, buchstab):
        rng = np.random.Generator(np.random.Philox(key=13))
        for u in rng.uniform(2.0, 30.0, size=200):
            u = float(u)
            lhs = u * omega(u, buchstab)
            rhs = 1.0 + buchstab.integral(1.0, u - 1.0)
            assert abs(lhs - rhs) <= 1e-9


class TestShapeInvariants:
    def test_rho_monotone_and_bounded(self, dickman):
        grid = np.linspace(1.0, 40.0, 801)
        vals = rho(grid, dickman)
        assert np.all(np.diff(vals) < 0.0)
        grid = np.linspace(0.0, 60.0, 801)
        vals = rho(grid, dickman)
        assert np.all(vals > 0.0) and np.all(vals <= 1.0)

    def test_omega_range(self, buchstab):
        grid = np.linspace(1.0, 35.0, 801)
        vals = omega(grid, buchstab)
        assert np.all(vals >= 0.5) and np.all(vals <= 1.0)

    def test_omega_deviations_shrink(self):
        devs = omega_deviations_decimal()
        # Strict decay from 5 on; omega(4) sits within ~1e-6 of a node of the
        # oscillation, so 4 -> 5 is the one non-monotone step.
        assert all(a > b for a, b in zip(devs[2:-1], devs[3:]))
        assert devs[0] > devs[1] and devs[0] > devs[2]
        assert devs[-1] < 1e-20

    def test_derivative_log_bound(self, dickman):
        ts = np.linspace(1.5, 30.0, 401)
        ratios = [abs(rho_prime(float(t), dickman)) / (rho(float(t), dickman) * math.log1p(float(t)))
                  for t in ts]
        assert max(ratios) <= 3.0

    def test_rho_prime_matches_segment_derivative(self, dickman):
        rng = np.random.Generator(np.random.Philox(key=14))
        count = 0
        for u in rng.uniform(0.05, 40.0, size=120):
            u = float(u)
            if abs(u - round(u)) < 1e-6:
                continue
            a = rho_prime(u, dickman) if u > 0 else 0.0
            b = dickman.derivative_value(u)
            assert abs(a - b) <= 1e-8 * max(abs(a), abs(b), 1e-300)
            count += 1
        assert count >= 100


class TestConstruction:
    def test_insufficient_degree_fails_loudly(self):
        # No table of doubles meets 1e-30.
        with pytest.raises(ConstructionError, match="certificate"):
            build_dickman_table(u_max=40, target_rel_err=1e-30)

    def test_certificate_stored_per_segment(self, dickman, buchstab):
        assert dickman.certificate.shape == (dickman.n_segments,)
        assert dickman.max_certificate <= dickman.target_rel_err
        assert buchstab.max_certificate <= buchstab.target_rel_err

    @pytest.mark.parametrize("u_max", [130, 133, 135, 136, 400, 100000])
    def test_rho_below_the_doubles_is_refused_before_building(self, u_max):
        # rho(130) ~ 1e-308 is below the normal doubles and rho(136) ~ 1e-325
        # below every double; no target, however loose, lets such a table
        # through, and nothing is built to find that out.
        tracemalloc.start()
        try:
            with pytest.raises(ConstructionError, match=f"u_max={u_max} cannot be certified"):
                build_dickman_table(u_max=u_max, target_rel_err=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_long_buchstab_table_resolves_its_tails(self):
        # omega - e**-gamma decays faster than rho; the scale still keeps
        # every coefficient, far past where they all round to +-0.
        table = build_buchstab_table(u_cut=400)
        assert table.max_certificate <= table.target_rel_err
        assert np.all(table.coeffs[-1, 1:] == 0.0)

    @pytest.mark.parametrize("build", [lambda: build_dickman_table(u_max=30),
                                       lambda: build_buchstab_table(u_cut=20)],
                             ids=["dickman", "buchstab"])
    def test_too_coarse_scale_fails_loudly(self, build, monkeypatch):
        # A scale that cannot resolve the series tails would round their
        # signs at random; the build names the scale instead.
        monkeypatch.setattr(special, "_scale_bits", lambda digits, degree: 200)
        with pytest.raises(ConstructionError, match=r"scale 2\*\*-200 keeps only"):
            build()


class TestAgainstDecimalConstruction:
    """The fixed-point tables against the same recurrences run in Decimal
    (tests/oracles.py), bit for bit: the int64 views make signed zeros count."""

    @pytest.mark.parametrize("u_max", [2, 3, 5, 12, 30, 64, 100])
    def test_dickman_coefficients(self, u_max):
        got = build_dickman_table(u_max=u_max).coeffs
        want = dickman_coeffs_decimal(u_max, dickman_degree_for(u_max))
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("u_cut", [3, 10, 20, 30])
    def test_buchstab_coefficients(self, u_cut):
        got = build_buchstab_table(u_cut=u_cut).coeffs
        want = buchstab_coeffs_decimal(u_cut, special.BUCHSTAB_DEGREE)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_omega_deviations(self):
        assert omega_deviations_decimal() == omega_deviations_decimal_60()


def _sha256_of_saved(table, tmp_path):
    path = tmp_path / "table.json"
    save_piecewise(table, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestTableBits:
    """Digests of the built tables: coefficients, certificates and trimmed
    evaluation rows must keep their bits whenever construction is refactored."""

    SAVED = {
        "dickman": "b2932deff18bda324ddbbcae730e141e84c5a7c8f8168d57eaaf76c3334beb58",
        "buchstab": "c1b1e6c79116ab949cc5c720b1e71fdac3be1ac992f57229581f31e9b89a5696",
        "dickman_u12": "12982dfaf19b015bc7430699b80d207f71f6e923b2f218ba7b56578c3358b11c",
    }
    HORNER_COLS = {
        "dickman": ((36, 100), "f4c9af3cc8439da3ec5de0591698756fefc10b2361a33a520f2762cd20d48045"),
        "buchstab": ((39, 29), "51bfe97b7a77f8c748bba9f826154edd972ff4c605c8dcafda3e979e9650ee8f"),
    }

    def test_saved_tables(self, dickman, buchstab, tmp_path):
        tables = {
            "dickman": dickman,
            "buchstab": buchstab,
            "dickman_u12": build_dickman_table(u_max=12),
        }
        for name, table in tables.items():
            assert _sha256_of_saved(table, tmp_path) == self.SAVED[name], name

    def test_trimmed_evaluation_rows(self, dickman, buchstab):
        for name, table in (("dickman", dickman), ("buchstab", buchstab)):
            shape, digest = self.HORNER_COLS[name]
            cols = table._horner_cols
            assert cols.shape == shape, name
            assert hashlib.sha256(cols.tobytes()).hexdigest() == digest, name


@pytest.fixture(scope="module")
def built_dickman():
    return build_dickman_table()


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestShippedDefaultTable:
    """default_dickman() loads build_dickman_table()'s coefficients from the
    package and certifies them afresh; the construction does not run."""

    REGENERATE = f"regenerate the shipped table with: {special._REGENERATE_DEFAULT_DICKMAN}"

    def test_equals_the_built_table(self, dickman, built_dickman):
        for name in ("coeffs", "certificate", "_horner_cols"):
            assert _same_bits(getattr(dickman, name), getattr(built_dickman, name)), (
                f"{name} differs; {self.REGENERATE}")

    def test_loads_without_the_construction(self, built_dickman, monkeypatch):
        def refuse(*args):
            raise AssertionError("default_dickman() ran the fixed-point construction")

        monkeypatch.setattr(special, "_dickman_segments", refuse)
        special.default_dickman.cache_clear()
        try:
            table = special.default_dickman()
        finally:
            special.default_dickman.cache_clear()
        assert _same_bits(table.coeffs, built_dickman.coeffs), self.REGENERATE
        assert _same_bits(table.certificate, built_dickman.certificate), self.REGENERATE

    def test_declared_as_package_data(self):
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as f:
            patterns = tomllib.load(f)["tool"]["setuptools"]["package-data"]["smoothdiv"]
        shipped = special._DEFAULT_DICKMAN_FILE
        assert shipped.is_file() and shipped.parent == Path(special.__file__).parent
        assert any(fnmatch.fnmatch(shipped.name, pattern) for pattern in patterns)


def _wrong_shape(coeffs):
    return coeffs[:, :-1]


def _perturbed(coeffs):
    # A relative change of 1e-9 in one segment's constant term breaks the
    # delay-ODE identity there far beyond the 1e-10 target.
    bad = coeffs.copy()
    bad[40, 0] *= 1.0 + 1e-9
    return bad


class TestBadShippedTable:
    """A shipped file that is missing, malformed or uncertifiable is refused:
    no table is built in its place."""

    @pytest.fixture
    def shipped(self, built_dickman, tmp_path, monkeypatch):
        def point_at(make):
            path = tmp_path / "default_dickman.npy"
            if make is not None:
                np.save(path, make(built_dickman.coeffs))
            monkeypatch.setattr(special, "_DEFAULT_DICKMAN_FILE", path)
            monkeypatch.setattr(special, "_dickman_segments", None)  # no fallback build

        special.default_dickman.cache_clear()
        yield point_at
        special.default_dickman.cache_clear()

    @pytest.mark.parametrize("make, reason", [
        (_wrong_shape, r"expected float64 coefficients of shape \(100, 523\)"),
        (_perturbed, r"dickman table certificate .* exceeds target 1\.000e-10"),
        (None, "No such file"),
    ], ids=["wrong-shape", "perturbed", "missing"])
    def test_refused(self, shipped, make, reason, capsys, monkeypatch):
        shipped(make)
        with pytest.raises(ConstructionError, match=reason) as exc:
            special.default_dickman()
        assert special._REGENERATE_DEFAULT_DICKMAN in str(exc.value)
        monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
        assert cli.main(["special", "--fn", "rho", "--u", "5"]) == cli.EXIT_RESOURCE
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("resource error: default rho table ")
