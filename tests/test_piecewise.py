import hashlib
import json
import math

import numpy as np
import pytest

from smoothdiv import DomainError, load_piecewise, save_piecewise
from smoothdiv.piecewise import PiecewiseFunction
from smoothdiv.special import build_buchstab_table, build_dickman_table

from oracles import piecewise_integral_per_segment


def test_roundtrip_is_bit_identical(tmp_path, dickman):
    path = tmp_path / "dickman.json"
    save_piecewise(dickman, path)
    loaded = load_piecewise(path)
    assert np.array_equal(loaded.knots, dickman.knots)
    assert np.array_equal(loaded.coeffs, dickman.coeffs)
    assert np.array_equal(loaded.certificate, dickman.certificate)
    assert loaded.hi == dickman.hi
    assert loaded.target_rel_err == dickman.target_rel_err
    assert loaded.kind == dickman.kind
    # Saving again reproduces the file byte for byte.
    path2 = tmp_path / "again.json"
    save_piecewise(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_rebuild_is_bit_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_piecewise(build_buchstab_table(u_cut=8), a)
    save_piecewise(build_buchstab_table(u_cut=8), b)
    assert a.read_bytes() == b.read_bytes()


def test_schema_tag_checked(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps({"schema": "something-else/9", "kind": "dickman"}))
    with pytest.raises(DomainError, match="schema"):
        load_piecewise(path)


def test_missing_key_is_named(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"schema": "smoothdiv/piecewise-function/1", "kind": "dickman"}))
    with pytest.raises(DomainError, match="'knots'"):
        load_piecewise(path)


def test_knots_must_increase():
    with pytest.raises(DomainError, match="increasing"):
        PiecewiseFunction(
            kind="dickman",
            knots=np.array([0.0, 2.0, 1.0]),
            coeffs=np.zeros((2, 4)),
            target_rel_err=1e-10,
            certificate=np.zeros(2),
        )


def test_knots_must_be_unit_steps():
    # Evaluation finds a segment by floor(u - knots[0]), so knots [0, 2, 4]
    # would answer value(1.5) from the segment that starts at 2.
    with pytest.raises(DomainError, match="unit steps"):
        PiecewiseFunction(
            kind="dickman",
            knots=np.array([0.0, 2.0, 4.0]),
            coeffs=np.array([[1.0, 0.0], [2.0, 0.0]]),
            target_rel_err=1e-10,
            certificate=np.zeros(2),
        )


def test_load_rejects_u_max_off_the_last_knot(tmp_path):
    path = tmp_path / "short.json"
    save_piecewise(build_buchstab_table(u_cut=4), path)
    payload = json.loads(path.read_text())
    assert payload["u_max"] == 4.0
    payload["u_max"] = 57.0
    path.write_text(json.dumps(payload))
    with pytest.raises(DomainError, match="u_max"):
        load_piecewise(path)


def test_load_rejects_a_top_level_list(tmp_path):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([{"schema": "smoothdiv/piecewise-function/1"}]))
    with pytest.raises(DomainError, match="list"):
        load_piecewise(path)


def test_load_rejects_text_that_is_not_json(tmp_path):
    path = tmp_path / "cut.json"
    path.write_text('{"schema": "smoothdiv/piecewise-function/1", "kn')
    with pytest.raises(DomainError, match="not JSON"):
        load_piecewise(path)


@pytest.mark.parametrize("key, value", [
    ("u_max", "abc"),
    ("u_max", None),
    ("u_max", 10**400),
    ("target_rel_err", True),
    ("kind", 3),
    ("knots", "0,1,2,3,4"),
    ("knots", [1.0, "2"]),
    ("coefficients", [[1.0, 2.0], [3.0]]),
    ("coefficients", [1.0, 2.0]),
    ("coefficients", []),
    ("certificate", {"0": 1e-17}),
])
def test_load_rejects_a_field_of_the_wrong_type(tmp_path, key, value):
    path = tmp_path / "typed.json"
    save_piecewise(build_buchstab_table(u_cut=4), path)
    payload = json.loads(path.read_text())
    payload[key] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(DomainError, match=repr(key)):
        load_piecewise(path)


def test_one_segment_per_knot_pair():
    with pytest.raises(DomainError, match="segment"):
        PiecewiseFunction(
            kind="dickman",
            knots=np.array([0.0, 1.0, 2.0]),
            coeffs=np.zeros((3, 4)),
            target_rel_err=1e-10,
            certificate=np.zeros(3),
        )


def test_unknown_kind_rejected():
    with pytest.raises(DomainError, match="kind"):
        PiecewiseFunction(
            kind="mystery",
            knots=np.array([0.0, 1.0]),
            coeffs=np.zeros((1, 4)),
            target_rel_err=1e-10,
            certificate=np.zeros(1),
        )


def test_exact_integration_matches_quadrature(dickman):
    # Antiderivative evaluation vs a crude Riemann check on one segment.
    a, b = 2.25, 2.75
    n = 20000
    xs = np.linspace(a, b, n + 1)
    mids = (xs[:-1] + xs[1:]) / 2.0
    riemann = float(np.sum(dickman.value(mids)) * (b - a) / n)
    assert dickman.integral(a, b) == pytest.approx(riemann, rel=1e-7)


def test_integral_matches_the_per_segment_loop_bit_for_bit(dickman, buchstab):
    # Random endpoints, knot pairs, and a knot with a random end, each pair
    # in random order, so whole segments sit between partial ends, at
    # either end, or make up the whole range.
    rng = np.random.Generator(np.random.Philox(key=11))
    for table in (dickman, buchstab):
        lo, hi = table.lo, table.hi
        knots = table.knots.tolist()
        ends = [*rng.uniform(lo, hi, size=(500, 2)).tolist(),
                *rng.choice(knots, size=(250, 2)).tolist(),
                *[(float(a), float(b)) for a, b in zip(rng.choice(knots, 250),
                                                        rng.uniform(lo, hi, 250))]]
        for a, b in ends:
            got, want = table.integral(a, b), piecewise_integral_per_segment(table, a, b)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (a, b)


def test_whole_segment_integrals_are_built_on_first_use(tmp_path, dickman):
    path = tmp_path / "dickman.json"
    save_piecewise(dickman, path)
    table = load_piecewise(path)
    assert "_whole_segment_integrals" not in vars(table)
    table.integral(2.5, 7.5)
    assert len(vars(table)["_whole_segment_integrals"]) == table.n_segments


def test_integration_range_checked(dickman):
    with pytest.raises(DomainError):
        dickman.integral(-1.0, 2.0)


def test_right_continuity_at_knots(dickman, buchstab):
    # Evaluation at an integer uses the segment to its right; continuity makes
    # the left limit agree to within the certified accuracy.
    for table, knot in ((dickman, 3.0), (dickman, 17.0), (buchstab, 4.0)):
        k = table.segment_index(knot)
        assert float(table.knots[k]) == knot
        left_limit = table._segment_right_value(k - 1)
        assert table.value(knot) == pytest.approx(left_limit, rel=1e-11)


def test_evaluation_outside_range_rejected(dickman):
    with pytest.raises(DomainError):
        dickman.value(np.array([5.0, 101.0]))
    with pytest.raises(DomainError):
        dickman.value(-0.5)
    with pytest.raises(DomainError):
        dickman.value(np.array([2.0, np.nan]))


def test_buchstab_initial_segment_matches_reciprocal(buchstab):
    us = np.linspace(1.0, 2.0, 41)
    vals = buchstab.value(us)
    assert np.max(np.abs(vals - 1.0 / us) * us) <= buchstab.target_rel_err


def test_dickman_initial_segment_is_constant_one(dickman):
    assert list(dickman._rows[0]) == [1.0]
    assert dickman.value(0.123) == 1.0


def test_scalar_paths_keep_their_bits(dickman, buchstab):
    # Segment-end values, analytic derivatives and exact integrals at fixed
    # offsets in every segment of both default tables.
    vals = []
    for table in (dickman, buchstab):
        for k in range(table.n_segments):
            lo = float(table.knots[k])
            vals.append(table._segment_right_value(k))
            for f in (0.0, 0.125, 0.3, 0.5, 0.77, 0.999):
                vals += [table.derivative_value(lo + f), table.integral(lo, lo + f),
                         table.integral(table.lo, lo + f)]
    assert hashlib.sha256(np.array(vals).tobytes()).hexdigest() == (
        "d4bd6c00114b6055a2c9375abae9dbadd1f74ed96c1e58305efce68e2860404c")
