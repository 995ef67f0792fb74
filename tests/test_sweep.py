"""The per-piece table sweep behind every quadrature integrand, and pins on
the estimate path it serves.

``special.sweep`` evaluates a piece's 21 nodes with one coefficient row; the
properties here check that every node still gets the bits of the per-node
``special.rho`` and ``special.omega``.  The digest pin holds the estimate
path to its bits without scipy.
"""

import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smoothdiv import DsaParams, convolution, eta, special
from smoothdiv.errors import DomainError
from smoothdiv.estimators import wp_and_eta


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _nodes(a, b):
    """The (pieces, 21) nodes ``convolution.quad`` evaluates on the pieces [a, b]."""
    seen = []

    def record(s):
        seen.append(s)
        return np.zeros_like(s)

    convolution.quad(record, a, b)
    return seen[0]


def _per_node(name, table, x):
    return (special.rho if name == "rho" else special.omega)(x, table=table)


def _assert_sweep_is_per_node(blocks):
    for (name, table, x), got in zip(blocks, special.sweep(blocks)):
        assert np.array_equal(_bits(got), _bits(_per_node(name, table, x))), name


_NEAR = st.sampled_from([0.0, 1e-13, -1e-13, 1e-9, -1e-9, 0.5, 2.0**-40, -(2.0**-40)])
_U = st.one_of(st.floats(1.0, 130.0),
               st.builds(lambda k, d: min(max(k + d, 1.0), 130.0), st.integers(1, 130), _NEAR))
_V = st.one_of(st.floats(0.0, 130.0),
               st.builds(lambda d: 1.0 + d, _NEAR),
               st.builds(lambda k, d: max(k + d, 0.0), st.integers(0, 130), _NEAR))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(u=_U, v=_V)
def test_sweep_gives_per_node_bits(u, v):
    # The pieces of one integral from v to u: omega on u - s (above its table
    # from u - s = 30 on), rho on s, s - 1 and u - s (past the support and
    # the table for large u), all in one sweep.
    lo, hi = sorted((v, u))
    if hi - lo <= 1e-12 * max(1.0, hi):
        return
    pts = convolution._knot_points(lo, hi, u)
    s = _nodes(pts[:-1], pts[1:])
    rho_t, omega_t = special.default_dickman(), special.default_buchstab()
    _assert_sweep_is_per_node([("omega", omega_t, u - s), ("rho", rho_t, s),
                               ("rho", rho_t, s - 1.0), ("rho", rho_t, u - s)])


def test_piece_across_a_knot_gets_per_node_bits():
    # Pieces whose nodes lie in two segments, or on both sides of a table
    # edge, as rounding at a knot allows: the centre (column 0) picks one
    # row, and the other nodes must still get their own segment's bits.
    below = np.nextafter(2.0, 0.0)
    pieces = np.array([
        [2.5] + [below] * 10 + [2.0, 2.75, 2.9] + [2.1] * 7,   # segments [1, 2) and [2, 3)
        [29.5, 30.0, np.nextafter(30.0, 31.0), 31.0] + [29.9] * 17,  # omega's table top
        [99.5, 100.0, np.nextafter(100.0, 101.0), 100.5] + [99.9] * 17,  # rho's table top
        [0.5, -1e-300, 0.0, np.nextafter(1.0, 0.0)] + [0.25] * 17,  # rho's table bottom
        [1.5, np.nextafter(1.0, 0.0), 1.0, 0.5] + [1.25] * 17,  # omega's table bottom
    ])
    rho_t, omega_t = special.default_dickman(), special.default_buchstab()
    _assert_sweep_is_per_node([("rho", rho_t, pieces), ("omega", omega_t, pieces)])


def test_short_tables_keep_their_edges():
    # omega is not yet e**-gamma at the top of a table cut at 4, and rho has
    # not underflowed at the top of a table to 12: past them the sweep gives
    # e**-gamma and refuses, as the per-node functions do.
    pts = [float(k) for k in range(16)]
    x = _nodes(pts[:-1], pts[1:]) - 1.0
    omega_t = special.build_buchstab_table(u_cut=4)
    _assert_sweep_is_per_node([("omega", omega_t, x)])
    rho_t = special.build_dickman_table(u_max=12)
    _assert_sweep_is_per_node([("rho", rho_t, x[:12])])
    for fn in (lambda: special.rho(x, table=rho_t), lambda: special.sweep([("rho", rho_t, x)])):
        with pytest.raises(DomainError, match="exceeds the rho table ceiling"):
            fn()


def _pin_grid():
    """About 300 integrals and eta values: near-integer u and v, v near 1,
    u up to 120 for the omega convolutions and 170 for C_rr."""
    rng = np.random.Generator(np.random.Philox(key=2306))
    us = [float(u) for u in rng.uniform(1.2, 120.0, 68)]
    us += [1.5, 2.0, 3.0, 5.0 + 1e-13, 10.0 - 1e-12, 31.5, 83.0, 84.0, 84.5, 100.0, 119.75, 120.0]
    vs = [float(v) for v in rng.uniform(0.0, 12.0, len(us))]
    vs[::5] = [1.0, 1.0 - 1e-12, 1.0 + 1e-12, 2.0, 0.0, 3.0 + 1e-13, 1.0, 0.5,
               6.0, 1.0, 1.0 + 1e-9, 4.0, 1.0, 0.25, 2.0 - 1e-12, 1.0][:len(vs[::5])]
    omega_terms = [(u, v, prime) for u, v in zip(us, vs) for prime in (False, True)]
    rho_us = [float(u) for u in rng.uniform(0.5, 170.0, 52)] + [1.0, 2.0, 83.0, 84.0, 100.0,
                                                                166.0, 165.5, 3.0]
    rho_terms = [(u, float(rng.uniform(0.0, u))) for u in rho_us]
    taus = [float(v) for v in rng.uniform(-1.0, 90.0, 40)] + [0.0, 1.0, 4.4, 7.0, 13.0, 1e-12,
                                                              83.0, 85.0, 2.5, 5.0]
    ks = [int(k) for k in rng.integers(64, 4097, 27)]
    triples = [(k, int(rng.integers(16, 201)), 0) for k in ks]
    triples = [(k, l, int(rng.integers(l, max(k // 2, l + 1)))) for k, l, _ in triples]
    triples += [(863, 80, 160), (4000, 40, 100), (4096, 41, 900)]
    return omega_terms, rho_terms, taus, triples


def test_estimate_path_digest():
    # sha256 of the float64 bytes of omega_convolutions, rho_convolutions,
    # tau and wp_and_eta on the grid above (value and error of each
    # convolution), as computed before the table sweep replaced per-table
    # evaluation.  Unlike the scipy bit-for-bit tests this pin needs no scipy.
    omega_terms, rho_terms, taus, triples = _pin_grid()
    vals = []
    for c in convolution.omega_convolutions(omega_terms) + convolution.rho_convolutions(rho_terms):
        vals += [c.value, c.est_abs_err]
    vals += [convolution.tau(v) for v in taus]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for k, l, m in triples:
            vals += list(wp_and_eta(DsaParams(k, l, m)))
    assert len(omega_terms) + len(rho_terms) + len(taus) + len(triples) == 300
    digest = hashlib.sha256(np.array(vals, dtype=np.float64).tobytes()).hexdigest()
    assert digest == "2b429a3a1cb63e9c6cf59190d63790280fdd1ee6e155514ba8d561ba885bc681"


def test_eta_peak_memory():
    # eta at u = 100 integrates ~10k nodes.  Its tracemalloc peak was 0.88 MiB
    # with per-table evaluation; the sweep may add at most 0.5 MiB, which a
    # coefficient row gathered per node (width x nodes doubles) would exceed.
    d = DsaParams(4000, 40, 100)
    eta(d)  # tables and the coefficient stack are built on first use
    tracemalloc.start()
    try:
        eta(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (0.88 + 0.5) * 2**20, peak / 2**20
