"""Matrix flow: exact transition, stationarity, and cross-module marginals.

The transition is exact, so the tests lean on distributional identities
rather than step-size sweeps: entry variances must be constant along the
flow, the zero-diagonal GOE must be a fixed point in law, and the
fixed-time marginal must agree with the direct three-component draw of
ensemble.sample_interpolated.  KS thresholds sit well inside the bands
measured for these exact streams.
"""

import math

import numpy as np
import pytest

import dwedge.dbm as dbm
import dwedge.edgescale as es
import dwedge.ensemble as ens
import dwedge.measure as ms
from dwedge.rngstream import stream

TWO = ms.Atomic(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))


def two_atom_spec(n, lam0=0.5):
    return ens.EnsembleSpec(N=n, lam0=lam0, potential=ens.IIDFrom(TWO),
                            law=ens.GAUSSIAN)


def wigner(n, seed, label):
    return ens.sample_wigner(n, ens.GAUSSIAN, -1.0, stream(seed, label))


# ------------------------------------------------------------- evolve


def test_tiny_step_is_identity():
    h = wigner(100, 11, "tiny")
    after = dbm.evolve(h, 1e-12, stream(11, "tinyn"))
    assert np.abs(after - h).max() < 1e-6


def test_evolve_rejects_nonpositive_dt():
    h, rng = wigner(10, 12, "baddt"), stream(12, "baddtn")
    with pytest.raises(ValueError):
        dbm.evolve(h, 0.0, rng)
    with pytest.raises(ValueError):
        dbm.evolve(h, -1.0, rng)


def test_evolve_leaves_its_argument_unchanged():
    h = wigner(40, 17, "keep")
    before = h.copy()
    after = dbm.evolve(h, 0.3, stream(17, "keepn"))
    assert np.array_equal(h, before)
    assert not np.shares_memory(after, h)


def test_stationary_law_from_zero():
    out = dbm.evolve(np.zeros((500, 500)), 50.0, stream(26, "statn"))
    off = ~np.eye(500, dtype=bool)
    assert abs(500 * np.mean(out[off] ** 2) - 1.0) < 0.02
    # no Brownian term on the diagonal, ever
    assert np.all(np.diag(out) == 0.0)


def test_variance_preserved_along_flow():
    h = ens.sample_wigner(500, ens.GAUSSIAN, -1.0, stream(25, "varp"))
    off = ~np.eye(500, dtype=bool)
    for _, ht in dbm.flow(h, (0.5, 1.0, 4.0), stream(25, "varpn")):
        assert abs(500 * np.mean(ht[off] ** 2) - 1.0) < 0.01


def test_symmetry_and_zero_diagonal_bitlevel():
    h, rng = wigner(80, 13, "bits"), stream(13, "bitsn")
    for _ in range(3):
        h = dbm.evolve(h, 0.7, rng)
        assert np.array_equal(h, h.T)
        assert np.all(np.diag(h) == 0.0)


def test_semigroup_variance_bookkeeping():
    # e^{-b}(1-e^{-a}) + (1-e^{-b}) = 1-e^{-(a+b)}: the two-step noise
    # variance reproduces the one-step one, which is what makes the
    # single-jump transition exact
    for a, b in ((0.3, 0.7), (1e-3, 2.0), (5.0, 5.0)):
        two_step = math.exp(-b) * -math.expm1(-a) - math.expm1(-b)
        assert two_step == pytest.approx(-math.expm1(-(a + b)), rel=1e-14)
    rng = stream(27, "semig")
    out = dbm.evolve(dbm.evolve(np.zeros((400, 400)), 0.4, rng), 1.1, rng)
    off = ~np.eye(400, dtype=bool)
    assert 400 * np.mean(out[off] ** 2) == pytest.approx(-math.expm1(-1.5),
                                                         rel=0.03)


def test_start_diagonal_carries_the_coupling():
    spec = two_atom_spec(60)
    rng = stream(14, "start")
    h, v = ens.sample_deformed(spec, rng)
    assert np.allclose(np.diag(h), 0.5 * v)
    out = dbm.evolve(h, 2.0, rng)
    # diagonal decays deterministically with the coupling
    assert np.allclose(np.diag(out), math.exp(-1.0) * 0.5 * v)


# --------------------------------------------------------------- flow


def test_flow_yields_each_time_once():
    h = wigner(30, 18, "once")
    times = [0.0, 0.25, 1.0, 3.5]
    assert [t for t, _ in dbm.flow(h, times, stream(18, "oncen"))] == times
    assert [t for t, _ in dbm.flow(h, [2.0], stream(18, "oncen"))] == [2.0]


def test_flow_at_time_zero_yields_its_input():
    h = wigner(30, 19, "zero")
    before = h.copy()
    (t0, h0), (_, h1) = dbm.flow(h, [0.0, 1.0], stream(19, "zeron"))
    assert t0 == 0.0
    assert np.array_equal(h0, before) and np.array_equal(h, before)
    assert not np.array_equal(h1, before)


@pytest.mark.parametrize("times", [[0.0, 0.5, 2.0], [0.1, 0.3, 0.7, 5.9]])
def test_flow_draws_exactly_as_a_chain_of_evolve_calls(times):
    h = wigner(40, 20, "chain")
    rng_flow, rng_chain = stream(20, "chainn"), stream(20, "chainn")
    now, chained = 0.0, h
    for t, ht in dbm.flow(h, times, rng_flow):
        if t > now:
            chained, now = dbm.evolve(chained, t - now, rng_chain), t
        assert np.array_equal(ht, chained)
    # both generators sit at the same point of the stream afterwards
    assert rng_flow.random() == rng_chain.random()


# ---------------------------------------------------------- edge track


def test_edge_track_zero_coupling_is_stationary_window():
    spec = two_atom_spec(100, lam0=0.0)
    series = dbm.flow_edge_track(spec, [0.0, 1.0, 2.0], stream(15, "track0"))
    assert [t for t, _ in series] == [0.0, 1.0, 2.0]
    for _, m in series:
        assert m.imag > 0
        assert abs(m) < 10


def test_edge_track_deformed_runs_and_validates():
    spec = two_atom_spec(100)
    series = dbm.flow_edge_track(spec, [0.0, 0.5], stream(16, "track1"))
    assert len(series) == 2 and all(m.imag > 0 for _, m in series)
    with pytest.raises(ValueError):
        dbm.flow_edge_track(spec, [1.0, 0.5], stream(16, "track2"))
    with pytest.raises(ValueError):
        dbm.flow_edge_track(spec, [], stream(16, "track3"))
    with pytest.raises(ValueError):
        dbm.flow_edge_track(spec, [-1.0, 0.0], stream(16, "track5"))


def test_edge_track_m_is_the_normalized_trace_of_the_resolvent():
    # rebuild gamma(t) H(t) from the same stream and invert it directly
    spec, times = two_atom_spec(100), [0.0, 1.0]
    series = dbm.flow_edge_track(spec, times, stream(17, "trackm"))
    rng = stream(17, "trackm")
    h, v = ens.sample_deformed(spec, rng)
    nu_hat = ms.empirical_from_values(v)
    eta = spec.N ** (-2.0 / 3.0 - dbm.EDGE_EPS)
    for (t, m), (_, ht) in zip(series, dbm.flow(h, times, rng), strict=True):
        sc = es.flow_scaling(nu_hat, spec.lam0, t)
        z = sc.l_plus + 1j * eta
        want = np.trace(np.linalg.inv(sc.gamma * ht - z * np.eye(spec.N))) / spec.N
        assert abs(m - want) <= 1e-12 * abs(want), t


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_flow_refuses_a_non_finite_time(bad):
    # NaN compares False both ways, so each check must fail on False
    with pytest.raises(ValueError, match="times must be finite"):
        dbm.flow_times([0.0, bad])
    with pytest.raises(ValueError, match="finite t >= 0"):
        dbm.goe_invariance_check(10, bad, 2, stream(21, "goebad"))


# ------------------------------------------------------- distributions


def test_ks_two_sample_basics():
    assert dbm.ks_two_sample([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert dbm.ks_two_sample([0.0, 0.0], [1.0, 1.0]) == 1.0
    with pytest.raises(ValueError):
        dbm.ks_two_sample([], [1.0])


def test_goe_edge_invariant_at_t0():
    ks = dbm.goe_invariance_check(120, 0.0, 200, stream(21, "goe0"))
    assert ks < 1.36 * math.sqrt(2.0 / 200) + 0.02


def test_goe_edge_invariant_under_flow():
    ks = dbm.goe_invariance_check(150, 1.0, 250, stream(21, "goe1"))
    assert ks < 1.36 * math.sqrt(2.0 / 250) + 0.02


def test_terminal_flow_reaches_goe_edge():
    # deformed start, times {0, 1, 2, 4 log N}: terminal largest
    # eigenvalue is GOE within the two-sample band
    n, ntraj = 300, 300
    spec = two_atom_spec(n)
    rng = stream(21, "goeterm")
    times = [0.0, 1.0, 2.0, 4.0 * math.log(n)]
    term, goe = [], []
    for k in range(ntraj):
        h, _ = ens.sample_deformed(spec, rng)
        *_, (t_end, h_end) = dbm.flow(h, times, rng)
        assert t_end == pytest.approx(4.0 * math.log(n))
        term.append(np.linalg.eigvalsh(h_end)[-1])
        goe.append(np.linalg.eigvalsh(
            ens.sample_wigner(n, ens.GAUSSIAN, -1.0, stream(22, "goeref", k)))[-1])
    assert dbm.ks_two_sample(term, goe) < 0.1


def test_marginal_matches_interpolated_draw():
    n, nsamp, t = 150, 300, 1.0
    spec = two_atom_spec(n)
    rng = stream(23, "marg")
    flowed = []
    for _ in range(nsamp):
        h, _ = ens.sample_deformed(spec, rng)
        flowed.append(np.linalg.eigvalsh(dbm.evolve(h, t, rng))[-1])
    direct = [np.linalg.eigvalsh(ens.sample_interpolated(spec, t, stream(24, "margref", k)))[-1]
              for k in range(nsamp)]
    assert dbm.ks_two_sample(flowed, direct) < 0.1
