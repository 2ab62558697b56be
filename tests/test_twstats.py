"""Tracy-Widom evaluation, limit laws, rigidity, and the MC edge harness.

The Painleve route is pinned by the Ferrari-Spohn Fredholm determinant in
tests/tw_reference.py, which shares no code with it and agrees with
itself to 1e-13 between 40 and 80 nodes and between the windows [0, 16]
and [0, 20]; the table is within 2e-10 of it at the checked points, far
inside the 1e-5 gate.  The determinant takes its Airy values from
scipy.special; the Painleve initial data is five stored numbers, which
test_airy_initial_data_is_scipy_airy recomputes from scipy.special.airy
bit for bit.  One deliberate reading: the far-right-tail check
at s = 6 uses 3e-6 for F1 because the true tail there is 1.94e-6 (the
stated 1e-6 describes the evaluation accuracy, which the determinant
comparison covers, not the distance of F1(6) from 1).

Monte Carlo runs compare against Tracy-Widom-family laws, so the
ensembles here use the edge-matched diagonal (c2 = 1 - s4, noisy
diagonal): the matrix edge then sits at 2 + 1/N + o(1/N) for every
entry law, the GOE value the limit laws are calibrated against.  The
zero-diagonal default is kept where no law comparison is involved
(rigidity, determinism, equivariance).

Thresholds are frozen from calibration runs at the exact seeds used
here; the streams make each run deterministic, so a bound only needs
headroom over the measured value, not over sampling noise.  Measured KS
values (the calibration record in CHANGES.md, each line next to the test
here that recomputes it): 0.066 (mc_edge, N=300 seed 31), 0.082/0.077/
0.072 (regime cases i at N=300, ii at N=400, iii at N=400), 0.025
(top-2 against an independent GOE batch, band 0.096); rigidity medians
max out at 1.2 over the three rigidity tests, against gates of 3 (4 for
the iid potential).
"""

import math

import numpy as np
import pytest

from dwedge import edgescale as es
from dwedge import ensemble as ens
from dwedge import freeconv as fc
from dwedge import measure as ms
from dwedge import rngstream
from dwedge import twstats as tw
from tw_reference import (POINTS, TW1_MEAN, TW1_VAR, TW2_MEAN, TW2_VAR,
                          fredholm_pair, table_moments)

TWO = ms.Atomic(locations=(-1.0, 1.0), weights=(0.5, 0.5))
DELTA0 = ms.Atomic(locations=(0.0,), weights=(1.0,))


# ---------------------------------------------------------------------------
# Tracy-Widom CDFs against the Fredholm determinant.

def test_tw_cdf_matches_fredholm_oracle():
    for s in POINTS:
        f1, f2 = fredholm_pair(s)
        assert tw.tw_cdf(1, s) == pytest.approx(f1, abs=1e-5)
        assert tw.tw_cdf(2, s) == pytest.approx(f2, abs=1e-5)


def test_fredholm_reference_is_converged():
    for s in POINTS:
        assert fredholm_pair(s, nodes=40) == pytest.approx(
            fredholm_pair(s, nodes=80), abs=1e-13)
        assert fredholm_pair(s, window=16.0) == pytest.approx(
            fredholm_pair(s, window=20.0), abs=1e-13)


def test_tw_cdf_tails():
    assert tw.tw_cdf(2, 6.0) == pytest.approx(1.0, abs=1e-6)
    assert tw.tw_cdf(1, 6.0) == pytest.approx(1.0, abs=3e-6)
    assert tw.tw_cdf(1, -10.0) == pytest.approx(0.0, abs=1e-6)
    assert tw.tw_cdf(2, -10.0) == pytest.approx(0.0, abs=1e-6)


def test_tw_cdf_out_of_range_clamps_with_warning():
    with pytest.warns(UserWarning):
        high = tw.tw_cdf(1, 7.3)
    assert high == tw.tw_cdf(1, 6.0)
    with pytest.warns(UserWarning):
        low = tw.tw_cdf(2, -12.0)
    assert low == tw.tw_cdf(2, -10.0)


def test_tw_cdf_rejects_bad_beta():
    with pytest.raises(ValueError):
        tw.tw_cdf(3, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tw_cdf_rejects_non_finite_s(bad):
    # NaN fails every comparison, so no range test catches it
    with pytest.raises(ValueError, match="finite s"):
        tw.tw_cdf(1, bad)


def test_tw_tables_match_fredholm_determinant():
    idx = np.flatnonzero(tw._GRID >= -8.3)[::20]
    want = np.array([fredholm_pair(float(s)) for s in tw._GRID[idx]])
    tables = (tw._law_table(tw.TW1, 0.0), tw._tw_pair(tw._GRID)[1])
    for col, table in enumerate(tables):
        err = np.abs(table[idx] - want[:, col])
        assert err.max() <= 5e-10, col


def test_tw1_moments_match_oracle():
    mean, var = table_moments(tw._GRID, tw._law_table(tw.TW1, 0.0))
    assert mean == pytest.approx(TW1_MEAN, abs=1e-3)
    assert math.sqrt(var) == pytest.approx(math.sqrt(TW1_VAR), abs=1e-3)


def test_tw2_moments_match_oracle():
    mean, var = table_moments(tw._GRID, tw._tw_pair(tw._GRID)[1])
    assert mean == pytest.approx(TW2_MEAN, abs=1e-3)
    assert var == pytest.approx(TW2_VAR, abs=1e-3)


# ---------------------------------------------------------------------------
# Limit laws.

def test_law_tables_monotone_with_pinned_ends():
    tables = [tw.law_cdf(law, tw._GRID) for law in (
        tw.LimitLaw(tw.TW1), tw.LimitLaw(tw.GAUSS, 1.0),
        tw.LimitLaw(tw.TW1_GAUSS_CONV, 1.0))]
    tables.append(np.array([tw.tw_cdf(2, s) for s in tw._GRID]))
    for vals in tables:
        assert np.all(np.diff(vals) >= 0.0)
        assert vals[0] == pytest.approx(0.0, abs=1e-4)
        assert vals[-1] == pytest.approx(1.0, abs=1e-4)


def test_tw_tables_strictly_increasing_on_core():
    sel = (tw._GRID >= -8.0) & (tw._GRID <= 4.0)
    for table in (tw._law_table(tw.TW1, 0.0), tw._tw_pair(tw._GRID)[1]):
        assert np.all(np.diff(table[sel]) > 0.0)


def test_limit_law_validation():
    for bad in ("tw2", "tw3"):  # F_2 is read through tw_cdf only
        with pytest.raises(ValueError, match="unknown variant"):
            tw.LimitLaw(bad)
    with pytest.raises(ValueError):
        tw.LimitLaw(tw.TW1, -0.5)
    with pytest.raises(ValueError):
        tw.LimitLaw(tw.GAUSS, 0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite sigma2"):
            tw.LimitLaw(tw.TW1_GAUSS_CONV, bad)


def test_degenerate_convolution_is_tw1_exactly():
    conv = tw.LimitLaw(tw.TW1_GAUSS_CONV, 0.0)
    tw1 = tw.LimitLaw(tw.TW1)
    s = np.linspace(-9.0, 5.0, 57)
    assert np.array_equal(tw.law_cdf(conv, s), tw.law_cdf(tw1, s))


def test_gaussian_law_is_exact():
    law = tw.LimitLaw(tw.GAUSS, 1.0)
    assert tw.law_cdf(law, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert tw.law_cdf(law, 1.0) == pytest.approx(0.8413447460685429, abs=1e-12)
    law4 = tw.LimitLaw(tw.GAUSS, 4.0)
    assert tw.law_cdf(law4, 2.0) == pytest.approx(0.8413447460685429, abs=1e-12)


def test_gaussian_law_matches_scipy_ndtr():
    from scipy.special import ndtr
    s = np.linspace(-12.0, 12.0, 20001)
    for sigma2 in (1.0, 2.5):
        np.testing.assert_allclose(tw.law_cdf(tw.LimitLaw(tw.GAUSS, sigma2), s),
                                   ndtr(s / math.sqrt(sigma2)), rtol=0, atol=1e-15)


def test_airy_initial_data_is_scipy_airy():
    # the recipe behind the stored values: Ai(8), Ai'(8) and the tail
    # integrals of Ai, Ai^2 and (x - 8) Ai^2 on [8, 14] by 64-node
    # Gauss-Legendre
    from scipy.special import airy
    ai, aip, _, _ = airy(tw._S_RIGHT)
    x, w = np.polynomial.legendre.leggauss(64)
    half = 0.5 * (14.0 - tw._S_RIGHT)
    xs = tw._S_RIGHT + half * (x + 1.0)
    vals = airy(xs)[0]
    assert tw._AIRY_DATA == (
        float(ai), float(aip), half * float(w @ vals), half * float(w @ (vals * vals)),
        half * float(w @ ((xs - tw._S_RIGHT) * vals * vals)))


def test_convolution_adds_variance():
    mean1, var1 = table_moments(tw._GRID, tw._law_table(tw.TW1, 0.0))
    meanc, varc = table_moments(tw._GRID,
                                tw._law_table(tw.TW1_GAUSS_CONV, 1.0))
    assert meanc == pytest.approx(mean1, abs=1e-3)
    assert varc == pytest.approx(var1 + 1.0, abs=1e-3)


# ---------------------------------------------------------------------------
# KS statistic.

def test_ks_single_sample_at_median():
    assert tw.ks_statistic([0.0], tw.LimitLaw(tw.GAUSS, 1.0)) == 0.5


def test_ks_null_level():
    rng = rngstream.stream(40, "ksnull", 0)
    x = rng.standard_normal(10_000)
    # 99% null quantile 1.63/sqrt(n); draw frozen at 0.0118
    assert tw.ks_statistic(x, tw.LimitLaw(tw.GAUSS, 1.0)) < 1.63 / 100.0


def test_ks_detects_unit_shift():
    rng = rngstream.stream(40, "ksnull", 0)
    x = rng.standard_normal(10_000)
    rng2 = rngstream.stream(40, "ksshift", 0)
    y = rng2.standard_normal(2000) + 1.0
    assert tw.ks_statistic(y, tw.LimitLaw(tw.GAUSS, 1.0)) > 0.3
    assert tw.ks_statistic(x, tw.LimitLaw(tw.GAUSS, 1.0)) < 0.02


def test_ks_scale_consistency_exact():
    rng = rngstream.stream(41, "ksscale", 0)
    x = rng.standard_normal(500)
    base = tw.ks_statistic(x, tw.LimitLaw(tw.GAUSS, 1.0))
    # doubling the samples and the standard deviation is a no-op: the CDF
    # reads 2x / sqrt(4), which is x exactly
    scaled = tw.ks_statistic(2.0 * x, tw.LimitLaw(tw.GAUSS, 4.0))
    assert scaled == base


def test_ks_rejects_empty():
    with pytest.raises(ValueError):
        tw.ks_statistic([], tw.LimitLaw(tw.TW1))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_ks_rejects_non_finite_samples(bad):
    # one NaN sample would make the distance NaN
    with pytest.raises(ValueError, match="finite"):
        tw.ks_statistic([0.0, bad, 1.0], tw.LimitLaw(tw.TW1))


# ---------------------------------------------------------------------------
# Classical locations.

def _semicircle_solution(n_pts: int = 4001) -> fc.FreeConvolutionSolution:
    return fc.solve_grid(DELTA0, 0.0, 1.0, -2.05, 2.05, n_pts, 1e-7)


def test_classical_locations_semicircle_median():
    n = 1000
    sol = _semicircle_solution()
    mid = tw.classical_locations(sol, n, [n // 2])[0]
    assert abs(mid) < 2.0 / n


def test_classical_locations_semicircle_top():
    n = 1000
    sol = _semicircle_solution()
    top = tw.classical_locations(sol, n, [1])[0]
    assert abs(top - 2.0) < n ** (-2.0 / 3.0) * math.log(n)
    assert top < 2.0


def test_classical_locations_match_dense_inversion():
    lam = 0.5
    sc = es.build(TWO, lam)
    e_m, e_p = fc.support_endpoints(TWO, lam)
    lo, hi = sc.gamma * e_m - 1e-3, sc.gamma * e_p + 1e-3
    coarse = fc.solve_grid(TWO, lam, sc.gamma, lo, hi, 2001, 1e-7)
    dense = fc.solve_grid(TWO, lam, sc.gamma, lo, hi, 20001, 1e-7)
    n, ks = 500, [1, 5, 50, 250, 450]
    got = tw.classical_locations(coarse, n, ks)
    # high-resolution inversion from the left tail as an independent route
    from scipy.integrate import cumulative_trapezoid
    cum = cumulative_trapezoid(np.maximum(dense.density, 0.0), dense.grid,
                               initial=0.0)
    for k, g in zip(ks, got):
        target = cum[-1] - (k - 0.5) / n
        ref = float(np.interp(target, cum, dense.grid))
        assert g == pytest.approx(ref, abs=1e-4)
    # the numpy trapezoid in classical_locations is scipy's, bit for bit
    cum = cumulative_trapezoid(np.maximum(coarse.density, 0.0), coarse.grid,
                               initial=0.0)
    tail = cum[-1] - cum
    exact = np.interp((np.asarray(ks) - 0.5) / n, tail[::-1], coarse.grid[::-1])
    assert got == [float(v) for v in exact]


def test_classical_locations_rejects_multicut():
    grid = np.linspace(-3.0, 3.0, 1201)
    dens = np.exp(-40.0 * (np.abs(grid) - 2.0) ** 2)
    dens /= np.trapezoid(dens, grid)
    sol = fc.FreeConvolutionSolution(
        nu=TWO, lam=2.0, gamma=1.0, grid=grid,
        m=np.full(grid.size, 1j), eta=1e-7, density=dens)
    with pytest.raises(ValueError, match="multi-cut"):
        tw.classical_locations(sol, 100, [1])


def test_classical_locations_rejects_bad_k():
    sol = _semicircle_solution(801)
    with pytest.raises(ValueError):
        tw.classical_locations(sol, 100, [0])
    with pytest.raises(ValueError):
        tw.classical_locations(sol, 100, [101])


# ---------------------------------------------------------------------------
# Rigidity.

def test_rigidity_undeformed():
    spec = ens.EnsembleSpec(N=200, lam0=0.0,
                            potential=ens.Fixed(np.zeros(200)), seed=37)
    rep = tw.rigidity_report(spec, 60, 10)
    assert rep["median"].shape == (10,)
    assert np.all(rep["median"] < 3.0)
    # k = 1 sits on the Tracy-Widom scale
    assert 0.2 < rep["median"][0] < 3.0


def test_rigidity_deformed_fixed_potential_same_scale():
    spec = ens.EnsembleSpec(N=200, lam0=0.5,
                            potential=ens.Fixed(np.tile([1.0, -1.0], 100)),
                            seed=38)
    rep = tw.rigidity_report(spec, 60, 10)
    assert np.all(rep["median"] < 3.0)


def test_rigidity_iid_potential_resolves_per_sample():
    spec = ens.EnsembleSpec(N=150, lam0=0.3, potential=ens.IIDFrom(TWO),
                            seed=39)
    rep = tw.rigidity_report(spec, 25, 8)
    assert np.all(rep["median"] < 4.0)
    assert rep["threshold"] == pytest.approx(150 ** 0.2)


def test_rigidity_solves_each_sample_edge_once(count_calls):
    # one regularity check and one edge-root solve per potential draw
    margins = count_calls(fc, "assumption_margin")
    roots = count_calls(fc, "_outer_roots")
    spec = ens.EnsembleSpec(N=60, lam0=0.5, potential=ens.IIDFrom(TWO), seed=3)
    tw.rigidity_report(spec, 3, 5)
    assert len(margins) == 3
    assert len(roots) == 3


def test_rigidity_validates_k_max():
    spec = ens.EnsembleSpec(N=100, lam0=0.0,
                            potential=ens.Fixed(np.zeros(100)), seed=1)
    with pytest.raises(ValueError):
        tw.rigidity_report(spec, 5, 51)
    with pytest.raises(ValueError):
        tw.rigidity_report(spec, 0, 10)


@pytest.mark.parametrize("bad", [0, 1.5, math.nan])
@pytest.mark.parametrize("run", ["mc_edge", "rigidity_report", "regime_test"])
def test_sample_count_must_be_a_positive_integer(run, bad):
    # NaN is not < 1, so a plain range test lets it through to range()
    spec = ens.EnsembleSpec(N=50, lam0=0.0, potential=ens.Fixed(np.zeros(50)),
                            seed=1)
    calls = {"mc_edge": lambda: tw.mc_edge(spec, bad),
             "rigidity_report": lambda: tw.rigidity_report(spec, bad, 2),
             "regime_test": lambda: tw.regime_test(TWO, 1.0, 0.2, [50], bad, 0)}
    with pytest.raises(ValueError, match="n_samples"):
        calls[run]()


# ---------------------------------------------------------------------------
# MC edge harness.

def test_mc_edge_undeformed_ks():
    spec = ens.EnsembleSpec(N=300, lam0=0.0,
                            potential=ens.Fixed(np.zeros(300)),
                            c2=1.0, seed=31)
    r = tw.mc_edge(spec, 500)
    assert r.samples.shape == (500, 1)
    assert r.ks < 0.08
    assert r.runtime > 0.0
    assert np.all(r.gamma0 == 1.0)
    assert np.all(r.e_plus == 2.0)


def test_mc_edge_shift_equivariance():
    n = 120
    base = ens.EnsembleSpec(N=n, lam0=0.0, potential=ens.Fixed(np.zeros(n)),
                            seed=77)
    shifted = ens.EnsembleSpec(N=n, lam0=0.9,
                               potential=ens.Fixed(0.7 * np.ones(n)), seed=77)
    a = tw.mc_edge(base, 30)
    b = tw.mc_edge(shifted, 30)
    assert np.allclose(a.samples, b.samples, atol=1e-10)


def test_mc_edge_top2_matches_independent_goe():
    n, reps = 250, 400
    spec = ens.EnsembleSpec(N=n, lam0=0.0, potential=ens.Fixed(np.zeros(n)),
                            c2=1.0, seed=32)
    r = tw.mc_edge(spec, reps, top_k=2)
    assert r.samples.shape == (reps, 2)
    assert np.all(r.samples[:, 0] >= r.samples[:, 1])
    goe2 = np.empty(reps)
    for j in range(reps):
        rng = rngstream.stream(33, "goetref", j)
        w = ens.sample_wigner(n, ens.GAUSSIAN, 1.0, rng)
        goe2[j] = n ** (2.0 / 3.0) * (np.linalg.eigvalsh(w)[-2] - 2.0)
    a, b = np.sort(r.samples[:, 1]), np.sort(goe2)
    both = np.concatenate([a, b])
    d = float(np.max(np.abs(
        np.searchsorted(a, both, side="right") / a.size
        - np.searchsorted(b, both, side="right") / b.size)))
    assert d < 1.358 * math.sqrt(2.0 / reps)


def test_harnesses_count_the_dsyevr_fallbacks(monkeypatch):
    n = 60
    spec = ens.EnsembleSpec(N=n, lam0=0.0, potential=ens.Fixed(np.zeros(n)), seed=5)
    certified = tw.mc_edge(spec, 6)
    assert certified.dsyevr_fallbacks == 0
    assert tw.regime_test(TWO, 1.0, 0.5, [n], 4, 0)[0]["dsyevr_fallbacks"] == 0
    # no float32 copy is in range: every top-1 solve falls back to dsyevr
    monkeypatch.setattr(ens, "_F32_MAX", 0.0)
    forced = tw.mc_edge(spec, 6)
    assert forced.dsyevr_fallbacks == 6
    np.testing.assert_allclose(forced.samples, certified.samples, rtol=0, atol=1e-8)
    assert tw.mc_edge(spec, 6, top_k=2).dsyevr_fallbacks == 0
    assert tw.regime_test(TWO, 1.0, 0.5, [n], 4, 0)[0]["dsyevr_fallbacks"] == 4
    assert tw.regime_test(TWO, 1.0, 0.1, [n], 4, 0)[0]["dsyevr_fallbacks"] == 0


def test_mc_edge_validation():
    spec = ens.EnsembleSpec(N=50, lam0=0.0, potential=ens.Fixed(np.zeros(50)),
                            seed=1)
    with pytest.raises(ValueError):
        tw.mc_edge(spec, 0)
    with pytest.raises(ValueError):
        tw.mc_edge(spec, 5, top_k=0)


# ---------------------------------------------------------------------------
# Regime trichotomy.

def test_regime_case_selection():
    assert tw._regime_case(1.0 / 3.0) == "i"
    assert tw._regime_case(0.166667) == "ii"
    assert tw._regime_case(1.0 / 6.0) == "ii"
    assert tw._regime_case(0.1) == "iii"
    assert tw._regime_case(0.0) == "iii"


def test_regime_supercritical_matches_tw1():
    out = tw.regime_test(TWO, 1.0, 1.0 / 3.0, [300], 300, seed=34)[0]
    assert out["case"] == "i"
    assert out["law"] == tw.LimitLaw(tw.TW1)
    assert out["ks"] < 0.10


def test_regime_critical_matches_convolution():
    outs = tw.regime_test(TWO, 1.0, 1.0 / 6.0, [200, 400], 250, seed=35)
    assert [o["case"] for o in outs] == ["ii", "ii"]
    assert outs[0]["law"].sigma2 == pytest.approx(1.0)
    assert outs[1]["ks"] < 0.10


def test_regime_subcritical_matches_gaussian():
    out = tw.regime_test(TWO, 0.5, 0.0, [400], 400, seed=36)[0]
    assert out["case"] == "iii"
    assert out["law"].variant == tw.GAUSS
    # closed form for the two-atom law: theta^2 = u solves the edge equation,
    # m_fc(E+)^2 = u / (u - lam^2)^2 and sigma^2 = (1 - m_fc(E+)^2) / lam^2
    lam = 0.5
    u = ((2 * lam**2 + 1) + math.sqrt(8 * lam**2 + 1)) / 2
    want = (1 - u / (u - lam**2) ** 2) / lam**2
    assert out["law"].sigma2 == pytest.approx(want, abs=1e-12)
    assert out["ks"] < 0.09


@pytest.mark.parametrize("delta", [1.0 / 3.0, 0.0])
def test_regime_builds_population_edge_once_per_size(count_calls, delta):
    builds = count_calls(es, "build")
    sizes = [60, 80]
    tw.regime_test(TWO, 0.5, delta, sizes, 4, seed=2)
    # case iii adds one build per sample, on the realized potential
    population = [a for a in builds if a[0] is TWO]
    assert len(population) == len(sizes)
    assert len(builds) == len(sizes) * (1 if delta > 0 else 1 + 4)


def test_regime_is_deterministic():
    a = tw.regime_test(TWO, 0.5, 0.0, [150], 50, seed=9)[0]
    b = tw.regime_test(TWO, 0.5, 0.0, [150], 50, seed=9)[0]
    assert np.array_equal(a["samples"], b["samples"])


def test_regime_validation():
    with pytest.raises(ValueError):
        tw.regime_test(TWO, -1.0, 0.2, [100], 10, seed=0)
    with pytest.raises(ValueError):
        tw.regime_test(TWO, 1.0, -0.1, [100], 10, seed=0)
    with pytest.raises(ValueError):
        tw.regime_test(TWO, 1.0, 0.2, [100], 0, seed=0)
    with pytest.raises(ValueError):
        tw.regime_test(TWO, 0.0, 0.0, [100], 10, seed=0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite sigma0"):
            tw.regime_test(TWO, bad, 0.2, [100], 10, seed=0)
        with pytest.raises(ValueError, match="finite delta"):
            tw.regime_test(TWO, 1.0, bad, [100], 10, seed=0)
