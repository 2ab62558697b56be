"""Tracy-Widom evaluation, limit laws, rigidity, and the MC edge harness.

The Painleve route is pinned by the Fredholm-determinant oracle in
tests/data/tw_oracle.json (regenerate with scripts/gen_tw_oracle.py); the
two independent routes agree to about 1e-8 at the checked points, far
inside the 1e-5 gate.  Both take their Airy values from scipy.special,
so the oracle comparison, not a separate Airy test, covers the Painleve
initial data.  One deliberate reading: the far-right-tail check
at s = 6 uses 3e-6 for F1 because the true tail there is 1.94e-6 (the
stated 1e-6 describes the evaluation accuracy, which the oracle
comparison covers, not the distance of F1(6) from 1).

Monte Carlo runs compare against Tracy-Widom-family laws, so the
ensembles here use the edge-matched diagonal (c2 = 1 - s4, noisy
diagonal): the matrix edge then sits at 2 + 1/N + o(1/N) for every
entry law, the GOE value the limit laws are calibrated against.  The
zero-diagonal default is kept where no law comparison is involved
(rigidity, determinism, equivariance).

Thresholds are frozen from pilot runs at the exact seeds used here
(scripts/pilot_twstats.py); the streams make each run deterministic, so
a bound only needs headroom over the measured value, not over sampling
noise.  Pilot KS values: 0.066 (mc_edge, N=300 seed 31), 0.082/0.077/
0.072 (regime cases i at N=300, ii at N=400, iii at N=400), 0.025
(top-2 against an independent GOE batch, band 0.096); rigidity medians
maxed at 1.2 across the pilot grid against the gate of 3.
"""

import json
import math
import pathlib

import numpy as np
import pytest

from dwedge import edgescale as es
from dwedge import ensemble as ens
from dwedge import freeconv as fc
from dwedge import measure as ms
from dwedge import rngstream
from dwedge import twstats as tw

TWO = ms.Atomic(locations=(-1.0, 1.0), weights=(0.5, 0.5))
DELTA0 = ms.Atomic(locations=(0.0,), weights=(1.0,))
ORACLE = json.loads(
    (pathlib.Path(__file__).parent / "data" / "tw_oracle.json").read_text())


# ---------------------------------------------------------------------------
# Tracy-Widom CDFs against the Fredholm oracle.

def test_tw_cdf_matches_fredholm_oracle():
    for s in ORACLE["points"]:
        assert tw.tw_cdf(1, s) == pytest.approx(ORACLE["F1"][str(s)], abs=1e-5)
        assert tw.tw_cdf(2, s) == pytest.approx(ORACLE["F2"][str(s)], abs=1e-5)


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


def _table_moments(table: np.ndarray) -> tuple[float, float]:
    grid = tw._GRID
    pos, neg = grid >= 0.0, grid <= 0.0
    mean = np.trapezoid(1.0 - table[pos], grid[pos]) \
        - np.trapezoid(table[neg], grid[neg])
    second = 2.0 * np.trapezoid(grid[pos] * (1.0 - table[pos]), grid[pos]) \
        - 2.0 * np.trapezoid(grid[neg] * table[neg], grid[neg])
    return float(mean), float(second - mean * mean)


def test_tw1_moments_match_oracle():
    mean, var = _table_moments(tw._law_table(tw.TW1, 0.0))
    assert mean == pytest.approx(ORACLE["TW1"]["mean"], abs=1e-3)
    assert math.sqrt(var) == pytest.approx(
        math.sqrt(ORACLE["TW1"]["var"]), abs=1e-3)


def test_tw2_moments_match_oracle():
    mean, var = _table_moments(tw._law_table(tw.TW2, 0.0))
    assert mean == pytest.approx(ORACLE["TW2"]["mean"], abs=1e-3)
    assert var == pytest.approx(ORACLE["TW2"]["var"], abs=1e-3)


# ---------------------------------------------------------------------------
# Limit laws.

def test_law_tables_monotone_with_pinned_ends():
    for law in (tw.LimitLaw(tw.TW1), tw.LimitLaw(tw.TW2),
                tw.LimitLaw(tw.GAUSS, 1.0),
                tw.LimitLaw(tw.TW1_GAUSS_CONV, 1.0)):
        vals = tw.law_cdf(law, tw._GRID)
        assert np.all(np.diff(vals) >= 0.0)
        assert vals[0] == pytest.approx(0.0, abs=1e-4)
        assert vals[-1] == pytest.approx(1.0, abs=1e-4)


def test_tw_tables_strictly_increasing_on_core():
    sel = (tw._GRID >= -8.0) & (tw._GRID <= 4.0)
    for variant in (tw.TW1, tw.TW2):
        assert np.all(np.diff(tw._law_table(variant, 0.0)[sel]) > 0.0)


def test_limit_law_validation():
    with pytest.raises(ValueError):
        tw.LimitLaw("tw3")
    with pytest.raises(ValueError):
        tw.LimitLaw(tw.TW1, -0.5)
    with pytest.raises(ValueError):
        tw.LimitLaw(tw.GAUSS, 0.0)


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


def test_convolution_adds_variance():
    mean1, var1 = _table_moments(tw._law_table(tw.TW1, 0.0))
    meanc, varc = _table_moments(tw._law_table(tw.TW1_GAUSS_CONV, 1.0))
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
    law = tw.LimitLaw(tw.GAUSS, 1.0)
    base = tw.ks_statistic(x, law)
    # doubling samples and halving the reference argument is a no-op
    scaled = tw.ks_statistic(2.0 * x, lambda s: tw.law_cdf(law, s / 2.0))
    assert scaled == base


def test_ks_accepts_plain_callable():
    d = tw.ks_statistic([0.25], lambda s: np.clip(s, 0.0, 1.0))
    assert d == 0.75


def test_ks_rejects_empty():
    with pytest.raises(ValueError):
        tw.ks_statistic([], tw.LimitLaw(tw.TW1))


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


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_rigidity_solves_each_sample_edge_once(monkeypatch):
    # one regularity check and one edge-root solve per potential draw
    margins = _count_calls(monkeypatch, fc, "assumption_margin")
    roots = _count_calls(monkeypatch, fc, "_outer_roots")
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


# ---------------------------------------------------------------------------
# MC edge harness.

def test_mc_edge_thread_count_does_not_change_bytes():
    spec = ens.EnsembleSpec(N=100, lam0=0.5, potential=ens.IIDFrom(TWO),
                            seed=42)
    a = tw.mc_edge(spec, 40, top_k=2, parallel=1)
    b = tw.mc_edge(spec, 40, top_k=2, parallel=3)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.e_plus, b.e_plus)
    assert np.array_equal(a.gamma0, b.gamma0)
    assert a.ks == b.ks


def test_mc_edge_undeformed_ks():
    spec = ens.EnsembleSpec(N=300, lam0=0.0,
                            potential=ens.Fixed(np.zeros(300)),
                            c2=1.0, zero_diagonal=False, seed=31)
    r = tw.mc_edge(spec, 500, parallel=2)
    assert r.samples.shape == (500,)
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
                            c2=1.0, zero_diagonal=False, seed=32)
    r = tw.mc_edge(spec, reps, top_k=2)
    assert r.samples.shape == (reps, 2)
    assert np.all(r.samples[:, 0] >= r.samples[:, 1])
    goe2 = np.empty(reps)
    for j in range(reps):
        rng = rngstream.stream(33, "goetref", j)
        w = ens.sample_wigner(n, ens.GAUSSIAN, 1.0, rng, zero_diagonal=False)
        goe2[j] = n ** (2.0 / 3.0) * (np.linalg.eigvalsh(w)[-2] - 2.0)
    a, b = np.sort(r.samples[:, 1]), np.sort(goe2)
    both = np.concatenate([a, b])
    d = float(np.max(np.abs(
        np.searchsorted(a, both, side="right") / a.size
        - np.searchsorted(b, both, side="right") / b.size)))
    assert d < 1.358 * math.sqrt(2.0 / reps)


def test_mc_edge_validation():
    spec = ens.EnsembleSpec(N=50, lam0=0.0, potential=ens.Fixed(np.zeros(50)),
                            seed=1)
    with pytest.raises(ValueError):
        tw.mc_edge(spec, 0)
    with pytest.raises(ValueError):
        tw.mc_edge(spec, 5, top_k=0)
    with pytest.raises(ValueError):
        tw.mc_edge(spec, 5, parallel=0)
    with pytest.raises(ValueError):
        tw.MCRunResult(spec=spec, n_samples=3, samples=np.zeros(2),
                       e_plus=np.zeros(2), gamma0=np.ones(2), ks=0.1,
                       runtime=0.0)


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
def test_regime_builds_population_edge_once_per_size(monkeypatch, delta):
    builds = _count_calls(monkeypatch, es, "build")
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
        tw.regime_test(TWO, -1.0, 0.2, [100], 10)
    with pytest.raises(ValueError):
        tw.regime_test(TWO, 1.0, -0.1, [100], 10)
    with pytest.raises(ValueError):
        tw.regime_test(TWO, 1.0, 0.2, [100], 0)
    with pytest.raises(ValueError):
        tw.regime_test(TWO, 0.0, 0.0, [100], 10)
