"""Acceptance checks: one test per criterion, at the stated tolerances.

Each test prints a single `criterion NN [PASS|FAIL]` line (shown under
`pytest -s`, or automatically on failure) with the measured quantities,
then asserts the stated gates, including the runtime budget.  Monte Carlo
criteria run frozen master seeds; with the counter-based streams every
number here is reproducible bit for bit, so the printed lines are the
calibration record.  CHANGES.md keeps the last stand-alone calibration run
of these seeds, each line next to the criterion that recomputes it.

Criterion 9's rejection gate: each regime's samples must reject every
alternative law by a one-sample KS test at level 1e-3, i.e. KS to the
alternative > 1.95/sqrt(n) (0.0503 at n = 1500; 1.95 is the asymptotic
Kolmogorov quantile, P(sqrt(n) KS > 1.95) = 1e-3).  The gate must lie
below D(own, alt), the population KS distance between the two laws,
because KS(samples, alt) <= KS(samples, own) + D(own, alt).  D(TW1,
TW1 * N(0, 1)) is only 0.0640 (computed from the CDF tables), so an
earlier fixed gate of 0.12 could be met only by samples at least 0.056
from their own law, i.e. by a poor fit.  The test therefore also asserts
gate < D(own, alt) for every rejection clause.
"""

import time

import numpy as np
import pytest

from dwedge import cli
from dwedge import dbm
from dwedge import edgescale as es
from dwedge import ensemble as ens
from dwedge import freeconv as fc
from dwedge import measure as ms
from dwedge import resolvent as rv
from dwedge import rngstream
from dwedge import twstats as tw
from tw_reference import (POINTS, TW1_MEAN, TW1_VAR, fredholm_pair,
                          table_moments)

TWO = ms.Atomic(locations=(-1.0, 1.0), weights=(0.5, 0.5))


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {detail}")


def _random_atomic(rng: np.random.Generator) -> ms.Atomic:
    n = int(rng.integers(1, 7))
    locs = np.sort(rng.uniform(-1.0, 1.0, size=n))
    locs += np.arange(n) * 1e-6          # break accidental collisions
    w = rng.uniform(0.2, 1.0, size=n)
    return ms.Atomic(locs, w / w.sum())


def _admissible_instances(seed: int, purpose: str, count: int, lam_hi: float):
    """Deterministic stream of (nu_hat, lam) pairs satisfying the edge
    assumption; rejected draws advance the counter so runs stay stable."""
    out = []
    idx = 0
    while len(out) < count:
        rng = rngstream.stream(seed, purpose, idx)
        idx += 1
        nu = _random_atomic(rng)
        lam = float(rng.uniform(0.02, lam_hi))
        if fc.assumption_margin(nu, lam) <= 0.01:
            continue
        out.append((nu, lam))
    return out


# ---------------------------------------------------------------------------

def test_criterion_01_semicircle_recovery(tmp_path):
    t0 = time.time()
    out = tmp_path / "fc"
    code = cli.main(["fc-solve", "--extrapolate", "--lo", "-1.9", "--hi",
                     "1.9", "--points", "761", "--out", str(out)])
    rows = np.loadtxt(out.with_suffix(".csv"), delimiter=",", skiprows=1)
    grid, dens = rows[:, 0], rows[:, 3]
    sup = float(np.max(np.abs(dens - np.sqrt(4.0 - grid**2) / (2.0 * np.pi))))
    el = time.time() - t0
    ok = code == 0 and sup <= 1e-5 and el < 5.0
    _line(1, ok, f"semicircle sup-norm {sup:.2e} (gate 1e-5), {el:.1f}s")
    assert code == 0
    assert sup <= 1e-5
    assert el < 5.0


def test_criterion_02_eplus_asymptotics():
    t0 = time.time()
    lams = np.array([0.02, 0.05, 0.1, 0.2])
    errs = np.array([abs(fc.support_endpoints(TWO, l)[1]
                         - fc.asymptotic_eplus(TWO, l)) for l in lams])
    slope = float(np.polyfit(np.log(lams), np.log(errs), 1)[0])
    ratio = float(np.max(errs / lams**5))
    el = time.time() - t0
    ok = slope >= 5.0 and ratio < 10.0 and el < 10.0
    _line(2, ok, f"E+ expansion slope {slope:.2f} (gate >= 5), "
                 f"max err/lam^5 {ratio:.3f}, {el:.1f}s")
    assert slope >= 5.0
    assert ratio < 10.0
    assert el < 10.0


def test_criterion_03_edge_square_root():
    t0 = time.time()
    fits = {}
    for lam in (0.0, 0.3, 0.5):
        sc = es.build(TWO, lam)
        sol = fc.solve_grid(TWO, lam, sc.gamma, sc.l_plus - 0.05,
                            sc.l_plus - 1e-5, 700, 1e-7)
        amp, expo = fc.edge_exponent_fit(sol, sc.l_plus)
        fits[lam] = (amp, expo)
    el = time.time() - t0
    ok = all(abs(e - 0.5) <= 0.02 and abs(a * np.pi - 1.0) <= 0.05
             for a, e in fits.values()) and el < 30.0
    detail = ", ".join(f"lam={l}: expo {e:.4f}, amp*pi {a * np.pi:.4f}"
                       for l, (a, e) in fits.items())
    _line(3, ok, f"{detail}, {el:.1f}s")
    for lam, (amp, expo) in fits.items():
        assert expo == pytest.approx(0.5, abs=0.02), f"lam={lam}"
        assert amp == pytest.approx(1.0 / np.pi, rel=0.05), f"lam={lam}"
    assert el < 30.0


def test_criterion_04_scaling_identities():
    t0 = time.time()
    worst = 0.0
    for nu, lam in _admissible_instances(41, "c4ident", 50, 0.6):
        rec = es.to_json(es.build(nu, lam))["residuals"]
        worst = max(worst, max(rec.values()))
    el = time.time() - t0
    ok = worst <= 1e-10 and el < 5.0
    _line(4, ok, f"scaling identities, worst residual {worst:.2e} "
                 f"(gate 1e-10) over 50 instances, {el:.1f}s")
    assert worst <= 1e-10
    assert el < 5.0


def test_criterion_05_coefficient_cancellation():
    t0 = time.time()
    worst_c = worst_fd = 0.0
    for i, (nu, lam0) in enumerate(_admissible_instances(42, "c5coef", 20, 0.5)):
        t = float(rngstream.stream(42, "c5time", i).uniform(0.1, 3.0))
        c2, c3, c0, c0p = es.coefficients(nu, lam0, t)
        worst_c = max(worst_c, abs(c2), abs(c3), abs(c0p))
        h = 1e-5
        a1dot = (es.flow_scaling(nu, lam0, t + h).A[1]
                 - es.flow_scaling(nu, lam0, t - h).A[1]) / (2 * h)
        worst_fd = max(worst_fd, abs(c0 - a1dot))
    el = time.time() - t0
    ok = worst_c < 1e-5 and worst_fd < 1e-5 and el < 10.0
    _line(5, ok, f"flow coefficients: max |C2|,|C3|,|C0'| {worst_c:.2e}, "
                 f"max |C0 - dA1/dt| {worst_fd:.2e} (gates 1e-5), {el:.1f}s")
    assert worst_c < 1e-5
    assert worst_fd < 1e-5
    assert el < 10.0


def test_criterion_06_resolvent_identities():
    t0 = time.time()

    def residual(rng) -> float:
        h = ens.sample_wigner(30, ens.GAUSSIAN, 1.0, rng)
        z = complex(rng.uniform(-2.5, 2.5), rng.uniform(0.02, 1.0))
        i, j, k = (int(x) for x in rng.choice(30, size=3, replace=False))
        return max(rv.verify_identities(h, z, i, j, k).values())

    worst = max(rngstream.draws(43, "c6ident", range(100), residual))
    el = time.time() - t0
    ok = worst < 1e-9 and el < 5.0
    _line(6, ok, f"resolvent identities, worst residual {worst:.2e} "
                 f"(gate 1e-9) over 100 instances, {el:.1f}s")
    assert worst < 1e-9
    assert el < 5.0


def test_criterion_07_optical_theorem_decay(optical_median):
    sizes = (100, 200, 400)
    medians, seconds = zip(*(optical_median(n) for n in sizes))
    t0 = time.time()
    slope = float(np.polyfit(np.log(sizes), np.log(medians), 1)[0])
    # besides the slope: small at N = 100, and down by 0.01 or more at N = 400
    drop = medians[0] - medians[2]
    # the draws count in full, also when another test drew them first
    el = time.time() - t0 + sum(seconds)
    ok = (abs(slope + 1.0 / 3.0) <= 0.15 and medians[0] < 0.25
          and medians[2] < medians[0] - 0.01 and el < 600.0)
    _line(7, ok, f"optical cancellation slope {slope:.3f} "
                 f"(gate -1/3 +- 0.15), medians "
                 f"{[f'{m:.3g}' for m in medians]} (gates N=100 < 0.25, "
                 f"drop to N=400 {drop:.3g} >= 0.01), {el:.0f}s")
    assert slope == pytest.approx(-1.0 / 3.0, abs=0.15)
    assert medians[0] < 0.25
    assert medians[2] < medians[0] - 0.01
    assert el < 600.0


def test_criterion_08_edge_universality():
    t0 = time.time()
    results = {}
    for law, seed in ((ens.GAUSSIAN, 88), (ens.RADEMACHER, 89)):
        spec = ens.EnsembleSpec(N=500, lam0=0.5, potential=ens.IIDFrom(TWO),
                                law=law, c2=ens.edge_matched_c2(law),
                                seed=seed)
        results[law] = tw.mc_edge(spec, 2000)
    el = time.time() - t0
    ok = all(r.ks < 0.06 for r in results.values()) and el < 3600.0
    detail = ", ".join(f"{law}: KS {r.ks:.4f}" for law, r in results.items())
    _line(8, ok, f"edge universality N=500 ({detail}; gate 0.06), {el:.0f}s")
    for law, r in results.items():
        assert r.ks < 0.06, law
    assert el < 3600.0


def _law_distance(a: tw.LimitLaw, b: tw.LimitLaw) -> float:
    """Sup distance between two limit-law CDFs on the law_cdf table grid."""
    return float(np.max(np.abs(tw.law_cdf(a, tw._GRID)
                               - tw.law_cdf(b, tw._GRID))))


def test_criterion_09_regime_trichotomy():
    t0 = time.time()
    n_samples = 1500
    # Rejecting an alternative law is a one-sample KS test at level 1e-3.
    reject = 1.95 / np.sqrt(n_samples)
    clauses = []
    unreachable = []

    def clause(name, value, gate, below, extra=""):
        okc = value < gate if below else value > gate
        clauses.append((name, value, gate, below, okc, extra))

    for sigma0, delta, seed in ((1.0, 1.0 / 3.0, 913), (1.0, 1.0 / 6.0, 916),
                                (0.5, 0.0, 910)):
        out = tw.regime_test(TWO, sigma0, delta, [800], n_samples,
                             seed=seed)[0]
        case, samples, lam0 = out["case"], out["samples"], out["lam0"]
        clause(f"case {case} own law ({out['law'].variant})", out["ks"],
               0.08, below=True)
        if case == "iii":
            alts = [tw.LimitLaw(tw.TW1), tw.LimitLaw(tw.TW1_GAUSS_CONV, 1.0)]
        else:
            other = tw.TW1 if case == "ii" else tw.TW1_GAUSS_CONV
            sig2 = 1.0 if other == tw.TW1_GAUSS_CONV else 0.0
            alts = [tw.LimitLaw(other, sig2)]
            # the Gaussian alternative, expressed in this case's
            # N^(2/3)(mu_1 - E_plus) units: sigma^2 = (1 - m_fc(E+)^2) N^(1/3)
            e_plus = out["e_plus"]
            m_edge = es.build(TWO, lam0).zeta - e_plus
            alts.append(tw.LimitLaw(tw.GAUSS,
                                    (1.0 - m_edge ** 2) * 800 ** (1.0 / 3.0)))
        for alt in alts:
            label = alt.variant + (f"({alt.sigma2:.3g})"
                                   if alt.variant == tw.GAUSS else "")
            name = f"case {case} rejects {label}"
            d = _law_distance(out["law"], alt)
            # KS(samples, alt) >= D(own, alt) - KS(samples, own), so a sample
            # set matching its own law can clear the gate only if gate < D.
            if not reject < d:
                unreachable.append(name)
            clause(name, tw.ks_statistic(samples, alt), reject, below=False,
                   extra=f", own {out['ks']:.4f}, D {d:.4f}")

    el = time.time() - t0
    ok = all(c[4] for c in clauses) and not unreachable and el < 5400.0
    detail = "; ".join(f"{n}: {v:.4f} ({'<' if b else '>'}{g:.4f}{x}) "
                       f"{'ok' if okc else 'FAIL'}"
                       for n, v, g, b, okc, x in clauses)
    _line(9, ok, f"regime trichotomy N=800: {detail}, {el:.0f}s")
    failures = [c for c in clauses if not c[4]]
    assert not failures, f"clauses failed: {[c[0] for c in failures]}"
    assert not unreachable, f"gate {reject:.4f} not below D for {unreachable}"
    assert el < 5400.0


def test_criterion_10_dbm_invariance_and_interpolation():
    t0 = time.time()
    band = 1.36 * np.sqrt(2.0 / 400) + 0.02
    inv = {}
    for idx, t in enumerate((1.0, 10.0)):
        inv[t] = dbm.goe_invariance_check(300, t, 400,
                                          rngstream.stream(61, "c10inv", idx))
    spec = ens.EnsembleSpec(N=300, lam0=0.5, potential=ens.IIDFrom(TWO),
                            seed=0)
    rng = rngstream.stream(62, "c10flow")
    flowed = []
    for _ in range(500):
        h, _ = ens.sample_deformed(spec, rng)
        flowed.append(np.linalg.eigvalsh(dbm.evolve(h, 1.0, rng))[-1])
    direct = rngstream.draws(63, "c10ref", range(500), lambda rng: np.linalg.eigvalsh(
        ens.sample_interpolated(spec, 1.0, rng))[-1])
    interp = dbm.ks_two_sample(flowed, direct)
    el = time.time() - t0
    ok = all(v < band for v in inv.values()) and interp < 0.08 and el < 1800.0
    _line(10, ok, f"flow invariance KS t=1: {inv[1.0]:.4f}, t=10: "
                  f"{inv[10.0]:.4f} (band {band:.4f}); interpolation KS "
                  f"{interp:.4f} (gate 0.08), {el:.0f}s")
    for t, v in inv.items():
        assert v < band, f"t={t}"
    assert interp < 0.08
    assert el < 1800.0


def test_criterion_11_rigidity():
    t0 = time.time()
    reports = {}
    for lam0, pot, seed in ((0.0, ens.Fixed(np.zeros(500)), 110),
                            (0.5, ens.Fixed(np.tile([1.0, -1.0], 250)), 115)):
        spec = ens.EnsembleSpec(N=500, lam0=lam0, potential=pot, seed=seed)
        reports[lam0] = tw.rigidity_report(spec, 200, 20)
    el = time.time() - t0
    worst = max(float(r["median"].max()) for r in reports.values())
    worst_p95 = max(float(r["p95"].max()) for r in reports.values())
    ok = worst < 3.0 and not any(r["flag"] for r in reports.values()) \
        and el < 1800.0
    _line(11, ok, f"rigidity N=500, worst median "
                  f"{worst:.3f} (gate 3), worst p95 {worst_p95:.3f} (flag "
                  f"above N^0.2 = {reports[0.0]['threshold']:.3f}) over "
                  f"k <= 20 at lam0 in {{0, 0.5}}, {el:.0f}s")
    for lam0, rep in reports.items():
        assert float(rep["median"].max()) < 3.0, f"lam0={lam0}"
        assert not rep["flag"], f"lam0={lam0}"
    assert el < 1800.0


def test_criterion_12_tw_evaluation():
    t0 = time.time()
    worst = max(abs(tw.tw_cdf(beta, s) - f) for s in POINTS
                for beta, f in zip((1, 2), fredholm_pair(s)))
    mean, var = table_moments(tw._GRID, tw._law_table(tw.TW1, 0.0))
    dm = abs(mean - TW1_MEAN)
    dsd = abs(np.sqrt(var) - np.sqrt(TW1_VAR))
    el = time.time() - t0
    ok = worst <= 1e-5 and dm <= 1e-3 and dsd <= 1e-3 and el < 60.0
    _line(12, ok, f"Painleve vs Fredholm determinant max diff {worst:.2e} "
                  f"(gate 1e-5); TW1 mean/sd off by {dm:.2e}/{dsd:.2e} "
                  f"(gate 1e-3), {el:.1f}s")
    assert worst <= 1e-5
    assert dm <= 1e-3
    assert dsd <= 1e-3
    assert el < 60.0
