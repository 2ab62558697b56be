"""Calibration pilot for the edge-statistics thresholds.

Runs the acceptance-scale Monte Carlo configurations once with the final
seeds and prints every statistic the test suite freezes.  Kept for
re-deriving thresholds; not part of the test run.
"""

import numpy as np

from dwedge import dbm
from dwedge import edgescale as es
from dwedge import ensemble as ens
from dwedge import measure as ms
from dwedge import twstats as tw

NU = ms.Atomic(locations=(-1.0, 1.0), weights=(0.5, 0.5))


def law_distance(a: tw.LimitLaw, b: tw.LimitLaw) -> float:
    """Sup distance between two limit-law CDFs on the law_cdf table grid."""
    return float(np.max(np.abs(tw.law_cdf(a, tw._GRID)
                               - tw.law_cdf(b, tw._GRID))))


def main():
    # --- edge universality, acceptance scale -------------------------------
    for law, seed in ((ens.GAUSSIAN, 88), (ens.RADEMACHER, 89)):
        spec = ens.EnsembleSpec(N=500, lam0=0.5, potential=ens.IIDFrom(NU),
                                law=law, c2=ens.edge_matched_c2(law),
                                zero_diagonal=False, seed=seed)
        r = tw.mc_edge(spec, 2000)
        print(f"mc_edge N=500 lam0=0.5 {law} seed={seed}: ks={r.ks:.4f} "
              f"({r.runtime:.0f}s)", flush=True)

    spec0 = ens.EnsembleSpec(N=500, lam0=0.0,
                             potential=ens.Fixed(np.zeros(500)),
                             c2=1.0, zero_diagonal=False, seed=90)
    r = tw.mc_edge(spec0, 2000)
    print(f"mc_edge N=500 lam0=0 seed=90: ks={r.ks:.4f} ({r.runtime:.0f}s)",
          flush=True)

    # --- regime trichotomy, acceptance scale --------------------------------
    alt = {
        "i": [tw.LimitLaw(tw.TW1_GAUSS_CONV, 1.0)],
        "ii": [tw.LimitLaw(tw.TW1)],
        "iii": [tw.LimitLaw(tw.TW1), tw.LimitLaw(tw.TW1_GAUSS_CONV, 1.0)],
    }
    # rejecting an alternative is a one-sample KS test at level 1e-3; the
    # gate is reachable only where it lies below D(own law, alternative)
    gate = 1.95 / np.sqrt(1500)
    for sigma0, delta, seed in ((1.0, 1.0 / 3.0, 913), (1.0, 1.0 / 6.0, 916),
                                (0.5, 0.0, 910)):
        out = tw.regime_test(NU, sigma0, delta, [800], 1500, seed=seed)[0]
        alts = list(alt[out["case"]])
        if out["case"] != "iii":
            # the Gaussian alternative in N^(2/3)(mu_1 - E_plus) units, as
            # criterion 9 builds it: sigma^2 = (1 - m_fc(E+)^2) N^(1/3)
            m_edge = es.build(NU, out["lam0"]).zeta - out["e_plus"]
            alts.append(tw.LimitLaw(tw.GAUSS, (1.0 - m_edge ** 2)
                                    * 800 ** (1.0 / 3.0)))
        print(f"regime delta={delta:.4f} seed={seed}: case {out['case']} "
              f"ks={out['ks']:.4f} law={out['law']}", flush=True)
        for a in alts:
            print(f"  rejects {a}: alt-ks="
                  f"{tw.ks_statistic(out['samples'], a):.4f} gate={gate:.4f} "
                  f"D={law_distance(out['law'], a):.4f}", flush=True)

    # --- rigidity, acceptance scale -----------------------------------------
    for lam0, pot, seed in ((0.0, ens.Fixed(np.zeros(500)), 110),
                            (0.5, ens.Fixed(np.tile([1.0, -1.0], 250)), 115)):
        spec = ens.EnsembleSpec(N=500, lam0=lam0, potential=pot, seed=seed)
        rep = tw.rigidity_report(spec, 200, 20)
        print(f"rigidity N=500 lam0={lam0} seed={seed}: "
              f"max median={rep['median'].max():.3f} "
              f"max p95={rep['p95'].max():.3f} flag={rep['flag']}")

    # --- unit-test scale ----------------------------------------------------
    spec = ens.EnsembleSpec(N=300, lam0=0.0,
                            potential=ens.Fixed(np.zeros(300)),
                            c2=1.0, zero_diagonal=False, seed=31)
    r = tw.mc_edge(spec, 500)
    print(f"unit mc_edge N=300 lam0=0 seed=31: ks={r.ks:.4f}")

    spec = ens.EnsembleSpec(N=250, lam0=0.0,
                            potential=ens.Fixed(np.zeros(250)),
                            c2=1.0, zero_diagonal=False, seed=32)
    r2 = tw.mc_edge(spec, 400, top_k=2)
    from dwedge import rngstream
    goe2 = np.empty(400)
    for j in range(400):
        rng = rngstream.stream(33, "goetref", j)
        w = ens.sample_wigner(250, ens.GAUSSIAN, 1.0, rng, zero_diagonal=False)
        mu = ens.eigenvalues(w, top=2)
        goe2[j] = 250 ** (2.0 / 3.0) * (mu[1] - 2.0)
    d = dbm.ks_two_sample(r2.samples[:, 1], goe2)
    print(f"unit top2 vs GOE 2nd: two-sample ks={d:.4f} "
          f"(band {1.358 * np.sqrt(2.0 / 400):.4f})")

    out = tw.regime_test(NU, 1.0, 1.0 / 3.0, [300], 300, seed=34)[0]
    print(f"unit regime i N=300 seed=34: ks={out['ks']:.4f}")
    outs = tw.regime_test(NU, 1.0, 1.0 / 6.0, [200, 400], 250, seed=35)
    print(f"unit regime ii N=200,400 seed=35: ks={[round(o['ks'], 4) for o in outs]}")
    out = tw.regime_test(NU, 0.5, 0.0, [400], 400, seed=36)[0]
    print(f"unit regime iii N=400 seed=36: ks={out['ks']:.4f}")

    for lam0, pot, seed in ((0.0, ens.Fixed(np.zeros(200)), 37),
                            (0.5, ens.Fixed(np.tile([1.0, -1.0], 100)), 38)):
        spec = ens.EnsembleSpec(N=200, lam0=lam0, potential=pot, seed=seed)
        rep = tw.rigidity_report(spec, 60, 10)
        print(f"unit rigidity N=200 lam0={lam0} seed={seed}: "
              f"max median={rep['median'].max():.3f} max p95={rep['p95'].max():.3f}")

    spec = ens.EnsembleSpec(N=150, lam0=0.3,
                            potential=ens.IIDFrom(NU), seed=39)
    rep = tw.rigidity_report(spec, 25, 8)
    print(f"unit rigidity IID N=150 lam0=0.3 seed=39: "
          f"max median={rep['median'].max():.3f}")


if __name__ == "__main__":
    main()
