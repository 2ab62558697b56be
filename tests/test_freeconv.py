"""Self-consistent solver: closed forms, frozen oracles, edge behavior.

Frozen values and their independent routes:
* two-atom transform at 2i from a 50-digit damped iteration (mpmath),
* densities at E in {0, 0.5} for the two-atom law from the explicit cubic
  m^3 + 2z m^2 + (z^2 + 1 - lam^2) m + z = 0, upper-half-plane root,
* upper edge for the two-atom law from the closed form
  theta^2 = ((2 lam^2 + 1) + sqrt(8 lam^2 + 1))/2, E+ = theta + theta/(theta^2 - lam^2).
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dwedge.freeconv as fc
import dwedge.measure as ms
import jacobi_reference as ref
from dwedge.rngstream import stream

D0 = ms.Atomic(np.array([0.0]), np.array([1.0]))
TWO = ms.Atomic(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))


def test_point_mass_is_semicircle_at_i():
    m = fc.solve_point(D0, 0.7, 1.0, 1j)
    assert m == pytest.approx(1j * (np.sqrt(5.0) - 1.0) / 2.0, abs=1e-12)


def test_real_branch_outside_support():
    m = fc.solve_point(D0, 0.0, 1.0, 3 + 1e-8j)
    assert m.real == pytest.approx((-3 + np.sqrt(5.0)) / 2.0, abs=1e-8)
    assert 0 <= m.imag < 1e-8


def test_two_atom_against_high_precision_iteration():
    # frozen from a 50-digit damped fixed point started at m = i
    m = fc.solve_point(TWO, 0.5, 1.0, 2j)
    assert m == pytest.approx(0.399422549243260174j, abs=1e-12)


def test_residual_below_tolerance(monkeypatch):
    monkeypatch.setattr(fc, "_TOL", 1e-13)
    for z in (2j, 0.3 + 1e-6j, 2.2018 + 1e-7j):
        m = fc.solve_point(TWO, 0.5, 1.0, z)
        f = m_map = complex(fc._maps(TWO, 0.5, 1.0, np.array([z]), np.array([m]))[0][0])
        assert abs(m - f) < 1e-13


def test_iteration_error_carries_residual(monkeypatch):
    monkeypatch.setattr(fc, "_MAX_ITER", 3)
    with pytest.raises(fc.IterationError) as exc:
        fc.solve_point(D0, 0.0, 1.0, 2.0 + 1e-9j)
    assert exc.value.residual > 0


def test_solve_grid_error_index_is_global(monkeypatch):
    # the reported index is the global one, so that point fails on its own
    # too, at the same iteration budget
    monkeypatch.setattr(fc, "_MAX_ITER", 6)
    grid = np.linspace(-1.0, 2.5, 1001)
    with pytest.raises(fc.IterationError) as exc:
        fc.solve_grid(D0, 0.0, 1.0, -1.0, 2.5, grid.size, 1e-9)
    k = exc.value.index
    assert 256 < k < grid.size
    with pytest.raises(fc.IterationError):
        fc.solve_point(D0, 0.0, 1.0, complex(grid[k], 1e-9))


def test_solve_grid_semicircle_density():
    sol = fc.solve_grid(D0, 0.0, 1.0, -3.0, 3.0, 1201, 1e-6)
    rho = np.sqrt(np.clip(4.0 - sol.grid**2, 0.0, None)) / (2.0 * np.pi)
    core = np.abs(sol.grid) <= 1.9
    assert np.max(np.abs(sol.density - rho)[core]) < 1e-6
    assert fc._outer_roots(D0, 0.0)[2:] == pytest.approx((-2.0, 2.0), abs=1e-10)
    # residual invariant on every stored point
    f, _ = fc._maps(D0, 0.0, 1.0, sol.grid + 1j * sol.eta, sol.m)
    assert np.max(np.abs(sol.m - f)) < 1e-10
    assert np.all(sol.m.imag >= 0)


@pytest.mark.parametrize("nu", [D0, TWO, ms.Jacobi(0.5, 0.5),
                                ms.Atomic(np.linspace(-1.0, 1.0, 64),
                                          np.full(64, 1.0 / 64))])
@pytest.mark.parametrize("gamma", [1.0, 0.8])
def test_maps_at_vanishing_coupling_is_the_semicircle_map(nu, gamma):
    # lam gamma = 1e-60 is zero at double precision: F = 1/(-z - gamma^2 m)
    z = np.array([0.3 + 0.5j, -1.2 + 1e-3j, 2.5 + 1e-7j])
    m = np.array([0.1 + 0.4j, -0.2 + 0.9j, -0.4 + 1e-6j])
    f, fp = fc._maps(nu, 1e-60, gamma, z, m)
    d = -z - gamma**2 * m
    np.testing.assert_allclose(f, 1.0 / d, rtol=1e-14, atol=0)
    np.testing.assert_allclose(fp, gamma**2 / d**2, rtol=1e-14, atol=0)


def test_solve_grid_solves_no_edge_root(monkeypatch):
    calls = []
    real = fc._outer_roots
    monkeypatch.setattr(fc, "_outer_roots",
                        lambda *a: calls.append(a) or real(*a))
    fc.solve_grid(TWO, 0.5, 0.8, -2.5, 2.5, 101, 1e-4)
    assert calls == []


def test_solve_grid_two_atom_strong_coupling_gap():
    # lam = 1.5 splits the law into two intervals around a gap at zero
    sol = fc.solve_grid(TWO, 1.5, 1.0, -3.5, 3.5, 1401, 1e-6)
    assert np.all(sol.density >= -1e-15)
    mid = np.abs(sol.grid) < 0.1
    assert sol.density[mid].max() < 1e-4
    assert sol.density.max() > 0.1
    _, _, e_m, e_p = fc._outer_roots(TWO, 1.5)
    out = (sol.grid < e_m - 0.05) | (sol.grid > e_p + 0.05)
    assert sol.density[out].max() < 1e-4


def test_solve_grid_two_atom_symmetric():
    sol = fc.solve_grid(TWO, 0.5, 1.0, -3.0, 3.0, 601, 1e-5)
    assert np.max(np.abs(sol.density - sol.density[::-1])) < 1e-9


DENSITY_ORACLE = [(0.0, 0.275664447700286), (0.5, 0.273974608898419)]


@pytest.mark.parametrize("E,want", DENSITY_ORACLE)
def test_density_at_two_atom_cubic_oracle(E, want):
    # a 2-point grid whose ends are the oracle energies
    (lo, _), (hi, _) = DENSITY_ORACLE
    sol = fc.solve_grid(TWO, 0.5, 1.0, lo, hi, 2, 1e-5)
    density = dict(zip(sol.grid, fc.density_at(sol)))
    assert density[E] == pytest.approx(want, abs=1e-8)


def test_density_at_semicircle():
    inside, outside = fc.density_at(fc.solve_grid(D0, 0.0, 1.0, 0.0, 2.5, 2, 1e-5))
    assert inside == pytest.approx(1.0 / np.pi, abs=1e-8)
    assert abs(outside) < 1e-6


def test_support_endpoints_semicircle():
    assert fc.support_endpoints(D0, 0.9) == pytest.approx((-2.0, 2.0), abs=1e-12)


def test_support_endpoints_two_atom_closed_form():
    em, ep = fc.support_endpoints(TWO, 0.5)
    assert ep == pytest.approx(2.201834737520806, abs=1e-10)
    assert em == pytest.approx(-ep, abs=1e-12)


def test_support_endpoint_requires_edge_root():
    # a continuous law with a soft tail loses the outer root at strong coupling
    soft = ms.Jacobi(2.0, 2.0)
    mgn = fc.assumption_margin(soft, 2.5)
    assert mgn < 0
    with pytest.raises(fc.AssumptionViolatedError):
        fc.support_endpoints(soft, 2.5)


def test_assumption_margin_between_grid_points():
    # the two-atom minimum 1 sits at x = 0, which a uniform grid over [-1, 1]
    # with an even point count never samples
    assert fc.assumption_margin(TWO, 0.0) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(fc.AssumptionViolatedError):
        fc.support_endpoints(TWO, np.sqrt(1.0 + 1e-8))
    # a density makes f infinite inside its support, so a Jacobi law's minimum
    # is at an end, where Gauss's sum gives f(1) = G(a+b+2)G(b-1)/(4G(a+b)G(b+1))
    # for b > 1 and +inf otherwise; Jacobi(2, 2): G(6)G(1)/(4G(4)G(3)) = 2.5
    assert fc.assumption_margin(ms.Jacobi(2.0, 2.0), 0.0) == pytest.approx(
        2.5, rel=1e-12)
    assert fc.assumption_margin(ms.Jacobi(0.5, 3.0), 0.0) == pytest.approx(
        0.65625, rel=1e-12)
    assert fc.assumption_margin(ms.Jacobi(0.5, 0.5), 0.0) == np.inf


def test_assumption_margin_ignores_zero_weight_atoms():
    # zero-weight atoms widen the hull but carry no mass: the interior gap's
    # minimum 1 is below lam^2 = 1.44
    nu = ms.Atomic([-1.0001, -1.0, 1.0, 1.0001], [0.0, 0.5, 0.5, 0.0])
    assert fc.assumption_margin(nu, 1.2) == pytest.approx(1.0 - 1.44, abs=1e-12)
    with pytest.raises(fc.AssumptionViolatedError):
        fc.support_endpoints(nu, 1.2)


def _f(x, w, t):
    return float(np.sum(w / (x - t) ** 2))


@pytest.mark.parametrize("seed", range(40))
def test_assumption_margin_exact_oracle(seed):
    from scipy.optimize import minimize_scalar

    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 41))
    x = np.sort(rng.uniform(-2.0, 2.0, n))
    w = rng.dirichlet(np.ones(n))
    if n > 2 and seed % 2:
        w[0] = 0.0  # a zero-weight end atom leaves a finite endpoint value
        w /= w.sum()
    nu = ms.Atomic(x, w)
    got = fc.assumption_margin(nu, 0.0)
    if n == 1:
        assert got == np.inf
        return
    pos = w > 0
    xp, wp = x[pos], w[pos]
    with np.errstate(divide="ignore"):
        want = min(_f(xp, wp, x[0]), _f(xp, wp, x[-1]))
    for lo, hi in zip(xp[:-1], xp[1:]):
        # minimize over the offset from lo, so the absolute tolerance in the
        # offset is relative to the gap
        res = minimize_scalar(lambda s: _f(xp, wp, lo + s), bounds=(0.0, hi - lo),
                              method="bounded", options={"xatol": 1e-14})
        want = min(want, res.fun)
    assert got == pytest.approx(want, rel=1e-10)
    grid = np.linspace(x[0], x[-1], 10_000)
    with np.errstate(divide="ignore"):
        on_grid = np.min(np.sum(wp / (xp[None, :] - grid[:, None]) ** 2, axis=1))
    # rounding in summing the same terms is the only slack
    assert got <= on_grid * (1.0 + 1e-14)


def test_density_mass_over_support():
    em, ep = fc.support_endpoints(TWO, 0.5)
    sol = fc.solve_grid(TWO, 0.5, 1.0, em, ep, 4001, 1e-6)
    assert np.trapezoid(sol.density, sol.grid) == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("lam", [0.9, 0.99, 0.999, 1.0])
def test_near_critical_coupling(lam):
    # the margin 1 - lam^2 of the two-atom law closes at lam = 1, where the
    # density at E = 0 pinches to zero
    em, ep = fc.support_endpoints(TWO, lam)
    sol = fc.solve_grid(TWO, lam, 1.0, em, ep, 4001, 1e-6)
    assert np.all(np.isfinite(sol.m))
    assert np.all(sol.m.imag >= 0)
    assert np.trapezoid(sol.density, sol.grid) == pytest.approx(1.0, abs=1e-4)


def _brentq_roots(nu, lam):
    """_outer_roots' root of integral dnu/(lam v - theta)^2 = 1 on each side,
    solved on the same bracket by scipy's brentq."""
    from scipy.optimize import brentq

    vmin, vmax = ms.support_interval(nu)
    out = []
    for side, v in ((-1, vmin), (+1, vmax)):
        near, far = lam * v + side * 1e-12, lam * v + side * (10.0 + 10.0 * lam)
        theta = brentq(lambda th: ms.deformed_power(nu, lam, th, 2) - 1.0,
                       *sorted((near, far)), xtol=1e-15)
        out.append((theta, theta - ms.deformed_power(nu, lam, theta, 1)))
    (th_m, e_m), (th_p, e_p) = out
    return th_m, th_p, e_m, e_p


def _oracle_cases():
    cases = [(TWO, 0.5), (TWO, 0.99), (ms.Jacobi(1.0, 1.0), 1.0)]
    cases += [(ms.Jacobi(2.0, 2.0), lam)
              for lam in (0.5, 1.5, 1.57, 1.578, 1.5805, 1.581)]
    for j in range(20):
        rng = stream(j, "edge-root-oracle")
        cases.append((ms.empirical_from_values(rng.uniform(-1.0, 1.0, 500)),
                      float(rng.uniform(0.0, 1.2))))
    return cases


def test_edge_roots_match_brentq():
    # the safeguarded Newton root against scipy's bracketing solver, up to
    # the near-critical couplings of Jacobi(2, 2) (critical sqrt(2.5) = 1.58114)
    for nu, lam in _oracle_cases():
        got, want = fc._outer_roots(nu, lam), _brentq_roots(nu, lam)
        for g, w in zip(got, want):
            assert abs(g - w) <= 4e-15 * abs(w), (nu, lam)


def test_edge_roots_far_from_zero_start_off_the_atoms():
    # an absolute start offset of 1e-12 would round to the edge once |edge|
    # is about 1e4, and the first phi evaluation would divide by zero
    nu = ms.Atomic([1e5, 1e5 + 1.0], [0.5, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        th_m, th_p, _, _ = fc._outer_roots(nu, 1.0)
    assert th_m < 1e5 and th_p > 1e5 + 1.0
    for theta in (th_m, th_p):
        assert ms.deformed_power(nu, 1.0, theta, 2) == pytest.approx(1.0, abs=1e-9)


def test_past_critical_coupling_violates_assumption():
    with pytest.raises(fc.AssumptionViolatedError):
        fc.support_endpoints(TWO, 1.01)


def test_im_continuity_in_eta():
    etas = np.geomspace(1e-6, 1.0, 50)
    ims = np.array([fc.solve_point(TWO, 0.5, 1.0, complex(1.0, e)).imag for e in etas])
    assert np.all(ims > 0)
    assert np.max(np.abs(np.diff(ims)) / ims[:-1]) < 0.2


def test_asymptotic_eplus_values():
    assert fc.asymptotic_eplus(TWO, 0.1) == pytest.approx(2.009875, abs=1e-12)
    assert fc.asymptotic_eplus(TWO, 0.0) == 2.0
    point = ms.Atomic(np.array([0.7]), np.array([1.0]))
    for l in (0.1, 0.4):
        assert fc.asymptotic_eplus(point, l) == pytest.approx(2.0 + 0.7 * l, abs=1e-12)
        # a point mass shifts the semicircle rigidly, exact at all orders
        assert fc.support_endpoints(point, l)[1] == pytest.approx(2.0 + 0.7 * l, abs=1e-10)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
def test_coupling_range_checks_refuse_nan_and_inf(bad):
    # written as `lam < 0`, the checks let NaN through to the edge solve
    with pytest.raises(ValueError, match="finite lam >= 0"):
        fc.support_endpoints(TWO, bad)
    with pytest.raises(ValueError, match="finite lam0 >= 0"):
        fc.asymptotic_eplus(TWO, bad)


@pytest.mark.parametrize("bad", [np.nan, -0.5])
def test_outer_roots_refuse_a_negative_or_nan_lam(bad):
    # a negative lam came back as the semicircle (-1, 1, -2, 2), and NaN as
    # an AssumptionViolatedError about a missing edge root
    with pytest.raises(ValueError, match="finite lam >= 0"):
        fc._outer_roots(TWO, bad)


@pytest.mark.parametrize("name,bad", [
    *((name, bad) for name in ("lam", "gamma") for bad in (np.nan, np.inf, -0.5)),
    ("gamma", 0.0),
])
@pytest.mark.parametrize("solve", [
    lambda lam, gamma: fc.solve_point(TWO, lam, gamma, 1.0 + 1e-3j),
    lambda lam, gamma: fc.solve_grid(TWO, lam, gamma, -3.0, 3.0, 11, 1e-3),
    lambda lam, gamma: fc.density_at(fc.FreeConvolutionSolution(
        nu=TWO, lam=lam, gamma=gamma, grid=np.array([0.0, 1.0]),
        m=np.array([1j, 1j]), eta=1e-3, density=np.zeros(2))),
], ids=["solve_point", "solve_grid", "density_at"])
def test_newton_solves_refuse_a_non_finite_coupling(solve, name, bad):
    # a bad coupling is a config error, caught before the first Newton step,
    # not a numerical failure reported after the last one; a negative lam
    # passed for the semicircle, and a gamma <= 0 reversed the support
    with pytest.raises(ValueError, match=f"finite {name}"):
        solve(**{"lam": 0.5, "gamma": 1.0, name: bad})


def test_asymptotic_eplus_error_is_fifth_order():
    ratios = []
    for l in (0.02, 0.05, 0.1, 0.2):
        _, ep = fc.support_endpoints(TWO, l)
        ratios.append(abs(fc.asymptotic_eplus(TWO, l) - ep) / l**5)
    assert max(ratios) < 1.0


def test_variance_identity_small_coupling():
    lam = 0.05
    thm, thp, _, _ = fc._outer_roots(TWO, lam)
    mfc = 0.5 * (1.0 / (lam - thp) + 1.0 / (-lam - thp))
    assert (1.0 - mfc**2) / lam**2 == pytest.approx(ms.central_moment(TWO, 2), rel=0.05)


def _edge_solution(nu, lam, eta=1e-7):
    """A grid solution just below the upper edge, and that edge."""
    _, ep = fc.support_endpoints(nu, lam)
    return fc.solve_grid(nu, lam, 1.0, ep - 0.05, ep - 1e-5, 700, eta), ep


def test_edge_exponent_semicircle():
    amp, expo = fc.edge_exponent_fit(*_edge_solution(D0, 0.0))
    assert expo == pytest.approx(0.5, abs=0.02)
    assert amp == pytest.approx(1.0 / np.pi, rel=0.05)


def test_edge_exponent_deformed_unrescaled():
    amp, expo = fc.edge_exponent_fit(*_edge_solution(TWO, 0.5))
    assert expo == pytest.approx(0.5, abs=0.02)
    # unrescaled amplitude differs from 1/pi (rescaling restores it)
    assert abs(amp * np.pi - 1.0) > 0.02


def test_edge_fit_requires_points():
    sol = fc.solve_grid(D0, 0.0, 1.0, -3.0, 3.0, 30, 1e-5)
    with pytest.raises(fc.InsufficientPointsError):
        fc.edge_exponent_fit(sol, 2.0)


@pytest.mark.parametrize("lam", [0.52, 0.55, 0.6])
def test_solve_point_jacobi_meets_its_true_residual(lam):
    # the Newton solve passes poles near i sqrt(3) lam, where scipy's hyp2f1
    # is wrong; it used to stop at m = i with a true residual near 5e-2
    m = fc.solve_point(ms.Jacobi(1.0, 1.0), lam, 1.0, 1e-5j)
    assert abs(m - complex(ref.deformed_power(1.0, 1.0, lam, 1e-5j + m, 1))) < 1e-12


@st.composite
def measures_and_z(draw):
    locs = draw(st.lists(st.floats(-2, 2), min_size=1, max_size=4, unique=True))
    locs = np.sort(np.array(locs))
    if locs.size > 1 and np.any(np.diff(locs) <= 1e-9):
        locs = locs + np.arange(locs.size) * 1e-6
    w = np.ones(locs.size) / locs.size
    lam = draw(st.floats(0.0, 0.9))
    e = draw(st.floats(-4, 4))
    eta = draw(st.floats(1e-5, 2.0))
    return ms.Atomic(locs, w), lam, complex(e, eta)


@settings(max_examples=40)
@given(measures_and_z())
def test_solver_invariants(case):
    nu, lam, z = case
    m = fc.solve_point(nu, lam, 1.0, z)
    f, _ = fc._maps(nu, lam, 1.0, np.array([z]), np.array([m]))
    assert abs(m - complex(f[0])) < 1e-12
    assert m.imag >= 0
    assert abs(m) <= 1.0 / z.imag + 1e-9


@settings(max_examples=25)
@given(st.floats(0.55, 1.0), st.floats(-1.5, 1.5), st.floats(1e-4, 0.5))
def test_rescale_identity(gamma, e, eta):
    # m with rescale gamma equals gamma^-1 m_fc(z/gamma) for the same (nu, lam)
    z = complex(e, eta)
    lhs = fc.solve_point(TWO, 0.5, gamma, z)
    rhs = fc.solve_point(TWO, 0.5, 1.0, z / gamma) / gamma
    assert lhs == pytest.approx(rhs, abs=5e-11)
