"""Self-consistent solver: closed forms, frozen oracles, edge behavior.

Frozen values and their independent routes:
* two-atom transform at 2i from a 50-digit damped iteration (mpmath),
* densities at E in {0, 0.5} for the two-atom law from the explicit cubic
  m^3 + 2z m^2 + (z^2 + 1 - lam^2) m + z = 0, upper-half-plane root,
* upper edge for the two-atom law from the closed form
  theta^2 = ((2 lam^2 + 1) + sqrt(8 lam^2 + 1))/2, E+ = theta + theta/(theta^2 - lam^2).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dwedge.freeconv as fc
import dwedge.measure as ms

D0 = ms.Atomic(np.array([0.0]), np.array([1.0]))
TWO = ms.Atomic(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))


def semicircle_m(z):
    m = (-z + np.sqrt(z * z - 4.0 + 0j)) / 2.0
    return m if m.imag >= 0 else (-z - np.sqrt(z * z - 4.0 + 0j)) / 2.0


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


def test_residual_below_tolerance():
    for z in (2j, 0.3 + 1e-6j, 2.2018 + 1e-7j):
        m = fc.solve_point(TWO, 0.5, 1.0, z, tol=1e-13)
        f = m_map = complex(fc._maps(TWO, 0.5, 1.0, np.array([z]), np.array([m]))[0][0])
        assert abs(m - f) < 1e-13


def test_iteration_error_carries_residual():
    with pytest.raises(fc.IterationError) as exc:
        fc.solve_point(D0, 0.0, 1.0, 2.0 + 1e-9j, tol=1e-12, max_iter=3)
    assert exc.value.residual > 0


def test_solve_grid_error_index_is_global():
    # the reported index is the global one, so that point fails on its own
    # too, at the same iteration budget
    grid = np.linspace(-1.0, 2.5, 1001)
    with pytest.raises(fc.IterationError) as exc:
        fc.solve_grid(D0, 0.0, 1.0, -1.0, 2.5, grid.size, 1e-9, max_iter=6)
    k = exc.value.index
    assert 256 < k < grid.size
    with pytest.raises(fc.IterationError):
        fc.solve_point(D0, 0.0, 1.0, complex(grid[k], 1e-9), max_iter=6)


def test_solve_grid_semicircle_density():
    sol = fc.solve_grid(D0, 0.0, 1.0, -3.0, 3.0, 1201, 1e-6)
    rho = np.sqrt(np.clip(4.0 - sol.grid**2, 0.0, None)) / (2.0 * np.pi)
    core = np.abs(sol.grid) <= 1.9
    assert np.max(np.abs(sol.density - rho)[core]) < 1e-6
    assert sol.support == pytest.approx((-2.0, 2.0), abs=1e-10)
    # residual invariant on every stored point
    f, _ = fc._maps(D0, 0.0, 1.0, sol.grid + 1j * sol.eta, sol.m)
    assert np.max(np.abs(sol.m - f)) < 1e-10
    assert np.all(sol.m.imag >= 0)


def test_solve_grid_solves_no_edge_root(monkeypatch):
    e_m, e_p = fc.support_endpoints(TWO, 0.5)
    calls = []
    real = fc._outer_roots
    monkeypatch.setattr(fc, "_outer_roots",
                        lambda *a: calls.append(a) or real(*a))
    sol = fc.solve_grid(TWO, 0.5, 0.8, -2.5, 2.5, 101, 1e-4)
    assert calls == []
    # the support is solved when it is read, from the solution's own law
    assert sol.support == (0.8 * e_m, 0.8 * e_p)
    assert len(calls) == 1


def test_solve_grid_two_atom_strong_coupling_gap():
    # lam = 1.5 splits the law into two intervals around a gap at zero
    sol = fc.solve_grid(TWO, 1.5, 1.0, -3.5, 3.5, 1401, 1e-6)
    assert np.all(sol.density >= -1e-15)
    mid = np.abs(sol.grid) < 0.1
    assert sol.density[mid].max() < 1e-4
    assert sol.density.max() > 0.1
    out = (sol.grid < sol.support[0] - 0.05) | (sol.grid > sol.support[1] + 0.05)
    assert sol.density[out].max() < 1e-4


def test_solve_grid_two_atom_symmetric():
    sol = fc.solve_grid(TWO, 0.5, 1.0, -3.0, 3.0, 601, 1e-5)
    assert np.max(np.abs(sol.density - sol.density[::-1])) < 1e-9


DENSITY_ORACLE = [(0.0, 0.275664447700286), (0.5, 0.273974608898419)]


@pytest.mark.parametrize("E,want", DENSITY_ORACLE)
def test_density_at_two_atom_cubic_oracle(E, want):
    assert fc.density_at(TWO, 0.5, 1.0, E) == pytest.approx(want, abs=1e-8)


def test_density_at_semicircle():
    assert fc.density_at(D0, 0.0, 1.0, 0.0) == pytest.approx(1.0 / np.pi, abs=1e-8)
    assert abs(fc.density_at(D0, 0.0, 1.0, 2.5)) < 1e-6


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
    _, ep = fc.support_endpoints(nu, lam)
    return fc.solve_grid(nu, lam, 1.0, ep - 0.05, ep - 1e-5, 700, eta)


def test_edge_exponent_semicircle():
    amp, expo = fc.edge_exponent_fit(_edge_solution(D0, 0.0))
    assert expo == pytest.approx(0.5, abs=0.02)
    assert amp == pytest.approx(1.0 / np.pi, rel=0.05)


def test_edge_exponent_deformed_unrescaled():
    amp, expo = fc.edge_exponent_fit(_edge_solution(TWO, 0.5))
    assert expo == pytest.approx(0.5, abs=0.02)
    # unrescaled amplitude differs from 1/pi (rescaling restores it)
    assert abs(amp * np.pi - 1.0) > 0.02


def test_edge_fit_requires_points():
    sol = fc.solve_grid(D0, 0.0, 1.0, -3.0, 3.0, 30, 1e-5)
    with pytest.raises(fc.InsufficientPointsError):
        fc.edge_exponent_fit(sol)


def test_solution_serialization_round_trip(tmp_path):
    sol = fc.solve_grid(TWO, 0.5, 1.0, -2.5, 2.5, 101, 1e-4)
    back = fc.solution_from_json(fc.solution_to_json(sol))
    np.testing.assert_allclose(back.m, sol.m)
    np.testing.assert_allclose(back.density, sol.density)
    assert back.support == pytest.approx(sol.support)
    csv = fc.solution_to_csv(sol)
    assert csv.splitlines()[0] == "E,re_m,im_m,density"
    assert len(csv.splitlines()) == 102
    p = tmp_path / "sol.json"
    fc.dump_solution(sol, str(p))
    assert p.exists()


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
