"""The tests' Jacobi-law reference, independent of dwedge.measure.

Integrals against the density (1+v)^a (1-v)^b / Z on [-1, 1] are mpmath
tanh-sinh quadratures at 30 digits, split at geometric distances around the
point of the support nearest the pole, so that a pole just off the support
is resolved.  The edge data (zeta, gamma, E+, L+) solve the edge equation
integral dnu/(lam v - zeta)^2 = 1 with these integrals and a bracketing
root finder, sharing no code with dwedge.
"""

import mpmath as mp

_DIGITS = mp.workdps(30)


@_DIGITS
def integral(a, b, g, near=None):
    """integral g(v) dnu(v) over Jacobi(a, b), split around `near`."""
    a, b = mp.mpf(a), mp.mpf(b)
    z = 2 ** (a + b + 1) * mp.beta(a + 1, b + 1)
    pts = {mp.mpf(-1), mp.mpf(1)}
    if near is not None:
        r = min(max(mp.re(near), -1), 1)
        d = max(abs(near - r), mp.mpf(10) ** -25)
        pts.add(r)
        pts.update(t for k in range(30) for t in (r - d * 10**k, r + d * 10**k)
                   if -1 < t < 1)
    return mp.quad(lambda v: g(v) * (1 + v) ** a * (1 - v) ** b, sorted(pts)) / z


@_DIGITS
def deformed_power(a, b, scale, pole, n, weight=0):
    """integral v^weight dnu(v) / (scale v - pole)^n over Jacobi(a, b)."""
    s, p = mp.mpf(scale), mp.mpmathify(pole)
    return integral(a, b, lambda v: v**weight / (s * v - p) ** n, p / s)


@_DIGITS
def central_moment(a, b, k):
    mu = integral(a, b, lambda v: v)
    return integral(a, b, lambda v: (v - mu) ** k)


@_DIGITS
def edge_scaling(a, b, lam):
    """(zeta, gamma, E+, L+) of Jacobi(a, b) at coupling lam."""
    lam = mp.mpf(lam)

    def excess(theta):
        return deformed_power(a, b, lam, theta, 2) ** mp.mpf(-0.5) - 1

    zeta = mp.findroot(excess, (lam * (1 + mp.mpf(10) ** -9), lam + 1),
                       solver="anderson")
    gamma = (-deformed_power(a, b, lam, zeta, 3)) ** (-mp.mpf(1) / 3)
    e_plus = zeta - deformed_power(a, b, lam, zeta, 1)
    return zeta, gamma, e_plus, gamma * e_plus
