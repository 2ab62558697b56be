"""The tests' one Tracy-Widom reference, independent of dwedge.twstats.

F1 and F2 come from a Fredholm determinant, a route that shares no code
with the Painleve II table; the first two moments of both laws are
Bornemann's literature values; and one helper reads the same two moments
off a CDF table by tail integrals.
"""

import numpy as np
from scipy.special import airy

# points at which criterion 12 and the unit tests read the determinant
POINTS = (-4.0, -2.0, 0.0, 2.0)

# F. Bornemann, On the numerical evaluation of distributions in random
# matrix theory: a review, Math. Comp. 79 (2010) 871-915
TW1_MEAN, TW1_VAR = -1.2065335745820, 1.6077810345810
TW2_MEAN, TW2_VAR = -1.7710868074116, 0.8131947928329


def fredholm_pair(s: float, nodes: int = 50,
                  window: float = 16.0) -> tuple[float, float]:
    """(F1, F2) = (det(I - B), det(I - B) det(I + B)) with the kernel
    B(x, y) = Ai(x + y + s) on (0, inf) (Ferrari and Spohn, J. Phys. A 38
    (2005) L557), by Gauss-Legendre Nystrom with `nodes` nodes on
    [0, window]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x, w = 0.5 * window * (x + 1.0), 0.5 * window * w
    sw = np.sqrt(w)
    b = airy(x[:, None] + x[None, :] + s)[0] * sw[:, None] * sw[None, :]
    minus = np.linalg.det(np.eye(nodes) - b)
    return float(minus), float(minus * np.linalg.det(np.eye(nodes) + b))


def table_moments(grid: np.ndarray, table: np.ndarray) -> tuple[float, float]:
    """(mean, variance) of the CDF `table` on `grid`, from the tail
    integrals E X = int_0^inf (1 - F) - int_-inf^0 F and
    E X^2 = 2 int_0^inf s (1 - F) - 2 int_-inf^0 s F."""
    pos, neg = grid >= 0.0, grid <= 0.0
    mean = np.trapezoid(1.0 - table[pos], grid[pos]) \
        - np.trapezoid(table[neg], grid[neg])
    second = 2.0 * np.trapezoid(grid[pos] * (1.0 - table[pos]), grid[pos]) \
        - 2.0 * np.trapezoid(grid[neg] * table[neg], grid[neg])
    return float(mean), float(second - mean * mean)
