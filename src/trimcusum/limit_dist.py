"""Distribution of sup |B(t)| for a Brownian bridge (the Kolmogorov law).

P{sup|B| <= x} = 1 - 2 * sum_{k>=1} (-1)**(k+1) * exp(-2 k**2 x**2), evaluated
by direct alternating summation.  Below a small-x cutoff the direct series
needs too many terms, so the Jacobi theta dual of the same function is used:
sqrt(2*pi)/x * sum_{j>=0} exp(-(2j+1)**2 pi**2 / (8 x**2)).
"""

from __future__ import annotations

import math

from scipy.optimize import brentq

__all__ = ["sup_bridge_cdf", "sup_bridge_quantile"]

# Below this point the alternating series converges too slowly; the dual form
# converges in one or two terms there and the two agree to ~1e-13 at the seam.
_DUAL_CUTOFF = 0.2
# The direct series stops at the first term below _SERIES_TOL, within _MAX_TERMS.
_SERIES_TOL = 1e-12
_MAX_TERMS = 100


def sup_bridge_cdf(x: float) -> float:
    """P{sup |B(t)| <= x}; zero for x <= 0, strictly increasing to one."""
    if x <= 0.0:
        return 0.0
    if x < _DUAL_CUTOFF:
        c = math.pi * math.pi / (8.0 * x * x)
        total = 0.0
        for j in range(8):
            term = math.exp(-((2 * j + 1) ** 2) * c)
            total += term
            if term < 1e-320:
                break
        return math.sqrt(2.0 * math.pi) / x * total
    acc = 0.0
    sign = 1.0
    term = math.inf
    for k in range(1, _MAX_TERMS + 1):
        term = math.exp(-2.0 * k * k * x * x)
        acc += sign * term
        sign = -sign
        if term < _SERIES_TOL:
            break
    # Alternating with strictly decreasing terms: the remainder is bounded by
    # the first omitted term, so stopping under tolerance certifies the error.
    if term >= _SERIES_TOL:
        raise ArithmeticError(
            f"series did not reach tolerance {_SERIES_TOL} within {_MAX_TERMS} terms"
        )
    return min(max(1.0 - 2.0 * acc, 0.0), 1.0)


def sup_bridge_quantile(level: float) -> float:
    """The x with sup_bridge_cdf(x) = level, by bracketed root-finding on [0, 5]."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in the open interval (0, 1)")

    def f(x: float) -> float:
        return sup_bridge_cdf(x) - level

    return float(brentq(f, 0.0, 5.0, xtol=1e-12, rtol=8.882e-16))
