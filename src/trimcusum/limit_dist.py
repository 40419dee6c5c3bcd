"""Distribution of sup |B(t)| for a Brownian bridge (the Kolmogorov law).

K(x) = P{sup|B| <= x} has two series (Kolmogorov 1933):

    K(x) = 1 - 2 * sum_{k>=1} (-1)**(k+1) * exp(-2 k**2 x**2)
         = sqrt(2 pi) / x * sum_{k>=1} exp(-(2k-1)**2 pi**2 / (8 x**2)).

Each converges fast on its own side of x = 1, and both are summed here with
the standard library's decimal module at 40 significant digits: the theta
series, of positive terms, below x = 1, where it keeps full relative
accuracy deep into the left tail (K passes below the smallest double near
x = 0.04), and the alternating series of the survival function 1 - K above.
The quantile solves K(x) = level by Newton's method from a closed-form float
start, on log K up to the median and on log(1 - K) above it, so that both
tails keep their relative accuracy.  Each function returns the double
nearest its 40-digit value, which is the correctly rounded result unless the
exact value lies within about 1e-38 relative of a rounding boundary.
Quantiles are memoised per level.  Only the standard library is used, so the
Pareto paths of the command line load no scipy.
"""

from __future__ import annotations

import decimal
import functools
import math
from decimal import Decimal

__all__ = ["sup_bridge_cdf", "sup_bridge_quantile"]

_DIGITS = 40
_PI = Decimal("3.141592653589793238462643383279502884197169399375")
_ROOT_TWO_PI = Decimal("2.506628274631000502415765284811045253006986740610")
# A term below this fraction of the running sum no longer moves its 40 digits.
_NEGLIGIBLE = Decimal("1e-45")
# Newton's method converges quadratically: once a step is below 1e-25 of x,
# the error left is far below the 40 digits the series carry.
_CONVERGED = Decimal("1e-25")
_MAX_STEPS = 100
# 40 digits and the widest exponent range, so that no term of either series
# over- or underflows before it is negligible.  Every computation runs in a
# copy of it, whatever the caller's decimal context.
_CONTEXT = decimal.Context(
    prec=_DIGITS, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX,
    traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow],
)


def _law(x: Decimal) -> tuple[Decimal, Decimal, Decimal]:
    """K(x), 1 - K(x) and the density K'(x) at x > 0, in the current context."""
    total = slope = Decimal(0)
    k = 1
    if x < 1:
        # c_k = (2k-1)**2 pi**2 / (8 x**2): K = sqrt(2 pi)/x * sum exp(-c_k),
        # K' = sqrt(2 pi)/x**2 * sum exp(-c_k) * (2 c_k - 1)
        a = _PI * _PI / (8 * x * x)
        while True:
            c = (2 * k - 1) ** 2 * a
            term = (-c).exp()
            if term <= total * _NEGLIGIBLE:  # an underflow to zero ends it too
                break
            total += term
            slope += term * (2 * c - 1)
            k += 1
        cdf = _ROOT_TWO_PI / x * total
        return cdf, 1 - cdf, _ROOT_TWO_PI / (x * x) * slope
    # 1 - K = 2 sum (-1)**(k+1) exp(-2 k**2 x**2), K' = 8x sum (-1)**(k+1) k**2 exp(...)
    b = 2 * x * x
    while True:
        term = (-(k * k) * b).exp()
        if term <= abs(total) * _NEGLIGIBLE:
            break
        if k % 2:
            total += term
            slope += k * k * term
        else:
            total -= term
            slope -= k * k * term
        k += 1
    survival = 2 * total
    return 1 - survival, survival, 8 * x * slope


def sup_bridge_cdf(x: float) -> float:
    """P{sup |B(t)| <= x}; zero for x <= 0, strictly increasing to one."""
    x = float(x)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    if x <= 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    with decimal.localcontext(_CONTEXT):
        return float(_law(Decimal(x))[0])


def sup_bridge_quantile(level: float) -> float:
    """The x with sup_bridge_cdf(x) = level."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in the open interval (0, 1)")
    return _quantile(float(level))


def _start(level: float) -> float:
    """A float start for Newton's method: the first term of the series that
    the tail of `level` is solved on.  Up to the median, the fixed point of
    x = pi / sqrt(8 log(sqrt(2 pi) / (x level))), which stays in (0, 1);
    above it, the root of 2 exp(-2 x**2) = 1 - level (exact for a double
    level >= 1/2)."""
    if level <= 0.5:
        x, log_level = 1.0, math.log(level)
        for _ in range(4):
            x = math.pi / math.sqrt(8.0 * (math.log(math.sqrt(2.0 * math.pi) / x) - log_level))
        return x
    return math.sqrt(math.log(2.0 / (1.0 - level)) / 2.0)


@functools.lru_cache(maxsize=128)
def _quantile(level: float) -> float:
    """sup_bridge_quantile of a checked level, memoised per level.

    Newton's method on g(x) = log K(x) - log level up to the median and on
    log(1 - K(x)) - log(1 - level) above it; each step is kept within a
    factor of two of x, so the iterate stays positive however far the
    first tangent reaches.
    """
    lower = level <= 0.5
    with decimal.localcontext(_CONTEXT):
        goal = (Decimal(level) if lower else 1 - Decimal(level)).ln()
        x = Decimal(_start(level))
        for _ in range(_MAX_STEPS):
            cdf, survival, density = _law(x)
            if lower:
                step = (cdf.ln() - goal) * cdf / density
            else:
                step = (goal - survival.ln()) * survival / density
            x = min(max(x - step, x / 2), 2 * x)
            if abs(step) < x * _CONVERGED:
                return float(x)
    raise ArithmeticError(f"the quantile at level {level!r} did not converge")
