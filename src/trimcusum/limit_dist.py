"""Distribution of sup |B(t)| for a Brownian bridge (the Kolmogorov law).

P{sup|B| <= x} = 1 - 2 * sum_{k>=1} (-1)**(k+1) * exp(-2 k**2 x**2).  The CDF and
its inverse are scipy's ``_kolmogc`` and ``_kolmogci`` from
``scipy.special._ufuncs``, the functions behind ``scipy.stats.kstwobign.cdf``
and ``.ppf``.  Unlike the public ``1 - kolmogorov(x)`` and ``kolmogi(1 - level)``
they keep full relative accuracy in the left tail.  ``scipy.stats`` is not
imported: loading it takes more time and memory than importing the whole CLI.
"""

from __future__ import annotations

import math

from scipy.special._ufuncs import _kolmogc, _kolmogci

__all__ = ["sup_bridge_cdf", "sup_bridge_quantile"]


def sup_bridge_cdf(x: float) -> float:
    """P{sup |B(t)| <= x}; zero for x <= 0, strictly increasing to one."""
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    return float(_kolmogc(x))


def sup_bridge_quantile(level: float) -> float:
    """The x with sup_bridge_cdf(x) = level."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in the open interval (0, 1)")
    return float(_kolmogci(level))
