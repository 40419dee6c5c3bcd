"""Closed-form heavy-tailed distribution families used by the trimmed CUSUM test.

Two Pareto-type families with exact power tails (no slowly varying factor), plus
a unit Gaussian control for the finite-variance regime:

* ``two_sided_pareto(alpha, p)``:  F(t) = q*(1-t)**-alpha for t <= 0 and
  F(t) = 1 - p*(1+t)**-alpha for t > 0, with tail weights p + q = 1.
* ``one_sided_pareto(alpha)``: the two-sided family at p = 1, q = 0, with
  support (0, inf), F(t) = 1 - (1+t)**-alpha, density alpha*(1+t)**-(alpha+1).
* ``gaussian()``: standard normal.

For both Pareto families the two-sided survival function of |X| is
H(t) = (1+t)**-alpha with exact inverse H^-1(u) = u**(-1/alpha) - 1, which keeps
every norming constant and truncated moment analytic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._streams import stream_uniforms
from .trimmed_cusum import _check_depth

__all__ = [
    "TWO_SIDED_PARETO",
    "ONE_SIDED_PARETO",
    "GAUSSIAN",
    "TailModel",
    "UnsupportedModelError",
    "two_sided_pareto",
    "one_sided_pareto",
    "gaussian",
    "cdf",
    "quantile",
    "sample_iid",
    "sample_substream",
    "tail_survival",
    "tail_survival_inv",
    "density",
    "mean_shift",
    "truncated_sum_scale",
    "centering_scale",
]

TWO_SIDED_PARETO = "two_sided_pareto"
ONE_SIDED_PARETO = "one_sided_pareto"
GAUSSIAN = "gaussian"

_FAMILIES = (TWO_SIDED_PARETO, ONE_SIDED_PARETO, GAUSSIAN)


class UnsupportedModelError(ValueError):
    """The requested quantity is not defined for this model family."""


def _normal():
    """scipy.special, whose ndtr and ndtri are the normal law's CDF and
    quantile.  It is imported on first use, as only the Gaussian family needs
    it: loading it takes most of the command line's start-up time and
    memory."""
    import scipy.special

    return scipy.special


@dataclass(frozen=True)
class TailModel:
    """A sampling law with Pareto-type tails (or the Gaussian control).

    alpha is the tail index in (0, 2) and p in [0, 1] the right tail weight;
    the left weight q = 1 - p is derived from it.  The Gaussian family carries
    no tail parameters.
    """

    family: str
    alpha: float | None = None
    p: float = 0.5

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == GAUSSIAN:
            if self.alpha is not None:
                raise ValueError("the gaussian family carries no tail index")
            # loaded where the model is built, so that the workers a Monte
            # Carlo run forks inherit the module instead of each importing it
            _normal()
            return
        if self.alpha is None or not 0.0 < self.alpha < 2.0:
            raise ValueError("tail index alpha must lie in (0, 2)")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("tail weight p must lie in [0, 1]")
        if self.family == ONE_SIDED_PARETO and self.p != 1.0:
            raise ValueError("the one-sided family requires p = 1")

    @property
    def q(self) -> float:
        """The left tail weight, 1 - p."""
        return 1.0 - self.p

    @property
    def is_pareto(self) -> bool:
        return self.family != GAUSSIAN


def two_sided_pareto(alpha: float, p: float = 0.5) -> TailModel:
    """Two-sided Pareto-type model with right-tail weight p (left weight 1-p)."""
    return TailModel(TWO_SIDED_PARETO, float(alpha), float(p))


def one_sided_pareto(alpha: float) -> TailModel:
    """Pareto-type model supported on (0, inf)."""
    return TailModel(ONE_SIDED_PARETO, float(alpha), 1.0)


def gaussian() -> TailModel:
    """Standard normal control model (finite variance)."""
    return TailModel(GAUSSIAN)


def _prep(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _ret(out: np.ndarray, scalar: bool):
    return float(out) if scalar else out


def cdf(model: TailModel, t):
    """Distribution function F(t); accepts scalars or arrays."""
    arr, scalar = _prep(t)
    if model.family == GAUSSIAN:
        return _ret(_normal().ndtr(arr), scalar)
    a = model.alpha
    out = np.empty_like(arr)
    neg = arr <= 0.0
    out[neg] = model.q * (1.0 - arr[neg]) ** (-a)
    out[~neg] = 1.0 - model.p * (1.0 + arr[~neg]) ** (-a)
    return _ret(out, scalar)


def _quantile_unchecked(model: TailModel, u: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Inverse CDF of a block of uniforms in (0, 1), unchecked.  With
    overwrite, u (C-contiguous) receives the result and is returned, so a
    caller that owns its block allocates no output."""
    if model.family == GAUSSIAN:
        return _normal().ndtri(u, out=u if overwrite else None)
    a = model.alpha
    # v**(-1/alpha) passes the float range for v < exp(-709.78 * alpha), which
    # samplers meet at small alpha (v < 8.3e-4 at alpha = 0.01).  The draw is
    # then +-inf; the trim removes it unless d or more draws of one sample
    # overflow, and those samples have no statistic.  The block is made 1-d
    # for both Pareto families, because 0-d operands get numpy's scalar pow,
    # which rounds differently from the array loop.
    shape = u.shape
    u = u.reshape(-1)
    out = u if overwrite else None
    with np.errstate(over="ignore"):
        if model.family != TWO_SIDED_PARETO:
            v = np.subtract(1.0, u, out=out)
            v **= -1.0 / a
            v -= 1.0
            return v.reshape(shape)
        # Both branches in one pass, with no boolean gather, scatter or
        # select, which mispredict on random draws.  r is 1.0 on the right
        # (u > q) and 0.0 on the left, so multiplying by r or 1 - r selects
        # exactly: v = (u - r) / ((1-r)*q - r*p) is u/q on the left and
        # -(1-u)/-p = (1-u)/p on the right.  A zero tail weight is never a
        # divisor, since no u in (0, 1) takes its branch.  With sign = 2r - 1,
        # s*sign - sign is 1 - s on the left and s - 1 on the right, bit for
        # bit, and +0.0 at u == q.  r becomes the sign in place, so that a
        # block costs at most three temporaries of its size.
        r = (u > model.q).astype(float)
        v = np.subtract(u, r, out=out)
        den = np.subtract(1.0, r)
        den *= model.q
        den -= r * model.p
        v /= den
        v **= -1.0 / a
        r *= 2.0
        r -= 1.0
        v *= r
        v -= r
    return v.reshape(shape)


def quantile(model: TailModel, u):
    """Inverse of `cdf`; u must lie strictly inside (0, 1)."""
    arr, scalar = _prep(u)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("probability u must lie in the open interval (0, 1)")
    return _ret(_quantile_unchecked(model, arr), scalar)


def sample_substream(model: TailModel, n: int, seed: int, stream: int) -> np.ndarray:
    """Inverse-CDF sample of size n from substream `stream` of seed `seed`."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return _quantile_unchecked(model, stream_uniforms(seed, stream, n))


def sample_iid(model: TailModel, n: int, seed: int) -> np.ndarray:
    """Length-n i.i.d. sample; a pure function of (model, n, seed)."""
    return sample_substream(model, n, seed, 0)


def tail_survival(model: TailModel, t):
    """P{|X| > t} for t >= 0; equals (1+t)**-alpha for the Pareto families."""
    arr, scalar = _prep(t)
    if not np.all(arr >= 0.0):
        raise ValueError("t must be nonnegative")
    if model.family == GAUSSIAN:
        out = 2.0 * _normal().ndtr(-arr)
    else:
        out = (1.0 + arr) ** (-model.alpha)
    return _ret(out, scalar)


def tail_survival_inv(model: TailModel, u):
    """Upper quantile of |X|: the t >= 0 with P{|X| > t} = u, for u in (0, 1]."""
    arr, scalar = _prep(u)
    if not np.all((arr > 0.0) & (arr <= 1.0)):
        raise ValueError("probability u must lie in (0, 1]")
    if model.family == GAUSSIAN:
        out = -_normal().ndtri(arr / 2.0)
    else:
        out = arr ** (-1.0 / model.alpha) - 1.0
    return _ret(out, scalar)


def density(model: TailModel, t):
    """Density f(t) = F'(t).

    The two-sided family has a jump at 0 when p != q; the left-branch value is
    returned at t = 0, matching the t <= 0 branch of F.
    """
    arr, scalar = _prep(t)
    if model.family == GAUSSIAN:
        out = np.exp(-0.5 * arr * arr) / math.sqrt(2.0 * math.pi)
        return _ret(out, scalar)
    a = model.alpha
    out = np.empty_like(arr)
    neg = arr <= 0.0
    out[neg] = model.q * a * (1.0 - arr[neg]) ** (-a - 1.0)
    out[~neg] = model.p * a * (1.0 + arr[~neg]) ** (-a - 1.0)
    return _ret(out, scalar)


def _first_moment_difference(model: TailModel, t: np.ndarray, c) -> np.ndarray:
    """E[X * 1{|X| <= t}] - E[X * 1{|X| <= c}] for t, c >= 0, in closed form;
    at c = 0 it is the truncated first moment itself."""
    if model.family == GAUSSIAN:
        return np.zeros_like(t)
    a = model.alpha
    # One-sided building block: g(t) = integral of x*a*(1+x)**-(a+1) over
    # (0, t], a/(1-a) * ((1+t)**(1-a) - 1) + (1+t)**-a - 1.  The difference
    # g(t) - g(c) is written directly, with L = log((1+t)/(1+c)) =
    # log1p((t-c)/(1+c)) and (1+t)**s - (1+c)**s = (1+c)**s * expm1(s*L), so
    # that it keeps its digits as t -> c, and the first term as a -> 1.
    with np.errstate(divide="ignore"):
        log_ratio = np.log1p((t - c) / (1.0 + c))
    # (t-c)/(1+c) rounds to -1 once 1+t is below 2**-53 (1+c), as realized
    # thresholds of small tail indices are; L is then the difference of logs
    lost = np.isneginf(log_ratio)
    if np.any(lost):
        log_ratio = np.where(lost, np.log1p(t) - math.log1p(c), log_ratio)
    if a == 1.0:
        # 1/(1+t) - 1/(1+c) = -((t-c)/(1+c)) / (1+t), with t capped at the
        # largest double, where the term is about -1/(1+c): at t = inf the sum
        # is the log's inf, not inf - inf/inf
        capped = np.minimum(t, np.finfo(float).max)
        g = log_ratio - (capped - c) / (1.0 + c) / (1.0 + capped)
    else:
        g = (a * ((1.0 + c) ** (1.0 - a) * np.expm1((1.0 - a) * log_ratio)) / (1.0 - a)
             + (1.0 + c) ** -a * np.expm1(-a * log_ratio))
    # The left tail mirrors the right with weight q, so it contributes -q*g.
    return (model.p - model.q) * g


def _depth_threshold(model: TailModel, d: int, n: int) -> float:
    """H^-1(d/n), the deterministic threshold of trim depth d in a sample of n.

    At a small tail index it passes the float range (at alpha = 0.01 once
    d/n < 8.3e-4); every norming constant built on it is then undefined, so
    a ValueError names alpha, d and n instead of an overflow warning and an
    inf that would turn into a NaN or a division by zero downstream.
    """
    _check_depth(d, n)
    with np.errstate(over="ignore"):
        hinv = tail_survival_inv(model, d / n)
    if not math.isfinite(hinv):
        raise ValueError(
            f"H^-1(d/n) passes the float range at alpha={model.alpha}, d={d}, n={n}; "
            "a larger tail index or d/n keeps it finite"
        )
    return hinv


def mean_shift(model: TailModel, t, d: int, n: int):
    """Expected mean shift between truncation at t and at the t of rank d/n.

    Returns E[X*1{|X| <= t}] - E[X*1{|X| <= c}] where c is the deterministic
    threshold with P{|X| > c} = d/n.  Vanishes at t = c, and keeps its
    relative accuracy next to it; for asymmetric laws it is the random
    centering that separates trimmed from truncated partial sums.
    """
    c = _depth_threshold(model, d, n)
    arr, scalar = _prep(t)
    if not np.all(arr >= 0.0):
        raise ValueError("t must be nonnegative")
    return _ret(_first_moment_difference(model, arr, c), scalar)


def truncated_sum_scale(model: TailModel, d: int, n: int) -> float:
    """Deterministic scale of the truncated partial-sum process.

    sqrt(alpha/(2-alpha)) * H^-1(d/n) * sqrt(d), the norming under which the
    trimmed CUSUM converges to a Brownian bridge.  Defined for Pareto-type
    tails only; the Gaussian family has no stable-domain scale.
    """
    if not model.is_pareto:
        raise UnsupportedModelError("truncated_sum_scale requires Pareto-type tails")
    hinv = _depth_threshold(model, d, n)
    # H^-1 stays outside the root: its square passes the float range once the
    # scale is past 1.3e154, as it is at small tail indices
    return hinv * math.sqrt(model.alpha / (2.0 - model.alpha) * d)


def centering_scale(model: TailModel, d: int, n: int) -> float:
    """Scale of the random centering term for the one-sided family.

    alpha * d**1.5 / (n * |H'(H^-1(d/n))|).  H is the survival function of |X|,
    so H' = -f; the absolute value keeps the scale positive.
    """
    if model.family != ONE_SIDED_PARETO:
        raise UnsupportedModelError("centering_scale is defined for the one-sided family")
    hinv = _depth_threshold(model, d, n)
    return model.alpha * d ** 1.5 / (n * density(model, hinv))
