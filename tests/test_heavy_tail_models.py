import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from trimcusum import (
    TailModel,
    UnsupportedModelError,
    cdf,
    centering_scale,
    density,
    gaussian,
    mean_shift,
    one_sided_pareto,
    quantile,
    sample_iid,
    sample_substream,
    tail_survival,
    tail_survival_inv,
    truncated_sum_scale,
    two_sided_pareto,
)
from trimcusum.heavy_tail_models import _first_moment_difference, _quantile_unchecked

ALL_MODELS = [
    two_sided_pareto(1.5),
    two_sided_pareto(1.5, p=0.8),
    two_sided_pareto(0.7, p=0.3),
    one_sided_pareto(1.5),
    one_sided_pareto(0.9),
    gaussian(),
]


def test_model_validation():
    with pytest.raises(ValueError):
        TailModel("two_sided_pareto", alpha=2.0)
    with pytest.raises(ValueError):
        TailModel("two_sided_pareto", alpha=0.0)
    with pytest.raises(ValueError):
        TailModel("two_sided_pareto", alpha=1.5, p=1.5)
    with pytest.raises(ValueError):
        TailModel("one_sided_pareto", alpha=1.5, p=0.5)
    with pytest.raises(ValueError):
        TailModel("gaussian", alpha=1.5)
    with pytest.raises(ValueError):
        TailModel("lognormal")


def test_the_left_weight_is_derived_from_p():
    # q is 1 - p, not a parameter: a model built directly draws what the
    # factory's model draws, and a q beside p is refused
    model = TailModel("two_sided_pareto", 1.5, 0.3)
    assert model.q == 1.0 - 0.3
    assert model == two_sided_pareto(1.5, 0.3)
    assert_array_equal(sample_iid(model, 1000, seed=3), sample_iid(two_sided_pareto(1.5, 0.3), 1000, seed=3))
    assert one_sided_pareto(1.5).q == 0.0
    with pytest.raises(TypeError):
        TailModel("two_sided_pareto", 1.5, 0.5, q=0.5)


def test_a_substream_sample_needs_an_observation():
    with pytest.raises(ValueError, match="^n must be at least 1$"):
        sample_substream(two_sided_pareto(1.5), 0, 3, 4)


def test_cdf_known_values():
    m = two_sided_pareto(1.5)
    assert cdf(m, 0.0) == 0.5
    assert cdf(m, 3.0) == pytest.approx(1.0 - 0.5 * 4.0 ** -1.5, abs=1e-15)  # 0.9375
    assert cdf(one_sided_pareto(1.5), -1.0) == 0.0
    assert cdf(gaussian(), 0.0) == pytest.approx(0.5, abs=1e-15)


def test_cdf_limits_and_monotonicity():
    grid = np.linspace(-50.0, 50.0, 401)
    for m in ALL_MODELS:
        values = cdf(m, grid)
        assert np.all(np.diff(values) >= 0.0)
        assert cdf(m, -1e15) < 1e-8
        assert cdf(m, 1e15) > 1.0 - 1e-8


def test_quantile_known_values():
    m = two_sided_pareto(1.5)
    assert quantile(m, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert quantile(m, 0.9) == pytest.approx(0.2 ** (-2.0 / 3.0) - 1.0, rel=1e-14)


def test_quantile_domain_errors():
    m = two_sided_pareto(1.5)
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            quantile(m, bad)


def test_cdf_quantile_round_trip_grid():
    grid = np.arange(1, 100) / 100.0
    for m in ALL_MODELS:
        assert_allclose(cdf(m, quantile(m, grid)), grid, rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(0.05, 1.95),
    p=st.floats(0.0, 1.0),
    u=st.floats(1e-6, 1.0 - 1e-6),
)
def test_round_trip_property(alpha, p, u):
    m = two_sided_pareto(alpha, p=p)
    assert cdf(m, quantile(m, u)) == pytest.approx(u, rel=1e-11, abs=1e-11)


def two_branch_quantile(model, u):
    """The two-sided inverse CDF as its two branches read, one gather each."""
    u = np.atleast_1d(u)
    out = np.empty_like(u)
    left = u <= model.q
    with np.errstate(over="ignore"):
        out[left] = 1.0 - (u[left] / model.q) ** (-1.0 / model.alpha)
        out[~left] = ((1.0 - u[~left]) / model.p) ** (-1.0 / model.alpha) - 1.0
    return out


def probabilities_around(q):
    """The branch point, its float neighbours and the ends of the sampler's range."""
    near = [q, np.nextafter(q, 0.0), np.nextafter(q, 1.0), 2.0**-53, 1.0 - 2.0**-53]
    return [u for u in near if 0.0 < u < 1.0]


@settings(max_examples=80, deadline=None)
@given(
    alpha=st.sampled_from([0.01, 1.0, 1.99]) | st.floats(0.01, 1.99),
    p=st.sampled_from([0.0, 1e-300, 0.5, 1.0 - 1e-16, 1.0]) | st.floats(0.0, 1.0),
    drawn=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=40),
    cols=st.integers(1, 5),
)
def test_two_sided_quantile_is_its_two_branches_bit_for_bit(alpha, p, drawn, cols):
    model = two_sided_pareto(alpha, p)
    u = np.array(probabilities_around(model.q) + drawn)
    expected = two_branch_quantile(model, u)
    rows = u.size // cols
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        block = _quantile_unchecked(model, u[: rows * cols].reshape(rows, cols))
        assert block.shape == (rows, cols)
        assert_array_equal(block.ravel().view(np.int64), expected[: rows * cols].view(np.int64))
        for ui, want in zip(u, expected):
            got = _quantile_unchecked(model, np.asarray(ui))
            assert got.shape == ()
            assert got.view(np.int64) == want.view(np.int64)
            assert quantile(model, float(ui)) == want


@pytest.mark.parametrize("model", ALL_MODELS + [two_sided_pareto(0.01)])
def test_quantile_in_place_is_the_quantile_bit_for_bit(model):
    # Monte Carlo sample blocks go through the inverse CDF in place
    u = np.random.default_rng(3).random((7, 53))
    edges = probabilities_around(model.q)
    u[0, : len(edges)] = edges
    drawn = u.copy()
    with np.errstate(over="ignore"):
        expected = _quantile_unchecked(model, u)
        assert_array_equal(u.view(np.int64), drawn.view(np.int64))  # left as drawn
        got = _quantile_unchecked(model, u, overwrite=True)
    assert got.shape == u.shape and np.shares_memory(got, u)
    assert_array_equal(u.view(np.int64), expected.view(np.int64))


def test_two_sided_quantile_overflows_to_signed_inf_and_is_zero_at_the_branch_point():
    model = two_sided_pareto(0.01)
    u = np.array([2.0**-53, 0.5, 1.0 - 2.0**-53])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = _quantile_unchecked(model, u)
    assert_array_equal(out, [-np.inf, 0.0, np.inf])
    assert out[1].view(np.int64) == 0  # +0.0, as 1.0 - 1.0 gives


def test_sample_iid_deterministic_and_support():
    m = two_sided_pareto(1.5)
    a = sample_iid(m, 1000, seed=123)
    b = sample_iid(m, 1000, seed=123)
    np.testing.assert_array_equal(a, b)
    assert a.size == 1000
    assert not np.array_equal(a, sample_iid(m, 1000, seed=124))
    one = sample_iid(one_sided_pareto(1.5), 1000, seed=5)
    assert np.all(one > 0.0)


def test_sample_iid_tail_fraction():
    # P{X > 3} = p * 4**-1.5 = 0.0625; binomial check within 3 standard errors.
    m = two_sided_pareto(1.5)
    n = 100_000
    x = sample_iid(m, n, seed=0)
    frac = np.count_nonzero(x > 3.0) / n
    se = math.sqrt(0.0625 * (1.0 - 0.0625) / n)
    assert abs(frac - 0.0625) <= 3.0 * se


def test_sample_iid_ks_distance():
    n = 100_000
    bound = 1.63 / math.sqrt(n) * 1.5
    for m in ALL_MODELS:
        x = np.sort(sample_iid(m, n, seed=11))
        f = cdf(m, x)
        grid = np.arange(1, n + 1) / n
        ks = max((grid - f).max(), (f - (grid - 1.0 / n)).max())
        assert ks <= bound, m


def test_tail_survival_known_values():
    m = two_sided_pareto(1.5)
    assert tail_survival(m, 0.0) == 1.0
    assert tail_survival(m, 3.0) == pytest.approx(0.125, abs=1e-15)
    t = np.linspace(0.0, 40.0, 200)
    for model in ALL_MODELS:
        values = tail_survival(model, t)
        assert np.all(np.diff(values) <= 0.0)
    with pytest.raises(ValueError):
        tail_survival(m, -0.5)


def test_tail_survival_matches_cdf_identity():
    # H(t) = 1 - F(t) + F(-t) for t >= 0.
    t = np.linspace(0.0, 30.0, 301)
    for m in ALL_MODELS:
        lhs = tail_survival(m, t)
        rhs = 1.0 - cdf(m, t) + cdf(m, -t)
        assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_tail_survival_inv_known_values():
    m = two_sided_pareto(1.5)
    assert tail_survival_inv(m, 1.0) == 0.0
    assert tail_survival_inv(m, 0.125) == pytest.approx(3.0, rel=1e-14)
    assert tail_survival_inv(m, 0.04) == pytest.approx(25.0 ** (2.0 / 3.0) - 1.0, rel=1e-14)
    with pytest.raises(ValueError):
        tail_survival_inv(m, 0.0)
    with pytest.raises(ValueError):
        tail_survival_inv(m, 1.2)


def test_tail_survival_round_trip():
    u = np.arange(1, 100) / 100.0
    for m in ALL_MODELS:
        assert_allclose(tail_survival(m, tail_survival_inv(m, u)), u, rtol=1e-12, atol=1e-12)


def test_density_known_values():
    one = one_sided_pareto(1.5)
    assert density(one, 1e-13) == pytest.approx(1.5, rel=1e-10)
    assert density(one, -1.0) == 0.0


@pytest.mark.parametrize("model", ALL_MODELS, ids=str)
@pytest.mark.parametrize("t", [2.0, -2.0, 0.7])
def test_density_finite_difference(model, t):
    h = 1e-5
    numeric = (cdf(model, t + h) - cdf(model, t - h)) / (2.0 * h)
    assert density(model, t) == pytest.approx(numeric, rel=1e-6, abs=1e-12)


def test_mean_shift_vanishes_at_reference_threshold():
    one = one_sided_pareto(1.5)
    t0 = tail_survival_inv(one, 4 / 100)
    assert mean_shift(one, t0, 4, 100) == pytest.approx(0.0, abs=1e-14)


def test_mean_shift_hand_value():
    # E[X 1{X<=3}] = 0.625 and E[X 1{X<=H^-1(0.04)}] = 1.01401 for alpha = 1.5.
    one = one_sided_pareto(1.5)
    assert mean_shift(one, 3.0, 4, 100) == pytest.approx(0.625 - 1.01401, abs=1e-4)


def test_mean_shift_monte_carlo_oracle():
    one = one_sided_pareto(1.5)
    t, d, n = 3.0, 4, 100
    ref = tail_survival_inv(one, d / n)
    draws = sample_iid(one, 1_000_000, seed=77)
    terms = draws * ((draws <= t).astype(float) - (draws <= ref).astype(float))
    est = terms.mean()
    se = terms.std(ddof=1) / math.sqrt(terms.size)
    assert abs(est - mean_shift(one, t, d, n)) <= 3.0 * se


def test_mean_shift_monotone_one_sided():
    one = one_sided_pareto(1.5)
    t = np.linspace(0.0, 60.0, 500)
    values = mean_shift(one, t, 4, 100)
    assert np.all(np.diff(values) >= 0.0)


def test_mean_shift_symmetric_two_sided_is_zero():
    m = two_sided_pareto(1.5)
    assert_allclose(mean_shift(m, np.linspace(0, 20, 50), 4, 100), 0.0, atol=1e-15)
    assert mean_shift(gaussian(), 2.0, 4, 100) == 0.0


def test_mean_shift_alpha_one_branch():
    # alpha = 1 uses the log antiderivative; cross-check by quadrature.
    from scipy.integrate import quad

    one = one_sided_pareto(1.0)
    t, d, n = 5.0, 4, 100
    ref = tail_survival_inv(one, d / n)
    lo, hi = sorted((t, ref))
    expected, _ = quad(lambda x: x * density(one, x), lo, hi)
    if t < ref:
        expected = -expected
    assert mean_shift(one, t, d, n) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize(
    "alpha,t,expected",
    [
        # a/(1-a) * ((1+t)**(1-a) - 1) + (1+t)**-a - 1, in 50-digit arithmetic
        # at the binary value of each alpha, rounded to the nearest double
        (1 + 1e-13, 0.5, 0.07213177477483634),
        (1 - 1e-13, 0.5, 0.07213177477482575),
        (1 + 1e-8, 0.5, 0.07213177530437163),
        (1 - 1e-8, 0.5, 0.07213177424529045),
        (0.5, 0.5, 0.04124145231931508),
        (1.5, 0.5, 0.09484131116863925),
        (1 + 1e-13, 100.0, 3.6250215069396616),
        (1 - 1e-13, 100.0, 3.6250215069408775),
        (1 + 1e-8, 100.0, 3.625021446137846),
        (1 - 1e-8, 100.0, 3.6250215677426945),
        (0.5, 100.0, 8.14937934014189),
        (1.5, 100.0, 1.7024740282738449),
    ],
)
def test_truncated_first_moment_keeps_its_digits_near_alpha_one(alpha, t, expected):
    # the one-sided family's E[X 1{X <= t}], the difference from c = 0; its
    # power-difference form lost up to 1e-3 of it next to alpha = 1
    value = float(_first_moment_difference(one_sided_pareto(alpha), np.asarray(t), 0.0))
    assert abs(value - expected) <= 4 * np.finfo(float).eps * expected


@pytest.mark.parametrize(
    "alpha,t,c,expected",
    [
        # g(t) - g(c) with g(t) = a/(1-a) * ((1+t)**(1-a) - 1) + (1+t)**-a - 1
        # (log(1+t) + 1/(1+t) - 1 at a = 1), in 50-digit arithmetic at the
        # binary values of alpha, t and c, rounded to the nearest double.  c is
        # H^-1(31/1e5), and t/c - 1 runs over +-1e-1, 1e-4, +-1e-8 and +-1e-12;
        # the difference of the two moments lost up to 2e-3 of it at 1e-12.
        (1.5, 239.05127088121634, 217.3193371647421, 0.00936736846090614),
        (1.5, 217.34106909845858, 217.3193371647421, 1.005831356052852e-05),
        (1.5, 217.31933933793547, 217.3193371647421, 1.0059062066547838e-09),
        (1.5, 217.31933716495945, 217.3193371647421, 1.0060056175465986e-13),
        (1.5, 217.3193371645248, 217.3193371647421, -1.0058740619553738e-13),
        (1.5, 217.31933499154871, 217.3193371647421, -1.005906234783749e-09),
        (1.5, 195.5874034482679, 217.3193371647421, -0.010875548879263765),
        (1.0, 3547.287096774194, 3224.8064516129034, 0.09525382371321904),
        (1.0, 3225.1289322580647, 3224.8064516129034, 9.99330161402739e-05),
        (1.0, 3224.8064838609675, 3224.8064516129034, 9.993800795852087e-09),
        (1.0, 3224.8064516161285, 3224.8064516129034, 9.994612168151896e-13),
        (1.0, 3224.806451609679, 3224.8064516129034, -9.99320288838634e-13),
        (1.0, 3224.806419364839, 3224.8064516129034, -9.993801036656113e-09),
        (1.0, 2902.325806451613, 3224.8064516129034, -0.10529163922592255),
        (1 + 1e-8, 3547.2868101022073, 3224.8061910020065, 0.09525381692032749),
        (1 + 1e-8, 3225.1286716211066, 3224.8061910020065, 9.993300906101278e-05),
        (1 + 1e-8, 3224.8062232500683, 3224.8061910020065, 9.993800190899833e-09),
        (1 + 1e-8, 3224.8061910052315, 3224.8061910020065, 9.994612267847627e-13),
        (1 + 1e-8, 3224.806190998782, 3224.8061910020065, -9.993202988068015e-13),
        (1 + 1e-8, 3224.8061587539446, 3224.8061910020065, -9.993800290775875e-09),
        (1 + 1e-8, 2902.3255719018057, 3224.8061910020065, -0.10529163182227883),
        (1 - 1e-8, 3547.2873834462125, 3224.8067122238294, 0.09525383050611112),
        (1 - 1e-8, 3225.129192895052, 3224.8067122238294, 9.993302321953484e-05),
        (1 - 1e-8, 3224.8067444718963, 3224.8067122238294, 9.993801541732302e-09),
        (1 - 1e-8, 3224.8067122270545, 3224.8067122238294, 9.994612068456164e-13),
        (1 - 1e-8, 3224.806712220605, 3224.8067122238294, -9.993202788704665e-13),
        (1 - 1e-8, 3224.806679975762, 3224.8067122238294, -9.993801782536331e-09),
        (1 - 1e-8, 2902.3260410014464, 3224.8067122238294, -0.10529164662956714),
    ],
)
def test_first_moment_difference_keeps_its_digits_near_c(alpha, t, c, expected):
    value = float(_first_moment_difference(one_sided_pareto(alpha), np.asarray(t), c))
    assert abs(value - expected) <= 4 * np.finfo(float).eps * abs(expected)
    # the left tail mirrors the right
    two = float(_first_moment_difference(two_sided_pareto(alpha, 0.75), np.asarray(t), c))
    assert abs(two - expected / 2) <= 4 * np.finfo(float).eps * abs(expected / 2)


@pytest.mark.parametrize(
    "t,expected",
    [
        # at alpha = 1 and d/n = 1/4, c = 3 exactly; 50-digit values as above
        (3.3000000000000003, 0.05487880111450989),
        (3.00000003, 5.624999951751726e-09),
        (3.0000000000030003, 5.625500065774262e-13),
        (2.999999999997, -5.624667398508606e-13),
    ],
)
def test_mean_shift_keeps_its_digits_near_the_reference_threshold(t, expected):
    one = one_sided_pareto(1.0)
    assert tail_survival_inv(one, 25 / 100) == 3.0
    assert abs(mean_shift(one, t, 25, 100) - expected) <= 4 * np.finfo(float).eps * abs(expected)


def test_truncated_sum_scale_hand_value():
    m = two_sided_pareto(1.5)
    # scale**2 = 3 * H^-1(0.04)**2 * 4 with H^-1(0.04) = 25**(2/3) - 1
    hinv = 25.0 ** (2.0 / 3.0) - 1.0
    assert truncated_sum_scale(m, 4, 100) == pytest.approx(math.sqrt(3.0 * hinv * hinv * 4.0), rel=1e-12)
    assert truncated_sum_scale(m, 4, 100) == pytest.approx(26.153, abs=1e-3)


def test_truncated_sum_scale_structure():
    m_lo = two_sided_pareto(1.9)
    m_hi = two_sided_pareto(1.99)
    assert truncated_sum_scale(m_hi, 4, 100) > truncated_sum_scale(m_lo, 4, 100)
    # linear in the threshold holding d fixed: doubling H^-1 doubles the scale
    a, b = two_sided_pareto(1.5), two_sided_pareto(1.5)
    s1 = truncated_sum_scale(a, 4, 100)
    hinv = tail_survival_inv(a, 4 / 100)
    assert s1 / hinv == pytest.approx(math.sqrt(3.0 * 4.0), rel=1e-12)
    assert truncated_sum_scale(b, 4, 100) == s1
    with pytest.raises(UnsupportedModelError):
        truncated_sum_scale(gaussian(), 4, 100)


def test_centering_scale_hand_value():
    one = one_sided_pareto(1.5)
    # |H'(H^-1(0.04))| = 1.5 * (25**(2/3))**-2.5
    hp = 1.5 * (25.0 ** (2.0 / 3.0)) ** -2.5
    assert centering_scale(one, 4, 100) == pytest.approx(1.5 * 8.0 / (100.0 * hp), rel=1e-12)
    assert centering_scale(one, 4, 100) == pytest.approx(17.100, abs=1e-3)
    assert centering_scale(one, 4, 100) > 0.0
    with pytest.raises(UnsupportedModelError):
        centering_scale(two_sided_pareto(1.5), 4, 100)
    with pytest.raises(UnsupportedModelError):
        centering_scale(gaussian(), 4, 100)


def test_centering_scale_compensates_mean_shift_slope():
    # With l(t) = mean_shift at the t-quantile threshold, (n/scale) * |l'(d/n)|
    # equals (n/sqrt(d)) * (1 - (d/n)**(1/alpha)) for these exact-Pareto tails,
    # hence ~ n/sqrt(d) as d/n -> 0.  Checked by central finite differences.
    one = one_sided_pareto(1.5)
    n = 1_000_000

    def ratio(d: int) -> float:
        t0 = d / n
        h = t0 * 1e-6
        lp = (
            mean_shift(one, tail_survival_inv(one, t0 + h), d, n)
            - mean_shift(one, tail_survival_inv(one, t0 - h), d, n)
        ) / (2.0 * h)
        return (n / centering_scale(one, d, n)) * abs(lp) / (n / math.sqrt(d))

    # exact finite-size factor at d/n = 0.04
    assert ratio(40_000) == pytest.approx(1.0 - 0.04 ** (2.0 / 3.0), rel=1e-5)
    # within 5% of the asymptotic identity once d/n is small
    assert ratio(1000) == pytest.approx(1.0, abs=0.05)
    assert abs(ratio(1000) - 1.0) < abs(ratio(40_000) - 1.0)


def test_norming_constants_of_a_depth_threshold_past_the_float_range_raise():
    # H^-1(31/1e5) = (31/1e5)**-100 - 1 passes the float range at alpha = 0.01:
    # a ValueError that names it, not an inf that ends as a NaN or a
    # ZeroDivisionError
    one = one_sided_pareto(0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for norming in (
            lambda: mean_shift(one, 5.0, 31, 100_000),
            lambda: truncated_sum_scale(one, 31, 100_000),
            lambda: centering_scale(one, 31, 100_000),
        ):
            with pytest.raises(ValueError, match=r"alpha=0\.01, d=31, n=100000"):
                norming()


def test_truncated_sum_scale_whose_square_passes_the_float_range():
    one = one_sided_pareto(0.02)
    hinv = tail_survival_inv(one, 31 / 100_000)  # 2.7e175
    expected = hinv * math.sqrt(0.02 / 1.98 * 31)
    assert truncated_sum_scale(one, 31, 100_000) == pytest.approx(expected, rel=1e-15)


def test_mean_shift_far_below_the_reference_threshold():
    # at alpha = 0.01, c = H^-1(7/1000) is 8e213, so (t-c)/(1+c) rounds to -1
    # for every t below 1e197, where log1p would give -inf and the shift inf
    a = 0.01
    one = one_sided_pareto(a)
    c = tail_survival_inv(one, 7 / 1000)

    def g(t):
        return a / (1 - a) * ((1 + t) ** (1 - a) - 1) + (1 + t) ** -a - 1

    t = np.array([0.0, 1.0, 1e150, c])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        shifts = mean_shift(one, t, 7, 1000)
        assert mean_shift(one, 1.0, 7, 1000) == shifts[1]
    assert_allclose(shifts[:3], [g(v) - g(c) for v in t[:3]], rtol=1e-14)
    assert shifts[3] == 0.0


def test_scalar_array_consistency():
    m = two_sided_pareto(1.3, p=0.4)
    t = np.array([-2.0, 0.0, 1.5])
    assert_allclose(cdf(m, t), [cdf(m, float(v)) for v in t], rtol=0, atol=0)
    u = np.array([0.1, 0.5, 0.93])
    assert_allclose(quantile(m, u), [quantile(m, float(v)) for v in u], rtol=0, atol=0)
    # a Python float gets the array loop's bits in every family; numpy's
    # scalar pow differs in the last bit for about 1 u in 18
    u = np.append(np.random.default_rng(0).uniform(size=2000), 0.38367755426188344)
    for m in (two_sided_pareto(1.5), one_sided_pareto(1.5), gaussian()):
        assert_array_equal(quantile(m, u), [quantile(m, float(v)) for v in u])


@pytest.mark.parametrize("alpha", [0.3, 1.0, 1.5, 1.99])
def test_one_sided_is_two_sided_at_full_right_weight(alpha):
    one, two = one_sided_pareto(alpha), two_sided_pareto(alpha, 1.0)
    t = np.concatenate([
        np.random.default_rng(0).standard_cauchy(20_000),
        [np.inf, -np.inf, 0.0, -0.0, 1e308, -1e308, 1e-300],
    ])
    nonneg = np.abs(t)
    u = np.random.default_rng(1).uniform(size=20_000)
    u = u[u > 0.0]
    assert_array_equal(cdf(one, t), cdf(two, t))
    assert_array_equal(density(one, t), density(two, t))
    assert_array_equal(quantile(one, u), quantile(two, u))
    assert_array_equal(tail_survival(one, nonneg), tail_survival(two, nonneg))
    assert_array_equal(mean_shift(one, nonneg, 4, 100), mean_shift(two, nonneg, 4, 100))
