"""Entropy/capacity bounds, growth orders and the packing oracle."""

import math

import numpy as np
import pytest

from fredinfo import (
    NoiseLevel,
    NumericError,
    PreconditionError,
    UnsupportedError,
    ValidationError,
    capacity_interval,
    entropy_lower_bound,
    entropy_upper_bound,
    greedy_packing_count,
    green_model,
    growth_orders,
    heat_model,
    k0,
    max_message_length_log2,
    poisson_model,
    tabulated_model,
)

LOG2_6 = math.log2(6.0)


# ---------------------------------------------------------------------------
# Entropy bounds: closed-form oracles
# ---------------------------------------------------------------------------


def test_lower_bound_poisson_oracle():
    # lambda_k = 2^-k, eps = 0.1: k0 = 3 and the sum telescopes to 3 L - 6
    m = poisson_model(0.5, 1.0)
    L = math.log2(10.0)
    oracle = sum(L - k for k in (1, 2, 3))
    assert entropy_lower_bound(m, 0.1) == pytest.approx(oracle, rel=1e-12)
    assert entropy_lower_bound(m, 0.1) == pytest.approx(3.9657842846620865, rel=1e-9)


def test_lower_bound_heat_oracle():
    # lambda_k = e^-k^2, eps = e^-5: terms (5 - k^2) log2(e) for k = 1, 2
    m = heat_model(1.0, 2.0, 1.0)
    assert entropy_lower_bound(m, math.exp(-5.0)) == pytest.approx(
        5.0 * math.log2(math.e), rel=1e-12)


def test_upper_bound_poisson_oracle():
    # k0(eps/4) = k0(0.025) = 5
    m = poisson_model(0.5, 1.0)
    L = math.log2(10.0)
    oracle = 5.0 * (L + LOG2_6 + 0.5 * math.log2(5.0))
    got = entropy_upper_bound(m, 0.1)
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(35.339273215260995, rel=1e-9)


def test_upper_bound_green_oracle():
    # k0(2.5e-4) = 20 for lambda_k = 1/(k pi)^2
    g = green_model()
    oracle = 20.0 * (math.log2(1e3) + LOG2_6 + 0.5 * math.log2(20.0))
    got = entropy_upper_bound(g, 1e-3)
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(294.2342166565385, rel=1e-9)


def test_lower_bound_vanishes_above_lambda1():
    m = poisson_model(0.5, 1.0)
    assert entropy_lower_bound(m, 0.7) == 0.0
    # the total variant still carries the surviving center axis
    assert entropy_lower_bound(m, 0.7, sided="total") == pytest.approx(
        math.log2(1.0 / 0.7), rel=1e-12)
    assert entropy_lower_bound(m, 1.5, sided="total") == 0.0


def test_upper_bound_not_applicable_raises():
    g = green_model()  # 4 lambda_1 ~ 0.405
    with pytest.raises(PreconditionError):
        entropy_upper_bound(g, 0.5)


def test_total_variant_doubles_and_adds_center():
    m = poisson_model(0.5, 1.0)
    eps = 0.1
    L = math.log2(10.0)
    one = entropy_lower_bound(m, eps)
    assert entropy_lower_bound(m, eps, sided="total") == pytest.approx(
        2.0 * one + L, rel=1e-12)
    up_total = entropy_upper_bound(m, eps, sided="total")
    mm = 2 * 5 + 1  # both signs of k0(eps/4) plus the center axis
    assert up_total == pytest.approx(mm * (L + LOG2_6 + 0.5 * math.log2(mm)), rel=1e-12)
    # one-sided models are unaffected by the total flag
    g = green_model()
    assert entropy_lower_bound(g, 1e-3, sided="total") == entropy_lower_bound(g, 1e-3)


def test_sided_argument_validated():
    with pytest.raises(ValidationError):
        entropy_lower_bound(poisson_model(0.5, 1.0), 0.1, sided="both")


@pytest.mark.parametrize("model, lo, hi", [
    (poisson_model(0.5, 1.0), 1e-6, 1.0),
    (heat_model(1.0, 2.0, 1.0), 1e-6, 1.0),
    (green_model(), 1e-8, 0.39),
])
def test_sandwich_on_log_grid(model, lo, hi):
    for eps in np.geomspace(hi, lo, 20):
        lower = entropy_lower_bound(model, float(eps))
        upper = entropy_upper_bound(model, float(eps))
        assert lower <= upper


def test_exponent_domain_bounds_match_linear():
    m = poisson_model(0.5, 1.0)
    for L in (4.0, 10.5, 40.0):
        eps = 2.0 ** (-L)
        assert entropy_lower_bound(m, eps) == pytest.approx(
            entropy_lower_bound(m, NoiseLevel(L)), rel=1e-12)
        assert entropy_upper_bound(m, eps) == pytest.approx(
            entropy_upper_bound(m, NoiseLevel(L)), rel=1e-12)


def test_bounds_finite_at_extreme_exponents():
    """Levels near 2^-4096 stay finite and ordered in the log domain."""
    for model in (poisson_model(0.5, 1.0), heat_model(1.0, 2.0, 1.0)):
        lower = entropy_lower_bound(model, NoiseLevel(4096.0))
        upper = entropy_upper_bound(model, NoiseLevel(4096.0))
        assert math.isfinite(lower) and math.isfinite(upper)
        assert 0.0 < lower <= upper


def test_leading_terms_bracket_the_budget():
    # the sharp regime: lower ~ (1/2) k0 L and upper ~ k0 L for the geometric family
    m = poisson_model(0.5, 1.0)
    L = 1024.0
    cut = k0(m, NoiseLevel(L))
    budget = cut * L
    assert entropy_lower_bound(m, NoiseLevel(L)) / budget == pytest.approx(0.5, abs=0.01)
    assert entropy_upper_bound(m, NoiseLevel(L)) / budget == pytest.approx(1.0, abs=0.1)


# ---------------------------------------------------------------------------
# Capacity interval and message length
# ---------------------------------------------------------------------------


def test_capacity_interval_fields():
    m = poisson_model(0.5, 1.0)
    b = capacity_interval(m, 0.1)
    assert b.k0_eps == 3
    assert b.k0_eps_over_4 == 5
    assert b.epsilon == 0.1
    assert b.lower_bits == entropy_lower_bound(m, 0.1)
    assert b.upper_bits == entropy_upper_bound(m, 0.1)
    assert b.lower_bits <= b.upper_bits
    assert set(b.to_json()) == {"epsilon", "log2_inv_eps", "k0_eps",
                                "k0_eps_over_4", "lower_bits", "upper_bits", "sided"}


def test_capacity_interval_total_counts_axes():
    m = poisson_model(0.5, 1.0)
    b = capacity_interval(m, 0.1, sided="total")
    assert b.k0_eps == 2 * 3 + 1
    assert b.k0_eps_over_4 == 2 * 5 + 1


def test_capacity_interval_exponent_domain():
    m = poisson_model(0.5, 1.0)
    b = capacity_interval(m, NoiseLevel(64.0))
    assert b.epsilon == pytest.approx(2.0 ** -64)
    assert b.k0_eps == 64
    deep = capacity_interval(m, NoiseLevel(2000.0))
    assert deep.epsilon is None  # below float range
    assert deep.k0_eps == 2000


def test_capacity_interval_survives_inapplicable_upper():
    g = green_model()
    b = capacity_interval(g, 0.5)
    assert b.upper_bits is None
    assert b.lower_bits == 0.0


def test_max_message_length():
    m = poisson_model(0.5, 1.0)
    L = math.log2(10.0)
    assert max_message_length_log2(m, 0.1) == pytest.approx(3 * L, rel=1e-12)
    # the two-sided total adds exactly one bit
    assert max_message_length_log2(m, 0.1, sided="total") == pytest.approx(
        3 * L + 1.0, rel=1e-12)
    # nothing kept, nothing to say
    assert max_message_length_log2(m, 0.7) == 0.0
    assert max_message_length_log2(m, 0.7, sided="total") == 0.0
    g = green_model()
    assert max_message_length_log2(g, 1e-3, sided="total") == \
        max_message_length_log2(g, 1e-3)


# ---------------------------------------------------------------------------
# Growth orders
# ---------------------------------------------------------------------------

EXP_GRID = [2.0 ** j for j in range(4, 13)]  # log2(1/eps) = 16 .. 4096


def test_growth_orders_poisson():
    est = growth_orders(poisson_model(0.5, 1.0), [NoiseLevel(L) for L in EXP_GRID])
    assert est.rho_hat < 0.05
    assert est.d_c is None
    assert est.d_c_exp == pytest.approx(2.0 ** 0.5, rel=1e-3)
    assert est.sigma_hat == pytest.approx(2.0, rel=1e-3)


def test_growth_orders_heat():
    est = growth_orders(heat_model(1.0, 2.0, 1.0), [NoiseLevel(L) for L in EXP_GRID])
    assert est.rho_hat < 0.05
    assert est.d_c_exp == pytest.approx(2.0 ** (2.0 / 3.0), rel=0.02)
    assert est.sigma_hat == pytest.approx(1.5, rel=0.02)


def test_growth_orders_green():
    grid = [10.0 ** (-p) for p in range(2, 11)]
    est = growth_orders(green_model(), grid)
    assert est == growth_orders(green_model(), [NoiseLevel.of(e) for e in grid])
    assert est.rho_hat >= 0.05
    assert est.d_c_exp is None
    assert est.d_c == pytest.approx(2.0, rel=0.01)
    assert est.lambda_hat == pytest.approx(0.5, rel=0.01)


def test_growth_orders_validation():
    m = poisson_model(0.5, 1.0)
    with pytest.raises(ValidationError):
        growth_orders(m, [0.1, 0.01])                        # too few points
    with pytest.raises(ValidationError):
        growth_orders(m, list(np.geomspace(0.4, 0.1, 9)))    # span too small
    with pytest.raises(ValidationError):
        growth_orders(m, [NoiseLevel(L) for L in [16, 8, 32, 64, 128, 256, 512, 1024]])
    with pytest.raises(ValidationError):
        growth_orders(m, list(np.geomspace(2.0, 1e-4, 9)))   # above lambda_1


# ---------------------------------------------------------------------------
# Greedy packing
# ---------------------------------------------------------------------------


def test_packing_interval_by_hand():
    # [-1, 1], separation 1: greedy keeps -1 and one point past 0
    assert greedy_packing_count([1.0], 1.0, 0.25) == 2


def test_packing_zero_axes_degenerate():
    assert greedy_packing_count([0.0], 0.5, 0.1) == 1
    assert greedy_packing_count([0.0, 0.0], 0.5, 0.1) == 1
    # a dead axis changes nothing
    assert greedy_packing_count([1.0, 0.0], 1.0, 0.25) == \
        greedy_packing_count([1.0], 1.0, 0.25)


def test_packing_validation():
    with pytest.raises(ValidationError):
        greedy_packing_count([], 0.5, 0.1)
    with pytest.raises(ValidationError):
        greedy_packing_count([1.0], 0.5, 0.2)    # step > eps/4
    with pytest.raises(ValidationError):
        greedy_packing_count([1.0], -1.0, 0.1)
    with pytest.raises(ValidationError):
        greedy_packing_count([-1.0], 0.5, 0.1)
    with pytest.raises(UnsupportedError):
        greedy_packing_count([1.0, 1.0, 1.0, 1.0], 0.5, 0.1)


def test_packing_candidate_cap():
    with pytest.raises(NumericError):
        greedy_packing_count([100.0, 100.0, 100.0], 0.4, 0.1)


def _draw_packing_case(rng, models):
    """A random (axes, eps) pair whose scan grid stays affordable.

    Axes come from a model spectrum, eps never exceeds the smallest axis, and
    the dimension is reduced until the candidate grid is small enough.
    """
    model = models[rng.integers(len(models))]
    d = int(rng.integers(1, 4))
    eps_frac = rng.uniform(0.3, 0.9)
    while d > 1:
        axes = model.eigenvalues(np.arange(1, d + 1))
        eps = float(axes.min()) * eps_frac
        cells = np.prod(np.floor(8.0 * axes / eps) + 1)
        if cells <= 2e6:
            break
        d -= 1
    axes = model.eigenvalues(np.arange(1, d + 1))
    return axes, float(axes.min()) * eps_frac


def test_packing_count_brackets_volume_bound():
    """log2(count) sits between the volume bound and the lattice bound."""
    rng = np.random.default_rng(2718)
    models = [poisson_model(0.5, 1.0), heat_model(1.0, 2.0, 1.0), green_model()]
    for _ in range(6):
        axes, eps = _draw_packing_case(rng, models)
        d = axes.size
        count = greedy_packing_count(axes, eps, eps / 4.0)
        lower = float(np.sum(np.log2(axes / eps)))
        upper = d * (math.log2(1.0 / eps) + LOG2_6 + 0.5 * math.log2(d))
        assert lower <= math.log2(count) <= upper


def test_packing_monotone_in_separation():
    counts = [greedy_packing_count([1.0, 0.5], eps, eps / 4.0)
              for eps in (0.8, 0.4, 0.2)]
    assert counts[0] <= counts[1] <= counts[2]


def test_tabulated_models_work_in_bounds():
    t = tabulated_model([0.9, 0.5, 0.25, 0.1])
    assert entropy_lower_bound(t, 0.2) == pytest.approx(
        math.log2(0.9 / 0.2) + math.log2(0.5 / 0.2) + math.log2(0.25 / 0.2), rel=1e-12)
    assert k0(t, 0.2) == 3
