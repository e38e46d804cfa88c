"""Per-component Gaussian channels: information, partition, risk."""

import math

import numpy as np
import pytest

from fredinfo import (
    CoefficientVector,
    GaussianChannel,
    UnsupportedError,
    ValidationError,
    component_information,
    constant_rule,
    custom_rule,
    entropy_lower_bound,
    extremal_comparison,
    forward_apply,
    gaussian_rule,
    geometric_rule,
    green_model,
    heat_model,
    inverse_spectrum_rule,
    k0,
    k_alpha,
    mse_closed_form,
    partition_IN,
    poisson_model,
    posterior_density_params,
    posterior_estimate,
    power_rule,
    rule_from_json,
    rule_to_json,
    tabulated_model,
    total_information,
    truncated_solution,
)

HALF_LN2 = 0.5 * math.log(2.0)


def worked_channel(eps=2.0 ** -4, k_max=24):
    """lambda_k = rho_k = 2^-k, nu = 1 — every number below is closed form."""
    model = tabulated_model([2.0 ** -k for k in range(1, k_max + 1)])
    return GaussianChannel(model, geometric_rule(1.0, 0.5), constant_rule(1.0), eps)


# ---------------------------------------------------------------------------
# Variance rules
# ---------------------------------------------------------------------------


def test_rule_values():
    ks = np.asarray([1, 2, 5])
    np.testing.assert_allclose(constant_rule(3.0).values(ks), [3, 3, 3])
    np.testing.assert_allclose(geometric_rule(2.0, 0.5).values(ks), [1.0, 0.5, 0.0625])
    np.testing.assert_allclose(power_rule(1.0, 2.0).values(ks), [1, 0.25, 0.04])
    np.testing.assert_allclose(
        gaussian_rule(1.0, 0.1).values(ks),
        np.exp(-0.1 * ks.astype(float) ** 2), rtol=1e-15)
    inv = inverse_spectrum_rule(green_model(), 1e-9)
    assert inv.value(2) == pytest.approx((1 + 5e-10) * 4 * math.pi ** 2, rel=1e-12)
    cus = custom_rule([0.5, 0.25])
    assert cus.value(2) == 0.25
    with pytest.raises(ValidationError):
        cus.value(3)


def test_rule_validation():
    with pytest.raises(ValidationError):
        geometric_rule(1.0, 1.0)
    with pytest.raises(ValidationError):
        geometric_rule(-1.0, 0.5)
    with pytest.raises(ValidationError):
        constant_rule(0.0)
    with pytest.raises(ValidationError):
        custom_rule([])
    with pytest.raises(ValidationError):
        custom_rule([1.0, -2.0])
    with pytest.raises(ValidationError):
        custom_rule([1.0], tail_sum_sq=-0.5)


def test_trace_class_flags():
    assert geometric_rule(1.0, 0.5).is_trace_class
    assert gaussian_rule(1.0, 0.3).is_trace_class
    assert power_rule(1.0, 1.0).is_trace_class       # 2p = 2 > 1
    assert not power_rule(1.0, 0.5).is_trace_class   # 2p = 1: harmonic, diverges
    assert not constant_rule(1.0).is_trace_class
    assert not inverse_spectrum_rule(green_model()).is_trace_class
    assert custom_rule([1.0], tail_sum_sq=0.25).is_trace_class
    assert not custom_rule([1.0]).is_trace_class


def test_geometric_tail_closed_form():
    rule = geometric_rule(2.0, 0.25)
    brute = sum((2.0 * 0.25 ** k) ** 2 for k in range(6, 400))
    assert rule.sum_sq_tail(5) == pytest.approx(brute, rel=1e-14)
    assert rule.sum_sq_total() == pytest.approx(
        4.0 * 0.0625 / (1 - 0.0625), rel=1e-14)


def test_power_tail_closed_form():
    rule = power_rule(1.0, 1.5)  # sum k^-3
    brute = sum(float(k) ** -3 for k in range(4, 200000))
    assert rule.sum_sq_tail(3) == pytest.approx(brute, rel=1e-9)


def test_gaussian_tail_certified():
    rule = gaussian_rule(3.0, 0.2)
    brute = sum(9.0 * math.exp(-0.4 * k * k) for k in range(3, 60))
    assert rule.sum_sq_tail(2) == pytest.approx(brute, rel=1e-14)


def test_custom_tail_bookkeeping():
    rule = custom_rule([2.0, 1.0], tail_sum_sq=0.5)
    assert rule.sum_sq_total() == pytest.approx(5.5)
    assert rule.sum_sq_tail(1) == pytest.approx(1.5)
    assert rule.sum_sq_tail(2) == pytest.approx(0.5)
    with pytest.raises(ValidationError):
        rule.sum_sq_tail(3)


def test_non_trace_class_tails_refuse():
    with pytest.raises(UnsupportedError):
        constant_rule(1.0).sum_sq_total()
    with pytest.raises(UnsupportedError):
        inverse_spectrum_rule(green_model()).sum_sq_tail(4)


@pytest.mark.parametrize("rule", [
    constant_rule(2.0),
    geometric_rule(1.5, 0.25),
    power_rule(2.0, 1.5),
    gaussian_rule(1.0, 0.7),
    inverse_spectrum_rule(poisson_model(0.5, 1.0), 1e-6),
    custom_rule([0.5, 0.125], tail_sum_sq=0.25),
    custom_rule([1.0, 0.5]),
])
def test_rule_json_round_trip(rule):
    back = rule_from_json(rule_to_json(rule))
    assert back == rule


# ---------------------------------------------------------------------------
# Channel construction
# ---------------------------------------------------------------------------


def test_channel_validation():
    model = tabulated_model([0.5, 0.25])
    with pytest.raises(ValidationError):
        GaussianChannel(model, constant_rule(1.0), constant_rule(1.0), -0.1)
    with pytest.raises(ValidationError):
        GaussianChannel(model, constant_rule(1.0), constant_rule(1.0), 0.1, k_max=5)
    # rho = 2^k against lambda = 2^-k makes every ratio 1: rejected as a tie
    geom_up = custom_rule([2.0, 4.0])
    with pytest.raises(ValidationError):
        GaussianChannel(model, geom_up, constant_rule(1.0), 0.1)


def test_channel_ordering_follows_ratios():
    model = tabulated_model([0.9, 0.5])
    chan = GaussianChannel(model, custom_rule([0.1, 0.9]), constant_rule(1.0), 0.4)
    # ratios 0.09 and 0.45: component 2 comes first
    assert tuple(chan.ordering) == (2, 1)
    part = partition_IN(chan)
    assert part.I == (2,)
    assert part.N == (1,)
    assert part.k_I == 1
    assert part.ordering == (2, 1)


# ---------------------------------------------------------------------------
# Component information
# ---------------------------------------------------------------------------


def test_component_information_ratio_three():
    # lam rho / (eps nu) = 3 gives r^2 = 9/10 and J = (1/2) ln 10
    model = tabulated_model([0.75])
    chan = GaussianChannel(model, constant_rule(1.0), constant_rule(1.0), 0.25)
    info = component_information(chan, 1)
    assert info.r_squared == pytest.approx(0.9, rel=1e-14)
    assert info.J_nats == pytest.approx(0.5 * math.log(10.0), rel=1e-14)
    assert info.in_I


def test_component_information_boundary_is_half_ln2():
    model = tabulated_model([0.5])
    chan = GaussianChannel(model, constant_rule(1.0), constant_rule(1.0), 0.5)
    info = component_information(chan, 1)
    assert info.J_nats == HALF_LN2  # exact float equality at ratio 1
    assert info.in_I


def test_component_information_requires_noise():
    chan = worked_channel(eps=0.0)
    with pytest.raises(ValidationError):
        component_information(chan, 1)


def test_membership_iff_half_ln2():
    """I-membership and the half-ln2 information threshold always agree."""
    rng = np.random.default_rng(31415)
    for _ in range(200):
        lam = float(rng.uniform(0.05, 1.0))
        model = tabulated_model([lam])
        chan = GaussianChannel(model,
                               constant_rule(float(rng.uniform(0.1, 3.0))),
                               constant_rule(float(rng.uniform(0.1, 3.0))),
                               float(rng.uniform(0.01, 2.0)))
        info = component_information(chan, 1)
        assert info.in_I == (info.J_nats >= HALF_LN2)


# ---------------------------------------------------------------------------
# Worked channel: every number by hand
# ---------------------------------------------------------------------------


def test_worked_channel_partition():
    part = partition_IN(worked_channel())
    assert part.I == (1, 2)
    assert part.k_I == 2
    assert part.N == tuple(range(3, 25))
    assert part.ordering == tuple(range(1, 25))


def test_worked_channel_mse():
    assert mse_closed_form(worked_channel()) == pytest.approx(19.0 / 192.0, rel=1e-12)


def test_worked_channel_k_alpha():
    assert k_alpha(worked_channel()) == 1


def test_worked_channel_information():
    info = total_information(worked_channel())
    assert info.exact_nats == pytest.approx(
        0.5 * math.log(17.0) + 0.5 * math.log(2.0), rel=1e-12)
    assert info.approx_nats == pytest.approx(math.log(4.0), rel=1e-12)
    assert info.exact_bits == pytest.approx(info.exact_nats / math.log(2.0), rel=1e-15)


def test_exact_minus_approx_within_half_ln2_per_component():
    for eps_exp in range(1, 10):
        chan = worked_channel(eps=2.0 ** -eps_exp)
        part = partition_IN(chan)
        info = total_information(chan)
        gap = info.exact_nats - info.approx_nats
        assert 0.0 <= gap <= part.k_I * HALF_LN2 * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Posterior estimators
# ---------------------------------------------------------------------------


def test_posterior_matches_truncation_when_rules_match():
    """With rho = nu the channel keeps exactly the spectral-cutoff modes."""
    m = green_model()
    rng = np.random.default_rng(5)
    data = CoefficientVector(m, rng.normal(size=12))
    chan = GaussianChannel(m, constant_rule(1.0), constant_rule(1.0), 0.02, k_max=12)
    est = posterior_estimate(chan, data)
    ref = truncated_solution(m, data, 0.02).f_star
    np.testing.assert_allclose(est.entries, ref.entries, rtol=1e-15)


def test_posterior_two_sided_center_mode():
    m = poisson_model(0.5, 1.0)
    data = CoefficientVector(m, np.asarray([4.0, 2.0, 3.0, 1.0, 8.0]))
    chan = GaussianChannel(m, constant_rule(1.0), constant_rule(1.0), 0.3, k_max=8)
    est = posterior_estimate(chan, data)
    ref = truncated_solution(m, data, 0.3).f_star
    np.testing.assert_allclose(est.entries, ref.entries, rtol=1e-15)
    assert est.entry(0) == 3.0  # center mode kept at lambda_0 = 1
    assert est.entry(2) == 0.0  # lambda_2 = 0.25 < 0.3: dropped


def test_posterior_accepts_integer_entries():
    m = poisson_model(0.5, 1.0, k_max=3)
    chan = GaussianChannel(m, constant_rule(1.0), constant_rule(1.0), 0.3)
    est = posterior_estimate(chan, CoefficientVector(m, [0, 1, 2, 3, 4, 5, 6]))
    ref = posterior_estimate(chan, CoefficientVector(m, np.arange(7.0)))
    assert est.entries.dtype == float
    np.testing.assert_array_equal(est.entries, ref.entries)


def test_posterior_rejects_out_of_range_data():
    m = green_model()
    chan = GaussianChannel(m, constant_rule(1.0), constant_rule(1.0), 0.1, k_max=4)
    data = CoefficientVector(m, np.ones(6))
    with pytest.raises(ValidationError):
        posterior_estimate(chan, data)


def test_posterior_density_params():
    chan = worked_channel()
    p1 = posterior_density_params(chan, 1, g_k=0.25)
    assert p1.mean1 == 0.0
    assert p1.var1 == pytest.approx(0.25)           # rho_1^2
    assert p1.mean2 == pytest.approx(0.5)           # g / lambda_1
    assert p1.var2 == pytest.approx((2.0 ** -4 / 2.0 ** -1) ** 2)
    assert p1.var2 < p1.var1                        # k = 1 is informative
    p3 = posterior_density_params(chan, 3, g_k=0.1)
    assert p3.var2 > p3.var1                        # k = 3 is noise-dominated


# ---------------------------------------------------------------------------
# Risk and budgets
# ---------------------------------------------------------------------------


def test_mse_noiseless_is_the_tail():
    chan = worked_channel(eps=0.0)
    assert mse_closed_form(chan) == pytest.approx(
        geometric_rule(1.0, 0.5).sum_sq_tail(24), rel=1e-12)


def test_mse_requires_trace_class():
    m = green_model()
    chan = GaussianChannel(m, constant_rule(1.0), constant_rule(1.0), 0.1)
    with pytest.raises(UnsupportedError):
        mse_closed_form(chan)
    with pytest.raises(UnsupportedError):
        k_alpha(chan)


def test_k_alpha_edge_cases():
    # eps = 0: every prefix fits inside Gamma
    assert k_alpha(worked_channel(eps=0.0)) == 24
    # huge eps: even the first component overshoots
    assert k_alpha(worked_channel(eps=8.0)) == 0
    # inverted risk terms near the float maximum: the prefix sum overflows
    huge = GaussianChannel(green_model(k_max=40), geometric_rule(1.0, 0.5),
                           constant_rule(1e150), 1.0)
    assert k_alpha(huge) == 0


def test_k_alpha_non_increasing_in_eps():
    values = [k_alpha(worked_channel(eps=2.0 ** -j)) for j in range(0, 13)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_mse_monotone_in_eps():
    # Risk never grows as the noise level drops.  The step from 2^-1 to 2^-2
    # is exactly flat: component 1 enters the recoverable set at break-even,
    # where its residual rho_1^2 equals the freshly paid (eps nu / lambda)^2.
    # From 2^-2 on at least one component is recoverable, so each further
    # halving strictly lowers the risk.
    values = [mse_closed_form(worked_channel(eps=2.0 ** -j)) for j in range(1, 13)]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert values[1] == values[0]
    assert all(b < a for a, b in zip(values[1:], values[2:]))


def test_channel_invariances():
    """Jointly scaling rho and nu leaves information alone and scales risk."""
    model = tabulated_model([2.0 ** -k for k in range(1, 9)])
    base = GaussianChannel(model, geometric_rule(1.0, 0.5), constant_rule(1.0), 0.1)
    scaled = GaussianChannel(model, geometric_rule(3.0, 0.5), constant_rule(3.0), 0.1)
    assert partition_IN(base).I == partition_IN(scaled).I
    assert total_information(base).exact_nats == pytest.approx(
        total_information(scaled).exact_nats, rel=1e-14)
    assert mse_closed_form(scaled) == pytest.approx(9.0 * mse_closed_form(base), rel=1e-12)
    assert k_alpha(base) == k_alpha(scaled)
    # moving noise magnitude between eps and nu changes nothing
    moved = GaussianChannel(model, geometric_rule(1.0, 0.5), constant_rule(0.25), 0.4)
    assert partition_IN(moved).I == partition_IN(base).I
    assert total_information(moved).exact_nats == pytest.approx(
        total_information(base).exact_nats, rel=1e-14)
    assert mse_closed_form(moved) == pytest.approx(mse_closed_form(base), rel=1e-14)


# ---------------------------------------------------------------------------
# Extremal cases
# ---------------------------------------------------------------------------


def test_extremal_alpha_brides_to_metric_lower_bound():
    m = poisson_model(0.5, 1.0)
    cmp = extremal_comparison(m, 0.1, "alpha")
    assert cmp.k0 == k0(m, 0.1) == 3
    assert cmp.k_I == cmp.k0
    assert cmp.approx_nats == pytest.approx(cmp.reference_nats, rel=1e-12)
    assert cmp.reference_nats == pytest.approx(
        entropy_lower_bound(m, 0.1) * math.log(2.0), rel=1e-14)
    assert cmp.approx_nats == pytest.approx(2.748872, abs=1e-5)
    assert cmp.exact_nats >= cmp.approx_nats
    assert not cmp.trace_class


@pytest.mark.parametrize("model", [
    poisson_model(0.5, 1.0), heat_model(1.0, 2.0, 1.0), green_model()])
def test_extremal_alpha_k_I_equals_k0(model):
    for eps in (0.3, 0.05, 1e-2, 1e-3):
        cmp = extremal_comparison(model, eps, "alpha")
        assert cmp.k_I == cmp.k0


def test_extremal_beta_flat_snr():
    cmp = extremal_comparison(green_model(), 1e-3, "beta")
    assert cmp.k0 == 10
    assert cmp.k_I == 10
    assert cmp.reference_nats == pytest.approx(10.0 * math.log(1e3), rel=1e-12)
    assert cmp.approx_nats == pytest.approx(cmp.reference_nats, rel=1e-6)
    assert cmp.exact_nats >= cmp.approx_nats
    assert not cmp.trace_class


def test_extremal_validation():
    m = green_model()
    with pytest.raises(ValidationError):
        extremal_comparison(m, 1.5, "beta")
    with pytest.raises(ValidationError):
        extremal_comparison(m, 0.1, "gamma")
    with pytest.raises(ValidationError):
        extremal_comparison(m, -0.1, "alpha")
