"""The log-domain Gaussian channel against a 50-digit decimal oracle.

The oracle forms ``snr_k = lambda_k rho_k / (eps nu_k)`` with the standard
library's ``decimal`` at 50 digits, so it needs no log domain: it decides
membership as ``snr_k >= 1`` and sums ``J_k = (1/2) ln(1 + snr_k^2)``,
``ln snr_k`` and the closed-form risk directly.  Where ``snr_k`` is too
close to 1 to call at 50 digits, it decides membership on exact fractions, so
a boundary tie between rational factors stays a tie.  The cases are three
inputs that float products cannot answer (a tie among underflowed products,
an underflowed eigenvalue, a level below float range) and levels ``2^-L``
with ``|L|`` up to 4096.  Also covered: a boundary tie that only the float
comparison resolves as k0 does, also with a subnormal component beside it; the
float consumers (``simulate_channel`` and the ``g_k / lambda_k`` inversions),
which, like the Monte-Carlo risk, answer at a level with no float and where
``lambda_k`` underflows on I, and refuse only a float they form that is not
finite; each trial's Monte-Carlo statistic against its exact squared error,
formed with fractions, at those inputs and where the float error
``eta_k / lambda_k - xi_k`` cancels;
the refusal of a prior whose ``rho_k^2`` or prior energy is not a float by the
consumers that form them, and its acceptance by those that do not; and the
sweep rows that fill the Monte-Carlo columns at those levels.
"""

import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from fredinfo import (CoefficientVector, ExperimentConfig, GaussianChannel, NoiseLevel,
                      PosteriorParams, ValidationError, constant_rule, convergence_sweep,
                      custom_rule, geometric_rule, green_model, heat_model,
                      inverse_spectrum_rule, k_alpha, monte_carlo_mse, mse_closed_form,
                      partition_IN, poisson_model, posterior_density_params, posterior_estimate,
                      power_rule, simulate_channel, synthesize_solution,
                      tabulated_model, total_information, TrialStream)
from fredinfo import harness
from fredinfo.cli import main

PI = Decimal("3.1415926535897932384626433832795028841971693993751")
RULES = {"constant": constant_rule, "geometric": geometric_rule, "power": power_rule}


def _factors(model, rho: tuple, nu: tuple, k: int, num) -> tuple:
    """``(lambda_k, rho_k, nu_k)`` as ``num``: Decimal, or Fraction (exact, for
    the rational factors only)."""
    return (_eigenvalue(model, k, num),) + tuple(_sigma(rule, k, num) for rule in (rho, nu))


def _eigenvalue(model, k: int, num):
    p = {key: num(val) for key, val in model.params.items()}
    if model.kind == "poisson":
        return (p["a"] / p["b"]) ** k
    if model.kind == "heat":
        return (-p["D"] * (p["a"] - p["b"]) * k * k).exp()
    return 1 / (k * PI) ** 2  # green


def _sigma(rule: tuple, k: int, num):
    kind, c, *rest = rule
    if kind == "constant":
        return num(c)
    if kind == "geometric":
        return num(c) * num(rest[0]) ** k
    return num(c) * num(k) ** -num(rest[0])  # power


def _tail(rule: tuple, m: int) -> Decimal | None:
    """``sum_{k>m} rho_k^2``: exact for geometric, mpmath's Hurwitz zeta
    ``c^2 zeta(2p, m + 1)`` at 50 digits for power."""
    kind, c, *rest = rule
    if kind == "geometric":
        q2 = Decimal(rest[0]) ** 2
        return Decimal(c) ** 2 * q2 ** (m + 1) / (1 - q2)
    if kind == "power":
        with mpmath.workdps(50):
            return Decimal(c) ** 2 * Decimal(str(mpmath.zeta(2 * mpmath.mpf(rest[0]), m + 1)))
    return None  # constant: not trace class


def oracle(model, rho: tuple, nu: tuple, eps: Fraction, k_max: int) -> dict:
    with localcontext() as ctx:
        ctx.prec = 50
        e = Decimal(eps.numerator) / eps.denominator
        k_I, exact, approx, risk = 0, Decimal(0), Decimal(0), Decimal(0)
        for k in range(1, k_max + 1):
            lam, r, n = _factors(model, rho, nu, k, Decimal)
            snr = lam * r / (e * n)
            kept = snr >= 1
            if abs(snr - 1) < Decimal("1e-40"):  # too close to call at 50 digits
                lam, r_, n = _factors(model, rho, nu, k, Fraction)
                kept = lam * r_ >= eps * n
            if kept:
                k_I += 1
                exact += (1 + snr * snr).ln() / 2
                approx += snr.ln()
                risk += (r / snr) ** 2      # (eps nu_k / lambda_k)^2
            else:
                risk += r * r
        tail = _tail(rho, k_max)
        return {"k_I": k_I, "exact": float(exact), "approx": float(approx),
                "mse": None if tail is None else float(risk + tail)}


CASES = [
    # lambda_k rho_k underflows to 0 near k = 215, where the float products tied
    (poisson_model(0.5, 1.0, k_max=256), ("geometric", 32.0, 0.0625), 0.01, 2),
    # lambda_28 = exp(-784) underflows to zero inside the default k_max
    (heat_model(1.0, 1.0, 0.0), ("constant", 1.0), 0.01, 2),
    # 2^-1050 has no float; component 211 sits exactly on the boundary
    (poisson_model(0.5, 1.0), ("geometric", 32.0, 0.0625), NoiseLevel(1050.0), 211),
] + [
    (poisson_model(0.5, 1.0, k_max=int(abs(L)) + 64), ("geometric", 1.0, 0.99),
     NoiseLevel(L), None) for L in (1050.0, 2000.0, 4096.0, -1050.0)
] + [
    (green_model(), ("power", 2.0, 1.0), NoiseLevel(L), 256) for L in (1050.0, 2000.0, 4096.0)
]


def _eps(level: float | NoiseLevel) -> Fraction:
    return (Fraction(level) if isinstance(level, float)
            else Fraction(2) ** int(-level.log2_inv_eps))


def _close(value, want) -> bool:
    return value == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("model, rho, level, k_I", CASES, ids=[
    f"{model.kind}-{':'.join(map(str, rho))}-{getattr(level, 'log2_inv_eps', level):g}"
    for model, rho, level, _ in CASES])
def test_channel_matches_the_decimal_oracle(model, rho, level, k_I):
    chan = GaussianChannel(model, RULES[rho[0]](*rho[1:]), constant_rule(1.0), level)
    want = oracle(model, rho, ("constant", 1.0), _eps(level), chan.k_max)
    assert partition_IN(chan).k_I == want["k_I"]
    if k_I is not None:
        assert want["k_I"] == k_I
    info = total_information(chan)
    assert _close(info.exact_nats, want["exact"]) and _close(info.approx_nats, want["approx"])
    if want["mse"] is not None:
        assert _close(mse_closed_form(chan), want["mse"])


@pytest.mark.parametrize("argv, case", [
    (["--model", "poisson:a=0.5,b=1,k_max=256", "--epsilon", "0.01",
      "--rho", "geometric:32,0.0625", "--nu", "constant:1"], CASES[0]),
    (["--model", "heat:D=1,a=1,b=0", "--epsilon", "0.01", "--rho", "constant:1",
      "--nu", "constant:1"], CASES[1]),
    (["--model", "poisson:a=0.5,b=1", "--epsilon", "pow2:-1050",
      "--rho", "geometric:32,0.0625", "--nu", "constant:1"], CASES[2]),
], ids=["tied-zeros", "underflowed-eigenvalue", "below-float-range"])
def test_prob_info_answers_where_float_products_fail(capsys, argv, case):
    model, rho, level, k_I = case
    assert main(["prob-info", *argv]) == 0
    summary = json.loads(capsys.readouterr().out)
    want = oracle(model, rho, ("constant", 1.0), _eps(level), summary["k_max"])
    assert summary["k_I"] == want["k_I"] == k_I
    assert _close(summary["exact_nats"], want["exact"])


# ---------------------------------------------------------------------------
# Decisions made on the floats
# ---------------------------------------------------------------------------


def test_boundary_tie_is_decided_on_the_floats(capsys, tmp_path):
    # lambda_2 = eps exactly.  np.log2 and math.log2 differ on about 0.1% of
    # floats, 0.08209 among them here, so log2 snr_2 lands a rounding error
    # off 0; the float comparison keeps the component, as k0 compares.
    chan = GaussianChannel(tabulated_model([0.5, 0.08209, 0.01]), constant_rule(1.0),
                           constant_rule(1.0), 0.08209)
    assert partition_IN(chan).k_I == 2
    assert abs(chan.log2_snr[1]) < 1e-15
    if np.log2(np.asarray([0.08209]))[0] < math.log2(0.08209):
        assert int(np.sum(chan.log2_snr >= 0.0)) == 1   # membership from log2 alone
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "tabulated", "values": [0.5, 0.08209, 0.01]}))
    assert main(["prob-info", "--model-json", str(path), "--epsilon", "0.08209",
                 "--rho", "constant:1", "--nu", "constant:1"]) == 0
    assert json.loads(capsys.readouterr().out)["k_I"] == 2


def test_a_subnormal_component_leaves_the_others_decided_on_the_floats():
    # the same boundary with a fourth value whose product is subnormal: only
    # that component is decided on log2, so components 1..3 keep their answers
    chan = GaussianChannel(tabulated_model([0.5, 0.08209, 0.01, 1e-310]),
                           constant_rule(1.0), constant_rule(1.0), 0.08209)
    part = partition_IN(chan)
    assert (part.k_I, part.ordering) == (2, (1, 2, 3, 4))


def test_flat_ratios_are_ordered_on_the_floats():
    # rho_k = (1 + 1e-9/k) / lambda_k: the ratios 1 + 1e-9/k are distinct
    # floats, but their log2 sums -k + (k + 1.4e-9/k) collapse into ties
    model = poisson_model(0.5, 1.0)
    chan = GaussianChannel(model, inverse_spectrum_rule(model), constant_rule(1.0), 1e-300)
    part = partition_IN(chan)
    assert part.k_I == 256 and part.ordering == tuple(range(1, 257))


# ---------------------------------------------------------------------------
# Monte-Carlo risk at every level; draws and inversions check the floats they form
# ---------------------------------------------------------------------------


def test_monte_carlo_answers_at_a_level_with_no_float():
    chan = GaussianChannel(poisson_model(0.5, 1.0, k_max=16), geometric_rule(1.0, 0.5),
                           constant_rule(1.0), NoiseLevel(1050.0))
    assert chan.epsilon is None and partition_IN(chan).k_I == 16
    # every inverted term rho_k^2 2^(-2 log2_snr) = 2^(2k - 2100) is 0 in floats
    mc = monte_carlo_mse(chan, 4, 0)
    assert mc.mean == geometric_rule(1.0, 0.5).sum_sq_tail(16) and mc.stderr == 0.0
    stream = TrialStream(0, 0)
    xi = synthesize_solution(chan, stream)
    with pytest.raises(ValidationError, match="float range"):
        simulate_channel(chan, xi, stream)


def test_float_consumers_refuse_an_eigenvalue_that_underflows_on_I():
    # noise-free: every component is informative, and lambda_28 = e^-784 is 0
    chan = GaussianChannel(heat_model(1.0, 2.0, 1.0, k_max=40), geometric_rule(1.0, 0.5),
                           constant_rule(1.0), 0.0)
    tail = geometric_rule(1.0, 0.5).sum_sq_tail(40)
    assert mse_closed_form(chan) == pytest.approx(tail)
    assert monte_carlo_mse(chan, 2, 1).mean == tail  # no noise: every trial scores the tail
    stream = TrialStream(0, 0)
    xi = synthesize_solution(chan, stream)
    # the forward map never divides by lambda_k, so it answers: eta_k = 0 from k = 28
    eta = simulate_channel(chan, xi, stream).components()
    assert (eta == chan.arrays()[0] * xi.components()).all() and not eta[27:].any()
    # the inversions divide by lambda_k on I, and refuse where the quotient is no
    # float: 1 / lambda_27 overflows (lambda_27 = e^-729 is subnormal)
    with pytest.raises(ValidationError, match="g_27 / lambda_27 is not a finite float"):
        posterior_estimate(chan, CoefficientVector(chan.model, np.ones(81)))
    with pytest.raises(ValidationError, match="lambda_28 underflows"):
        posterior_density_params(chan, 28, 0.5)
    assert posterior_density_params(chan, 1, 0.5).var2 == 0.0


def test_posterior_estimate_reads_only_the_labels_a_two_sided_channel_holds():
    # noise-free heat: the channel's components are k = 1..k_max, and the draws
    # leave the labels -k_max..0 at 0, where lambda_-k is 0 from k = 28 as well
    chan = GaussianChannel(heat_model(1.0, 2.0, 1.0, k_max=40), geometric_rule(1.0, 0.5),
                           constant_rule(1.0), 0.0)
    stream = TrialStream(1, 0)
    eta = simulate_channel(chan, synthesize_solution(chan, stream), stream)
    # the refusal names the first label that holds an observation over a lambda of 0
    with pytest.raises(ValidationError, match="g_28 / lambda_28 is not a finite float"):
        posterior_estimate(chan, eta)
    chan = GaussianChannel(heat_model(1.0, 2.0, 1.0, k_max=20), geometric_rule(1.0, 0.5),
                           constant_rule(1.0), 0.0)
    xi = synthesize_solution(chan, stream)
    estimate = posterior_estimate(chan, simulate_channel(chan, xi, stream))
    assert not estimate.entries[:21].any()  # the center holds no observation either
    np.testing.assert_allclose(estimate.components(), xi.components(), rtol=1e-14)
    # an entry below the center is zeroed, whatever it holds
    estimate = posterior_estimate(chan, CoefficientVector(chan.model, np.ones(41)))
    assert not estimate.entries[:20].any() and estimate.entries[20] == 1.0
    assert (estimate.components() == 1.0 / chan.arrays()[0]).all()


# rho_k = 1e150 puts components 28..32 in I although lambda_k is 0 in float, and
# component 32's inverted term, about 1e289, outweighs the rest
_HEAT_UNDERFLOW = {"model": {"kind": "heat", "D": 1.0, "a": 2.0, "b": 1.0, "k_max": 40},
                   "epsilon_grid": [1e-300],
                   "rho": {"kind": "custom", "values": [1e150] * 32 + [1.0] * 8,
                           "tail_sum_sq": 0.0},
                   "nu": {"kind": "constant", "c": 1.0}, "trials": 3, "seed": 0}
# lambda_1 xi_1 is near 1e79 and eps nu_1 z_1 near 1: eta_1 / lambda_1 - xi_1
# loses the noise term in floats
_CANCELLATION = {"model": {"kind": "green", "k_max": 1}, "epsilon_grid": [0.5],
                 "rho": {"kind": "custom", "values": [1e80], "tail_sum_sq": 0.0},
                 "nu": {"kind": "constant", "c": 1.0}, "trials": 2, "seed": 25}
# 2^-1100 has no float; nu_k = 2^48 puts component 27 just inside I, where its
# inverted term is about rho_27^2 / 2
_DEEP_HEAT = {"model": {"kind": "heat", "D": 1.0, "a": 2.0, "b": 1.0, "k_max": 40},
              "log2_inv_eps_grid": [1100],
              "rho": {"kind": "custom", "values": [1.0] * 40, "tail_sum_sq": 0.0},
              "nu": {"kind": "constant", "c": 2.0 ** 48}, "trials": 3, "seed": 4}


def _exact_statistics(chan: GaussianChannel, prior: np.ndarray,
                      noise: np.ndarray) -> list[Fraction]:
    """Each trial's squared error plus the tail, in exact arithmetic: on I the
    estimate ``eta_k / lambda_k`` with ``eta = lambda xi + eps nu z``, on N zero.
    ``lambda_k`` is its 50-digit decimal; the draws, ``rho_k``, ``nu_k`` and
    ``eps`` are the exact rationals of their floats."""
    with localcontext() as ctx:
        ctx.prec = 50
        lam = [Fraction(_eigenvalue(chan.model, k, Decimal)) for k in range(1, chan.k_max + 1)]
    _, rho, nu = chan.arrays()
    eps = _eps(chan.level if chan.epsilon is None else chan.epsilon)
    stats = []
    for p, z in zip(prior, noise):
        total = Fraction(chan.rho.sum_sq_tail(chan.k_max))
        for k, member in enumerate(chan.informative):
            xi = Fraction(rho[k]) * Fraction(p[k])
            if member:
                eta = lam[k] * xi + eps * Fraction(nu[k]) * Fraction(z[k])
                xi -= eta / lam[k]
            total += xi * xi
        stats.append(total)
    return stats


@pytest.mark.parametrize("config", [_CANCELLATION, _HEAT_UNDERFLOW, _DEEP_HEAT],
                         ids=["cancellation", "lambda-underflows-on-I", "below-float-range"])
def test_monte_carlo_statistic_matches_the_exact_error(config):
    cfg = ExperimentConfig.from_json(config)
    chan = GaussianChannel(cfg.model, cfg.rho, cfg.nu, cfg.levels[0], k_max=cfg.k_max)
    prior, noise = harness._trial_block(cfg.seed, cfg.trials, chan.k_max)
    want = _exact_statistics(chan, prior, noise)
    xi = chan.arrays()[1] * prior
    for t, stat in enumerate(want):  # a block of one trial: its mean is its statistic
        got = harness._monte_carlo(chan._rows, xi[t:t + 1], noise[t:t + 1])[0].mean
        assert got > 0.0 and _close(got, float(stat))
    mc = monte_carlo_mse(chan, cfg.trials, cfg.seed)
    assert _close(mc.mean, float(sum(want) / len(want)))
    assert mc.mean == convergence_sweep(cfg).rows[0]["mse_mc_mean"]


def test_posterior_density_refuses_an_underflowed_eigenvalue_on_N():
    chan = GaussianChannel(heat_model(1.0, 2.0, 1.0, k_max=40), geometric_rule(1.0, 0.5),
                           constant_rule(1.0), 0.01)
    assert not chan.informative[29]
    with pytest.raises(ValidationError, match="lambda_30 underflows"):
        posterior_density_params(chan, 30, 0.5)


def test_posterior_density_refuses_a_conditional_parameter_that_is_not_a_float():
    # (eps nu_k / lambda_k)^2 overflows from k = 19, and g_27 / lambda_27 with
    # the subnormal lambda_27 = 2.5e-317 does too
    chan = GaussianChannel(heat_model(1.0, 2.0, 1.0, k_max=40), geometric_rule(1.0, 0.5),
                           constant_rule(1.0), 0.01)
    assert 0.0 < chan.arrays()[0][26] < np.finfo(float).tiny
    for k in (20, 27):
        with pytest.raises(ValidationError, match=f"component {k} is not a finite float"):
            posterior_density_params(chan, k, 0.5)
    assert np.isfinite(list(vars(posterior_density_params(chan, 18, 0.5)).values())).all()


def test_simulate_channel_answers_where_lambda_underflows_on_I():
    cfg = ExperimentConfig.from_json(_HEAT_UNDERFLOW)
    chan = GaussianChannel(cfg.model, cfg.rho, cfg.nu, cfg.levels[0], k_max=cfg.k_max)
    lam, _, nu = chan.arrays()
    assert chan.informative[27:32].all() and not lam[27:32].any()
    stream = TrialStream(0, 0)
    xi = synthesize_solution(chan, stream)
    eta = simulate_channel(chan, xi, stream).components()
    assert (eta == lam * xi.components() + 1e-300 * nu * stream.noise_normals(40)).all()
    assert np.isfinite(eta).all()


def test_the_inversions_answer_at_a_level_with_no_float():
    chan = GaussianChannel(poisson_model(0.5, 1.0, k_max=16), geometric_rule(1.0, 0.5),
                           constant_rule(1.0), NoiseLevel(1050.0))
    assert posterior_density_params(chan, 1, 0.5) == PosteriorParams(0.0, 0.25, 1.0, 0.0)
    # a one-sided model has no center mode to judge against eps
    green = GaussianChannel(green_model(k_max=8), constant_rule(1.0), constant_rule(1.0),
                            NoiseLevel(1100.0))
    estimate = posterior_estimate(green, CoefficientVector(green.model, np.ones(8)))
    assert (estimate.entries == 1.0 / green.arrays()[0]).all()
    # a two-sided model's center mode is judged on log2 rho_1 - log2 nu_1 + L >= 0
    heat = heat_model(1.0, 2.0, 1.0, k_max=8)
    chan = GaussianChannel(heat, constant_rule(1.0), constant_rule(1.0), NoiseLevel(1100.0))
    estimate = posterior_estimate(chan, CoefficientVector(heat, np.ones(17)))
    assert (estimate.entries[8:] == 1.0 / heat.eigenvalues(np.arange(0, 9))).all()
    assert not estimate.entries[:8].any()  # no component sits below the center


@pytest.mark.parametrize("L, center", [(1100.5, 1.0), (1100.0, 1.0), (1099.5, 0.0)])
def test_center_mode_without_a_float_is_judged_in_log2(L, center):
    # log2 rho_1 - log2 nu_1 = -1100, and lambda_1 = 1/e keeps component 1 out of I
    heat = heat_model(1.0, 2.0, 1.0, k_max=8)
    chan = GaussianChannel(heat, constant_rule(2.0 ** -1000), constant_rule(2.0 ** 100),
                           NoiseLevel(L))
    assert not chan.informative.any()
    estimate = posterior_estimate(chan, CoefficientVector(heat, np.ones(17)))
    assert estimate.entries[8] == center and not np.delete(estimate.entries, 8).any()


def test_the_inversions_accept_a_noise_rule_infinite_on_N():
    # nu_k = (1 + 1e-9/k) / lambda_k is infinite from k = 27, and only k = 1 is in I
    heat = heat_model(1.0, 2.0, 1.0, k_max=40)
    chan = GaussianChannel(heat, constant_rule(1.0), inverse_spectrum_rule(heat), 0.1)
    assert partition_IN(chan).k_I == 1 and np.isinf(chan.arrays()[2][26:]).all()
    estimate = posterior_estimate(chan, CoefficientVector(heat, np.ones(81)))
    lam = heat.eigenvalues(np.array([0, 1]))
    assert (estimate.entries[40:42] == 1.0 / lam).all() and not estimate.entries[42:].any()
    assert not estimate.entries[:40].any()
    params = posterior_density_params(chan, 1, 0.5)
    assert params.var1 == 1.0 and params.var2 == pytest.approx((0.1 * math.e ** 2) ** 2)
    # the noise eps nu_k z_k that simulate_channel forms is infinite from k = 27
    stream = TrialStream(0, 0)
    with pytest.raises(ValidationError, match="eta_27 is not a finite float"):
        simulate_channel(chan, synthesize_solution(chan, stream), stream)


def test_a_prior_whose_square_overflows_is_refused():
    # rho_1 = 5e299: the channel is decided in log2, but rho_1^2 is not a float
    chan = GaussianChannel(poisson_model(0.5, 1.0, k_max=8), geometric_rule(1e300, 0.5),
                           constant_rule(1.0), 1e-3)
    assert partition_IN(chan).k_I == 8
    for call, what in ((mse_closed_form, "mse_closed_form"), (k_alpha, "k_alpha"),
                       (lambda c: monte_carlo_mse(c, 3, 1), "monte_carlo_mse")):
        with pytest.raises(ValidationError, match=f"{what} needs rho_k\\^2"):
            call(chan)
    with pytest.raises(ValidationError, match="rho_1\\^2 overflows"):
        posterior_density_params(chan, 1, 0.5)


def test_draws_and_inversion_accept_a_prior_whose_square_overflows():
    # rho_k = 1e200: every factor is a normal float and neither consumer squares rho_k
    chan = GaussianChannel(poisson_model(0.5, 1.0, k_max=8), constant_rule(1e200),
                           constant_rule(1.0), 1e-3)
    stream = TrialStream(1, 0)
    xi = synthesize_solution(chan, stream)
    estimate = posterior_estimate(chan, simulate_channel(chan, xi, stream))
    assert np.isfinite(estimate.entries).all()
    assert estimate.entries == pytest.approx(xi.entries, rel=1e-12)


def test_a_prior_energy_that_overflows_is_refused():
    # every rho_k^2 is about 1e308, but their sums are not floats
    chan = GaussianChannel(poisson_model(0.5, 1.0, k_max=8), geometric_rule(1e154, 0.999),
                           constant_rule(1.0), 1e-3)
    with pytest.raises(ValidationError, match="prior energy"):
        k_alpha(chan)
    with pytest.raises(ValidationError, match="risk overflows"):
        mse_closed_form(chan)
    with pytest.raises(ValidationError, match="squared error overflows"):
        monte_carlo_mse(chan, 3, 1)


def test_simulate_fills_the_monte_carlo_columns_where_lambda_underflows_on_I(
        capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_HEAT_UNDERFLOW))
    assert main(["simulate", "--config", str(path)]) == 0
    header, row = capsys.readouterr().out.splitlines()[:2]
    cells = dict(zip(header.split(","), row.split(",")))
    chan = GaussianChannel(heat_model(1.0, 2.0, 1.0, k_max=40),
                           custom_rule([1e150] * 32 + [1.0] * 8, 0.0), constant_rule(1.0), 1e-300)
    mc = monte_carlo_mse(chan, 3, 0)
    assert cells["k_I"] == "32" and cells["mse_closed"] == "%.17g" % mse_closed_form(chan)
    assert (cells["mse_mc_mean"], cells["mse_mc_stderr"]) == ("%.17g" % mc.mean,
                                                              "%.17g" % mc.stderr)


def test_sweep_below_float_range_fills_the_monte_carlo_columns():
    cfg = ExperimentConfig(model=poisson_model(0.5, 1.0), log2_inv_eps_grid=(8.0, 1030.0),
                           rho=geometric_rule(32.0, 0.0625), nu=constant_rule(1.0),
                           trials=4, seed=3, k_max=32)
    first, second = convergence_sweep(cfg).rows
    assert first["mse_mc_mean"] > second["mse_mc_mean"]
    # every inverted term is 0 in floats at 2^-1030, so every trial scores the tail
    assert second["k_I"] == 32 and second["mse_closed"] == second["mse_mc_mean"]
    assert second["mse_mc_mean"] == cfg.rho.sum_sq_tail(32) and second["mse_mc_stderr"] == 0.0


def test_deep_rows_saturating_at_the_prior_tail_report_a_rounding_tie():
    # from 2^-1000 down every component is informative and the inverted terms
    # underflow, so the risk is the prior tail beyond k_max on every deep row
    cfg = ExperimentConfig(model=poisson_model(0.5, 1.0),
                           log2_inv_eps_grid=(8.0, 1000.0, 1030.0, 2000.0),
                           rho=geometric_rule(32.0, 0.0625), nu=constant_rule(1.0), k_max=32)
    res = convergence_sweep(cfg)
    tail = cfg.rho.sum_sq_tail(32)
    assert [row["mse_closed"] for row in res.rows[1:]] == [tail] * 3
    assert res.violations == [f"rows {i}->{i + 1}: mse_closed not strictly decreasing "
                              f"({tail:.6g} -> {tail:.6g})" for i in (1, 2)]
