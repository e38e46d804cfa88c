"""A sweep's rows against the single-level API, and the order of its faults.

``convergence_sweep`` evaluates every level of its grid as the rows of one
channel and on one trial block.  Each row's channel and Monte-Carlo columns
must equal, bit for bit, the public functions on ``GaussianChannel(model, rho,
nu, level, k_max)``, and a config with faults in several places must end on
the fault that a row-by-row evaluation meets first.  The profile is derandomized, so
every run checks the same cases.
"""

from __future__ import annotations

import json
import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fredinfo import (ExperimentConfig, GaussianChannel, NoiseLevel, ValidationError,
                      constant_rule, convergence_sweep, custom_rule, extremal_comparison,
                      gaussian_rule, geometric_rule, green_model, heat_model,
                      inverse_spectrum_rule, k0, k_alpha, monte_carlo_mse, mse_closed_form,
                      partition_IN, poisson_model, power_rule, total_information)
from fredinfo import harness
from fredinfo.channel import _LN2, _Rows
from fredinfo.cli import main as cli_main

PROFILE = settings.get_profile("fredinfo")
CHANNEL_COLUMNS = ("k_I", "exact_nats", "approx_nats", "k_alpha", "mse_closed",
                   "mse_mc_mean", "mse_mc_stderr")
# Largest exponent per family whose metric columns answer; the exponential
# families reach past float range (|L| > 1022), where no level has a float.
_TOP = {"poisson": 1100.0, "heat": 1100.0, "green": 60.0}


@st.composite
def models(draw):
    kind = draw(st.sampled_from(sorted(_TOP)))
    k_max = draw(st.integers(1, 24))
    if kind == "poisson":
        b = draw(st.floats(0.5, 4.0))
        return poisson_model(draw(st.floats(0.05, 0.95)) * b, b, k_max=k_max)
    if kind == "heat":
        b = draw(st.floats(0.0, 2.0))
        return heat_model(draw(st.floats(0.01, 1.0)), b + draw(st.floats(0.01, 1.0)), b,
                          k_max=k_max)
    return green_model(k_max=k_max)


@st.composite
def rules(draw, model):
    """The six variance rules; power with ``p <= 1/2``, constant, inverse_spectrum
    and a custom rule without a tail are not trace class, and a custom rule's
    values put its ratios out of index order."""
    kind = draw(st.sampled_from(("constant", "geometric", "power", "gaussian",
                                 "inverse_spectrum", "custom")))
    c = draw(st.floats(0.01, 100.0))
    if kind == "constant":
        return constant_rule(c)
    if kind == "geometric":
        return geometric_rule(c, draw(st.floats(0.05, 0.95)))
    if kind == "power":
        return power_rule(c, draw(st.floats(0.2, 3.0)))
    if kind == "gaussian":
        return gaussian_rule(c, draw(st.floats(1e-3, 0.2)))
    if kind == "inverse_spectrum":
        return inverse_spectrum_rule(model, draw(st.floats(1e-9, 1.0)))
    values = draw(st.lists(st.floats(1e-3, 1e3), min_size=model.k_max,
                           max_size=model.k_max + 3))
    return custom_rule(values, draw(st.none() | st.floats(0.0, 10.0)))


@st.composite
def configs(draw, trials=st.integers(0, 5)):
    model = draw(models())
    if draw(st.booleans()):
        exps = draw(st.lists(st.floats(-1.0, 18.0), min_size=2, max_size=6))
        grid = {"epsilon_grid": sorted({10.0 ** -u for u in exps}, reverse=True)}
    else:  # in eighths, so that distinct exponents give distinct floats 2^-L
        top = 8 * int(_TOP[model.kind])
        eighths = st.integers(-top, top)
        if model.kind != "green":  # around |L| = 1022, where the floats end
            eighths |= st.integers(8 * 1000, top) | st.integers(-top, -8 * 1000)
        exps = draw(st.lists(eighths, min_size=2, max_size=6, unique=True))
        grid = {"log2_inv_eps_grid": [e / 8 for e in sorted(exps)]}
    return ExperimentConfig(model=model, rho=draw(rules(model)), nu=draw(rules(model)),
                            trials=draw(trials), seed=draw(st.integers(0, 2**20)),
                            sided=draw(st.sampled_from(("one_sided", "total"))), **grid)


def _api_rows(config: ExperimentConfig) -> list[dict]:
    """The channel columns of each level, from the public single-level functions."""
    rows = []
    for level in config.levels:
        chan = GaussianChannel(config.model, config.rho, config.nu, level, k_max=config.k_max)
        info = total_information(chan)
        row = {"k_I": partition_IN(chan).k_I, "exact_nats": info.exact_nats,
               "approx_nats": info.approx_nats}
        if config.rho.is_trace_class:
            row["k_alpha"] = k_alpha(chan)
            row["mse_closed"] = mse_closed_form(chan)
            if config.trials >= 1:
                mc = monte_carlo_mse(chan, config.trials, config.seed)
                row["mse_mc_mean"] = mc.mean
                row["mse_mc_stderr"] = mc.stderr
        rows.append(row)
    return rows


def _bits(value):
    return value.hex() if isinstance(value, float) else value


def _outcome(rows_of, config):
    """Each row's channel columns with floats as bits, or the fault that ended the run."""
    try:
        rows = rows_of(config)
    except Exception as exc:  # a refused channel or an overflow: compared like a result
        return type(exc), str(exc)
    return [{col: _bits(row.get(col)) for col in CHANNEL_COLUMNS} for row in rows]


def _sweep_rows(config: ExperimentConfig) -> list[dict]:
    return convergence_sweep(config).rows


@PROFILE
@given(configs())
@example(ExperimentConfig(model=poisson_model(0.5, 1.0, k_max=12),
                          log2_inv_eps_grid=(8.0, 1000.0, 1022.0, 1023.0, 1100.0),
                          rho=geometric_rule(1.0, 0.5), nu=constant_rule(1.0),
                          trials=3, seed=7))
@example(ExperimentConfig(model=heat_model(0.1, 2.0, 1.0, k_max=6),
                          epsilon_grid=(0.1, 1e-3, 1e-6),
                          rho=custom_rule([0.5, 4.0, 0.25, 2.0, 1.0, 8.0], 0.5),
                          nu=constant_rule(1.0), trials=4, seed=3, sided="total"))
@example(ExperimentConfig(model=green_model(k_max=8), epsilon_grid=(1e-2, 1e-4),
                          rho=constant_rule(1.0), nu=constant_rule(1.0), trials=2))
def test_sweep_rows_equal_the_single_level_api(config):
    assert _outcome(_sweep_rows, config) == _outcome(_api_rows, config)


# Each config meets more than one fault; the run must end on the first one a
# row-by-row evaluation meets, with its exit code and message.  The custom
# prior rho_1 = 1e154 and noise nu = 9.2e184 on green put component 1 just in I
# at 9.99e-33, where trial 0 of seed 25 (prior normal 0.596, noise normal 2.92)
# squares past the float range; nu 100 times larger does the same at 9.99e-35.
# Green's cutoff passes 2^53, where k0 refuses, below eps = 1.25e-33.
_GREEN_1 = {"model": {"kind": "green", "k_max": 1},
            "rho": {"kind": "custom", "values": [1e154], "tail_sum_sq": 0.0},
            "nu": {"kind": "constant", "c": 9.2e184}, "trials": 1, "seed": 25}
_K0_REFUSAL = ("numeric failure: k0 is at least 2**53, past which indices are not exact "
               "in floats; the noise level is too small for this spectrum's decay\n")
PRECEDENCE = {
    # row 1's cutoff fails before row 2's Monte-Carlo overflow
    "metric-row-1": ({**_GREEN_1, "nu": {"kind": "constant", "c": 9.2e186},
                      "epsilon_grid": [0.2, 1e-34, 9.99e-35]}, 3, _K0_REFUSAL),
    # row 0's cutoff fails before the tie lambda_1 * 1 / 1 == lambda_2 * 4 / 1
    "metric-before-basis": ({"model": {"kind": "green"}, "epsilon_grid": [1e-34],
                             "rho": {"kind": "custom", "values": [1.0, 4.0],
                                     "tail_sum_sq": 0.0},
                             "nu": {"kind": "constant", "c": 1.0}, "k_max": 2}, 3, _K0_REFUSAL),
}


@pytest.mark.parametrize("name", sorted(PRECEDENCE))
def test_sweep_ends_on_the_first_fault_by_row(capsys, tmp_path, name):
    config, code, err = PRECEDENCE[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli_main(["simulate", "--config", str(path)]) == code
    assert capsys.readouterr().err == err


def test_monte_carlo_overflow_at_row_1_precedes_a_later_cutoff_fault(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**_GREEN_1, "epsilon_grid": [0.2, 9.99e-33, 1e-34]}))
    # no numpy warning precedes the one-line error: the RuntimeWarning filter
    # would turn one into a failure
    assert cli_main(["simulate", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: monte_carlo_mse: the squared error overflows floats\n"


def _exact_mean_and_stderr(stats) -> tuple[float, float]:
    """Mean and standard error of the float statistics, in exact arithmetic."""
    values = [Fraction(s) for s in stats]
    n = len(values)
    mean = sum(values) / n
    square = sum((v - mean) ** 2 for v in values) / ((n - 1) * n)
    with localcontext() as ctx:
        ctx.prec = 40
        stderr = (Decimal(square.numerator) / Decimal(square.denominator)).sqrt()
    return float(mean), float(stderr)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("trials", [2, 50])
def test_monte_carlo_stderr_of_huge_statistics_is_finite(trials):
    # nu_1 = 1e90 leaves component 1 out of I at 0.5, so trial t scores
    # xi_1^2 = (1e80 z_t)^2, about 1e160: its squared deviations pass the float range
    config = ExperimentConfig(model=green_model(k_max=1), epsilon_grid=(0.5,),
                              rho=custom_rule([1e80], 0.0), nu=constant_rule(1e90),
                              trials=trials, seed=25)
    row = convergence_sweep(config).rows[0]
    prior, _ = harness._trial_block(25, trials, 1)
    mean, stderr = _exact_mean_and_stderr((1e80 * prior[:, 0]) ** 2)
    assert row["mse_mc_mean"] == pytest.approx(mean, rel=1e-14)
    assert row["mse_mc_stderr"] == pytest.approx(stderr, rel=1e-14)


# ---------------------------------------------------------------------------
# The row-at-a-time kernels, kept as the oracle of the all-rows ones
# ---------------------------------------------------------------------------


def _sum_from_zero(terms: np.ndarray) -> float:
    """The selected terms added in order, starting from 0.0."""
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


def _reference_rows(config: ExperimentConfig) -> list[dict]:
    """The channel and Monte-Carlo columns of each row, scored one row and, for
    the risk, one trial at a time: on I a trial's squared error is
    ``inverted_risk_k z_k^2``, on N ``xi_k^2`` (``tests/test_log_channel.py``
    checks that form against the exact error), summed by ``np.sum``."""
    chan = _Rows(config.model, config.rho, config.nu, config.k_max, config.levels)
    order, trials = chan.order, config.trials
    xi = noise = None
    rows = []
    for i in range(len(config.levels)):
        member = chan.informative[i]
        k_I = int(np.sum(member))
        if k_I and not bool(member[order][:k_I].all()):
            raise ValidationError("informative set is not an initial segment of the ordering")
        index = np.flatnonzero(member)
        row = {"k_I": k_I, "exact_nats": _sum_from_zero(chan.J_nats[i][index]),
               "approx_nats": _sum_from_zero(chan.log2_snr[i][index] * _LN2)}
        rows.append(row)
        if not config.rho.is_trace_class:
            continue
        energies, gamma = chan.energies("k_alpha"), chan.gamma
        with np.errstate(over="ignore"):
            prefix = np.cumsum(energies[order] + chan.inverted_risk[i][order])
        ok = prefix <= gamma * (1.0 + 1e-12)
        row["k_alpha"] = int(np.sum(ok)) if ok.any() else 0
        row["mse_closed"] = chan.mse(i)
        if trials < 1:
            continue
        if xi is None:
            prior, noise = harness._trial_block(config.seed, trials, chan.k_max)
            xi = chan.arrays[1] * prior
        tail = chan.tail
        with np.errstate(over="ignore"):
            stats = np.fromiter(
                (np.sum(np.where(member, chan.inverted_risk[i] * (z * z), x * x)) + tail
                 for x, z in zip(xi, noise)), dtype=float, count=trials)
        if not np.isfinite(stats).all():
            raise ValidationError("monte_carlo_mse: the squared error overflows floats")
        row["mse_mc_mean"] = float(np.mean(stats))
        row["mse_mc_stderr"] = (float(np.std(stats, ddof=1) / math.sqrt(trials))
                                if trials >= 2 else None)
    return rows


@PROFILE
@given(configs(trials=st.integers(1, 40)), st.integers(1, 4), st.integers(0, 50))
@example(ExperimentConfig(model=poisson_model(0.5, 1.0, k_max=24),
                          log2_inv_eps_grid=tuple(8.0 * j for j in range(1, 13)),
                          rho=geometric_rule(1.0, 0.8), nu=constant_rule(1.0),
                          trials=300, seed=11), None, 0)
@example(ExperimentConfig(model=heat_model(0.1, 2.0, 1.0, k_max=6),
                          epsilon_grid=(0.1, 1e-2, 1e-3, 1e-6),
                          rho=custom_rule([0.5, 4.0, 0.25, 2.0, 1.0, 8.0], 0.5),
                          nu=constant_rule(1.0), trials=1, seed=3, sided="total"), 1, 0)
def test_sweep_rows_equal_the_row_at_a_time_kernels(config, levels_per_slab, spare):
    """Every row equals the reference bit for bit, with slabs of 1 to 4 levels
    (None: the package's own slab size)."""
    slab = harness._SLAB
    if levels_per_slab is not None:
        k_max = config.model.k_max if config.k_max is None else config.k_max
        slab = levels_per_slab * config.trials * k_max + spare
    with mock.patch.object(harness, "_SLAB", slab):
        assert _outcome(_sweep_rows, config) == _outcome(_reference_rows, config)


def _check_beta_closed_form(got, level: NoiseLevel, n: int) -> None:
    """``approx = n ln(1/eps)`` and ``exact = n (1/2) ln(1 + eps^-2)`` against
    mpmath at 50 digits: within 4 ulps, plus ``n 2^-53`` where the level has a
    float, for ``ln(1/eps)`` read from the rounded float ``1/eps``."""
    assert got.k_I == n
    assert got.approx_nats.hex() == got.reference_nats.hex()
    assert got.exact_nats >= got.approx_nats
    with mpmath.workdps(50):
        eps = mpmath.mpf(2) ** -mpmath.mpf(level.log2_inv_eps)
        if level.epsilon is not None:
            eps = mpmath.mpf(level.epsilon)
        slack = 0.0 if level.epsilon is None else n * 2.0 ** -53
        for value, want in ((got.approx_nats, n * mpmath.log(1 / eps)),
                            (got.exact_nats, n * mpmath.log1p(eps ** -2) / 2)):
            assert abs(mpmath.mpf(value) - want) <= 4 * math.ulp(value) + slack, (value, want)


@PROFILE
@given(models(), st.floats(1e-12, 0.9))
def test_extremal_beta_is_the_closed_form_of_the_flat_channel(model, eps):
    """The beta case against mpmath, and against the channel it stands for: a
    prior ``(1 + 1e-9/k) / lambda_k`` adds at most ``ln(1 + 1e-9/k)`` to
    component k, so that channel's sums over its first ``n`` components lie
    above the closed form by at most ``1e-9 H_n <= 1e-9 (1 + ln n)``, plus the
    channel's rounding: each term adds ``log2 lambda_k``, ``log2 rho_k`` and
    ``log2(1/eps)``, each at most ``2 log2(1/eps)`` on ``1..k0``, which stays
    within 4 ulps of the sum over the at most 24 components drawn here."""
    got = extremal_comparison(model, eps, "beta")
    n = min(model.k_max, k0(model, eps))
    _check_beta_closed_form(got, NoiseLevel.of(eps), n)
    chan = GaussianChannel(model, inverse_spectrum_rule(model), constant_rule(1.0), eps,
                           k_max=max(n, 1))
    index = chan.ordering[:n] - 1
    bound = 1e-9 * (1.0 + math.log(max(n, 1)))
    for value, terms in ((got.exact_nats, chan.J_nats[index]),
                         (got.approx_nats, chan.log2_snr[index] * _LN2)):
        assert 0.0 <= _sum_from_zero(terms) - value <= bound + 4 * math.ulp(value)


@pytest.mark.parametrize("model, epsilon, k_max", [
    (green_model(), 1e-8, 100000),
    (poisson_model(0.5, 1.0), NoiseLevel(2000.0), 5000),
    (poisson_model(0.5, 1.0), NoiseLevel(4096.0), 5000),
], ids=["green-1e-8", "poisson-pow2-2000", "poisson-pow2-4096"])
def test_extremal_beta_answers_past_the_float_ties(model, epsilon, k_max):
    """At these cutoffs the flat ratios ``1 + 1e-9/k`` of ``inverse_spectrum_rule``
    tie in floats, so a channel on that prior refuses them; the closed form
    sums every component up to ``min(k_max, k0)``."""
    level = NoiseLevel.of(epsilon)
    got = extremal_comparison(model, level, "beta", k_max=k_max)
    assert got.k0 == k0(model, level) >= 2000
    _check_beta_closed_form(got, level, min(k_max, got.k0))


@pytest.mark.parametrize("eps", [5e-324, 1e-310])
def test_extremal_beta_where_one_over_eps_overflows(eps):
    """Below 2^-1024 the float 1/eps is infinite: ln(1/eps) is read from the exponent."""
    level = NoiseLevel.of(eps)
    got = extremal_comparison(poisson_model(0.5, 1.0), level, "beta")
    assert math.isinf(1.0 / eps) and math.isfinite(got.reference_nats)
    _check_beta_closed_form(got, level, 256)


def _sweep_peak_bytes(levels: int) -> int:
    """Peak traced memory of a sweep whose trials x k_max fill one slab."""
    config = ExperimentConfig(model=poisson_model(0.5, 1.0, k_max=64),
                              epsilon_grid=tuple(10.0 ** (-j / 8) for j in range(1, levels + 1)),
                              rho=geometric_rule(1.0, 0.9), nu=constant_rule(1.0),
                              trials=1024, seed=3)
    tracemalloc.start()
    try:
        rows = convergence_sweep(config).rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(row["mse_mc_mean"] is not None for row in rows)
    return peak


def test_monte_carlo_memory_stays_within_one_slab():
    """Scoring 64 levels takes about the memory of scoring one: the levels go a
    slab at a time, never as one (levels, trials, k_max) array."""
    assert 1024 * 64 == harness._SLAB
    one, many = _sweep_peak_bytes(1), _sweep_peak_bytes(64)
    assert many < 2 * one, (one, many)
