"""A sweep's rows against the single-level API, and the order of its faults.

``convergence_sweep`` evaluates every level of its grid on one channel basis
and one trial block.  Each row's channel and Monte-Carlo columns must equal,
bit for bit, the public functions on ``GaussianChannel(model, rho, nu, level,
k_max)``, and a config with faults in several places must end on the fault
that a row-by-row evaluation meets first.  The profile is derandomized, so
every run checks the same cases.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fredinfo import (ExperimentConfig, GaussianChannel, constant_rule, convergence_sweep,
                      custom_rule, gaussian_rule, geometric_rule, green_model, heat_model,
                      inverse_spectrum_rule, k_alpha, monte_carlo_mse, mse_closed_form,
                      partition_IN, poisson_model, power_rule, total_information)
from fredinfo.cli import main as cli_main

PROFILE = settings.get_profile("fredinfo")
CHANNEL_COLUMNS = ("k_I", "exact_nats", "approx_nats", "k_alpha", "mse_closed",
                   "mse_mc_mean", "mse_mc_stderr")
# Largest exponent per family whose metric columns answer; the exponential
# families reach past float range (|L| > 1022), where the draws are refused.
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
def configs(draw):
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
                            trials=draw(st.integers(0, 5)), seed=draw(st.integers(0, 2**20)),
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
            if config.trials >= 1 and chan.float_refusal is None:
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
# squares past the float range.
_GREEN_1 = {"model": {"kind": "green", "k_max": 1},
            "rho": {"kind": "custom", "values": [1e154], "tail_sum_sq": 0.0},
            "nu": {"kind": "constant", "c": 9.2e184}, "trials": 1, "seed": 25}
_K0_CAP = ("numeric failure: k0 exceeds the enumeration cap 4194304; "
           "the noise level is too small for this spectrum's decay\n")
PRECEDENCE = {
    # row 1's cutoff fails before row 2's Monte-Carlo overflow
    "metric-row-1": ({**_GREEN_1, "epsilon_grid": [0.2, 1e-32, 9.99e-33]}, 3, _K0_CAP),
    # row 0's cutoff fails before the tie lambda_1 * 1 / 1 == lambda_2 * 4 / 1
    "metric-before-basis": ({"model": {"kind": "green"}, "epsilon_grid": [1e-32],
                             "rho": {"kind": "custom", "values": [1.0, 4.0],
                                     "tail_sum_sq": 0.0},
                             "nu": {"kind": "constant", "c": 1.0}, "k_max": 2}, 3, _K0_CAP),
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
    path.write_text(json.dumps({**_GREEN_1, "epsilon_grid": [0.2, 9.99e-33, 1e-32 / 3]}))
    with pytest.warns(RuntimeWarning) as warned:
        assert cli_main(["simulate", "--config", str(path)]) == 2
    assert "overflow encountered in matmul" in [str(w.message) for w in warned]
    assert capsys.readouterr().err.endswith(
        "error: monte_carlo_mse: the squared error overflows floats\n")
