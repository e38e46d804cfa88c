"""The informative set decided once per channel, and the inputs it mends.

``GaussianChannel`` holds each component's log2 signal-to-noise ratio and its
membership in ``I``; the partition, the information sums, the closed-form and
Monte-Carlo risk and the posterior estimate all read them.  Also covered: a
tabulated model JSON without ``k_max``, sweep rows at a float level where the
float ratio overflows and a fresh interpreter that runs the power-prior
commands without loading scipy.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import fredinfo
from fredinfo import (CoefficientVector, ExperimentConfig, GaussianChannel, TrialStream,
                      component_information, constant_rule, convergence_sweep, custom_rule,
                      gaussian_rule, geometric_rule, inverse_spectrum_rule, model_from_json,
                      monte_carlo_mse, mse_closed_form, partition_IN, poisson_model,
                      posterior_estimate, power_rule, ValidationError)
from fredinfo.cli import main

TABLE = {"kind": "tabulated", "values": [0.5, 0.25, 0.125]}
CONSTANT = {"kind": "constant", "c": 1.0}
# lambda_k rho_k / (eps nu_k) overflows a float at the second level (2**-k / 2**-1074)
OVERFLOW_SWEEP = {"model": {"kind": "poisson", "a": 0.5, "b": 1.0, "k_max": 8},
                  "epsilon_grid": [1e-300, 5e-324], "rho": CONSTANT, "nu": CONSTANT}
CHANNEL_COLUMNS = ("k_I", "exact_nats", "approx_nats")


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _channel(eps=0.05):
    return GaussianChannel(poisson_model(0.5, 1.0, k_max=12), geometric_rule(1.0, 0.7),
                           constant_rule(1.0), eps)


# ---------------------------------------------------------------------------
# The channel's own arrays
# ---------------------------------------------------------------------------


def test_channel_holds_snr_and_membership():
    chan = _channel()
    lam, rho, nu = chan.arrays()
    np.testing.assert_allclose(np.exp2(chan.log2_snr), lam * rho / (0.05 * nu), rtol=1e-14)
    np.testing.assert_array_equal(chan.informative, lam * rho >= 0.05 * nu)
    assert partition_IN(chan).I == tuple(np.flatnonzero(chan.informative) + 1)


def test_channel_arrays_stay_out_of_equality_and_repr():
    a, b = _channel(), _channel()
    assert a == b
    assert "snr" not in repr(a) and "informative" not in repr(a)


def test_mse_closed_form_matches_the_partition_formula():
    chan = _channel()
    lam, rho, nu = chan.arrays()
    part = partition_IN(chan)
    dropped = sum(rho[k - 1] ** 2 for k in part.N) + chan.rho.sum_sq_tail(chan.k_max)
    inverted = sum((chan.epsilon * nu[k - 1] / lam[k - 1]) ** 2 for k in part.I)
    assert mse_closed_form(chan) == pytest.approx(dropped + inverted, rel=1e-14)


def test_monte_carlo_mse_scores_the_trial_streams():
    chan = _channel()
    lam, rho, nu = chan.arrays()
    keep = np.array([component_information(chan, k).in_I for k in range(1, 13)])
    tail = chan.rho.sum_sq_tail(chan.k_max)
    stats = []
    for t in range(5):
        stream = TrialStream(7, t)
        xi = rho * stream.prior_normals(12)
        eta = lam * xi + chan.epsilon * nu * stream.noise_normals(12)
        err = xi - np.where(keep, eta / lam, 0.0)
        stats.append(float(err @ err) + tail)
    mc = monte_carlo_mse(chan, 5, 7)
    assert mc.mean == pytest.approx(np.mean(stats), rel=1e-14)
    assert mc.stderr == pytest.approx(np.std(stats, ddof=1) / math.sqrt(5), rel=1e-12)


def test_posterior_estimate_judges_the_center_mode_with_the_rules_at_one():
    model = poisson_model(0.5, 1.0, k_max=6)
    data = CoefficientVector(model, np.arange(1.0, 14.0))        # indices -6..6
    # rho_1 = 0.15 >= eps * nu_1 = 0.02: the center is kept with lambda_0 = 1
    chan = GaussianChannel(model, constant_rule(0.15), geometric_rule(1.0, 0.1), 0.2)
    est = posterior_estimate(chan, data).entries
    assert est[6] == 7.0 and est[7] == 8.0 / 0.5 and not est[:6].any()
    # rho_1 = 0.3 >= 0.2: the center is kept while component 1 (0.15 < 0.2) is not
    chan = GaussianChannel(model, constant_rule(0.3), constant_rule(1.0), 0.2)
    assert not chan.informative[0]
    est = posterior_estimate(chan, data).entries
    assert est[6] == 7.0 and not est[:6].any() and not est[7:].any()
    # rho_1 = 0.15 < 0.2: nothing is kept
    chan = GaussianChannel(model, constant_rule(0.15), constant_rule(1.0), 0.2)
    assert not posterior_estimate(chan, data).entries.any()
    # a rule undefined at 0 judges the center at 1: rho_1 = 1 >= 0.2
    chan = GaussianChannel(model, power_rule(1.0, 1.0), constant_rule(1.0), 0.2)
    assert posterior_estimate(chan, data).entries[6] == 7.0


@pytest.mark.parametrize("rule", ["constant", "geometric", "power", "gaussian",
                                  "inverse_spectrum", "custom"])
@pytest.mark.parametrize("eps", [1e-3, 0.05, 0.3, 0.6])
def test_posterior_estimate_center_mode_answers_under_every_rule(rule, eps):
    """No rule is evaluated at k = 0, and as lambda_0 = 1 >= lambda_1 the
    center is in I whenever component 1 is, with rho and nu each the rule."""
    model = poisson_model(0.5, 1.0, k_max=6)
    data = CoefficientVector(model, np.arange(1.0, 14.0))
    made = {"constant": constant_rule(0.7), "geometric": geometric_rule(1.3, 0.4),
            "power": power_rule(1.0, 0.5), "gaussian": gaussian_rule(0.9, 0.05),
            "inverse_spectrum": inverse_spectrum_rule(model),
            "custom": custom_rule([0.9, 0.6, 0.45, 0.3, 0.25, 0.2])}[rule]
    for rho, nu in ((made, constant_rule(1.0)), (constant_rule(1.0), made)):
        chan = GaussianChannel(model, rho, nu, eps)
        est = posterior_estimate(chan, data).entries
        assert (est[6] == 7.0) == bool(rho.value(1) >= eps * nu.value(1))
        if chan.informative[0]:
            assert est[6] == 7.0


# ---------------------------------------------------------------------------
# Tabulated model JSON without k_max
# ---------------------------------------------------------------------------


def test_tabulated_json_without_k_max_takes_the_table_length():
    assert model_from_json(TABLE).k_max == 3
    assert model_from_json({**TABLE, "k_max": 2}).k_max == 2


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_prob_info_on_a_tabulated_json_without_k_max_exits_0(capsys, tmp_path, fmt):
    path = _write(tmp_path, "model.json", TABLE)
    code = main(["prob-info", "--model-json", path, "--epsilon", "0.1",
                 "--rho", "constant:1", "--nu", "constant:1", "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    if fmt == "json":
        assert json.loads(out)["k_max"] == 3 and json.loads(out)["k_I"] == 3


# ---------------------------------------------------------------------------
# Sweep rows at a level where the signal-to-noise ratio overflows
# ---------------------------------------------------------------------------


def test_sweep_blanks_the_channel_columns_where_the_ratio_overflows():
    # the columns fill: the log2 ratio 1074 - k is finite
    rows = convergence_sweep(ExperimentConfig.from_json(OVERFLOW_SWEEP)).rows
    assert all(row.get(col) is not None for row in rows for col in CHANNEL_COLUMNS)
    assert rows[1]["k_I"] == 8
    nats = sum(1074 - k for k in range(1, 9)) * math.log(2.0)
    assert rows[1]["exact_nats"] == pytest.approx(nats, rel=1e-15)
    assert rows[1]["k0"] >= rows[0]["k0"] and rows[1]["lower_bits"] is not None


def test_simulate_with_an_overflowing_level_exits_0(capsys, tmp_path):
    path = _write(tmp_path, "config.json", OVERFLOW_SWEEP)
    assert main(["simulate", "--config", path]) == 0
    last = capsys.readouterr().out.splitlines()[-1].split(",")
    assert last[0] == "4.9406564584124654e-324"
    # k_I and the information fill; k_alpha and the risk need a trace-class prior
    assert last[2] == "8" and last[3] == last[4] == ""
    assert float(last[-2]) == float(last[-1]) > 0.0


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_prob_info_at_an_overflowing_level_still_exits_2(capsys, fmt):
    # prob-info answers like the sweep row above (exit 0)
    code = main(["prob-info", "--model", "poisson:a=0.5,b=1,k_max=8", "--epsilon", "5e-324",
                 "--rho", "constant:1", "--nu", "constant:1", "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    nats = sum(1074 - k for k in range(1, 9)) * math.log(2.0)
    if fmt == "json":
        summary = json.loads(out)
        assert summary["k_I"] == 8 and summary["exact_nats"] == pytest.approx(nats, rel=1e-15)
    else:
        assert out.splitlines()[1].startswith("4.9406564584124654e-324,8,,,")


@pytest.mark.parametrize("config, message", [
    # lambda_1 rho_1 = lambda_2 rho_2 = 0.5: the informative count is ambiguous
    ({**OVERFLOW_SWEEP, "model": {"kind": "poisson", "a": 0.5, "b": 1.0, "k_max": 2},
      "rho": {"kind": "custom", "values": [1.0, 2.0], "tail_sum_sq": 0.0}}, "tie"),
    # exp(-k^2) underflows to zero before k = 40; its log2 does not, and the
    # sweep answers (exit 0) with k_I = k0 (rho = nu = 1)
    ({**OVERFLOW_SWEEP, "model": {"kind": "heat", "D": 1.0, "a": 2.0, "b": 1.0,
                                  "k_max": 40}}, None),
], ids=["tie", "underflow"])
def test_simulate_with_a_tie_or_an_underflowed_eigenvalue_still_exits_2(
        capsys, tmp_path, config, message):
    path = _write(tmp_path, "config.json", config)
    code = main(["simulate", "--config", path])
    captured = capsys.readouterr()
    if message is not None:
        assert code == 2 and message in captured.err
        return
    assert code == 0 and captured.err == ""
    rows = [line.split(",") for line in captured.out.splitlines()[1:]]
    assert [(row[1], row[2]) for row in rows] == [("26", "26"), ("27", "27")]


# ---------------------------------------------------------------------------
# No scipy at run time
# ---------------------------------------------------------------------------


def test_power_prior_commands_load_no_scipy(tmp_path):
    # a fresh interpreter running the power-prior tail through this same package
    config = tmp_path / "power.json"
    config.write_text(json.dumps({
        "model": {"kind": "green", "k_max": 16}, "epsilon_grid": [1e-2, 1e-3],
        "rho": {"kind": "power", "c": 1.0, "p": 1.0}, "nu": CONSTANT,
        "trials": 4, "seed": 3}))
    code = "\n".join([
        "import sys",
        "from fredinfo.cli import main",
        f"assert main(['simulate', '--config', {str(config)!r}]) == 0",
        "assert main(['prob-info', '--model', 'green', '--epsilon', '1e-3',",
        "             '--rho', 'power:1,1', '--nu', 'constant:1']) == 0",
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"])
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(fredinfo.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert "mse_closed" in out and '"k_alpha"' in out
    assert out.splitlines()[-1] == "[]"
