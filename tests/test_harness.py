"""Tests for the simulation harness: streams, Monte-Carlo risk, sweeps, tables."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from fredinfo import (
    ExperimentConfig,
    GaussianChannel,
    TrialStream,
    ValidationError,
    constant_rule,
    convergence_sweep,
    forward_apply,
    geometric_rule,
    green_model,
    heat_model,
    monte_carlo_mse,
    mse_closed_form,
    poisson_model,
    reproduce_summary_table,
    simulate_channel,
    summary_table_csv,
    synthesize_solution,
    tabulated_model,
)
from fredinfo.harness import SWEEP_COLUMNS
from fredinfo.metric import entropy_lower_bound


def worked_channel(eps=2.0 ** -4, k_max=24):
    model = tabulated_model([2.0 ** -k for k in range(1, k_max + 1)])
    return GaussianChannel(model, geometric_rule(1.0, 0.5), constant_rule(1.0), eps)


# ---------------------------------------------------------------------------
# Trial streams
# ---------------------------------------------------------------------------


def test_stream_is_reproducible():
    a = TrialStream(seed=42, trial=3)
    b = TrialStream(seed=42, trial=3)
    np.testing.assert_array_equal(a.prior_normals(16), b.prior_normals(16))
    np.testing.assert_array_equal(a.noise_normals(16), b.noise_normals(16))


def test_stream_substreams_are_distinct():
    s = TrialStream(seed=42, trial=3)
    # prior and noise roles never share draws
    assert not np.array_equal(s.prior_normals(16), s.noise_normals(16))
    # neighbouring trials and different seeds get fresh draws
    assert not np.array_equal(s.prior_normals(16),
                              TrialStream(seed=42, trial=4).prior_normals(16))
    assert not np.array_equal(s.prior_normals(16),
                              TrialStream(seed=43, trial=3).prior_normals(16))


def test_stream_draws_keyed_per_component():
    # Growing the component count extends the draw, never reshuffles it.
    s = TrialStream(seed=9, trial=0)
    np.testing.assert_array_equal(s.prior_normals(24)[:6], s.prior_normals(6))


def test_stream_uses_high_seed_bits():
    wide = TrialStream(seed=(1 << 80) + 5, trial=0)
    narrow = TrialStream(seed=5, trial=0)
    assert not np.array_equal(wide.prior_normals(8), narrow.prior_normals(8))


def test_stream_rejects_negative_ids():
    with pytest.raises(ValidationError):
        TrialStream(seed=-1, trial=0)
    with pytest.raises(ValidationError):
        TrialStream(seed=0, trial=-2)


def test_synthesize_matches_stream_draws():
    chan = worked_channel()
    s = TrialStream(seed=5, trial=2)
    xi = synthesize_solution(chan, s)
    _, rho, _ = chan.arrays()
    np.testing.assert_array_equal(xi.entries, rho * s.prior_normals(24))


def test_synthesize_two_sided_layout():
    model = poisson_model(0.5, 1.0)
    chan = GaussianChannel(model, geometric_rule(1.0, 0.5), constant_rule(1.0),
                           0.1, k_max=6)
    s = TrialStream(seed=5, trial=0)
    xi = synthesize_solution(chan, s)
    assert xi.K == 6 and xi.entries.size == 13
    assert xi.entry(0) == 0.0
    assert all(xi.entry(-k) == 0.0 for k in range(1, 7))
    _, rho, _ = chan.arrays()
    np.testing.assert_array_equal(
        np.asarray([xi.entry(k) for k in range(1, 7)]), rho * s.prior_normals(6))


def test_simulate_noise_free_is_forward_map():
    chan = worked_channel(eps=0.0)
    s = TrialStream(seed=1, trial=0)
    xi = synthesize_solution(chan, s)
    eta = simulate_channel(chan, xi, s)
    np.testing.assert_array_equal(eta.entries, forward_apply(chan.model, xi).entries)


def test_simulate_adds_scaled_noise():
    chan = worked_channel(eps=0.25)
    s = TrialStream(seed=1, trial=0)
    xi = synthesize_solution(chan, s)
    eta = simulate_channel(chan, xi, s)
    lam, _, nu = chan.arrays()
    expected = lam * xi.entries + 0.25 * nu * s.noise_normals(24)
    np.testing.assert_array_equal(eta.entries, expected)


def test_simulate_validates_inputs():
    chan = worked_channel()
    other = green_model()
    from fredinfo import CoefficientVector
    with pytest.raises(ValidationError):
        simulate_channel(chan, CoefficientVector(other, np.ones(4)),
                         TrialStream(seed=0, trial=0))
    short = CoefficientVector(chan.model, np.ones(5))
    with pytest.raises(ValidationError):
        simulate_channel(chan, short, TrialStream(seed=0, trial=0))


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def test_monte_carlo_matches_closed_form():
    chan = worked_channel()
    mc = monte_carlo_mse(chan, trials=600, seed=7)
    truth = mse_closed_form(chan)
    assert truth == pytest.approx(19.0 / 192.0, rel=1e-12)
    assert mc.trials == 600 and mc.stderr is not None
    assert abs(mc.mean - truth) <= 3.0 * mc.stderr


def test_monte_carlo_is_deterministic():
    chan = worked_channel()
    a = monte_carlo_mse(chan, trials=50, seed=123)
    b = monte_carlo_mse(chan, trials=50, seed=123)
    assert a.mean == b.mean and a.stderr == b.stderr
    c = monte_carlo_mse(chan, trials=50, seed=124)
    assert c.mean != a.mean


def test_monte_carlo_agrees_with_stream_api():
    # The estimator inside the loop is pinned down by TrialStream draws.
    chan = worked_channel()
    lam, rho, nu = chan.arrays()
    member = lam * rho >= chan.epsilon * nu
    tail = chan.rho.sum_sq_tail(chan.k_max)
    stats = []
    for t in range(6):
        s = TrialStream(seed=11, trial=t)
        xi = rho * s.prior_normals(chan.k_max)
        eta = lam * xi + chan.epsilon * nu * s.noise_normals(chan.k_max)
        est = np.where(member, eta / lam, 0.0)
        diff = xi - est
        stats.append(diff @ diff + tail)
    mc = monte_carlo_mse(chan, trials=6, seed=11)
    assert mc.mean == float(np.mean(np.asarray(stats)))


def test_monte_carlo_noise_free_risk_is_pure_tail():
    # Power-of-two spectrum: eta / lambda returns xi exactly, so every trial
    # scores the analytic tail and the spread collapses.
    chan = worked_channel(eps=0.0)
    mc = monte_carlo_mse(chan, trials=5, seed=3)
    assert mc.mean == chan.rho.sum_sq_tail(24) == mc.tail_sum_sq
    assert mc.stderr == 0.0


def test_monte_carlo_scores_prior_when_noise_overflows():
    # eps nu_k = 1e310 overflows on every component; none is informative, so
    # each trial scores its prior draw alone, and nothing warns
    chan = GaussianChannel(poisson_model(0.5, 1.0, k_max=8), geometric_rule(1.0, 0.5),
                           constant_rule(1e300), 1e10)
    assert not chan.informative.any()
    _, rho, _ = chan.arrays()
    stats = []
    for t in range(3):
        xi = rho * TrialStream(seed=1, trial=t).prior_normals(8)
        stats.append(xi @ xi + chan.rho.sum_sq_tail(8))
    assert monte_carlo_mse(chan, trials=3, seed=1).mean == float(np.mean(np.asarray(stats)))


def test_monte_carlo_single_trial_has_no_stderr():
    mc = monte_carlo_mse(worked_channel(), trials=1, seed=0)
    assert mc.stderr is None and mc.trials == 1


def test_monte_carlo_validates():
    with pytest.raises(ValidationError):
        monte_carlo_mse(worked_channel(), trials=0, seed=0)
    model = tabulated_model([2.0 ** -k for k in range(1, 9)])
    flat = GaussianChannel(model, constant_rule(1.0), constant_rule(1.0), 0.1)
    with pytest.raises(ValidationError):
        monte_carlo_mse(flat, trials=10, seed=0)  # prior is not trace class


# ---------------------------------------------------------------------------
# Experiment configs
# ---------------------------------------------------------------------------


def make_config(**overrides):
    # k_max stays moderate: far down the tail lambda_k rho_k underflows to
    # zero and the channel rejects the resulting ratio ties.
    base = dict(model=poisson_model(0.5, 1.0), epsilon_grid=(0.5, 0.25, 0.125),
                rho=geometric_rule(32.0, 1.0 / 16.0), nu=constant_rule(1.0),
                trials=10, seed=42, k_max=32)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_requires_exactly_one_grid():
    with pytest.raises(ValidationError):
        make_config(log2_inv_eps_grid=(1.0, 2.0))
    with pytest.raises(ValidationError):
        make_config(epsilon_grid=None)


@pytest.mark.parametrize("bad", [
    (),
    (0.5, 0.5),
    (0.25, 0.5),
    (0.5, -0.1),
    (0.5, float("nan")),
])
def test_config_rejects_bad_epsilon_grids(bad):
    with pytest.raises(ValidationError):
        make_config(epsilon_grid=bad)


def test_config_rejects_bad_exponent_grids():
    with pytest.raises(ValidationError):
        make_config(epsilon_grid=None, log2_inv_eps_grid=(4.0, 4.0))
    with pytest.raises(ValidationError):
        make_config(epsilon_grid=None, log2_inv_eps_grid=())
    # neighbouring floats can share a log2, so a float grid compares as floats
    tiny = (1e-300, math.nextafter(1e-300, 0.0))
    assert make_config(epsilon_grid=tiny).epsilon_grid == tiny


def test_config_channel_fields_come_together():
    with pytest.raises(ValidationError):
        make_config(nu=None)
    with pytest.raises(ValidationError):
        make_config(rho=None, nu=None)  # trials=10 still set: needs a channel
    assert make_config(rho=None, nu=None, trials=0).rho is None


def test_config_rejects_bad_scalars():
    with pytest.raises(ValidationError):
        make_config(trials=-1)
    with pytest.raises(ValidationError):
        make_config(seed=-3)
    with pytest.raises(ValidationError):
        make_config(sided="both")


def test_config_json_round_trip():
    cfg = make_config(k_max=48, sided="total")
    clone = ExperimentConfig.from_json(json.loads(cfg.canonical_json()))
    assert clone.canonical_json() == cfg.canonical_json()
    assert clone.config_hash() == cfg.config_hash()
    assert clone.k_max == 48 and clone.sided == "total"


def test_config_hash_tracks_content():
    assert make_config().config_hash() == make_config().config_hash()
    assert make_config(seed=43).config_hash() != make_config().config_hash()
    assert make_config(trials=11).config_hash() != make_config().config_hash()


@pytest.mark.parametrize("obj", [
    "nope",
    {},
    {"model": {"kind": "poisson", "a": 0.5, "b": 1.0}},  # no grid
    {"model": {"kind": "nope"}, "epsilon_grid": [0.5]},
    {"model": {"kind": "poisson", "a": 0.5, "b": 1.0},
     "epsilon_grid": [0.5], "trials": "many"},
])
def test_config_from_json_rejects_malformed(obj):
    with pytest.raises(ValidationError):
        ExperimentConfig.from_json(obj)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def test_sweep_metric_only_columns():
    cfg = ExperimentConfig(model=poisson_model(0.5, 1.0),
                           epsilon_grid=(0.5, 0.1, 0.01))
    res = convergence_sweep(cfg)
    assert len(res.rows) == 3
    for row in res.rows:
        assert row["k0"] >= 1 and row["lower_bits"] >= 0.0
        assert row.get("k_I") is None and row.get("mse_closed") is None
    assert res.violations == []
    lower = entropy_lower_bound(poisson_model(0.5, 1.0), 0.1)
    assert res.rows[1]["lower_bits"] == lower


def test_sweep_with_channel_fills_all_columns():
    res = convergence_sweep(make_config(epsilon_grid=(0.5, 0.25, 0.125, 0.0625)))
    assert res.violations == []
    mses = [row["mse_closed"] for row in res.rows]
    assert all(b < a for a, b in zip(mses, mses[1:]))
    for row in res.rows:
        assert row["k_I"] >= 1 and row["k_alpha"] >= 0
        assert row["mse_mc_mean"] is not None and row["mse_mc_stderr"] is not None
        assert row["exact_nats"] >= row["approx_nats"] >= 0.0


def test_sweep_records_flat_risk_as_violation():
    # Break-even entry of component 1 keeps the risk flat from eps=1/2 to 1/4;
    # the sweep must flag it and still finish.
    model = tabulated_model([2.0 ** -k for k in range(1, 25)])
    cfg = ExperimentConfig(model=model, epsilon_grid=(0.5, 0.25, 0.125),
                           rho=geometric_rule(1.0, 0.5), nu=constant_rule(1.0))
    res = convergence_sweep(cfg)
    assert len(res.rows) == 3
    assert len(res.violations) == 1
    assert "rows 0->1" in res.violations[0]
    assert "mse_closed" in res.violations[0]
    assert res.metadata["violations"] == res.violations


def test_sweep_exponent_grid_below_float_range():
    cfg = ExperimentConfig(model=poisson_model(0.5, 1.0),
                           log2_inv_eps_grid=(16.0, 1030.0),
                           rho=geometric_rule(32.0, 1.0 / 16.0),
                           nu=constant_rule(1.0), k_max=32)
    res = convergence_sweep(cfg)
    first, second = res.rows
    assert first["epsilon"] == 2.0 ** -16 and first["k_I"] >= 1
    # 2^-1030 is not a normal float: the metric and the channel columns both fill
    assert second["epsilon"] == "pow2:-1030"
    assert second["k0"] == 1030
    # log2 snr_k = 1035 - 5k: all 32 components informative, risk = the prior tail
    assert second["k_I"] == 32 and second["k_alpha"] == 32
    assert second["mse_closed"] == pytest.approx(cfg.rho.sum_sq_tail(32), rel=1e-14)
    assert second["approx_nats"] == pytest.approx(
        sum(1035 - 5 * k for k in range(1, 33)) * math.log(2.0), rel=1e-14)
    lines = res.to_csv().splitlines()
    assert lines[2].startswith("pow2:-1030,1030,32,32,")


def test_sweep_total_sided_uses_total_counts():
    model = poisson_model(0.5, 1.0)
    cfg = ExperimentConfig(model=model, epsilon_grid=(0.1,), sided="total")
    row = convergence_sweep(cfg).rows[0]
    assert row["lower_bits"] == entropy_lower_bound(model, 0.1, sided="total")


def test_sweep_csv_shape_and_reruns_byte_identical():
    cfg = make_config()
    first = convergence_sweep(cfg)
    second = convergence_sweep(make_config())
    assert first.to_csv() == second.to_csv()
    assert first.metadata["config_hash"] == second.metadata["config_hash"]
    lines = first.to_csv().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 1 + len(cfg.epsilon_grid)
    # no timestamp sneaks into the body
    assert first.metadata["created_utc"] not in first.to_csv()


def test_result_write_creates_csv_and_sidecar(tmp_path):
    res = convergence_sweep(make_config(trials=5))
    base = str(tmp_path / "run")
    csv_path, meta_path = res.write(base)
    assert csv_path.endswith("run.csv") and meta_path.endswith("run.meta.json")
    with open(csv_path) as fh:
        assert fh.read() == res.to_csv()
    with open(meta_path) as fh:
        meta = json.load(fh)
    assert meta["config_hash"] == make_config(trials=5).config_hash()
    assert meta["violations"] == [] and "created_utc" in meta
    assert meta["seed"] == 42 and meta["trials"] == 5


# ---------------------------------------------------------------------------
# Summary table
# ---------------------------------------------------------------------------


def test_summary_table_hits_growth_targets():
    rows = reproduce_summary_table()
    assert [r.model for r in rows] == ["poisson", "heat", "green"]
    for row in rows:
        assert row.within_5pct
        assert abs(row.d_c_estimate - row.d_c_target) <= 0.05 * row.d_c_target
        assert (abs(row.logL_exponent - row.logL_exponent_target)
                <= 0.05 * row.logL_exponent_target)
    by_name = {r.model: r for r in rows}
    assert by_name["poisson"].logL_exponent == pytest.approx(2.0, abs=1e-6)
    assert by_name["green"].logL_exponent == pytest.approx(0.5, abs=0.01)


def test_summary_table_csv_layout():
    rows = reproduce_summary_table()
    text = summary_table_csv(rows)
    lines = text.splitlines()
    assert lines[0].startswith("model,decay,logL_exponent")
    assert len(lines) == 4
    assert lines[1].startswith("poisson,") and lines[3].startswith("green,")
    assert all(line.endswith("True") for line in lines[1:])
