"""Tests for the random-stream layout: counters, draw-once sweeps, scheme id."""

from __future__ import annotations

import json

import numpy as np
import pytest

from fredinfo import (
    ExperimentConfig,
    GaussianChannel,
    TrialStream,
    ValidationError,
    constant_rule,
    convergence_sweep,
    geometric_rule,
    monte_carlo_mse,
    poisson_model,
)
from fredinfo import harness
from fredinfo.cli import main as cli_main
from fredinfo.harness import STREAM_SCHEME


def _raw_outputs(gen: np.random.Generator, start: np.ndarray) -> np.ndarray:
    """Replay the raw 64-bit words ``gen`` has consumed since ``start``."""
    state = gen.bit_generator.state
    blocks = int(state["state"]["counter"][0] - start[0])
    used = 4 * (blocks - 1) + state["buffer_pos"]
    replay = np.random.Philox(counter=start, key=state["state"]["key"])
    return replay.random_raw(used)


def test_stream_counters_move_only_in_word_zero_and_never_overlap():
    seed, trial, n = 7, 3, 4096
    raws = []
    for t, role in ((trial, 0), (trial, 1), (trial + 1, 0)):
        gen = harness._stream(seed, t, role)
        start = gen.bit_generator.state["state"]["counter"].copy()
        gen.standard_normal(n)
        counter = gen.bit_generator.state["state"]["counter"]
        assert counter[0] > start[0]
        np.testing.assert_array_equal(counter[1:], start[1:])
        raw = _raw_outputs(gen, start)
        assert raw.size >= n
        raws.append(raw)
    for i in range(len(raws)):
        for j in range(i + 1, len(raws)):
            assert np.intersect1d(raws[i], raws[j]).size == 0


def _sweep_config(trials, seed):
    return ExperimentConfig(model=poisson_model(0.5, 1.0),
                            epsilon_grid=(0.5, 0.25, 0.125, 0.0625),
                            rho=geometric_rule(32.0, 1.0 / 16.0),
                            nu=constant_rule(1.0), trials=trials, seed=seed,
                            k_max=24)


def test_sweep_draws_each_trial_stream_once(monkeypatch):
    trials, seed = 7, 2024
    cfg = _sweep_config(trials, seed)
    draws = []
    real_stream = harness._stream

    def counting_stream(seed, trial, role, gen=None):
        draws.append((seed, trial, role))
        return real_stream(seed, trial, role, gen)

    monkeypatch.setattr(harness, "_stream", counting_stream)
    rows = convergence_sweep(cfg).rows
    assert len(rows) == 4
    assert sorted(draws) == sorted((seed, t, r) for t in range(trials) for r in (0, 1))

    for row, eps in zip(rows, cfg.epsilon_grid):
        chan = GaussianChannel(cfg.model, cfg.rho, cfg.nu, eps, k_max=cfg.k_max)
        alone = monte_carlo_mse(chan, trials, seed)
        assert row["mse_mc_mean"] == alone.mean
        assert row["mse_mc_stderr"] == alone.stderr


def test_monte_carlo_refuses_negative_seed():
    chan = GaussianChannel(poisson_model(0.5, 1.0), geometric_rule(32.0, 1.0 / 16.0),
                           constant_rule(1.0), 0.25, k_max=8)
    with pytest.raises(ValidationError):
        monte_carlo_mse(chan, trials=3, seed=-1)


def test_simulate_records_stream_scheme_in_metadata_only(tmp_path, monkeypatch):
    monkeypatch.delenv("FREDINFO_SEED", raising=False)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(_sweep_config(5, 42).canonical_json())
    assert cli_main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")]) == 0
    meta = json.loads((tmp_path / "run.meta.json").read_text())
    assert meta["stream_scheme"] == STREAM_SCHEME
    body = (tmp_path / "run.csv").read_text()
    assert STREAM_SCHEME not in body and "stream_scheme" not in body


# The first draws of one key under each scheme id.  A change that moves these
# must also bump STREAM_SCHEME, then pin the new draws here under the new id.
PINNED_DRAWS = {
    "philox4x64/trial-role/2": {
        "prior": ["-0.36054454878316522", "1.295782185504486",
                  "1.0062188743850968", "-0.5248935744373302"],
        "noise": ["-0.68594731733152048", "0.22262284449047418",
                  "-2.0094967209861401", "-0.5304567634560744"],
    },
}


def test_stream_scheme_pins_first_draws():
    assert STREAM_SCHEME in PINNED_DRAWS, "new stream scheme: pin its draws"
    pinned = PINNED_DRAWS[STREAM_SCHEME]
    s = TrialStream(seed=42, trial=0)
    assert ["%.17g" % x for x in s.prior_normals(4)] == pinned["prior"]
    assert ["%.17g" % x for x in s.noise_normals(4)] == pinned["noise"]
