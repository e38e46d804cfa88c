"""NoiseLevel validation and the sharing of cutoff scans between quantities."""

import math

import pytest

import fredinfo.truncation as truncation
from fredinfo import (ExperimentConfig, NoiseLevel, ValidationError, capacity_interval,
                      convergence_sweep, k0, max_message_length_log2, poisson_model)
from fredinfo.cli import main


@pytest.mark.parametrize("args", [
    (math.nan,), (math.inf,), (-math.inf,),
    (3.0, 0.9), (0.0, 0.0), (math.inf, 0.0), (1.0, -0.5), (math.nan, math.nan),
], ids=["nan", "inf", "-inf", "mismatch", "zero", "zero-inf", "negative", "nan-pair"])
def test_constructor_rejects_invalid_levels(args):
    with pytest.raises(ValidationError):
        NoiseLevel(*args)


def test_constructor_accepts_consistent_levels():
    assert NoiseLevel(3.0) == NoiseLevel.of(log2_inv_eps=3.0)
    assert NoiseLevel(-math.log2(0.1), 0.1) == NoiseLevel.of(0.1)
    assert NoiseLevel(3.0).epsilon == 0.125
    assert NoiseLevel(1023.0).epsilon is None


@pytest.fixture
def k0_calls(monkeypatch):
    calls = []
    original = truncation.k0

    def counting(*args, **kwargs):
        calls.append(args[1] if len(args) > 1 else kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(truncation, "k0", counting)
    return calls


@pytest.mark.parametrize("level", [NoiseLevel.of(1e-6), NoiseLevel.of(log2_inv_eps=2000.0)],
                         ids=["float", "exponent"])
def test_capacity_and_message_length_share_two_scans(k0_calls, level):
    model = poisson_model(0.5, 1.0)
    bounds = capacity_interval(model, level)
    logl = max_message_length_log2(model, level)
    assert len(k0_calls) == 2
    assert bounds.k0_eps == k0(model, level) and logl == bounds.k0_eps * level.log2_inv_eps


def test_each_sweep_row_scans_twice(k0_calls):
    config = ExperimentConfig(model=poisson_model(0.5, 1.0),
                              log2_inv_eps_grid=[4.0, 64.0, 4096.0])
    convergence_sweep(config)
    assert len(k0_calls) == 2 * 3


def test_cutoff_is_remembered_per_model():
    level = NoiseLevel.of(1e-3)
    a, b = poisson_model(0.5, 1.0), poisson_model(0.25, 1.0)
    assert level.cutoff(a) == k0(a, 1e-3) and level.cutoff(b) == k0(b, 1e-3)
    assert level.cutoff(a) == k0(a, 1e-3)
    assert level.quarter is level.quarter


def test_packing_accepts_exponent_levels(capsys):
    assert main(["metric-info", "--packing-axes", "1.0,0.5", "--epsilon", "pow2:-3",
                 "--step", "0.03125", "--format", "csv"]) == 0
    assert main(["metric-info", "--packing-axes", "1.0,0.5", "--epsilon", "0.125",
                 "--step", "0.03125", "--format", "csv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == out[3]
    assert main(["metric-info", "--packing-axes", "1.0", "--epsilon", "pow2:-1050",
                 "--step", "0.1"]) == 2
    assert "float range" in capsys.readouterr().err
