"""NoiseLevel validation, one cutoff per level however it is written, the
sharing of cutoffs between quantities, and one certification pass per sweep."""

import json
import math

import numpy as np
import pytest

import fredinfo.truncation as truncation
from fredinfo import (CoefficientVector, ExperimentConfig, GaussianChannel, NoiseLevel,
                      ValidationError, capacity_interval, constant_rule, convergence_sweep,
                      extremal_comparison, green_model, k0, max_message_length_log2,
                      SpectrumModel, partition_IN, poisson_model, truncated_solution)
from fredinfo.cli import main


@pytest.mark.parametrize("args", [
    (math.nan,), (math.inf,), (-math.inf,),
    (3.0, 0.9), (0.0, 0.0), (math.inf, 0.0), (1.0, -0.5), (math.nan, math.nan),
], ids=["nan", "inf", "-inf", "mismatch", "zero", "zero-inf", "negative", "nan-pair"])
def test_constructor_rejects_invalid_levels(args):
    with pytest.raises(ValidationError):
        NoiseLevel(*args)


def test_constructor_accepts_consistent_levels():
    assert NoiseLevel(3.0) == NoiseLevel.of(NoiseLevel(3.0))
    assert NoiseLevel(-math.log2(0.1), 0.1) == NoiseLevel.of(0.1)
    assert NoiseLevel(3.0).epsilon == 0.125
    assert NoiseLevel(1023.0).epsilon is None


# -log2 lambda_5 of green as the package computes it: lambda_5 = eps up to rounding
_GREEN_L5 = 7.946848448719361


def test_a_level_is_one_value_however_written():
    assert NoiseLevel(3.0) == NoiseLevel.of(0.125)
    assert hash(NoiseLevel(3.0)) == hash(NoiseLevel.of(0.125))
    level = NoiseLevel(_GREEN_L5, 2.0 ** -_GREEN_L5)  # -log2(2**-L) need not give L back
    assert level == NoiseLevel(_GREEN_L5) and level.epsilon == 2.0 ** -_GREEN_L5
    for level in (NoiseLevel(_GREEN_L5), NoiseLevel.of(0.1), NoiseLevel(1050.0),
                  NoiseLevel.of(5e-324)):
        assert NoiseLevel(level.log2_inv_eps, level.epsilon) == level


def test_every_cutoff_at_an_eigenvalue_level_agrees():
    model, level = green_model(k_max=16), NoiseLevel(_GREEN_L5)
    assert k0(model, level) == 4
    data = CoefficientVector(model, np.ones(8))
    assert truncated_solution(model, data, level).k0 == 4
    ones = constant_rule(1.0)
    assert partition_IN(GaussianChannel(model, ones, ones, level)).k_I == 4
    ext = extremal_comparison(model, level, "alpha")
    assert (ext.k0, ext.k_I) == (4, 4)
    config = ExperimentConfig(model=model, log2_inv_eps_grid=(_GREEN_L5,), rho=ones, nu=ones)
    row = convergence_sweep(config).rows[0]
    assert (row["k0"], row["k_I"]) == (4, 4)


@pytest.mark.parametrize("epsilon", ["1", "pow2:0"])
def test_capacity_at_eps_one_prints_unsigned_zeros(capsys, tmp_path, epsilon):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "tabulated", "values": [1.0, 0.5]}))
    argv = ["capacity", "--model-json", str(path), "--epsilon", epsilon]
    assert main(argv) == 0
    obj = json.loads(capsys.readouterr().out)
    assert [math.copysign(1.0, obj[key]) for key in ("log2_inv_eps", "logL_max")] == [1.0, 1.0]
    assert main([*argv, "--format", "csv"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert dict(zip(header.split(","), row.split(",")))["logL_max"] == "0"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_two_sided_total_reads_the_center_on_the_float(capsys, fmt):
    # each level's float is 1.0 = lambda_0, whatever the sign of its exponent
    k0s = []
    for epsilon in ("1", "pow2:1e-17", "pow2:-1e-17"):
        assert main(["capacity", "--model", "poisson:a=0.5,b=1", "--epsilon", epsilon,
                     "--sided", "total", "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            k0s.append(json.loads(out)["k0_eps"])
        else:
            header, row = out.splitlines()
            k0s.append(int(dict(zip(header.split(","), row.split(",")))["k0"]))
    assert k0s == [1, 1, 1]


@pytest.fixture
def k0_calls(monkeypatch):
    calls = []
    original = truncation.k0

    def counting(*args, **kwargs):
        calls.append(args[1] if len(args) > 1 else kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(truncation, "k0", counting)
    return calls


@pytest.mark.parametrize("level", [NoiseLevel.of(1e-6), NoiseLevel(2000.0)],
                         ids=["float", "exponent"])
def test_capacity_and_message_length_share_two_scans(k0_calls, level):
    model = poisson_model(0.5, 1.0)
    bounds = capacity_interval(model, level)
    logl = max_message_length_log2(model, level)
    assert len(k0_calls) == 2
    assert bounds.k0_eps == k0(model, level) and logl == bounds.k0_eps * level.log2_inv_eps


def test_a_sweep_certifies_its_cutoffs_in_one_pass(k0_calls, monkeypatch):
    calls = {"eigenvalues": 0, "log2_eigenvalues": 0, "_boundary": 0}

    def count(owner, name):
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    count(SpectrumModel, "eigenvalues")
    count(SpectrumModel, "log2_eigenvalues")
    count(truncation, "_boundary")
    config = ExperimentConfig(model=poisson_model(0.5, 1.0),
                              log2_inv_eps_grid=[4.0, 64.0, 4096.0])
    rows = convergence_sweep(config).rows
    # levels 4 and 64 and their quarters have floats, 4096 and 4098 do not: one
    # evaluation per domain certifies all six cutoffs, the model reads lambda_1
    # once, and the row without a float reads log2 lambda_1; no level is
    # searched and no row calls k0
    assert calls == {"eigenvalues": 2, "log2_eigenvalues": 2, "_boundary": 0}
    assert k0_calls == []
    assert [row["k0"] for row in rows] == [4, 64, 4096]


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
