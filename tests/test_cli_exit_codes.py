"""Inputs that must end in exit code 2 with a one-line error, never a traceback."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from fredinfo import CoefficientVector, green_model
from fredinfo.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, want", [
    # the exponent overflows a float, which the extremal comparison needs
    (("prob-info", "--model", "green", "--epsilon", "pow2:2000", "--extremal", "alpha"), 2),
    # the exponent is subnormal: the log-domain channel answers it (exit 0)
    (("prob-info", "--model", "green:k_max=8", "--epsilon", "pow2:-1050",
      "--rho", "constant:1", "--nu", "constant:1"), 0),
], ids=["overflow", "subnormal"])
def test_prob_info_outside_float_range_exits_2(capsys, argv, want):
    code, out, err = run(capsys, *argv)
    assert code == want
    if want == 2:
        assert out == "" and "representable" in err and "float range" in err
        return
    summary = json.loads(out)
    assert summary["epsilon"] == "pow2:-1050" and summary["k_I"] == 8
    # log2 snr_k = 1050 - 2 log2(k pi), far above 0: J_k = ln(snr_k) to the last bit
    nats = sum((1050.0 - 2.0 * math.log2(k * math.pi)) * math.log(2.0) for k in range(1, 9))
    assert summary["exact_nats"] == pytest.approx(nats, rel=1e-13)
    assert summary["approx_nats"] == pytest.approx(nats, rel=1e-13)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_prob_info_prior_whose_square_overflows_exits_2(capsys, fmt):
    # rho_1 = 5e299: its square, the risk and the prior energy are not floats
    code, out, err = run(capsys, "prob-info", "--model", "poisson:a=0.5,b=1,k_max=8",
                         "--epsilon", "1e-3", "--rho", "geometric:1e300,0.5",
                         "--nu", "constant:1", "--format", fmt)
    assert code == 2 and out == ""
    assert err == "error: k_alpha needs rho_k^2 to be a finite float on 1..k_max\n"


def test_truncate_data_with_subnormal_exponent_exits_2(capsys, tmp_path):
    model = green_model(k_max=4)
    data_path = tmp_path / "data.json"
    data_path.write_text(json.dumps(CoefficientVector(model, np.ones(4)).to_json()))
    code, _, err = run(capsys, "truncate", "--model", "green:k_max=4",
                       "--epsilon", "pow2:-1050", "--data", str(data_path))
    assert code == 2 and "float range" in err


@pytest.mark.parametrize("flag, argv", [
    ("--packing-axes", ("--packing-axes", "a,b", "--epsilon", "0.4", "--step", "0.1")),
    ("--grid-eps", ("--model", "green", "--grid-eps", "x")),
    ("--grid-log2", ("--model", "green", "--grid-log2", "x")),
], ids=["packing-axes", "grid-eps", "grid-log2"])
def test_malformed_number_list_exits_2(capsys, flag, argv):
    code, _, err = run(capsys, "metric-info", *argv)
    assert code == 2 and flag in err


def test_tabulated_model_json_with_text_value_exits_2(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "tabulated", "values": [0.5, "x"]}))
    code, _, err = run(capsys, "eigens", "--model-json", str(path), "--k-hi", "1")
    assert code == 2 and "malformed model JSON" in err


def test_invalid_json_file_exits_2(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "eigens", "--model-json", str(path), "--k-hi", "1")
    assert code == 2 and "not valid JSON" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_eigens_k_hi_zero_exits_2(capsys, fmt):
    code, out, err = run(capsys, "eigens", "--model", "green", "--k-hi", "0",
                         "--format", fmt)
    assert code == 2 and out == "" and "k_hi" in err


def test_fractional_k_max_exits_2(capsys):
    code, out, err = run(capsys, "capacity", "--model", "poisson:a=0.5,b=1,k_max=2.5",
                         "--epsilon", "0.1")
    assert code == 2 and out == "" and "k_max" in err


def test_model_json_with_unknown_field_exits_2(capsys, tmp_path):
    # a misspelt k_max is refused, not run on the default 256 components
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "poisson", "a": 0.5, "b": 1.0, "k_mx": 8}))
    code, out, err = run(capsys, "capacity", "--model-json", str(path), "--epsilon", "0.1")
    assert (code, out) == (2, "")
    assert err == "error: model JSON has unknown fields ['k_mx']\n"


def test_unknown_model_parameter_exits_2(capsys):
    code, _, err = run(capsys, "capacity", "--model", "green:foo=1", "--epsilon", "0.1")
    assert code == 2 and "foo" in err
