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
    # the exponent overflows a float, which packing counts need
    (("metric-info", "--packing-axes", "1,0.5", "--epsilon", "pow2:2000", "--step", "0.1"), 2),
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
    code, out, err = run(capsys, "eigens", "--model-json", str(path), "--k-hi", "1")
    assert (code, out, err) == (2, "", "error: tabulated value must be a real number, got 'x'\n")


def test_tabulated_model_json_with_bool_value_exits_2(capsys, tmp_path):
    # refused, not read as 1.0
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "tabulated", "values": [True]}))
    code, out, err = run(capsys, "eigens", "--model-json", str(path), "--k-hi", "1")
    assert (code, out, err) == (2, "", "error: tabulated value must be a real number, got True\n")


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


@pytest.mark.parametrize("argv, message", [
    (("capacity", "--model", "poisson:a", "--epsilon", "0.1"),
     "bad model parameter 'a' (use key=value)"),
    (("prob-info", "--model", "green", "--epsilon", "0.1", "--rho", "geometric:1,0.5,3",
      "--nu", "constant:1"), "rule 'geometric' takes 2 parameter(s) ('c', 'q'), got 3"),
], ids=["model-parameter-without-value", "rule-with-extra-parameter"])
def test_malformed_spec_exits_2(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_truncate_data_for_another_model_exits_2(capsys, tmp_path):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(CoefficientVector(green_model(k_max=4), np.ones(4)).to_json()))
    code, out, err = run(capsys, "truncate", "--model", "green:k_max=8",
                         "--epsilon", "0.1", "--data", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: vector in {path} was written for a different model\n"


def test_vector_json_with_entries_not_real_exits_2(capsys, tmp_path):
    # refused, not read as [1.0, 0.5]
    path = tmp_path / "data.json"
    obj = CoefficientVector(green_model(), np.ones(2)).to_json()
    obj["entries"] = [True, "0.5"]
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "truncate", "--model", "green", "--epsilon", "0.01",
                         "--data", str(path))
    assert (code, out) == (2, "")
    assert err == "error: coefficient entry must be a real number, got True\n"


def test_vector_json_with_a_string_complex_flag_exits_2(capsys, tmp_path):
    # refused, not read by truthiness as the complex vector [0.5, 0.25 + 1j]
    path = tmp_path / "data.json"
    path.write_text(json.dumps({"model": {"kind": "green"}, "complex": "no",
                                "entries": [[0.5, 0.0], [0.25, 1.0]]}))
    code, out, err = run(capsys, "truncate", "--model", "green", "--epsilon", "0.1",
                         "--data", str(path))
    assert (code, out) == (2, "")
    assert err == "error: coefficient vector JSON: complex must be a boolean, got 'no'\n"


def test_truncate_data_whose_quotient_overflows_exits_2(capsys, tmp_path):
    # 1e308 / lambda_1 (about 0.101) overflows; no numpy warning precedes the
    # error, or the RuntimeWarning filter would turn it into a failure
    path = tmp_path / "data.json"
    path.write_text(json.dumps({"model": {"kind": "green"}, "entries": [1e308, 1e308]}))
    code, out, err = run(capsys, "truncate", "--model", "green", "--epsilon", "0.1",
                         "--data", str(path))
    assert (code, out) == (2, "")
    assert err == "error: truncated_solution: g_1 / lambda_1 is not a finite float\n"


def test_vector_json_with_unknown_field_exits_2(capsys, tmp_path):
    # a misspelt "complex" is refused, not read as a real vector
    path = tmp_path / "data.json"
    obj = CoefficientVector(green_model(k_max=4), np.ones(2)).to_json()
    obj["complx"] = obj.pop("complex")
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "truncate", "--model", "green:k_max=4",
                         "--epsilon", "0.1", "--data", str(path))
    assert (code, out) == (2, "")
    assert err == "error: coefficient vector JSON has unknown fields ['complx']\n"


@pytest.mark.parametrize("argv", [
    ("eigens", "--model", "green", "--k-hi", "100000000000000000"),
    ("prob-info", "--model", "green", "--epsilon", "0.1", "--rho", "constant:1",
     "--nu", "constant:1", "--k-max", "100000000000000000"),
], ids=["eigens", "prob-info"])
def test_size_past_memory_exits_3(capsys, argv):
    # numpy refuses the 711 PiB array before touching memory
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("numeric failure: Unable to allocate") and err.count("\n") == 1


@pytest.mark.parametrize("flag, count, code, err", [
    ("--k-hi", 2 ** 60, 3, "numeric failure: k_hi = 1152921504606846976 sizes an array past "
     "what numpy can address (144115188075855871 entries)\n"),
    ("--k-max", 2 ** 60, 3, "numeric failure: k_max = 1152921504606846976 sizes an array past "
     "what numpy can address (144115188075855871 entries)\n"),
    ("--k-hi", 2 ** 63, 2,
     "error: k_hi must be an integer of magnitude below 2**63, got 9223372036854775808\n"),
    ("--k-max", 2 ** 63, 2,
     "error: k_max must be an integer of magnitude below 2**63, got 9223372036854775808\n"),
], ids=["eigens-2**60", "prob-info-2**60", "eigens-2**63", "prob-info-2**63"])
def test_count_past_what_numpy_can_address(capsys, flag, count, code, err):
    # refused before numpy's bare ValueError, or an empty answer where 2**63 wraps
    argv = (("eigens", "--model", "green") if flag == "--k-hi" else
            ("prob-info", "--model", "green", "--epsilon", "0.1", "--rho", "constant:1",
             "--nu", "constant:1"))
    assert run(capsys, *argv, flag, str(count)) == (code, "", err)


@pytest.mark.parametrize("argv, flags", [
    (("truncate", "--model", "green", "--epsilon", "0.1", "--reference", "missing.json"),
     ("--reference", "--data")),
    (("prob-info", "--model", "green", "--epsilon", "0.1", "--extremal", "alpha",
      "--rho", "constant:1"), ("--rho", "--extremal")),
    (("prob-info", "--model", "green", "--epsilon", "0.1", "--extremal", "beta",
      "--nu", "constant:1"), ("--nu", "--extremal")),
    (("metric-info", "--model", "green", "--grid-eps", "1e-2,1e-3", "--grid-log2", "8,16"),
     ("--grid-log2", "--grid-eps")),
    (("metric-info", "--packing-axes", "1,0.5", "--epsilon", "0.4", "--step", "0.1",
      "--model", "green"), ("--model", "--packing-axes")),
    (("metric-info", "--packing-axes", "1,0.5", "--epsilon", "0.4", "--step", "0.1",
      "--model-json", "missing.json"), ("--model-json", "--packing-axes")),
    (("metric-info", "--packing-axes", "1,0.5", "--epsilon", "0.4", "--step", "0.1",
      "--grid-eps", "1e-2"), ("--grid-eps", "--packing-axes")),
    (("metric-info", "--packing-axes", "1,0.5", "--epsilon", "0.4", "--step", "0.1",
      "--grid-log2", "8"), ("--grid-log2", "--packing-axes")),
    (("metric-info", "--model", "green", "--grid-log2", "8,16", "--epsilon", "0.1"),
     ("--epsilon", "--packing-axes")),
    (("metric-info", "--model", "green", "--grid-log2", "8,16", "--step", "0.1"),
     ("--step", "--packing-axes")),
])
def test_a_flag_the_mode_does_not_read_exits_2(capsys, argv, flags):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and all(flag in err for flag in flags)


def test_extremal_reads_k_max(capsys):
    code, out, _ = run(capsys, "prob-info", "--model", "green", "--epsilon", "0.1",
                       "--extremal", "alpha", "--k-max", "4")
    assert code == 0 and json.loads(out)["k_I"] == 1


@pytest.mark.parametrize("k_max", ["0", "-3"])
def test_extremal_k_max_below_1_exits_2(capsys, k_max):
    # refused as the channel path refuses it, not answered as --k-max 1
    code, out, err = run(capsys, "prob-info", "--model", "green", "--epsilon", "0.01",
                         "--extremal", "alpha", "--k-max", k_max)
    assert (code, out) == (2, "")
    assert err == f"error: k_max must be a positive integer, got {k_max}\n"


def test_simulate_bool_k_max_exits_2(capsys, tmp_path):
    # a JSON true is no component count: refused, not run on 1 and echoed to .meta.json
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {"kind": "green", "k_max": True},
                                  "epsilon_grid": [0.1]}))
    out_base = tmp_path / "run"
    code, out, err = run(capsys, "simulate", "--config", str(config), "--out", str(out_base))
    assert (code, out) == (2, "")
    assert err == "error: k_max must be an integer, got True\n"
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("config_obj, message", [
    ({"model": {"kind": "green", "k_max": 0}}, "k_max must be a positive integer, got 0"),
    ({"model": {"kind": "green"}, "k_max": 0}, "config k_max must be a positive integer, got 0"),
    ({"model": {"kind": "green"}, "k_max": True}, "config k_max must be an integer, got True"),
], ids=["model-k-max-0", "config-k-max-0", "config-bool-k-max"])
def test_simulate_k_max_not_a_count_exits_2(capsys, tmp_path, config_obj, message):
    # without a channel the config's k_max is never read, and still refused
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**config_obj, "epsilon_grid": [0.1]}))
    code, out, err = run(capsys, "simulate", "--config", str(config),
                         "--out", str(tmp_path / "run"))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("grid, message", [
    ({"epsilon_grid": [True, 0.5]}, "epsilon must be a real number, got True"),
    ({"epsilon_grid": ["0.5"]}, "epsilon must be a real number, got '0.5'"),
    ({"log2_inv_eps_grid": [True, 3]}, "log2_inv_eps must be a real number, got True"),
    ({"log2_inv_eps_grid": ["3"]}, "log2_inv_eps must be a real number, got '3'"),
], ids=["bool-eps", "string-eps", "bool-exponent", "string-exponent"])
def test_simulate_noise_grid_not_real_exits_2(capsys, tmp_path, grid, message):
    # a JSON true or string is no noise level: refused, not run as 1.0 or 0.5
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {"kind": "green"}, **grid}))
    code, out, err = run(capsys, "simulate", "--config", str(config),
                         "--out", str(tmp_path / "run"))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("argv", [
    ("eigens", "--k-hi", "3"),
    ("capacity", "--epsilon", "0.1", "--sided", "total"),
    ("prob-info", "--epsilon", "0.1", "--rho", "constant:1", "--nu", "constant:1"),
])
def test_heat_decay_rate_past_float_range_exits_2(capsys, argv):
    code, out, err = run(capsys, argv[0], "--model", "heat:D=1e308,a=1e308,b=-1e308", *argv[1:])
    assert (code, out) == (2, "")
    assert err == "error: heat model needs a positive finite decay rate D*(a-b), got inf\n"
