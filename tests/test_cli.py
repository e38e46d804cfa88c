"""End-to-end tests of the command line front end (in-process via main)."""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
import pytest

from fredinfo import (CoefficientVector, NoiseLevel, __version__, model_to_json,
                      tabulated_model)
from fredinfo import cli
from fredinfo.cli import main, parse_epsilon, parse_model, parse_rule
from fredinfo.harness import SWEEP_COLUMNS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_worked_model(tmp_path, n=24):
    path = tmp_path / "model.json"
    model = tabulated_model([2.0 ** -k for k in range(1, n + 1)])
    path.write_text(json.dumps(model_to_json(model)))
    return str(path), model


# ---------------------------------------------------------------------------
# Argument coercion
# ---------------------------------------------------------------------------


def test_parse_epsilon_forms():
    assert parse_epsilon("1e-3") == NoiseLevel.of(1e-3)
    assert parse_epsilon("pow2:-64") == NoiseLevel(64.0)
    assert parse_epsilon(" pow2:-4096 ") == NoiseLevel(4096.0)
    with pytest.raises(Exception):
        parse_epsilon("pow2:x")
    with pytest.raises(Exception):
        parse_epsilon("tiny")


def test_parse_model_specs():
    assert parse_model("poisson:a=0.5,b=1", None).kind == "poisson"
    assert parse_model("heat:D=1,a=2,b=1", None).kind == "heat"
    green = parse_model("green:k_max=32", None)
    assert green.kind == "green" and green.k_max == 32
    for bad in ("poisson:a=0.5", "poisson:a=0.5;b=1", "fourier:a=1",
                "poisson:a=0.5,b=oops"):
        with pytest.raises(Exception):
            parse_model(bad, None)


def test_parse_rule_specs():
    model = tabulated_model([0.5, 0.25])
    assert parse_rule("geometric:2,0.5", model).value(1) == 1.0
    assert parse_rule("constant:3", model).value(5) == 3.0
    assert parse_rule("inverse_spectrum", model).value(1) == pytest.approx(
        (1.0 + 1e-9) / 0.5)
    for bad in ("geometric:2", "mystery:1", "power:a,b"):
        with pytest.raises(Exception):
            parse_rule(bad, model)


# ---------------------------------------------------------------------------
# Global behaviour
# ---------------------------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["truncate", "--model", "green"])  # no --epsilon
    assert exc.value.code == 2


def test_model_and_model_json_are_exclusive(capsys, tmp_path):
    path, _ = write_worked_model(tmp_path)
    code, _, err = run(capsys, "eigens", "--model", "green",
                       "--model-json", path, "--k-hi", "3")
    assert code == 2 and "error:" in err


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    """Calls share one parser, and no option of one call leaks into the next:
    each output equals that of a call with a parser of its own."""
    model = ("--model", "poisson:a=0.5,b=1")
    calls = [("capacity", *model, "--epsilon", "0.1", "--format", "csv"),
             ("capacity", *model),                       # argparse error: no --epsilon
             ("capacity", *model, "--epsilon", "0"),     # ValidationError
             ("capacity", *model, "--epsilon", "0.1")]   # the default format, json

    def outcomes(fresh):
        got = []
        for argv in calls:
            if fresh:
                cli._parser.cache_clear()
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = ("exit", exc.code)
            got.append((code, *capsys.readouterr()))
        return got

    real_build, built = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real_build())
    fresh = outcomes(fresh=True)
    cli._parser.cache_clear()
    built.clear()
    shared = outcomes(fresh=False)
    assert shared == fresh
    assert len(built) == 1 and cli._parser.cache_info().hits == len(calls) - 1
    assert [out[0] for out in shared] == [0, ("exit", 2), 2, 0]
    assert shared[0][1].startswith("epsilon,k0,")
    assert json.loads(shared[3][1])["lower_bits"] == 3.965784284662087


# ---------------------------------------------------------------------------
# eigens
# ---------------------------------------------------------------------------


def test_eigens_json(capsys):
    code, out, _ = run(capsys, "eigens", "--model", "green", "--k-hi", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["model"]["kind"] == "green"
    assert len(obj["rows"]) == 4
    assert obj["rows"][0]["lambda"] == pytest.approx(1.0 / math.pi ** 2)
    assert obj["rows"][3]["k"] == 4 and obj["rows"][3]["multiplicity"] == 1


def test_eigens_csv_from_model_json(capsys, tmp_path):
    path, _ = write_worked_model(tmp_path, n=6)
    code, out, _ = run(capsys, "eigens", "--model-json", path,
                       "--k-hi", "6", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,lambda,multiplicity"
    assert lines[1] == "1,0.5,1"
    assert len(lines) == 7


# ---------------------------------------------------------------------------
# truncate
# ---------------------------------------------------------------------------


def test_truncate_cutoff_only_json(capsys):
    code, out, _ = run(capsys, "truncate", "--model", "poisson:a=0.5,b=1",
                       "--epsilon", "0.1")
    assert code == 0
    obj = json.loads(out)
    assert obj["k0"] == 3 and obj["k0_closed_form"] == 3


def test_truncate_exponent_form_stays_exact(capsys):
    code, out, _ = run(capsys, "truncate", "--model", "poisson:a=0.5,b=1",
                       "--epsilon", "pow2:-4096")
    assert code == 0
    obj = json.loads(out)
    assert obj["k0"] == 4096 and obj["k0_closed_form"] == 4096


def test_truncate_tabulated_has_no_closed_form(capsys, tmp_path):
    path, _ = write_worked_model(tmp_path, n=8)
    code, out, _ = run(capsys, "truncate", "--model-json", path,
                       "--epsilon", "0.1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "epsilon,k0,k0_closed_form"
    assert lines[1] == "0.1,3,"  # no closed form for tables


def test_truncate_with_data(capsys, tmp_path):
    path, model = write_worked_model(tmp_path, n=4)
    data = CoefficientVector(model, np.asarray([8.0, 6.0, 4.0, 2.0]))
    data_path = tmp_path / "data.json"
    data_path.write_text(json.dumps(data.to_json()))

    code, out, _ = run(capsys, "truncate", "--model-json", path,
                       "--epsilon", "0.2", "--data", str(data_path))
    assert code == 0
    obj = json.loads(out)
    assert obj["k0"] == 2
    f_star = CoefficientVector.from_json(obj["f_star"])
    np.testing.assert_allclose(f_star.entries, [16.0, 24.0, 0.0, 0.0])

    code, out, _ = run(capsys, "truncate", "--model-json", path,
                       "--epsilon", "0.2", "--data", str(data_path),
                       "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "k,real,imag"
    assert lines[1] == "1,16,0" and lines[3] == "3,0,0"
    assert len(lines) == 5


def test_truncate_with_reference_adds_diagnostics(capsys, tmp_path):
    path, model = write_worked_model(tmp_path, n=4)
    data = CoefficientVector(model, np.asarray([0.4, 0.2, 0.05, 0.01]))
    ref = CoefficientVector(model, np.asarray([0.8, 0.8, 0.4, 0.2]))
    data_path, ref_path = tmp_path / "d.json", tmp_path / "r.json"
    data_path.write_text(json.dumps(data.to_json()))
    ref_path.write_text(json.dumps(ref.to_json()))
    code, out, _ = run(capsys, "truncate", "--model-json", path,
                       "--epsilon", "0.2", "--data", str(data_path),
                       "--reference", str(ref_path))
    assert code == 0
    obj = json.loads(out)
    assert {"residual_y", "distance_x", "combined"} <= obj.keys()


def test_truncate_zeroes_underflowing_eigenvalues_without_dividing(capsys, tmp_path):
    # lambda_k = exp(-k^2) is subnormal at |k| = 27 and zero from |k| = 28 on;
    # only |k| <= k0 = 1 is divided, so no RuntimeWarning is raised
    spec = "heat:D=1,a=2,b=1,k_max=40"
    model = parse_model(spec, None)
    data_path = tmp_path / "data.json"
    data_path.write_text(json.dumps(CoefficientVector(model, np.ones(61)).to_json()))
    code, out, err = run(capsys, "truncate", "--model", spec, "--epsilon", "0.1",
                         "--data", str(data_path))
    assert code == 0 and err == ""
    obj = json.loads(out)
    entries = CoefficientVector.from_json(obj["f_star"]).entries
    inv = 1.0 / model.eigenvalue(1)
    assert obj["k0"] == 1
    assert entries.tolist() == [0.0] * 29 + [inv, 1.0, inv] + [0.0] * 29


def test_truncate_data_needs_representable_epsilon(capsys, tmp_path):
    path, model = write_worked_model(tmp_path, n=4)
    data_path = tmp_path / "data.json"
    data_path.write_text(json.dumps(
        CoefficientVector(model, np.ones(4)).to_json()))
    code, _, err = run(capsys, "truncate", "--model-json", path,
                       "--epsilon", "pow2:-1100", "--data", str(data_path))
    assert code == 2 and "float range" in err


def test_truncate_missing_data_file_exits_2(capsys):
    code, _, err = run(capsys, "truncate", "--model", "green",
                       "--epsilon", "0.01", "--data", "/no/such/file.json")
    assert code == 2 and "error:" in err


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------


def test_capacity_json(capsys):
    code, out, _ = run(capsys, "capacity", "--model", "poisson:a=0.5,b=1",
                       "--epsilon", "0.1")
    assert code == 0
    obj = json.loads(out)
    assert obj["k0_eps"] == 3 and obj["k0_eps_over_4"] == 5
    assert obj["lower_bits"] == pytest.approx(3.9657842846620865, rel=1e-12)
    assert obj["upper_bits"] == pytest.approx(35.339273215260995, rel=1e-12)
    assert obj["logL_max"] == pytest.approx(3.0 * math.log2(10.0), rel=1e-12)


def test_capacity_csv_blank_when_upper_missing(capsys):
    # coarse eps: the upper bound's precondition fails, the field stays empty
    code, out, _ = run(capsys, "capacity", "--model", "green",
                       "--epsilon", "0.5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "epsilon,k0,k0_quarter,lower_bits,upper_bits,logL_max"
    fields = lines[1].split(",")
    assert fields[0] == "0.5" and fields[4] == ""


def test_capacity_exponent_form_total(capsys):
    code, out, _ = run(capsys, "capacity", "--model", "poisson:a=0.5,b=1",
                       "--epsilon", "pow2:-64", "--sided", "total")
    assert code == 0
    obj = json.loads(out)
    # total mode counts lattice points: both signs of each index plus center,
    # and the message budget gains exactly one extra bit
    assert obj["k0_eps"] == 2 * 64 + 1 and obj["sided"] == "total"
    assert obj["logL_max"] == pytest.approx(64.0 * 64.0 + 1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# metric-info
# ---------------------------------------------------------------------------


def test_metric_info_growth_json(capsys):
    grid = ",".join(f"1e-{p}" for p in range(2, 11))
    code, out, _ = run(capsys, "metric-info", "--model", "green",
                       "--grid-eps", grid)
    assert code == 0
    obj = json.loads(out)
    assert obj["d_c"] == pytest.approx(2.0, rel=0.01)
    assert obj["d_c_exp"] is None
    assert obj["lambda_hat"] == pytest.approx(0.5, rel=0.01)


def test_metric_info_growth_csv_exponent_grid(capsys):
    grid = ",".join(str(2 ** j) for j in range(4, 13))
    code, out, _ = run(capsys, "metric-info", "--model", "poisson:a=0.5,b=1",
                       "--grid-log2", grid, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda_hat,mu_hat,rho_hat,sigma_hat,d_c,d_c_exp"
    fields = lines[1].split(",")
    assert fields[4] == ""  # exponential family: no power-law dimension
    assert float(fields[5]) == pytest.approx(2.0 ** 0.5, rel=1e-3)


def test_metric_info_packing(capsys):
    code, out, _ = run(capsys, "metric-info", "--packing-axes", "1.0",
                       "--epsilon", "1.0", "--step", "0.25")
    assert code == 0
    assert json.loads(out)["count"] == 2
    code, out, _ = run(capsys, "metric-info", "--packing-axes", "1.0,0.5",
                       "--epsilon", "0.4", "--step", "0.1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "epsilon,grid_step,count"
    assert int(lines[1].split(",")[2]) >= 2
    code, out, _ = run(capsys, "metric-info", "--packing-axes", "1.0,1e-150",
                       "--epsilon", "0.1", "--step", "0.025")
    assert code == 0 and json.loads(out)["count"] == 1  # a^2 = 1e-300 is still normal


def test_metric_info_packing_needs_step(capsys):
    code, _, err = run(capsys, "metric-info", "--packing-axes", "1.0",
                       "--epsilon", "1.0")
    assert code == 2 and "--step" in err


def test_metric_info_needs_some_mode(capsys):
    code, _, err = run(capsys, "metric-info", "--model", "green")
    assert code == 2 and "--grid-eps" in err


@pytest.mark.parametrize("axes, eps, step", [
    ("100,100,100", "0.4", "0.1"),
    ("1e300", "1e-300", "1e-301"),         # points per axis overflow floats
    ("1e200,1e200", "1e-100", "2e-101"),   # too large for one axis array
    ("1.0,1e-170", "0.1", "0.025"),        # a live axis whose square is 0
    ("1.0,1e-160", "0.1", "0.025"),        # ... or subnormal
], ids=["cap", "axis-overflow", "axis-array", "axis-square-zero", "axis-square-subnormal"])
def test_metric_info_numeric_failure_exits_3(capsys, axes, eps, step):
    # candidate grid too large for the packing scan
    code, _, err = run(capsys, "metric-info", "--packing-axes", axes,
                       "--epsilon", eps, "--step", step)
    assert code == 3 and "numeric failure" in err


# ---------------------------------------------------------------------------
# prob-info
# ---------------------------------------------------------------------------


def test_prob_info_worked_channel_json(capsys, tmp_path):
    path, _ = write_worked_model(tmp_path)
    code, out, _ = run(capsys, "prob-info", "--model-json", path,
                       "--epsilon", "0.0625", "--rho", "geometric:1,0.5",
                       "--nu", "constant:1")
    assert code == 0
    obj = json.loads(out)
    assert obj["k_I"] == 2 and obj["k_alpha"] == 1
    assert obj["mse"] == pytest.approx(19.0 / 192.0, rel=1e-12)
    assert obj["exact_nats"] == pytest.approx(
        0.5 * math.log(17.0) + 0.5 * math.log(2.0), rel=1e-12)
    assert obj["approx_nats"] == pytest.approx(math.log(4.0), rel=1e-12)
    assert len(obj["components"]) == 24
    assert obj["components"][0]["in_I"] is True


def test_prob_info_csv_row(capsys, tmp_path):
    path, _ = write_worked_model(tmp_path)
    code, out, _ = run(capsys, "prob-info", "--model-json", path,
                       "--epsilon", "0.0625", "--rho", "geometric:1,0.5",
                       "--nu", "constant:1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "epsilon,k_I,k_alpha,mse,exact_nats,approx_nats"
    fields = lines[1].split(",")
    assert fields[1] == "2" and fields[2] == "1"
    assert float(fields[3]) == pytest.approx(19.0 / 192.0, rel=1e-12)


def test_prob_info_non_trace_prior_blanks_risk(capsys):
    code, out, _ = run(capsys, "prob-info", "--model", "green:k_max=16",
                       "--epsilon", "1e-3", "--rho", "constant:1",
                       "--nu", "constant:1", "--k-max", "12")
    assert code == 0
    obj = json.loads(out)
    assert obj["mse"] is None and obj["k_alpha"] is None
    assert obj["k_I"] >= 1 and obj["k_max"] == 12


def test_prob_info_extremal_alpha(capsys):
    code, out, _ = run(capsys, "prob-info", "--model", "poisson:a=0.5,b=1",
                       "--epsilon", "0.1", "--extremal", "alpha")
    assert code == 0
    obj = json.loads(out)
    assert obj["case"] == "alpha" and obj["k0"] == 3 and obj["k_I"] == 3
    assert obj["approx_nats"] == pytest.approx(2.748872, abs=1e-5)
    assert obj["approx_nats"] == pytest.approx(obj["reference_nats"], rel=1e-12)


def test_prob_info_extremal_beta_csv(capsys):
    code, out, _ = run(capsys, "prob-info", "--model", "green",
                       "--epsilon", "1e-3", "--extremal", "beta",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("case,epsilon,k0,k_I")
    fields = lines[1].split(",")
    assert fields[0] == "beta" and fields[2] == "10" and fields[3] == "10"
    assert float(fields[6]) == pytest.approx(10.0 * math.log(1e3), rel=1e-12)


def test_prob_info_requires_rules_or_extremal(capsys):
    code, _, err = run(capsys, "prob-info", "--model", "green",
                       "--epsilon", "1e-3")
    assert code == 2 and "--rho" in err


def test_prob_info_needs_representable_epsilon(capsys):
    code, _, err = run(capsys, "prob-info", "--model", "green",
                       "--epsilon", "pow2:-2000", "--extremal", "alpha")
    assert code == 2 and "representable" in err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def sweep_config(tmp_path, **overrides):
    cfg = {
        "model": {"kind": "poisson", "a": 0.5, "b": 1.0},
        "epsilon_grid": [0.5, 0.25, 0.125],
        "rho": {"kind": "geometric", "c": 32.0, "q": 0.0625},
        "nu": {"kind": "constant", "c": 1.0},
        "trials": 8,
        "seed": 42,
        "k_max": 32,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_simulate_stdout_csv(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("FREDINFO_SEED", raising=False)
    code, out, err = run(capsys, "simulate", "--config", sweep_config(tmp_path))
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 4


def test_simulate_writes_files_reproducibly(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("FREDINFO_SEED", raising=False)
    cfg = sweep_config(tmp_path)
    code, out, _ = run(capsys, "simulate", "--config", cfg,
                       "--out", str(tmp_path / "a"))
    assert code == 0 and "wrote" in out
    code, _, _ = run(capsys, "simulate", "--config", cfg,
                     "--out", str(tmp_path / "b"))
    assert code == 0
    body_a = (tmp_path / "a.csv").read_bytes()
    body_b = (tmp_path / "b.csv").read_bytes()
    assert body_a == body_b  # timestamps live only in the sidecar
    meta = json.loads((tmp_path / "a.meta.json").read_text())
    assert meta["seed"] == 42 and meta["violations"] == []
    assert "created_utc" in meta and meta["config_hash"]


def test_simulate_env_seed_override(capsys, tmp_path, monkeypatch):
    cfg = sweep_config(tmp_path)
    monkeypatch.setenv("FREDINFO_SEED", "7")
    code, _, _ = run(capsys, "simulate", "--config", cfg,
                     "--out", str(tmp_path / "env"))
    assert code == 0
    meta = json.loads((tmp_path / "env.meta.json").read_text())
    assert meta["seed"] == 7 and meta["config"]["seed"] == 7

    monkeypatch.setenv("FREDINFO_SEED", "not-a-seed")
    code, _, err = run(capsys, "simulate", "--config", cfg)
    assert code == 2 and "FREDINFO_SEED" in err


def test_simulate_reports_violations_but_succeeds(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("FREDINFO_SEED", raising=False)
    model = tabulated_model([2.0 ** -k for k in range(1, 25)])
    cfg = sweep_config(
        tmp_path, model=model_to_json(model),
        rho={"kind": "geometric", "c": 1.0, "q": 0.5},
        epsilon_grid=[0.5, 0.25], trials=0, k_max=24)
    code, out, err = run(capsys, "simulate", "--config", cfg)
    assert code == 0
    assert "monotonicity violation" in err
    assert out.startswith(",".join(SWEEP_COLUMNS))


def test_simulate_bad_config_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"model": {"kind": "poisson",
                                          "a": 0.5, "b": 1.0}}))
    code, _, err = run(capsys, "simulate", "--config", str(path))
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "simulate", "--config", "/no/such/config.json")
    assert code == 2
    # a misspelt field is refused by name, not run with its default
    code, out, err = run(capsys, "simulate", "--config", sweep_config(tmp_path, trails=100))
    assert code == 2 and out == "" and "'trails'" in err


@pytest.mark.parametrize("section, obj, message", [
    ("model", {"kind": "poisson", "a": 0.5, "b": 1.0, "k_mx": 8},
     "model JSON has unknown fields ['k_mx']"),
    ("rho", {"kind": "geometric", "c": 32.0, "q": 0.0625, "cc": 2.0},
     "variance rule JSON has unknown fields ['cc']"),
], ids=["model", "rho"])
def test_simulate_config_with_unknown_nested_field_exits_2(capsys, tmp_path, section, obj,
                                                           message):
    code, out, err = run(capsys, "simulate", "--config", sweep_config(tmp_path, **{section: obj}))
    assert (code, out, err) == (2, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def test_table_json(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    rows = json.loads(out)
    assert [r["model"] for r in rows] == ["poisson", "heat", "green"]
    assert all(r["within_5pct"] for r in rows)


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("model,decay,")
    assert len(lines) == 4


# ---------------------------------------------------------------------------
# One record, two formats: each CSV cell is the JSON value under its name
# ---------------------------------------------------------------------------


def _csv_rows(out: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(out)))


def _assert_cells(row: dict, record: dict, renamed: dict | None = None) -> None:
    """Blank for null, floats compared after ``float()``, anything else as text."""
    for name, cell in row.items():
        value = record[(renamed or {}).get(name, name)]
        if value is None:
            assert cell == "", name
        elif isinstance(value, float):
            assert float(cell) == value, name
        else:
            assert cell == str(value), name


def _both_formats(capsys, argv) -> tuple:
    code, out, _ = run(capsys, *argv)
    assert code == 0
    code, out_csv, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    return json.loads(out), _csv_rows(out_csv)


@pytest.mark.parametrize("argv", [
    ("truncate", "--model", "poisson:a=0.5,b=1", "--epsilon", "0.1"),
    ("truncate", "--model-json", "{model}", "--epsilon", "0.1"),  # no closed form: null
    ("metric-info", "--model", "green",
     "--grid-eps", "1e-2,1e-3,1e-4,1e-5,1e-6,1e-7,1e-8,1e-9,1e-10"),
    ("metric-info", "--model", "poisson:a=0.5,b=1",
     "--grid-log2", "8,16,32,64,128,256,512,1024"),
    ("metric-info", "--packing-axes", "1.0,0.5", "--epsilon", "0.4", "--step", "0.1"),
    ("prob-info", "--model-json", "{model}", "--epsilon", "0.0625",
     "--rho", "geometric:1,0.5", "--nu", "constant:1"),
    ("prob-info", "--model", "green:k_max=8", "--epsilon", "pow2:-10",
     "--rho", "constant:1", "--nu", "constant:1"),                # not trace class: nulls
    ("prob-info", "--model", "green", "--epsilon", "1e-3", "--extremal", "alpha"),
    ("prob-info", "--model", "green", "--epsilon", "1e-3", "--extremal", "beta"),
], ids=["truncate", "truncate-tabulated", "fit-eps", "fit-log2", "packing", "prob-info",
        "prob-info-nulls", "extremal-alpha", "extremal-beta"])
def test_csv_row_holds_the_json_record(capsys, tmp_path, argv):
    path, _ = write_worked_model(tmp_path)
    record, rows = _both_formats(capsys, [path if arg == "{model}" else arg for arg in argv])
    (row,) = rows
    _assert_cells(row, record)


@pytest.mark.parametrize("epsilon", ["0.1", "pow2:-10", "0.5"])
def test_capacity_csv_row_renames_two_fields_and_keeps_epsilon_as_typed(capsys, epsilon):
    record, rows = _both_formats(capsys, ("capacity", "--model", "poisson:a=0.5,b=1",
                                          "--epsilon", epsilon))
    (row,) = rows
    assert row.pop("epsilon") == epsilon
    _assert_cells(row, record, {"k0": "k0_eps", "k0_quarter": "k0_eps_over_4"})


@pytest.mark.parametrize("argv, key", [
    (("eigens", "--model", "poisson:a=0.5,b=1", "--k-hi", "5"), "rows"),
    (("table",), None),
], ids=["eigens", "table"])
def test_csv_rows_hold_the_json_rows(capsys, argv, key):
    record, rows = _both_formats(capsys, argv)
    objs = record[key] if key else record
    assert len(rows) == len(objs)
    for row, obj in zip(rows, objs):
        assert row.keys() == obj.keys()
        _assert_cells(row, obj)
