"""The family and rule tables: hashable models, table-driven parsing, exit codes.

Covers the one-entry-per-family table (``spectra.FAMILIES``) and the
one-entry-per-rule table (``channel.RULES``) from the outside: equal models
hash equal and share cutoff scans, the quarter level of a subnormal float is
exact, the gaussian tail sum is capped, and argv drawn from the CLI grammar
(family and rule names and parameter counts taken from the tables) always
ends in exit code 0, 2 or 3.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fredinfo.truncation as truncation
from fredinfo import (ExperimentConfig, NoiseLevel, capacity_interval, convergence_sweep,
                      green_model, heat_model, max_message_length_log2, model_from_json,
                      poisson_model, tabulated_model)
from fredinfo.channel import RULES
from fredinfo.cli import main
from fredinfo.spectra import FAMILIES

PROFILE = settings.get_profile("fredinfo")

CAPPED_GAUSSIAN = ["prob-info", "--model", "green", "--epsilon", "0.1",
                   "--rho", "gaussian:1,1e-300", "--nu", "constant:1", "--k-max", "4"]
# eps * nu_k underflows to 0: the signal-to-noise ratio is not a float, its log2 is
SUBNORMAL_CHANNEL = ["prob-info", "--model", "green", "--epsilon", "5e-324",
                     "--rho", "constant:0.5", "--nu", "constant:0.5", "--format", "json"]

# beta where a channel on the prior (1 + 1e-9/k) / lambda_k ties its flat ratios
FLAT_PAST_THE_TIES = ["prob-info", "--model", "green", "--epsilon", "1e-8", "--extremal", "beta",
                      "--k-max", "3000", "--format", "json"]
FLAT_WITHOUT_A_FLOAT = ["prob-info", "--model", "poisson:a=0.5,b=1", "--epsilon", "pow2:-2000",
                        "--extremal", "beta", "--k-max", "3000", "--format", "csv"]


def _quiet_main(argv):
    """The exit code and stdout of ``main(argv)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv itself
            code = exc.code
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# Hashable models
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda: poisson_model(0.5, 1.0),
    lambda: heat_model(2.0, 3.0, 1.0, k_max=32),
    lambda: green_model(k_max=64),
    lambda: tabulated_model([0.9, 0.4, 0.1]),
    lambda: tabulated_model([0.9, 0.9, 0.1], allow_ties=True),
], ids=["poisson", "heat", "green", "tabulated", "tabulated-ties"])
def test_equal_models_hash_equal(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    back = model_from_json(json.loads(json.dumps(a.to_json())))
    assert back == a and hash(back) == hash(a)
    assert len({a, b, back}) == 1


def test_unequal_models_are_distinct_keys():
    models = {poisson_model(0.5, 1.0), poisson_model(0.25, 1.0),
              poisson_model(0.5, 1.0, k_max=8), tabulated_model([0.5, 0.25])}
    assert len(models) == 4


@pytest.mark.parametrize("make", [lambda: poisson_model(0.5, 1.0),
                                  lambda: tabulated_model([2.0 ** -k for k in range(1, 25)])],
                         ids=["poisson", "tabulated"])
def test_equal_models_share_one_scan(monkeypatch, make):
    calls = []
    original = truncation.k0

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(truncation, "k0", counting)
    level = NoiseLevel.of(1e-3)
    a, b = make(), make()
    assert level.cutoff(a) == level.cutoff(b) == original(a, 1e-3)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# The quarter level of a subnormal float
# ---------------------------------------------------------------------------


def test_subnormal_float_matches_its_exponent():
    model = poisson_model(0.5, 1.0)
    by_float = capacity_interval(model, 5e-324)
    by_exp = capacity_interval(model, NoiseLevel(1074.0))
    fields = ("k0_eps", "k0_eps_over_4", "lower_bits", "upper_bits")
    assert [getattr(by_float, f) for f in fields] == [getattr(by_exp, f) for f in fields]
    assert (by_float.k0_eps, by_float.k0_eps_over_4) == (1074, 1076)
    assert by_float.upper_bits is not None
    assert (max_message_length_log2(model, 5e-324)
            == max_message_length_log2(model, NoiseLevel(1074.0)))
    assert NoiseLevel.of(5e-324).quarter == NoiseLevel(1076.0)
    assert NoiseLevel.of(0.1).quarter == NoiseLevel.of(0.1 / 4.0)  # normal floats unchanged


def test_capacity_command_at_the_smallest_subnormal(capsys):
    rows = []
    for eps in ("5e-324", "pow2:-1074"):
        assert main(["capacity", "--model", "poisson:a=0.5,b=1", "--epsilon", eps,
                     "--format", "csv"]) == 0
        rows.append(capsys.readouterr().out.splitlines()[1].split(",")[1:])
    assert rows[0] == rows[1] and rows[0][:2] == ["1074", "1076"]


def test_sweep_fills_upper_bits_at_a_subnormal_level():
    model = poisson_model(0.5, 1.0)
    rows = convergence_sweep(ExperimentConfig(model=model, epsilon_grid=[1e-300, 5e-324])).rows
    assert rows[-1]["upper_bits"] == capacity_interval(model, NoiseLevel(1074.0)).upper_bits


# ---------------------------------------------------------------------------
# Capped gaussian tail sum
# ---------------------------------------------------------------------------


def test_gaussian_tail_past_the_cap_exits_3(capsys):
    assert main(CAPPED_GAUSSIAN) == 3
    assert "gaussian tail sum" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_channel_refuses_an_overflowing_signal_to_noise_ratio(capsys, fmt):
    # the float ratio overflows, its log2 does not: the channel answers (exit 0)
    assert main(SUBNORMAL_CHANNEL[:-1] + [fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        summary = json.loads(out)
    else:
        header, row = out.splitlines()
        summary = {key: float(val) if val else None
                   for key, val in zip(header.split(","), row.split(","))}
    assert summary["epsilon"] == 5e-324 and summary["k_I"] == 256
    # log2 snr_k = 1074 - 2 log2(k pi) on every component
    nats = sum((1074.0 - 2.0 * math.log2(k * math.pi)) * math.log(2.0) for k in range(1, 257))
    assert summary["exact_nats"] == pytest.approx(nats, rel=1e-13)


# ---------------------------------------------------------------------------
# CLI grammar property
# ---------------------------------------------------------------------------

# Parameter values, mostly in range, some out of range or not numbers at all.
NUMBERS = st.sampled_from(["0.5", "1", "2", "3.5", "1e-3"] * 4 + ["0", "-1", "nan", "inf", "x"])
FLOAT_LEVELS = st.sampled_from(["0.1", "1e-3", "1e-300", "5e-324", "2", "0", "-1", "nan", "inf"])


@st.composite
def levels(draw):
    if draw(st.booleans()):
        return draw(FLOAT_LEVELS)
    return f"pow2:{draw(st.integers(-5000, 5000) | st.floats(-1100.0, 1100.0))}"


@st.composite
def specs(draw, table, sep):
    """``kind:v1,...`` with the table's parameter count, give or take one."""
    kind = draw(st.sampled_from(sorted(table)))
    names = table[kind].names
    count = max(0, len(names) + draw(st.sampled_from([0] * 8 + [-1, 1])))
    values = [draw(NUMBERS) for _ in range(count)]
    if sep == "=":
        params = [f"{name}={value}" for name, value in zip(names + ("k_max",), values)]
        if draw(st.sampled_from([False] * 3 + [True])):
            params.append(f"k_max={draw(st.sampled_from(['8', '32', '1', '0', '2.5']))}")
    else:
        params = values
    return kind + (":" + ",".join(params) if params else "")


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["eigens", "truncate", "capacity", "prob-info"]))
    argv = [command, "--model", draw(specs(FAMILIES, "="))]
    if command == "eigens":
        argv += ["--k-hi", str(draw(st.sampled_from([-1, 0, 1, 5, 40])))]
    else:
        argv += ["--epsilon", draw(levels())]
    if command == "capacity" and draw(st.booleans()):
        argv += ["--sided", "total"]
    if command == "prob-info":
        extremal = draw(st.booleans())
        if extremal:
            argv += ["--extremal", draw(st.sampled_from(["alpha", "beta"]))]
        else:
            argv += ["--rho", draw(specs(RULES, ",")), "--nu", draw(specs(RULES, ","))]
        if draw(st.booleans()):
            counts = st.integers(0, 3000) if extremal else st.sampled_from([0, 1, 4, 16])
            argv += ["--k-max", str(draw(counts))]
    return argv + ["--format", draw(st.sampled_from(["json", "csv"]))]


@settings(PROFILE, max_examples=250)
@given(argvs())
@example(CAPPED_GAUSSIAN)
@example(SUBNORMAL_CHANNEL)
@example(FLAT_PAST_THE_TIES)
@example(FLAT_WITHOUT_A_FLOAT)
def test_cli_grammar_exits_0_2_or_3(argv):
    code, out = _quiet_main(argv)
    assert code in (0, 2, 3)
    if code == 0 and "beta" in argv:
        # the closed form: approx is the reference's expression, exact adds a term >= 0
        if argv[-1] == "json":
            obj = json.loads(out)
        else:
            header, row = (line.split(",") for line in out.splitlines())
            obj = {key: float(value) for key, value in zip(header, row) if key.endswith("_nats")}
        assert obj["approx_nats"] == obj["reference_nats"]
        assert obj["exact_nats"] >= obj["approx_nats"]
