"""Compare the command-line output of two source trees, op by op.

    python3 tools/compare_outputs.py PARENT_TREE CHANGE_TREE OUT_DIR

Each tree is a checkout holding ``src/fredinfo`` and ``benchmarks/``.  The ops
are the README examples and the benchmark's ``cli_cold`` commands, each in both
output formats, a few inputs that must fail, ``capacity`` at the levels where
the two-sided total's center axis enters or leaves a count, ``truncate`` with
a reference of another length than the data, the cutoff commands and a
``simulate`` sweep at three levels that sit on an eigenvalue, ``prob-info``
with variance rules whose values overflow, the comparisons of a level with
``lambda_0`` and ``lambda_1``, cutoffs far past ``2**22`` (some that the float
certificate of the closed form rejects, some refused at ``2**53``), tabulated
cutoffs at a tie and below every value, flags the chosen mode does not read,
``prob-info`` with power priors on the Hurwitz zeta branches the benchmark
configs never reach (``power:1,300``, where every term underflows, and
``power:1,0.5000001``, near the trace-class edge ``2p = 1``),
sweeps through the channel-column branches the benchmark configs never reach
(one of them scores its Monte-Carlo columns over many slabs of levels, one
ends on a Monte-Carlo overflow, one has statistics whose squares overflow, one
has a noise term that ``eta_k / lambda_k - xi_k`` cancels in floats, and a heat
sweep scores components of I whose ``lambda_k`` underflows to 0),
metric-only sweeps through the grid kernel's branches the benchmark configs
never reach (a tabulated spectrum, subnormal floats, the two-sided total on
exponents across ``|L| = 1022``, a refused green cutoff), the extremal
comparisons of a channel that stops before ``k0`` and at a level with no
float, the flat ``beta`` comparison past ``k0 = 2000``, and every
``closed_sweep`` and ``mc_sweep`` config of seeds 1 and 90217, read from the
parent tree's ``benchmarks/workloads.py``.  One subprocess per tree imports that tree's
package and runs every op through ``fredinfo.cli.main``, from its own
directory under OUT_DIR, so relative output paths print alike on both sides.
Each op runs with the warning filter reset, so a warning prints for every op
that raises it, not only the first.

The script prints each op whose exit code, stdout, stderr (with each tree's
path read as ``TREE``), CSV file or ``.meta.json`` (without ``created_utc``)
differs, and exits 1 if any does.
OUT_DIR must be absent or empty.  Only the standard library is used here.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import traceback
import warnings

SWEEP_SEEDS = (1, 90217)
SWEEP_WORKLOADS = ("mc_sweep", "closed_sweep")
SIDES = ("parent", "change")

# Two-sided poisson vectors (k = -8..8) for the README's `truncate --data` form.
_POISSON = {"kind": "poisson", "a": 0.5, "b": 1.0, "k_max": 256}
_TRUTH = [0.5 ** abs(k) for k in range(-8, 9)]
_COEFFS = [0.5 ** abs(k) * t + 0.01 * ((7 * k) % 5 - 2) for k, t in zip(range(-8, 9), _TRUTH)]
_TRUTH_WIDE = [0.5 ** abs(k) for k in range(-12, 13)]
_TRUTH_NARROW = [0.5 ** abs(k) for k in range(-5, 6)]

README_COMMANDS = [
    ["eigens", "--model", "green", "--k-hi", "3"],
    ["truncate", "--model", "poisson:a=0.5,b=1", "--epsilon", "0.1"],
    ["truncate", "--model", "poisson:a=0.5,b=1", "--epsilon", "0.1", "--data", "{coeffs}"],
    ["truncate", "--model", "poisson:a=0.5,b=1", "--epsilon", "0.1", "--data", "{coeffs}",
     "--reference", "{truth}"],
    ["capacity", "--model", "poisson:a=0.5,b=1", "--epsilon", "0.1"],
    ["metric-info", "--model", "green",
     "--grid-eps", "1e-2,1e-3,1e-4,1e-5,1e-6,1e-7,1e-8,1e-9,1e-10"],
    ["metric-info", "--model", "poisson:a=0.5,b=1", "--grid-log2", "8,16,32,64,128,256,512,1024"],
    ["metric-info", "--packing-axes", "1.0,0.5", "--epsilon", "0.4", "--step", "0.1"],
    ["prob-info", "--model-json", "{dyadic}", "--epsilon", "0.0625",
     "--rho", "geometric:1,0.5", "--nu", "constant:1"],
    ["prob-info", "--model", "green", "--epsilon", "1e-3", "--extremal", "beta"],
    ["table"],
    ["simulate", "--config", "{config}", "--out", "readme/run1"],
    ["simulate", "--config", "{config}"],
    ["simulate", "--config", "{config_log2}", "--out", "readme/run_log2"],
]

ERROR_COMMANDS = [
    ["truncate", "--model", "nope", "--epsilon", "0.1"],
    ["capacity", "--model", "poisson:a=0.5,b=1,zz=3", "--epsilon", "0.1"],
    ["eigens", "--model", "green", "--k-hi", "0"],
    ["capacity", "--model", "green", "--epsilon", "pow2:-60"],   # certified past 2^22
    ["capacity", "--model", "green", "--epsilon", "pow2:-1024"],  # exit 3: k0 passes 2^53
    ["capacity", "--model", "green", "--epsilon", "pow2:-2100"],  # the closed form overflows
    ["capacity", "--model", "poisson:a=0.5,b=1", "--epsilon", "pow2:-1e16"],
]

# The two-sided total counts the center axis lambda_0 = 1 when eps <= 1, and
# in k0(eps/4) when eps <= 4: levels on and beside both edges, for two-sided
# and one-sided models.
EDGE_LEVELS = ("4", "4.0000000000000009", "3.9", "2", "1", "0.5", "pow2:2", "pow2:0", "pow2:-1")
EDGE_COMMANDS = [
    ["capacity", "--model", model, "--epsilon", eps, "--sided", sided]
    for model in ("poisson:a=0.5,b=1", "heat:D=0.1,a=2,b=1", "green")
    for eps in EDGE_LEVELS for sided in ("one_sided", "total")
] + [
    ["truncate", "--model", "poisson:a=0.5,b=1", "--epsilon", "0.1", "--data", "{coeffs}",
     "--reference", reference] for reference in ("{truth_wide}", "{truth_narrow}")
]

# Levels 2^-L with L = -log2 lambda_k as the package computes it (green k = 5,
# poisson k = 23, heat k = 9), where the exponent and the float 2^-L can fall
# on different sides of lambda_k.  Each gets the cutoff commands, a data vector
# with K = 8 and a sweep config with rho = nu = 1 around the level.
EIGEN_LEVELS = {
    "green": ({"kind": "green", "k_max": 16}, 7.946848448719361),
    "poisson": ({"kind": "poisson", "a": 0.3, "b": 1, "k_max": 64}, 39.95020866582274),
    "heat": ({"kind": "heat", "D": 0.05, "a": 1.7, "b": 0.4, "k_max": 32}, 7.59578939028039),
}
_CONSTANT = {"kind": "constant", "c": 1.0}


def _eigen_level_commands() -> list[list[str]]:
    commands = []
    for name, (model, L) in EIGEN_LEVELS.items():
        spec = model["kind"] + ":" + ",".join(f"{key}={val}" for key, val in model.items()
                                              if key != "kind")
        base = ["--model", spec, "--epsilon", f"pow2:-{L!r}"]
        commands += [["capacity", *base], ["truncate", *base],
                     ["truncate", *base, "--data", "{data_" + name + "}"],
                     ["prob-info", *base, "--rho", "constant:1", "--nu", "constant:1"],
                     ["prob-info", *base, "--extremal", "alpha"],
                     ["simulate", "--config", "{level_" + name + "}", "--out", f"levels/{name}"]]
    return commands


# Each level against the spectrum: the center lambda_0 = 1 at floats 1.0 with
# exponents of either sign, growth grids starting just below and at lambda_1
# (and one above it that also ends past 2^53), cutoffs far past 2^22 (green at
# 1e-32, 3e-32 and 2^-106, where the float certificate rejects the closed
# form), tabulated cutoffs below every value and at a tie, and a heat rate
# D(a-b) that overflows.
_GRID_TAIL = ",1e-2,1e-3,1e-4,1e-5,1e-6,1e-7,1e-8"
LEVEL_COMMANDS = [
    ["capacity", "--model", "poisson:a=0.5,b=1", "--epsilon", eps, "--sided", "total"]
    for eps in ("pow2:1e-17", "pow2:-1e-17")
] + [
    ["metric-info", "--model", "poisson:a=0.293147663730703,b=2.690021064378189",
     "--grid-eps", "0.10897597331583178" + _GRID_TAIL],
    ["metric-info", "--model", "poisson:a=1.8857350372697794,b=3.9847569242866197",
     "--grid-eps", "0.4732371567702031" + _GRID_TAIL],
    ["metric-info", "--model", "green", "--grid-log2", "0,16,32,64,128,256,512,1024"],
    ["capacity", "--model", "green", "--epsilon", "1e-30"],
    ["truncate", "--model", "green", "--epsilon", "1e-30", "--data", "{green3}"],
    ["capacity", "--model", "green", "--epsilon", "1e-32"],
    ["capacity", "--model", "green", "--epsilon", "3e-32"],
    ["capacity", "--model", "green", "--epsilon", "pow2:-106"],
    ["truncate", "--model", "green", "--epsilon", "1e-32"],
    ["capacity", "--model-json", "{dyadic}", "--epsilon", "1e-9"],
    ["capacity", "--model-json", "{dyadic}", "--epsilon", "0.0625"],
    ["capacity", "--model", "poisson:a=0.5,b=1", "--epsilon", "pow2:-1e12", "--sided", "total"],
    ["eigens", "--model", "heat:D=1e308,a=1e308,b=-1e308", "--k-hi", "3"],
    ["capacity", "--model", "heat:D=1e308,a=1e308,b=-1e308", "--epsilon", "0.1",
     "--sided", "total"],
] + [  # green's channel stops at k_max 256, below k0(1e-12) = 318309
    ["prob-info", "--model", "green", "--epsilon", "1e-12", "--extremal", case]
    for case in ("alpha", "beta")
] + [  # 2^-1050 has no float: the comparison answers on the exponent
    ["prob-info", "--model", "poisson:a=0.5,b=1", "--epsilon", "pow2:-1050", "--extremal", case]
    for case in ("alpha", "beta")
] + [  # beta past k0 = 2000, where a channel on the prior (1 + 1e-9/k) / lambda_k ties
    ["prob-info", "--model", model, "--epsilon", eps, "--extremal", "beta", "--k-max", k_max]
    for model, eps, k_max in (("green", "1e-8", "100000"), ("green", "1e-12", "318309"),
                              ("poisson:a=0.5,b=1", "pow2:-2000", "5000"),
                              ("poisson:a=0.5,b=1", "pow2:-4096", "5000"))
]

# Each flag that the chosen mode does not read.
_PACKING = ["metric-info", "--packing-axes", "1,0.5", "--epsilon", "0.4", "--step", "0.1"]
UNREAD_COMMANDS = [
    ["truncate", "--model", "green", "--epsilon", "0.1", "--reference", "missing.json"],
    ["prob-info", "--model", "green", "--epsilon", "0.1", "--extremal", "alpha",
     "--rho", "constant:1"],
    ["prob-info", "--model", "green", "--epsilon", "0.1", "--extremal", "beta",
     "--nu", "constant:1"],
    ["prob-info", "--model", "green", "--epsilon", "0.1", "--extremal", "alpha", "--k-max", "4"],
    ["metric-info", "--model", "green", "--grid-eps", "1e-2,1e-3", "--grid-log2", "8,16"],
    [*_PACKING, "--model", "green"],
    [*_PACKING, "--grid-log2", "8"],
    ["metric-info", "--model", "green", "--grid-log2", "8,16", "--epsilon", "0.1"],
    ["metric-info", "--model", "green", "--grid-log2", "8,16", "--step", "0.1"],
]

# rho_k or nu_k = (1 + 1e-9/k) / lambda_k is infinite where e^(-k^2) underflows,
# and log2 rho_k of gaussian:1,1e308 overflows to -inf
WARNING_COMMANDS = [
    ["prob-info", "--model", "heat:D=1,a=2,b=1,k_max=40", "--epsilon", "0.1",
     "--rho", "inverse_spectrum", "--nu", "constant:1"],
    ["prob-info", "--model", "heat:D=1,a=2,b=1,k_max=40", "--epsilon", "0.1",
     "--rho", "constant:1", "--nu", "inverse_spectrum"],
    ["prob-info", "--model", "green:k_max=4", "--epsilon", "0.1",
     "--rho", "gaussian:1,1e308", "--nu", "constant:1"],
]


# Power-prior tails c^2 zeta(2p, m + 1) on Hurwitz zeta branches the benchmark
# configs never reach: 2p = 600, where every term underflows and the sum stays
# 0, and 2p just above 1, the trace-class edge.
POWER_TAIL_COMMANDS = [
    ["prob-info", "--model", "green", "--epsilon", "1e-3", "--rho", rho, "--nu", "constant:1"]
    for rho in ("power:1,300", "power:1,0.5000001")
]


# Sweeps through channel-column branches the benchmark configs never reach:
# channel columns on exponent grids across |L| = 1022, a prior that is not trace
# class, a ratio order that is not the index order, the two-sided total,
# Monte-Carlo columns scored over many slabs of levels, statistics near 1e160
# whose squared deviations overflow, a trial error near 5 beside lambda_1 xi_1
# near 1e79, informative components whose lambda_k underflows to 0, and
# configs with faults at several places, which must end on the first one met
# row by row (a Monte-Carlo overflow among them).  Green's cutoff refuses below
# eps = 1.25e-33, where it passes 2^53; nu 100 times larger keeps eps nu, and so
# the Monte-Carlo overflow, at a level 100 times smaller.
_GEOMETRIC = {"kind": "geometric", "c": 1.0, "q": 0.5}
_GREEN_1 = {"model": {"kind": "green", "k_max": 1},
            "rho": {"kind": "custom", "values": [1e154], "tail_sum_sq": 0.0},
            "nu": {"kind": "constant", "c": 9.2e184}, "trials": 1, "seed": 25}
CHANNEL_SWEEPS = {
    "log2_poisson": {"model": {"kind": "poisson", "a": 0.5, "b": 1, "k_max": 24},
                     "log2_inv_eps_grid": [-1100, -1000, 8, 1000, 1022, 1023, 1100],
                     "rho": _GEOMETRIC, "nu": _CONSTANT, "trials": 8, "seed": 5},
    "log2_heat": {"model": {"kind": "heat", "D": 0.1, "a": 2, "b": 1, "k_max": 12},
                  "log2_inv_eps_grid": [4, 1021.5, 1022, 1022.5, 2000],
                  "rho": {"kind": "gaussian", "c": 2.0, "s": 0.01},
                  "nu": {"kind": "power", "c": 1.0, "p": 1.0}, "trials": 8, "seed": 6},
    "constant_prior": {"model": {"kind": "poisson", "a": 0.5, "b": 1, "k_max": 16},
                       "epsilon_grid": [0.1, 1e-3, 1e-6], "rho": _CONSTANT,
                       "nu": _CONSTANT, "trials": 8, "seed": 7},
    "custom_order": {"model": {"kind": "heat", "D": 0.1, "a": 2, "b": 1, "k_max": 6},
                     "epsilon_grid": [0.1, 1e-2, 1e-3, 1e-6],
                     "rho": {"kind": "custom", "values": [0.5, 4.0, 0.25, 2.0, 1.0, 8.0],
                             "tail_sum_sq": 0.5},
                     "nu": _CONSTANT, "trials": 8, "seed": 8},
    "total_poisson": {"model": {"kind": "poisson", "a": 0.5, "b": 1, "k_max": 16},
                      "epsilon_grid": [2.0, 0.5, 1e-2, 1e-4], "rho": _GEOMETRIC,
                      "nu": _CONSTANT, "trials": 8, "seed": 9, "sided": "total"},
    "many_slabs": {"model": {"kind": "poisson", "a": 0.5, "b": 1, "k_max": 64},
                   "epsilon_grid": [10.0 ** (-j / 4) for j in range(1, 41)],
                   "rho": _GEOMETRIC, "nu": _CONSTANT, "trials": 2000, "seed": 12},
    "stderr_overflow": {"model": {"kind": "green", "k_max": 1},
                        "rho": {"kind": "custom", "values": [1e80], "tail_sum_sq": 0.0},
                        "nu": {"kind": "constant", "c": 1e90}, "epsilon_grid": [0.5],
                        "trials": 2, "seed": 25},
    "cancellation": {"model": {"kind": "green", "k_max": 1},
                     "rho": {"kind": "custom", "values": [1e80], "tail_sum_sq": 0.0},
                     "nu": _CONSTANT, "epsilon_grid": [0.5], "trials": 2, "seed": 25},
    "heat_underflow_on_I": {"model": {"kind": "heat", "D": 1.0, "a": 2, "b": 1, "k_max": 40},
                            "epsilon_grid": [1e-3, 1e-300],
                            "rho": {"kind": "custom", "values": [1e150] * 32 + [1.0] * 8,
                                    "tail_sum_sq": 0.0},
                            "nu": _CONSTANT, "trials": 3, "seed": 0},
    "fault_metric_row_1": {**_GREEN_1, "nu": {"kind": "constant", "c": 9.2e186},
                           "epsilon_grid": [0.2, 1e-34, 9.99e-35]},
    "fault_monte_carlo_row_1": {**_GREEN_1, "epsilon_grid": [0.2, 9.99e-33, 1e-34]},
    "fault_metric_before_basis": {"model": {"kind": "green"}, "epsilon_grid": [1e-34],
                                  "rho": {"kind": "custom", "values": [1.0, 4.0],
                                          "tail_sum_sq": 0.0},
                                  "nu": _CONSTANT, "k_max": 2},
}
CHANNEL_SWEEP_COMMANDS = [["simulate", "--config", "{" + name + "}", "--out", f"channel/{name}"]
                          for name in CHANNEL_SWEEPS]

# Metric-only sweeps through the grid kernel's branches the benchmark configs
# never reach: a tabulated spectrum (its cutoffs count the table), a subnormal
# float whose quarter takes the exponent form, the two-sided total on exponents
# of both signs across |L| = 1022, and a green cutoff that refuses at row 1.
_DYADIC = "tabulated_dyadic"  # its model is the benchmark's DYADIC_MODEL
METRIC_SWEEPS = {
    "subnormal": {"model": {"kind": "poisson", "a": 0.5, "b": 1},
                  "epsilon_grid": [1e-300, 5e-324]},
    "total_log2_poisson": {"model": {"kind": "poisson", "a": 0.5, "b": 1},
                           "log2_inv_eps_grid": [-1100, -1, 0.5, 1022, 1023, 1100],
                           "sided": "total"},
    "green_refusal": {"model": {"kind": "green"}, "epsilon_grid": [1e-3, 1e-34]},
}
METRIC_SWEEP_COMMANDS = [["simulate", "--config", "{" + name + "}", "--out", f"metric/{name}"]
                         for name in (_DYADIC, *METRIC_SWEEPS)]


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


def _write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _inputs(workloads, inputs: str) -> dict:
    """Write the input files the commands name; returns each placeholder's path."""
    os.makedirs(inputs)
    log2_config = {key: val for key, val in workloads.README_CONFIG.items()
                   if key != "epsilon_grid"}
    log2_config["log2_inv_eps_grid"] = [8, 1000, 1030, 2000]
    files = {"dyadic": workloads.DYADIC_MODEL, "config": workloads.README_CONFIG,
             "config_log2": log2_config,
             "coeffs": {"model": _POISSON, "complex": False, "entries": _COEFFS},
             "truth": {"model": _POISSON, "complex": False, "entries": _TRUTH},
             "truth_wide": {"model": _POISSON, "complex": False, "entries": _TRUTH_WIDE},
             "truth_narrow": {"model": _POISSON, "complex": False, "entries": _TRUTH_NARROW},
             "green3": {"model": {"kind": "green", "k_max": 256}, "complex": False,
                        "entries": [1.0, 0.5, 0.25]},
             _DYADIC: {"model": workloads.DYADIC_MODEL, "epsilon_grid": [0.0625, 1e-9]},
             **CHANNEL_SWEEPS, **METRIC_SWEEPS}
    for name, (model, L) in EIGEN_LEVELS.items():
        two_sided = model["kind"] != "green"
        entries = [1.0 / (1 + abs(k)) for k in (range(-8, 9) if two_sided else range(1, 9))]
        files["data_" + name] = {"model": model, "complex": False, "entries": entries}
        files["level_" + name] = {"model": model, "log2_inv_eps_grid": [L - 1.0, L, L + 1.0],
                                  "rho": _CONSTANT, "nu": _CONSTANT}
    return {"{" + name + "}": _write_json(os.path.join(inputs, name + ".json"), obj)
            for name, obj in files.items()}


def _without_format(argv: list[str]) -> list[str]:
    if "--format" not in argv:
        return list(argv)
    i = argv.index("--format")
    return argv[:i] + argv[i + 2:]


def _command_ops(commands: list[list[str]], fill: dict, label: str) -> list[dict]:
    """Each command once per output format (``simulate`` has none)."""
    ops = []
    for argv in commands:
        argv = [fill.get(arg, arg) for arg in _without_format(argv)]
        op = {"name": f"{label}: {' '.join(argv)}", "argv": argv}
        if "--out" in argv:
            op["out"] = argv[argv.index("--out") + 1]
        if argv[0] == "simulate":
            ops.append(op)
            continue
        for fmt in ("json", "csv"):
            ops.append({**op, "name": f"{op['name']} --format {fmt}",
                        "argv": argv + ["--format", fmt]})
    return ops


def build_ops(parent_tree: str, out_dir: str) -> list[dict]:
    sys.path.insert(0, os.path.join(parent_tree, "benchmarks"))
    import workloads

    fill = _inputs(workloads, os.path.join(out_dir, "inputs"))
    cold = []
    for seed in SWEEP_SEEDS:
        for op in workloads.make_ops("cli_cold", seed, workloads.OPS["cli_cold"]):
            argv = _without_format(op["argv"])
            if argv[0] == "simulate":
                argv = argv[:-1] + ["cold/simulate"]
            if argv not in cold:
                cold.append(argv)
    ops = (_command_ops(README_COMMANDS, fill, "readme")
           + _command_ops(cold, fill, "cli_cold")
           + _command_ops(ERROR_COMMANDS, fill, "error")
           + _command_ops(EDGE_COMMANDS, fill, "edge")
           + _command_ops(_eigen_level_commands(), fill, "eigen-level")
           + _command_ops(WARNING_COMMANDS, fill, "warning")
           + _command_ops(LEVEL_COMMANDS, fill, "level")
           + _command_ops(UNREAD_COMMANDS, fill, "unread")
           + _command_ops(POWER_TAIL_COMMANDS, fill, "power-tail")
           + _command_ops(CHANNEL_SWEEP_COMMANDS, fill, "channel-sweep")
           + _command_ops(METRIC_SWEEP_COMMANDS, fill, "metric-sweep"))
    configs = os.path.join(out_dir, "configs")
    os.makedirs(configs)
    for workload in SWEEP_WORKLOADS:
        for seed in SWEEP_SEEDS:
            for i, op in enumerate(workloads.make_ops(workload, seed, workloads.OPS[workload])):
                name = f"{workload}-{seed}-{i}"
                path = _write_json(os.path.join(configs, name + ".json"), op["config"])
                ops.append({"name": name, "out": f"sweeps/{name}",
                            "argv": ["simulate", "--config", path, "--out", f"sweeps/{name}"]})
    return ops


# ---------------------------------------------------------------------------
# One tree
# ---------------------------------------------------------------------------


def _run_op(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("always")
        try:
            rc = main(argv)
        except SystemExit as exc:      # argparse rejected the arguments
            rc = exc.code
        except Exception as exc:       # a traceback: record it and go on
            rc = "raised"
            err.write("".join(traceback.format_exception_only(type(exc), exc)))
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_tree(ops_path: str, side_dir: str) -> None:
    """Run every op with the ``fredinfo`` on ``sys.path``, from ``side_dir``."""
    from fredinfo.cli import main

    with open(ops_path) as fh:
        ops = json.load(fh)
    os.chdir(side_dir)
    results = []
    for op in ops:
        if "out" in op:
            os.makedirs(os.path.dirname(op["out"]), exist_ok=True)
        results.append(_run_op(main, op["argv"]))
    _write_json("results.json", results)


def _spawn(tree: str, ops_path: str, side_dir: str) -> list[dict]:
    os.makedirs(side_dir)
    env = {key: val for key, val in os.environ.items() if key != "FREDINFO_SEED"}
    env["PYTHONPATH"] = os.path.join(tree, "src")
    code = (f"import sys; sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r}); "
            f"import compare_outputs; compare_outputs.run_tree({ops_path!r}, {side_dir!r})")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    with open(os.path.join(side_dir, "results.json")) as fh:
        results = json.load(fh)
    for result in results:  # a warning names the file it came from
        result["stderr"] = result["stderr"].replace(tree, "TREE")
    return results


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def _file(path: str, meta: bool):
    try:
        with open(path) as fh:
            if not meta:
                return fh.read()
            obj = json.load(fh)
    except FileNotFoundError:
        return None
    obj.pop("created_utc", None)
    return obj


def _show(value) -> str:
    text = repr(value)
    return text if len(text) <= 300 else text[:300] + "..."


def compare(ops: list[dict], results: dict, out_dir: str) -> int:
    differing = 0
    for i, op in enumerate(ops):
        got = {side: dict(results[side][i]) for side in SIDES}
        if "out" in op:
            for side in SIDES:
                base = os.path.join(out_dir, side, op["out"])
                got[side][".csv"] = _file(base + ".csv", meta=False)
                got[side][".meta.json"] = _file(base + ".meta.json", meta=True)
        keys = [key for key in got["parent"] if got["parent"][key] != got["change"][key]]
        if not keys:
            continue
        differing += 1
        print(f"DIFF {op['name']}")
        for key in keys:
            print(f"  {key}: parent {_show(got['parent'][key])}")
            print(f"  {key}: change {_show(got['change'][key])}")
    print(f"{len(ops)} ops compared, {differing} differ")
    return 1 if differing else 0


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    parent_tree, change_tree, out_dir = (os.path.abspath(path) for path in argv)
    if os.path.exists(out_dir) and os.listdir(out_dir):
        sys.stderr.write(f"{out_dir} is not empty\n")
        return 2
    os.makedirs(out_dir, exist_ok=True)
    ops = build_ops(parent_tree, out_dir)
    ops_path = _write_json(os.path.join(out_dir, "ops.json"), ops)
    results = {side: _spawn(tree, ops_path, os.path.join(out_dir, side))
               for side, tree in zip(SIDES, (parent_tree, change_tree))}
    return compare(ops, results, out_dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
