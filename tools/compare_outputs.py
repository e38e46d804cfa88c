"""Compare the command-line output of two source trees, op by op.

    python3 tools/compare_outputs.py PARENT_TREE CHANGE_TREE OUT_DIR

Each tree is a checkout holding ``src/fredinfo`` and ``benchmarks/``.  The ops
are the README examples and the benchmark's ``cli_cold`` commands, each in both
output formats, a few inputs that must fail, and every ``closed_sweep`` and
``mc_sweep`` config of seeds 1 and 90217, read from the parent tree's
``benchmarks/workloads.py``.  One subprocess per tree imports that tree's
package and runs every op through ``fredinfo.cli.main``, from its own
directory under OUT_DIR, so relative output paths print alike on both sides.

The script prints each op whose exit code, stdout, stderr, CSV file or
``.meta.json`` (without ``created_utc``) differs, and exits 1 if any does.
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

SWEEP_SEEDS = (1, 90217)
SWEEP_WORKLOADS = ("mc_sweep", "closed_sweep")
SIDES = ("parent", "change")

# Two-sided poisson vectors (k = -8..8) for the README's `truncate --data` form.
_POISSON = {"kind": "poisson", "a": 0.5, "b": 1.0, "k_max": 256}
_TRUTH = [0.5 ** abs(k) for k in range(-8, 9)]
_COEFFS = [0.5 ** abs(k) * t + 0.01 * ((7 * k) % 5 - 2) for k, t in zip(range(-8, 9), _TRUTH)]

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
    ["capacity", "--model", "green", "--epsilon", "pow2:-60"],   # exit 3
]


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
             "truth": {"model": _POISSON, "complex": False, "entries": _TRUTH}}
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
           + _command_ops(ERROR_COMMANDS, fill, "error"))
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
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
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
        return json.load(fh)


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
