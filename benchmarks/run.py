"""fredinfo benchmark: four command-level workloads, timed end to end.

Run from the repository root::

    python3 benchmarks/run.py --workload mc_sweep --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --all --seed 1          # every workload, one table
    python3 benchmarks/run.py --all --smoke           # a few ops each, seconds

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run does a
fixed amount of work (``workloads.OPS`` ops, each timed in
``workloads.PASSES`` passes); ``--seconds`` is recorded but does
not cut a run short.  See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_RUNS = 5
CHILD_TIMEOUT = 170     # seconds; a run must end within 180
CLI_PROBE_RUNS = 3
END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = (("ns_per_index", "ns"), ("ns_per_normal", "ns"), ("main_ms", "ms"),
               (".calls", "count"), (".nodes", "count"), (".candidates", "count"),
               (".normals", "count"), (".errors", "count"), ("_s", "s"), (".s", "s"))


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    return "ratio"


class BenchError(Exception):
    """The benchmark could not run (not a failed op)."""


def pinned_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("FREDINFO_SEED", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP")}
    env.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
                "NUMEXPR_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
                "PYTHONPATH": os.path.join(root, "src")})
    return env


def git_sha(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


# ---------------------------------------------------------------------------
# Plan: inputs generated and written before anything is timed
# ---------------------------------------------------------------------------


def _materialize(op: dict, i: int, work: str) -> dict:
    op = dict(op)
    if op["kind"] == "sweep":
        op["config_path"] = os.path.join(work, f"config{i}.json")
        op["out"] = os.path.join(work, "sweep")
        with open(op["config_path"], "w") as fh:
            json.dump(op["config"], fh)
    elif op["kind"] == "cli":
        op["out"] = os.path.join(work, "cli_simulate")
        fill = {"{dyadic}": os.path.join(work, "dyadic.json"),
                "{config}": os.path.join(work, "readme_config.json"),
                "{out}": op["out"]}
        op["argv"] = [fill.get(a, a) for a in op["argv"]]
    return op


def write_inputs(work: str) -> None:
    """The input files the cold-start commands read."""
    os.makedirs(work, exist_ok=True)
    with open(os.path.join(work, "dyadic.json"), "w") as fh:
        json.dump(workloads.DYADIC_MODEL, fh)
    with open(os.path.join(work, "readme_config.json"), "w") as fh:
        json.dump(workloads.README_CONFIG, fh)


def make_plan(workload: str, seed: int, n_ops: int, passes: int, trace_ops: int,
              work: str) -> str:
    write_inputs(work)
    ops = workloads.make_ops(workload, seed, n_ops)
    plan = {"workload": workload, "seed": seed,
            "setup_op": _materialize(workloads.setup_op(workload, seed), -1, work),
            "ops": [_materialize(op, i, work) for i, op in enumerate(ops)],
            "passes": passes,
            "trace_ops": trace_ops,
            "spans_path": os.path.join(work, "spans.jsonl")}
    path = os.path.join(work, "plan.json")
    with open(path, "w") as fh:
        json.dump(plan, fh)
    return path


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def _worker(plan: str, mode: str) -> list[str]:
    return [sys.executable, os.path.join(HERE, "worker.py"), "--plan", plan, "--mode", mode]


def _last_json(stdout: str, what: str) -> dict:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{what} printed no result: {stdout[-500:]!r}") from None


def setup_probe(plan: str, env: dict, root: str) -> tuple[float, list]:
    """Seconds from spawning a fresh interpreter until its first op returned."""
    t0 = time.perf_counter()
    # unbuffered, so the READY line is read as soon as it is written and
    # nothing after it is left in a buffer that communicate() would not see
    proc = subprocess.Popen(_worker(plan, "probe"), cwd=root, env=env, bufsize=0,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        if not select.select([proc.stdout], [], [], CHILD_TIMEOUT)[0]:
            raise subprocess.TimeoutExpired(proc.args, CHILD_TIMEOUT)
        first = proc.stdout.readline().decode()
        elapsed = time.perf_counter() - t0
        rest, err = (b.decode() for b in proc.communicate(timeout=CHILD_TIMEOUT))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if first.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed (exit {proc.returncode}): "
                         f"{(first + rest)[-300:]!r} {err[-1500:]}")
    return elapsed, _last_json(rest, "set-up probe")["failures"]


def run_worker(plan: str, mode: str, env: dict, root: str) -> dict:
    proc = subprocess.run(_worker(plan, mode), cwd=root, env=env, text=True,
                          capture_output=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return _last_json(proc.stdout, f"{mode} worker")


def _median_seconds(argv: list[str], env: dict, root: str, runs: int) -> float:
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=root, env=env, check=True, capture_output=True,
                       timeout=CHILD_TIMEOUT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cli_probes(env: dict, root: str, runs: int) -> dict:
    """Interpreter floor, package import and the scipy.special share of it."""
    py = sys.executable
    proc = subprocess.run([py, "-X", "importtime", "-c", "import fredinfo.cli"],
                          cwd=root, env=env, capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT)
    special = 0.0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "scipy.special":
            special = int(parts[1]) / 1e6            # cumulative microseconds
    return {"cli.interpreter_s": _median_seconds([py, "-c", "pass"], env, root, runs),
            "cli.import_s": _median_seconds([py, "-c", "import fredinfo.cli"], env, root, runs),
            "cli.import_scipy_special_s": special}


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_once(workload: str, seed: int, seconds: int, trace: bool, smoke: bool,
             root: str) -> dict:
    n_ops = (workloads.SMOKE_OPS if smoke else workloads.OPS)[workload]
    passes = 1 if smoke else workloads.PASSES[workload]
    trace_ops = n_ops if smoke else workloads.TRACE_OPS[workload]
    work = os.path.join(HERE, "out", f"{workload}-{seed}{'-smoke' if smoke else ''}")
    plan = make_plan(workload, seed, n_ops, passes, trace_ops, work)
    env = pinned_env(root)
    probe_failures: list = []
    setups = []
    for _ in range(1 if smoke else SETUP_RUNS):
        elapsed, failures = setup_probe(plan, env, root)
        setups.append(elapsed)
        probe_failures += failures
    if not trace:
        res = run_worker(plan, "timed", env, root)
        lat = res["latencies"]
        completed = len(lat) - sum(f["op"] >= 0 for f in res["failures"])
        values = {"ops_per_s": completed / sum(lat),
                  "op_p50_ms": 1e3 * statistics.median(lat),
                  "op_p90_ms": 1e3 * p90(lat),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": res["peak_rss_mb"]}
        counts = {"ops_per_s": len(lat), "op_p50_ms": len(lat), "op_p90_ms": len(lat),
                  "setup_s": len(setups), "peak_rss_mb": 1}
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        extra = {}
        n_run = n_ops * passes
    else:
        res = run_worker(plan, "traced", env, root)
        runs = 1 if smoke else CLI_PROBE_RUNS
        probes = cli_probes(env, root, runs)
        values = {**res["metrics"], **probes}
        counts = {k: runs if k in probes else trace_ops for k in values}
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(values.items())}
        extra = {"errors_by_class": res["errors"], "spans": res["spans"],
                 "spans_path": os.path.relpath(os.path.join(work, "spans.jsonl"), root)}
        n_run = trace_ops
    extra["env"] = dict(res["env"], git_sha=git_sha(root))
    failures = probe_failures + res["failures"]
    failed = len(failures)
    attempted = len(setups) + 1 + n_run        # probes, warm-up op, measured ops
    out = {"workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
           "counts": counts,
           "fail_frac": failed / attempted, "failures": failures[:10], **extra,
           "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}}
    with open(os.path.join(work, f"result{'-trace' if trace else ''}.json"), "w") as fh:
        json.dump(out, fh, indent=1)
    return out


def print_summary(out: dict) -> None:
    res = out["result"]
    print(f"# {out['workload']} seed {out['seed']} trace {int(out['trace'])}: "
          f"{res['attempted']} ops attempted, {res['failed']} failed "
          f"(fail_frac {out['fail_frac']:.4g})")
    for name, m in res["metrics"].items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']:6s} n={out['counts'][name]}")
    for f in out["failures"]:
        print(f"  FAILED op {f['op']}: {'; '.join(f['problems'])[:300]}")
    if "env" in out:
        print(f"  env {json.dumps(out['env'], sort_keys=True)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload in turn")
    p.add_argument("--seed", type=int, default=workloads.MAIN_SEED)
    p.add_argument("--seconds", type=int, default=20,
                   help="nominal run length; recorded, the op count is fixed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="a few ops per workload")
    args = p.parse_args(argv)
    if args.all == (args.workload is not None):
        p.error("give exactly one of --workload or --all")
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    package = os.path.join(root, "src", "fredinfo")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"error: no fredinfo package under {root}/src; run from the "
              "repository root", file=sys.stderr)
        return 2
    # compile the package the way an installed one is compiled
    if not compileall.compile_dir(package, quiet=1):
        print("error: the package does not byte-compile", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.all else (args.workload,)
    results = []
    try:
        for name in names:
            out = run_once(name, args.seed, args.seconds, bool(args.trace), args.smoke, root)
            print_summary(out)
            results.append(out)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.all:
        print(json.dumps({r["workload"]: r["result"] for r in results}))
    else:
        print(json.dumps(results[0]["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
