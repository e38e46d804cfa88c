"""Runs the ops of one benchmark run and reports timings as JSON.

Started by ``run.py`` in a fresh interpreter with the pinned environment;
not meant to be run by hand.  Modes:

``probe``   run the set-up op cold, print ``READY``, then check it
``timed``   warm up on the set-up op, then time every op in each pass (the
            end-to-end run)
``traced``  warm up, time the first ops untraced, then again under the tracer

The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time

_fredinfo = {}
NYSTROM_MODES = 8      # leading eigenvalues kept for the check
CLI_TIMEOUT = 60       # seconds; a hung command fails its op


def _mod(name: str):
    if name not in _fredinfo:
        _fredinfo[name] = importlib.import_module(f"fredinfo.{name}")
    return _fredinfo[name]


def _cli_in_process(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = _mod("cli").main(argv)
        except SystemExit as exc:      # argparse rejected the arguments
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _clear(path: str) -> None:
    for suffix in (".csv", ".meta.json"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(path + suffix)


def prepare(op: dict) -> None:
    """Untimed: remove what an earlier op left at this op's output path."""
    if "out" in op:
        _clear(op["out"])


def execute(op: dict, subprocess_cli: bool = True):
    """The timed part of one op; returns the raw output for ``check``."""
    kind = op["kind"]
    if kind == "sweep":
        return _cli_in_process(["simulate", "--config", op["config_path"],
                                "--out", op["out"]])
    if kind == "cli":
        if not subprocess_cli:
            return _cli_in_process(op["argv"])
        proc = subprocess.run([sys.executable, "-m", "fredinfo.cli", *op["argv"]],
                              capture_output=True, text=True, timeout=CLI_TIMEOUT)
        return proc.returncode, proc.stdout, proc.stderr
    if kind == "nystrom":
        spectra = _mod("spectra")
        system = spectra.nystrom_decompose(spectra.green_kernel, op["n_nodes"])
        return system.eigenvalues[:NYSTROM_MODES].copy(), system.eigenvalues.size
    if kind == "packing":
        return _mod("metric").greedy_packing_count(op["axes"], op["epsilon"], op["step"])
    raise ValueError(f"unknown op kind {kind!r}")


def check(op: dict, output) -> list[str]:
    import checks   # after the op: the set-up probe must not pay for numpy here
    kind = op["kind"]
    if kind == "sweep":
        rc, stdout, stderr = output
        if rc != 0:
            return [f"exit code {rc}: {stderr[-300:]!r}"]
        return checks.check_sweep_files(op["config"], op["out"], stdout, stderr)
    if kind == "cli":
        return checks.check_cli(op, *output)
    if kind == "nystrom":
        return checks.check_nystrom(op, *output)
    return checks.check_packing(op, output)


def run_ops(ops: list[dict], subprocess_cli: bool = True, tracer=None, first: int = 0):
    """Time each op; returns (latencies, failures).  Checks are not timed."""
    latencies, failures = [], []
    clock = time.perf_counter
    for i, op in enumerate(ops, start=first):
        prepare(op)
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            output = execute(op, subprocess_cli)
        except Exception as exc:  # a failed op is counted, the run goes on
            latencies.append(clock() - t0)
            failures.append({"op": i, "problems": [f"{type(exc).__name__}: {exc}"]})
            continue
        latencies.append(clock() - t0)
        try:
            problems = check(op, output)
        except Exception as exc:  # an output the checker cannot read is wrong
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if problems:
            failures.append({"op": i, "problems": problems[:5]})
    return latencies, failures


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "nproc": os.cpu_count(),
            "cpu": cpu, "fredinfo_file": _mod("cli").__file__,
            "threads": {k: os.environ.get(k) for k in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
            "FREDINFO_SEED": os.environ.get("FREDINFO_SEED")}


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # Linux reports KiB


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--plan", required=True, help="JSON plan written by run.py")
    p.add_argument("--mode", choices=("probe", "timed", "traced"), required=True)
    args = p.parse_args(argv)
    with open(args.plan) as fh:
        plan = json.load(fh)
    cold = plan["workload"] == "cli_cold"
    setup = plan["setup_op"]

    if args.mode == "probe":
        prepare(setup)
        try:
            output, problems = execute(setup), None
        except Exception as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        print("READY", flush=True)     # the parent stops the set-up clock here
        if problems is None:
            problems = check(setup, output)
        print(json.dumps({"failures": [{"op": -1, "problems": problems}] if problems else []}))
        return 0

    _, warm_failures = run_ops([setup], first=-1)    # warm-up, untimed
    if args.mode == "timed":
        lat, failures = [], warm_failures
        for _ in range(plan["passes"]):
            pass_lat, pass_failures = run_ops(plan["ops"])
            lat += pass_lat
            failures += pass_failures
        result = {"latencies": lat, "failures": failures,
                  "peak_rss_mb": _peak_rss_mb(children=cold)}
    else:
        import tracing
        # each op runs untraced and traced back to back, in alternating
        # order, so neither side always meets the colder caches
        ops = plan["ops"][:plan["trace_ops"]]
        tracer = tracing.Tracer()
        plain, traced, failures = [], [], []
        for i, op in enumerate(ops):
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if with_trace:
                    tracer.install()
                try:
                    lat, fails = run_ops([op], subprocess_cli=False, first=i,
                                         tracer=tracer if with_trace else None)
                finally:
                    tracer.uninstall()
                (traced if with_trace else plain).extend(lat)
                failures += fails if with_trace else []
        metrics, errors = tracing.layer_metrics(tracer.spans, sum(traced))
        metrics["trace.overhead"] = sum(traced) / sum(plain)
        in_cli = [t for t, op in zip(plain, ops) if op["kind"] in ("sweep", "cli")]
        metrics["cli.main_ms"] = 1e3 * sum(in_cli) / len(in_cli) if in_cli else 0.0
        tracer.write(plan["spans_path"])
        result = {"metrics": metrics, "errors": errors,
                  "failures": warm_failures + failures, "spans": len(tracer.spans)}
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
