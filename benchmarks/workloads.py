"""Seeded inputs for the four benchmark workloads.

Only the standard library is used here, so a seed gives the same ops on every
commit and with every numpy version.  Each workload draws its ops from a fixed
multiset of op shapes (noise-level count, model family, ``k_max``, node or
candidate count); the seed picks the continuous parameters and the order.
Different seeds therefore give the same amount of work, which keeps the
end-to-end figures comparable across seeds.

An op is a JSON-able dict with a ``kind``:

``sweep``   ``fredinfo simulate`` run in-process through ``fredinfo.cli.main``
``cli``     ``python -m fredinfo.cli <argv>`` in a fresh subprocess
``nystrom`` ``nystrom_decompose(green_kernel, n_nodes)``
``packing`` ``greedy_packing_count(axes, epsilon, epsilon / 4)``
"""

from __future__ import annotations

import math
import random

from reference import channel, eigenvalue

WORKLOADS = ("mc_sweep", "closed_sweep", "cli_cold", "oracle_check")

MAIN_SEED = 1
# Not used while the benchmark was written or tuned; confirm claims on it.
HELD_OUT_SEED = 90217

# Distinct ops per run.  Op shapes follow the op index, not the seed, so every
# seed runs the same multiset of shapes.
OPS = {"mc_sweep": 168, "closed_sweep": 504, "cli_cold": 60, "oracle_check": 168}
# Timed passes over the ops.  Every pass runs every op once and the latency
# figures pool all passes.  closed_sweep's median op sits where two groups of
# short ops meet, so one pass let a few ops changing places move its p50.
PASSES = {"mc_sweep": 1, "closed_sweep": 2, "cli_cold": 1, "oracle_check": 1}
# Ops replayed by the traced run (a prefix of the timed ops).
TRACE_OPS = {"mc_sweep": 56, "closed_sweep": 168, "cli_cold": 30, "oracle_check": 60}
SMOKE_OPS = {"mc_sweep": 3, "closed_sweep": 6, "cli_cold": 5, "oracle_check": 4}

FAMILIES = ("poisson", "green", "heat")
RULES = ("geometric", "power", "gaussian")   # prior rules; all trace class
MC_TRIALS = 16
MC_K_MAX = (8, 12, 16, 24)
CHANNEL_K_MAX = (24, 32, 48)
LEVELS = range(3, 17)                     # 3..16 noise levels per sweep
FLOAT_FLOOR = 1e-12                       # deepest float level of closed sweeps
EXP_FLOOR = {"poisson": 4096.0, "heat": 4096.0, "green": 40.0}
# Nystrom ops: two at NYSTROM_LARGE nodes, a block of NYSTROM_TOP_OPS at
# NYSTROM_TOP nodes, and the rest at node counts evenly spaced over
# NYSTROM_NODES.  The median lands among the evenly spaced counts, where no
# gap between repeated sizes lets it jump from run to run; the p90 lands
# inside the block of equal ops, where no slope of cost against size does.
NYSTROM_NODES = (300, 900)
NYSTROM_TOP = 1000
NYSTROM_TOP_OPS = 21
NYSTROM_LARGE = 2000
PACKING_CANDIDATES = (2_000, 12_000)      # bounded candidate count per case
PACKING_BANDS = 10
# (dimension, band) of the packing cases; three-dimensional draws never fall
# in the lowest bands (their smallest grid has 5,832 candidates)
PACKING_SHAPES = ([(1, b) for b in range(PACKING_BANDS)]
                  + [(2, b) for b in range(PACKING_BANDS)]
                  + [(3, b) for b in range(7, PACKING_BANDS)])
SETUP_NYSTROM_NODES = 500

README_CONFIG = {
    "model": {"kind": "poisson", "a": 0.5, "b": 1.0},
    "epsilon_grid": [0.5, 0.25, 0.125],
    "rho": {"kind": "geometric", "c": 32.0, "q": 0.0625},
    "nu": {"kind": "constant", "c": 1.0},
    "trials": 100,
    "seed": 42,
    "k_max": 32,
}
TRUNCATE_ARGV = ["truncate", "--model", "poisson:a=0.5,b=1", "--epsilon", "0.1"]
DYADIC_MODEL = {"kind": "tabulated", "values": [2.0 ** -k for k in range(1, 25)],
                "k_max": 24}


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{stream}")


# ---------------------------------------------------------------------------
# Sweep configs
# ---------------------------------------------------------------------------


def _model(kind: str, rng: random.Random) -> dict:
    if kind == "poisson":
        return {"kind": "poisson", "a": rng.uniform(0.35, 0.65), "b": 1.0}
    if kind == "heat":
        a = rng.uniform(1.0, 2.0)
        return {"kind": "heat", "D": rng.uniform(0.005, 0.03), "a": a,
                "b": a - rng.uniform(0.5, 1.0)}
    return {"kind": "green"}


def _rule(kind: str, rng: random.Random) -> dict:
    if kind == "geometric":
        return {"kind": "geometric", "c": rng.uniform(1.0, 32.0), "q": rng.uniform(0.3, 0.8)}
    if kind == "power":
        return {"kind": "power", "c": rng.uniform(1.0, 8.0), "p": rng.uniform(0.75, 2.0)}
    return {"kind": "gaussian", "c": rng.uniform(1.0, 8.0), "s": rng.uniform(0.001, 0.02)}


def _log_grid(n: int, lo: float, hi: float, rng: random.Random,
              fixed_last: bool) -> list[float]:
    """``n`` increasing values in ``[lo, hi]``, one per equal bin.

    Each value sits in the middle 80% of its bin, so neighbours are at least a
    fifth of a bin apart.  With ``fixed_last`` the last value is ``hi`` itself,
    which pins the deepest (most expensive) level of the sweep.
    """
    width = (hi - lo) / n
    out = [lo + width * (j + rng.uniform(0.1, 0.9)) for j in range(n)]
    if fixed_last:
        out[-1] = hi
    return out


def _float_grid(n: int, top: float, floor: float, rng: random.Random,
                fixed_last: bool) -> list[float]:
    logs = _log_grid(n, -math.log10(top), -math.log10(floor), rng, fixed_last)
    return [10.0 ** -v for v in logs]


def _channel_grid(kind: str, rule: str, levels: int, k_max: int, floor: float,
                  fixed_last: bool, rng: random.Random) -> dict:
    """Model, rules and float grid of a sweep with channel columns.

    Every level lies below ``lambda_1 rho_1 / nu_1``, so each has a non-empty
    informative set.  Draws whose closed-form risk does not fall by at least
    one part in 1e9 from level to level are redrawn: there the program would
    rightly report a rounding tie as a monotonicity violation.
    """
    while True:
        model = _model(kind, rng)
        rho = _rule(rule, rng)
        nu = {"kind": "constant", "c": rng.uniform(0.5, 2.0)}
        top = min(0.5, 0.9 * eigenvalue(model, 1) * _rule_1(rho) / nu["c"])
        grid = _float_grid(levels, top, floor, rng, fixed_last)
        risks = [channel(model, rho, nu, eps, k_max)["mse"] for eps in grid]
        if all(b < a * (1.0 - 1e-9) for a, b in zip(risks, risks[1:])):
            return {"model": model, "epsilon_grid": grid, "rho": rho, "nu": nu,
                    "k_max": k_max}


def _rule_1(rule: dict) -> float:
    if rule["kind"] == "geometric":
        return rule["c"] * rule["q"]
    if rule["kind"] == "gaussian":
        return rule["c"] * math.exp(-rule["s"])
    return rule["c"]


def mc_sweep_config(i: int, rng: random.Random) -> dict:
    cfg = _channel_grid(FAMILIES[i % 3], RULES[(i // 12) % 3], LEVELS[i % len(LEVELS)],
                        MC_K_MAX[(i // 3) % len(MC_K_MAX)], 1e-6, False, rng)
    cfg.update(trials=MC_TRIALS, seed=rng.randrange(1 << 62),
               sided=rng.choice(("one_sided", "total")))
    return cfg


def closed_sweep_config(i: int, rng: random.Random) -> dict:
    kind = FAMILIES[i % 3]
    float_grid = (i // 3) % 2 == 0
    sided = ("one_sided", "total")[(i // 6) % 2]
    levels = LEVELS[(i // 12) % len(LEVELS)]
    if float_grid:
        # channel columns, down to FLOAT_FLOOR
        cfg = _channel_grid(kind, RULES[(i // 168) % 3], levels,
                            CHANNEL_K_MAX[(i // 12) % len(CHANNEL_K_MAX)], FLOAT_FLOOR, True, rng)
        cfg.update(trials=0, seed=rng.randrange(1 << 62), sided=sided)
        return cfg
    # no channel columns, exponents down to EXP_FLOOR[kind]
    return {"model": _model(kind, rng),
            "log2_inv_eps_grid": _log_grid(levels, 2.0, EXP_FLOOR[kind], rng, True),
            "trials": 0, "seed": 0, "sided": sided}


# ---------------------------------------------------------------------------
# Oracle cases
# ---------------------------------------------------------------------------

_PACKING_MODELS = ({"kind": "poisson", "a": 0.5, "b": 1.0},
                   {"kind": "heat", "D": 1.0, "a": 2.0, "b": 1.0},
                   {"kind": "green"})


def packing_candidates(axes: list[float], step: float) -> int:
    """Grid points the packing scan visits (computed from axes and step)."""
    total = 1
    for a in axes:
        if a > 0:
            total *= int(math.floor(2.0 * a / step + 1e-9)) + 1
    return total


def packing_case(rng: random.Random, d: int, band: int) -> dict:
    """A ``d``-dimensional case drawn like the packing acceptance criterion.

    Axes are the leading eigenvalues of a reference spectrum and the
    separation is a fraction of the smallest axis.  Draws whose candidate
    count falls outside the ``band``-th of ``PACKING_BANDS`` equal log-width
    bands of ``PACKING_CANDIDATES`` are redrawn, which bounds and fixes the
    cost of the case.
    """
    lo, hi = (math.log(c) for c in PACKING_CANDIDATES)
    width = (hi - lo) / PACKING_BANDS
    lo, hi = math.exp(lo + band * width), math.exp(lo + (band + 1) * width)
    while True:
        model = rng.choice(_PACKING_MODELS)
        axes = [eigenvalue(model, k) for k in range(1, d + 1)]
        eps = min(axes) * rng.uniform(0.3, 0.9)
        if d == 1:
            # one-dimensional cases are cheap; shrink eps into the band
            eps = min(eps, 8.0 * axes[0] / rng.uniform(lo, hi))
        if lo <= packing_candidates(axes, eps / 4.0) <= hi:
            return {"kind": "packing", "axes": axes, "epsilon": eps, "step": eps / 4.0}


# ---------------------------------------------------------------------------
# Op lists
# ---------------------------------------------------------------------------


def _cli_ops(rng: random.Random) -> list[dict]:
    """One block of the five cold-start commands, in seeded order."""
    a = rng.uniform(0.3, 0.7)
    block = [
        {"kind": "cli", "name": "table", "argv": ["table", "--format", "csv"]},
        {"kind": "cli", "name": "capacity", "a": a,
         "argv": ["capacity", "--model", f"poisson:a={a!r},b=1",
                  "--epsilon", "pow2:-1024", "--format", "csv"]},
        {"kind": "cli", "name": "truncate", "argv": TRUNCATE_ARGV},
        {"kind": "cli", "name": "prob-info",
         "argv": ["prob-info", "--model-json", "{dyadic}", "--epsilon", "0.0625",
                  "--rho", "geometric:1,0.5", "--nu", "constant:1"]},
        {"kind": "cli", "name": "simulate", "config": README_CONFIG,
         "argv": ["simulate", "--config", "{config}", "--out", "{out}"]},
    ]
    rng.shuffle(block)
    return block


def make_ops(workload: str, seed: int, n: int) -> list[dict]:
    """The ``n`` timed ops of one run, in execution order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = _rng(workload, seed, "ops")
    if workload == "mc_sweep":
        ops = [{"kind": "sweep", "config": mc_sweep_config(i, rng)} for i in range(n)]
    elif workload == "closed_sweep":
        ops = [{"kind": "sweep", "config": closed_sweep_config(i, rng)} for i in range(n)]
    elif workload == "cli_cold":
        ops = []
        while len(ops) < n:
            ops.extend(_cli_ops(rng))
        return ops[:n]
    else:
        large = min(2, n // 2)
        top = min(NYSTROM_TOP_OPS, n // 2 - large)
        rest = n // 2 - large - top
        lo, hi = NYSTROM_NODES
        nodes = ([NYSTROM_LARGE] * large + [NYSTROM_TOP] * top
                 + [lo + round((hi - lo) * (j + 0.5) / rest) for j in range(rest)])
        shapes = [("nystrom", k) for k in nodes] + [("packing", None)] * (n - len(nodes))
        ops = [{"kind": "nystrom", "n_nodes": nodes} if kind == "nystrom"
               else packing_case(rng, *PACKING_SHAPES[j % len(PACKING_SHAPES)])
               for j, (kind, nodes) in enumerate(shapes)]
    rng.shuffle(ops)
    return ops


def setup_op(workload: str, seed: int) -> dict:
    """The fixed-size cold op that a set-up measurement runs first."""
    rng = _rng(workload, seed, "setup")
    if workload == "mc_sweep":
        return {"kind": "sweep", "config": mc_sweep_config(21, rng)}  # poisson, 10 levels
    if workload == "closed_sweep":
        # green, float grid to FLOAT_FLOOR, 12 levels
        return {"kind": "sweep", "config": closed_sweep_config(109, rng)}
    if workload == "cli_cold":
        return {"kind": "cli", "name": "truncate", "argv": TRUNCATE_ARGV}
    return {"kind": "nystrom", "n_nodes": SETUP_NYSTROM_NODES}
