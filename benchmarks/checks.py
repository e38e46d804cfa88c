"""Output checks for every op kind.

Each check returns a list of problems (empty when the output is right).  The
expected values come from ``reference`` and from the documented README
values, never from the library itself.  The Monte-Carlo risk is checked
statistically, not byte for byte, so a change of random-stream scheme keeps
passing as long as the estimate stays unbiased.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import reference as ref

SWEEP_COLUMNS = ("epsilon", "k0", "k_I", "k_alpha", "mse_closed", "mse_mc_mean",
                 "mse_mc_stderr", "lower_bits", "upper_bits", "logL_max",
                 "exact_nats", "approx_nats")
CHANNEL_COLUMNS = ("k_I", "k_alpha", "mse_closed", "exact_nats", "approx_nats")
MC_Z = 8.0          # |mc mean - closed form| must stay within MC_Z standard errors
RTOL = 1e-9
NYSTROM_RTOL = 1e-3  # the acceptance gate's tolerance for the Green spectrum

# README: `fredinfo table --format csv`
README_TABLE = [
    ["poisson", "geometric: (a/b)^|k|", 2.0000000000000009, 2.0,
     1.4142135623730949, 1.4142135623730951, "True"],
    ["heat", "gaussian: exp(-D k^2 (a-b))", 1.5238524391182491, 1.5,
     1.5759606562264785, 1.5874010519681994, "True"],
    ["green", "power law: 1/(k^2 pi^2)", 0.50228084572621268, 0.5,
     1.9909180461663236, 2.0, "True"],
]
# README: the dyadic prob-info example
README_PROB_INFO = {"epsilon": 0.0625, "k_max": 24, "k_I": 2, "k_alpha": 1,
                    "mse": 19.0 / 192.0, "exact_nats": 1.7631802623080808,
                    "approx_nats": 2.0 * math.log(2.0)}


def close(got, want, rtol: float = RTOL, atol: float = 1e-9) -> bool:
    return got is not None and abs(got - want) <= atol + rtol * abs(want)


def _log2_eigenvalues(model: dict, ks: np.ndarray) -> np.ndarray:
    k = ks.astype(float)
    if model["kind"] == "poisson":
        return -k * math.log2(model["b"] / model["a"])
    if model["kind"] == "heat":
        return -model["D"] * (model["a"] - model["b"]) * k * k * math.log2(math.e)
    return -2.0 * np.log2(k) - 2.0 * math.log2(math.pi)


def _num(text: str):
    return None if text == "" else float(text)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def check_sweep_csv(config: dict, text: str) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != SWEEP_COLUMNS:
        return [f"bad CSV header {rows[:1]}"]
    float_grid = "epsilon_grid" in config
    grid = config["epsilon_grid"] if float_grid else config["log2_inv_eps_grid"]
    if len(rows) - 1 != len(grid):
        return [f"{len(rows) - 1} rows for {len(grid)} levels"]
    model = config["model"]
    two_sided = model["kind"] in ("poisson", "heat")
    total = config.get("sided", "one_sided") == "total" and two_sided
    problems: list[str] = []
    prev = None
    for j, (level, raw) in enumerate(zip(grid, rows[1:])):
        row = dict(zip(SWEEP_COLUMNS, raw))
        bad = lambda what: problems.append(f"row {j}: {what} ({raw})")  # noqa: E731
        if float_grid:
            eps, L = level, -math.log2(level)
            if _num(row["epsilon"]) != eps:
                bad("epsilon column")
        else:
            L = level
            eps = 2.0 ** -L if abs(L) <= 1022 else None
            if eps is not None and (_num(row["epsilon"]) if eps > 0 else None) != eps:
                bad("epsilon column")
        try:
            k0 = int(row["k0"])
        except ValueError:
            bad("k0 not an integer")
            continue
        if k0 != ref.k0_closed_form(model, eps if float_grid else None, L):
            bad("k0 != closed form")
        ks = np.arange(1, k0 + 1)
        one = float(np.sum(np.maximum(_log2_eigenvalues(model, ks) + L, 0.0)))
        lower = 2.0 * one + (L if L >= 0 else 0.0) if total else one
        if not close(_num(row["lower_bits"]), lower):
            bad(f"lower_bits != {lower!r}")
        logl = k0 * L + (1.0 if total and k0 > 0 else 0.0) if k0 else 0.0
        if not close(_num(row["logL_max"]), logl, rtol=1e-12, atol=0.0):
            bad(f"logL_max != k0*L = {logl!r}")
        k0q = ref.k0_closed_form(model, eps / 4.0 if float_grid else None, L + 2.0)
        applicable = -L < 2.0 + math.log2(ref.eigenvalue(model, 1)) and k0q >= 1
        upper = _num(row["upper_bits"])
        if applicable:
            m = 2 * k0q + 1 if total else k0q
            if not close(upper, m * (L + ref.LOG2_6 + 0.5 * math.log2(m))):
                bad("upper_bits != lattice bound")
            elif _num(row["lower_bits"]) is not None and not _num(row["lower_bits"]) <= upper:
                bad("lower_bits > upper_bits")
        elif upper is not None:
            bad("upper_bits given where the bound does not apply")

        if "rho" in config and eps is not None and eps > 0:
            problems += [f"row {j}: {p}" for p in _check_channel(config, eps, row)]
        elif any(row[c] for c in CHANNEL_COLUMNS + ("mse_mc_mean", "mse_mc_stderr")):
            bad("channel columns filled without a channel")

        if prev is not None:
            if k0 < prev["k0"]:
                bad("k0 decreased")
            if row["k_I"] and prev["k_I"] and int(row["k_I"]) < int(prev["k_I"]):
                bad("k_I decreased")
            if row["mse_closed"] and prev["mse_closed"] and not (
                    float(row["mse_closed"]) < float(prev["mse_closed"])):
                bad("mse_closed not strictly decreasing")
        prev = dict(row, k0=k0)
    return problems


def _check_channel(config: dict, eps: float, row: dict) -> list[str]:
    ch = ref.channel(config["model"], config["rho"], config["nu"], eps, config["k_max"])
    problems = []
    if row["k_I"] != str(ch["k_I"]):
        problems.append(f"k_I != {ch['k_I']}")
    if not close(_num(row["mse_closed"]), ch["mse"]):
        problems.append(f"mse_closed != {ch['mse']!r}")
    exact, approx = _num(row["exact_nats"]), _num(row["approx_nats"])
    if not close(exact, ch["exact"]) or not close(approx, ch["approx"]):
        problems.append(f"information != ({ch['exact']!r}, {ch['approx']!r})")
    elif not -1e-9 <= exact - approx <= ch["k_I"] * ref.HALF_LN2 + 1e-9 * abs(exact):
        problems.append("exact - approx outside [0, k_I ln2 / 2]")
    if not row["k_alpha"] or not 0 <= int(row["k_alpha"]) <= config["k_max"]:
        problems.append("k_alpha missing or out of range")
    trials = config.get("trials", 0)
    mean, stderr = _num(row["mse_mc_mean"]), _num(row["mse_mc_stderr"])
    if trials == 0:
        if mean is not None or stderr is not None:
            problems.append("Monte-Carlo columns filled with trials = 0")
    elif mean is None or (trials >= 2 and stderr is None):
        problems.append("Monte-Carlo columns missing")
    else:
        # the larger of the reported and the exact standard error, so a low
        # sample variance from few trials cannot turn a good mean into a failure
        se = max(stderr or 0.0, math.sqrt(ch["var"] / trials))
        if abs(mean - ch["mse"]) > MC_Z * se:
            problems.append(f"mse_mc_mean {mean!r} is more than {MC_Z} standard "
                            f"errors ({se:.3g}) from mse_closed {ch['mse']!r}")
    return problems


def check_sweep_files(config: dict, base: str, stdout: str, stderr: str) -> list[str]:
    expected = f"wrote {base}.csv\nwrote {base}.meta.json\n"
    if stdout != expected:
        return [f"unexpected stdout {stdout[:200]!r}"]
    if "violation" in stderr:
        return [f"stderr reports {stderr[:200]!r}"]
    with open(base + ".csv") as fh:
        text = fh.read()
    with open(base + ".meta.json") as fh:
        meta = json.load(fh)
    problems = check_sweep_csv(config, text)
    if meta.get("violations"):
        problems.append(f"metadata lists violations {meta['violations'][:3]}")
    if meta.get("trials") != config.get("trials", 0):
        problems.append("metadata trial count differs from the config")
    return problems


# ---------------------------------------------------------------------------
# Cold-start commands
# ---------------------------------------------------------------------------


def _check_table(stdout: str) -> list[str]:
    rows = list(csv.reader(io.StringIO(stdout)))
    if len(rows) != 1 + len(README_TABLE):
        return [f"table has {len(rows)} lines"]
    problems = []
    for got, want in zip(rows[1:], README_TABLE):
        for g, w in zip(got, want):
            ok = close(float(g), w) if isinstance(w, float) else g == w
            if not ok:
                problems.append(f"table row {got} differs from README {want}")
                break
    return problems


def _check_capacity(op: dict, stdout: str) -> list[str]:
    rows = list(csv.reader(io.StringIO(stdout)))
    if len(rows) != 2 or rows[0] != ["epsilon", "k0", "k0_quarter", "lower_bits",
                                     "upper_bits", "logL_max"]:
        return [f"bad capacity CSV {stdout[:200]!r}"]
    model = {"kind": "poisson", "a": op["a"], "b": 1.0}
    L = 1024.0
    k0 = ref.k0_closed_form(model, None, L)
    k0q = ref.k0_closed_form(model, None, L + 2.0)
    r = math.log2(1.0 / op["a"])
    lower = math.fsum(max(L - k * r, 0.0) for k in range(1, k0 + 1))
    upper = k0q * (L + ref.LOG2_6 + 0.5 * math.log2(k0q))
    got = rows[1]
    if got[0] != "pow2:-1024" or int(got[1]) != k0 or int(got[2]) != k0q:
        return [f"capacity cutoffs {got[:3]} != ({k0}, {k0q})"]
    if not (close(float(got[3]), lower) and close(float(got[4]), upper)
            and float(got[5]) == k0 * L):
        return [f"capacity bits {got[3:]} != ({lower!r}, {upper!r}, {k0 * L!r})"]
    return []


def _check_prob_info(stdout: str) -> list[str]:
    obj = json.loads(stdout)
    problems = [f"{key} = {obj.get(key)!r}, README {want!r}"
                for key, want in README_PROB_INFO.items()
                if not (obj.get(key) == want if isinstance(want, int)
                        else close(obj.get(key), want))]
    comps = obj.get("components", [])
    if len(comps) != 24:
        return problems + [f"{len(comps)} components"]
    for c in comps:
        ratio = 2.0 ** (4 - 2 * c["k"])     # lam rho / (eps nu) = 2^-k 2^-k / 2^-4
        want_J = 0.5 * math.log1p(ratio * ratio)
        if c["in_I"] != (ratio >= 1.0) or not close(c["J_nats"], want_J):
            problems.append(f"component {c}")
    return problems


def check_cli(op: dict, rc: int, stdout: str, stderr: str) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}: {stderr[-300:]!r}"]
    name = op["name"]
    try:
        if name == "table":
            return _check_table(stdout)
        if name == "capacity":
            return _check_capacity(op, stdout)
        if name == "truncate":
            obj = json.loads(stdout)
            want = {"epsilon": "0.1", "k0": 3, "k0_closed_form": 3}
            return [] if obj == want else [f"truncate output {obj} != README {want}"]
        if name == "prob-info":
            return _check_prob_info(stdout)
        return check_sweep_files(op["config"], op["out"], stdout, stderr)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        return [f"unreadable {name} output: {type(exc).__name__}: {exc}"]


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def check_nystrom(op: dict, leading: np.ndarray, size: int) -> list[str]:
    """``leading`` holds the first eigenvalues, ``size`` how many there were."""
    if size != op["n_nodes"]:
        return [f"{size} eigenvalues for {op['n_nodes']} nodes"]
    ks = np.arange(1, leading.size + 1)
    exact = 1.0 / (ks * math.pi) ** 2
    rel = np.abs(leading - exact) / exact
    if not rel.max() <= NYSTROM_RTOL:
        return [f"Nystrom eigenvalue rel. error {rel.max():.3g} > {NYSTROM_RTOL}"]
    return []


def check_packing(op: dict, count: int) -> list[str]:
    axes, eps = op["axes"], op["epsilon"]
    d = len(axes)
    lower = math.fsum(math.log2(a / eps) for a in axes)
    upper = d * (math.log2(1.0 / eps) + ref.LOG2_6 + 0.5 * math.log2(d))
    if not (isinstance(count, int) and count >= 1 and lower <= math.log2(count) <= upper):
        return [f"packing count {count!r} outside 2^[{lower:.3f}, {upper:.3f}]"]
    return []

