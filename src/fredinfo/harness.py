"""Simulation harness: seeded draws, Monte-Carlo risk, sweeps and tables.

Randomness comes from counter-based Philox streams, one per
``(seed, trial, role)`` — role 0 draws the prior coefficients, role 1 the
observation noise.  Each stream is consumed in order, component 1 first, so
asking for more components extends a trial's draws and never reshuffles them;
keying by trial means trial counts can change without touching any earlier
trial.  The draws are the same on every platform (normals use numpy's
ziggurat over the Philox bit stream).  ``STREAM_SCHEME`` names this layout and
is recorded in every sweep's metadata.  Trial errors and aggregates use
numpy's pairwise summation, in an order that no BLAS kernel changes, so
repeated runs of the same config are byte-identical apart from timestamps,
which live only in the metadata sidecar, never in the CSV body.

A sweep certifies the cutoffs of all its levels (and their quarters) in one
pass, then reads each row's metric columns from ``capacity_interval`` and
``max_message_length_log2``, as the ``capacity`` command does.  It builds one
channel for all its levels (:class:`channel._Rows`) and draws one trial block
for that sweep; nothing is remembered between sweeps.  The row kernels
(``k_I``, the information sums, ``k_alpha``) are evaluated for all rows at
once, and the Monte-Carlo columns of all levels, with or without a float,
are scored together on the trial block, in slabs of bounded size.
The single-level functions read the same kernels, so each row equals them bit
for bit.  The loop still takes one row at a time and each row raises its own
faults, so a run ends on the first fault met row by row.
"""

from __future__ import annotations

import datetime as _dt
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import metric
from .channel import GaussianChannel, VarianceRule, _Rows, rule_from_json, rule_to_json
from .errors import ValidationError
from .spectra import (CoefficientVector, SpectrumModel, _check_k_max, _check_size, _require_int,
                      csv_text, decoding, model_from_json, model_to_json, refuse_unknown)
from .truncation import NoiseLevel, _cutoffs, _noise_grid

__all__ = [
    "TrialStream",
    "synthesize_solution",
    "simulate_channel",
    "MonteCarloResult",
    "monte_carlo_mse",
    "ExperimentConfig",
    "ExperimentResult",
    "convergence_sweep",
    "SummaryRow",
    "reproduce_summary_table",
]

_KEY_SALT = 0x9E3779B97F4A7C15  # fixed odd constant, documented for reproducibility
_SEED_LIMIT = 1 << 128  # the Philox key holds 128 bits, so larger seeds would alias
_SLAB = 1 << 16  # elements per (levels, trials, k_max) slab of the Monte-Carlo scoring
_SCALED = 2.0 ** 500  # a row with a larger statistic is scored divided by a power of two

# Names the draw layout below; bump it whenever the normals for a key change.
STREAM_SCHEME = "philox4x64/trial-role/2"


def _stream(seed: int, trial: int, role: int,
            gen: np.random.Generator | None = None) -> np.random.Generator:
    """A Philox generator at the start of stream ``(seed, trial, role)``: ``gen``
    re-keyed in place, else a new one."""
    key = np.asarray([seed & 0xFFFFFFFFFFFFFFFF,
                      ((seed >> 64) ^ _KEY_SALT) & 0xFFFFFFFFFFFFFFFF],
                     dtype=np.uint64)
    # Philox advances counter word 0 first, so it stays 0 here: a stream may
    # draw up to 2^66 words before it reaches the next (role, trial) start.
    counter = np.asarray([0, role, trial, 0], dtype=np.uint64)
    if gen is None:
        gen = np.random.Generator(np.random.Philox(key=key))
    # an empty buffer: the first draw starts the block after `counter`
    gen.bit_generator.state = {"bit_generator": "Philox",
                               "state": {"counter": counter, "key": key},
                               "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                               "has_uint32": 0, "uinteger": 0}
    return gen


def _check_stream(seed: int, trial: int) -> tuple[int, int]:
    """``(seed, trial)`` as Python ints, refused unless ``0 <= seed < 2**128``, ``trial >= 0``."""
    seed, trial = _require_int(seed, "seed", _SEED_LIMIT), _require_int(trial, "trial")
    if not 0 <= seed < _SEED_LIMIT or trial < 0:
        raise ValidationError("seed must lie in [0, 2**128) and trial must be >= 0")
    return seed, trial


@dataclass(frozen=True)
class TrialStream:
    """Handle for the substreams of one trial."""

    seed: int
    trial: int

    def __post_init__(self):
        seed, trial = _check_stream(self.seed, self.trial)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "trial", trial)

    def prior_normals(self, k_max: int) -> np.ndarray:
        size = _check_size(_check_k_max(k_max), "k_max")
        return _stream(self.seed, self.trial, 0).standard_normal(size)

    def noise_normals(self, k_max: int) -> np.ndarray:
        size = _check_size(_check_k_max(k_max), "k_max")
        return _stream(self.seed, self.trial, 1).standard_normal(size)


def synthesize_solution(channel: GaussianChannel, stream: TrialStream) -> CoefficientVector:
    """Draw a random solution: component k gets ``N(0, rho_k^2)``."""
    _, rho, _ = channel.arrays()
    xi = rho * stream.prior_normals(channel.k_max)
    return CoefficientVector.from_components(channel.model, xi)


def simulate_channel(channel: GaussianChannel, xi: CoefficientVector,
                     stream: TrialStream) -> CoefficientVector:
    """Observe a solution through the channel: ``eta = lambda xi + eps nu N(0,1)``.

    With ``eps = 0`` this is exactly the forward map of ``xi``; with noise the
    level needs a float.  An ``eta_k`` that is not a finite float is refused.
    """
    if xi.model != channel.model:
        raise ValidationError("simulate_channel: xi uses a different model")
    eps = 0.0 if channel.level is None else channel.level.require_epsilon("simulate_channel")
    lam, _, nu = channel.arrays()
    xi_comp = xi.components()
    if xi_comp.size != channel.k_max:
        raise ValidationError("xi must cover exactly the channel components")
    with np.errstate(all="ignore"):
        eta = lam * xi_comp
        if eps > 0.0:
            eta = eta + eps * nu * stream.noise_normals(channel.k_max)
    bad = np.flatnonzero(~np.isfinite(eta))
    if bad.size:
        raise ValidationError(f"simulate_channel: eta_{bad[0] + 1} is not a finite float")
    return CoefficientVector.from_components(channel.model, eta)


@dataclass
class MonteCarloResult:
    mean: float
    stderr: float | None
    trials: int
    tail_sum_sq: float


def _trial_block(seed: int, trials: int, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Prior and noise normals of trials ``0 .. trials-1``, one row per trial,
    drawn by one generator re-keyed to each stream in turn."""
    seed, _ = _check_stream(seed, 0)
    _check_size(trials * k_max, "trials x k_max")
    prior = np.empty((trials, k_max))
    noise = np.empty((trials, k_max))
    gen = None
    for t in range(trials):
        gen = _stream(seed, t, 0, gen)
        gen.standard_normal(out=prior[t])
        _stream(seed, t, 1, gen).standard_normal(out=noise[t])
    return prior, noise


def _monte_carlo(rows: _Rows, xi: np.ndarray,
                 noise: np.ndarray) -> list[MonteCarloResult | None]:
    """Score every row on one trial block: prior draws ``xi = rho * N(0,1)``
    and noise normals ``z``, one row per trial.

    On I the trial error ``xi_k - eta_k / lambda_k`` is
    ``-(eps nu_k / lambda_k) z_k``, whose square is the row's
    ``inverted_risk_k z_k^2``; on N it is ``xi_k``.  So no row forms ``eps``,
    ``eta`` or a quotient by ``lambda_k``: every level is scored, also below
    float range and where ``lambda_k`` underflows on I.  Each trial's squares
    are added by numpy's pairwise sum, in an order fixed by numpy's code, not
    by a BLAS kernel, and the same as when the row is scored alone.

    Rows are scored together, a slab at a time: as many rows as fit in
    ``_SLAB`` elements of ``(rows, trials, k_max)``, and at least one, so
    memory stays O(trials x k_max).  A row whose squared error overflows
    floats maps to None; :func:`_scored` raises when that row is read.
    """
    tail = rows.tail
    trials, k_max = xi.shape
    step = max(1, _SLAB // (trials * k_max))
    results: list[MonteCarloResult | None] = []
    # a squared error past the float range is refused when its row is read
    with np.errstate(over="ignore"):
        noise_sq, prior_sq = noise * noise, xi * xi
    for start in range(0, len(rows.levels), step):
        slab = slice(start, start + step)
        with np.errstate(over="ignore"):  # inverted_risk_k z_k^2 may overflow on N, unused there
            terms = np.where(rows.informative[slab, None],
                             rows.inverted_risk[slab, None] * noise_sq, prior_sq)
            stats = terms.sum(axis=-1) + tail
        finite = np.isfinite(stats).all(axis=1)
        kept = stats[finite]  # the statistics of an overflowed row are not reduced
        # np.std squares deviations, which overflow past 2^512: score such a row
        # divided by 2^e, which is exact, and multiply back (other rows: e = 0)
        top = kept.max(axis=1)
        scale = np.ldexp(1.0, -np.where(top > _SCALED, np.frexp(top)[1], 0))
        kept = kept * scale[:, None]
        means = (np.mean(kept, axis=1) / scale).tolist()
        stderrs = ((np.std(kept, axis=1, ddof=1) / math.sqrt(trials) / scale).tolist()
                   if trials >= 2 else [None] * len(means))
        pairs = zip(means, stderrs)
        results += [MonteCarloResult(*next(pairs), trials, tail) if ok else None
                    for ok in finite.tolist()]
    return results


def _scored(results: list[MonteCarloResult | None], i: int) -> MonteCarloResult:
    """Row ``i``'s Monte-Carlo result from :func:`_monte_carlo`."""
    result = results[i]
    if result is None:
        raise ValidationError("monte_carlo_mse: the squared error overflows floats")
    return result


def monte_carlo_mse(channel: GaussianChannel, trials: int, seed: int) -> MonteCarloResult:
    """Empirical risk of the informative-set estimator.

    Per trial the squared error is accumulated over the stored components
    and the analytic prior tail beyond ``k_max`` is added, so the statistic
    is an unbiased estimate of the closed-form risk.  The standard error is
    reported from two trials up.
    """
    if _require_int(trials, "trials") < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    rows = channel._rows
    rows.energies("monte_carlo_mse")
    rows.tail  # an uncertified tail fails before any draw
    prior, noise = _trial_block(seed, trials, channel.k_max)
    return _scored(_monte_carlo(rows, rows.arrays[1] * prior, noise), 0)


# ---------------------------------------------------------------------------
# Experiment configs and sweeps
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """Declarative description of one sweep run.

    Exactly one of ``epsilon_grid`` (decreasing floats) or
    ``log2_inv_eps_grid`` (increasing exponents) must be present.  The
    channel part (``rho``/``nu``) is optional; without it only the metric
    columns are produced.  ``trials >= 100`` is expected for any statistical
    claim; smaller values still run (stderr is absent below 2 trials).
    """

    model: SpectrumModel
    epsilon_grid: tuple[float, ...] | None = None
    log2_inv_eps_grid: tuple[float, ...] | None = None
    rho: VarianceRule | None = None
    nu: VarianceRule | None = None
    trials: int = 0
    seed: int = 0
    k_max: int | None = None
    sided: str = "one_sided"
    # the grid's levels, built once from whichever grid field is present
    levels: list[NoiseLevel] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.epsilon_grid is None) == (self.log2_inv_eps_grid is None):
            raise ValidationError("give exactly one of epsilon_grid or log2_inv_eps_grid")
        if self.epsilon_grid is not None:
            self.levels = _noise_grid(self.epsilon_grid, "epsilon_grid")
            self.epsilon_grid = tuple(level.epsilon for level in self.levels)
        else:
            self.levels = _noise_grid([NoiseLevel(L) for L in self.log2_inv_eps_grid],
                                      "log2_inv_eps_grid")
            self.log2_inv_eps_grid = tuple(level.log2_inv_eps for level in self.levels)
        if not self.levels:
            raise ValidationError("the noise grid is empty")
        if (self.rho is None) != (self.nu is None):
            raise ValidationError("rho and nu must be given together")
        # refused, not truncated: a float, bool or string is no count or seed
        self.trials = _require_int(self.trials, "config trials")
        self.seed = _require_int(self.seed, "config seed", _SEED_LIMIT)
        if self.k_max is not None:
            self.k_max = _check_k_max(self.k_max, "config k_max")
        if self.trials < 0:
            raise ValidationError("trials must be >= 0")
        if self.trials and self.rho is None:
            raise ValidationError("trials > 0 needs a channel (rho and nu)")
        if not 0 <= self.seed < _SEED_LIMIT:
            raise ValidationError("seed must be an integer in [0, 2**128)")
        if self.sided not in metric._SIDED:
            raise ValidationError(f"bad sided value {self.sided!r}")

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        obj: dict = {"model": model_to_json(self.model)}
        if self.epsilon_grid is not None:
            obj["epsilon_grid"] = list(self.epsilon_grid)
        else:
            obj["log2_inv_eps_grid"] = list(self.log2_inv_eps_grid)
        if self.rho is not None:
            obj["rho"] = rule_to_json(self.rho)
            obj["nu"] = rule_to_json(self.nu)
        obj["trials"] = self.trials
        obj["seed"] = self.seed
        if self.k_max is not None:
            obj["k_max"] = self.k_max
        obj["sided"] = self.sided
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ValidationError("config JSON must be an object")
        refuse_unknown(obj, {f.name for f in fields(cls) if f.init}, "config JSON")
        with decoding("config JSON"):
            return cls(
                model=model_from_json(obj["model"]),
                epsilon_grid=tuple(obj["epsilon_grid"]) if "epsilon_grid" in obj else None,
                log2_inv_eps_grid=(tuple(obj["log2_inv_eps_grid"])
                                   if "log2_inv_eps_grid" in obj else None),
                rho=rule_from_json(obj["rho"]) if "rho" in obj else None,
                nu=rule_from_json(obj["nu"]) if "nu" in obj else None,
                trials=obj.get("trials", 0),
                seed=obj.get("seed", 0),
                k_max=obj.get("k_max"),
                sided=obj.get("sided", "one_sided"),
            )

    def canonical_json(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        # imported here: OpenSSL's binding costs about 3.6 MB of RSS, and only
        # sweep metadata needs it
        import hashlib

        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


SWEEP_COLUMNS = ("epsilon", "k0", "k_I", "k_alpha", "mse_closed",
                 "mse_mc_mean", "mse_mc_stderr", "lower_bits", "upper_bits",
                 "logL_max", "exact_nats", "approx_nats")


@dataclass
class ExperimentResult:
    rows: list[dict]
    violations: list[str]
    metadata: dict

    def to_csv(self) -> str:
        return csv_text(SWEEP_COLUMNS, ([row.get(col) for col in SWEEP_COLUMNS]
                                        for row in self.rows))

    def write(self, base_path: str) -> tuple[str, str]:
        csv_path = base_path + ".csv"
        meta_path = base_path + ".meta.json"
        with open(csv_path, "w") as fh:
            fh.write(self.to_csv())
        with open(meta_path, "w") as fh:
            json.dump(self.metadata, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return csv_path, meta_path


def convergence_sweep(config: ExperimentConfig) -> ExperimentResult:
    """Evaluate every budget along the config's noise grid.

    Produces one row per grid level and checks the expected monotonicity:
    ``k0`` and ``k_I`` never decrease and the closed-form risk strictly
    decreases as the level drops.  Violations are recorded per row pair —
    the run always completes.
    """
    rows: list[dict] = []
    chan = mc = None
    model, levels = config.model, config.levels
    # one certification pass; the levels remember the cutoffs, and a refused
    # one raises when its row reads it
    _cutoffs(model, [*levels, *(level.quarter for level in levels)])
    for i, level in enumerate(levels):
        bounds = metric.capacity_interval(model, level, sided=config.sided)
        row = {"epsilon": level.reported, "k0": level.cutoff(model),
               "lower_bits": bounds.lower_bits, "upper_bits": bounds.upper_bits,
               "logL_max": metric.max_message_length_log2(model, level, sided=config.sided)}
        rows.append(row)
        if config.rho is None:
            continue
        if chan is None:  # a channel fault follows row 0's metric columns
            chan = _Rows(model, config.rho, config.nu, config.k_max, levels)
        row["k_I"] = chan.k_I(i)
        info = chan.information(i)
        row["exact_nats"] = info.exact_nats
        row["approx_nats"] = info.approx_nats
        if config.rho.is_trace_class:
            row["k_alpha"] = chan.k_alpha(i)
            row["mse_closed"] = chan.mse(i)
            if config.trials >= 1:
                if mc is None:  # one trial block scores every level
                    prior, noise = _trial_block(config.seed, config.trials, chan.k_max)
                    mc = _monte_carlo(chan, chan.arrays[1] * prior, noise)
                result = _scored(mc, i)
                row["mse_mc_mean"] = result.mean
                row["mse_mc_stderr"] = result.stderr

    violations: list[str] = []
    for i in range(len(rows) - 1):
        a, b = rows[i], rows[i + 1]
        if b["k0"] < a["k0"]:
            violations.append(f"rows {i}->{i + 1}: k0 decreased ({a['k0']} -> {b['k0']})")
        if a.get("k_I") is not None and b.get("k_I") is not None and b["k_I"] < a["k_I"]:
            violations.append(f"rows {i}->{i + 1}: k_I decreased ({a['k_I']} -> {b['k_I']})")
        ma, mb = a.get("mse_closed"), b.get("mse_closed")
        if ma is not None and mb is not None and not (mb < ma):
            violations.append(
                f"rows {i}->{i + 1}: mse_closed not strictly decreasing "
                f"({ma:.6g} -> {mb:.6g})")

    metadata = {
        "config": config.to_json(),
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "trials": config.trials,
        "stream_scheme": STREAM_SCHEME,
        "created_utc": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "violations": violations,
    }
    return ExperimentResult(rows=rows, violations=violations, metadata=metadata)


# ---------------------------------------------------------------------------
# Summary table
# ---------------------------------------------------------------------------


@dataclass
class SummaryRow:
    model: str
    decay: str
    logL_exponent: float
    logL_exponent_target: float
    d_c_estimate: float
    d_c_target: float
    within_5pct: bool


def reproduce_summary_table() -> list[SummaryRow]:
    """Growth-order summary for the three reference spectra.

    For the exponentially decaying families the message-length budget scales
    like a power of ``log(1/eps)`` (fitted exponents 2 and 3/2); for the
    power-law family the cutoff itself scales like ``eps^{-1/2}`` (fitted as
    the epsilon-power of k0) and the capacity dimension is 2.  Both come from
    :func:`metric.growth_orders`: ``logL_exponent`` is its ``sigma_hat`` and
    ``d_c_estimate`` its ``d_c_exp`` for an exponential order, else ``lambda_hat``
    and ``d_c``.
    """
    from .spectra import green_model, heat_model, poisson_model

    exp_levels = [NoiseLevel(2.0 ** j) for j in range(4, 13)]  # log2(1/eps): 16 .. 4096
    eps_levels = [NoiseLevel.of(10.0 ** (-p)) for p in range(2, 11)]
    rows: list[SummaryRow] = []
    for model, label, decay, levels, target_exp, d_target in (
            (poisson_model(0.5, 1.0), "poisson", "geometric: (a/b)^|k|", exp_levels,
             2.0, 2.0 ** 0.5),
            (heat_model(1.0, 2.0, 1.0), "heat", "gaussian: exp(-D k^2 (a-b))", exp_levels,
             1.5, 2.0 ** (2.0 / 3.0)),
            (green_model(), "green", "power law: 1/(k^2 pi^2)", eps_levels, 0.5, 2.0)):
        est = metric.growth_orders(model, levels)
        if est.d_c is None:  # exponential order
            slope, d_est = est.sigma_hat, est.d_c_exp
        else:  # power order
            slope, d_est = est.lambda_hat, est.d_c
        rows.append(SummaryRow(
            model=label, decay=decay, logL_exponent=slope,
            logL_exponent_target=target_exp, d_c_estimate=d_est,
            d_c_target=d_target,
            within_5pct=abs(d_est - d_target) <= 0.05 * d_target))
    return rows
