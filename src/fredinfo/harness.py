"""Simulation harness: seeded draws, Monte-Carlo risk, sweeps and tables.

Randomness comes from counter-based Philox streams, one per
``(seed, trial, role)`` — role 0 draws the prior coefficients, role 1 the
observation noise.  Each stream is consumed in order, component 1 first, so
asking for more components extends a trial's draws and never reshuffles them;
keying by trial means trial counts can change without touching any earlier
trial.  Runs are bit-reproducible across platforms (normals use numpy's
ziggurat over the Philox bit stream).  ``STREAM_SCHEME`` names this layout and
is recorded in every sweep's metadata.  Aggregation uses numpy's pairwise
summation in a fixed order, so repeated runs of the same config are
byte-identical apart from timestamps, which live only in the metadata
sidecar, never in the CSV body.
"""

from __future__ import annotations

import datetime as _dt
import functools
import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from . import metric
from .channel import (GaussianChannel, VarianceRule, _prior_energies, mse_closed_form,
                      k_alpha, partition_IN, rule_from_json, rule_to_json,
                      total_information)
from .errors import ValidationError
from .spectra import (CoefficientVector, SpectrumModel, csv_text, decoding,
                      model_from_json, model_to_json, refuse_unknown)
from .truncation import NoiseLevel, _noise_grid

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
    "summary_table_csv",
    "SWEEP_COLUMNS",
    "STREAM_SCHEME",
]

_KEY_SALT = 0x9E3779B97F4A7C15  # fixed odd constant, documented for reproducibility
_SEED_LIMIT = 1 << 128  # the Philox key holds 128 bits, so larger seeds would alias

# Names the draw layout below; bump it whenever the normals for a key change.
STREAM_SCHEME = "philox4x64/trial-role/2"


def _stream(seed: int, trial: int, role: int) -> np.random.Generator:
    key = np.asarray([seed & 0xFFFFFFFFFFFFFFFF,
                      ((seed >> 64) ^ _KEY_SALT) & 0xFFFFFFFFFFFFFFFF],
                     dtype=np.uint64)
    # Philox advances counter word 0 first, so it stays 0 here: a stream may
    # draw up to 2^66 words before it reaches the next (role, trial) start.
    counter = np.asarray([0, role, trial, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


@dataclass(frozen=True)
class TrialStream:
    """Handle for the substreams of one trial."""

    seed: int
    trial: int

    def __post_init__(self):
        if not 0 <= self.seed < _SEED_LIMIT or self.trial < 0:
            raise ValidationError("seed must lie in [0, 2**128) and trial must be >= 0")

    def prior_normals(self, k_max: int) -> np.ndarray:
        return _stream(self.seed, self.trial, 0).standard_normal(k_max)

    def noise_normals(self, k_max: int) -> np.ndarray:
        return _stream(self.seed, self.trial, 1).standard_normal(k_max)


def _embed(model: SpectrumModel, one_sided: np.ndarray) -> CoefficientVector:
    """Wrap per-component values as a model-native coefficient vector.

    One-sided models store them directly; two-sided models embed component k
    at lattice position +k (center and negative positions zero) — a labeling
    convention for the sequence-form channel, not a symmetry claim.
    """
    if not model.two_sided:
        return CoefficientVector(model, one_sided)
    K = one_sided.size
    entries = np.zeros(2 * K + 1, dtype=one_sided.dtype)
    entries[K + 1:] = one_sided
    return CoefficientVector(model, entries)


def _extract(channel: GaussianChannel, vec: CoefficientVector) -> np.ndarray:
    if not channel.model.two_sided:
        return vec.entries
    return vec.entries[vec.K + 1:]


def synthesize_solution(channel: GaussianChannel, stream: TrialStream) -> CoefficientVector:
    """Draw a random solution: component k gets ``N(0, rho_k^2)``."""
    _, rho, _ = channel.arrays()
    xi = rho * stream.prior_normals(channel.k_max)
    return _embed(channel.model, xi)


def simulate_channel(channel: GaussianChannel, xi: CoefficientVector,
                     stream: TrialStream) -> CoefficientVector:
    """Observe a solution through the channel: ``eta = lambda xi + eps nu N(0,1)``.

    With ``eps = 0`` this is exactly the forward map of ``xi``.
    """
    if xi.model != channel.model:
        raise ValidationError("simulate_channel: xi uses a different model")
    eps, lam, _, nu = channel.floats("simulate_channel")
    xi_comp = _extract(channel, xi)
    if xi_comp.size != channel.k_max:
        raise ValidationError("xi must cover exactly the channel components")
    eta = lam * xi_comp
    if eps > 0.0:
        eta = eta + eps * nu * stream.noise_normals(channel.k_max)
    return _embed(channel.model, eta)


@dataclass
class MonteCarloResult:
    mean: float
    stderr: float | None
    trials: int
    tail_sum_sq: float


@functools.lru_cache(maxsize=1)
def _trial_block(seed: int, trials: int, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Prior and noise normals of trials ``0 .. trials-1``, one row per trial.

    The normals do not depend on the noise level, so every row of a sweep
    scores against the one block remembered here.  Both arrays are read-only
    because every caller shares them.
    """
    prior = np.empty((trials, k_max))
    noise = np.empty((trials, k_max))
    for t in range(trials):
        stream = TrialStream(seed, t)
        prior[t] = stream.prior_normals(k_max)
        noise[t] = stream.noise_normals(k_max)
    prior.flags.writeable = False
    noise.flags.writeable = False
    return prior, noise


def monte_carlo_mse(channel: GaussianChannel, trials: int, seed: int) -> MonteCarloResult:
    """Empirical risk of the informative-set estimator.

    Per trial the squared error is accumulated over the stored components
    and the analytic prior tail beyond ``k_max`` is added, so the statistic
    is an unbiased estimate of the closed-form risk.  The standard error is
    reported from two trials up.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    _prior_energies(channel, "monte_carlo_mse")
    eps, lam, rho, nu = channel.floats("monte_carlo_mse")
    tail = channel.rho.sum_sq_tail(channel.k_max)
    prior, noise = _trial_block(seed, trials, channel.k_max)
    xi = rho * prior
    with np.errstate(over="ignore"):  # eps nu_k may overflow on N, where eta is unused
        eta = lam * xi + eps * nu * noise
    # divide only on I: lambda_k may underflow to 0 on N
    diff = xi - np.divide(eta, lam, out=np.zeros_like(eta), where=channel.informative)
    # one dot product per trial keeps each statistic bit-identical to that
    # trial scored alone
    stats = np.fromiter((d @ d + tail for d in diff), dtype=float, count=trials)
    if not np.isfinite(stats).all():
        raise ValidationError("monte_carlo_mse: the squared error overflows floats")
    mean = float(np.mean(stats))
    stderr = float(np.std(stats, ddof=1) / math.sqrt(trials)) if trials >= 2 else None
    return MonteCarloResult(mean=mean, stderr=stderr, trials=trials, tail_sum_sq=tail)


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
            self.epsilon_grid = tuple(level.given for level in self.levels)
        else:
            self.levels = _noise_grid([NoiseLevel(L) for L in self.log2_inv_eps_grid],
                                      "log2_inv_eps_grid")
            self.log2_inv_eps_grid = tuple(level.log2_inv_eps for level in self.levels)
        if not self.levels:
            raise ValidationError("the noise grid is empty")
        if (self.rho is None) != (self.nu is None):
            raise ValidationError("rho and nu must be given together")
        for name in ("trials", "seed", "k_max"):
            value = getattr(self, name)
            if name == "k_max" and value is None:
                continue
            # refused, not truncated: a float, bool or string is no count or seed
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValidationError(f"config {name} must be an integer, got {value!r}")
        if self.trials < 0:
            raise ValidationError("trials must be >= 0")
        if self.trials and self.rho is None:
            raise ValidationError("trials > 0 needs a channel (rho and nu)")
        if not 0 <= self.seed < _SEED_LIMIT:
            raise ValidationError("seed must be an integer in [0, 2**128)")
        if self.sided not in ("one_sided", "total"):
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


def _sweep_row(config: ExperimentConfig, level: NoiseLevel) -> dict:
    model = config.model
    bounds = metric.capacity_interval(model, level, sided=config.sided)
    row: dict = {"epsilon": level.reported, "k0": level.cutoff(model),
                 "lower_bits": bounds.lower_bits, "upper_bits": bounds.upper_bits,
                 "logL_max": metric.max_message_length_log2(model, level, sided=config.sided)}

    if config.rho is not None:
        chan = GaussianChannel(model, config.rho, config.nu, level, k_max=config.k_max)
        row["k_I"] = partition_IN(chan).k_I
        info = total_information(chan)
        row["exact_nats"] = info.exact_nats
        row["approx_nats"] = info.approx_nats
        if config.rho.is_trace_class:
            row["k_alpha"] = k_alpha(chan)
            row["mse_closed"] = mse_closed_form(chan)
            if config.trials >= 1 and chan.float_refusal is None:  # draws need floats
                mc = monte_carlo_mse(chan, config.trials, config.seed)
                row["mse_mc_mean"] = mc.mean
                row["mse_mc_stderr"] = mc.stderr
    return row


def convergence_sweep(config: ExperimentConfig) -> ExperimentResult:
    """Evaluate every budget along the config's noise grid.

    Produces one row per grid level and checks the expected monotonicity:
    ``k0`` and ``k_I`` never decrease and the closed-form risk strictly
    decreases as the level drops.  Violations are recorded per row pair —
    the run always completes.
    """
    rows = [_sweep_row(config, level) for level in config.levels]

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


def summary_table_csv(rows: Sequence[SummaryRow]) -> str:
    names = [f.name for f in fields(SummaryRow)]
    return csv_text(names, ([getattr(r, name) for name in names] for r in rows))
