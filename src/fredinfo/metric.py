"""Metric information budgets: entropy/capacity bounds and growth orders.

All bit counts use base-2 logarithms and are evaluated purely in the log
domain (eigenvalues enter as ``log2 lambda_k``), so noise levels down to
``2**-4096`` — passed as ``NoiseLevel(4096)``, which carries the exponent
``log2(1/eps)`` — produce finite answers without ever forming an
underflowing float.  Every level argument takes a float or a ``NoiseLevel``.

For a noise level ``eps`` the recoverable-information interval is::

    lower = sum_{k <= k0(eps)} log2(lambda_k / eps)            (volume bound)
    upper = k0(eps/4) * [log2(1/eps) + log2 6 + 1/2 log2 k0(eps/4)]

with entropy <= capacity sandwiched between them.  ``sided="total"`` applies
the same formulas to the multiplicity-expanded axis list of two-sided models
(center axis ``lambda_0 = 1`` included); one-sided models are unaffected.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import (NumericError, PreconditionError, UnsupportedError,
                     ValidationError)
from .spectra import SpectrumModel
from .truncation import NoiseLevel, _noise_grid, k0

__all__ = [
    "entropy_lower_bound",
    "entropy_upper_bound",
    "CapacityBounds",
    "capacity_interval",
    "max_message_length_log2",
    "FitDiagnostics",
    "GrowthEstimate",
    "growth_orders",
    "greedy_packing_count",
]

_LOG2_6 = math.log2(6.0)
_SIDED = ("one_sided", "total")
_RHO_THRESHOLD = 0.05


def _check_sided(sided: str) -> None:
    if sided not in _SIDED:
        raise ValidationError(f"sided must be one of {_SIDED}, got {sided!r}")


def entropy_lower_bound(model: SpectrumModel, epsilon: float | NoiseLevel, *,
                        sided: str = "one_sided") -> float:
    """Volume lower bound on the eps-entropy, in bits.

    ``sum_{k=1}^{k0} log2(lambda_k / eps)``; zero when no eigenvalue reaches
    the noise level (empty product).  The total variant of two-sided models
    doubles the sum and adds the center-axis term ``log2(1/eps)`` when the
    center survives (``eps <= 1``).
    """
    _check_sided(sided)
    level = NoiseLevel.of(epsilon)
    L = level.log2_inv_eps
    cut = level.cutoff(model)
    if cut == 0:
        one = 0.0
    else:
        ks = np.arange(1, cut + 1)
        terms = model.log2_eigenvalues(ks) + L
        one = float(np.sum(np.maximum(terms, 0.0)))
    if sided == "one_sided" or not model.two_sided:
        return one
    center = L if L >= 0.0 else 0.0  # lambda_0 = 1 survives iff eps <= 1
    return 2.0 * one + center


def entropy_upper_bound(model: SpectrumModel, epsilon: float | NoiseLevel, *,
                        sided: str = "one_sided") -> float:
    """Lattice upper bound on the eps-entropy, in bits.

    ``m * [log2(1/eps) + log2 6 + 1/2 log2 m]`` with ``m = k0(eps/4)`` (the
    total variant of two-sided models uses ``m = 2 k0(eps/4) + 1``).  Only
    applicable when ``eps < 4 lambda_1`` and ``k0(eps/4) >= 1``; outside that
    regime a validation error reports the bound as not applicable.
    """
    _check_sided(sided)
    level = NoiseLevel.of(epsilon)
    cut_q = level.quarter.cutoff(model)
    if cut_q < 1 or not level.below_4_lambda_1(model):
        raise PreconditionError(
            "upper bound not applicable: requires eps < 4*lambda_1 and "
            "k0(eps/4) >= 1",
            k0_eps_over_4=cut_q)
    m = cut_q
    if sided == "total" and model.two_sided:
        m = 2 * cut_q + 1
    return m * (level.log2_inv_eps + _LOG2_6 + 0.5 * math.log2(m))


@dataclass
class CapacityBounds:
    """Two-sided sandwich for the capacity at one noise level (bits)."""

    epsilon: float | None
    log2_inv_eps: float
    k0_eps: int
    k0_eps_over_4: int
    lower_bits: float
    upper_bits: float | None
    sided: str

    def to_json(self) -> dict:
        return asdict(self)


def capacity_interval(model: SpectrumModel, epsilon: float | NoiseLevel, *,
                      sided: str = "one_sided") -> CapacityBounds:
    """Both entropy bounds plus the cutoffs they rest on.

    The lower bound never exceeds the upper one; counts are multiplicity
    weighted when ``sided="total"``.  When the upper bound's precondition
    fails, ``upper_bits`` is ``None`` rather than an error so sweeps can
    cover coarse noise levels.  Each of ``k0(eps)`` and ``k0(eps/4)`` is
    scanned once (the level remembers its cutoffs).
    """
    _check_sided(sided)
    level = NoiseLevel.of(epsilon)
    L = level.log2_inv_eps
    lower = entropy_lower_bound(model, level, sided=sided)
    try:
        upper = entropy_upper_bound(model, level, sided=sided)
    except PreconditionError:
        upper = None
    cut = level.cutoff(model)
    cut_q = level.quarter.cutoff(model)
    if sided == "total" and model.two_sided:
        cut = 2 * cut + (1 if L >= 0.0 else 0)
        cut_q = 2 * cut_q + (1 if L + 2.0 >= 0.0 else 0)
    return CapacityBounds(
        epsilon=level.epsilon,
        log2_inv_eps=L,
        k0_eps=cut,
        k0_eps_over_4=cut_q,
        lower_bits=lower,
        upper_bits=upper,
        sided=sided,
    )


def max_message_length_log2(model: SpectrumModel, epsilon: float | NoiseLevel, *,
                            sided: str = "one_sided") -> float:
    """log2 of the longest reliably decodable message count.

    Leading-order budget ``k0(eps) * log2(1/eps)``; the two-sided total adds
    exactly one bit.  Zero when nothing survives the cutoff.
    """
    _check_sided(sided)
    level = NoiseLevel.of(epsilon)
    cut = level.cutoff(model)
    if cut == 0:
        return 0.0
    bits = cut * level.log2_inv_eps
    if sided == "total" and model.two_sided:
        bits += 1.0
    return bits


# ---------------------------------------------------------------------------
# Growth orders
# ---------------------------------------------------------------------------


@dataclass
class FitDiagnostics:
    slope: float
    intercept: float
    rms_residual: float


@dataclass
class GrowthEstimate:
    """Least-squares growth orders of the cutoff along a noise grid.

    ``lambda_hat`` is the slope of ``log k0`` against ``log(1/eps)``;
    ``mu_hat`` the slope against ``log log(1/eps)``.  ``rho_hat`` equals
    ``lambda_hat``; when it sits below the 0.05 threshold the exponential
    order ``sigma_hat = mu_hat + 1`` takes over and the capacity dimension is
    reported as ``d_c_exp = 2**(1/sigma_hat)``, otherwise as
    ``d_c = 1/rho_hat``.  Exactly one of the two is populated.
    """

    lambda_hat: float
    mu_hat: float
    rho_hat: float
    sigma_hat: float
    d_c: float | None
    d_c_exp: float | None
    lambda_fit: FitDiagnostics
    mu_fit: FitDiagnostics

    def to_json(self) -> dict:
        return asdict(self)


def _least_squares(x: np.ndarray, y: np.ndarray) -> FitDiagnostics:
    A = np.vstack([x, np.ones_like(x)]).T
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ sol
    return FitDiagnostics(float(sol[0]), float(sol[1]),
                          float(np.sqrt(np.mean(resid ** 2))))


def growth_orders(model: SpectrumModel, epsilons: Sequence[float | NoiseLevel]) -> GrowthEstimate:
    """Fit the cutoff's growth orders on a decreasing log-spaced noise grid.

    Each level is a plain float or a :class:`NoiseLevel`; exponent levels
    (``NoiseLevel(L)`` for ``2**-L``) keep levels down to ``2**-4096`` exact.
    Requires at least 8 points spanning at least 4 decades, all below
    ``lambda_1``.  Counting uses the enumerative cutoff.
    """
    levels = _noise_grid(epsilons, "the growth-order grid")
    Ls = np.asarray([level.log2_inv_eps for level in levels])
    cuts = np.asarray([k0(model, level) for level in levels], dtype=float)

    if Ls.size < 8:
        raise ValidationError(f"need at least 8 grid points, got {Ls.size}")
    span_decades = (Ls[-1] - Ls[0]) * math.log10(2.0)
    if span_decades < 4.0:
        raise ValidationError(
            f"grid spans {span_decades:.2f} decades, need at least 4")
    log2_lam1 = float(model.log2_eigenvalues(np.asarray([1]))[0])
    if np.any(Ls <= -log2_lam1):
        raise ValidationError("all grid levels must lie strictly below lambda_1")
    if np.any(cuts < 1):
        raise NumericError("cutoff vanished on an admissible grid point")

    x = Ls * math.log(2.0)          # ln(1/eps)
    y = np.log(cuts)                # ln k0
    lam_fit = _least_squares(x, y)
    mu_fit = _least_squares(np.log(x), y)

    lambda_hat = lam_fit.slope
    mu_hat = mu_fit.slope
    rho_hat = lambda_hat
    sigma_hat = mu_hat + 1.0
    if rho_hat >= _RHO_THRESHOLD:
        d_c: float | None = 1.0 / rho_hat
        d_c_exp: float | None = None
    else:
        d_c = None
        d_c_exp = 2.0 ** (1.0 / sigma_hat)
    return GrowthEstimate(lambda_hat, mu_hat, rho_hat, sigma_hat,
                          d_c, d_c_exp, lam_fit, mu_fit)


# ---------------------------------------------------------------------------
# Greedy packing oracle (dimensions <= 3)
# ---------------------------------------------------------------------------

_PACKING_CANDIDATE_CAP = 50_000_000


def greedy_packing_count(semi_axes: Sequence[float], epsilon: float,
                         grid_step: float) -> int:
    """Size of a greedy eps-distinguishable subset of a small ellipsoid.

    Grid points inside the (closed) ellipsoid are scanned in lexicographic
    order; a point is kept when its distance to every kept point strictly
    exceeds ``eps``.  The scan order makes the count deterministic.  Only
    dimensions up to 3 are supported (cost grows with the grid volume);
    zero semi-axes drop their dimension.

    ``grid_step`` must not exceed ``eps / 4`` so the grid resolves the
    packing scale.
    """
    axes = [float(a) for a in semi_axes]
    if not axes:
        raise ValidationError("need at least one semi-axis")
    if any(a < 0 or not math.isfinite(a) for a in axes):
        raise ValidationError("semi-axes must be non-negative and finite")
    eps = float(epsilon)
    if not (eps > 0) or not math.isfinite(eps):
        raise ValidationError("epsilon must be positive")
    h = float(grid_step)
    if not (0 < h <= eps / 4.0):
        raise ValidationError("grid_step must satisfy 0 < grid_step <= epsilon/4")

    live = [a for a in axes if a > 0]
    if len(live) > 3:
        raise UnsupportedError(
            f"packing supports at most 3 dimensions, got {len(live)}")
    if not live:
        return 1  # the ellipsoid degenerates to the single point 0

    grids = []
    total = 1
    for a in live:
        n = int(math.floor(2.0 * a / h + 1e-9)) + 1
        grids.append(-a + h * np.arange(n))
        total *= n
    if total > _PACKING_CANDIDATE_CAP:
        raise NumericError(
            f"packing grid has {total} candidates (cap {_PACKING_CANDIDATE_CAP}); "
            "coarsen grid_step or raise epsilon")

    d = len(live)
    inv_axes2 = [1.0 / (a * a) for a in live]
    eps2 = eps * eps
    inv_eps = 1.0 / eps
    kept_cells: dict[tuple, list] = {}
    count = 0
    neighbor_offsets = list(itertools.product((-1, 0, 1), repeat=d))
    for p in itertools.product(*grids):
        q = 0.0
        for i in range(d):
            q += p[i] * p[i] * inv_axes2[i]
        if q > 1.0 + 1e-12:
            continue
        cell = tuple(int(math.floor(c * inv_eps)) for c in p)
        ok = True
        for off in neighbor_offsets:
            bucket = kept_cells.get(tuple(c + o for c, o in zip(cell, off)))
            if not bucket:
                continue
            for kept in bucket:
                dist2 = 0.0
                for i in range(d):
                    dd = p[i] - kept[i]
                    dist2 += dd * dd
                if dist2 <= eps2:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            kept_cells.setdefault(cell, []).append(p)
            count += 1
    return count
