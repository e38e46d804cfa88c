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
A sweep's metric columns come from ``_grid``: one certification pass over the
levels and their quarters, then each level's bounds as ``capacity_interval``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import (NumericError, PreconditionError, UnsupportedError,
                     ValidationError)
from .spectra import FAMILIES, SpectrumModel
from .truncation import NoiseLevel, _cutoffs, _noise_grid

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


def _sides(model: SpectrumModel, level: NoiseLevel, sided: str) -> tuple[int, int]:
    """``(factor, center)``: the ``sided`` count of a one-sided count ``c`` at
    ``level`` is ``factor * c + center``.  The total of a two-sided model counts
    each ``|k| >= 1`` twice and the center ``lambda_0 = 1`` when ``eps <= 1``."""
    if sided not in _SIDED:
        raise ValidationError(f"sided must be one of {_SIDED}, got {sided!r}")
    if sided == "one_sided" or not model.two_sided:
        return 1, 0
    return 2, int(level._keeps_center())


def _lower(model: SpectrumModel, level: NoiseLevel, cut: int,
           factor: int = 1, center: int = 0) -> float:
    """The volume bound at ``level`` over the one-sided indices ``k <= cut`` (:func:`_sides`)."""
    L = level.log2_inv_eps
    one = max(0.0, cut * L + FAMILIES[model.kind].log2_sum(model.params, cut))
    return factor * one + center * max(L, 0.0)


def entropy_lower_bound(model: SpectrumModel, epsilon: float | NoiseLevel, *,
                        sided: str = "one_sided") -> float:
    """Volume lower bound on the eps-entropy, in bits.

    ``sum_{k=1}^{k0} log2(lambda_k / eps) = k0 log2(1/eps) + S(k0)``, O(1) in
    ``k0``: the family's eigenvalue sum ``S(c) = sum_{k<=c} log2 lambda_k`` is
    ``-r c(c+1)/2`` with ``r = log2(b/a)`` (poisson), ``-D(a-b) log2(e)
    c(c+1)(2c+1)/6`` (heat), ``-2 c log2(pi) - 2 log2(c!)`` (green) or the
    table's sum (tabulated); the per-term array sum is the test oracle.  Zero
    when no eigenvalue reaches the noise level (empty product).  The total
    variant of two-sided models doubles the sum and adds the center-axis term
    ``log2(1/eps)``, clamped at 0, when the center survives (``eps <= 1``).
    """
    level = NoiseLevel.of(epsilon)
    return _lower(model, level, level.cutoff(model), *_sides(model, level, sided))


def entropy_upper_bound(model: SpectrumModel, epsilon: float | NoiseLevel, *,
                        sided: str = "one_sided") -> float:
    """Lattice upper bound on the eps-entropy, in bits.

    ``m * [log2(1/eps) + log2 6 + 1/2 log2 m]`` with ``m = k0(eps/4)`` (the
    total variant of two-sided models uses ``m = 2 k0(eps/4) + 1``).  Only
    applicable when ``eps < 4 lambda_1`` and ``k0(eps/4) >= 1``; outside that
    regime a validation error reports the bound as not applicable.
    """
    level = NoiseLevel.of(epsilon)
    upper = capacity_interval(model, level, sided=sided).upper_bits
    if upper is None:
        raise PreconditionError("upper bound not applicable: requires eps < 4*lambda_1 and "
                                "k0(eps/4) >= 1", k0_eps_over_4=level.quarter.cutoff(model))
    return upper


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


def _bounds(model: SpectrumModel, level: NoiseLevel, sided: str,
            cut: int, cut_q: int) -> CapacityBounds:
    """The bounds at ``level`` from the one-sided cutoffs at it and at its quarter."""
    factor, center = _sides(model, level, sided)
    factor_q, center_q = _sides(model, level.quarter, sided)
    m = factor_q * cut_q + center_q
    upper = (m * (level.log2_inv_eps + _LOG2_6 + 0.5 * math.log2(m))
             if cut_q >= 1 and level.below(model, 4.0) else None)
    return CapacityBounds(level.epsilon, level.log2_inv_eps, factor * cut + center, m,
                          _lower(model, level, cut, factor, center), upper, sided)


def capacity_interval(model: SpectrumModel, epsilon: float | NoiseLevel, *,
                      sided: str = "one_sided") -> CapacityBounds:
    """Both entropy bounds plus the cutoffs they rest on.

    The lower bound never exceeds the upper one; counts are multiplicity
    weighted when ``sided="total"``.  When the upper bound's precondition
    fails, ``upper_bits`` is ``None`` rather than an error so sweeps can
    cover coarse noise levels.  Each of ``k0(eps)`` and ``k0(eps/4)`` is
    computed once (the level remembers its cutoffs), and the bounds are
    derived as :func:`_grid` derives each level's.
    """
    level = NoiseLevel.of(epsilon)
    return _bounds(model, level, sided, level.cutoff(model), level.quarter.cutoff(model))


def _grid(model: SpectrumModel, levels: Sequence[NoiseLevel],
          sided: str) -> Iterator[tuple[int, CapacityBounds]]:
    """Each level's one-sided cutoff and :func:`capacity_interval`, a level per step.

    The first step certifies the cutoffs of all levels and their quarters in one
    pass (:func:`truncation._cutoffs`, which remembers them).  A refused cutoff
    raises (:meth:`NoiseLevel.cutoff`) at its own level's step, not before.
    """
    cuts = _cutoffs(model, [*levels, *(level.quarter for level in levels)])
    for level, cut, cut_q in zip(levels, cuts, cuts[len(levels):]):
        cut = level.cutoff(model) if cut is None else cut
        cut_q = level.quarter.cutoff(model) if cut_q is None else cut_q
        yield cut, _bounds(model, level, sided, cut, cut_q)


def max_message_length_log2(model: SpectrumModel, epsilon: float | NoiseLevel, *,
                            sided: str = "one_sided") -> float:
    """log2 of the longest reliably decodable message count.

    Leading-order budget ``k0(eps) * log2(1/eps)``; the two-sided total adds
    exactly one bit.  Zero when nothing survives the cutoff.
    """
    level = NoiseLevel.of(epsilon)
    factor, _ = _sides(model, level, sided)
    cut = level.cutoff(model)
    return cut * level.log2_inv_eps + math.log2(factor) if cut else 0.0


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
    ``lambda_1`` (:meth:`NoiseLevel.below`).  The cutoffs of all levels are
    certified in one pass (:func:`truncation._cutoffs`) and remembered on the
    levels, so a caller passing the same levels shares them.
    """
    levels = _noise_grid(epsilons, "the growth-order grid")
    Ls = np.asarray([level.log2_inv_eps for level in levels])
    if Ls.size < 8:
        raise ValidationError(f"need at least 8 grid points, got {Ls.size}")
    span_decades = (Ls[-1] - Ls[0]) * math.log10(2.0)
    if span_decades < 4.0:
        raise ValidationError(
            f"grid spans {span_decades:.2f} decades, need at least 4")
    if not all(level.below(model) for level in levels):
        raise ValidationError("all grid levels must lie strictly below lambda_1")
    _cutoffs(model, levels)  # one certification pass; the levels remember the cutoffs
    cuts = np.asarray([level.cutoff(model) for level in levels], dtype=float)
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
_PACKING_BLOCK = 1 << 16  # grid points per numpy step of the mask and the walk


def _outside_mask(axes: Sequence[float], h: float, out: np.ndarray) -> None:
    """Write the scan's outside test ``q > 1 + 1e-12`` for the grid of ``out``.

    Grids ``-a + h * arange(n)``, terms ``g * g * (1/a^2)`` and their sum,
    left to right, are the scan's, so the candidate set is bit-identical (a
    NaN ``q`` counts as inside).  Axis 0 goes a block of rows at a time, so
    no float64 array spans the grid.
    """
    d = len(axes)
    inv_axes2 = [1.0 / (a * a) for a in axes]

    def term(i: int, lo: int, hi: int) -> np.ndarray:
        g = -axes[i] + h * np.arange(lo, hi)
        return (g * g * inv_axes2[i]).reshape([-1 if j == i else 1 for j in range(d)])

    rest = [term(i, 0, out.shape[i]) for i in range(1, d)]
    rows = max(1, _PACKING_BLOCK * out.shape[0] // out.size)
    for s in range(0, out.shape[0], rows):
        q = term(0, s, min(s + rows, out.shape[0]))
        for t in rest:
            q = q + t
        np.greater(q, 1.0 + 1e-12, out=out[s:s + rows])


def greedy_packing_count(semi_axes: Sequence[float], epsilon: float,
                         grid_step: float) -> int:
    """Size of a greedy eps-distinguishable subset of a small ellipsoid.

    Grid points inside the (closed) ellipsoid are scanned in lexicographic
    order; a point is kept when its distance to every kept point strictly
    exceeds ``eps``.  The scan order makes the count deterministic.  Only
    dimensions up to 3 are supported; zero semi-axes drop their dimension.

    ``grid_step`` must not exceed ``eps / 4`` so the grid resolves the
    packing scale.  The lattice offsets within ``eps`` form a fixed stencil:
    a kept point blocks those within ``eps`` under any rounding at once, and
    only the thin ring at distance ``eps`` within rounding is decided by the
    float test ``sum (p_i - k_i)^2 <= eps^2``.  The cost grows with the
    candidate count, not with per-point neighbour lookups; memory is one byte
    per point of the grid padded by ``min(eps / grid_step + 2, n_i - 1)`` per
    side.  A level or a live semi-axis whose square leaves float range is
    refused (:class:`NumericError`): the float tests cannot resolve it there.
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

    # points per axis, as floats: a ratio a/h past float range is inf here, and
    # the cap is checked before any axis grid is built
    sizes = [float(np.floor(2.0 * a / h + 1e-9)) + 1.0 for a in live]
    total = math.prod(sizes)
    if total > _PACKING_CANDIDATE_CAP:
        raise NumericError(
            f"packing grid has {total:.17g} candidates (cap {_PACKING_CANDIDATE_CAP}); "
            "coarsen grid_step or raise epsilon")
    eps2 = eps * eps
    # Rounding (1.5 ulp(a) per coordinate -a + h*i, a few ulps of eps^2 in the
    # sum, 2^-1075 per step below the normal range) moves the float test by
    # under 11 (a/eps + 1) 2^-52 eps^2 + 4 * 2^-1074.  Offsets with h^2 |o|^2
    # outside eps^2 (1 +- margin), over five times that, get the exact answer.
    margin = 2.0 ** -46 * (max(live) / eps + 1.0) + 2.0 ** -1068 / max(eps2, 2.0 ** -1074)
    if not (eps2 < math.inf and margin < 0.25):
        raise NumericError(
            f"packing distances at epsilon={eps!r} leave float range (eps^2 = {eps2!r})")
    for a in live:  # the mask divides by a^2, which must be a normal float
        if not (2.0 ** -1022 <= a * a < math.inf):
            raise NumericError(f"packing semi-axis {a!r} leaves float range (a^2 = {a * a!r})")
    n = [int(s) for s in sizes]
    # the stencil's reach; offsets past the grid join no two points
    pads = [int(min(k - 1.0, eps / h * (1.0 + margin) + 2.0)) for k in n]

    # one byte per padded grid point: 0 a free candidate, 1 blocked (outside
    # the ellipsoid, padding, or within eps of a kept point), 2 kept
    state = np.ones([k + 2 * r for k, r in zip(n, pads)], dtype=np.uint8)
    _outside_mask(live, h, state[tuple(slice(r, r + k) for r, k in zip(pads, n))])

    # Offsets o with |o|^2 <= k_in are blocked, k_in < |o|^2 <= k_out (the
    # ring) are left to the float test.  As flat steps through the padded
    # grid (uint8 strides count points; the last is 1) the blocked ones form
    # one run per prefix (o_0, .., o_{d-2}), set with one slice.
    t = (eps / h) * (eps / h)
    most = float(sum(r * r for r in pads))
    k_in = math.ceil(min(t * (1.0 - margin), most + 1.0)) - 1
    k_out = math.floor(min(t * (1.0 + margin), most))
    runs, ring = [], []
    for pre in itertools.product(*[range(-r, r + 1) for r in pads[:-1]]):
        s = sum(o * o for o in pre)
        if s > k_out:
            continue
        base = sum(o * b for o, b in zip(pre, state.strides))
        w = min(math.isqrt(k_in - s), pads[-1]) if s <= k_in else -1
        if w >= 0:
            runs.append((base - w, base + w + 1, b"\x01" * (2 * w + 1)))
        for o in range(w + 1, min(math.isqrt(k_out - s), pads[-1]) + 1):
            ring.extend((base + v, (*pre, v)) for v in ((o, -o) if o else (0,)))

    def within(p: int, o: tuple) -> bool:
        # the scan's float test, on its coordinates -a + h*i, of p against p + o
        dist2 = 0.0
        for a, stride, size, pad, oi in zip(live, state.strides, state.shape, pads, o):
            i = p // stride % size - pad
            dd = (-a + h * i) - (-a + h * (i + oi))
            dist2 += dd * dd
        return dist2 <= eps2

    # free candidates in C order, the scan's order, listed a block at a time;
    # the byte test skips those blocked since by a point kept in the block
    flat = state.reshape(-1)
    count = 0
    with memoryview(flat) as cell:
        for start in range(0, flat.size, _PACKING_BLOCK):
            for p in (np.flatnonzero(flat[start:start + _PACKING_BLOCK] == 0) + start).tolist():
                if cell[p]:
                    continue
                for step, o in ring:
                    if cell[p + step] == 2 and within(p, o):
                        break
                else:
                    for lo, hi, ones in runs:
                        cell[p + lo:p + hi] = ones
                    cell[p] = 2
                    count += 1
    return count
