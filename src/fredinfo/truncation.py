"""Spectral-cutoff truncation of noisy first-kind equations.

Given noisy data ``g = A f + n`` with ``||n|| <= eps`` and ``||f|| <= 1``, the
regularized solution keeps exactly the components whose eigenvalue is not
below the noise level::

    k0(eps) = max { k : lambda_k >= eps }          (boundary included)
    f*      = sum_{k <= k0} (g_k / lambda_k) psi_k

``k0`` reads the family's closed-form cutoff and certifies it at two points
(``lambda_g >= eps > lambda_{g+1}``); where the certificate fails or the
closed form overflows it searches the decreasing spectrum from that guess,
and it refuses a cutoff of ``2**53`` or more.  It takes the noise level as a plain float or as a
:class:`NoiseLevel`, which carries the exponent ``log2(1/eps)`` as well, so
that levels far below the float underflow threshold stay usable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import InconclusiveError, PreconditionError, ValidationError
from .spectra import FAMILIES, CoefficientVector, SpectrumModel, forward_apply

__all__ = [
    "NoiseLevel",
    "k0",
    "k0_closed_form",
    "generalized_k0",
    "TruncationReport",
    "truncated_solution",
    "BoundCheck",
    "Lemma1Report",
    "lemma1_check",
    "WeakConvergencePoint",
    "weak_convergence_probe",
]

_TOP = 1 << 53  # k0 refuses a cutoff this large: indices past it are not exact in floats
_SLACK = 1.0 + 1e-12


@dataclass(frozen=True)
class NoiseLevel:
    """One noise level ``eps``: its exponent ``log2(1/eps)`` and, when it has
    one, its float.

    ``epsilon`` is the float passed in, else ``2**-L`` for an exponent ``L``
    with ``|L| <= 1022`` (a normal float), else None.  Cutoffs compare
    eigenvalues on ``epsilon`` when there is one and in log2 otherwise, so a
    level gives the same cutoffs however it was written
    (``NoiseLevel(3.0) == NoiseLevel.of(0.125)``).  Each level remembers the
    cutoffs it has computed (:meth:`cutoff`), so quantities that share a
    level share its cutoffs.
    """

    log2_inv_eps: float
    epsilon: float | None = None
    _cuts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        L, eps = float(self.log2_inv_eps) + 0.0, self.epsilon  # + 0.0: eps = 1 gives 0.0
        if eps is None:
            if not math.isfinite(L):
                raise ValidationError(f"log2_inv_eps must be finite, got {L!r}")
            eps = 2.0 ** -L if abs(L) <= 1022 else None
        elif not (eps > 0.0) or not math.isfinite(eps):
            raise ValidationError(f"epsilon must be a positive finite float, got {eps!r}")
        elif L != -math.log2(eps) and not (abs(L) <= 1022 and eps == 2.0 ** -L):
            raise ValidationError(f"log2_inv_eps {L!r} does not match epsilon {eps!r}")
        object.__setattr__(self, "log2_inv_eps", L)  # NoiseLevel(4096) reads as 4096.0
        object.__setattr__(self, "epsilon", eps)

    @classmethod
    def of(cls, epsilon: float | NoiseLevel) -> NoiseLevel:
        """The public ``epsilon`` argument as a level: a :class:`NoiseLevel`
        is returned unchanged, a float is validated and wrapped."""
        if isinstance(epsilon, NoiseLevel):
            return epsilon
        eps = float(epsilon)
        return cls(-math.log2(eps) if eps > 0.0 else math.nan, eps)

    @property
    def reported(self) -> float | str:
        """The level as output reports it: :attr:`epsilon`, else ``pow2:-N``."""
        return self.epsilon if self.epsilon is not None else f"pow2:{-self.log2_inv_eps:g}"

    def require_epsilon(self, what: str) -> float:
        """:attr:`epsilon`, raising ValidationError when there is no float."""
        eps = self.epsilon
        if eps is None:
            raise ValidationError(
                f"{what} needs a representable epsilon: 2**{-self.log2_inv_eps:g} "
                "is outside float range (|log2(1/eps)| <= 1022)")
        return eps

    @cached_property
    def quarter(self) -> NoiseLevel:
        """The level ``eps/4`` (one object per level): a float when ``eps`` has
        one and its quarter is exact, else the exponent ``log2(1/eps) + 2``."""
        if self.epsilon is not None and (self.epsilon / 4.0) * 4.0 == self.epsilon:
            return NoiseLevel.of(self.epsilon / 4.0)
        return NoiseLevel(self.log2_inv_eps + 2.0)

    def cutoff(self, model: SpectrumModel) -> int:
        """``k0(model, self)``, computed once per model (equal models share it)."""
        cut = self._cuts.get(model)
        if cut is None:
            cut = self._cuts[model] = k0(model, self)
        return cut

    def kept(self, model: SpectrumModel, ks: np.ndarray) -> np.ndarray:
        """Mask of ``lambda_k >= eps`` over the indices ``ks``."""
        if self.epsilon is not None:
            return model.eigenvalues(ks) >= self.epsilon
        return model.log2_eigenvalues(ks) >= -self.log2_inv_eps

    def below(self, model: SpectrumModel, scale: float = 1.0) -> bool:
        """``eps < scale * lambda_1``: the growth grid's and (at 4) the upper bound's test."""
        if self.epsilon is not None:
            return self.epsilon < scale * model.lambda_1
        return -self.log2_inv_eps < math.log2(scale) + model.log2_eigenvalues(np.asarray([1]))[0]

    def _keeps_center(self) -> bool:
        """``eps <= lambda_0 = 1``; without a float ``|L| > 1022``, so L's sign decides."""
        return self.epsilon <= 1.0 if self.epsilon is not None else self.log2_inv_eps > 0.0


def _noise_grid(grid: Sequence[float | NoiseLevel], what: str) -> list[NoiseLevel]:
    """The levels of the grid ``what``, which must decrease strictly: compared as
    floats when every level has one (neighbouring floats can share a ``log2``),
    else as exponents."""
    levels = [NoiseLevel.of(e) for e in grid]
    if all(level.epsilon is not None for level in levels):
        keys = [-level.epsilon for level in levels]
    else:
        keys = [level.log2_inv_eps for level in levels]
    if any(b <= a for a, b in zip(keys, keys[1:])):
        raise ValidationError(f"the noise levels of {what} must decrease strictly")
    return levels


def k0(model: SpectrumModel, epsilon: float | NoiseLevel) -> int:
    """Cutoff index: largest k with ``lambda_k >= eps`` (0 if none).

    The family's closed form ``g`` is accepted when ``lambda_g >= eps`` (or
    ``g = 0``) and ``lambda_{g+1} < eps``, both compared by
    :meth:`NoiseLevel.kept`.  When that certificate fails (exact ties,
    rounding at huge exponents) or the closed form raises, the boundary of
    the non-increasing predicate ``kept`` is bracketed around ``g`` by
    doubling steps and bisected, in O(log) eigenvalues.  A tabulated
    spectrum has no closed form: its cutoff counts the kept values of its
    table.

    Raises
    ------
    InconclusiveError
        ``lambda_{2**53}`` is still kept: past ``2**53`` indices are no longer
        exact in floats.
    """
    level = NoiseLevel.of(epsilon)
    closed = FAMILIES[model.kind].k0_closed_form
    if closed is None:
        return int(np.count_nonzero(level.kept(model, np.arange(1, model.spectrum_length + 1))))
    try:
        g = closed(model.params, level.log2_inv_eps, level.epsilon)
    except ArithmeticError:  # the closed form overflows floats: a cutoff far past 2**53
        g = _TOP
    if g < _TOP:  # indices stay exact in int64 and in float
        ok = level.kept(model, np.arange(max(g, 1), g + 2))  # [g, g+1], or [1] at g = 0
        if (g == 0 or ok[0]) and not ok[-1]:
            return g
    cut = _boundary(model, level, min(g, _TOP))
    if cut == _TOP:
        raise InconclusiveError(
            "k0 is at least 2**53, past which indices are not exact in floats; "
            "the noise level is too small for this spectrum's decay")
    return cut


def _boundary(model: SpectrumModel, level: NoiseLevel, g: int) -> int:
    """Largest ``k <= 2**53`` with ``lambda_k`` kept (0 if none), found from the
    guess ``g``: steps of 1, 2, 4, ... away from it until the boundary is
    bracketed, then bisection."""
    lo, hi = 0, _TOP + 1  # lambda_lo is kept (lambda_0 counts as kept), lambda_hi is not
    k, step = max(g, 1), 1
    while hi - lo > 1:
        if level.kept(model, np.asarray([k]))[0]:
            lo, k = k, min(k + step, (k + hi) // 2)
        else:
            hi, k = k, max(k - step, (lo + k) // 2)
        step *= 2
    return lo


def k0_closed_form(model: SpectrumModel, epsilon: float | NoiseLevel) -> int:
    """Printed closed-form cutoff for the three analytic families.

    * poisson: ``floor(log(1/eps) / log(b/a))`` — any log base (a ratio).
    * heat: ``floor(sqrt(log(1/eps) / (D (a-b))))`` — evaluated with the
      natural log; the dimensionally consistent reading, and the one that
      agrees with enumeration (a base-2 reading overcounts).
    * green: ``floor(1 / (pi sqrt(eps)))``.

    May differ from the enumerated cutoff at exact boundary ties, which the
    floor resolves toward inclusion, and by rounding at huge exponents;
    :func:`k0` certifies it against the spectrum before using it.
    """
    level = NoiseLevel.of(epsilon)
    closed = FAMILIES[model.kind].k0_closed_form
    if closed is None:
        raise ValidationError(f"no closed-form cutoff for kind {model.kind!r}")
    return closed(model.params, level.log2_inv_eps, level.epsilon)


def generalized_k0(model: SpectrumModel,
                   beta: Callable[[int], float] | Sequence[float],
                   epsilon: float) -> int:
    """Largest k with ``lambda_k >= eps * beta_k`` for a positive sequence beta.

    The scan runs over ``k = 1..K_max`` (or the length of ``beta`` when a
    finite sequence is shorter) and must see the condition fail before the
    end — otherwise the answer cannot be certified and an
    :class:`InconclusiveError` is raised rather than silently truncating.
    """
    eps = NoiseLevel.of(epsilon).require_epsilon("generalized_k0")
    limit = model.k_max
    if model.spectrum_length is not None:
        limit = min(limit, model.spectrum_length)
    if not callable(beta):
        seq = [float(v) for v in beta]
        if not seq:
            raise ValidationError("beta sequence is empty")
        limit = min(limit, len(seq))
        beta_fn = lambda k: seq[k - 1]
    else:
        beta_fn = beta

    ks = np.arange(1, limit + 1)
    betas = np.asarray([float(beta_fn(int(k))) for k in ks])
    if not np.all(np.isfinite(betas)) or np.any(betas <= 0):
        raise ValidationError("beta must be positive and finite on 1..K_max")
    ok = model.eigenvalues(ks) >= eps * betas
    last = int(ks[ok][-1]) if ok.any() else 0
    if last == limit:
        raise InconclusiveError(
            f"lambda_k >= eps*beta_k still holds at k={limit}; no crossing "
            "found within K_max")
    return last


# ---------------------------------------------------------------------------
# Truncated solutions
# ---------------------------------------------------------------------------


@dataclass
class TruncationReport:
    """Result of one truncation: cutoff, estimator and optional diagnostics.

    ``residual_y`` = ||A(f - f*)||, ``distance_x`` = ||f - f*||,
    ``combined`` = residual_y**2 + eps**2 * distance_x**2; present only when a
    reference solution was supplied.
    """

    epsilon: float
    k0: int
    f_star: CoefficientVector
    residual_y: float | None = None
    distance_x: float | None = None
    combined: float | None = None

    def to_json(self) -> dict:
        obj = {key: val for key, val in vars(self).items() if val is not None}
        obj["f_star"] = self.f_star.to_json()
        return obj


def truncated_solution(model: SpectrumModel, data: CoefficientVector,
                       epsilon: float,
                       reference: CoefficientVector | None = None) -> TruncationReport:
    """Spectral-cutoff estimator ``f*`` from noisy data coefficients.

    Entries with ``lambda_|k| >= eps`` are inverted (``g_k / lambda_k``), the
    rest are zeroed.  The reported ``k0`` counts the inverted ``k >= 1``: the
    cutoff capped at the data's own index range (coefficients the data does
    not carry cannot be inverted).  When ``reference`` is supplied the report
    carries the distance diagnostics used by the error bounds.
    """
    eps = NoiseLevel.of(epsilon).require_epsilon("truncated_solution")
    if data.model != model:
        raise ValidationError("truncated_solution: data uses a different model")
    lam = data.eigenvalue_profile()
    keep = lam >= eps  # NoiseLevel.kept's test, on the level's float
    # divide only where kept: lambda_k may underflow to 0 past the cutoff
    zeros = np.zeros(lam.shape, np.result_type(data.entries, lam))  # integer data: float
    entries = np.divide(data.entries, lam, out=zeros, where=keep)
    f_star = CoefficientVector(model, entries)
    cut = int(np.count_nonzero(keep[data.indices >= 1]))
    report = TruncationReport(epsilon=eps, k0=cut, f_star=f_star)
    if reference is not None:
        reference.require_same_basis(data, "truncated_solution")
        diff = reference.entries - f_star.resized(reference.K).entries
        lam_ref = reference.eigenvalue_profile()
        report.residual_y = float(np.linalg.norm(lam_ref * diff))
        report.distance_x = float(np.linalg.norm(diff))
        report.combined = report.residual_y ** 2 + eps ** 2 * report.distance_x ** 2
    return report


# ---------------------------------------------------------------------------
# Error-bound checks
# ---------------------------------------------------------------------------


@dataclass
class BoundCheck:
    value: float
    bound: float
    holds: bool


@dataclass
class Lemma1Report:
    """The three truncation-error bounds, each as (value, bound, holds)."""

    residual_y: BoundCheck
    distance_x: BoundCheck
    combined: BoundCheck
    data_misfit: float
    f_norm: float

    @property
    def all_hold(self) -> bool:
        return self.residual_y.holds and self.distance_x.holds and self.combined.holds


def _data_misfit(model: SpectrumModel, f: CoefficientVector, data: CoefficientVector,
                 eps: float) -> float:
    """``||A f - data||``; the noisy-data precondition ``<= eps`` is enforced
    (PreconditionError carrying the measured norms)."""
    misfit = float(np.linalg.norm(forward_apply(model, f).entries - data.entries))
    if misfit > eps * _SLACK:
        raise PreconditionError(
            f"data misfit ||Af - g|| = {misfit:.6g} exceeds eps = {eps:.6g}",
            data_misfit=misfit, f_norm=f.norm())
    return misfit


def lemma1_check(model: SpectrumModel, f: CoefficientVector,
                 data: CoefficientVector, epsilon: float) -> Lemma1Report:
    """Verify the a-priori truncation bounds on one (f, data, eps) triple.

    Preconditions ``||A f - data|| <= eps`` and ``||f|| <= 1`` are enforced
    first (raising :class:`PreconditionError` with the measured norms).  The
    three checked bounds are::

        ||A (f - f*)||   <= sqrt(2) eps
        ||f - f*||       <= sqrt(2)
        ||A (f - f*)||^2 + eps^2 ||f - f*||^2  <= 4 eps^2
    """
    eps = NoiseLevel.of(epsilon).require_epsilon("lemma1_check")
    if f.model != model or data.model != model:
        raise ValidationError("lemma1_check: vectors use a different model")
    if f.K != data.K:
        raise ValidationError("lemma1_check: f and data must cover the same indices")

    misfit = _data_misfit(model, f, data, eps)
    f_norm = f.norm()
    if f_norm > _SLACK:
        raise PreconditionError(
            f"||f|| = {f_norm:.6g} exceeds 1", data_misfit=misfit, f_norm=f_norm)

    report = truncated_solution(model, data, eps, reference=f)
    residual, distance, combined = report.residual_y, report.distance_x, report.combined
    b_res = math.sqrt(2.0) * eps
    b_dist = math.sqrt(2.0)
    b_comb = 4.0 * eps ** 2
    return Lemma1Report(
        residual_y=BoundCheck(residual, b_res, residual <= b_res * _SLACK),
        distance_x=BoundCheck(distance, b_dist, distance <= b_dist * _SLACK),
        combined=BoundCheck(combined, b_comb, combined <= b_comb * _SLACK),
        data_misfit=misfit,
        f_norm=f_norm,
    )


# ---------------------------------------------------------------------------
# Weak convergence probe
# ---------------------------------------------------------------------------


@dataclass
class WeakConvergencePoint:
    epsilon: float
    value: float      # |(f - f*, v)|
    majorant: float   # 2 eps sqrt(sum |v_k|^2 / (lambda_k^2 + eps^2))


def weak_convergence_probe(model: SpectrumModel, f: CoefficientVector,
                           v: CoefficientVector,
                           epsilons: Sequence[float],
                           datas: Sequence[CoefficientVector]) -> list[WeakConvergencePoint]:
    """Track ``|(f - f*, v)|`` along a decreasing noise grid.

    Each grid level must come with a data vector satisfying the noisy-model
    preconditions at that level; the probe evaluates the pairing against the
    test vector ``v`` (``||v|| <= 1``) together with its closed-form majorant,
    which the pairing never exceeds.
    """
    if f.model != model or v.model != model:
        raise ValidationError("weak_convergence_probe: vectors use a different model")
    if v.K != f.K:
        raise ValidationError("f and v must cover the same indices")
    if len(epsilons) != len(datas):
        raise ValidationError("need one data vector per epsilon")
    if len(epsilons) < 2:
        raise ValidationError("need at least two grid points")
    eps_arr = [level.require_epsilon("weak_convergence_probe")
               for level in _noise_grid(epsilons, "epsilons")]
    if v.norm() > _SLACK:
        raise ValidationError(f"test vector norm {v.norm():.6g} exceeds 1")

    lam = v.eigenvalue_profile()
    out = []
    for eps, data in zip(eps_arr, datas):
        if data.model != model or data.K != f.K:
            raise ValidationError("data vectors must match the model and index range of f")
        _data_misfit(model, f, data, eps)
        f_star = truncated_solution(model, data, eps).f_star
        diff = f.entries - f_star.entries
        value = abs(complex(np.vdot(v.entries, diff)))
        majorant = 2.0 * eps * math.sqrt(
            float(np.sum(np.abs(v.entries) ** 2 / (lam ** 2 + eps ** 2))))
        out.append(WeakConvergencePoint(eps, float(value), majorant))
    return out
