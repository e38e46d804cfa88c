"""Spectral-cutoff truncation of noisy first-kind equations.

Given noisy data ``g = A f + n`` with ``||n|| <= eps`` and ``||f|| <= 1``, the
regularized solution keeps exactly the components whose eigenvalue is not
below the noise level::

    k0(eps) = max { k : lambda_k >= eps }          (boundary included)
    f*      = sum_{k <= k0} (g_k / lambda_k) psi_k

``k0`` is computed by enumeration of the decreasing spectrum — that scan is
the ground truth the per-family closed forms are checked against.  Both
accept the noise level either as a plain float or as ``log2(1/eps)`` (one
:class:`NoiseLevel` carries either form) so that levels far below the float
underflow threshold stay usable.
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

_SCAN_CAP = 1 << 22
_SLACK = 1.0 + 1e-12


@dataclass(frozen=True)
class NoiseLevel:
    """One noise level ``eps``, given either as a float or as ``log2(1/eps)``.

    ``log2_inv_eps`` is always the exact exponent; ``given`` holds the float
    when the level was supplied as one.  Cutoffs compare eigenvalues in the
    domain the level was given in (floats as floats, exponents in log2), so
    boundary ties resolve exactly as the caller wrote the level.  Each level
    remembers the cutoffs it has scanned (:meth:`cutoff`), so quantities that
    share a level share its scans.
    """

    log2_inv_eps: float
    given: float | None = None
    _cuts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        L, eps = self.log2_inv_eps, self.given
        if eps is not None:
            if not (eps > 0.0) or not math.isfinite(eps):
                raise ValidationError(f"epsilon must be a positive finite float, got {eps!r}")
            if L != -math.log2(eps):
                raise ValidationError(
                    f"log2_inv_eps {L!r} does not match epsilon {eps!r}")
        elif not math.isfinite(L):
            raise ValidationError(f"log2_inv_eps must be finite, got {L!r}")

    @classmethod
    def of(cls, epsilon: float | NoiseLevel | None = None,
           log2_inv_eps: float | None = None) -> NoiseLevel:
        """Normalize the public ``epsilon=None, *, log2_inv_eps=None`` pair.

        ``epsilon`` may be a float or already a :class:`NoiseLevel`; exactly
        one of the two arguments must be given.
        """
        if (epsilon is None) == (log2_inv_eps is None):
            raise ValidationError("give exactly one of epsilon or log2_inv_eps")
        if isinstance(epsilon, NoiseLevel):
            return epsilon
        if epsilon is not None:
            eps = float(epsilon)
            return cls(-math.log2(eps) if eps > 0.0 else math.nan, eps)
        return cls(float(log2_inv_eps))

    @property
    def epsilon(self) -> float | None:
        """``eps`` as a float, or None outside float range.

        A level given as a float returns it; an exponent ``L`` becomes
        ``2**-L`` when ``|L| <= 1022`` (a normal float) and None beyond.
        """
        if self.given is not None:
            return self.given
        L = self.log2_inv_eps
        return 2.0 ** -L if abs(L) <= 1022 else None

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
        """The level ``eps/4`` (one object per level): a float when exact, else
        (a subnormal ``eps``) the exponent ``log2(1/eps) + 2``."""
        if self.given is not None and (self.given / 4.0) * 4.0 == self.given:
            return NoiseLevel.of(self.given / 4.0)
        return NoiseLevel(self.log2_inv_eps + 2.0)

    def cutoff(self, model: SpectrumModel) -> int:
        """``k0(model, self)``, scanned once per model (equal models share it)."""
        cut = self._cuts.get(model)
        if cut is None:
            cut = self._cuts[model] = k0(model, self)
        return cut

    def kept(self, model: SpectrumModel, ks: np.ndarray) -> np.ndarray:
        """Mask of ``lambda_k >= eps`` over the indices ``ks``."""
        if self.given is not None:
            return model.eigenvalues(ks) >= self.given
        return model.log2_eigenvalues(ks) >= -self.log2_inv_eps

    def below_4_lambda_1(self, model: SpectrumModel) -> bool:
        """``eps < 4 lambda_1``: the lattice upper bound's applicability test."""
        if self.given is not None:
            return self.given < 4.0 * model.lambda_1
        return -self.log2_inv_eps < 2.0 + model.log2_eigenvalues(np.asarray([1]))[0]


def _noise_grid(epsilons: Sequence[float] | None, log2_inv_eps: Sequence[float] | None,
                names: tuple[str, str] = ("epsilons", "log2_inv_eps")) -> list[NoiseLevel]:
    """Levels of a grid given as decreasing floats or as increasing exponents.

    Exactly one of the two sequences must be given; ``names`` label them in
    error messages.
    """
    floats, exps = names
    if (epsilons is None) == (log2_inv_eps is None):
        raise ValidationError(f"give exactly one of {floats} or {exps}")
    if epsilons is not None:
        levels = [NoiseLevel.of(e) for e in epsilons]
        if any(b.given >= a.given for a, b in zip(levels, levels[1:])):
            raise ValidationError(f"{floats} must decrease strictly")
    else:
        levels = [NoiseLevel.of(log2_inv_eps=L) for L in log2_inv_eps]
        if any(b.log2_inv_eps <= a.log2_inv_eps for a, b in zip(levels, levels[1:])):
            raise ValidationError(f"{exps} must increase strictly")
    return levels


def k0(model: SpectrumModel, epsilon: float | NoiseLevel | None = None, *,
       log2_inv_eps: float | None = None) -> int:
    """Cutoff index: largest k with ``lambda_k >= eps`` (0 if none).

    Enumerative ground truth: scans the decreasing spectrum in vectorized
    blocks, comparing in the same domain the noise level was supplied in
    (floats compare as floats, exponents compare in log2).  For tabulated
    models the scan stops at the end of the table, so a level below every
    value counts the whole finite spectrum.

    Raises
    ------
    InconclusiveError
        The cutoff exceeds the enumeration safety cap (2**22).
    """
    level = NoiseLevel.of(epsilon, log2_inv_eps)
    length = model.spectrum_length
    hard_cap = length if length is not None else _SCAN_CAP

    count = 0
    start = 1
    block = 1024
    while start <= hard_cap:
        stop = min(start + block - 1, hard_cap)
        ks = np.arange(start, stop + 1)
        ok = level.kept(model, ks)
        if not ok.all():
            first_bad = int(np.argmin(ok))  # spectrum decreasing -> first failure is final
            return start + first_bad - 1
        count = stop
        start = stop + 1
        block *= 2
    if length is not None:
        return count
    raise InconclusiveError(
        f"k0 exceeds the enumeration cap {_SCAN_CAP}; the noise level is too "
        "small for this spectrum's decay")


def k0_closed_form(model: SpectrumModel, epsilon: float | NoiseLevel | None = None, *,
                   log2_inv_eps: float | None = None) -> int:
    """Printed closed-form cutoff for the three analytic families.

    * poisson: ``floor(log(1/eps) / log(b/a))`` — any log base (a ratio).
    * heat: ``floor(sqrt(log(1/eps) / (D (a-b))))`` — evaluated with the
      natural log; the dimensionally consistent reading, and the one that
      agrees with enumeration (a base-2 reading overcounts).
    * green: ``floor(1 / (pi sqrt(eps)))``.

    Must equal :func:`k0` except possibly at exact boundary ties, which the
    floor resolves toward inclusion.
    """
    level = NoiseLevel.of(epsilon, log2_inv_eps)
    closed = FAMILIES[model.kind].k0_closed_form
    if closed is None:
        raise ValidationError(f"no closed-form cutoff for kind {model.kind!r}")
    return closed(model.params, level.log2_inv_eps, level.given)


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
    rest are zeroed.  The reported ``k0`` is the cutoff capped at the data's
    own index range (coefficients the data does not carry cannot be
    inverted).  When ``reference`` is supplied the report carries the
    distance diagnostics used by the error bounds.
    """
    eps = NoiseLevel.of(epsilon).require_epsilon("truncated_solution")
    if data.model != model:
        raise ValidationError("truncated_solution: data uses a different model")
    cut = k0(model, eps)
    lam = data.eigenvalue_profile()  # center mode of two-sided models: lambda_0 = 1
    entries = np.where(lam >= eps, data.entries / lam, np.zeros_like(data.entries))
    f_star = CoefficientVector(model, entries)
    report = TruncationReport(epsilon=eps, k0=min(cut, data.K), f_star=f_star)
    if reference is not None:
        reference.require_same_basis(data, "truncated_solution")
        diff = reference.entries - _aligned(f_star, reference)
        lam_ref = reference.eigenvalue_profile()
        report.residual_y = float(np.linalg.norm(lam_ref * diff))
        report.distance_x = float(np.linalg.norm(diff))
        report.combined = report.residual_y ** 2 + eps ** 2 * report.distance_x ** 2
    return report


def _aligned(vec: CoefficientVector, like: CoefficientVector) -> np.ndarray:
    """Entries of ``vec`` padded/truncated to the index range of ``like``."""
    if vec.K == like.K:
        return vec.entries
    out = np.zeros(like.entries.shape, dtype=vec.entries.dtype)
    if vec.model.two_sided:
        K = min(vec.K, like.K)
        out[like.K - K: like.K + K + 1] = vec.entries[vec.K - K: vec.K + K + 1]
    else:
        K = min(vec.K, like.K)
        out[:K] = vec.entries[:K]
    return out


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
    f.require_same_basis(data, "lemma1_check")
    if f.K != data.K:
        raise ValidationError("lemma1_check: f and data must cover the same indices")

    misfit = float(np.linalg.norm(forward_apply(model, f).entries - data.entries))
    f_norm = f.norm()
    if misfit > eps * _SLACK:
        raise PreconditionError(
            f"data misfit ||Af - g|| = {misfit:.6g} exceeds eps = {eps:.6g}",
            data_misfit=misfit, f_norm=f_norm)
    if f_norm > _SLACK:
        raise PreconditionError(
            f"||f|| = {f_norm:.6g} exceeds 1", data_misfit=misfit, f_norm=f_norm)

    f_star = truncated_solution(model, data, eps).f_star
    diff = f.entries - f_star.entries
    lam = f.eigenvalue_profile()
    residual = float(np.linalg.norm(lam * diff))
    distance = float(np.linalg.norm(diff))
    combined = residual ** 2 + eps ** 2 * distance ** 2

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
    eps_arr = [float(e) for e in epsilons]
    if any(not (e > 0) for e in eps_arr):
        raise ValidationError("epsilons must be positive")
    if any(e2 >= e1 for e1, e2 in zip(eps_arr, eps_arr[1:])):
        raise ValidationError("epsilons must decrease strictly")
    if v.norm() > _SLACK:
        raise ValidationError(f"test vector norm {v.norm():.6g} exceeds 1")

    lam = v.eigenvalue_profile()
    out = []
    for eps, data in zip(eps_arr, datas):
        if data.model != model or data.K != f.K:
            raise ValidationError("data vectors must match the model and index range of f")
        misfit = float(np.linalg.norm(forward_apply(model, f).entries - data.entries))
        if misfit > eps * _SLACK:
            raise PreconditionError(
                f"data misfit {misfit:.6g} exceeds eps = {eps:.6g} at a grid point",
                data_misfit=misfit, f_norm=f.norm())
        f_star = truncated_solution(model, data, eps).f_star
        diff = f.entries - f_star.entries
        value = abs(complex(np.vdot(v.entries, diff)))
        majorant = 2.0 * eps * math.sqrt(
            float(np.sum(np.abs(v.entries) ** 2 / (lam ** 2 + eps ** 2))))
        out.append(WeakConvergencePoint(eps, float(value), majorant))
    return out
