"""Per-component Gaussian channels over a compact operator's spectrum.

The source places independent priors ``xi_k ~ N(0, rho_k^2)`` on the
components of the unknown, and the observation of component ``k`` is::

    eta_k = lambda_k xi_k + zeta_k,    zeta_k ~ N(0, eps^2 nu_k^2)

Everything in this module is a per-component sum over the one-sided index
``k = 1..K_max`` (the sequence form of the problem).  Components split into
the informative set ``I = {k : lambda_k rho_k >= eps nu_k}`` — exactly the
components whose squared correlation reaches 1/2, i.e. whose information
``J_k = -(1/2) ln(1 - r_k^2)`` reaches ``(1/2) ln 2`` — and its complement
``N``.  Sums are evaluated in the order of strictly decreasing signal-to-noise
ratio ``lambda_k rho_k / nu_k`` (ties are rejected); for every monotone family
in scope this is the natural order.

Internal units are nats; conversion to bits happens at reporting boundaries.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InconclusiveError, PreconditionError, UnsupportedError, ValidationError
from .metric import entropy_lower_bound
from .spectra import (CoefficientVector, SpectrumModel, _lookup, model_from_json,
                      model_to_json)
from .truncation import _SCAN_CAP, k0

__all__ = [
    "VarianceRule",
    "constant_rule",
    "geometric_rule",
    "power_rule",
    "gaussian_rule",
    "inverse_spectrum_rule",
    "custom_rule",
    "GaussianChannel",
    "ComponentInfo",
    "component_information",
    "Partition",
    "partition_IN",
    "posterior_estimate",
    "PosteriorParams",
    "posterior_density_params",
    "mse_closed_form",
    "k_alpha",
    "TotalInformation",
    "total_information",
    "ExtremalComparison",
    "extremal_comparison",
]

_HALF_LN2 = 0.5 * math.log(2.0)


# ---------------------------------------------------------------------------
# Variance rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarianceRule:
    """Structured standard-deviation sequence ``k -> sigma_k > 0``.

    The structured families carry exact (or machine-precision certified)
    closed forms for ``sum_k sigma_k^2`` and its tails, which is what makes
    closed-form risk and budget computations exact:

    * ``constant``: ``c`` — not summable.
    * ``geometric``: ``c q^k`` (0 < q < 1) — geometric series.
    * ``power``: ``c k^-p`` (p > 0) — Hurwitz zeta; summable when ``2p > 1``.
    * ``gaussian``: ``c exp(-s k^2)`` (s > 0) — super-geometric partial sums
      (the first omitted term already bounds the remainder below float
      resolution at the summation depth used; refused past 2**22 terms).
    * ``inverse_spectrum``: ``(1 + delta0/k) / lambda_k`` for a model —
      grows, never summable.
    * ``custom``: explicit per-k values; summable only with a declared tail.
    """

    kind: str
    params: dict = field(default_factory=dict)

    # -- values -------------------------------------------------------------

    def value(self, k: int) -> float:
        return float(self.values(np.asarray([k]))[0])

    def values(self, ks: np.ndarray) -> np.ndarray:
        return RULES[self.kind].values(self.params, np.asarray(ks, dtype=np.int64))

    # -- second-moment sums ---------------------------------------------------

    @property
    def is_trace_class(self) -> bool:
        return RULES[self.kind].trace_class(self.params)

    def sum_sq_total(self) -> float:
        """``sum_{k>=1} sigma_k^2`` (the prior energy Gamma, when finite)."""
        return self.sum_sq_tail(0)

    def sum_sq_tail(self, m: int) -> float:
        """``sum_{k>m} sigma_k^2`` in closed form (m >= 0)."""
        if m < 0:
            raise ValidationError("tail start must be >= 0")
        if not self.is_trace_class:
            raise UnsupportedError(
                f"{self.kind} rule is not trace class; tail sums diverge")
        return RULES[self.kind].sum_sq_tail(self.params, m)


def _positive(name: str, v: float) -> float:
    v = float(v)
    if not (v > 0) or not math.isfinite(v):
        raise ValidationError(f"{name} must be positive and finite, got {v!r}")
    return v


def constant_rule(c: float) -> VarianceRule:
    return VarianceRule("constant", {"c": _positive("c", c)})


def geometric_rule(c: float, q: float) -> VarianceRule:
    q = _positive("q", q)
    if q >= 1.0:
        raise ValidationError(f"geometric ratio must satisfy 0 < q < 1, got {q}")
    return VarianceRule("geometric", {"c": _positive("c", c), "q": q})


def power_rule(c: float, p: float) -> VarianceRule:
    return VarianceRule("power", {"c": _positive("c", c), "p": _positive("p", p)})


def gaussian_rule(c: float, s: float) -> VarianceRule:
    return VarianceRule("gaussian", {"c": _positive("c", c), "s": _positive("s", s)})


def inverse_spectrum_rule(model: SpectrumModel, delta0: float = 1e-9) -> VarianceRule:
    return VarianceRule("inverse_spectrum",
                        {"model": model, "delta0": _positive("delta0", delta0)})


def custom_rule(values: Sequence[float], tail_sum_sq: float | None = None) -> VarianceRule:
    vals = tuple(float(v) for v in values)
    if not vals:
        raise ValidationError("custom rule needs at least one value")
    if any(not (v > 0) or not math.isfinite(v) for v in vals):
        raise ValidationError("custom rule values must be positive and finite")
    if tail_sum_sq is not None:
        tail_sum_sq = float(tail_sum_sq)
        if tail_sum_sq < 0 or not math.isfinite(tail_sum_sq):
            raise ValidationError("declared tail must be a finite non-negative float")
    return VarianceRule("custom", {"values": vals, "tail_sum_sq": tail_sum_sq})


@dataclass(frozen=True)
class _Rule:
    """One variance rule.  The formulas take the rule's ``params``, then
    int64 indices (``values``) or the tail start ``m`` (``sum_sq_tail``)."""

    names: tuple[str, ...]                  # parameters, in factory order
    values: Callable[[dict, np.ndarray], np.ndarray]
    build: Callable[..., VarianceRule] | None = None  # the factory, from names' values
    trace_class: Callable[[dict], bool] = lambda p: False
    sum_sq_tail: Callable[[dict, int], float] | None = None  # sum_{k>m} sigma_k^2
    read: Callable[[dict], VarianceRule] | None = None  # JSON form, when not
    write: Callable[[dict], dict] | None = None         # just the names' values


def _k1(ks: np.ndarray, kind: str) -> np.ndarray:
    """The indices as floats, checked to start at 1."""
    if np.any(ks < 1):
        raise ValidationError(f"{kind} rule is defined for k >= 1")
    return ks.astype(float)


def _custom_tail(p: dict, m: int) -> float:
    vals = np.asarray(p["values"], dtype=float)
    if m > len(vals):
        raise ValidationError("custom rule cannot start a tail beyond its declared values")
    return float(np.sum(vals[m:] ** 2)) + float(p["tail_sum_sq"])


def _power_tail(p: dict, m: int) -> float:
    from scipy.special import zeta  # here, not at the top: most of `import fredinfo`
    return p["c"] * p["c"] * float(zeta(2.0 * p["p"], m + 1))


def _gaussian_tail(p: dict, m: int) -> float:
    """Terms until one drops below 1e-18 of the sum: about ``s**-1/2`` of them."""
    s = p["s"]
    total = 0.0
    for k in range(m + 1, m + 1 + _SCAN_CAP):
        term = math.exp(-2.0 * s * k * k)
        total += term
        if term < 1e-320 or term < 1e-18 * total:
            return p["c"] * p["c"] * total
    raise InconclusiveError(f"gaussian tail sum needs more than {_SCAN_CAP} terms at s={s!r}")


# One entry per variance rule (see VarianceRule).  Entries reach the factories
# and the model JSON functions through module globals, at call time.
RULES: dict[str, _Rule] = {
    "constant": _Rule(
        ("c",), lambda p, k: np.full(k.shape, p["c"], dtype=float),
        build=lambda c: constant_rule(c)),
    "geometric": _Rule(
        ("c", "q"), lambda p, k: p["c"] * p["q"] ** k.astype(float),
        build=lambda c, q: geometric_rule(c, q), trace_class=lambda p: True,
        sum_sq_tail=lambda p, m: (p["c"] * p["c"] * (p["q"] * p["q"]) ** (m + 1)
                                  / (1.0 - p["q"] * p["q"]))),
    "power": _Rule(
        ("c", "p"), lambda p, k: p["c"] * _k1(k, "power") ** (-p["p"]),
        build=lambda c, p: power_rule(c, p), trace_class=lambda p: 2.0 * p["p"] > 1.0,
        sum_sq_tail=_power_tail),
    "gaussian": _Rule(
        ("c", "s"), lambda p, k: p["c"] * np.exp(-p["s"] * k.astype(float) ** 2),
        build=lambda c, s: gaussian_rule(c, s), trace_class=lambda p: True,
        sum_sq_tail=_gaussian_tail),
    "inverse_spectrum": _Rule(
        ("delta0",),
        lambda p, k: (1.0 + p["delta0"] / _k1(k, "inverse_spectrum")) / p["model"].eigenvalues(k),
        read=lambda o: inverse_spectrum_rule(model_from_json(o["model"]), o.get("delta0", 1e-9)),
        write=lambda p: {"delta0": p["delta0"], "model": model_to_json(p["model"])}),
    "custom": _Rule(
        ("values", "tail_sum_sq"),
        lambda p, k: _lookup(p["values"], k, "custom rule"),
        trace_class=lambda p: p["tail_sum_sq"] is not None, sum_sq_tail=_custom_tail,
        read=lambda o: custom_rule(o["values"], o.get("tail_sum_sq")),
        write=lambda p: {"values": list(p["values"]), "tail_sum_sq": p["tail_sum_sq"]}),
}


def rule_to_json(rule: VarianceRule) -> dict:
    entry = RULES[rule.kind]
    fields = (entry.write(rule.params) if entry.write
              else {name: rule.params[name] for name in entry.names})
    return {"kind": rule.kind, **fields}


def rule_from_json(obj: dict) -> VarianceRule:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError("variance rule JSON must carry a 'kind'")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in RULES:
        raise ValidationError(f"unknown variance rule kind {kind!r}")
    entry = RULES[kind]
    try:
        if entry.read:
            return entry.read(obj)
        return entry.build(*[obj[name] for name in entry.names])
    except ValidationError:
        raise
    except KeyError as exc:
        raise ValidationError(f"variance rule {kind!r} is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed variance rule {kind!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Channel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianChannel:
    """Prior, noise and spectrum bundled over components ``k = 1..k_max``.

    Construction validates positivity of all sigmas and pairwise
    distinctness of the signal-to-noise ratios ``lambda_k rho_k / nu_k``
    (ties would make the informative count ambiguous).
    """

    model: SpectrumModel
    rho: VarianceRule
    nu: VarianceRule
    epsilon: float
    k_max: int | None = None
    # decided once here, read by every consumer (k = 1..k_max)
    snr: np.ndarray = field(init=False, repr=False, compare=False)  # lam rho / (eps nu)
    informative: np.ndarray = field(init=False, repr=False, compare=False)  # I: lam rho >= eps nu

    def __post_init__(self):
        eps = float(self.epsilon)
        if eps < 0 or not math.isfinite(eps):
            raise ValidationError(f"epsilon must be >= 0 and finite, got {self.epsilon!r}")
        object.__setattr__(self, "epsilon", eps)
        km = self.model.k_max if self.k_max is None else int(self.k_max)
        if km < 1:
            raise ValidationError(f"k_max must be >= 1, got {self.k_max!r}")
        length = self.model.spectrum_length
        if length is not None and km > length:
            raise ValidationError(
                f"k_max={km} exceeds the tabulated spectrum length {length}")
        object.__setattr__(self, "k_max", km)

        ks = np.arange(1, km + 1)
        lam = self.model.eigenvalues(ks)
        if np.any(lam <= 0.0):
            first = int(ks[lam <= 0.0][0])
            raise ValidationError(
                f"lambda_{first} underflows to zero; lower k_max below {first} "
                "(the channel needs representable eigenvalues)")
        rho = self.rho.values(ks)
        nu = self.nu.values(ks)
        for name, arr in (("rho", rho), ("nu", nu)):
            if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
                raise ValidationError(f"{name}_k must be positive and finite on 1..k_max")
        ratios = lam * rho / nu
        if np.unique(ratios).size != ratios.size:
            raise ValidationError(
                "signal-to-noise ratios lambda_k rho_k / nu_k must be pairwise "
                "distinct; tie detected")
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            snr = lam * rho / (eps * nu)
        if eps > 0.0 and not np.all(np.isfinite(snr)):
            raise PreconditionError(f"epsilon={eps!r} is too small for the channel: "
                                    "lambda_k rho_k / (eps nu_k) overflows", epsilon=eps)
        object.__setattr__(self, "snr", snr)  # not finite at eps = 0
        object.__setattr__(self, "informative", lam * rho >= eps * nu)
        object.__setattr__(self, "_lam", lam)
        object.__setattr__(self, "_rho", rho)
        object.__setattr__(self, "_nu", nu)
        object.__setattr__(self, "_ratios", ratios)
        # stable descending sort of the ratios = the rearranged component order
        order = np.argsort(-ratios, kind="stable")
        object.__setattr__(self, "_order", order + 1)  # 1-based component labels

    # cached arrays (populated in __post_init__)
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._lam, self._rho, self._nu  # type: ignore[attr-defined]

    @property
    def ordering(self) -> np.ndarray:
        """Component labels sorted by strictly decreasing lambda rho / nu."""
        return self._order  # type: ignore[attr-defined]

    def _index(self, k: int) -> int:
        if not 1 <= k <= self.k_max:
            raise ValidationError(f"component index must lie in 1..{self.k_max}")
        return k - 1


# ---------------------------------------------------------------------------
# Component information and partition
# ---------------------------------------------------------------------------


@dataclass
class ComponentInfo:
    """Correlation and information carried by one observed component."""

    k: int
    r_squared: float
    J_nats: float
    in_I: bool

    def to_json(self) -> dict:
        return asdict(self)


def _info_from_ratio(ratio: float) -> tuple[float, float]:
    """(r^2, J) computed stably from the SNR ``ratio = lam rho / (eps nu)``."""
    if ratio <= 1.0:
        r2 = ratio * ratio / (1.0 + ratio * ratio)
        J = 0.5 * math.log1p(ratio * ratio)
    else:
        u = 1.0 / ratio
        r2 = 1.0 / (1.0 + u * u)
        J = math.log(ratio) + 0.5 * math.log1p(u * u)
    return min(r2, float(np.nextafter(1.0, 0.0))), J


def component_information(channel: GaussianChannel, k: int) -> ComponentInfo:
    """Squared correlation and Shannon information of component ``k`` (nats).

    ``r_k^2 = (lam rho)^2 / ((lam rho)^2 + (eps nu)^2)`` and
    ``J_k = -(1/2) ln(1 - r_k^2) = (1/2) ln(1 + (lam rho / eps nu)^2)``.
    Membership in I means ``lam rho >= eps nu``, equivalently ``J_k >= (1/2) ln 2``
    (the boundary carries exactly half a ln 2).
    """
    if channel.epsilon <= 0.0:
        raise ValidationError("component information requires epsilon > 0")
    i = channel._index(k)
    r2, J = _info_from_ratio(float(channel.snr[i]))
    return ComponentInfo(k=k, r_squared=r2, J_nats=J, in_I=bool(channel.informative[i]))


@dataclass
class Partition:
    """Informative/noise split of the components.

    ``ordering`` lists component labels by strictly decreasing
    ``lambda rho / nu``; its first ``k_I`` labels are exactly ``I``.
    """

    I: tuple[int, ...]
    N: tuple[int, ...]
    k_I: int
    ordering: tuple[int, ...]


def partition_IN(channel: GaussianChannel) -> Partition:
    """Split components into informative set I and remainder N.

    Membership: ``lambda_k rho_k >= eps nu_k`` (boundary included).  With
    ``eps = 0`` every component is informative and ``k_I = k_max`` stands in
    for infinity.
    """
    member = channel.informative
    order = channel.ordering
    k_I = int(np.sum(member))
    if k_I and not bool(member[order - 1][:k_I].all()):
        # impossible for a threshold rule on the sorted ratios
        raise ValidationError("informative set is not an initial segment of the ordering")
    I = tuple(int(k) for k in np.flatnonzero(member) + 1)
    N = tuple(int(k) for k in np.flatnonzero(~member) + 1)
    return Partition(I=I, N=N, k_I=k_I, ordering=tuple(int(k) for k in order))


def posterior_estimate(channel: GaussianChannel, data: CoefficientVector) -> CoefficientVector:
    """Component-wise posterior-mode estimator from observed coefficients.

    Informative components are inverted (``eta_k / lambda_k``), the rest are
    zeroed.  For two-sided basis models membership is applied per ``|k|``
    with the variance rules evaluated at ``|k|`` (the center mode uses the
    rules at 0 and ``lambda_0 = 1``).
    """
    if data.model != channel.model:
        raise ValidationError("posterior_estimate: data uses a different model")
    if data.K > channel.k_max:
        raise ValidationError(
            f"data reaches index {data.K} beyond the channel's k_max={channel.k_max}")
    ks = np.abs(data.indices)
    lam = data.eigenvalue_profile()
    pos = ks >= 1
    member = np.zeros(ks.shape, dtype=bool)
    member[pos] = channel.informative[ks[pos] - 1]
    if np.any(~pos):  # center mode of a two-sided vector: the rules at 0, lambda_0 = 1
        member[~pos] = lam[~pos] * channel.rho.value(0) >= channel.epsilon * channel.nu.value(0)
    entries = np.where(member, data.entries / lam, np.zeros_like(data.entries))
    return CoefficientVector(channel.model, entries)


@dataclass
class PosteriorParams:
    """Gaussian pair (prior-marginal, data-conditional) for one component."""

    mean1: float
    var1: float
    mean2: float
    var2: float


def posterior_density_params(channel: GaussianChannel, k: int,
                             g_k: float) -> PosteriorParams:
    """Parameters of the two Gaussians attached to component ``k``.

    The prior marginal is ``N(0, rho_k^2)``; conditioning on the observation
    ``g_k`` gives ``N(g_k / lambda_k, (eps nu_k / lambda_k)^2)``.  The
    conditional variance is the smaller of the two exactly on I.
    """
    i = channel._index(k)
    lam, rho, nu = (float(a[i]) for a in channel.arrays())
    return PosteriorParams(
        mean1=0.0,
        var1=rho * rho,
        mean2=float(g_k) / lam,
        var2=(channel.epsilon * nu / lam) ** 2,
    )


# ---------------------------------------------------------------------------
# Risk and information budgets
# ---------------------------------------------------------------------------


def _require_trace_class(channel: GaussianChannel, what: str) -> None:
    if not channel.rho.is_trace_class:
        raise UnsupportedError(
            f"{what} requires a trace-class prior (sum rho_k^2 < inf); "
            f"the {channel.rho.kind} rule is not")


def mse_closed_form(channel: GaussianChannel) -> float:
    """Exact mean squared error of the informative-set estimator.

    ``sum_{k in N} rho_k^2  +  (tail beyond k_max)  +  sum_{k in I} (eps nu_k / lambda_k)^2``
    — dropped components cost their prior energy, inverted ones their noise
    amplification.  Requires a trace-class prior.
    """
    _require_trace_class(channel, "mse_closed_form")
    lam, rho, nu = channel.arrays()
    member = channel.informative
    dropped = float(np.sum(rho[~member] ** 2)) + channel.rho.sum_sq_tail(channel.k_max)
    inverted = float(np.sum((channel.epsilon * nu[member] / lam[member]) ** 2))
    return dropped + inverted


def k_alpha(channel: GaussianChannel) -> int:
    """Largest component count whose total risk stays within the prior energy.

    With ``Gamma = sum_k rho_k^2``, returns the largest ``m <= k_max`` such
    that ``sum_{k <= m} (rho_k^2 + eps^2 nu_k^2 / lambda_k^2) <= Gamma``,
    accumulated in the rearranged (decreasing-ratio) order; 0 when even the
    first component overshoots, ``k_max`` when no prefix does (the ``eps = 0``
    surrogate for infinity).
    """
    _require_trace_class(channel, "k_alpha")
    gamma = channel.rho.sum_sq_total()
    lam, rho, nu = channel.arrays()
    order = channel.ordering - 1
    terms = rho[order] ** 2 + (channel.epsilon * nu[order] / lam[order]) ** 2
    prefix = np.cumsum(terms)
    ok = prefix <= gamma * (1.0 + 1e-12)
    return int(np.sum(ok)) if ok.any() else 0


@dataclass
class TotalInformation:
    exact_nats: float
    approx_nats: float

    @property
    def exact_bits(self) -> float:
        return self.exact_nats / math.log(2.0)

    @property
    def approx_bits(self) -> float:
        return self.approx_nats / math.log(2.0)


def total_information(channel: GaussianChannel) -> TotalInformation:
    """Information carried by the informative set, exact and leading-order.

    ``exact = sum_{k in I} (1/2) ln(1 + (lam rho / eps nu)^2)`` and
    ``approx = sum_{k in I} ln(lam rho / (eps nu))``; every approx term is
    non-negative on I and ``0 <= exact - approx <= k_I (1/2) ln 2``.
    Empty I gives (0, 0).
    """
    if channel.epsilon <= 0.0:
        raise ValidationError("total information requires epsilon > 0")
    return _information_sum(channel, np.flatnonzero(channel.informative) + 1)


def _information_sum(channel: GaussianChannel, labels: Sequence[int]) -> TotalInformation:
    """Exact and leading-order information summed over the given components."""
    exact = 0.0
    approx = 0.0
    for ratio in channel.snr[np.asarray(labels, dtype=int) - 1]:
        _, J = _info_from_ratio(ratio)
        exact += J
        approx += math.log(ratio)
    return TotalInformation(exact_nats=exact, approx_nats=approx)


# ---------------------------------------------------------------------------
# Extremal cases
# ---------------------------------------------------------------------------


@dataclass
class ExtremalComparison:
    """Side-by-side of channel information and its metric counterpart."""

    case: str
    epsilon: float
    k0: int
    k_I: int
    exact_nats: float
    approx_nats: float
    reference_nats: float
    trace_class: bool
    note: str

    def to_json(self) -> dict:
        return asdict(self)


def extremal_comparison(model: SpectrumModel, epsilon: float, case: str,
                        k_max: int | None = None) -> ExtremalComparison:
    """The two extremal prior/noise matchings.

    ``case="alpha"`` (rho = nu = 1): the informative count coincides with the
    spectral cutoff and the leading-order information equals the metric
    lower bound converted to nats.

    ``case="beta"`` (rho_k = (1 + 1e-9/k) / lambda_k, nu = 1): the
    signal-to-noise ratio is flat, every component looks informative, so the
    sum is capped at ``k0(eps)`` components (in the rearranged order) and the
    leading-order information is ``k0 ln(1/eps)``.  The prior is not trace
    class, so risk and budget counts are disabled for this case.
    """
    eps = float(epsilon)
    if not (0.0 < eps) or not math.isfinite(eps):
        raise ValidationError("extremal comparison requires epsilon > 0")
    km = model.k_max if k_max is None else int(k_max)
    cut = k0(model, eps)
    # the comparison only ever sums the first k0 components, so the channel
    # need not extend past them (deep tails may underflow the spectrum)
    km = max(min(km, cut), 1)

    if case == "alpha":
        chan = GaussianChannel(model, constant_rule(1.0), constant_rule(1.0),
                               eps, k_max=km)
        part = partition_IN(chan)
        info = total_information(chan)
        reference = entropy_lower_bound(model, eps) * math.log(2.0)
        return ExtremalComparison(
            case="alpha", epsilon=eps, k0=cut, k_I=part.k_I,
            exact_nats=info.exact_nats, approx_nats=info.approx_nats,
            reference_nats=reference, trace_class=False,
            note="matched prior/noise: k_I equals the spectral cutoff and the "
                 "leading-order information equals the metric lower bound in nats")

    if case == "beta":
        if eps >= 1.0:
            raise ValidationError("case beta needs epsilon < 1")
        chan = GaussianChannel(model, inverse_spectrum_rule(model),
                               constant_rule(1.0), eps, k_max=km)
        cap = min(cut, chan.k_max)
        info = _information_sum(chan, chan.ordering[:cap])
        reference = cut * math.log(1.0 / eps)
        return ExtremalComparison(
            case="beta", epsilon=eps, k0=cut, k_I=cap,
            exact_nats=info.exact_nats, approx_nats=info.approx_nats,
            reference_nats=reference, trace_class=False,
            note="flat signal-to-noise: every component is informative, sum "
                 "capped at k0 components; prior is not trace class, so "
                 "mse/k_alpha are disabled")

    raise ValidationError(f"case must be 'alpha' or 'beta', got {case!r}")
