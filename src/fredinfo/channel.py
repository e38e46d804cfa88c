"""Per-component Gaussian channels over a compact operator's spectrum.

The source places independent priors ``xi_k ~ N(0, rho_k^2)`` on the
components of the unknown, and the observation of component ``k`` is::

    eta_k = lambda_k xi_k + zeta_k,    zeta_k ~ N(0, eps^2 nu_k^2)

Everything in this module is a per-component sum over the one-sided index
``k = 1..K_max`` (the sequence form of the problem).  Components split into
the informative set ``I = {k : lambda_k rho_k >= eps nu_k}`` — exactly the
components whose squared correlation reaches 1/2, i.e. whose information
``J_k = -(1/2) ln(1 - r_k^2)`` reaches ``(1/2) ln 2`` — and its complement
``N``.  The information and risk sums run in index order.  Only ``k_alpha``
accumulates, and ``ordering`` lists, the components in the rearranged order of
strictly decreasing signal-to-noise ratio ``lambda_k rho_k / nu_k`` (ties are
rejected); for every monotone family in scope this is the index order.

Internal units are nats; conversion to bits happens at reporting boundaries.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import InconclusiveError, UnsupportedError, ValidationError
from .metric import _lower
from .spectra import (CoefficientVector, SpectrumModel, _check_k_max, _check_size,
                      _inverse_on, _lookup, _require_int, _require_list, _require_real,
                      entry_from_json, entry_to_json, model_from_json, model_to_json)
from .truncation import NoiseLevel, k0

__all__ = [
    "VarianceRule",
    "constant_rule",
    "geometric_rule",
    "power_rule",
    "gaussian_rule",
    "inverse_spectrum_rule",
    "custom_rule",
    "rule_to_json",
    "rule_from_json",
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

_LN2 = math.log(2.0)
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max
_SCAN_CAP = 1 << 22  # the most terms a gaussian tail sum adds before it refuses


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
    * ``power``: ``c k^-p`` (p > 0) — summable when ``2p > 1``; tails are
      ``c^2 zeta(2p, m + 1)``, from ``_hurwitz_zeta`` (Cephes' routine, with
      the bits of ``scipy.special.zeta``).
    * ``gaussian``: ``c exp(-s k^2)`` (s > 0) — super-geometric partial sums
      (the first omitted term already bounds the remainder below float
      resolution at the summation depth used; refused past 2**22 terms).
    * ``inverse_spectrum``: ``(1 + delta0/k) / lambda_k`` for a model —
      grows, never summable; ``delta0`` only breaks the ties of the flat
      ratios for a channel on this rule (``--rho inverse_spectrum``).
    * ``custom``: explicit per-k values; summable only with a declared tail.
    """

    kind: str
    params: dict = field(default_factory=dict)

    # -- values -------------------------------------------------------------

    def value(self, k: int) -> float:
        return float(self.values(np.asarray([_require_int(k, "k")]))[0])

    def values(self, ks: np.ndarray) -> np.ndarray:
        return RULES[self.kind].values(self.params, np.asarray(ks, dtype=np.int64))

    def log2_values(self, ks: np.ndarray) -> np.ndarray:
        """``log2(sigma_k)``, finite where the values underflow or overflow."""
        return RULES[self.kind].log2_values(self.params, np.asarray(ks, dtype=np.int64))

    # -- second-moment sums ---------------------------------------------------

    @property
    def is_trace_class(self) -> bool:
        return RULES[self.kind].trace_class(self.params)

    def sum_sq_total(self) -> float:
        """``sum_{k>=1} sigma_k^2`` (the prior energy Gamma, when finite)."""
        return self.sum_sq_tail(0)

    def sum_sq_tail(self, m: int) -> float:
        """``sum_{k>m} sigma_k^2`` in closed form (m >= 0)."""
        if _require_int(m, "tail start") < 0:
            raise ValidationError("tail start must be >= 0")
        if not self.is_trace_class:
            raise UnsupportedError(
                f"{self.kind} rule is not trace class; tail sums diverge")
        return RULES[self.kind].sum_sq_tail(self.params, m)


def _positive(name: str, v: float) -> float:
    v = _require_real(v, name)
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
    vals = tuple(_positive("custom rule value", v)
                 for v in _require_list(values, "custom rule values"))
    if not vals:
        raise ValidationError("custom rule needs at least one value")
    if tail_sum_sq is not None:
        tail_sum_sq = _require_real(tail_sum_sq, "tail_sum_sq")
        if tail_sum_sq < 0 or not math.isfinite(tail_sum_sq):
            raise ValidationError("declared tail must be a finite non-negative float")
    return VarianceRule("custom", {"values": vals, "tail_sum_sq": tail_sum_sq})


@dataclass(frozen=True)
class _Rule:
    """One variance rule.  The formulas take the rule's ``params``, then int64
    indices (``values``, ``log2_values``) or the tail start ``m`` (``sum_sq_tail``)."""

    names: tuple[str, ...]                  # parameters, in factory order
    values: Callable[[dict, np.ndarray], np.ndarray]
    log2_values: Callable[[dict, np.ndarray], np.ndarray]
    build: Callable[..., VarianceRule] | None = None  # the factory, from names' values
    trace_class: Callable[[dict], bool] = lambda p: False
    sum_sq_tail: Callable[[dict, int], float] | None = None  # sum_{k>m} sigma_k^2
    read: Callable[[dict], VarianceRule] | None = None  # JSON form, when not
    write: Callable[[dict], dict] | None = None         # just the names' values
    more: tuple[str, ...] = ()              # JSON fields besides kind and names


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
    return p["c"] * p["c"] * _hurwitz_zeta(2.0 * p["p"], m + 1)


# Cephes' Euler–Maclaurin coefficients (2j)! / B_2j, and its MACHEP
_ZETA_A = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
           7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
           -4.5979787224074726105e15, 1.8152105401943546773e17, -7.1661652561756670113e18)
_MACHEP = 2.0 ** -53


def _hurwitz_zeta(x: float, q: float) -> float:
    """``zeta(x, q) = sum_{k>=0} (k + q)^-x`` for ``x > 1``, ``q >= 1``.

    Cephes' ``zeta`` (Moshier 1989), the routine behind ``scipy.special.zeta``,
    operation for operation, so the results agree bit for bit: the asymptotic
    form (DLMF 25.11.43) past ``q = 1e8``, else direct terms until ``i >= 9``
    and ``a > 9`` and 12 Euler–Maclaurin corrections (DLMF 25.11.5), each
    loop stopping once a term is below ``MACHEP`` of the sum.  A sum whose every
    direct term underflows is 0 (``s != 0`` spares C's ``b / s``) and returned:
    Cephes goes on, and gives NaN once the Euler–Maclaurin factor overflows.
    """
    q = float(q)
    if q > 1e8:
        return (1 / (x - 1) + 1 / (2 * q)) * q ** (1 - x)
    s = q ** -x
    a = q
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a ** -x
        s += b
        if s != 0.0 and abs(b / s) < _MACHEP:
            return s
    if s == 0.0:
        return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for coefficient in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / coefficient
        s += t
        if s != 0.0 and abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


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


# One entry per variance rule (see VarianceRule).
RULES: dict[str, _Rule] = {
    "constant": _Rule(
        ("c",), lambda p, k: np.full(k.shape, p["c"], dtype=float),
        lambda p, k: np.full(k.shape, math.log2(p["c"])),
        build=constant_rule),
    "geometric": _Rule(
        ("c", "q"), lambda p, k: p["c"] * p["q"] ** k.astype(float),
        lambda p, k: math.log2(p["c"]) + k.astype(float) * math.log2(p["q"]),
        build=geometric_rule, trace_class=lambda p: True,
        sum_sq_tail=lambda p, m: (p["c"] * p["c"] * (p["q"] * p["q"]) ** (m + 1)
                                  / (1.0 - p["q"] * p["q"]))),
    "power": _Rule(
        ("c", "p"), lambda p, k: p["c"] * _k1(k, "power") ** (-p["p"]),
        lambda p, k: math.log2(p["c"]) - p["p"] * np.log2(_k1(k, "power")),
        build=power_rule, trace_class=lambda p: 2.0 * p["p"] > 1.0,
        sum_sq_tail=_power_tail),
    "gaussian": _Rule(
        ("c", "s"), lambda p, k: p["c"] * np.exp(-p["s"] * k.astype(float) ** 2),
        lambda p, k: math.log2(p["c"]) - p["s"] * k.astype(float) ** 2 / _LN2,
        build=gaussian_rule, trace_class=lambda p: True,
        sum_sq_tail=_gaussian_tail),
    "inverse_spectrum": _Rule(
        ("delta0",),
        lambda p, k: (1.0 + p["delta0"] / _k1(k, "inverse_spectrum")) / p["model"].eigenvalues(k),
        lambda p, k: (np.log1p(p["delta0"] / _k1(k, "inverse_spectrum")) / _LN2
                      - p["model"].log2_eigenvalues(k)),
        read=lambda o: inverse_spectrum_rule(model_from_json(o["model"]), o.get("delta0", 1e-9)),
        write=lambda p: {"delta0": p["delta0"], "model": model_to_json(p["model"])},
        more=("model",)),
    "custom": _Rule(
        ("values", "tail_sum_sq"),
        lambda p, k: _lookup(p["values"], k, "custom rule"),
        lambda p, k: np.log2(_lookup(p["values"], k, "custom rule")),
        trace_class=lambda p: p["tail_sum_sq"] is not None, sum_sq_tail=_custom_tail,
        read=lambda o: custom_rule(o["values"], o.get("tail_sum_sq")),
        write=lambda p: {"values": list(p["values"]), "tail_sum_sq": p["tail_sum_sq"]}),
}


def rule_to_json(rule: VarianceRule) -> dict:
    return entry_to_json(RULES, rule.kind, rule.params)


def rule_from_json(obj: dict) -> VarianceRule:
    return entry_from_json(RULES, obj, "variance rule JSON")


# ---------------------------------------------------------------------------
# Channel
# ---------------------------------------------------------------------------


class _Rows:
    """A channel over ``k = 1..k_max`` at several levels, one row per level
    (None: noise-free), and the row kernels of the channel quantities.

    The eigenvalue and rule arrays and the components' order by decreasing
    ``lambda_k rho_k / nu_k`` are formed and checked once for all rows; the
    prior's energy sums on first use.  A :class:`GaussianChannel` is one row;
    a sweep evaluates its whole grid as rows, through the same kernels.
    """

    def __init__(self, model: SpectrumModel, rho: VarianceRule, nu: VarianceRule,
                 k_max: int | None, levels: Sequence[NoiseLevel | None]):
        km = model.k_max if k_max is None else _check_k_max(k_max)
        length = model.spectrum_length
        if length is not None and km > length:
            raise ValidationError(
                f"k_max={km} exceeds the tabulated spectrum length {length}")

        ks = np.arange(1, _check_size(km, "k_max") + 1)
        with np.errstate(all="ignore"):
            log2_rho = rho.log2_values(ks)
            log2_ratio = model.log2_eigenvalues(ks) + log2_rho - nu.log2_values(ks)
            if not np.isfinite(log2_ratio).all():
                raise ValidationError("log2(lambda_k rho_k / nu_k) must be finite on 1..k_max")
            lam, rho_k, nu_k = model.eigenvalues(ks), rho.values(ks), nu.values(ks)
            signal = lam * rho_k
            ratios = signal / nu_k
            factors = np.concatenate((lam, rho_k, nu_k, signal, ratios))
            normal = ((factors >= _TINY) & (factors <= _HUGE)).reshape(5, km).all(axis=0)
            # a component whose floats are all normal is ordered by its float
            # ratio; any other is keyed by 2^(log2 ratio), and ranked by log2
            # ratio where that key is not a normal float either
            keys = np.where(normal, ratios, np.exp2(log2_ratio))
            ranks = np.where((keys >= _TINY) & (keys <= _HUGE), 0.0, log2_ratio)
        order = np.lexsort((-ranks, -keys))  # stable: the rearranged order
        key, rank = keys[order], ranks[order]
        if ((key[1:] == key[:-1]) & (rank[1:] == rank[:-1])).any():
            raise ValidationError(
                "signal-to-noise ratios lambda_k rho_k / nu_k must be pairwise "
                "distinct; tie detected")
        self.rho, self.k_max, self.arrays = rho, km, (lam, rho_k, nu_k)
        self.order, self.labels = order, order + 1  # 0-based, and as component labels

        self.levels = list(levels)
        # per row: the level's float, None outside float range, 0.0 noise-free
        self.epsilon = [level.epsilon if level is not None else 0.0 for level in self.levels]
        L = np.array([[level.log2_inv_eps if level is not None else math.inf]
                      for level in self.levels])
        eps = np.array([[math.nan if e is None else e] for e in self.epsilon])
        with np.errstate(all="ignore"):
            t = log2_ratio + L
            # J_k = (1/2) ln(1 + 2^(2t)) = max(t, 0) ln 2 + (1/2) log1p(2^(-2|t|))
            self.J_nats = np.maximum(t, 0.0) * _LN2 + 0.5 * np.log1p(np.exp2(-2.0 * np.abs(t)))
            # (eps nu_k / lambda_k)^2 = rho_k^2 2^(-2t): at most rho_k^2 on I
            self.inverted_risk = np.exp2(2.0 * (log2_rho - t))
            # at a level with a float, a component whose floats are all normal
            # is placed in I by comparing floats; any other by log2_snr >= 0
            self.informative = np.where(normal & ~np.isnan(eps), signal >= eps * nu_k, t >= 0.0)
        self.log2_snr = t

    @cached_property
    def _squares(self) -> np.ndarray:
        _, rho, _ = self.arrays
        with np.errstate(over="ignore"):
            return rho * rho

    def energies(self, what: str) -> np.ndarray:
        """``rho_k^2`` on ``1..k_max`` for the risk sums: the prior must be trace
        class and every square a finite float."""
        if not self.rho.is_trace_class:
            raise UnsupportedError(
                f"{what} requires a trace-class prior (sum rho_k^2 < inf); "
                f"the {self.rho.kind} rule is not")
        if not np.isfinite(self._squares).all():
            raise ValidationError(f"{what} needs rho_k^2 to be a finite float on 1..k_max")
        return self._squares

    @cached_property
    def gamma(self) -> float:
        """The prior energy ``Gamma = sum_k rho_k^2``, a finite float."""
        with np.errstate(over="ignore"):
            gamma = self.rho.sum_sq_total()
        if not math.isfinite(gamma):
            raise ValidationError(
                "k_alpha needs the prior energy sum rho_k^2 to be a finite float")
        return gamma

    @cached_property
    def tail(self) -> float:
        """The prior energy beyond ``k_max``: ``sum_{k > k_max} rho_k^2``."""
        return self.rho.sum_sq_tail(self.k_max)

    # The kernels below are evaluated for all rows on first use; each call still
    # runs its own checks for its row, so a fault ends a sweep at that row.

    @cached_property
    def _segments(self) -> tuple[np.ndarray, np.ndarray]:
        """Per row: the size of I, and whether I leads the order."""
        ordered = self.informative[:, self.order]
        # I leads the order when no component of N comes before one of I
        return (self.informative.sum(axis=1),
                ~(ordered[:, 1:] & ~ordered[:, :-1]).any(axis=1))

    def k_I(self, i: int) -> int:
        """The size of I at row ``i``, checked to lead the order."""
        sizes, leads = self._segments
        if not leads[i]:
            # impossible for a threshold rule on the sorted ratios
            raise ValidationError("informative set is not an initial segment of the ordering")
        return int(sizes[i])

    @cached_property
    def _information(self) -> np.ndarray:
        """The exact and leading-order sums over I, ``(2, rows)``, each added one
        term at a time in index order.  Adding 0.0 changes no partial sum but the
        sign of a zero, which the final ``+ 0.0`` clears, so each sum has the bits
        of adding the selected entries alone, starting from 0.0."""
        terms = np.where(self.informative, (self.J_nats, self.log2_snr * _LN2), 0.0)
        with np.errstate(over="ignore"):  # a sum past the float range reads inf
            return np.cumsum(terms, axis=-1)[..., -1] + 0.0

    def information(self, i: int) -> TotalInformation:
        """Exact and leading-order information at row ``i``, summed over I in index order."""
        if self.levels[i] is None:
            raise ValidationError("total information requires epsilon > 0")
        exact, approx = self._information[:, i]
        return TotalInformation(exact_nats=float(exact), approx_nats=float(approx))

    @cached_property
    def _k_alpha(self) -> np.ndarray:
        energies, order = self.energies("k_alpha"), self.order
        # a term or prefix past the float range is past gamma too
        with np.errstate(over="ignore"):
            prefix = np.cumsum(energies[order] + self.inverted_risk[:, order], axis=1)
        return (prefix <= self.gamma * (1.0 + 1e-12)).sum(axis=1)

    def k_alpha(self, i: int) -> int:
        self.energies("k_alpha")
        self.gamma  # both checked for every row, in this order
        return int(self._k_alpha[i])

    def mse(self, i: int) -> float:
        # one row at a time: these sums are numpy's pairwise sums over the
        # selected entries, which a masked sum over all rows would reorder
        energies = self.energies("mse_closed_form")
        member = self.informative[i]
        with np.errstate(over="ignore"):
            dropped = float(np.sum(energies[~member])) + self.tail
            inverted = float(np.sum(self.inverted_risk[i][member]))
        risk = dropped + inverted
        if not math.isfinite(risk):
            raise ValidationError("mse_closed_form: the risk overflows floats")
        return risk


def _row_0(name: str, doc: str) -> property:
    """A read-only view of a channel's own row of the rows' array ``name``."""
    return property(lambda channel: getattr(channel._rows, name)[0], doc=doc)


@dataclass(frozen=True)
class GaussianChannel:
    """Prior, noise and spectrum bundled over components ``k = 1..k_max``.

    The level is a float (0 is noise-free) or a :class:`NoiseLevel`.  Every
    reported value comes from ``log2_snr = log2 (lambda_k rho_k / (eps nu_k))``,
    formed in the log domain, so it stays finite below float range and where
    ``lambda_k`` underflows.  A component whose factors, product and ratio are
    normal floats is ordered (by decreasing ``lambda_k rho_k / nu_k``, ties
    rejected) and, at a float level, placed in I on those floats; any other
    on its log2 values.  The consumers of float data read :meth:`arrays`.
    """

    model: SpectrumModel
    rho: VarianceRule
    nu: VarianceRule
    epsilon: float | NoiseLevel | None
    k_max: int | None = None
    level: NoiseLevel | None = field(init=False, repr=False)  # None at eps = 0

    def __post_init__(self):
        eps = self.epsilon if isinstance(self.epsilon, NoiseLevel) else _require_real(
            self.epsilon, "epsilon")
        level = None if eps == 0.0 else NoiseLevel.of(eps)  # 0: noise-free
        rows = _Rows(self.model, self.rho, self.nu, self.k_max, [level])
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "epsilon", rows.epsilon[0])
        object.__setattr__(self, "k_max", rows.k_max)
        object.__setattr__(self, "_rows", rows)  # this channel is row 0

    # decided once by the rows, read by every consumer (k = 1..k_max)
    log2_snr = _row_0("log2_snr", "log2 (lambda_k rho_k / (eps nu_k))")
    informative = _row_0("informative", "Membership in I")
    J_nats = _row_0("J_nats", "Information per component, in nats")
    inverted_risk = _row_0("inverted_risk", "(eps nu_k / lambda_k)^2, from log2_snr")

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._rows.arrays  # type: ignore[attr-defined]

    @property
    def ordering(self) -> np.ndarray:
        """Component labels sorted by strictly decreasing lambda rho / nu."""
        return self._rows.labels  # type: ignore[attr-defined]

    def _index(self, k: int) -> int:
        if not 1 <= _require_int(k, "component index") <= self.k_max:
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


def component_information(channel: GaussianChannel, k: int) -> ComponentInfo:
    """Squared correlation and Shannon information of component ``k`` (nats).

    ``r_k^2 = (lam rho)^2 / ((lam rho)^2 + (eps nu)^2)`` and
    ``J_k = -(1/2) ln(1 - r_k^2) = (1/2) ln(1 + (lam rho / eps nu)^2)``.
    Membership in I means ``lam rho >= eps nu``, equivalently ``J_k >= (1/2) ln 2``
    (the boundary carries exactly half a ln 2).
    """
    if channel.level is None:
        raise ValidationError("component information requires epsilon > 0")
    i = channel._index(k)
    J = float(channel.J_nats[i])
    r2 = min(-math.expm1(-2.0 * J), float(np.nextafter(1.0, 0.0)))  # r^2 = 1 - e^(-2J)
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
    k_I = channel._rows.k_I(0)
    member = channel.informative
    I = tuple((np.flatnonzero(member) + 1).tolist())
    N = tuple((np.flatnonzero(~member) + 1).tolist())
    return Partition(I=I, N=N, k_I=k_I, ordering=tuple(channel.ordering.tolist()))


def posterior_estimate(channel: GaussianChannel, data: CoefficientVector) -> CoefficientVector:
    """Component-wise posterior-mode estimator from observed coefficients.

    Informative components are inverted (``g_k / lambda_k``, refused where not
    a finite float), the rest are zeroed.  The channel's components are the
    labels ``k = 1..k_max``, so a two-sided model's labels below the center
    hold no component and are zeroed.  The paper's sequences have no
    ``rho_0`` or ``nu_0``, so the center mode is judged with ``lambda_0 = 1``
    and the rules at 1: ``rho_1 >= eps nu_1`` in floats, or where the level has
    no float ``log2 rho_1 - log2 nu_1 + log2(1/eps) >= 0``.  As
    ``lambda_0 >= lambda_1``, the center is in I whenever component 1 is.
    """
    if data.model != channel.model:
        raise ValidationError("posterior_estimate: data uses a different model")
    if data.K > channel.k_max:
        raise ValidationError(
            f"data reaches index {data.K} beyond the channel's k_max={channel.k_max}")
    ks = data.indices
    pos = ks >= 1
    center = ks == 0
    member = center.copy()  # the center mode is in I when noise-free; k < 0 never is
    member[pos] = channel.informative[ks[pos] - 1]
    level = channel.level
    if channel.model.two_sided and level is not None:  # lambda_0 = 1, the rules at 1
        if level.epsilon is not None:
            _, rho, nu = channel.arrays()
            with np.errstate(over="ignore"):
                member[center] = rho[0] >= level.epsilon * nu[0]
        else:
            one = np.ones(1, dtype=np.int64)
            log2_ratio = channel.rho.log2_values(one)[0] - channel.nu.log2_values(one)[0]
            member[center] = log2_ratio + level.log2_inv_eps >= 0.0
    return _inverse_on(data, data.eigenvalue_profile(), member, "posterior_estimate")


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
    ``g_k`` gives ``N(g_k / lambda_k, (eps nu_k / lambda_k)^2)``, the smaller
    variance exactly on I.  A parameter that is not a finite float is refused.
    """
    i, g = channel._index(k), _require_real(g_k, "g_k")
    lam, rho, _ = (float(values[i]) for values in channel.arrays())
    if lam == 0.0:
        raise ValidationError(f"posterior_density_params: lambda_{k} underflows to zero")
    params = PosteriorParams(0.0, rho * rho, g / lam, float(channel.inverted_risk[i]))
    if not math.isfinite(params.var1):
        raise ValidationError(f"posterior_density_params: rho_{k}^2 overflows floats")
    if not (math.isfinite(params.mean2) and math.isfinite(params.var2)):
        raise ValidationError(f"posterior_density_params: the conditional mean or variance "
                              f"of component {k} is not a finite float")
    return params


# ---------------------------------------------------------------------------
# Risk and information budgets
# ---------------------------------------------------------------------------


def mse_closed_form(channel: GaussianChannel) -> float:
    """Exact mean squared error of the informative-set estimator.

    ``sum_{k in N} rho_k^2  +  (tail beyond k_max)  +  sum_{k in I} (eps nu_k / lambda_k)^2``
    — dropped components cost their prior energy, inverted ones their noise
    amplification.  Requires a trace-class prior.
    """
    return channel._rows.mse(0)


def k_alpha(channel: GaussianChannel) -> int:
    """Largest component count whose total risk stays within the prior energy.

    With ``Gamma = sum_k rho_k^2``, returns the largest ``m <= k_max`` such
    that ``sum_{k <= m} (rho_k^2 + eps^2 nu_k^2 / lambda_k^2) <= Gamma``,
    accumulated in the rearranged (decreasing-ratio) order; 0 when even the
    first component overshoots, ``k_max`` when no prefix does (the ``eps = 0``
    surrogate for infinity).
    """
    return channel._rows.k_alpha(0)


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
    return channel._rows.information(0)


# ---------------------------------------------------------------------------
# Extremal cases
# ---------------------------------------------------------------------------


@dataclass
class ExtremalComparison:
    """Side-by-side of channel information and its metric counterpart."""

    case: str
    epsilon: float | str  # NoiseLevel.reported: the float, else "pow2:-N"
    k0: int
    k_I: int
    exact_nats: float
    approx_nats: float
    reference_nats: float
    trace_class: bool
    note: str

    def to_json(self) -> dict:
        return asdict(self)


def extremal_comparison(model: SpectrumModel, epsilon: float | NoiseLevel, case: str,
                        k_max: int | None = None) -> ExtremalComparison:
    """The two extremal prior/noise matchings.

    ``case="alpha"`` (rho = nu = 1): the informative count coincides with the
    spectral cutoff and the leading-order information equals the metric
    lower bound converted to nats.

    ``case="beta"`` (rho_k = 1 / lambda_k, nu = 1): every ratio is ``1/eps``,
    every component is informative, so the sum is capped at ``n = k0(eps)``
    equal terms, in closed form with no channel: ``approx = n ln(1/eps)``, the
    reference's own expression, and ``exact = n (ln(1/eps) + log1p(eps^2)/2)``.
    (``inverse_spectrum_rule``'s ``delta0`` breaks such ties only for a channel
    on that rule.)  The prior is not trace class, so risk and budget counts are
    disabled for this case.  A comparison that stops at ``k_max < k0(eps)`` sums
    ``n = k_max`` components, as the note says.  A level without a float is
    compared on its exponent (``eps^2 = 0``) and reported as ``pow2:-N``.
    """
    level = NoiseLevel.of(epsilon)
    km = model.k_max if k_max is None else _check_k_max(k_max)
    cut = k0(model, level)
    n = min(km, cut)  # the components both sides are summed over
    truncated = (f", truncated at k_max = {n} < k0 = {cut}: k_I, the sums and the "
                 f"reference cover the first {n} components only")

    if case == "alpha":
        # the channel need not extend past k0 (deep tails may underflow the spectrum)
        chan = GaussianChannel(model, constant_rule(1.0), constant_rule(1.0),
                               level, k_max=max(n, 1))
        k_I = chan._rows.k_I(0)
        info = total_information(chan)
        reference = _lower(model, level, n) * math.log(2.0)
        note = "matched prior/noise" + (
            truncated + "; the reference is the metric lower bound over them, in nats"
            if n < cut else ": k_I equals the spectral cutoff and the leading-order "
            "information equals the metric lower bound in nats")
    elif case == "beta":
        if not level.log2_inv_eps > 0.0:
            raise ValidationError("case beta needs epsilon < 1")
        eps = level.epsilon or 0.0  # no float: eps^2 = 0, as it underflows
        # ln(1/eps) from the float 1/eps where it is finite, so those levels keep their bytes
        log_inv = math.log(1.0 / eps) if eps > 2.0 ** -1024 else level.log2_inv_eps * _LN2
        k_I, reference = n, n * log_inv
        info = TotalInformation(n * (log_inv + 0.5 * math.log1p(eps * eps)), reference)
        note = "flat signal-to-noise" + (
            truncated if n < cut else ": every component is informative, sum capped at "
            "k0 components") + "; prior is not trace class, so mse/k_alpha are disabled"
    else:
        raise ValidationError(f"case must be 'alpha' or 'beta', got {case!r}")
    return ExtremalComparison(
        case=case, epsilon=level.reported, k0=cut, k_I=k_I,
        exact_nats=info.exact_nats, approx_nats=info.approx_nats,
        reference_nats=reference, trace_class=False, note=note)
