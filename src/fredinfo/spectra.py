"""Spectra and eigenbases of compact self-adjoint integral operators.

A :class:`SpectrumModel` describes a strictly decreasing eigenvalue sequence
``lambda_1 > lambda_2 > ...`` in ``(0, 1]`` together with (where available) the
orthonormal eigenbasis on the operator's natural domain.  Four kinds are
supported, each one entry of :data:`FAMILIES`:

``poisson``
    ``lambda_k = (a/b)^|k|`` with ``0 < a < b``; Fourier basis
    ``psi_k(theta) = exp(-i k theta)`` on ``[-pi, pi]``, orthonormal under the
    normalized circle measure ``d(theta) / (2 pi)``.  Two-sided index set
    (``k = 0`` is the center mode with ``lambda_0 = 1``).
``heat``
    ``lambda_k = exp(-D k^2 (a - b))`` with ``D > 0`` and ``a > b``; same
    Fourier basis and index set as ``poisson``.
``green``
    ``lambda_k = 1 / (k^2 pi^2)``, basis ``sqrt(2) sin(k pi x)`` on ``[0, 1]``
    with the plain Lebesgue measure; one-sided index ``k >= 1``.  This is the
    eigensystem of the kernel ``K(x, y) = (1 - x) y`` for ``y <= x`` and
    ``x (1 - y)`` for ``x <= y``.
``tabulated``
    An explicit finite decreasing sequence of values in ``(0, 1]``; one-sided,
    no eigenbasis.  Equal values may optionally be grouped (see
    :func:`tabulated_model`), which is outside the strict-decrease assumption
    of the underlying theory and is flagged as such.

Eigenvalues are also exposed in the log2 domain so that counting and entropy
work stays exact far below the smallest positive float.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NumericError, UnsupportedError, ValidationError

__all__ = [
    "DEFAULT_K_MAX",
    "SpectrumModel",
    "poisson_model",
    "heat_model",
    "green_model",
    "tabulated_model",
    "CoefficientVector",
    "forward_apply",
    "EigenSystem",
    "nystrom_decompose",
    "green_kernel",
    "csv_text",
    "spectrum_rows",
    "model_to_json",
    "model_from_json",
]

DEFAULT_K_MAX = 256

_LOG2_PI = math.log2(math.pi)
_LOG2_E = math.log2(math.e)
_LN2 = math.log(2.0)


@dataclass(frozen=True, eq=True)
class SpectrumModel:
    """Eigenvalue model of a compact self-adjoint operator.

    Instances are built through the ``*_model`` factory functions, which
    validate parameters.  ``k_max`` caps the length of any series work
    (coefficient vectors, channels, harness draws); it does not limit pure
    counting, which may search past it.

    Attributes
    ----------
    kind : str
        A key of :data:`FAMILIES`: ``poisson``, ``heat``, ``green``, ``tabulated``.
    params : dict
        Family parameters (see module docstring).
    k_max : int
        Largest retained one-sided index for series work.
    """

    kind: str
    params: dict
    k_max: int = DEFAULT_K_MAX

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:  # a model keys each noise level's cutoffs
        return hash((self.kind, frozenset(self.params.items()), self.k_max))

    # -- index bookkeeping -------------------------------------------------

    @property
    def two_sided(self) -> bool:
        """True for the Fourier families, indexed by ``k`` in ``-K..K``."""
        return FAMILIES[self.kind].two_sided

    def multiplicity(self, k: int) -> int:
        """Number of eigenfunctions sharing the eigenvalue at one-sided index k.

        Two-sided families report 1 for the center mode ``k = 0`` and 2 for
        ``k >= 1``.  Tabulated models report the group size (1 unless ties
        were explicitly allowed).
        """
        self._check_index(k)
        if self.two_sided:
            return 1 if k == 0 else 2
        groups = FAMILIES[self.kind].groups
        return 1 if groups is None else int(groups(self.params)[k - 1])

    def _check_index(self, k: int) -> None:
        _require_int(k, "index k")
        if self.two_sided:
            return  # any integer addresses a mode via |k|
        if k < 1:
            raise ValidationError(
                f"one-sided model {self.kind!r} has indices k >= 1, got {k}")
        length = self.spectrum_length
        if length is not None and k > length:
            raise ValidationError(
                f"{self.kind} spectrum has {length} values, got k={k}")

    @property
    def spectrum_length(self) -> int | None:
        """Number of available one-sided indices (None when unbounded)."""
        groups = FAMILIES[self.kind].groups
        return None if groups is None else len(groups(self.params))

    # -- eigenvalues --------------------------------------------------------

    def eigenvalue(self, k: int) -> float:
        """Eigenvalue at index ``k``.

        Two-sided models accept any integer (the value depends on ``|k|``;
        ``k = 0`` returns the center value 1).  One-sided models require
        ``k >= 1`` and, for tabulated spectra, ``k`` within range.
        """
        self._check_index(k)
        return float(self.eigenvalues(np.asarray([abs(int(k))]))[0])

    def eigenvalues(self, ks: np.ndarray) -> np.ndarray:
        """Vectorized eigenvalues at indices ``k >= 1`` (two-sided families: ``k >= 0``)."""
        return FAMILIES[self.kind].eigenvalues(self.params, np.asarray(ks, dtype=np.int64))

    def log2_eigenvalues(self, ks: np.ndarray) -> np.ndarray:
        """``log2(lambda_k)`` evaluated directly in the log domain.

        Exact for arbitrarily small eigenvalues; never forms ``lambda_k``
        itself, so no underflow occurs.
        """
        return FAMILIES[self.kind].log2_eigenvalues(self.params, np.asarray(ks, dtype=np.int64))

    @functools.cached_property
    def lambda_1(self) -> float:
        return self.eigenvalue(1)

    # -- eigenfunctions -----------------------------------------------------

    @property
    def domain(self) -> tuple[float, float]:
        """Support of the eigenfunctions."""
        domain = FAMILIES[self.kind].domain
        if domain is None:
            raise UnsupportedError(f"{self.kind} models carry no eigenbasis")
        return domain

    def eigenfunction_value(self, k: int, x: float) -> complex | float:
        """Value of the eigenfunction ``psi_k`` at a point of the domain.

        Fourier families return the complex exponential ``exp(-i k x)``
        (signed ``k``); the one-sided green family returns
        ``sqrt(2) sin(k pi x)``.  Points outside the domain raise a
        validation error, as does any index the model does not carry.
        """
        self._check_index(k)
        lo, hi = self.domain
        if not (lo - 1e-12 <= _require_real(x, "x") <= hi + 1e-12):
            raise ValidationError(
                f"x={x!r} outside the eigenfunction domain [{lo}, {hi}]")
        if self.two_sided:
            return complex(np.exp(-1j * k * x))
        return math.sqrt(2.0) * math.sin(k * math.pi * x)

    def eigenfunction_matrix(self, ks: Sequence[int], xs: np.ndarray) -> np.ndarray:
        """Matrix ``[psi_k(x)]`` with one row per index, one column per point."""
        xs = np.asarray(xs, dtype=float)
        ks = np.asarray(ks, dtype=np.int64)
        if self.two_sided:
            return np.exp(-1j * np.outer(ks, xs))
        return math.sqrt(2.0) * np.sin(np.outer(ks, xs) * math.pi)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return entry_to_json(FAMILIES, self.kind, self.params, k_max=self.k_max)


def poisson_model(a: float, b: float, k_max: int = DEFAULT_K_MAX) -> SpectrumModel:
    """Geometric spectrum ``(a/b)^|k|`` of the annulus-to-boundary map."""
    k_max = _check_k_max(k_max)
    a, b = _require_real(a, "a"), _require_real(b, "b")
    if not (0 < a < b) or not math.isfinite(a) or not math.isfinite(b):
        raise ValidationError(f"poisson model needs 0 < a < b, got a={a}, b={b}")
    return SpectrumModel("poisson", {"a": a, "b": b}, k_max)


def heat_model(D: float, a: float, b: float, k_max: int = DEFAULT_K_MAX) -> SpectrumModel:
    """Gaussian spectrum ``exp(-D k^2 (a-b))`` of backward heat recovery.

    ``a`` is the observation time, ``b < a`` the earlier reconstruction time.
    The decay rate ``D (a-b)`` must be a positive finite float, so that the
    spectrum decreases and ``lambda_0 = exp(-0)`` is 1.
    """
    k_max = _check_k_max(k_max)
    D, a, b = _require_real(D, "D"), _require_real(a, "a"), _require_real(b, "b")
    if not (D > 0 and math.isfinite(D)):
        raise ValidationError(f"heat model needs D > 0, got D={D}")
    if not (a > b) or not math.isfinite(a) or not math.isfinite(b):
        raise ValidationError(f"heat model needs a > b, got a={a}, b={b}")
    params = {"D": D, "a": a, "b": b}
    rate = D * (a - b)  # as the formulas form it
    if not (0.0 < rate < math.inf):
        raise ValidationError(
            f"heat model needs a positive finite decay rate D*(a-b), got {rate!r}")
    return SpectrumModel("heat", params, k_max)


def green_model(k_max: int = DEFAULT_K_MAX) -> SpectrumModel:
    """Power-law spectrum ``1/(k^2 pi^2)`` of the string Green kernel."""
    k_max = _check_k_max(k_max)
    return SpectrumModel("green", {}, k_max)


def tabulated_model(values: Sequence[float], allow_ties: bool = False,
                    k_max: int | None = None) -> SpectrumModel:
    """Explicit finite spectrum.

    ``values`` must lie in ``(0, 1]`` and decrease strictly.  With
    ``allow_ties=True`` equal neighbours are accepted and grouped into one
    index carrying a multiplicity — a bookkeeping extension that the
    strict-decrease theory does not cover, so it is off by default.
    """
    if not isinstance(allow_ties, (bool, np.bool_)):
        raise ValidationError(f"allow_ties must be True or False, got {allow_ties!r}")
    return _grouped_table(values, itertools.repeat(1), allow_ties, k_max)


def _grouped_table(values: Sequence[float], counts: Iterable[int], allow_ties: bool,
                   k_max: int | None) -> SpectrumModel:
    """The tabulated model holding ``values[i]`` ``counts[i]`` times; equal
    neighbours merge into one index whose multiplicity is their total count."""
    vals = [_require_real(v, "tabulated value") for v in _require_list(values, "tabulated values")]
    if not vals:
        raise ValidationError("tabulated model needs at least one value")
    for v in vals:
        if not (0.0 < v <= 1.0) or not math.isfinite(v):
            raise ValidationError(f"tabulated values must lie in (0, 1], got {v}")
    grouped: list[float] = []
    mults: list[int] = []
    for v, count in zip(vals, counts):
        if grouped and v == grouped[-1]:
            if not allow_ties:
                raise ValidationError(
                    f"tabulated values must decrease strictly (tie at {v}); "
                    "pass allow_ties=True to group equal values")
            mults[-1] += count
            continue
        if grouped and v > grouped[-1]:
            raise ValidationError("tabulated values must be decreasing")
        grouped.append(v)
        mults.append(count)
    k_max = _check_k_max(len(grouped) if k_max is None else k_max)
    return SpectrumModel(
        "tabulated",
        {"values": tuple(grouped), "multiplicities": tuple(mults)},
        k_max,
    )


def _check_k_max(k_max: int, name: str = "k_max") -> int:
    """``k_max`` as a Python int, refused as ``name`` unless it is an integer >= 1."""
    k_max = _require_int(k_max, name)
    if k_max < 1:
        raise ValidationError(f"{name} must be a positive integer, got {k_max!r}")
    return k_max


def _require_int(value, name: str, limit: int = 1 << 63) -> int:
    """``value`` as a Python int (it stores and writes to JSON as one); a bool, a non-integer
    or an integer of magnitude ``limit`` or more (default: past int64) is refused as ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if not -limit < value < limit:
        raise ValidationError(f"{name} must be an integer of magnitude below "
                              f"2**{limit.bit_length() - 1}, got {value!r}")
    return int(value)


def _check_size(size: int, name: str) -> int:
    """``size``, refused as a failed allocation is, not with numpy's bare ValueError,
    when numpy cannot address that many entries of 64 bytes (a basis takes 40)."""
    if size > (most := np.iinfo(np.intp).max // 64):
        raise NumericError(f"{name} = {size} sizes an array past what numpy can "
                           f"address ({most} entries)")
    return size


def _require_real(value, name: str) -> float:
    """``value`` as a float; a bool, a string, None or anything but a Python
    or numpy integer or float is refused as ``name``, not coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _require_list(values, name: str) -> list:
    """``values`` as a list; anything but a list, tuple or numpy array is refused
    as ``name``, so a number or a string is not read as a sequence."""
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise ValidationError(f"{name} must be a list, got {values!r}")
    return list(values)


@dataclass(frozen=True)
class _Family:
    """One spectral family.  The formulas take the model's ``params``, then
    int64 indices or a noise level's ``(log2_inv_eps, epsilon)``."""

    names: tuple[str, ...]                  # parameters, in factory order
    eigenvalues: Callable[[dict, np.ndarray], np.ndarray]
    log2_eigenvalues: Callable[[dict, np.ndarray], np.ndarray]
    log2_sum: Callable[[dict, int], float]  # sum_{k<=c} log2 lambda_k, closed form in c
    build: Callable[..., SpectrumModel] | None = None  # the factory: names' values, k_max=
    two_sided: bool = False
    domain: tuple[float, float] | None = (0.0, 1.0)  # None: no eigenbasis
    k0_closed_form: Callable[[dict, float, float | None], int] | None = None
    groups: Callable[[dict], Sequence[int]] | None = None  # group sizes of a finite table
    read: Callable[[dict], SpectrumModel] | None = None       # JSON form, when not
    write: Callable[[dict], dict] | None = None               # just the names' values
    more: tuple[str, ...] = ()              # JSON fields besides kind, k_max and names


def _green_k0(p: dict, L: float, eps: float | None) -> int:
    if eps is not None:
        return max(0, math.floor(1.0 / (math.pi * math.sqrt(eps))))
    return max(0, math.floor(2.0 ** (L / 2.0) / math.pi))


def _lookup(values: Sequence[float], ks: np.ndarray, what: str) -> np.ndarray:
    """``values[k - 1]`` at the indices ``ks`` of a finite table."""
    if ks.size and (ks.min() < 1 or ks.max() > len(values)):
        raise ValidationError(f"{what} holds {len(values)} values, index out of range")
    return np.asarray(values, dtype=float)[ks - 1]


def _read_table(obj: dict) -> SpectrumModel:
    """Without a ``k_max`` the table's length is the default, as in the factory.
    ``multiplicities``, when present, holds one integer >= 1 per value."""
    values, mults = obj["values"], obj.get("multiplicities")
    if mults is not None:
        if len(mults) != len(values) or not all(type(m) is int and m >= 1 for m in mults):
            raise ValidationError("tabulated multiplicities must hold one integer >= 1 per value")
        return _grouped_table(values, mults, True, obj.get("k_max"))
    return tabulated_model(values, k_max=obj.get("k_max"))


def _write_table(p: dict) -> dict:
    obj = {"values": list(p["values"])}
    if any(m != 1 for m in p["multiplicities"]):
        obj["multiplicities"] = list(p["multiplicities"])
    return obj


# One entry per spectral family (see the module docstring).
FAMILIES: dict[str, _Family] = {
    "poisson": _Family(
        ("a", "b"), build=poisson_model,
        eigenvalues=lambda p, k: (p["a"] / p["b"]) ** k.astype(float),
        log2_eigenvalues=lambda p, k: -k.astype(float) * math.log2(p["b"] / p["a"]),
        log2_sum=lambda p, c: -(c * (c + 1) // 2) * math.log2(p["b"] / p["a"]),
        two_sided=True, domain=(-math.pi, math.pi),
        k0_closed_form=lambda p, L, eps: max(0, math.floor(L / math.log2(p["b"] / p["a"])))),
    "heat": _Family(
        ("D", "a", "b"), build=heat_model,
        eigenvalues=lambda p, k: np.exp(-p["D"] * (p["a"] - p["b"]) * k.astype(float) ** 2),
        log2_eigenvalues=lambda p, k: (-p["D"] * (p["a"] - p["b"]) * k.astype(float) ** 2
                                       * _LOG2_E),
        log2_sum=lambda p, c: (-p["D"] * (p["a"] - p["b"]) * (c * (c + 1) * (2 * c + 1) // 6)
                               * _LOG2_E),
        two_sided=True, domain=(-math.pi, math.pi),
        # natural log: the base-2 reading of the printed formula overcounts
        k0_closed_form=lambda p, L, eps: math.floor(
            math.sqrt(max(0.0, L * _LN2 / (p["D"] * (p["a"] - p["b"])))))),
    "green": _Family(
        (), build=green_model,
        eigenvalues=lambda p, k: 1.0 / (k.astype(float) ** 2 * math.pi ** 2),
        log2_eigenvalues=lambda p, k: -2.0 * np.log2(k.astype(float)) - 2.0 * _LOG2_PI,
        log2_sum=lambda p, c: -2.0 * c * _LOG2_PI - 2.0 * math.lgamma(c + 1) / _LN2,
        k0_closed_form=_green_k0),
    "tabulated": _Family(
        ("values",),
        eigenvalues=lambda p, k: _lookup(p["values"], k, "tabulated spectrum"),
        log2_eigenvalues=lambda p, k: np.log2(_lookup(p["values"], k, "tabulated spectrum")),
        log2_sum=lambda p, c: float(np.sum(np.log2(p["values"][:c]))),
        domain=None, groups=lambda p: p["multiplicities"],
        read=_read_table, write=_write_table, more=("multiplicities",)),
}


# ---------------------------------------------------------------------------
# Coefficient vectors
# ---------------------------------------------------------------------------


@dataclass
class CoefficientVector:
    """Expansion coefficients of a function in a model's eigenbasis.

    One-sided models store ``(f_1, ..., f_K)``; two-sided models store
    ``(f_{-K}, ..., f_0, ..., f_K)`` (odd length).  The Euclidean norm of the
    entries equals the L2 norm of the represented function (the basis is
    orthonormal for the model's measure).
    """

    model: SpectrumModel
    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.atleast_1d(_entries(self.entries))
        if self.entries.ndim != 1 or not self.entries.size or self.entries.dtype.kind not in "iufc":
            raise ValidationError("entries must be a non-empty 1-d sequence of numbers")
        if not np.all(np.isfinite(self.entries)):
            raise ValidationError("entries must be finite")
        if self.model.two_sided:
            if self.entries.size % 2 == 0:
                raise ValidationError(
                    "two-sided vectors have odd length (-K..K), got even length "
                    f"{self.entries.size}")
        K = self.K
        if K > self.model.k_max:
            raise ValidationError(
                f"vector reaches index {K} beyond the model's k_max={self.model.k_max}")
        length = self.model.spectrum_length
        if length is not None and K > length:
            raise ValidationError(
                f"vector reaches index {K} beyond the tabulated spectrum ({length})")

    @property
    def K(self) -> int:
        """Largest one-sided index covered by the vector."""
        n = self.entries.size
        return (n - 1) // 2 if self.model.two_sided else n

    @property
    def indices(self) -> np.ndarray:
        if self.model.two_sided:
            return np.arange(-self.K, self.K + 1)
        return np.arange(1, self.K + 1)

    def entry(self, k: int) -> complex | float:
        _require_int(k, "index k")
        if self.model.two_sided:
            if abs(k) > self.K:
                raise ValidationError(f"index {k} outside stored range +-{self.K}")
            return self.entries[k + self.K]
        if not 1 <= k <= self.K:
            raise ValidationError(f"index {k} outside stored range 1..{self.K}")
        return self.entries[k - 1]

    @classmethod
    def from_components(cls, model: SpectrumModel, values) -> "CoefficientVector":
        """Per-component values ``v_1..v_K`` as a vector of ``model``: two-sided
        models hold ``v_k`` at index ``+k`` and zeros at the center and below it,
        a labeling convention for the sequence-form channel, not a symmetry."""
        values = _entries(values)
        if not model.two_sided:
            return cls(model, values)
        entries = np.zeros(2 * values.size + 1, dtype=values.dtype)
        entries[values.size + 1:] = values
        return cls(model, entries)

    def components(self) -> np.ndarray:
        """The entries at ``k = 1..K``, the values :meth:`from_components` takes."""
        return self.entries[self.K + 1:] if self.model.two_sided else self.entries

    def resized(self, K: int) -> "CoefficientVector":
        """The vector cut or zero-padded to the index range ``K``."""
        d = _check_size(_require_int(K, "K"), "K") - self.K
        head = abs(d) if self.model.two_sided else 0  # a two-sided range changes at both ends
        if d >= 0:
            return CoefficientVector(self.model, np.pad(self.entries, (head, d)))
        return CoefficientVector(self.model, self.entries[head:d].copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.entries))

    def eigenvalue_profile(self) -> np.ndarray:
        """Eigenvalues ``lambda_|k|`` aligned with :attr:`indices`."""
        return self.model.eigenvalues(np.abs(self.indices))

    def synthesize(self, xs: np.ndarray) -> np.ndarray:
        """Pointwise values ``sum_k f_k psi_k(x)`` on the model's domain."""
        mat = self.model.eigenfunction_matrix(self.indices, xs)
        return self.entries @ mat

    def require_same_basis(self, other: "CoefficientVector", what: str) -> None:
        if self.model != other.model:
            raise ValidationError(f"{what}: coefficient vectors use different bases")

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        complex_entries = np.iscomplexobj(self.entries)
        if complex_entries:
            ent = [[float(z.real), float(z.imag)] for z in self.entries]
        else:
            ent = [float(v) for v in self.entries]
        return {"model": self.model.to_json(), "complex": bool(complex_entries),
                "entries": ent}

    @classmethod
    def from_json(cls, obj: dict, model: SpectrumModel | None = None) -> "CoefficientVector":
        if not isinstance(obj, dict):
            raise ValidationError("coefficient vector JSON must be an object")
        with decoding("coefficient vector JSON"):
            if model is None:
                model = model_from_json(obj["model"])
            raw = _require_list(obj["entries"], "coefficient entries")
            refuse_unknown(obj, {"model", "complex", "entries"}, "coefficient vector JSON")
            real = functools.partial(_require_real, name="coefficient entry")
            if obj.get("complex"):
                entries = np.asarray([complex(real(re), real(im)) for re, im in raw])
            else:
                entries = np.asarray([real(v) for v in raw])
        return cls(model, entries)


def _entries(values) -> np.ndarray:
    """``values`` as an array; a bool in a list is refused, not read as 0 or 1."""
    if isinstance(values, (list, tuple)) and any(isinstance(v, (bool, np.bool_)) for v in values):
        raise ValidationError(f"coefficient entries must be numbers, got {values!r}")
    with decoding("coefficient entries"):  # a ragged nesting of lists
        return np.asarray(values)


def forward_apply(model: SpectrumModel, f: CoefficientVector) -> CoefficientVector:
    """Image ``A f`` of a coefficient vector under the operator.

    Entry ``k`` is scaled by ``lambda_|k|`` (the center mode of two-sided
    models by ``lambda_0 = 1``).
    """
    if f.model != model:
        raise ValidationError("forward_apply: vector was built for a different model")
    return CoefficientVector(model, f.entries * f.eigenvalue_profile())


# ---------------------------------------------------------------------------
# Numerical eigensystems (Nystrom)
# ---------------------------------------------------------------------------


@dataclass
class EigenSystem:
    """Discrete approximation of an integral operator's eigensystem.

    Eigenvalues are sorted non-increasing and are non-negative (tiny negative
    round-off is clamped to zero).  They are those of the symmetrised matrix
    ``sym``: from two half-size ``eigvalsh`` problems formed straight from
    kernel blocks into the two triangles of one ``(p + 1) x p`` buffer,
    ``p = ceil(n / 2)``, when ``sym`` is reflection-symmetric, else from one
    ``eigvalsh`` of ``sym`` (see :func:`nystrom_decompose`).  Either way
    they may differ in the last bits from the eigenvalues that
    ``np.linalg.eigh`` reports for it.

    The system keeps its ``kernel``, and ``sym`` is built from it band by band
    on first read, with the bits of the matrix the solve read.
    ``eigenvectors[:, j]`` holds the values of the j-th eigenfunction at
    ``nodes`` and is orthonormal in the quadrature inner product
    ``sum_i w_i u_i v_i``.  It is computed by one ``eigh`` of ``sym`` on
    first access, so callers that read only eigenvalues never pay for either.
    """

    eigenvalues: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(repr=False, compare=False)

    def eigenvalue(self, k: int) -> float:
        """The k-th largest eigenvalue, for a Python or numpy integer ``k``."""
        _require_int(k, "k")
        if not 1 <= k <= self.eigenvalues.size:
            raise ValidationError(f"eigensystem holds {self.eigenvalues.size} modes")
        return float(self.eigenvalues[k - 1])

    @functools.cached_property
    def sym(self) -> np.ndarray:
        """``W^{1/2} K W^{1/2}``, symmetrised."""
        return _symmetrized(_SymBlocks(self.kernel, self.nodes, self.weights))

    @functools.cached_property
    def eigenvectors(self) -> np.ndarray:
        try:
            vecs = np.linalg.eigh(self.sym)[1][:, ::-1]
        except np.linalg.LinAlgError as exc:  # pragma: no cover - hardware dependent
            raise NumericError(f"symmetric eigensolver failed: {exc}") from exc
        funcs = vecs / np.sqrt(self.weights)[:, None]
        # deterministic sign: largest-magnitude node value is positive
        peak = funcs[np.argmax(np.abs(funcs), axis=0), np.arange(funcs.shape[1])]
        funcs[:, peak < 0] *= -1.0
        return funcs


def _quadrature_rule(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The trapezoid rule's nodes and weights on ``[0, 1]``."""
    if _require_int(n_nodes, "n_nodes") < 2:
        raise ValidationError(f"n_nodes must be >= 2, got {n_nodes}")
    _check_size(n_nodes * n_nodes, "n_nodes squared")  # the kernel matrix
    x = np.linspace(0.0, 1.0, n_nodes)
    h = x[1] - x[0]
    w = np.full(n_nodes, h)
    w[0] = w[-1] = h / 2.0
    return x, w


_SYMMETRIZE_ROWS = 64  # rows per band of the Nystrom builds and reflection check
_REFLECTION_ULPS = 8   # how far from reflection-symmetric sym may be for the split solve


def _kernel_block(values, shape: tuple[int, int]) -> tuple[np.ndarray, float]:
    """One kernel evaluation broadcast to ``shape``, with its largest magnitude."""
    block = np.asarray(values, dtype=float)
    if block.shape not in (shape, (shape[0], 1), (1, shape[1])):
        raise ValidationError("kernel did not broadcast to an (n, n) matrix")
    lo, hi = float(block.min()), float(block.max())  # a NaN propagates through both
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError("kernel produced non-finite values")
    return np.broadcast_to(block, shape), max(hi, -lo)


def _abs_max(a: np.ndarray) -> float:
    return max(float(a.max()), -float(a.min()))


class _SymBlocks:
    """Blocks of ``sym = 0.5 * (S + S.T)``, ``S = W^{1/2} K W^{1/2}`` for
    ``K_ij = kernel(x_i, x_j)``, each from two kernel calls.

    Entry ``(r, c)`` is ``0.5 * ((w_r K(x_r, x_c)) w_c + (w_c K(x_c, x_r)) w_r)``
    with ``w`` the square roots of the weights: the float operations of
    building ``S`` whole and symmetrizing it, and the same with ``r`` and ``c``
    swapped, bit for bit, so any block of ``sym`` can be built on its own.  A
    misshapen or non-finite kernel block is refused as it is built; the
    largest ``|K|`` and ``|K(x, y) - K(y, x)|`` are kept for
    :meth:`require_symmetric`, which judges asymmetry once every block is in.
    """

    def __init__(self, kernel, nodes: np.ndarray, weights: np.ndarray):
        self.kernel, self.nodes, self.sqrt_w = kernel, nodes, np.sqrt(weights)
        self.scale, self.asym = 1.0, 0.0

    def __call__(self, rows, cols) -> np.ndarray:
        """``sym[rows][:, cols]`` for index slices or arrays ``rows`` and ``cols``."""
        x_r, x_c = self.nodes[rows][:, None], self.nodes[cols][None, :]
        w_r, w_c = self.sqrt_w[rows][:, None], self.sqrt_w[cols][None, :]
        shape = (x_r.size, x_c.size)
        upper, upper_max = _kernel_block(self.kernel(x_r, x_c), shape)  # K(x_r, x_c)
        lower, lower_max = _kernel_block(self.kernel(x_c, x_r), shape)  # K(x_c, x_r)
        self.scale = max(self.scale, upper_max, lower_max)
        self.asym = max(self.asym, float(np.abs(upper - lower).max()))
        block = w_r * upper
        block *= w_c
        mirror = w_c * lower
        mirror *= w_r
        block += mirror
        block *= 0.5
        return block

    def require_symmetric(self) -> None:
        if self.asym > 1e-12 * self.scale:
            raise ValidationError("kernel is not symmetric to 1e-12")


def _symmetrized(blocks: _SymBlocks) -> np.ndarray:
    """The whole ``sym``, one band of ``_SYMMETRIZE_ROWS`` rows at a time: the
    kernel is called on rows ``i:j`` against columns ``i:``, and the band's
    transpose fills columns ``i:j`` below it."""
    n = blocks.nodes.size
    sym = np.empty((n, n))
    for i in range(0, n, _SYMMETRIZE_ROWS):
        j = min(i + _SYMMETRIZE_ROWS, n)
        band = blocks(slice(i, j), slice(i, None))
        sym[i:j, i:] = band
        sym[i:, i:j] = band.T  # the entry's form is symmetric, so the diagonal block agrees
    blocks.require_symmetric()
    return sym


def _split_eigvalsh(blocks: _SymBlocks) -> np.ndarray | None:
    """Ascending eigenvalues of ``sym`` from two half-size problems, or None
    when ``sym`` is not reflection-symmetric.

    When ``sym`` commutes with the index reversal ``J`` (a kernel with
    ``K(1-x, 1-y) = K(x, y)`` on nodes symmetric about 1/2), its spectrum is
    that of two half-size symmetric matrices (Cantoni and Butler, Linear
    Algebra Appl. 13 (1976) 275-288).  With ``m = n // 2``, ``A`` the leading
    ``m x m`` block and ``F`` the rows ``sym[n-1-i, :m]``: ``A - F`` holds the
    odd modes and ``A + F`` the even ones, bordered for odd ``n`` by the
    middle row and column, its off-diagonal part times ``sqrt(2)``.

    ``eigvalsh`` reads only a lower triangle, so both problems share one
    ``(p + 1) x p`` buffer, ``p = m + n % 2``, as LAPACK's rectangular full
    packed format does (Gustavson et al., ACM TOMS 37(2), 2010): ``A + F``
    is the lower triangle of ``buf[1:]`` and ``A - F`` the upper triangle of
    ``buf[:m, :m]``, solved as its transpose.  One band of
    ``_SYMMETRIZE_ROWS`` rows at a time, the kernel blocks give the lower
    part of ``A``'s rows, the same part of the mirrored block ``J D J``
    (``D`` the trailing block) they are checked against, the same part of
    ``F``'s rows and the strip of ``F``'s columns above them that their
    transpose is checked against; for odd ``n`` also the middle row.  So
    every element pair of ``sym`` is built once.  The split is taken only
    when ``A`` matches ``J D J``, ``F`` matches ``F.T`` and the middle row its
    reverse to within ``_REFLECTION_ULPS * eps * max|sym|`` (the quadrature
    nodes mirror each other only to rounding: the Green kernel's gap is under
    3 of those units at up to 2000 nodes).  The solve holds the buffer and
    LAPACK's copy of one problem: the traced peak of a 2000-node Green system
    is about 0.35 n^2 doubles.
    """
    n = blocks.nodes.size
    m, p = n // 2, n - n // 2
    buf = np.empty((p + 1, p))
    lower = np.tri(_SYMMETRIZE_ROWS, dtype=bool)
    top = gap = 0.0
    for i in range(0, m, _SYMMETRIZE_ROWS):
        j = min(i + _SYMMETRIZE_ROWS, m)
        rows, cols = np.arange(i, j), np.arange(j)
        a = blocks(rows, cols)                         # A[i:j, :j]
        mirrored = blocks(n - 1 - rows, n - 1 - cols)  # (J D J)[i:j, :j]
        top = max(top, _abs_max(a), _abs_max(mirrored))
        mirrored -= a
        gap = max(gap, _abs_max(mirrored))
        del mirrored
        f = blocks(n - 1 - rows, slice(j))             # F[i:j, :j]
        top = max(top, _abs_max(f))
        diag = f[:, i:]
        gap = max(gap, _abs_max(diag - diag.T))
        if i:
            strip = blocks(n - 1 - cols[:i], slice(i, j))  # F[:i, i:j], against F[i:j, :i]
            top = max(top, _abs_max(strip))
            strip -= f[:, :i].T
            gap = max(gap, _abs_max(strip))
            del strip
            np.add(a[:, :i], f[:, :i], out=buf[i + 1:j + 1, :i])  # A + F, below the diagonal
            np.subtract(a[:, :i], f[:, :i], out=buf[:i, i:j].T)   # A - F, above it
        mask = lower[:j - i, :j - i]  # the diagonal block's lower triangle, for each problem
        np.copyto(buf[i + 1:j + 1, i:j], a[:, i:] + diag, where=mask)
        np.copyto(buf[i:j, i:j].T, a[:, i:] - diag, where=mask)
    if n % 2:
        middle = blocks(slice(m, m + 1), slice(None))[0]  # sym[m, :]
        top = max(top, _abs_max(middle))
        gap = max(gap, _abs_max(middle[:m] - middle[n - m:][::-1]))
        np.multiply(math.sqrt(2.0), middle[:m], out=buf[m + 1, :m])
        buf[m + 1, m] = middle[m]
    blocks.require_symmetric()
    if gap > _REFLECTION_ULPS * np.finfo(float).eps * top:
        return None
    # eigvalsh reads the lower triangle: of buf[:m, :m].T that is A - F, of buf[1:] A + F
    vals = np.concatenate([np.linalg.eigvalsh(buf[:m, :m].T), np.linalg.eigvalsh(buf[1:])])
    vals.sort()
    return vals


def nystrom_decompose(kernel: Callable[[np.ndarray, np.ndarray], np.ndarray],
                      n_nodes: int = 2000) -> EigenSystem:
    """Numerically diagonalize a symmetric kernel on ``[0, 1]``.

    The kernel is sampled on the trapezoid rule's ``n_nodes`` equispaced
    nodes.  The eigenvalues are those of ``sym = 0.5 * (S + S.T)`` for
    ``S = W^{1/2} K W^{1/2}``, the square-root-of-weights similarity transform
    of ``K_ij = kernel(x_i, x_j)``, and only they are computed here.  The
    trapezoid nodes are symmetric about ``x = 1/2``, so for a kernel with
    ``K(1-x, 1-y) = K(x, y)``, such as :func:`green_kernel`, ``sym`` commutes
    with the index reversal and its spectrum is that of two half-size
    symmetric problems, about a quarter of the dense work.  Those are formed
    straight from kernel blocks and no n x n array exists: the solve holds
    one ``(p + 1) x p`` buffer, ``p = ceil(n / 2)``, with each problem in
    one of its triangles (see :func:`_split_eigvalsh`).  Any other
    kernel, found so once the split's blocks are all in, gets one
    ``np.linalg.eigvalsh`` of ``sym``, built band by band.  A misshapen or
    non-finite kernel block is refused as it is built, asymmetry once every
    block is in.  The eigenvalues may differ from ``np.linalg.eigh``'s in the
    last bits.  :attr:`EigenSystem.sym` is built by the band builder when
    first read, and the eigenvectors come from one ``eigh`` of it when
    :attr:`EigenSystem.eigenvectors` is first read, with the node values
    recovered as ``u / sqrt(w)``, which makes them weight-orthonormal.

    Parameters
    ----------
    kernel : callable
        Symmetric, elementwise ``kernel(x, y)`` (it sees blocks, not the
        whole grid); it may return the shape of ``x`` or ``y`` alone when it
        depends on only one of them.  The returned system keeps it.
    n_nodes : int
        Number of quadrature nodes; a Python or numpy integer.

    Raises
    ------
    ValidationError
        Non-symmetric, non-finite or misshapen kernel, or a node count that
        is no integer or is below 2.
    NumericError
        Eigen-solver failure, or a spectrum that is negative beyond
        round-off (the supported operators are positive semi-definite).
    """
    nodes, weights = _quadrature_rule(n_nodes)
    n = nodes.size
    blocks = _SymBlocks(kernel, nodes, weights)
    try:
        vals = _split_eigvalsh(blocks)
        if vals is None:
            vals = np.linalg.eigvalsh(_symmetrized(blocks))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hardware dependent
        raise NumericError(f"symmetric eigensolver failed: {exc}") from exc
    vals = vals[::-1]

    top = max(1.0, float(vals[0]))
    psd_tol = 64.0 * n * np.finfo(float).eps * top
    if vals[-1] < -psd_tol:
        raise NumericError(
            f"operator has a negative eigenvalue {vals[-1]:.3e} beyond round-off; "
            "only positive semi-definite kernels are supported")
    return EigenSystem(np.maximum(vals, 0.0), nodes, weights, kernel)


def green_kernel(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """String Green kernel: ``(1-x) y`` for ``y <= x``, ``x (1-y)`` for ``x <= y``."""
    x, y = np.asarray(x), np.asarray(y)
    if x.dtype.kind not in "iuf" or y.dtype.kind not in "iuf":  # not parsed from strings
        raise ValidationError("green_kernel points must be real numbers")
    x, y = x.astype(float, copy=False), y.astype(float, copy=False)
    return (1.0 - np.maximum(x, y)) * np.minimum(x, y)  # each branch's product, commuted


# ---------------------------------------------------------------------------
# Formats
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def csv_text(columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A CSV header line and one line per row: a None field is blank and a float
    keeps 17 significant digits."""
    lines = [",".join(map(_fmt, row)) for row in (columns, *rows)]
    return "\n".join(lines) + "\n"


def spectrum_rows(model: SpectrumModel, k_hi: int) -> list[dict]:
    """Rows ``{k, lambda, multiplicity}`` of the spectrum prefix ``k = 1..k_hi``; a
    tabulated model refuses a ``k_hi`` past its table."""
    if _require_int(k_hi, "k_hi") < 1:
        raise ValidationError(f"k_hi must be >= 1, got {k_hi}")
    ks = np.arange(1, _check_size(k_hi, "k_hi") + 1)
    return [{"k": k, "lambda": lam, "multiplicity": model.multiplicity(k)}
            for k, lam in zip(ks.tolist(), model.eigenvalues(ks).tolist())]


model_to_json = SpectrumModel.to_json


def model_from_json(obj: dict) -> SpectrumModel:
    """Rebuild a model from its JSON form; malformed input raises ValidationError."""
    return entry_from_json(FAMILIES, obj, "model JSON", "k_max")


@contextlib.contextmanager
def decoding(what: str):
    """Report a failure to decode the JSON form ``what`` as a ValidationError: a
    missing field, a value of the wrong type or out of float range.  A
    ValidationError raised inside passes through unchanged."""
    try:
        yield
    except ValidationError:
        raise
    except KeyError as exc:
        raise ValidationError(f"{what} is missing field {exc}") from exc
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ValidationError(f"malformed {what}: {exc}") from exc


def refuse_unknown(obj: dict, known, what: str) -> None:
    """Refuse the fields of ``obj`` outside ``known``: a misspelt field would
    otherwise fall back to its default."""
    unknown = [name for name in obj if name not in known]
    if unknown:
        raise ValidationError(f"{what} has unknown fields {unknown}")


def entry_to_json(table: dict, kind: str, params: dict, **extra) -> dict:
    """JSON form of the ``kind`` entry of ``table`` (:data:`FAMILIES` or
    ``channel.RULES``): its ``write`` form, else the values of its ``names``."""
    entry = table[kind]
    fields = entry.write(params) if entry.write else {name: params[name] for name in entry.names}
    return {"kind": kind, **extra, **fields}


def entry_from_json(table: dict, obj, what: str, *tail: str):
    """Rebuild an entry of ``table`` from its JSON form ``obj`` through the
    entry's ``read``, else its factory ``build`` applied to the ``names``' values
    and, by keyword, to those optional fields ``tail`` that ``obj`` holds.  A
    field outside ``kind``, ``tail``, the ``names`` and the entry's ``more`` is
    refused."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError(f"{what} must be an object with a 'kind' field")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in table:
        raise ValidationError(
            f"unknown kind {kind!r} in {what}: expected one of {', '.join(table)}")
    entry = table[kind]
    refuse_unknown(obj, {"kind", *tail, *entry.names, *entry.more}, what)
    with decoding(what):
        if entry.read:
            return entry.read(obj)
        return entry.build(*[obj[name] for name in entry.names],
                           **{name: obj[name] for name in tail if name in obj})

