"""Spectrum models, eigenbases, coefficient vectors and the Nystrom solver."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from fredinfo import (
    CoefficientVector,
    NumericError,
    UnsupportedError,
    ValidationError,
    export_spectrum_csv,
    forward_apply,
    green_kernel,
    green_model,
    heat_model,
    inverse_spectrum_rule,
    model_from_json,
    model_to_json,
    nystrom_decompose,
    poisson_model,
    rule_from_json,
    rule_to_json,
    tabulated_model,
)
from fredinfo.spectra import _quadrature_rule


# ---------------------------------------------------------------------------
# Eigenvalues
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k, expected", [
    (0, 1.0),
    (1, 0.5),
    (3, 0.125),
    (-3, 0.125),
    (10, 0.5 ** 10),
])
def test_poisson_eigenvalues(k, expected):
    m = poisson_model(0.5, 1.0)
    assert m.eigenvalue(k) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("k, expected", [
    (1, math.exp(-1.0)),
    (2, math.exp(-4.0)),
    (-2, math.exp(-4.0)),
    (0, 1.0),
])
def test_heat_eigenvalues(k, expected):
    m = heat_model(1.0, 2.0, 1.0)  # D (a - b) = 1
    assert m.eigenvalue(k) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("k", [1, 2, 5, 17])
def test_green_eigenvalues(k):
    m = green_model()
    assert m.eigenvalue(k) == pytest.approx(1.0 / (k * k * math.pi ** 2), rel=1e-15)


def test_tabulated_eigenvalues_and_length():
    m = tabulated_model([0.9, 0.5, 0.25])
    assert m.spectrum_length == 3
    assert m.eigenvalue(2) == 0.5
    with pytest.raises(ValidationError):
        m.eigenvalue(4)
    with pytest.raises(ValidationError):
        m.eigenvalue(0)


def test_log2_eigenvalues_match_linear_values():
    rng = np.random.default_rng(20240817)
    models = [poisson_model(0.3, 0.7), heat_model(0.5, 1.5, 0.5), green_model(),
              tabulated_model(sorted(rng.uniform(0.01, 1.0, size=12), reverse=True))]
    for m in models:
        # stay shallow enough that the linear values do not underflow
        ks = np.arange(1, 13)
        np.testing.assert_allclose(
            m.log2_eigenvalues(ks), np.log2(m.eigenvalues(ks)), rtol=1e-12)


def test_log2_eigenvalues_stay_finite_far_below_float_range():
    # linear eigenvalues underflow long before these indices
    m = heat_model(1.0, 2.0, 1.0)
    ks = np.asarray([100, 1000, 10000])
    logs = m.log2_eigenvalues(ks)
    assert np.all(np.isfinite(logs))
    assert logs[-1] == pytest.approx(-1e8 * math.log2(math.e), rel=1e-12)
    assert np.all(m.eigenvalues(ks[1:]) == 0.0)  # the float path is useless here


@pytest.mark.parametrize("factory, kwargs", [
    (poisson_model, {"a": 1.0, "b": 0.5}),     # a >= b
    (poisson_model, {"a": -0.1, "b": 1.0}),    # a <= 0
    (heat_model, {"D": -1.0, "a": 2.0, "b": 1.0}),
    (heat_model, {"D": 1.0, "a": 1.0, "b": 2.0}),  # a <= b
])
def test_bad_model_parameters_rejected(factory, kwargs):
    with pytest.raises(ValidationError):
        factory(**kwargs)


@pytest.mark.parametrize("D, a, b", [(1e308, 1e308, -1e308), (2.0, 1e308, -1e308),
                                     (1e-300, 1e-300, 0.0)])
def test_heat_decay_rate_must_be_a_positive_finite_float(D, a, b):
    # D(a - b) overflows to inf or underflows to 0: the spectrum is not decreasing
    with pytest.raises(ValidationError, match="decay rate"):
        heat_model(D, a, b)


@pytest.mark.parametrize("model", [poisson_model(0.3, 1.7), heat_model(0.7, 2.5, 0.1),
                                   heat_model(1e-300, 1e300, 0.0)])
def test_two_sided_center_comes_from_the_family_formula(model):
    assert model.eigenvalues(np.arange(0, 3))[0] == 1.0
    assert model.eigenvalue(0) == 1.0
    profile = CoefficientVector(model, np.ones(7)).eigenvalue_profile()
    np.testing.assert_array_equal(profile, model.eigenvalues(np.abs(np.arange(-3, 4))))
    assert profile[3] == 1.0


def test_tabulated_validation():
    with pytest.raises(ValidationError):
        tabulated_model([])
    with pytest.raises(ValidationError):
        tabulated_model([1.5, 0.5])          # above 1
    with pytest.raises(ValidationError):
        tabulated_model([0.5, 0.5])          # tie without allow_ties
    with pytest.raises(ValidationError):
        tabulated_model([0.25, 0.5])         # increasing
    m = tabulated_model([0.5, 0.5, 0.25], allow_ties=True)
    assert m.spectrum_length == 2            # the tie collapses into one index
    assert m.multiplicity(1) == 2
    assert m.multiplicity(2) == 1


def test_multiplicity_two_sided():
    m = poisson_model(0.5, 1.0)
    assert m.multiplicity(0) == 1
    assert m.multiplicity(1) == 2
    assert m.multiplicity(7) == 2


# ---------------------------------------------------------------------------
# Eigenfunctions and quadrature
# ---------------------------------------------------------------------------


def _circle_nodes(n: int):
    """Uniform angles with weights for the normalized measure d(theta)/(2 pi)."""
    theta = -math.pi + 2.0 * math.pi * np.arange(n) / n
    w = np.full(n, 1.0 / n)
    return theta, w


def test_fourier_orthonormality_under_circle_measure():
    m = poisson_model(0.5, 1.0)
    theta, w = _circle_nodes(64)
    ks = np.arange(-5, 6)
    mat = m.eigenfunction_matrix(ks, theta)           # rows psi_k(theta_i)
    gram = (mat * w) @ mat.conj().T
    np.testing.assert_allclose(gram, np.eye(ks.size), atol=1e-12)


def test_sine_orthonormality_under_lebesgue_measure():
    m = green_model()
    nodes, w = np.polynomial.legendre.leggauss(128)
    nodes = (nodes + 1.0) / 2.0
    w = w / 2.0
    ks = np.arange(1, 9)
    mat = m.eigenfunction_matrix(ks, nodes)
    gram = (mat * w) @ mat.T
    np.testing.assert_allclose(gram, np.eye(ks.size), atol=1e-10)


def test_eigenfunction_point_values():
    p = poisson_model(0.5, 1.0)
    assert p.eigenfunction_value(2, 0.0) == pytest.approx(1.0)
    assert p.eigenfunction_value(1, math.pi / 2) == pytest.approx(-1j, abs=1e-15)
    g = green_model()
    assert g.eigenfunction_value(1, 0.5) == pytest.approx(math.sqrt(2.0))
    with pytest.raises(ValidationError):
        g.eigenfunction_value(1, 2.0)  # outside [0, 1]
    t = tabulated_model([0.5])
    with pytest.raises(UnsupportedError):
        t.domain


def test_parseval_on_the_circle():
    """Quadrature norm of a synthesized function equals the coefficient norm."""
    rng = np.random.default_rng(7)
    m = poisson_model(0.5, 1.0)
    entries = rng.normal(size=11) + 1j * rng.normal(size=11)
    f = CoefficientVector(m, entries)
    theta, w = _circle_nodes(256)
    vals = f.synthesize(theta)
    quad_norm_sq = float(np.sum(w * np.abs(vals) ** 2))
    assert quad_norm_sq == pytest.approx(f.norm() ** 2, rel=1e-12)


def test_parseval_on_the_interval():
    rng = np.random.default_rng(8)
    m = green_model()
    f = CoefficientVector(m, rng.normal(size=8))
    nodes, w = np.polynomial.legendre.leggauss(512)
    nodes = (nodes + 1.0) / 2.0
    w = w / 2.0
    vals = f.synthesize(nodes)
    quad_norm_sq = float(np.sum(w * vals ** 2))
    assert quad_norm_sq == pytest.approx(f.norm() ** 2, rel=1e-10)


def test_forward_apply_matches_kernel_quadrature():
    """A f computed by eigenvalue scaling agrees with the integral operator.

    The kernel has a kink on the diagonal, so the integral is split there and
    each smooth half integrated with Gauss-Legendre — exact to machine
    precision for the sine-series integrand.
    """
    rng = np.random.default_rng(9)
    m = green_model()
    f = CoefficientVector(m, rng.normal(size=6))
    t, w = np.polynomial.legendre.leggauss(64)
    t = (t + 1.0) / 2.0
    w = w / 2.0
    xs = np.linspace(0.05, 0.95, 19)
    af_vals = forward_apply(m, f).synthesize(xs)
    for x, ref in zip(xs, af_vals):
        y1, w1 = t * x, w * x                     # [0, x]
        y2, w2 = x + t * (1.0 - x), w * (1.0 - x)  # [x, 1]
        quad = (np.sum(w1 * (1.0 - x) * y1 * f.synthesize(y1))
                + np.sum(w2 * x * (1.0 - y2) * f.synthesize(y2)))
        assert quad == pytest.approx(ref, abs=1e-12)


# ---------------------------------------------------------------------------
# Coefficient vectors
# ---------------------------------------------------------------------------


def test_vector_index_layout_two_sided():
    m = poisson_model(0.5, 1.0)
    f = CoefficientVector(m, np.arange(7, dtype=float))  # -3..3
    assert f.K == 3
    assert list(f.indices) == [-3, -2, -1, 0, 1, 2, 3]
    assert f.entry(-3) == 0.0
    assert f.entry(0) == 3.0
    assert f.entry(3) == 6.0
    with pytest.raises(ValidationError):
        f.entry(4)
    with pytest.raises(ValidationError):
        CoefficientVector(m, np.arange(6, dtype=float))  # even length


def test_vector_index_layout_one_sided():
    m = green_model()
    f = CoefficientVector(m, np.asarray([2.0, 3.0]))
    assert f.K == 2
    assert list(f.indices) == [1, 2]
    assert f.entry(1) == 2.0
    with pytest.raises(ValidationError):
        f.entry(0)


@pytest.mark.parametrize("model, entries", [
    (poisson_model(0.5, 1.0), [0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0]),  # v_k at +k
    (green_model(), [1.0, 2.0, 3.0]),
], ids=["two-sided", "one-sided"])
def test_vector_from_components_round_trips(model, entries):
    f = CoefficientVector.from_components(model, np.asarray([1.0, 2.0, 3.0]))
    assert f.K == 3
    np.testing.assert_array_equal(f.entries, entries)
    np.testing.assert_array_equal(f.components(), [1.0, 2.0, 3.0])


@pytest.mark.parametrize("model, entries, cut, padded", [
    (poisson_model(0.5, 1.0), [1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 3.0, 4.0],
     [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 0.0]),
    (green_model(), [1.0, 2.0], [1.0], [1.0, 2.0, 0.0]),
], ids=["two-sided", "one-sided"])
def test_vector_resized_cuts_and_pads(model, entries, cut, padded):
    f = CoefficientVector(model, np.asarray(entries))
    short, long = f.resized(f.K - 1), f.resized(f.K + 1)
    assert (short.K, long.K) == (f.K - 1, f.K + 1)
    np.testing.assert_array_equal(short.entries, cut)
    np.testing.assert_array_equal(long.entries, padded)
    np.testing.assert_array_equal(f.resized(f.K).entries, entries)
    z = CoefficientVector(model, np.asarray(entries) * 1j).resized(f.K + 1)
    assert np.iscomplexobj(z.entries)


def test_vector_respects_k_max_and_table_length():
    m = green_model(k_max=4)
    with pytest.raises(ValidationError):
        CoefficientVector(m, np.ones(5))
    t = tabulated_model([0.5, 0.25])
    with pytest.raises(ValidationError):
        CoefficientVector(t, np.ones(3))


def test_eigenvalue_profile_center_is_one():
    m = heat_model(1.0, 2.0, 1.0)
    f = CoefficientVector(m, np.ones(5))
    prof = f.eigenvalue_profile()
    expected = [math.exp(-4), math.exp(-1), 1.0, math.exp(-1), math.exp(-4)]
    np.testing.assert_allclose(prof, expected, rtol=1e-15)


def test_forward_apply_scales_by_profile():
    m = poisson_model(0.5, 1.0)
    f = CoefficientVector(m, np.ones(5))
    g = forward_apply(m, f)
    np.testing.assert_allclose(g.entries, [0.25, 0.5, 1.0, 0.5, 0.25], rtol=1e-15)
    with pytest.raises(ValidationError):
        forward_apply(green_model(), f)


# ---------------------------------------------------------------------------
# Nystrom
# ---------------------------------------------------------------------------


def test_nystrom_green_kernel_oracle():
    """The string kernel's eigenvalues are 1/(k pi)^2 — an independent oracle."""
    sys = nystrom_decompose(green_kernel, n_nodes=400)
    for k in range(1, 9):
        exact = 1.0 / (k * k * math.pi ** 2)
        assert abs(sys.eigenvalue(k) - exact) / exact < 1e-3


def test_nystrom_green_eigenfunctions_match_sines():
    sys = nystrom_decompose(green_kernel, n_nodes=400)
    x = sys.nodes
    for k in (1, 2, 3):
        ref = math.sqrt(2.0) * np.sin(k * math.pi * x)
        phi = sys.eigenvectors[:, k - 1]
        err = min(np.max(np.abs(phi - ref)), np.max(np.abs(phi + ref)))
        assert err < 5e-3


def test_nystrom_weight_orthonormality():
    sys = nystrom_decompose(green_kernel, n_nodes=150)
    V = sys.eigenvectors[:, :6]
    gram = (V * sys.weights[:, None]).T @ V
    np.testing.assert_allclose(gram, np.eye(6), atol=1e-10)


def test_nystrom_rank_one_kernel():
    # K(x, y) = 1 has the single eigenpair (lambda=1, phi=1)
    sys = nystrom_decompose(lambda x, y: np.ones_like(x * y), n_nodes=100)
    assert sys.eigenvalue(1) == pytest.approx(1.0, rel=1e-12)
    assert sys.eigenvalue(2) == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(sys.eigenvectors[:, 0], 1.0, rtol=1e-8)


def test_nystrom_rejects_asymmetric_kernel():
    with pytest.raises(ValidationError):
        nystrom_decompose(lambda x, y: x - y + x * y, n_nodes=50)


def test_nystrom_rejects_negative_definite_kernel():
    with pytest.raises(NumericError):
        nystrom_decompose(lambda x, y: -np.ones_like(x * y), n_nodes=50)


def test_nystrom_deterministic_sign():
    a = nystrom_decompose(green_kernel, n_nodes=120)
    b = nystrom_decompose(green_kernel, n_nodes=120)
    np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)
    for j in range(5):
        col = a.eigenvectors[:, j]
        assert col[int(np.argmax(np.abs(col)))] > 0


def _eigvalsh_sizes(monkeypatch):
    """Record the order of every matrix passed to ``np.linalg.eigvalsh``."""
    sizes, dense = [], np.linalg.eigvalsh

    def recorded(a):
        sizes.append(len(a))
        return dense(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    return sizes


@pytest.mark.parametrize("n", [3, 4, 5, 50, 51, 63, 64, 65, 66, 127, 128, 129, 130,
                               400, 401, 999, 1000, 1001, 2000, 2001])
def test_nystrom_green_trapezoid_matches_exact_discrete_spectrum(monkeypatch, n):
    """On the trapezoid grid with h = 1/(n-1) the Green kernel matrix is the
    inverse of the Dirichlet second difference, so its eigenvalues are exactly
    h^2 / (4 sin^2(j pi h / 2)) for j = 1..n-2, plus the two zero rows at the
    end points.  The grid and kernel are reflection-symmetric, so the system's
    eigenvalues come from the two half-size problems; up to 1001 nodes one
    dense eigvalsh of ``sym`` is held to the same bounds.  The sizes sit about
    the 64-row bands of the build, at even and odd n, so a value read from the
    wrong triangle of the shared buffer shows."""
    sizes = _eigvalsh_sizes(monkeypatch)
    sys = nystrom_decompose(green_kernel, n_nodes=n)
    assert sizes == [n // 2, n - n // 2]
    monkeypatch.undo()
    solved = {"split": sys.eigenvalues}
    if n <= 1001:
        solved["dense"] = np.linalg.eigvalsh(sys.sym)[::-1]
    h = 1.0 / (n - 1)
    j = np.arange(1, n - 1)
    exact = np.concatenate([h * h / (4.0 * np.sin(j * math.pi * h / 2.0) ** 2), [0.0, 0.0]])
    for path, vals in solved.items():
        # the two zeros to 64 eps lambda_1, far inside the PSD tolerance 64 n eps
        assert np.abs(vals - exact).max() <= 64.0 * np.finfo(float).eps * exact[0], path
        rel = np.abs(vals[:n - 2] - exact[:n - 2]) / exact[:n - 2]
        assert rel[:8].max() <= 2e-14, path
        assert rel.max() <= 5e-11, path


def _nystrom_by_eigh(kernel, n_nodes):
    """The full-eigh path: meshgrid kernel matrix, eigh, per-column sign loop.
    Returns the sorted eigenvalues (unclamped), the node values of the
    eigenvectors and the symmetrised matrix."""
    nodes = np.linspace(0.0, 1.0, n_nodes)
    weights = np.full(n_nodes, nodes[1])
    weights[[0, -1]] /= 2.0
    X, Y = np.meshgrid(nodes, nodes, indexing="ij")
    Kmat = np.asarray(kernel(X, Y), dtype=float)
    sqrt_w = np.sqrt(weights)
    sym = (sqrt_w[:, None] * Kmat) * sqrt_w[None, :]
    sym = 0.5 * (sym + sym.T)
    vals, vecs = np.linalg.eigh(sym)
    order = np.argsort(vals)[::-1]
    funcs = vecs[:, order] / sqrt_w[:, None]
    for j in range(funcs.shape[1]):
        i = int(np.argmax(np.abs(funcs[:, j])))
        if funcs[i, j] < 0:
            funcs[:, j] = -funcs[:, j]
    return vals[order], funcs, sym


_BAND_EDGES = [63, 64, 65, 127, 129]  # about the 64-row bands of the build


def _exp_abs_kernel(x, y):
    return np.exp(-np.abs(x - y))


# Both are reflection-symmetric, so both take the split solve.  The Green kernel
# is 0 on the end nodes, which zeroes the first and last rows of sym; exp(-|x-y|)
# is not, so only it shows a wrong value in the first row or column of a block.
_REFLECTED = pytest.mark.parametrize("kernel", [green_kernel, _exp_abs_kernel],
                                     ids=["green", "exp-abs"])


@_REFLECTED
@pytest.mark.parametrize("n", [120, 121, 400] + _BAND_EDGES)
def test_nystrom_eigenvalues_match_full_eigh(kernel, n):
    """Eigenvalues from the half-size problems agree with the full eigh of the
    same matrix, and the lazily computed eigenvectors are that eigh's, column
    for column; the banded build gives the whole matrix's ``sym`` bit for bit,
    also one row short of, at and past a band's edge."""
    sys = nystrom_decompose(kernel, n_nodes=n)
    vals, funcs, sym = _nystrom_by_eigh(kernel, n)
    eps_lam = np.finfo(float).eps * vals[0]
    np.testing.assert_array_equal(sys.sym, sym)
    assert np.abs(sys.eigenvalues - np.maximum(vals, 0.0)).max() <= 8.0 * eps_lam
    distinct = vals > 1e3 * eps_lam  # the Green kernel's two zero modes may come in any order
    np.testing.assert_array_equal(sys.eigenvectors[:, distinct], funcs[:, distinct])


@_REFLECTED
@pytest.mark.parametrize("n", [2, 3])
def test_nystrom_smallest_grids_split(monkeypatch, kernel, n):
    """Two and three nodes: a 1 x 1 odd problem and a 1 x 1 or bordered
    2 x 2 even one, agreeing with the dense solver."""
    sizes = _eigvalsh_sizes(monkeypatch)
    sys = nystrom_decompose(kernel, n_nodes=n)
    assert sizes == [1, n - 1]
    dense = np.maximum(np.linalg.eigh(sys.sym)[0][::-1], 0.0)
    assert np.abs(sys.eigenvalues - dense).max() <= 8.0 * np.finfo(float).eps * dense[0]
    if kernel is green_kernel:  # K vanishes on the end points: only K(1/2, 1/2) survives
        np.testing.assert_array_equal(sys.eigenvalues, [sys.sym[1, 1], 0.0, 0.0][:n])


@pytest.mark.parametrize("n", [50, 51])
def test_nystrom_kernel_without_reflection_symmetry_is_solved_dense(monkeypatch, n):
    """exp(x + y) is symmetric but K(1-x, 1-y) != K(x, y): one dense eigvalsh
    of ``sym``, whose values are reported bit for bit."""
    sizes = _eigvalsh_sizes(monkeypatch)
    sys = nystrom_decompose(lambda x, y: np.exp(x + y), n_nodes=n)
    assert sizes == [n]
    np.testing.assert_array_equal(sys.eigenvalues,
                                  np.maximum(np.linalg.eigvalsh(sys.sym)[::-1], 0.0))


def _split_by_blocks(sym):
    """The split solve with each block its own array: the eigenvalues of
    ``A - F`` and of ``A + F`` (bordered for odd n), concatenated and sorted."""
    n = sym.shape[0]
    m = n // 2
    A, F = sym[:m, :m], sym[n - m:, :m][::-1]
    even = A + F
    if n % 2:
        border = math.sqrt(2.0) * sym[:m, m]
        even = np.block([[even, border[:, None]], [border[None, :], sym[m:m + 1, m:m + 1]]])
    return np.sort(np.concatenate([np.linalg.eigvalsh(A - F), np.linalg.eigvalsh(even)]))


@_REFLECTED
@pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 127, 128, 129, 257, 999, 1000])
def test_nystrom_split_in_one_buffer_matches_block_formula(monkeypatch, kernel, n):
    """The split solve formed band by band from kernel blocks gives the block
    formula's eigenvalues on the whole ``sym`` bit for bit, about the band
    edges and at odd n, where the even problem is bordered."""
    sizes = _eigvalsh_sizes(monkeypatch)
    sys = nystrom_decompose(kernel, n_nodes=n)
    assert sizes == [n // 2, n - n // 2]
    monkeypatch.undo()
    np.testing.assert_array_equal(sys.eigenvalues,
                                  np.maximum(_split_by_blocks(sys.sym)[::-1], 0.0))


# (n, i, j): n = 300 and 301 put a 150-row half in three bands of the
# reflection check, and each entry below is compared only in the last one
_UNMIRRORED = {
    "middle-row": (51, 25, 0),
    "trailing-block": (51, 49, 50),
    "off-diagonal-block": (51, 26, 0),
    "leading-block-last-band-even": (300, 149, 140),
    "off-diagonal-block-last-band-even": (300, 159, 145),
    "leading-block-last-band-odd": (301, 149, 140),
    "off-diagonal-block-last-band-odd": (301, 160, 145),
    "middle-row-last-band": (301, 150, 140),
    "f-below-diagonal-last-band-even": (300, 159, 10),  # F[140, 10], against F[10, 140]
    "f-below-diagonal-last-band-odd": (301, 160, 10),
}


@pytest.mark.parametrize("n, i, j", list(_UNMIRRORED.values()), ids=list(_UNMIRRORED))
def test_nystrom_split_needs_every_block_mirrored(monkeypatch, n, i, j):
    """A kernel perturbed at (x_i, x_j) and (x_j, x_i), so that ``sym[i, j]``
    leaves reflection symmetry by 64 eps max|sym|, past the split's tolerance
    of 8, goes to one dense eigvalsh of the whole ``sym``."""
    nodes, weights = _quadrature_rule(n)
    base = nystrom_decompose(green_kernel, n_nodes=n).sym
    shift = 64.0 * np.finfo(float).eps * base.max()
    bump = 1.25 * shift / math.sqrt(weights[i] * weights[j])

    def kernel(x, y):
        at = ((x == nodes[i]) & (y == nodes[j])) | ((x == nodes[j]) & (y == nodes[i]))
        return green_kernel(x, y) + np.where(at, bump, 0.0)

    sizes = _eigvalsh_sizes(monkeypatch)
    sys = nystrom_decompose(kernel, n_nodes=n)
    assert sizes == [n]
    monkeypatch.undo()
    assert sys.sym[i, j] - base[i, j] >= 64.0 * np.finfo(float).eps * sys.sym.max()
    np.testing.assert_array_equal(sys.eigenvalues,
                                  np.maximum(np.linalg.eigvalsh(sys.sym)[::-1], 0.0))


@_REFLECTED
@pytest.mark.parametrize("n", [150, 1000])
def test_nystrom_lazy_eigenvectors_pair_with_eigenvalues(kernel, n):
    sys = nystrom_decompose(kernel, n_nodes=n)
    U = sys.eigenvectors * np.sqrt(sys.weights)[:, None]  # Euclidean-orthonormal
    residual = np.linalg.norm(sys.sym @ U - U * sys.eigenvalues[None, :], axis=0)
    assert residual.max() <= 64.0 * np.finfo(float).eps * sys.eigenvalues[0]
    gram = (sys.eigenvectors * sys.weights[:, None]).T @ sys.eigenvectors
    np.testing.assert_allclose(gram, np.eye(n), atol=1e-12)


@pytest.mark.parametrize("n", [60] + _BAND_EDGES)
@pytest.mark.parametrize("kernel", [lambda x, y: np.ones_like(x),
                                    lambda x, y: np.ones_like(y),
                                    lambda x, y: np.exp(x + y)],
                         ids=["ones-x", "ones-y", "exp-sum"])
def test_nystrom_one_sided_kernel_broadcasts(kernel, n):
    """A kernel returning only x's (or y's) shape, or a rank-one kernel without
    the reflection symmetry, gives the meshgrid system."""
    sys = nystrom_decompose(kernel, n_nodes=n)
    vals, funcs, sym = _nystrom_by_eigh(kernel, n)
    np.testing.assert_array_equal(sys.sym, sym)
    eps_lam = np.finfo(float).eps * vals[0]
    assert np.abs(sys.eigenvalues - np.maximum(vals, 0.0)).max() <= 8.0 * eps_lam
    np.testing.assert_array_equal(sys.eigenvectors[:, 0], funcs[:, 0])
    trace = float(np.sum(sys.weights * kernel(sys.nodes, sys.nodes)))  # the rank-one eigenvalue
    assert sys.eigenvalue(1) == pytest.approx(trace, rel=1e-12)


def test_nystrom_non_finite_last_band_outranks_asymmetric_first_band():
    """A kernel asymmetric in the first band and NaN only at (1, 1), which
    only the last band of 129 nodes reaches, is refused as non-finite: shape
    and finiteness are checked band by band, symmetry after every band."""
    def skewed(x, y):
        return green_kernel(x, y) + np.where((x < 0.25) & (y < x), 0.5, 0.0)

    def kernel(x, y):
        return np.where((x == 1.0) & (y == 1.0), math.nan, skewed(x, y))

    with pytest.raises(ValidationError, match="non-finite"):
        nystrom_decompose(kernel, n_nodes=129)
    with pytest.raises(ValidationError, match="not symmetric"):
        nystrom_decompose(skewed, n_nodes=129)


@pytest.mark.parametrize("n", [999, 1000, 2000])
def test_nystrom_split_holds_no_n_by_n_array(n):
    """The split solve forms no n x n array: the traced peak of an n-node
    Green system stays under 0.5 n^2 doubles, its one buffer of both
    half-size problems included (bordered at odd n)."""
    tracemalloc.start()
    try:
        nystrom_decompose(green_kernel, n_nodes=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * n * n * 8


def test_nystrom_richardson_step_reaches_the_green_spectrum():
    """The trapezoid eigenvalues expand in even powers of h, so one
    Richardson step over 1001 and 2001 nodes removes the h^2 term and lands
    within 1e-9 of the paper's 1/(k^2 pi^2) for k <= 8."""
    coarse = nystrom_decompose(green_kernel, n_nodes=1001).eigenvalues[:8]
    fine = nystrom_decompose(green_kernel, n_nodes=2001).eigenvalues[:8]
    exact = 1.0 / (np.arange(1, 9) * math.pi) ** 2
    assert (np.abs((4.0 * fine - coarse) / 3.0 - exact) / exact).max() <= 1e-9


@pytest.mark.parametrize("n_nodes", [65, 100])  # dyadic nodes i/64, and i/99
def test_green_kernel_matches_branch_form(n_nodes):
    """``(1 - max) * min`` is each branch's product, commuted where x < y."""
    def branches(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return np.where(y <= x, (1.0 - x) * y, x * (1.0 - y))

    nodes = _quadrature_rule(n_nodes)[0]
    points = np.concatenate([[0.0, 0.5, 1.0], nodes])
    X, Y = points[:, None], points[None, :]  # the diagonal and the end points included
    np.testing.assert_array_equal(green_kernel(X, Y), branches(X, Y))
    for x, y in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.3, 0.7), (0.7, 0.3),
                 (nodes[7], nodes[7]), (np.float64(nodes[3]), nodes[40])]:
        value = green_kernel(x, y)
        assert np.ndim(value) == 0
        np.testing.assert_array_equal(value, branches(x, y))


@pytest.mark.parametrize("n_nodes", [np.int64(8), np.int32(8), np.uint16(8)])
def test_nystrom_accepts_numpy_integer_node_counts(n_nodes):
    system = nystrom_decompose(green_kernel, n_nodes=n_nodes)
    np.testing.assert_array_equal(system.sym, nystrom_decompose(green_kernel, n_nodes=8).sym)
    assert system.eigenvalue(n_nodes // 4) == system.eigenvalues[1]  # a numpy integer index


def test_nystrom_rejects_kernel_of_wrong_shape():
    for kernel in (lambda x, y: 1.0, lambda x, y: np.ones((3, 3)), lambda x, y: np.ones(60)):
        with pytest.raises(ValidationError):
            nystrom_decompose(kernel, n_nodes=60)


@pytest.mark.parametrize("call, message", [
    (lambda: green_model().eigenvalue(1.5), "must be an integer"),
    (lambda: CoefficientVector(green_model(), []), "non-empty"),
    (lambda: CoefficientVector(green_model(), [1.0, math.nan]), "finite"),
    (lambda: CoefficientVector(tabulated_model([0.5, 0.25], k_max=5), np.ones(3)),
     "beyond the tabulated spectrum (2)"),
    (lambda: CoefficientVector(green_model(k_max=4), np.ones(2)).require_same_basis(
        CoefficientVector(green_model(k_max=8), np.ones(2)), "pairing"), "different bases"),
    (lambda: nystrom_decompose(green_kernel, n_nodes=8).eigenvalue(0), "holds 8 modes"),
    (lambda: nystrom_decompose(green_kernel, n_nodes=8).eigenvalue(1.5), "k must be an integer"),
    (lambda: nystrom_decompose(green_kernel, n_nodes=8).eigenvalue(3.0), "k must be an integer"),
    (lambda: nystrom_decompose(green_kernel, n_nodes=8).eigenvalue("2"), "k must be an integer"),
    (lambda: nystrom_decompose(green_kernel, n_nodes=8).eigenvalue(None), "k must be an integer"),
    (lambda: nystrom_decompose(green_kernel, n_nodes=8).eigenvalue(True), "k must be an integer"),
    (lambda: nystrom_decompose(green_kernel, n_nodes=1), "n_nodes must be >= 2"),
    (lambda: nystrom_decompose(green_kernel, n_nodes=2.5), "n_nodes must be an integer"),
    (lambda: nystrom_decompose(green_kernel, n_nodes=8.0), "n_nodes must be an integer"),
    (lambda: nystrom_decompose(green_kernel, n_nodes=True), "n_nodes must be an integer"),
    (lambda: nystrom_decompose(lambda x, y: np.full(np.broadcast(x, y).shape, math.nan),
                               n_nodes=8), "non-finite"),
    (lambda: green_model().eigenvalue(True), "index k must be an integer, got True"),
    (lambda: green_model().multiplicity(True), "index k must be an integer, got True"),
    (lambda: poisson_model(0.5, 1.0).multiplicity(False), "index k must be an integer, got False"),
    (lambda: poisson_model(0.5, 1.0, k_max=True), "k_max must be an integer, got True"),
    (lambda: poisson_model(0.5, 1.0, k_max=2.5), "k_max must be an integer, got 2.5"),
    (lambda: green_model(k_max=0), "k_max must be a positive integer, got 0"),
    # refused, not read as 0.5 or as b = 1.0
    (lambda: model_from_json({"kind": "poisson", "a": "0.5", "b": 1}),
     "a must be a real number, got '0.5'"),
    (lambda: model_from_json({"kind": "poisson", "a": 0.5, "b": True}),
     "b must be a real number, got True"),
    (lambda: heat_model(None, 2.0, 1.0), "D must be a real number, got None"),
    (lambda: heat_model(1.0, 2.0, "1"), "b must be a real number, got '1'"),
], ids=["fractional-index", "empty-vector", "nan-vector", "past-table", "two-bases",
        "mode-0", "fractional-mode", "float-mode", "string-mode", "none-mode", "bool-mode",
        "one-node", "fractional-nodes", "float-nodes", "bool-nodes", "nan-kernel",
        "bool-index", "bool-multiplicity", "bool-center-multiplicity", "bool-k-max",
        "fractional-k-max", "k-max-0", "string-poisson-a", "bool-poisson-b",
        "none-heat-D", "string-heat-b"])
def test_spectra_refusals(call, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        call()


# ---------------------------------------------------------------------------
# Serialization and export
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model", [
    poisson_model(0.5, 1.0),
    heat_model(2.0, 3.0, 1.0, k_max=32),
    green_model(),
    tabulated_model([0.9, 0.4, 0.1]),
    tabulated_model([0.9, 0.9, 0.1], allow_ties=True),
    # a numpy-integer k_max is stored as a Python int
    poisson_model(0.5, 1.0, k_max=np.int64(4)),
    heat_model(2.0, 3.0, 1.0, k_max=np.int32(8)),
    green_model(k_max=np.uint16(16)),
    tabulated_model([0.9, 0.4, 0.1], k_max=np.int64(2)),
])
def test_model_json_round_trip(model):
    j = model_to_json(model)
    json.dumps(j)  # must be serializable as-is
    assert type(model.k_max) is int
    assert model_from_json(j) == model


def test_model_json_rejects_garbage():
    with pytest.raises(ValidationError):
        model_from_json({"kind": "mystery"})
    with pytest.raises(ValidationError):
        model_from_json({"kind": "poisson", "a": 0.5})  # missing b
    with pytest.raises(ValidationError):
        model_from_json("not a dict")
    # multiplicities need one integer >= 1 per value
    for values, mults in (([0.5, 0.25, 0.125], [2]), ([0.5, 0.25], [0, 1]),
                          ([0.5, 0.25], [-1, 1]), ([0.5, 0.25], [1.7, 1])):
        with pytest.raises(ValidationError):
            model_from_json({"kind": "tabulated", "values": values, "multiplicities": mults})


def test_json_codecs_refuse_unknown_fields():
    with pytest.raises(ValidationError, match=r"model JSON has unknown fields \['k_mx'\]"):
        model_from_json({"kind": "poisson", "a": 0.5, "b": 1.0, "k_mx": 8})
    with pytest.raises(ValidationError, match=r"rule JSON has unknown fields \['cc'\]"):
        rule_from_json({"kind": "constant", "c": 1.0, "cc": 2.0})
    # every field a codec writes is known to it, explicit all-1 multiplicities included
    table = model_from_json({"kind": "tabulated", "values": [0.5, 0.25],
                             "multiplicities": [1, 1], "k_max": 2})
    assert table == tabulated_model([0.5, 0.25])
    rule = inverse_spectrum_rule(table, 1e-6)
    assert rule_from_json(rule_to_json(rule)) == rule
    assert set(rule_to_json(rule)) == {"kind", "delta0", "model"}


def test_model_json_reads_huge_multiplicity_without_expanding():
    obj = {"kind": "tabulated", "values": [0.5, 0.25], "multiplicities": [10 ** 9, 3]}
    model = model_from_json(obj)
    assert model.multiplicity(1) == 10 ** 9 and model.multiplicity(2) == 3
    assert model.spectrum_length == 2
    assert model_to_json(model) == {**obj, "k_max": 2}
    assert model_from_json(json.loads(json.dumps(model_to_json(model)))) == model


def test_model_json_multiplicities_merge_equal_neighbours():
    # equal values in neighbouring entries group as tabulated_model groups ties
    model = model_from_json({"kind": "tabulated", "values": [0.5, 0.5, 0.25],
                             "multiplicities": [2, 1, 1]})
    assert model == tabulated_model([0.5, 0.5, 0.5, 0.25], allow_ties=True)


def test_vector_json_round_trip_real_and_complex():
    m = green_model()
    f = CoefficientVector(m, np.asarray([1.0, -2.5]))
    g = CoefficientVector.from_json(f.to_json())
    assert g.model == m
    np.testing.assert_array_equal(g.entries, f.entries)

    p = poisson_model(0.5, 1.0)
    z = CoefficientVector(p, np.asarray([1 + 2j, 0j, 3 - 1j]))
    z2 = CoefficientVector.from_json(z.to_json())
    np.testing.assert_array_equal(z2.entries, z.entries)
    assert json.loads(json.dumps(z.to_json()))["complex"] is True
    # a misspelt field is refused, not read as a real vector
    with pytest.raises(ValidationError,
                       match=r"coefficient vector JSON has unknown fields \['complx'\]"):
        CoefficientVector.from_json({"model": model_to_json(m), "entries": [1.0, 2.0],
                                     "complx": True})


def test_export_spectrum_csv():
    m = poisson_model(0.5, 1.0)
    text = export_spectrum_csv(m, 3)
    lines = text.strip().split("\n")
    assert lines[0] == "k,lambda,multiplicity"
    assert lines[1] == "1,0.5,2"
    assert len(lines) == 4
    with pytest.raises(ValidationError):
        export_spectrum_csv(tabulated_model([0.5]), 2)
