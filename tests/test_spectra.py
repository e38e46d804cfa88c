"""Spectrum models, eigenbases, coefficient vectors and the Nystrom solver."""

import json
import math

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
    sys = nystrom_decompose(green_kernel, n_nodes=400, rule="trapezoid")
    for k in range(1, 9):
        exact = 1.0 / (k * k * math.pi ** 2)
        assert abs(sys.eigenvalue(k) - exact) / exact < 1e-3


def test_nystrom_green_eigenfunctions_match_sines():
    sys = nystrom_decompose(green_kernel, n_nodes=400, rule="trapezoid")
    x = sys.nodes
    for k in (1, 2, 3):
        ref = math.sqrt(2.0) * np.sin(k * math.pi * x)
        phi = sys.eigenvectors[:, k - 1]
        err = min(np.max(np.abs(phi - ref)), np.max(np.abs(phi + ref)))
        assert err < 5e-3


def test_nystrom_gauss_legendre_agrees():
    sys = nystrom_decompose(green_kernel, n_nodes=200, rule="gauss_legendre")
    exact = 1.0 / math.pi ** 2
    assert abs(sys.eigenvalue(1) - exact) / exact < 1e-4


def test_nystrom_weight_orthonormality():
    sys = nystrom_decompose(green_kernel, n_nodes=150, rule="trapezoid")
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


@pytest.mark.parametrize("n", [50, 400, 1000])
def test_nystrom_green_trapezoid_matches_exact_discrete_spectrum(n):
    """On the trapezoid grid with h = 1/(n-1) the Green kernel matrix is the
    inverse of the Dirichlet second difference, so its eigenvalues are exactly
    h^2 / (4 sin^2(j pi h / 2)) for j = 1..n-2, plus the two zero rows at the
    end points."""
    sys = nystrom_decompose(green_kernel, n_nodes=n, rule="trapezoid")
    h = 1.0 / (n - 1)
    j = np.arange(1, n - 1)
    exact = np.concatenate([h * h / (4.0 * np.sin(j * math.pi * h / 2.0) ** 2), [0.0, 0.0]])
    lam_1 = exact[0]
    assert np.abs(sys.eigenvalues - exact).max() <= 64.0 * np.finfo(float).eps * lam_1
    assert (np.abs(sys.eigenvalues[:8] - exact[:8]) / exact[:8]).max() <= 1e-13


def _nystrom_by_eigh(kernel, n_nodes, rule="trapezoid"):
    """The full-eigh path: meshgrid kernel matrix, eigh, per-column sign loop.
    Returns the sorted eigenvalues (unclamped), the node values of the
    eigenvectors and the symmetrised matrix."""
    if rule == "trapezoid":
        nodes = np.linspace(0.0, 1.0, n_nodes)
        weights = np.full(n_nodes, nodes[1])
        weights[[0, -1]] /= 2.0
    else:
        t, w = np.polynomial.legendre.leggauss(n_nodes)
        nodes, weights = (t + 1.0) / 2.0, w / 2.0
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


@pytest.mark.parametrize("n, rule", [(120, "trapezoid"), (400, "trapezoid"),
                                     (200, "gauss_legendre")])
def test_nystrom_eigenvalues_match_full_eigh(n, rule):
    """Eigenvalues from eigvalsh agree with the full eigh of the same matrix,
    and the lazily computed eigenvectors are that eigh's, column for column."""
    sys = nystrom_decompose(green_kernel, n_nodes=n, rule=rule)
    vals, funcs, sym = _nystrom_by_eigh(green_kernel, n, rule)
    eps_lam = np.finfo(float).eps * vals[0]
    np.testing.assert_array_equal(sys.sym, sym)
    assert np.abs(sys.eigenvalues - np.maximum(vals, 0.0)).max() <= 8.0 * eps_lam
    distinct = vals > 1e3 * eps_lam  # the trapezoid rule's two zero modes may come in any order
    np.testing.assert_array_equal(sys.eigenvectors[:, distinct], funcs[:, distinct])


@pytest.mark.parametrize("n", [150, 1000])
def test_nystrom_lazy_eigenvectors_pair_with_eigenvalues(n):
    sys = nystrom_decompose(green_kernel, n_nodes=n, rule="trapezoid")
    U = sys.eigenvectors * np.sqrt(sys.weights)[:, None]  # Euclidean-orthonormal
    residual = np.linalg.norm(sys.sym @ U - U * sys.eigenvalues[None, :], axis=0)
    assert residual.max() <= 64.0 * np.finfo(float).eps * sys.eigenvalues[0]
    gram = (sys.eigenvectors * sys.weights[:, None]).T @ sys.eigenvectors
    np.testing.assert_allclose(gram, np.eye(n), atol=1e-12)


@pytest.mark.parametrize("kernel", [lambda x, y: np.ones_like(x),
                                    lambda x, y: np.ones_like(y)])
def test_nystrom_one_sided_kernel_broadcasts(kernel):
    """A kernel returning only x's (or y's) shape gives the meshgrid system."""
    sys = nystrom_decompose(kernel, n_nodes=60)
    vals, funcs, sym = _nystrom_by_eigh(kernel, 60)
    np.testing.assert_array_equal(sys.sym, sym)
    assert np.abs(sys.eigenvalues - np.maximum(vals, 0.0)).max() <= 8.0 * np.finfo(float).eps
    np.testing.assert_array_equal(sys.eigenvectors[:, 0], funcs[:, 0])
    assert sys.eigenvalue(1) == pytest.approx(1.0, rel=1e-12)


def test_nystrom_rejects_kernel_of_wrong_shape():
    for kernel in (lambda x, y: 1.0, lambda x, y: np.ones((3, 3)), lambda x, y: np.ones(60)):
        with pytest.raises(ValidationError):
            nystrom_decompose(kernel, n_nodes=60)


# ---------------------------------------------------------------------------
# Serialization and export
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model", [
    poisson_model(0.5, 1.0),
    heat_model(2.0, 3.0, 1.0, k_max=32),
    green_model(),
    tabulated_model([0.9, 0.4, 0.1]),
    tabulated_model([0.9, 0.9, 0.1], allow_ties=True),
])
def test_model_json_round_trip(model):
    j = model_to_json(model)
    json.dumps(j)  # must be serializable as-is
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


def test_export_spectrum_csv():
    m = poisson_model(0.5, 1.0)
    text = export_spectrum_csv(m, 3)
    lines = text.strip().split("\n")
    assert lines[0] == "k,lambda,multiplicity"
    assert lines[1] == "1,0.5,2"
    assert len(lines) == 4
    with pytest.raises(ValidationError):
        export_spectrum_csv(tabulated_model([0.5]), 2)
