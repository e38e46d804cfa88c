"""Cutoff rules, the truncated estimator and its error bounds."""

import math
import re

import numpy as np
import pytest

from fredinfo import (
    CoefficientVector,
    InconclusiveError,
    NoiseLevel,
    PreconditionError,
    ValidationError,
    forward_apply,
    generalized_k0,
    green_model,
    heat_model,
    k0,
    k0_closed_form,
    lemma1_check,
    poisson_model,
    tabulated_model,
    truncated_solution,
    weak_convergence_probe,
)
from scan_oracle import k0_scan


def _ball_point(rng, n: int, radius: float) -> np.ndarray:
    """Uniform draw from the n-ball of the given radius."""
    v = rng.normal(size=n)
    v *= radius * rng.uniform() ** (1.0 / n) / np.linalg.norm(v)
    return v


# ---------------------------------------------------------------------------
# k0
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model, eps, expected", [
    (poisson_model(0.5, 1.0), 0.1, 3),
    (poisson_model(0.5, 1.0), 0.25, 2),      # boundary included
    (poisson_model(0.5, 1.0), 0.6, 0),       # above lambda_1
    (heat_model(1.0, 2.0, 1.0), math.exp(-5.0), 2),
    (green_model(), 1e-3, 10),
    (green_model(), 1.0 / math.pi ** 2, 1),  # boundary at lambda_1
    (tabulated_model([0.9, 0.5, 0.25]), 0.5, 2),
    (tabulated_model([0.9, 0.5, 0.25]), 1e-9, 3),  # exhausts the table
])
def test_k0_examples(model, eps, expected):
    assert k0(model, eps) == expected


def test_k0_exponent_domain_consistency():
    m = poisson_model(0.5, 1.0)
    for L in (0.5, 3.0, 17.25, 52.0):
        assert k0(m, 2.0 ** (-L)) == k0(m, NoiseLevel(L))
    # far below float range: only the exponent form answers
    assert k0(m, NoiseLevel(4096.0)) == 4096
    assert k0(heat_model(1.0, 2.0, 1.0), NoiseLevel(4096.0)) == int(
        math.sqrt(4096.0 * math.log(2.0)))


def test_k0_rejects_bad_noise_levels():
    m = green_model()
    with pytest.raises(ValidationError):
        k0(m, -0.5)
    with pytest.raises(ValidationError):
        k0(m, 0.0)


@pytest.mark.parametrize("call, message", [
    (lambda: k0(green_model(), True), "epsilon must be a real number, got True"),  # not eps = 1
    (lambda: k0(green_model(), np.True_), "epsilon must be a real number, got"),
    (lambda: k0(green_model(), "0.1"), "epsilon must be a real number, got '0.1'"),
    (lambda: k0(green_model(), None), "epsilon must be a real number, got None"),
    (lambda: NoiseLevel("3"), "log2_inv_eps must be a real number, got '3'"),
    (lambda: NoiseLevel(True), "log2_inv_eps must be a real number, got True"),
    (lambda: NoiseLevel(3.0, True), "epsilon must be a real number, got True"),
], ids=["bool-eps", "numpy-bool-eps", "string-eps", "none-eps", "string-exponent",
        "bool-exponent", "bool-float"])
def test_noise_levels_refuse_what_is_no_real_number(call, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        call()


def test_noise_levels_accept_numpy_numbers():
    assert k0(poisson_model(0.5, 1.0), np.float64(0.1)) == 3
    assert k0(poisson_model(0.5, 1.0), np.float32(0.25)) == 2
    assert NoiseLevel(np.int64(3)) == NoiseLevel(3.0) == NoiseLevel.of(np.int8(1) / 8)


def test_k0_past_2_to_the_53_is_inconclusive():
    # green needs ~2^511 components at this level; indices past 2^53 are not exact
    with pytest.raises(InconclusiveError, match=r"k0 is at least 2\*\*53"):
        k0(green_model(), NoiseLevel(1024.0))


@pytest.mark.parametrize("model, eps, K", [
    (green_model(), 1e-30, 3),                # k0 = 318309886183790
    (green_model(), 1e-34, 3),                # k0 past 2^53: k0() refuses
    (poisson_model(0.9999, 1.0), 1e-300, 5),  # k0 about 6.9e6
])
def test_truncated_solution_reports_its_kept_count_past_the_cap(model, eps, K):
    with pytest.raises(InconclusiveError):  # past the scan's cap
        k0_scan(model, NoiseLevel.of(eps))
    data = CoefficientVector.from_components(model, np.arange(1.0, K + 1.0))
    report = truncated_solution(model, data, eps)
    assert report.k0 == K
    np.testing.assert_array_equal(report.f_star.components(),
                                  np.arange(1.0, K + 1.0) / model.eigenvalues(np.arange(1, K + 1)))


@pytest.mark.parametrize("model", [
    poisson_model(0.5, 1.0),
    poisson_model(0.37, 0.81),
    heat_model(1.0, 2.0, 1.0),
    heat_model(0.31, 1.7, 0.4),
    green_model(),
])
def test_closed_form_matches_enumeration(model):
    rng = np.random.default_rng(hash(model.kind) % 2 ** 32)
    log_eps = rng.uniform(math.log(1e-8), math.log(0.9), size=200)
    for eps in np.exp(log_eps):
        assert k0_closed_form(model, eps) == k0(model, eps), eps


def test_closed_form_no_rule_for_tabulated():
    with pytest.raises(ValidationError):
        k0_closed_form(tabulated_model([0.5]), 0.1)


# ---------------------------------------------------------------------------
# generalized cutoff
# ---------------------------------------------------------------------------


def test_generalized_k0_constant_beta_reduces_to_k0():
    m = green_model()
    assert generalized_k0(m, lambda k: 1.0, 1e-3) == k0(m, 1e-3)


def test_generalized_k0_linear_beta():
    # 1/(k^2 pi^2) >= eps * k  <=>  k^3 <= 1/(pi^2 eps)
    m = green_model()
    assert generalized_k0(m, lambda k: float(k), 1e-3) == 4


def test_generalized_k0_sequence_and_edge_cases():
    m = green_model()
    assert generalized_k0(m, [1.0] * 64, 1e-3) == 10
    # beta so large that nothing qualifies
    assert generalized_k0(m, lambda k: 2.0 * m.eigenvalue(k) / 1e-3, 1e-3) == 0
    with pytest.raises(ValidationError):
        generalized_k0(m, [], 1e-3)
    with pytest.raises(ValidationError):
        generalized_k0(m, lambda k: -1.0, 1e-3)


def test_generalized_k0_without_crossing_is_inconclusive():
    m = green_model(k_max=8)
    with pytest.raises(InconclusiveError):
        generalized_k0(m, lambda k: 1e-6, 1e-3)  # holds through k_max


def test_generalized_k0_stops_at_the_end_of_a_table():
    m = tabulated_model([0.5, 0.25], k_max=5)  # k_max past the table's two values
    assert generalized_k0(m, [1.0] * 10, 0.3) == 1
    with pytest.raises(InconclusiveError, match="k=2"):
        generalized_k0(m, [1.0] * 10, 0.01)


# ---------------------------------------------------------------------------
# truncated solutions
# ---------------------------------------------------------------------------


def test_truncated_solution_poisson_by_hand():
    m = poisson_model(0.5, 1.0)
    data = CoefficientVector(m, np.asarray([7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]))
    report = truncated_solution(m, data, 0.2)
    assert report.k0 == 2  # lambda_2 = 0.25 >= 0.2 > lambda_3
    np.testing.assert_allclose(
        report.f_star.entries, [0.0, 24.0, 10.0, 4.0, 6.0, 8.0, 0.0], rtol=1e-15)
    assert report.residual_y is None


def test_truncated_solution_keeps_center_mode():
    m = poisson_model(0.5, 1.0)
    data = CoefficientVector(m, np.asarray([1.0, 1.0, 1.0]))
    report = truncated_solution(m, data, 0.9)  # only lambda_0 = 1 survives
    np.testing.assert_allclose(report.f_star.entries, [0.0, 1.0, 0.0], rtol=1e-15)
    assert report.k0 == 0


def test_truncated_solution_reference_diagnostics():
    m = green_model()
    f = CoefficientVector(m, np.asarray([0.4, 0.2, 0.1]))
    g = forward_apply(m, f)
    eps = 0.05  # keeps k = 1 only (lambda_2 ~ 0.0253)
    report = truncated_solution(m, g, eps, reference=f)
    diff = f.entries - report.f_star.entries
    lam = f.eigenvalue_profile()
    assert report.residual_y == pytest.approx(np.linalg.norm(lam * diff), rel=1e-13)
    assert report.distance_x == pytest.approx(np.linalg.norm(diff), rel=1e-13)
    assert report.combined == pytest.approx(
        report.residual_y ** 2 + eps ** 2 * report.distance_x ** 2, rel=1e-13)


@pytest.mark.parametrize("model, data, reference, residual2, distance2", [
    # eps = 0.3 keeps |k| <= 1 of 2^-|k|: f* = (0, 1, 1, 1, 0) on -2..2
    (poisson_model(0.5, 1.0), [0.25, 0.5, 1.0, 0.5, 0.25], [1.0] * 7,
     2 * (1 / 64 + 1 / 16), 4.0),  # f* padded by zeros; diff 1 at |k| = 2, 3
    (poisson_model(0.5, 1.0), [0.25, 0.5, 1.0, 0.5, 0.25], [0.0] * 3,
     0.25 + 1.0 + 0.25, 3.0),      # f* cut to -1..1; diff -1 there
    # eps = 0.3 keeps k = 1 of (0.5, 0.25, 0.125, 0.0625): f* = (1, 0, 0)
    (tabulated_model([0.5, 0.25, 0.125, 0.0625]), [0.5, 0.5, 0.5], [1.0] * 4,
     0.25 ** 2 + 0.125 ** 2 + 0.0625 ** 2, 3.0),
    (tabulated_model([0.5, 0.25, 0.125, 0.0625]), [0.5, 0.5, 0.5], [2.0],
     0.25, 1.0),
], ids=["two-sided-longer", "two-sided-shorter", "one-sided-longer", "one-sided-shorter"])
def test_truncated_solution_reference_of_another_length(model, data, reference,
                                                        residual2, distance2):
    data, reference = (CoefficientVector(model, np.asarray(v)) for v in (data, reference))
    report = truncated_solution(model, data, 0.3, reference=reference)
    assert report.residual_y == pytest.approx(math.sqrt(residual2), rel=1e-15)
    assert report.distance_x == pytest.approx(math.sqrt(distance2), rel=1e-15)
    assert report.combined == pytest.approx(residual2 + 0.09 * distance2, rel=1e-15)


def test_truncated_solution_rejects_model_mismatch():
    f = CoefficientVector(green_model(), np.ones(3))
    with pytest.raises(ValidationError):
        truncated_solution(poisson_model(0.5, 1.0), f, 0.1)


# ---------------------------------------------------------------------------
# Lemma-1 bounds
# ---------------------------------------------------------------------------


def _lemma1_instances(model, eps, count, seed):
    """Random admissible (f, data) pairs: ||f|| <= 1, ||A f - data|| <= eps."""
    rng = np.random.default_rng(seed)
    dim = 2 * 24 + 1 if model.two_sided else 24
    for _ in range(count):
        f = CoefficientVector(model, _ball_point(rng, dim, 1.0))
        noise = _ball_point(rng, dim, eps)
        data = CoefficientVector(model, forward_apply(model, f).entries + noise)
        yield f, data


@pytest.mark.parametrize("model", [
    poisson_model(0.5, 1.0), heat_model(1.0, 2.0, 1.0), green_model()])
@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3])
def test_lemma1_bounds_hold_on_random_draws(model, eps):
    for f, data in _lemma1_instances(model, eps, 50, seed=42):
        report = lemma1_check(model, f, data, eps)
        assert report.all_hold
        assert report.residual_y.value <= math.sqrt(2.0) * eps * (1 + 1e-12)
        assert report.distance_x.value <= math.sqrt(2.0) * (1 + 1e-12)
        assert report.combined.value <= 4.0 * eps ** 2 * (1 + 1e-12)


def test_lemma1_preconditions_enforced():
    m = green_model()
    f = CoefficientVector(m, np.asarray([1.0, 1.0]))  # ||f|| > 1
    data = forward_apply(m, f)
    with pytest.raises(PreconditionError) as exc:
        lemma1_check(m, f, data, 0.1)
    assert exc.value.measured["f_norm"] == pytest.approx(math.sqrt(2.0))

    f = CoefficientVector(m, np.asarray([0.5, 0.5]))
    bad = CoefficientVector(m, forward_apply(m, f).entries + np.asarray([1.0, 0.0]))
    with pytest.raises(PreconditionError) as exc:
        lemma1_check(m, f, bad, 0.1)
    assert exc.value.measured["data_misfit"] > 0.1


def test_lemma1_shape_mismatch_rejected():
    m = green_model()
    f = CoefficientVector(m, np.asarray([0.5, 0.5]))
    data = CoefficientVector(m, np.asarray([0.1, 0.1, 0.0]))
    with pytest.raises(ValidationError):
        lemma1_check(m, f, data, 0.5)


# ---------------------------------------------------------------------------
# Weak convergence probe
# ---------------------------------------------------------------------------


def test_weak_convergence_majorant_and_decay():
    rng = np.random.default_rng(11)
    m = green_model()
    dim = 24
    f = CoefficientVector(m, _ball_point(rng, dim, 1.0))
    v = CoefficientVector(m, _ball_point(rng, dim, 1.0))
    epsilons = [10.0 ** (-p) for p in range(1, 7)]
    datas = []
    for eps in epsilons:
        noise = _ball_point(rng, dim, eps)
        datas.append(CoefficientVector(m, forward_apply(m, f).entries + noise))
    points = weak_convergence_probe(m, f, v, epsilons, datas)
    assert len(points) == len(epsilons)
    for pt in points:
        assert pt.value <= pt.majorant * (1 + 1e-9)
    # the pairing vanishes with the noise level
    assert points[-1].value < points[0].majorant
    assert points[-1].value < 1e-3


def test_weak_convergence_validation():
    m = green_model()
    f = CoefficientVector(m, np.asarray([0.5, 0.1]))
    v = CoefficientVector(m, np.asarray([0.5, 0.1]))
    good = forward_apply(m, f)
    with pytest.raises(ValidationError):
        weak_convergence_probe(m, f, v, [0.1], [good])          # one point
    with pytest.raises(ValidationError):
        weak_convergence_probe(m, f, v, [0.1, 0.2], [good, good])  # not decreasing
    with pytest.raises(ValidationError):
        weak_convergence_probe(m, f, v, [0.1, 0.05], [good])    # length mismatch
    big_v = CoefficientVector(m, np.asarray([2.0, 0.0]))
    with pytest.raises(ValidationError):
        weak_convergence_probe(m, f, big_v, [0.1, 0.05], [good, good])


_G = green_model()
_F = CoefficientVector(_G, np.asarray([0.5, 0.1]))
_G8 = green_model(k_max=8)


@pytest.mark.parametrize("call, message", [
    (lambda: lemma1_check(_G8, _F, forward_apply(_G, _F), 0.5), "different model"),
    (lambda: weak_convergence_probe(_G8, _F, _F, [0.1, 0.05], [_F, _F]), "different model"),
    (lambda: weak_convergence_probe(_G, _F, CoefficientVector(_G, [0.5]), [0.1, 0.05],
                                    [_F, _F]), "same indices"),
    (lambda: weak_convergence_probe(_G, _F, _F, [0.1, 0.05],
                                    [forward_apply(_G, _F), CoefficientVector(_G8, [0.1, 0.0])]),
     "model and index range"),
], ids=["lemma1-model", "probe-model", "probe-test-vector-range", "probe-data-model"])
def test_bound_checks_refuse_vectors_of_another_model_or_range(call, message):
    with pytest.raises(ValidationError, match=message):
        call()
