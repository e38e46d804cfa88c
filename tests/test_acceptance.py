"""Acceptance gate: one test per shipped guarantee, at the stated tolerances.

Run with ``pytest -v tests/test_acceptance.py`` — each criterion reports one
pass/fail line.  Every numeric target below is checked against an independent
closed form or a fixed statistical bracket, never against the library's own
output.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from fredinfo import (
    CoefficientVector,
    GaussianChannel,
    NoiseLevel,
    component_information,
    constant_rule,
    entropy_lower_bound,
    entropy_upper_bound,
    forward_apply,
    geometric_rule,
    greedy_packing_count,
    green_kernel,
    green_model,
    growth_orders,
    heat_model,
    k0,
    k0_closed_form,
    k_alpha,
    lemma1_check,
    monte_carlo_mse,
    mse_closed_form,
    nystrom_decompose,
    partition_IN,
    poisson_model,
    tabulated_model,
    total_information,
)
from fredinfo.cli import main as cli_main

HALF_LN2 = 0.5 * math.log(2.0)
LOG2_6 = math.log2(6.0)


def three_models():
    return [poisson_model(0.5, 1.0), heat_model(1.0, 2.0, 1.0), green_model()]


def _ball_point(rng: np.random.Generator, dim: int, radius: float) -> np.ndarray:
    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)
    return direction * radius * rng.uniform() ** (1.0 / dim)


def worked_channel(eps=2.0 ** -4):
    model = tabulated_model([2.0 ** -k for k in range(1, 25)])
    return GaussianChannel(model, geometric_rule(1.0, 0.5), constant_rule(1.0), eps)


# ---------------------------------------------------------------------------
# 1. numerical spectrum oracle
# ---------------------------------------------------------------------------


def test_criterion_01_nystrom_reproduces_kernel_spectrum():
    start = time.perf_counter()
    system = nystrom_decompose(green_kernel, n_nodes=2000, rule="trapezoid")
    elapsed = time.perf_counter() - start
    worst = 0.0
    for k in range(1, 9):
        exact = 1.0 / (k * math.pi) ** 2
        rel = abs(system.eigenvalue(k) - exact) / exact
        worst = max(worst, rel)
    assert worst <= 1e-3
    assert elapsed < 30.0
    print(f"[criterion 01] PASS — 2000-node spectrum, max rel err {worst:.2e}, "
          f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. closed-form cutoff equals enumeration
# ---------------------------------------------------------------------------


def test_criterion_02_closed_form_cutoff_matches_enumeration():
    rng = np.random.default_rng(20214)
    checked = 0
    for model in three_models():
        eps_values = 10.0 ** rng.uniform(-8.0, math.log10(0.999), size=1000)
        for eps in eps_values:
            eps = float(eps)
            assert k0_closed_form(model, eps) == k0(model, eps)
            checked += 1
    assert checked == 3000
    print(f"[criterion 02] PASS — closed form == enumeration on {checked} "
          "log-uniform noise levels")


# ---------------------------------------------------------------------------
# 3. truncation error bounds on randomized draws
# ---------------------------------------------------------------------------


def test_criterion_03_truncation_bounds_hold_on_randomized_draws():
    rng = np.random.default_rng(30117)
    violations = 0
    total = 0
    for model in three_models():
        dim = 2 * 24 + 1 if model.two_sided else 24
        for eps in (1e-1, 1e-2, 1e-3):
            for _ in range(500):
                f = CoefficientVector(model, _ball_point(rng, dim, 1.0))
                noise = _ball_point(rng, dim, eps)
                data = CoefficientVector(model, forward_apply(model, f).entries + noise)
                report = lemma1_check(model, f, data, eps)
                total += 1
                if not report.all_hold:
                    violations += 1
    assert total == 4500
    assert violations == 0
    print(f"[criterion 03] PASS — residual/distance/combined bounds held on "
          f"{total} draws, 0 violations")


# ---------------------------------------------------------------------------
# 4. entropy sandwich and its two reference values
# ---------------------------------------------------------------------------


def test_criterion_04_entropy_sandwich_and_reference_values():
    grids = [
        (poisson_model(0.5, 1.0), np.geomspace(1.0, 1e-6, 50)),
        (heat_model(1.0, 2.0, 1.0), np.geomspace(1.0, 1e-6, 50)),
        (green_model(), np.geomspace(0.39, 1e-8, 50)),
    ]
    for model, grid in grids:
        for eps in grid:
            eps = float(eps)
            assert entropy_lower_bound(model, eps) <= entropy_upper_bound(model, eps)

    # poisson(0.5, 1), eps = 0.1: lower = sum_{k<=3} (L - k) with L = log2(10),
    # upper = m (L + log2 6 + log2(m)/2) with m = k0(eps/4) = 5
    model = poisson_model(0.5, 1.0)
    L = math.log2(10.0)
    lower = entropy_lower_bound(model, 0.1)
    upper = entropy_upper_bound(model, 0.1)
    assert lower == pytest.approx(3.0 * L - 6.0, rel=1e-9)
    assert upper == pytest.approx(5.0 * (L + LOG2_6 + 0.5 * math.log2(5.0)), rel=1e-9)
    print(f"[criterion 04] PASS — lower <= upper on 150 grid points; "
          f"reference values {lower:.3f} / {upper:.2f} bits at 1e-9 rel")


# ---------------------------------------------------------------------------
# 5. growth orders of the three reference spectra
# ---------------------------------------------------------------------------


def test_criterion_05_growth_orders_within_five_percent():
    exp_grid = [2.0 ** j for j in range(3, 11)]  # log2(1/eps): 8 .. 1024
    results = []
    for model, target in ((poisson_model(0.5, 1.0), 2.0 ** 0.5),
                          (heat_model(1.0, 2.0, 1.0), 2.0 ** (2.0 / 3.0))):
        est = growth_orders(model, [NoiseLevel(L) for L in exp_grid])
        assert est.d_c is None
        assert abs(est.d_c_exp - target) <= 0.05 * target
        results.append((model.kind, est.d_c_exp, target))

    est = growth_orders(green_model(), [10.0 ** -p for p in range(2, 11)])
    assert est.d_c_exp is None
    assert abs(est.d_c - 2.0) <= 0.05 * 2.0
    results.append(("green", est.d_c, 2.0))
    detail = ", ".join(f"{kind} {got:.4f}/{want:.4f}" for kind, got, want in results)
    print(f"[criterion 05] PASS — {detail} (within 5%)")


# ---------------------------------------------------------------------------
# 6. packing counts bracketed by the two entropy bounds
# ---------------------------------------------------------------------------


def _draw_packing_case(rng: np.random.Generator, models):
    """Axes from a model spectrum, eps below every axis, affordable grid."""
    model = models[rng.integers(len(models))]
    d = int(rng.integers(1, 4))
    eps_frac = rng.uniform(0.3, 0.9)
    while d > 1:
        axes = model.eigenvalues(np.arange(1, d + 1))
        eps = float(axes.min()) * eps_frac
        if np.prod(np.floor(8.0 * axes / eps) + 1) <= 2e6:
            break
        d -= 1
    axes = model.eigenvalues(np.arange(1, d + 1))
    return axes, float(axes.min()) * eps_frac


def test_criterion_06_packing_count_within_entropy_bracket():
    rng = np.random.default_rng(60289)
    models = three_models()
    for case in range(20):
        axes, eps = _draw_packing_case(rng, models)
        d = axes.size
        assert 1 <= d <= 3 and eps <= axes.min()
        count = greedy_packing_count(axes, eps, eps / 4.0)
        log_count = math.log2(count)
        lower = float(np.sum(np.log2(axes / eps)))
        upper = d * (math.log2(1.0 / eps) + LOG2_6 + 0.5 * math.log2(d))
        assert lower <= log_count <= upper, (
            f"case {case}: {lower:.3f} <= {log_count:.3f} <= {upper:.3f} "
            f"failed for axes {axes}, eps {eps}")
    print("[criterion 06] PASS — 20 randomized packings inside the "
          "volume/lattice bracket")


# ---------------------------------------------------------------------------
# 7. probabilistic identities
# ---------------------------------------------------------------------------


def test_criterion_07_channel_identities():
    # (a) matched prior and noise shapes: the informative set is the cutoff set
    for model in three_models():
        for eps in np.geomspace(0.5, 1e-3, 20):
            chan = GaussianChannel(model, constant_rule(1.0), constant_rule(1.0),
                                   float(eps), k_max=16)
            assert partition_IN(chan).k_I == k0(model, float(eps))

    # (b) membership equals the half-bit test, exactly, on random components
    rng = np.random.default_rng(70711)
    for _ in range(1000):
        lam = math.exp(rng.uniform(-6.0, 0.0))  # spectra live in (0, 1]
        rho, nu, eps = np.exp(rng.uniform(-6.0, 2.0, size=3))
        chan = GaussianChannel(tabulated_model([lam]),
                               constant_rule(float(rho)), constant_rule(float(nu)),
                               float(eps))
        info = component_information(chan, 1)
        assert info.in_I == (info.J_nats >= HALF_LN2)
        assert info.in_I == (1 in partition_IN(chan).I)

    # (c) worked channel closed forms
    chan = worked_channel()
    assert partition_IN(chan).k_I == 2
    assert k_alpha(chan) == 1
    assert mse_closed_form(chan) == pytest.approx(19.0 / 192.0, rel=1e-12)
    assert total_information(chan).exact_nats == pytest.approx(
        0.5 * math.log(17.0) + 0.5 * math.log(2.0), rel=1e-12)
    print("[criterion 07] PASS — cutoff bridge (60 levels), half-bit rule "
          "(1000 components), worked-channel closed forms at 1e-12")


# ---------------------------------------------------------------------------
# 8. Monte Carlo risk agrees with the closed form
# ---------------------------------------------------------------------------


def test_criterion_08_monte_carlo_matches_closed_form_risk():
    chan = worked_channel()
    truth = 19.0 / 192.0
    start = time.perf_counter()
    mc = monte_carlo_mse(chan, trials=10_000, seed=20260814)
    elapsed = time.perf_counter() - start
    assert mc.stderr is not None
    z = abs(mc.mean - truth) / mc.stderr
    assert z <= 3.0
    assert elapsed < 60.0
    print(f"[criterion 08] PASS — 10^4 trials, mean {mc.mean:.6f} vs {truth:.6f} "
          f"({z:.2f} stderr), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. risk decreases with the noise level
# ---------------------------------------------------------------------------


def test_criterion_09_risk_strictly_decreasing_in_noise_level():
    cases = [
        (poisson_model(0.5, 1.0), 32.0, 64),
        (heat_model(1.0, 2.0, 1.0), 32.0, 16),
        (green_model(), 128.0, 64),
    ]
    ratios = []
    for model, c, km in cases:
        values = []
        for j in range(1, 13):
            chan = GaussianChannel(model, geometric_rule(c, 1.0 / 16.0),
                                   constant_rule(1.0), 2.0 ** -j, k_max=km)
            values.append(mse_closed_form(chan))
        assert all(b < a for a, b in zip(values, values[1:])), model.kind
        assert values[-1] < 1e-2 * values[0], model.kind
        ratios.append(values[-1] / values[0])
    detail = ", ".join(f"{m.kind} {r:.1e}" for (m, _, _), r in zip(cases, ratios))
    print(f"[criterion 09] PASS — strictly decreasing over 2^-1..2^-12; "
          f"final/initial: {detail}")


# ---------------------------------------------------------------------------
# 10. simulate runs are byte-deterministic
# ---------------------------------------------------------------------------


def test_criterion_10_simulate_is_byte_deterministic(tmp_path, monkeypatch):
    monkeypatch.delenv("FREDINFO_SEED", raising=False)
    config = {
        "model": {"kind": "poisson", "a": 0.5, "b": 1.0},
        "epsilon_grid": [2.0 ** -j for j in range(1, 7)],
        "rho": {"kind": "geometric", "c": 32.0, "q": 0.0625},
        "nu": {"kind": "constant", "c": 1.0},
        "trials": 50,
        "seed": 42,
        "k_max": 32,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    assert cli_main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "first")]) == 0
    assert cli_main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "second")]) == 0

    body_a = (tmp_path / "first.csv").read_bytes()
    body_b = (tmp_path / "second.csv").read_bytes()
    meta_a = json.loads((tmp_path / "first.meta.json").read_text())
    meta_b = json.loads((tmp_path / "second.meta.json").read_text())
    assert meta_a["config_hash"] == meta_b["config_hash"]
    assert body_a == body_b
    assert len(body_a.splitlines()) == 7  # header + six levels
    print(f"[criterion 10] PASS — identical CSV bodies "
          f"({len(body_a)} bytes) for config {meta_a['config_hash'][:12]}")
