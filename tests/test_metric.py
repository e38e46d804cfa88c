"""Entropy/capacity bounds, growth orders and the packing oracle."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fredinfo import (
    NoiseLevel,
    NumericError,
    PreconditionError,
    UnsupportedError,
    ValidationError,
    capacity_interval,
    entropy_lower_bound,
    entropy_upper_bound,
    greedy_packing_count,
    green_model,
    growth_orders,
    heat_model,
    k0,
    max_message_length_log2,
    poisson_model,
    tabulated_model,
)
from fredinfo.metric import _outside_mask

LOG2_6 = math.log2(6.0)


# ---------------------------------------------------------------------------
# Entropy bounds: closed-form oracles
# ---------------------------------------------------------------------------


def test_lower_bound_poisson_oracle():
    # lambda_k = 2^-k, eps = 0.1: k0 = 3 and the sum telescopes to 3 L - 6
    m = poisson_model(0.5, 1.0)
    L = math.log2(10.0)
    oracle = sum(L - k for k in (1, 2, 3))
    assert entropy_lower_bound(m, 0.1) == pytest.approx(oracle, rel=1e-12)
    assert entropy_lower_bound(m, 0.1) == pytest.approx(3.9657842846620865, rel=1e-9)


def test_lower_bound_heat_oracle():
    # lambda_k = e^-k^2, eps = e^-5: terms (5 - k^2) log2(e) for k = 1, 2
    m = heat_model(1.0, 2.0, 1.0)
    assert entropy_lower_bound(m, math.exp(-5.0)) == pytest.approx(
        5.0 * math.log2(math.e), rel=1e-12)


def _lower_bound_by_sum(model, epsilon, *, sided="one_sided"):
    """The per-term array sum the closed-form eigenvalue sums replaced, kept
    as their oracle."""
    level = NoiseLevel.of(epsilon)
    L = level.log2_inv_eps
    cut = level.cutoff(model)
    if cut == 0:
        one = 0.0
    else:
        ks = np.arange(1, cut + 1)
        terms = model.log2_eigenvalues(ks) + L
        one = float(np.sum(np.maximum(terms, 0.0)))
    if sided == "one_sided" or not model.two_sided:
        return one
    center = L if L >= 0.0 else 0.0  # lambda_0 = 1 survives iff eps <= 1
    return 2.0 * one + center


def _assert_matches_the_sum(model, level, sided):
    got = entropy_lower_bound(model, level, sided=sided)
    want = _lower_bound_by_sum(model, level, sided=sided)
    assert abs(got - want) <= 1e-13 * abs(want), (model, level, sided, got, want)
    if want == 0.0:
        assert math.copysign(1.0, got) == 1.0  # prints as 0.0, not -0.0


_SUM_MODELS = st.one_of(
    st.builds(lambda a, q: poisson_model(a, a / q), st.floats(0.1, 10.0), st.floats(0.01, 0.99)),
    st.builds(lambda D, b, gap: heat_model(D, b + gap, b),
              st.floats(0.01, 10.0), st.floats(0.0, 1.0), st.floats(0.1, 5.0)),
    st.just(green_model()),
    st.just(tabulated_model([0.9, 0.5, 0.25, 0.1])),
    st.just(tabulated_model([1.0 / (k + 1) ** 1.5 for k in range(1000)])),
)


@settings(settings.get_profile("fredinfo"), max_examples=300)
@given(st.data())
def test_closed_form_lower_bound_matches_the_array_sum(data):
    model = data.draw(_SUM_MODELS)
    top = 44.0 if model.kind == "green" else 4096.0  # the sum spans k0 terms: green's ~2^20
    least = max(1e-15, 2.0 ** -top)
    level = data.draw(st.one_of(
        st.floats(least, 10.0),
        st.floats(math.log10(least), 1.0).map(lambda e: 10.0 ** e),
        st.floats(-4.0, top).map(NoiseLevel),
        st.integers(-4, int(top)).map(NoiseLevel)))
    _assert_matches_the_sum(model, level, data.draw(st.sampled_from(("one_sided", "total"))))


@pytest.mark.parametrize("model, level, cut", [
    (green_model(), 1e-12, 318309),            # the sum cancels about 14-fold
    (green_model(), NoiseLevel(44.0), 1335088),  # the longest sum drawn above
    (green_model(), 0.5, 0),
    (poisson_model(0.5, 1.0), 10.0, 0),          # eps > 1: log2(1/eps) < 0
    (poisson_model(0.5, 1.0), NoiseLevel(4096.0), 4096),
    (heat_model(1.0, 2.0, 1.0), NoiseLevel(4096.0), 53),
    (tabulated_model([0.9, 0.5, 0.25, 0.1]), 1e-3, 4),
])
@pytest.mark.parametrize("sided", ["one_sided", "total"])
def test_closed_form_lower_bound_pinned_levels(model, level, cut, sided):
    assert k0(model, level) == cut
    _assert_matches_the_sum(model, level, sided)


def test_upper_bound_poisson_oracle():
    # k0(eps/4) = k0(0.025) = 5
    m = poisson_model(0.5, 1.0)
    L = math.log2(10.0)
    oracle = 5.0 * (L + LOG2_6 + 0.5 * math.log2(5.0))
    got = entropy_upper_bound(m, 0.1)
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(35.339273215260995, rel=1e-9)


def test_upper_bound_green_oracle():
    # k0(2.5e-4) = 20 for lambda_k = 1/(k pi)^2
    g = green_model()
    oracle = 20.0 * (math.log2(1e3) + LOG2_6 + 0.5 * math.log2(20.0))
    got = entropy_upper_bound(g, 1e-3)
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(294.2342166565385, rel=1e-9)


def test_lower_bound_vanishes_above_lambda1():
    m = poisson_model(0.5, 1.0)
    assert entropy_lower_bound(m, 0.7) == 0.0
    # the total variant still carries the surviving center axis
    assert entropy_lower_bound(m, 0.7, sided="total") == pytest.approx(
        math.log2(1.0 / 0.7), rel=1e-12)
    assert entropy_lower_bound(m, 1.5, sided="total") == 0.0


def test_upper_bound_not_applicable_raises():
    g = green_model()  # 4 lambda_1 ~ 0.405
    with pytest.raises(PreconditionError):
        entropy_upper_bound(g, 0.5)


def test_total_variant_doubles_and_adds_center():
    m = poisson_model(0.5, 1.0)
    eps = 0.1
    L = math.log2(10.0)
    one = entropy_lower_bound(m, eps)
    assert entropy_lower_bound(m, eps, sided="total") == pytest.approx(
        2.0 * one + L, rel=1e-12)
    up_total = entropy_upper_bound(m, eps, sided="total")
    mm = 2 * 5 + 1  # both signs of k0(eps/4) plus the center axis
    assert up_total == pytest.approx(mm * (L + LOG2_6 + 0.5 * math.log2(mm)), rel=1e-12)
    # one-sided models are unaffected by the total flag
    g = green_model()
    assert entropy_lower_bound(g, 1e-3, sided="total") == entropy_lower_bound(g, 1e-3)


@pytest.mark.parametrize("model", [poisson_model(0.5, 1.0), heat_model(0.1, 2.0, 1.0)])
@pytest.mark.parametrize("level", [NoiseLevel(-1.7485306786524207e-46),
                                   NoiseLevel(-1.9170347559514728e-146), NoiseLevel.of(1.0)])
def test_total_keeps_the_center_at_float_one_and_adds_no_negative_bits(model, level):
    # the float of each level is 1.0 = lambda_0, though the first two have L < 0
    assert level.epsilon == 1.0
    cap = capacity_interval(model, level, sided="total")
    assert cap.k0_eps == 1
    assert cap.lower_bits == 0.0 and math.copysign(1.0, cap.lower_bits) == 1.0


def test_sided_argument_validated():
    with pytest.raises(ValidationError):
        entropy_lower_bound(poisson_model(0.5, 1.0), 0.1, sided="both")


@pytest.mark.parametrize("model, lo, hi", [
    (poisson_model(0.5, 1.0), 1e-6, 1.0),
    (heat_model(1.0, 2.0, 1.0), 1e-6, 1.0),
    (green_model(), 1e-8, 0.39),
])
def test_sandwich_on_log_grid(model, lo, hi):
    for eps in np.geomspace(hi, lo, 20):
        lower = entropy_lower_bound(model, float(eps))
        upper = entropy_upper_bound(model, float(eps))
        assert lower <= upper


def test_exponent_domain_bounds_match_linear():
    m = poisson_model(0.5, 1.0)
    for L in (4.0, 10.5, 40.0):
        eps = 2.0 ** (-L)
        assert entropy_lower_bound(m, eps) == pytest.approx(
            entropy_lower_bound(m, NoiseLevel(L)), rel=1e-12)
        assert entropy_upper_bound(m, eps) == pytest.approx(
            entropy_upper_bound(m, NoiseLevel(L)), rel=1e-12)


def test_bounds_finite_at_extreme_exponents():
    """Levels near 2^-4096 stay finite and ordered in the log domain."""
    for model in (poisson_model(0.5, 1.0), heat_model(1.0, 2.0, 1.0)):
        lower = entropy_lower_bound(model, NoiseLevel(4096.0))
        upper = entropy_upper_bound(model, NoiseLevel(4096.0))
        assert math.isfinite(lower) and math.isfinite(upper)
        assert 0.0 < lower <= upper


def test_leading_terms_bracket_the_budget():
    # the sharp regime: lower ~ (1/2) k0 L and upper ~ k0 L for the geometric family
    m = poisson_model(0.5, 1.0)
    L = 1024.0
    cut = k0(m, NoiseLevel(L))
    budget = cut * L
    assert entropy_lower_bound(m, NoiseLevel(L)) / budget == pytest.approx(0.5, abs=0.01)
    assert entropy_upper_bound(m, NoiseLevel(L)) / budget == pytest.approx(1.0, abs=0.1)


# ---------------------------------------------------------------------------
# Capacity interval and message length
# ---------------------------------------------------------------------------


def test_capacity_interval_fields():
    m = poisson_model(0.5, 1.0)
    b = capacity_interval(m, 0.1)
    assert b.k0_eps == 3
    assert b.k0_eps_over_4 == 5
    assert b.epsilon == 0.1
    assert b.lower_bits == entropy_lower_bound(m, 0.1)
    assert b.upper_bits == entropy_upper_bound(m, 0.1)
    assert b.lower_bits <= b.upper_bits
    assert set(b.to_json()) == {"epsilon", "log2_inv_eps", "k0_eps",
                                "k0_eps_over_4", "lower_bits", "upper_bits", "sided"}


def test_capacity_interval_total_counts_axes():
    m = poisson_model(0.5, 1.0)
    b = capacity_interval(m, 0.1, sided="total")
    assert b.k0_eps == 2 * 3 + 1
    assert b.k0_eps_over_4 == 2 * 5 + 1


def _surviving_log2_axes(model, epsilon, sided):
    """log2 lambda of each axis that survives ``epsilon``, by enumeration: ``k``
    in ``-K..K`` for the total of a two-sided model (``lambda_0 = 1``), else in
    ``1..K``: a float level compared as a float, a NoiseLevel in log2 (at the
    levels used here no eigenvalue lies between the two forms)."""
    K = model.spectrum_length or 64
    ks = np.arange(-K, K + 1) if sided == "total" and model.two_sided else np.arange(1, K + 1)
    axes = ks != 0
    log2_lam = np.zeros(ks.shape)
    log2_lam[axes] = model.log2_eigenvalues(np.abs(ks[axes]))
    if isinstance(epsilon, NoiseLevel):
        return log2_lam[log2_lam >= -epsilon.log2_inv_eps]
    lam = np.ones(ks.shape)
    lam[axes] = model.eigenvalues(np.abs(ks[axes]))
    return log2_lam[lam >= epsilon]


@pytest.mark.parametrize("model", [
    poisson_model(0.5, 1.0), heat_model(0.1, 2.0, 1.0), green_model(),
    tabulated_model([1.0, 0.5, 0.25, 0.125]),
], ids=lambda m: m.kind)
@pytest.mark.parametrize("level", [
    4.0, math.nextafter(4.0, 0.0), math.nextafter(4.0, math.inf), 2.0, 1.0,
    math.nextafter(1.0, 0.0), math.nextafter(1.0, math.inf), 0.5,
    NoiseLevel(-2.0), NoiseLevel(-1.999), NoiseLevel(0.0), NoiseLevel(0.5),
], ids=repr)
@pytest.mark.parametrize("sided", ["one_sided", "total"])
def test_counts_and_lower_bound_match_the_axis_enumeration(model, level, sided):
    # the center axis enters at eps = 1 and, for the quarter count, at eps = 4
    quarter = NoiseLevel(level.log2_inv_eps + 2.0) if isinstance(level, NoiseLevel) else level / 4.0
    b = capacity_interval(model, level, sided=sided)
    axes = _surviving_log2_axes(model, level, sided)
    m = _surviving_log2_axes(model, quarter, sided).size
    assert (b.k0_eps, b.k0_eps_over_4) == (axes.size, m)
    L = NoiseLevel.of(level).log2_inv_eps
    want = float(np.sum(axes + L))
    assert abs(b.lower_bits - want) <= 1e-13 * want and math.copysign(1.0, b.lower_bits) == 1.0
    if b.upper_bits is not None:
        assert b.upper_bits == pytest.approx(m * (L + LOG2_6 + 0.5 * math.log2(m)), rel=1e-13)


def test_capacity_interval_exponent_domain():
    m = poisson_model(0.5, 1.0)
    b = capacity_interval(m, NoiseLevel(64.0))
    assert b.epsilon == pytest.approx(2.0 ** -64)
    assert b.k0_eps == 64
    deep = capacity_interval(m, NoiseLevel(2000.0))
    assert deep.epsilon is None  # below float range
    assert deep.k0_eps == 2000


def test_capacity_interval_survives_inapplicable_upper():
    g = green_model()
    b = capacity_interval(g, 0.5)
    assert b.upper_bits is None
    assert b.lower_bits == 0.0


def test_max_message_length():
    m = poisson_model(0.5, 1.0)
    L = math.log2(10.0)
    assert max_message_length_log2(m, 0.1) == pytest.approx(3 * L, rel=1e-12)
    # the two-sided total adds exactly one bit
    assert max_message_length_log2(m, 0.1, sided="total") == pytest.approx(
        3 * L + 1.0, rel=1e-12)
    # nothing kept, nothing to say
    assert max_message_length_log2(m, 0.7) == 0.0
    assert max_message_length_log2(m, 0.7, sided="total") == 0.0
    g = green_model()
    assert max_message_length_log2(g, 1e-3, sided="total") == \
        max_message_length_log2(g, 1e-3)


# ---------------------------------------------------------------------------
# Growth orders
# ---------------------------------------------------------------------------

EXP_GRID = [2.0 ** j for j in range(4, 13)]  # log2(1/eps) = 16 .. 4096


def test_growth_orders_poisson():
    est = growth_orders(poisson_model(0.5, 1.0), [NoiseLevel(L) for L in EXP_GRID])
    assert est.rho_hat < 0.05
    assert est.d_c is None
    assert est.d_c_exp == pytest.approx(2.0 ** 0.5, rel=1e-3)
    assert est.sigma_hat == pytest.approx(2.0, rel=1e-3)


def test_growth_orders_heat():
    est = growth_orders(heat_model(1.0, 2.0, 1.0), [NoiseLevel(L) for L in EXP_GRID])
    assert est.rho_hat < 0.05
    assert est.d_c_exp == pytest.approx(2.0 ** (2.0 / 3.0), rel=0.02)
    assert est.sigma_hat == pytest.approx(1.5, rel=0.02)


def test_growth_orders_green():
    grid = [10.0 ** (-p) for p in range(2, 11)]
    est = growth_orders(green_model(), grid)
    assert est == growth_orders(green_model(), [NoiseLevel.of(e) for e in grid])
    assert est.rho_hat >= 0.05
    assert est.d_c_exp is None
    assert est.d_c == pytest.approx(2.0, rel=0.01)
    assert est.lambda_hat == pytest.approx(0.5, rel=0.01)


def test_growth_orders_validation():
    m = poisson_model(0.5, 1.0)
    with pytest.raises(ValidationError):
        growth_orders(m, [0.1, 0.01])                        # too few points
    with pytest.raises(ValidationError):
        growth_orders(m, list(np.geomspace(0.4, 0.1, 9)))    # span too small
    with pytest.raises(ValidationError):
        growth_orders(m, [NoiseLevel(L) for L in [16, 8, 32, 64, 128, 256, 512, 1024]])
    with pytest.raises(ValidationError):
        growth_orders(m, list(np.geomspace(2.0, 1e-4, 9)))   # above lambda_1


def _grid_from(first: float) -> list[float]:
    return [first, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8]


@pytest.mark.parametrize("model", [poisson_model(0.293147663730703, 2.690021064378189),
                                   poisson_model(1.8857350372697794, 3.9847569242866197),
                                   green_model()])
def test_growth_grid_is_checked_against_lambda_1_on_the_float(model):
    lam1 = model.lambda_1
    below = float(np.nextafter(lam1, 0.0))
    assert k0(model, below) == k0(model, lam1) == 1
    growth_orders(model, _grid_from(below))        # the float just below lambda_1
    with pytest.raises(ValidationError, match="strictly below lambda_1"):
        growth_orders(model, _grid_from(lam1))     # lambda_1 itself


def test_growth_grid_is_validated_before_any_cutoff():
    # eps = 1 lies above lambda_1; green's cutoff at 2^-1024 passes 2^53, where k0 refuses
    with pytest.raises(ValidationError, match="strictly below lambda_1"):
        growth_orders(green_model(), [NoiseLevel(L) for L in (0, 16, 32, 64, 128, 256,
                                                               512, 1024)])


def test_growth_grid_past_float_range_is_checked_in_log2():
    m = poisson_model(0.5, 1.0)
    est = growth_orders(m, [NoiseLevel(L) for L in (1023, 1100, 1200, 1400, 1600, 1800,
                                                    2000, 2200)])
    assert est.mu_hat == pytest.approx(1.0)   # k0 = L: linear in log(1/eps)
    assert not NoiseLevel(-1023.0).below(m) and NoiseLevel(1023.0).below(m)


# ---------------------------------------------------------------------------
# Greedy packing
# ---------------------------------------------------------------------------


def test_packing_interval_by_hand():
    # [-1, 1], separation 1: greedy keeps -1 and one point past 0
    assert greedy_packing_count([1.0], 1.0, 0.25) == 2


def test_packing_zero_axes_degenerate():
    assert greedy_packing_count([0.0], 0.5, 0.1) == 1
    assert greedy_packing_count([0.0, 0.0], 0.5, 0.1) == 1
    # a dead axis changes nothing
    assert greedy_packing_count([1.0, 0.0], 1.0, 0.25) == \
        greedy_packing_count([1.0], 1.0, 0.25)


def test_packing_validation():
    with pytest.raises(ValidationError):
        greedy_packing_count([], 0.5, 0.1)
    with pytest.raises(ValidationError):
        greedy_packing_count([1.0], 0.5, 0.2)    # step > eps/4
    with pytest.raises(ValidationError):
        greedy_packing_count([1.0], -1.0, 0.1)
    with pytest.raises(ValidationError):
        greedy_packing_count([-1.0], 0.5, 0.1)
    with pytest.raises(UnsupportedError):
        greedy_packing_count([1.0, 1.0, 1.0, 1.0], 0.5, 0.1)
    # refused, not read as a float
    with pytest.raises(ValidationError, match="semi-axis must be a real number, got 'a'"):
        greedy_packing_count([1, "a"], 1, 0.1)
    with pytest.raises(ValidationError, match="grid_step must be a real number, got None"):
        greedy_packing_count([1], 1, None)
    with pytest.raises(ValidationError, match="epsilon must be a real number, got True"):
        greedy_packing_count([1], True, 0.1)


def test_packing_candidate_cap():
    with pytest.raises(NumericError):
        greedy_packing_count([100.0, 100.0, 100.0], 0.4, 0.1)


def _draw_packing_case(rng, models):
    """A random (axes, eps) pair whose scan grid stays affordable.

    Axes come from a model spectrum, eps never exceeds the smallest axis, and
    the dimension is reduced until the candidate grid is small enough.
    """
    model = models[rng.integers(len(models))]
    d = int(rng.integers(1, 4))
    eps_frac = rng.uniform(0.3, 0.9)
    while d > 1:
        axes = model.eigenvalues(np.arange(1, d + 1))
        eps = float(axes.min()) * eps_frac
        cells = np.prod(np.floor(8.0 * axes / eps) + 1)
        if cells <= 2e6:
            break
        d -= 1
    axes = model.eigenvalues(np.arange(1, d + 1))
    return axes, float(axes.min()) * eps_frac


def test_packing_count_brackets_volume_bound():
    """log2(count) sits between the volume bound and the lattice bound."""
    rng = np.random.default_rng(2718)
    models = [poisson_model(0.5, 1.0), heat_model(1.0, 2.0, 1.0), green_model()]
    for _ in range(6):
        axes, eps = _draw_packing_case(rng, models)
        d = axes.size
        count = greedy_packing_count(axes, eps, eps / 4.0)
        lower = float(np.sum(np.log2(axes / eps)))
        upper = d * (math.log2(1.0 / eps) + LOG2_6 + 0.5 * math.log2(d))
        assert lower <= math.log2(count) <= upper


def test_packing_monotone_in_separation():
    counts = [greedy_packing_count([1.0, 0.5], eps, eps / 4.0)
              for eps in (0.8, 0.4, 0.2)]
    assert counts[0] <= counts[1] <= counts[2]


def _greedy_packing_scan(semi_axes, epsilon, grid_step):
    """The neighbour-dict scan the stencil walk replaced, kept as its oracle.

    Every grid point is visited in lexicographic order, and its distance to
    the kept points of the 3^d neighbouring eps-cells is tested in floats.
    """
    live = [float(a) for a in semi_axes if a > 0]
    if not live:
        return 1
    eps, h = float(epsilon), float(grid_step)
    sizes = [float(np.floor(2.0 * a / h + 1e-9)) + 1.0 for a in live]
    grids = [-a + h * np.arange(int(n)) for a, n in zip(live, sizes)]

    d = len(live)
    inv_axes2 = [1.0 / (a * a) for a in live]
    eps2 = eps * eps
    inv_eps = 1.0 / eps
    kept_cells: dict[tuple, list] = {}
    count = 0
    neighbor_offsets = list(itertools.product((-1, 0, 1), repeat=d))
    for p in itertools.product(*grids):
        q = 0.0
        for i in range(d):
            q += p[i] * p[i] * inv_axes2[i]
        if q > 1.0 + 1e-12:
            continue
        cell = tuple(int(math.floor(c * inv_eps)) for c in p)
        ok = True
        for off in neighbor_offsets:
            bucket = kept_cells.get(tuple(c + o for c, o in zip(cell, off)))
            if not bucket:
                continue
            for kept in bucket:
                dist2 = 0.0
                for i in range(d):
                    dd = p[i] - kept[i]
                    dist2 += dd * dd
                if dist2 <= eps2:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            kept_cells.setdefault(cell, []).append(p)
            count += 1
    return count


_SCAN_POINTS = {1: 20_000, 2: 141, 3: 27}  # points per axis: at most ~20k candidates


@st.composite
def _tie_prone_packing(draw):
    """Axes, eps and step where lattice offsets land exactly on distance eps.

    The step is eps/4, eps/5, one ulp below eps/4, or a free fraction of
    eps/4; an axis is a whole number of steps, a whole number of eps/2, or
    free, so ties such as the offset (4, 0, 0) at eps/4 fall on the ring.
    """
    eps = draw(st.sampled_from([1.0, 0.1, 0.3, 1.0 / 3.0, 0.7, 2.0 ** -20, 1e6])
               | st.floats(1e-3, 1e3))
    h = draw(st.sampled_from([eps / 4.0, eps / 5.0, math.nextafter(eps / 4.0, 0.0)])
             | st.floats(0.05, 1.0, exclude_max=True).map(lambda f: f * (eps / 4.0)))
    d = draw(st.integers(1, 3))
    top = (_SCAN_POINTS[d] - 1) // 2  # whole steps in a semi-axis
    halves = int(2 * top * h / eps)     # whole eps/2 in a semi-axis
    axes = []
    for _ in range(d):
        kind = draw(st.sampled_from(["step", "half_eps", "free"] if halves else ["step", "free"]))
        if kind == "step":
            axes.append(h * draw(st.integers(1, top)))
        elif kind == "half_eps":
            axes.append(eps / 2.0 * draw(st.integers(1, halves)))
        else:
            axes.append(h * top * draw(st.floats(0.01, 1.0)))
    return axes, eps, h


@settings(settings.get_profile("fredinfo"), max_examples=150)
@given(_tie_prone_packing())
def test_packing_stencil_matches_the_scan_on_tie_prone_grids(case):
    axes, eps, h = case
    assert greedy_packing_count(axes, eps, h) == _greedy_packing_scan(axes, eps, h)


def test_packing_stencil_matches_the_scan_on_the_drawn_cases():
    """The 20 criterion-06 draws (seed 60289) and the bracket test's draws."""
    models = [poisson_model(0.5, 1.0), heat_model(1.0, 2.0, 1.0), green_model()]
    for seed, draws in ((60289, 20), (2718, 6)):
        rng = np.random.default_rng(seed)
        for _ in range(draws):
            axes, eps = _draw_packing_case(rng, models)
            assert greedy_packing_count(axes, eps, eps / 4.0) == \
                _greedy_packing_scan(axes, eps, eps / 4.0)


def test_packing_mask_is_the_scans_inside_test():
    axes, h = [1.0, 0.75, 0.5], 1.0 / 16.0
    shape = [int(np.floor(2.0 * a / h + 1e-9)) + 1 for a in axes]
    out = np.empty(shape, dtype=bool)
    _outside_mask(axes, h, out)
    grids = [-a + h * np.arange(n) for a, n in zip(axes, shape)]
    inv = [1.0 / (a * a) for a in axes]
    scan = [sum(c * c * inv[i] for i, c in enumerate(p)) > 1.0 + 1e-12
            for p in itertools.product(*grids)]
    np.testing.assert_array_equal(out.reshape(-1), scan)


def test_packing_mask_memory_stays_near_one_byte_per_point():
    """On a 256^3 grid the mask, one byte per point, is the only large array:
    a full-grid float64 q would take eight bytes per point."""
    axes, h = [1.0, 0.9, 0.8], 2.0 / 255.0
    shape = (256, 256, 256)
    cells = math.prod(shape)
    tracemalloc.start()
    try:
        out = np.empty(shape, dtype=bool)
        _outside_mask(axes, h, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * cells + 8 * 256 * 256
    assert 0 < np.count_nonzero(~out) < cells


def test_packing_refuses_a_level_whose_square_leaves_float_range():
    with pytest.raises(NumericError, match="float range"):
        greedy_packing_count([1e200], 1e200, 2.5e199)
    assert greedy_packing_count([1e150], 1e150, 2.5e149) == 2


@pytest.mark.parametrize("axes, eps, step", [
    ([1.0, 1e-170], 0.1, 0.025),        # 1/a^2 divided by zero
    ([1.0, 1e-160], 0.1, 0.025),        # 1/a^2 overflowed: count 0
    ([1.4e154], 1.3e154, 3.25e153),     # a^2 overflowed: NaN terms counted as inside
], ids=["square-zero", "square-subnormal", "square-inf"])
def test_packing_refuses_a_live_axis_whose_square_leaves_float_range(axes, eps, step):
    with pytest.raises(NumericError, match="semi-axis .* float range"):
        greedy_packing_count(axes, eps, step)
    assert greedy_packing_count([1.0, 1e-150], 0.1, 0.025) == 1  # a^2 = 1e-300 is normal


def test_tabulated_models_work_in_bounds():
    t = tabulated_model([0.9, 0.5, 0.25, 0.1])
    assert entropy_lower_bound(t, 0.2) == pytest.approx(
        math.log2(0.9 / 0.2) + math.log2(0.5 / 0.2) + math.log2(0.25 / 0.2), rel=1e-12)
    assert k0(t, 0.2) == 3
