"""The sweep's metric kernel against a per-level oracle, and the paper's
comparison of the metric and the probabilistic information as a sandwich.

``metric._grid`` certifies the cutoffs of a whole grid (levels and quarters)
in one pass and derives each row.  Its oracle is the per-level route it
replaced in sweeps: a scalar ``k0`` (the closed form certified at two points,
else the boundary search) at each level and at its quarter, and the bound
expressions of ``capacity_interval`` and ``max_message_length_log2``, kept
here.  Closed forms are also patched to be off by one or to raise, so the
kernel's search path answers too.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fredinfo.truncation as truncation
from fredinfo import (GaussianChannel, InconclusiveError, NoiseLevel, capacity_interval,
                      constant_rule, extremal_comparison, geometric_rule, green_model,
                      heat_model, k0, max_message_length_log2, partition_IN, poisson_model,
                      tabulated_model, total_information)
from fredinfo import metric
from fredinfo.cli import main
from fredinfo.spectra import FAMILIES

PROFILE = settings.get_profile("fredinfo")
_CLOSED = {kind: family.k0_closed_form for kind, family in FAMILIES.items()}
_TOP = 1 << 53


def _oracle_k0(model, level):
    """``k0`` one level at a time, with the family's own closed form."""
    closed = _CLOSED[model.kind]
    if closed is None:
        return int(np.count_nonzero(level.kept(model, np.arange(1, model.spectrum_length + 1))))
    try:
        g = closed(model.params, level.log2_inv_eps, level.epsilon)
    except ArithmeticError:
        g = _TOP
    if g < _TOP:
        ok = level.kept(model, np.arange(max(g, 1), g + 2))
        if (g == 0 or ok[0]) and not ok[-1]:
            return g
    cut = truncation._boundary(model, level, min(g, _TOP))
    if cut == _TOP:
        raise InconclusiveError("k0 is at least 2**53")
    return cut


def _oracle_row(model, epsilon, sided):
    """``(k0, k0_eps, k0_eps_over_4, lower_bits, upper_bits, logL_max)`` at a
    fresh level, as the per-level functions computed them."""
    level = NoiseLevel(epsilon.log2_inv_eps, epsilon.epsilon)
    L, eps = level.log2_inv_eps, level.epsilon
    quarter = (NoiseLevel.of(eps / 4.0) if eps is not None and (eps / 4.0) * 4.0 == eps
               else NoiseLevel(L + 2.0))
    cut, cut_q = _oracle_k0(model, level), _oracle_k0(model, quarter)
    total = sided == "total" and model.two_sided
    factor = 2 if total else 1
    center = int(total and level._keeps_center())
    center_q = int(total and quarter._keeps_center())
    lower = (factor * max(0.0, cut * L + FAMILIES[model.kind].log2_sum(model.params, cut))
             + center * max(L, 0.0))
    if eps is not None:
        below = eps < 4.0 * model.eigenvalue(1)
    else:
        below = -L < 2.0 + model.log2_eigenvalues(np.asarray([1]))[0]
    m = factor * cut_q + center_q
    upper = m * (L + math.log2(6.0) + 0.5 * math.log2(m)) if cut_q >= 1 and below else None
    logl = 0.0 if cut == 0 else cut * L + math.log2(factor)
    return cut, factor * cut + center, m, lower, upper, logl


@st.composite
def grid_models(draw):
    kind = draw(st.sampled_from(["poisson", "dyadic", "heat", "green", "tabulated"]))
    if kind == "poisson":
        b = draw(st.floats(0.5, 4.0))
        return poisson_model(draw(st.floats(0.05, 0.95)) * b, b)
    if kind == "dyadic":  # lambda_k = 2^-k: levels 2^-k tie with an eigenvalue
        return poisson_model(0.5, 1.0)
    if kind == "heat":
        b = draw(st.floats(0.0, 2.0))
        return heat_model(draw(st.floats(0.01, 2.0)), b + draw(st.floats(0.1, 2.0)), b)
    if kind == "green":
        return green_model()
    exps = draw(st.lists(st.integers(0, 1074), min_size=1, max_size=12, unique=True))
    return tabulated_model([2.0 ** -e for e in sorted(exps)])


@st.composite
def grid_levels(draw):
    form = draw(st.sampled_from(["float", "exponent", "tie", "special"]))
    if form == "float":
        return NoiseLevel.of(10.0 ** -draw(st.floats(-1.0, 320.0)))
    if form == "exponent":
        return NoiseLevel(draw(st.floats(-4096.0, 4096.0)))
    if form == "tie":  # a dyadic level, as a float or as its exponent
        k = draw(st.integers(-2, 1100))
        if draw(st.booleans()):
            return NoiseLevel(float(k))
        return NoiseLevel.of(2.0 ** -min(k, 1074))
    return NoiseLevel.of(draw(st.sampled_from([5e-324, 1e-300, 2.2250738585072014e-308, 1.0])))


def _patched(kind, how):
    """``FAMILIES[kind]`` with its closed form moved by ``how`` (+1, -1) or raising."""
    family = FAMILIES[kind]
    closed = family.k0_closed_form

    def wrong(p, L, eps):
        if how == "raise":
            raise OverflowError("patched closed form")
        return max(0, closed(p, L, eps) + how)

    return dataclasses.replace(family, k0_closed_form=wrong)


@PROFILE
@given(grid_models(), st.lists(grid_levels(), min_size=1, max_size=5),
       st.sampled_from(["one_sided", "total"]), st.sampled_from([0, 1, -1, "raise"]))
def test_grid_rows_equal_the_per_level_oracle(model, levels, sided, how):
    original = FAMILIES[model.kind]
    if how and original.k0_closed_form is not None:
        FAMILIES[model.kind] = _patched(model.kind, how)
    try:
        rows = metric._grid(model, levels, sided)
        for level in levels:
            try:
                want = _oracle_row(model, level, sided)
            except InconclusiveError:  # the kernel refuses at this row, not before
                with pytest.raises(InconclusiveError, match="2\\*\\*53"):
                    next(rows)
                return
            cut, bounds = next(rows)
            logl = max_message_length_log2(model, level, sided=sided)
            got = (cut, bounds.k0_eps, bounds.k0_eps_over_4, bounds.lower_bits,
                   bounds.upper_bits, logl)
            assert repr(got) == repr(want), (model, level, sided, how)
    finally:
        FAMILIES[model.kind] = original


def test_metric_only_sweep_ends_on_a_refused_green_cutoff(tmp_path, capsys):
    config = tmp_path / "green.json"
    config.write_text(json.dumps({"model": {"kind": "green"}, "epsilon_grid": [1e-3, 1e-34]}))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "run")]) == 3
    assert capsys.readouterr().err == (
        "numeric failure: k0 is at least 2**53, past which indices are not exact in "
        "floats; the noise level is too small for this spectrum's decay\n")
    assert not list(tmp_path.glob("run*"))


# ---------------------------------------------------------------------------
# The paper's comparison: metric bounds around the channel information
# ---------------------------------------------------------------------------


@st.composite
def sandwich_cases(draw):
    kind = draw(st.sampled_from(["poisson", "heat", "green"]))
    if kind == "poisson":
        b = draw(st.floats(0.5, 4.0))
        model = poisson_model(draw(st.floats(0.05, 0.7)) * b, b)
        L = draw(st.floats(1.0, 2000.0))
    elif kind == "heat":
        b = draw(st.floats(0.0, 2.0))
        model = heat_model(draw(st.floats(0.01, 2.0)), b + draw(st.floats(0.1, 2.0)), b)
        L = draw(st.floats(1.0, 4096.0))
    else:
        model, L = green_model(), draw(st.floats(1.0, 20.0))
    level = NoiseLevel(L) if draw(st.booleans()) or abs(L) > 1022 else NoiseLevel.of(2.0 ** -L)
    c = draw(st.floats(0.1, 10.0))
    rule = (geometric_rule(c, draw(st.floats(0.05, 0.95))) if draw(st.booleans())
            else constant_rule(c))
    return model, level, rule


@PROFILE
@given(sandwich_cases())
def test_channel_information_sits_between_the_metric_bounds(case):
    model, level, rule = case
    cut = k0(model, level)
    chan = GaussianChannel(model, rule, rule, level, k_max=max(cut, 1) + 2)  # rho = nu
    k_I = partition_IN(chan).k_I
    info = total_information(chan)
    bounds = capacity_interval(model, level)
    assert k_I == cut
    # relative to the terms k0 log2(1/eps) and sum log2 lambda_k that the lower
    # bound adds: near a tie their sum cancels, and so does any rounding's
    terms = cut * abs(level.log2_inv_eps) + abs(FAMILIES[model.kind].log2_sum(model.params, cut))
    assert abs(info.approx_bits - bounds.lower_bits) <= 2.1e-14 * terms
    assert info.approx_bits <= info.exact_bits <= info.approx_bits + k_I / 2
    if bounds.upper_bits is not None:
        assert info.exact_bits <= bounds.upper_bits


@pytest.mark.parametrize("case", ["alpha", "beta"])
def test_truncated_extremal_comparison_sums_the_same_components(case):
    cmp = extremal_comparison(green_model(), 1e-6, case)  # k_max 256 < k0 = 318
    assert (cmp.k0, cmp.k_I) == (318, 256)
    assert "truncated at k_max = 256 < k0 = 318" in cmp.note
    # alpha sums per component what its reference takes in closed form; beta's
    # approx and reference are one expression
    assert cmp.approx_nats == pytest.approx(cmp.reference_nats, rel=1e-9)
    full = extremal_comparison(green_model(k_max=cmp.k0), 1e-6, case)
    assert full.k_I == full.k0 and "truncated" not in full.note
    assert full.reference_nats > cmp.reference_nats
