"""The certified closed-form cutoff and its search against the enumerative scan.

``k0`` accepts a family's closed form only when two eigenvalues certify it and
otherwise searches the spectrum from that guess, so on every model and level
it must agree with the scan (``scan_oracle.k0_scan``) wherever the scan
answers.  The profile is derandomized, so every run checks the same cases.
The scan walks O(k0) eigenvalues and stops at its cap of ``2**22``; cutoffs
past it are checked as boundaries of the kept set and, for green, with exact
arithmetic: ``fractions`` and a 55-digit bracket of pi from Machin's formula
in ``decimal``.  ``k0`` itself refuses only a cutoff of ``2**53`` or more.
"""

import dataclasses
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fredinfo import (InconclusiveError, NoiseLevel, entropy_lower_bound, green_model,
                      heat_model, k0, poisson_model, spectra, tabulated_model, truncation)
from scan_oracle import SCAN_CAP, k0_scan

PROFILE = settings.get_profile("fredinfo")

# Largest exponent per family: green's cutoff 2**(L/2)/pi passes the scan's cap near 47.
_TOP = {"poisson": 4096.0, "heat": 4096.0, "green": 40.0}
_REFUSAL = "k0 is at least 2\\*\\*53"


def _outcome(cutoff, model, level):
    try:
        return cutoff(model, level)
    except InconclusiveError:
        return "inconclusive"


def _agree(model, level):
    assert _outcome(k0, model, NoiseLevel(level.log2_inv_eps, level.epsilon)) == \
        _outcome(k0_scan, model, level), (model, level)


def _with_closed_form(monkeypatch, kind, closed):
    """Replace the closed form of the family ``kind`` for one test."""
    family = spectra.FAMILIES[kind]
    wrong = dataclasses.replace(family, k0_closed_form=lambda p, L, eps: closed(
        family.k0_closed_form, p, L, eps))
    monkeypatch.setitem(spectra.FAMILIES, kind, wrong)


@st.composite
def analytic_models(draw):
    kind = draw(st.sampled_from(sorted(_TOP)))
    if kind == "poisson":
        b = draw(st.floats(0.5, 4.0))
        return poisson_model(draw(st.floats(0.01, 0.99)) * b, b)
    if kind == "heat":
        b = draw(st.floats(0.0, 2.0))
        return heat_model(draw(st.floats(0.01, 2.0)), b + draw(st.floats(0.1, 2.0)), b)
    return green_model()


@PROFILE
@given(st.data())
def test_certificate_matches_scan_on_drawn_models(data):
    model = data.draw(analytic_models())
    top = _TOP[model.kind]
    if data.draw(st.booleans()):
        level = NoiseLevel(data.draw(st.floats(-8.0, top)))
    else:
        level = NoiseLevel.of(2.0 ** -data.draw(st.floats(-3.0, min(top, 1074.0))))
    _agree(model, level)


@PROFILE
@given(st.floats(0.5, 4.0), st.integers(-4, 4096), st.booleans())
def test_certificate_matches_scan_on_dyadic_ties(b, n, as_float):
    # a/b = 1/2 exactly, so lambda_n = 2**-n equals the level: a tie at every n
    model = poisson_model(b / 2.0, b)
    level = NoiseLevel.of(2.0 ** -n) if as_float and n <= 1074 else NoiseLevel(n)
    _agree(model, level)


@PROFILE
@given(st.lists(st.floats(1e-300, 1.0), min_size=1, max_size=3000), st.booleans(),
       st.data())
def test_tabulated_cutoff_matches_scan(values, allow_ties, data):
    values = sorted(values, reverse=True)
    if not allow_ties:
        values = sorted(set(values), reverse=True)
    model = tabulated_model(values, allow_ties=allow_ties)
    level = data.draw(st.one_of(
        st.sampled_from(values).map(NoiseLevel.of),                  # a tie with a value
        st.floats(1e-310, 2.0).map(NoiseLevel.of),
        st.floats(-2.0, 1100.0).map(NoiseLevel)))
    _agree(model, level)


def test_cutoff_at_the_cap_refuses_and_below_it_answers(monkeypatch):
    # green needs ~2^511 components at this level; its closed form says so
    with pytest.raises(InconclusiveError, match=_REFUSAL):
        k0(green_model(), NoiseLevel(1024.0))
    # a closed form that misses by 2^40 leaves the search to find the last
    # index below 2^53 and to refuse at 2^53 itself
    _with_closed_form(monkeypatch, "poisson",
                      lambda closed, p, L, eps: max(0, closed(p, L, eps) - 2 ** 40))
    model = poisson_model(0.5, 1.0)
    assert k0(model, NoiseLevel(2.0 ** 53 - 1.0)) == 2 ** 53 - 1
    assert k0(model, NoiseLevel(float(SCAN_CAP - 1))) == k0_scan(
        model, NoiseLevel(float(SCAN_CAP - 1))) == SCAN_CAP - 1
    with pytest.raises(InconclusiveError, match=_REFUSAL):
        k0(model, NoiseLevel(2.0 ** 53))


def _raises(closed, p, L, eps):
    raise OverflowError("closed form overflows")


def test_closed_form_that_raises_falls_back_to_the_search(monkeypatch):
    # green's closed form overflows floats past L = 2046; the cutoff is far past 2^53
    with pytest.raises(InconclusiveError, match=_REFUSAL):
        k0(green_model(), NoiseLevel(2100.0))
    _with_closed_form(monkeypatch, "poisson", _raises)
    _with_closed_form(monkeypatch, "green", _raises)
    model = poisson_model(0.5, 1.0)
    assert k0(model, NoiseLevel(2.0 ** 53 - 1.0)) == 2 ** 53 - 1
    with pytest.raises(InconclusiveError, match=_REFUSAL):
        k0(model, NoiseLevel(2.0 ** 53))
    for level in (NoiseLevel.of(0.5), NoiseLevel.of(1e-9), NoiseLevel(20.5)):
        assert k0(green_model(), level) == k0_scan(green_model(), level)
        assert k0(model, level) == k0_scan(model, level)


@pytest.mark.parametrize("offset", [-1, 1, SCAN_CAP, 2 ** 40])
@pytest.mark.parametrize("epsilon", [0.1, 1e-3, 1e-9, NoiseLevel(20.5)])
def test_failed_certificate_returns_the_scan(monkeypatch, offset, epsilon):
    _with_closed_form(monkeypatch, "green", lambda closed, p, L, eps: closed(p, L, eps) + offset)
    level = NoiseLevel.of(epsilon)
    assert k0(green_model(), level) == k0_scan(green_model(), level)


@pytest.mark.parametrize("model, level, closed", [
    (green_model(), NoiseLevel(2100.0), None),          # the closed form raises
    (green_model(), NoiseLevel(1024.0), None),          # it passes 2^53
    (green_model(), NoiseLevel(110.0), None),           # just past 2^53
    (poisson_model(0.5, 1.0), NoiseLevel(1e16), None),
    (poisson_model(0.5, 1.0), NoiseLevel(1e16), lambda closed, p, L, eps: 0),
    (heat_model(1e-30, 2.0, 1.0), NoiseLevel(4096.0), lambda closed, p, L, eps: 1),
])
def test_a_refusal_evaluates_few_eigenvalues(monkeypatch, model, level, closed):
    if closed is not None:
        _with_closed_form(monkeypatch, model.kind, closed)
    evaluated = []
    kept = NoiseLevel.kept

    def counting(self, model, ks):
        evaluated.append(len(ks))
        return kept(self, model, ks)

    monkeypatch.setattr(NoiseLevel, "kept", counting)
    with pytest.raises(InconclusiveError, match=_REFUSAL):
        k0(model, level)
    assert sum(evaluated) <= 2 * 54 + 2  # doubling to 2^53, then bisection


# ---------------------------------------------------------------------------
# Past the scan's cap: boundaries and exact arithmetic
# ---------------------------------------------------------------------------


def _arctan_inv(n: int) -> Decimal:
    x = Decimal(1) / n
    term = total = x
    k = 1
    while True:
        term *= -x * x
        k += 2
        nxt = total + term / k
        if nxt == total:
            return total
        total = nxt


with localcontext() as _ctx:
    _ctx.prec = 60
    _PI = 16 * _arctan_inv(5) - 4 * _arctan_inv(239)  # Machin's formula
    _LN2 = Decimal(2).ln()
    _LN_2PI = (2 * _PI).ln()
    _LOG2_PI = _PI.ln() / _LN2
_PI_LO, _PI_HI = Fraction(_PI) - Fraction(1, 10 ** 55), Fraction(_PI) + Fraction(1, 10 ** 55)

# k0 compares lambda_g = 1/(g^2 pi^2) formed in floats: the roundings and the
# error of math.pi move it by under 2^-50 relative.  Levels whose exact margin
# on both sides exceeds twice that have one right answer in floats too.
_GREEN_MARGIN = Fraction(1, 2 ** 49)


@pytest.mark.parametrize("level", [NoiseLevel(48.0), NoiseLevel(60.0), NoiseLevel(80.0),
                                   NoiseLevel(90.0), NoiseLevel.of(1e-20),
                                   NoiseLevel.of(1e-28), NoiseLevel.of(1e-30)])
def test_green_cutoff_past_the_cap_is_exact(level):
    # lambda_g >= eps exactly when g^2 pi^2 <= 1/eps
    inv = 1 / Fraction(level.epsilon)
    g = math.isqrt(math.floor(inv / _PI_HI ** 2))
    assert g == math.isqrt(math.floor(inv / _PI_LO ** 2)) > SCAN_CAP
    assert inv / (g * g * _PI_HI ** 2) - 1 > _GREEN_MARGIN
    assert 1 - inv / ((g + 1) ** 2 * _PI_LO ** 2) > _GREEN_MARGIN
    assert k0(green_model(), level) == g


@pytest.mark.parametrize("ratio", [1, 2, 3])   # b/a = 2, 4, 8: lambda_k = 2^-(ratio k)
@pytest.mark.parametrize("m", [SCAN_CAP, SCAN_CAP + 1, 10 ** 12, 2 ** 40 + 3])
def test_poisson_dyadic_cutoff_past_the_cap_is_exact(ratio, m):
    model = poisson_model(1.0, 2.0 ** ratio)
    assert k0(model, NoiseLevel(float(ratio * m))) == m            # a tie: lambda_m = eps
    assert k0(model, NoiseLevel(ratio * m + 0.5)) == m
    assert k0(model, NoiseLevel(ratio * m - 0.5)) == m - 1


def test_certificate_stops_at_2_to_the_53():
    model = poisson_model(0.5, 1.0)
    assert k0(model, NoiseLevel(2.0 ** 53 - 1.0)) == 2 ** 53 - 1
    with pytest.raises(InconclusiveError, match=_REFUSAL):
        k0(model, NoiseLevel(2.0 ** 53))


def _green_exact(level: NoiseLevel) -> int:
    """``max {g : g^2 pi^2 eps <= 1}``, decided by both ends of the bracket of pi."""
    inv = 1 / Fraction(level.epsilon)
    g = math.isqrt(math.floor(inv / _PI_HI ** 2))
    assert g == math.isqrt(math.floor(inv / _PI_LO ** 2))
    return g


# The float certificate rejects the closed form at these levels; the search
# still finds the exact cutoff, floor(1e16/pi) at 1e-32.
@pytest.mark.parametrize("level, cut", [(NoiseLevel.of(1e-32), 3183098861837906),
                                        (NoiseLevel.of(3e-32), 1837762984739306),
                                        (NoiseLevel(106.0), 2867080569611329)])
def test_green_cutoff_the_certificate_rejects_is_exact(level, cut):
    assert k0(green_model(), level) == _green_exact(level) == cut


def _past_the_scan(data):
    """A model and a level whose cutoff lies in ``(2**22, 2**53)``: green, or
    poisson and heat with ``b/a`` near 1."""
    kind = data.draw(st.sampled_from(["green", "poisson", "heat"]))
    if kind == "green":
        return green_model(), data.draw(st.one_of(
            st.floats(48.0, 106.0).map(NoiseLevel),
            st.floats(14.7, 31.9).map(lambda e: NoiseLevel.of(10.0 ** -e))))
    b = data.draw(st.floats(0.5, 2.0))
    near = 2.0 ** -data.draw(st.floats(8.0, 44.0))
    cut = 2.0 ** data.draw(st.floats(22.5, 52.0))  # the cutoff aimed at
    if kind == "poisson":
        model = poisson_model(b * (1.0 - near), b)
        return model, NoiseLevel(cut * math.log2(b / model.params["a"]))
    model = heat_model(data.draw(st.floats(1e-6, 1.0)), b * (1.0 + near), b)
    rate = model.params["D"] * (model.params["a"] - b)
    return model, NoiseLevel(cut * cut * rate / math.log(2.0))


@PROFILE
@given(st.data())
def test_cutoffs_past_the_scans_reach_are_boundaries(data):
    model, level = _past_the_scan(data)
    cut = k0(model, level)
    assert SCAN_CAP < cut < 2 ** 53
    assert level.kept(model, np.array([cut, cut + 1])).tolist() == [True, False]
    # the search finds the same boundary from any guess
    assert truncation._boundary(model, level, data.draw(st.integers(0, 2 ** 53))) == cut
    if model.kind == "green":
        g = _green_exact(level)
        inv = 1 / Fraction(level.epsilon)
        if (inv / (g * g * _PI_HI ** 2) - 1 > _GREEN_MARGIN
                and 1 - inv / ((g + 1) ** 2 * _PI_LO ** 2) > _GREEN_MARGIN):
            assert cut == g


def _log2_sum_green(c: int) -> Decimal:
    """``sum_{k<=c} log2(1/(k^2 pi^2)) = -2 c log2(pi) - 2 log2(c!)``, with
    Stirling's series for ``ln c!`` (its next term is below ``c**-7``)."""
    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(c)
        ln_fact = ((x + Decimal("0.5")) * x.ln() - x + _LN_2PI / 2 + 1 / (12 * x)
                   - 1 / (360 * x ** 3) + 1 / (1260 * x ** 5))
        return -2 * x * _LOG2_PI - 2 * ln_fact / _LN2


@pytest.mark.parametrize("c", [1000, 10 ** 6, 341782637, 349985421095, 318309886183790,
                               2 ** 53 - 1])
def test_green_log2_sum_matches_a_high_precision_lgamma(c):
    got = spectra.FAMILIES["green"].log2_sum({}, c)
    want = _log2_sum_green(c)
    assert abs(Decimal(got) - want) <= Decimal("1e-13") * abs(want)


@pytest.mark.parametrize("level", [NoiseLevel(60.0), NoiseLevel(80.0), NoiseLevel.of(1e-30)])
def test_green_lower_bound_past_the_cap_matches_high_precision(level):
    # c log2(1/eps) + S(c) cancels about 20- to 34-fold here
    c = k0(green_model(), level)
    want = c * Decimal(level.log2_inv_eps) + _log2_sum_green(c)
    got = entropy_lower_bound(green_model(), level)
    assert abs(Decimal(got) - want) <= Decimal("1e-13") * want
