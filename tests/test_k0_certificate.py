"""The certified closed-form cutoff against the enumerative scan it replaces.

``k0`` accepts a family's closed form only when two eigenvalues certify it and
falls back to ``_k0_scan`` otherwise, so on every model and level the two must
agree, including their refusals at the enumeration cap.  Tabulated models
have no closed form and go straight to the scan, so they are not drawn here.
The profile is derandomized, so every run checks the same cases.  Past the
scan's cap the scan cannot be the oracle, so cutoffs there are checked with
exact arithmetic: ``fractions`` and a 55-digit bracket of pi from Machin's
formula in ``decimal``.
"""

import dataclasses
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fredinfo import (InconclusiveError, NoiseLevel, entropy_lower_bound, green_model,
                      heat_model, k0, poisson_model, spectra, truncation)
from fredinfo.truncation import _SCAN_CAP, _k0_scan

PROFILE = settings.get_profile("fredinfo")

# Largest exponent per family: green's cutoff 2**(L/2)/pi passes the cap near 44.
_TOP = {"poisson": 4096.0, "heat": 4096.0, "green": 40.0}


def _outcome(cutoff, model, level):
    try:
        return cutoff(model, level)
    except InconclusiveError:
        return "inconclusive"


def _agree(model, level):
    assert _outcome(k0, model, NoiseLevel(level.log2_inv_eps, level.epsilon)) == \
        _outcome(_k0_scan, model, level), (model, level)


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


def test_cutoff_at_the_cap_refuses_and_below_it_answers():
    # green needs ~2^511 components at this level; its closed form says so
    with pytest.raises(InconclusiveError, match="enumeration cap"):
        k0(green_model(), NoiseLevel(1024.0))
    # one below the cap is certified and answered
    level = NoiseLevel(float(_SCAN_CAP - 1))
    assert k0(poisson_model(0.5, 1.0), level) == _k0_scan(poisson_model(0.5, 1.0), level) \
        == _SCAN_CAP - 1


def test_closed_form_that_raises_falls_back_to_scan():
    # green's closed form overflows floats past L = 2000; the scan reaches its cap
    with pytest.raises(InconclusiveError, match="enumeration cap"):
        k0(green_model(), NoiseLevel(2100.0))


# an offset of _SCAN_CAP still leaves the closed form below the 2**53 guard, so
# it too is certified, fails its certificate and falls to the scan
@pytest.mark.parametrize("offset", [-1, 1, _SCAN_CAP])
@pytest.mark.parametrize("epsilon", [0.1, 1e-3, 1e-9, NoiseLevel(20.5)])
def test_failed_certificate_returns_the_scan(monkeypatch, offset, epsilon):
    green = spectra.FAMILIES["green"]
    wrong = dataclasses.replace(
        green, k0_closed_form=lambda p, L, given: green.k0_closed_form(p, L, given) + offset)
    monkeypatch.setitem(spectra.FAMILIES, "green", wrong)
    scans = []

    def counting(model, level):
        scans.append(level)
        return _k0_scan(model, level)

    monkeypatch.setattr(truncation, "_k0_scan", counting)
    level = NoiseLevel.of(epsilon)
    assert k0(green_model(), level) == _k0_scan(green_model(), level)
    assert len(scans) == 1


# ---------------------------------------------------------------------------
# Past the scan's cap: exact arithmetic
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
    assert g == math.isqrt(math.floor(inv / _PI_LO ** 2)) > _SCAN_CAP
    assert inv / (g * g * _PI_HI ** 2) - 1 > _GREEN_MARGIN
    assert 1 - inv / ((g + 1) ** 2 * _PI_LO ** 2) > _GREEN_MARGIN
    assert k0(green_model(), level) == g


@pytest.mark.parametrize("ratio", [1, 2, 3])   # b/a = 2, 4, 8: lambda_k = 2^-(ratio k)
@pytest.mark.parametrize("m", [_SCAN_CAP, _SCAN_CAP + 1, 10 ** 12, 2 ** 40 + 3])
def test_poisson_dyadic_cutoff_past_the_cap_is_exact(ratio, m):
    model = poisson_model(1.0, 2.0 ** ratio)
    assert k0(model, NoiseLevel(float(ratio * m))) == m            # a tie: lambda_m = eps
    assert k0(model, NoiseLevel(ratio * m + 0.5)) == m
    assert k0(model, NoiseLevel(ratio * m - 0.5)) == m - 1


def test_certificate_stops_at_2_to_the_53():
    model = poisson_model(0.5, 1.0)
    assert k0(model, NoiseLevel(2.0 ** 53 - 1.0)) == 2 ** 53 - 1
    with pytest.raises(InconclusiveError, match="enumeration cap"):
        k0(model, NoiseLevel(2.0 ** 53))


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
