"""The certified closed-form cutoff against the enumerative scan it replaces.

``k0`` accepts a family's closed form only when two eigenvalues certify it and
falls back to ``_k0_scan`` otherwise, so on every model and level the two must
agree, including their refusals at the enumeration cap.  Tabulated models
have no closed form and go straight to the scan, so they are not drawn here.
The profile is derandomized, so every run checks the same cases.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fredinfo import (InconclusiveError, NoiseLevel, green_model, heat_model, k0,
                      poisson_model, spectra, truncation)
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
    with pytest.raises(InconclusiveError, match="enumeration cap"):
        k0(poisson_model(0.5, 1.0), NoiseLevel(float(_SCAN_CAP)))
    # one below the cap is certified and answered
    level = NoiseLevel(float(_SCAN_CAP - 1))
    assert k0(poisson_model(0.5, 1.0), level) == _k0_scan(poisson_model(0.5, 1.0), level) \
        == _SCAN_CAP - 1


def test_closed_form_that_raises_falls_back_to_scan():
    # green's closed form overflows floats past L = 2000; the scan reaches its cap
    with pytest.raises(InconclusiveError, match="enumeration cap"):
        k0(green_model(), NoiseLevel(2100.0))


@pytest.mark.parametrize("offset", [-1, 1, _SCAN_CAP])  # the last claims the cap
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
