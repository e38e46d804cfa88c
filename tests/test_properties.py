"""Property tests over random models and noise levels in both forms.

Noise levels are drawn as floats and as exponents ``log2(1/eps)``, including
exponents far beyond float range (up to 4096) for the exponentially decaying
families.  The profile is derandomized, so every run checks the same cases.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from fredinfo import (NoiseLevel, PreconditionError, capacity_interval,
                      entropy_lower_bound, entropy_upper_bound, green_model,
                      heat_model, k0, k0_closed_form, poisson_model)

PROFILE = settings(derandomize=True, deadline=None, database=None)

# Largest exponent per family: green's cutoff 2**(L/2)/pi must stay below the
# enumeration cap, the exponential families reach far below float range.
_TOP = {"poisson": 4096.0, "heat": 4096.0, "green": 40.0}


@st.composite
def models(draw):
    kind = draw(st.sampled_from(sorted(_TOP)))
    if kind == "poisson":
        b = draw(st.floats(0.5, 4.0))
        return poisson_model(draw(st.floats(0.05, 0.95)) * b, b)
    if kind == "heat":
        b = draw(st.floats(0.0, 2.0))
        return heat_model(draw(st.floats(0.01, 2.0)), b + draw(st.floats(0.1, 2.0)), b)
    return green_model()


@st.composite
def levels(draw, model):
    top = _TOP[model.kind]
    if draw(st.booleans()):
        return NoiseLevel(draw(st.floats(-8.0, top)))
    return NoiseLevel.of(2.0 ** -draw(st.floats(-3.0, min(top, 1000.0))))


@PROFILE
@given(st.data(), st.sampled_from(("one_sided", "total")))
def test_capacity_interval_matches_standalone_calls(data, sided):
    model = data.draw(models())
    level = data.draw(levels(model))
    L = level.log2_inv_eps
    cap = capacity_interval(model, level, sided=sided)
    level = NoiseLevel(L, level.given)  # fresh: no cutoffs remembered from cap

    cut = k0(model, level)
    assert cut == k0_closed_form(model, level)
    if level.given is not None:
        cut_q = k0(model, level.given / 4.0)
    else:
        cut_q = k0(model, NoiseLevel(L + 2.0))
    if sided == "total" and model.two_sided:
        cut, cut_q = 2 * cut + (L >= 0.0), 2 * cut_q + (L + 2.0 >= 0.0)
    try:
        upper = entropy_upper_bound(model, level, sided=sided)
    except PreconditionError:
        upper = None
    assert (cap.epsilon, cap.log2_inv_eps) == (level.epsilon, L)
    assert (cap.k0_eps, cap.k0_eps_over_4) == (cut, cut_q)
    assert cap.lower_bits == entropy_lower_bound(model, level, sided=sided)
    assert cap.upper_bits == upper
    if upper is not None:
        assert cap.lower_bits <= upper


@PROFILE
@given(models(), st.integers(-3, 1022))
def test_dyadic_float_and_exponent_give_the_same_cutoff(model, n):
    n = min(n, int(_TOP[model.kind]))
    assert k0(model, 2.0 ** -n) == k0(model, NoiseLevel(n))
