"""Property tests over random models and noise levels in both forms.

Noise levels are drawn as floats and as exponents ``log2(1/eps)``, including
exponents far beyond float range (up to 4096) for the exponentially decaying
families.  The profile is derandomized, so every run checks the same cases.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from fredinfo import (CoefficientVector, GaussianChannel, NoiseLevel, PreconditionError,
                      capacity_interval, constant_rule, entropy_lower_bound,
                      entropy_upper_bound, green_model, heat_model, k0, k0_closed_form,
                      partition_IN, poisson_model, truncated_solution)

PROFILE = settings.get_profile("fredinfo")

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
    level = NoiseLevel(L, level.epsilon)  # fresh: no cutoffs remembered from cap

    cut = k0(model, level)
    assert cut == k0_closed_form(model, level)
    if level.epsilon is not None:
        cut_q = k0(model, level.epsilon / 4.0)
    else:
        cut_q = k0(model, NoiseLevel(L + 2.0))
    if sided == "total" and model.two_sided:  # the center lambda_0 = 1, on the float
        eps = level.epsilon
        cut = 2 * cut + (eps <= 1.0 if eps is not None else L > 0.0)
        cut_q = 2 * cut_q + (eps / 4.0 <= 1.0 if eps is not None else L + 2.0 > 0.0)
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



@PROFILE
@given(st.data())
def test_metric_and_channel_cutoffs_agree_at_exponent_levels(data):
    model = data.draw(models())
    top = min(1022.0, _TOP[model.kind])
    if data.draw(st.booleans()):
        L = data.draw(st.floats(-8.0, top))
    else:  # on an eigenvalue, where 2**-L and lambda_j can round either way
        j = data.draw(st.integers(1, 64))
        L = min(-float(model.log2_eigenvalues(np.asarray([j]))[0]), top)
    level = NoiseLevel(L)
    cut = k0(model, level)
    # rho = nu = 1: the informative set is the metric cutoff, capped at k_max
    ones = constant_rule(1.0)
    assert partition_IN(GaussianChannel(model, ones, ones, level)).k_I == min(cut, model.k_max)
    K = data.draw(st.integers(1, 64))
    vector = CoefficientVector.from_components(model, np.ones(K))
    assert truncated_solution(model, vector, level).k0 == min(cut, K)
