"""Property tests for the channel invariants over random channels.

Models, variance rules and float noise levels are drawn at random; the
profile is derandomized, so every run checks the same cases.  Draws the
channel refuses (a tie, an underflowed eigenvalue or prior) are discarded.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fredinfo import (CoefficientVector, GaussianChannel, ValidationError,
                      component_information, constant_rule, gaussian_rule,
                      geometric_rule, green_model, heat_model, partition_IN,
                      poisson_model, posterior_estimate, power_rule, tabulated_model,
                      total_information)

PROFILE = settings.get_profile("fredinfo")
_HALF_LN2 = 0.5 * math.log(2.0)


@st.composite
def models(draw):
    kind = draw(st.sampled_from(("poisson", "heat", "green", "tabulated")))
    k_max = draw(st.integers(1, 40))
    if kind == "poisson":
        b = draw(st.floats(0.5, 4.0))
        return poisson_model(draw(st.floats(0.05, 0.95)) * b, b, k_max=k_max)
    if kind == "heat":
        b = draw(st.floats(0.0, 2.0))
        return heat_model(draw(st.floats(0.01, 1.0)), b + draw(st.floats(0.01, 1.0)), b,
                          k_max=min(k_max, 20))
    if kind == "green":
        return green_model(k_max=k_max)
    values = draw(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=k_max, unique=True))
    return tabulated_model(sorted(values, reverse=True))


def rules():
    c = st.floats(0.01, 100.0)
    return st.one_of(st.builds(constant_rule, c),
                     st.builds(geometric_rule, c, st.floats(0.05, 0.95)),
                     st.builds(power_rule, c, st.floats(0.1, 3.0)),
                     st.builds(gaussian_rule, c, st.floats(1e-3, 0.2)))


@PROFILE
@given(models(), rules(), rules(), st.floats(-1.0, 15.0))
def test_channel_invariants(model, rho, nu, neg_log10_eps):
    try:
        chan = GaussianChannel(model, rho, nu, 10.0 ** -neg_log10_eps)
    except ValidationError:
        assume(False)
    ks = range(1, chan.k_max + 1)
    infos = [component_information(chan, k) for k in ks]
    part = partition_IN(chan)
    assert part.I == tuple(c.k for c in infos if c.in_I)
    assert part.N == tuple(c.k for c in infos if not c.in_I)

    total = total_information(chan)
    exact = 0.0
    for k in part.I:
        exact += infos[k - 1].J_nats
    assert total.exact_nats == exact
    gap = total.exact_nats - total.approx_nats
    assert -1e-9 <= gap <= part.k_I * _HALF_LN2 + 1e-9 * abs(total.exact_nats)

    # every stored component non-zero: the estimate zeroes exactly N
    K = chan.k_max
    n = 2 * K + 1 if model.two_sided else K
    data = CoefficientVector(model, np.arange(1.0, n + 1.0))
    est = posterior_estimate(chan, data)
    dropped = set(part.N)
    for k, v in zip(data.indices, est.entries):
        if k < 0:
            assert v == 0.0  # the channel's components are k >= 1
        elif k > 0:
            assert (v == 0.0) == (int(k) in dropped)
        elif 1 not in dropped:
            assert v == K + 1.0  # lambda_0 = 1 >= lambda_1: the center follows component 1
