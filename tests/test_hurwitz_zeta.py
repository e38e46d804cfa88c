"""The power prior's tail ``c^2 zeta(2p, m + 1)`` from the package's own Hurwitz zeta.

``channel._hurwitz_zeta`` runs Cephes' algorithm, the routine behind
``scipy.special.zeta``, which the package called before.  That call stays here
as the oracle: the two agree bit for bit, as a property over ``x`` in
``(1, 2000]`` and integer ``q`` in ``[1, 2^20]`` and on a grid of the
algorithm's branch edges.  mpmath checks the value within 1e-15 relative
wherever it and the terms it is summed from are normal floats; past
``q = 1e8`` the asymptotic form adds its first omitted term,
``x (x - 1) / (12 q^2)`` relative, to that bound.  A subnormal term carries an
absolute rounding of ``2^-1074``, which the Euler-Maclaurin tail multiplies by
``(q + 9) / (x - 1)``: at ``x = 64``, ``q = 66731`` the normal result
``1.85e-306``, summed from terms near ``2e-309``, is off by 1.5e-15 relative,
in scipy as here.  Where every direct term underflows, scipy goes on to the
Euler-Maclaurin terms and returns NaN once their factor overflows; the package
returns 0 there, which mpmath confirms, and the CLI answers such a prior.
"""

import math
import struct
import sys

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import zeta

from fredinfo.channel import _hurwitz_zeta
from fredinfo.cli import main

PROFILE = settings.get_profile("fredinfo")


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


def _check(x: float, q: float) -> None:
    got = _hurwitz_zeta(x, q)
    assert _bits(got) == _bits(float(zeta(x, q))), (x, q, got)
    smallest = got if q > 1e8 else (q + 9.0) ** -x   # the last direct term
    if not smallest >= sys.float_info.min:
        return
    bound = 1e-15 + (x * (x - 1) / (12 * q * q) if q > 1e8 else 0.0)
    # mpmath stops its Euler-Maclaurin tail on an absolute tolerance, so it
    # works 50 digits past the result's decimal exponent
    with mpmath.workdps(50 - min(0, math.floor(math.log10(got)))):
        assert abs(mpmath.mpf(got) / mpmath.zeta(x, q) - 1) <= bound, (x, q, got)


@settings(PROFILE, max_examples=300)
@given(st.one_of(st.floats(min_value=1.0, max_value=4.0, exclude_min=True),   # usual 2p
                 st.floats(min_value=1.0, max_value=2000.0, exclude_min=True)),
       st.integers(min_value=1, max_value=2 ** 20))
def test_hurwitz_zeta_equals_scipy_bit_for_bit(x, q):
    _check(x, q)


_ABOVE_1 = math.nextafter(1.0, 2.0)
EDGES = (
    # the asymptotic form starts past q = 1e8, the summation below it
    [(x, q) for q in (1e8, 1e8 + 1)
     for x in (1 + 1e-15, 1.0000002, 1.5, 2.0, 3.0, 10.0, 38.0)] + [(1e300, 1e8 + 1)]
    # x at 1 + 1e-15 and at 2p just above 1, the trace-class edge
    + [(x, q) for x in (1 + 1e-15, _ABOVE_1, 2 * 0.5000001)
       for q in (1, 2, 9, 10, 257, 2 ** 20)]
    # q**-x underflows: every term is 0 (the sum stays 0), or it is subnormal
    + [(1e300, 1), (600.0, 257), (2000.0, 2), (150.0, 2 ** 20),
       (1070.0, 2), (1074.5, 2), (1100.0, 2), (1100.0, 1)]
    # a term's ratio to the sum falls between 2^-53 and 2^-52: MACHEP decides
    # where the sum stops (found by a search against scipy)
    + [(56.730697741339355, 10), (15.745230967174638, 1), (48.385968381397575, 8)]
)


@pytest.mark.parametrize("x, q", EDGES)
def test_hurwitz_zeta_edges_equal_scipy(x, q):
    _check(x, q)


# Every direct term underflows and the Euler-Maclaurin factor x (x+1) ... overflows:
# scipy's C loop forms inf * 0 = NaN there.
UNDERFLOWED = [(1e300, 2), (1e300, 257), (1e300, 1e8), (2.6e13, 2), (4e13, 257)]


@pytest.mark.parametrize("x, q", UNDERFLOWED)
def test_hurwitz_zeta_is_0_where_scipy_gives_nan(x, q):
    assert math.isnan(zeta(x, q))
    assert _bits(_hurwitz_zeta(x, q)) == _bits(0.0)
    with mpmath.workdps(20):
        assert mpmath.zeta(x, q) < mpmath.mpf(2) ** -1075  # 0 to the nearest float


def test_power_prior_with_a_huge_exponent_answers(capsys):
    # the tail beyond k_max = 256 is zeta(4e13, 257), 0 in floats, and so is every
    # rho_k^2 past k = 1: the risk is component 1's inverted term (eps pi^2)^2
    argv = ["prob-info", "--model", "green", "--epsilon", "1e-3", "--rho", "power:1,2e13",
            "--nu", "constant:1", "--format", "csv"]
    assert main(argv) == 0
    header, row = capsys.readouterr().out.splitlines()
    mse = float(dict(zip(header.split(","), row.split(",")))["mse"])
    assert mse == 9.7409091034002482e-05 == pytest.approx((1e-3 * math.pi ** 2) ** 2)
