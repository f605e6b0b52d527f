import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scalar_ft import scalar_ft_m
from szeta.numkit import DomainError
from szeta.poisson_extremal import PoissonExtremalPair

BETAS = st.floats(min_value=0.02, max_value=0.48)
DELTAS = st.floats(min_value=1.0, max_value=5.0)


def test_parameter_validation():
    with pytest.raises(DomainError):
        PoissonExtremalPair(beta=0.5, delta=1.0)
    with pytest.raises(DomainError):
        PoissonExtremalPair(beta=0.25, delta=0.5)
    with pytest.raises(DomainError):
        PoissonExtremalPair(beta=0.25, delta=1.0).m_real("x", 0.0)


@given(BETAS, DELTAS)
@settings(max_examples=40, deadline=None)
def test_bracketing(beta, delta):
    p = PoissonExtremalPair(beta=beta, delta=delta)
    x = np.linspace(-20, 20, 801)
    h = p.target(x)
    assert np.all(p.m_real("+", x) >= h - 1e-11)
    assert np.all(p.m_real("-", x) <= h + 1e-11)


@given(BETAS, DELTAS)
@settings(max_examples=40, deadline=None)
def test_ft_support_and_positivity(beta, delta):
    p = PoissonExtremalPair(beta=beta, delta=delta)
    for sign in "+-":
        assert p.ft_m(sign, delta * 1.0001) == 0.0
        assert p.ft_m(sign, -delta * 2) == 0.0
        for xi in (0.0, 0.3 * delta, 0.9 * delta):
            v = p.ft_m(sign, xi)
            assert v > 0
            assert v == p.ft_m(sign, -xi)


@given(BETAS, DELTAS)
@settings(max_examples=40, deadline=None)
def test_ft_array_matches_scalar_oracle(beta, delta):
    p = PoissonExtremalPair(beta=beta, delta=delta)
    xi = delta * np.array([0.0, 0.3, -0.3, 0.9, 1.0, -1.0001, 2.0, 1e300])
    for sign in "+-":
        got = p.ft(sign, xi)
        want = np.array([scalar_ft_m(p, sign, x) for x in xi])
        assert got.shape == xi.shape
        assert np.all(np.abs(got - want)
                      <= np.maximum(1e-13 * np.abs(want), 1e-15))
        assert np.all(got[5:] == 0.0)
        one = p.ft(sign, 0.3 * delta)
        assert type(one) is float
        assert one == pytest.approx(want[1], rel=1e-13)


@given(BETAS, DELTAS)
@settings(max_examples=40, deadline=None)
def test_l1_gap_ordering(beta, delta):
    p = PoissonExtremalPair(beta=beta, delta=delta)
    gp, gm = p.l1_gap("+"), p.l1_gap("-")
    assert 0 < gm < gp
    # ft at 0 equals integral: majorant above h, minorant below
    pi_h = math.pi  # integral of the target kernel
    assert p.ft_m("+", 0.0) == pytest.approx(pi_h + gp, rel=1e-12)
    assert p.ft_m("-", 0.0) == pytest.approx(pi_h - gm, rel=1e-12)


@given(BETAS, DELTAS)
@settings(max_examples=40, deadline=None)
def test_envelope_const(beta, delta):
    p = PoissonExtremalPair(beta=beta, delta=delta)
    x = np.linspace(-50, 50, 2001)
    for sign in "+-":
        K = p.tail_envelope(sign) / beta
        assert np.all(np.abs(p.m_real(sign, x)) <= K * p.target(x) + 1e-13)


@given(BETAS, DELTAS)
@settings(max_examples=40, deadline=None)
def test_tail_envelope_bounds_decay(beta, delta):
    # the zero-tail bound of gw_evaluate relies on |m(x)| <= K/x^2; the
    # bound is sharp as |x| -> oo, hence the relative rounding slack
    p = PoissonExtremalPair(beta=beta, delta=delta)
    x = np.geomspace(1e-2, 1e6, 3001)
    x = np.concatenate([-x, x])
    for sign in "+-":
        K = p.tail_envelope(sign)
        assert np.all(np.abs(p.m_real(sign, x)) * x ** 2
                      <= K * (1.0 + 1e-12))


@pytest.mark.parametrize("beta", [1e-4, 1e-3, 0.05, 0.25, 0.499])
@pytest.mark.parametrize("delta", [1.0, 2.9])
def test_served_forms_match_mpmath(beta, delta):
    # the one-member mixture's exp/expm1 forms keep their digits as
    # beta delta -> 0, where the former closed forms lost up to 7e-11 (ft
    # near xi = delta) and 3.5e-13 (real and K+) at beta = 1e-4; measured
    # within 6.1e-16 (ft, l1_gap, K) and 4.9e-16 (real), real at the
    # exact delta x
    import mpmath
    p = PoissonExtremalPair(beta=beta, delta=delta)
    x = np.array([0.0, 1e-3, 0.3, 0.5, 1.7, 2.5, 3.999, 4.0, 17.3, -40.1,
                  1234.5, 1e6])
    xi = delta * np.array([0.0, 0.1, 0.5, 0.9, 0.999, 1.0, 1.5])
    with mpmath.workdps(40):
        b, d, pi = mpmath.mpf(beta), mpmath.mpf(delta), mpmath.pi
        for sign in "+-":
            den = (mpmath.sinh if sign == "+" else mpmath.cosh)(pi * b * d)
            q = mpmath.exp(-2 * pi * b * d)
            for got, want in (
                    (p.l1_gap(sign), 2 * pi * q / (1 - q if sign == "+"
                                                  else 1 + q)),
                    (p.tail_envelope(sign),
                     b * (1 + 1 / den ** 2) if sign == "+" else b)):
                assert abs(got - want) <= 1e-15 * want
            for v, got in zip(xi, p.ft(sign, xi)):
                s = d - abs(mpmath.mpf(v))
                want = pi / 2 * mpmath.sinh(2 * pi * b * s) / den ** 2
                assert abs(got - want) <= 1e-15 * want if s > 0 else got == 0
            for v, got in zip(x, p.real(sign, x)):
                h = b / (b * b + mpmath.mpf(v) ** 2)
                c = pi * d * mpmath.mpf(v)
                want = (h * (1 + mpmath.sin(c) ** 2 / den ** 2) if sign == "+"
                        else h * (1 - mpmath.cos(c) ** 2 / den ** 2))
                assert abs(got - want) <= 1e-15 * max(abs(want), h)


# real's points: delta x is a double only at delta = 1, and ulp(delta x)
# is 1 from delta x = 2^52 = 4.5e15; a phase from the rounded product is up
# to 1.0 max(|real|, target) off here (beta = 1e-4, delta = 1.5, '+',
# 3.3e15 + 0.5)
REAL_X = [0.3, 17.3, 1234.5, 98765.4321, 1e6 + 0.3, 1e10 + 0.3, 1e15 + 0.2,
          3.3e15 + 0.5]


@pytest.mark.parametrize("delta", [1.0, 1.3, 1.5, 2.9])
def test_real_at_the_exact_phase(delta):
    # within 1e-15 max(|real|, target) of 60-digit mpmath at the exact
    # delta x, both signs and the negated points (measured 4.3e-16)
    import mpmath
    x = np.array(REAL_X + [-v for v in REAL_X])
    with mpmath.workdps(60):
        d, pi = mpmath.mpf(delta), mpmath.pi
        for beta in (1e-4, 0.05, 0.25, 0.45):
            p = PoissonExtremalPair(beta=beta, delta=delta)
            b = mpmath.mpf(beta)
            for sign in "+-":
                den = (mpmath.sinh if sign == "+" else mpmath.cosh)(
                    pi * b * d) ** 2
                for v, got in zip(x.tolist(), p.real(sign, x).tolist()):
                    X = mpmath.mpf(v)
                    h, c = b / (b * b + X * X), pi * d * X
                    want = (h * (1 + mpmath.sin(c) ** 2 / den) if sign == "+"
                            else h * (1 - mpmath.cos(c) ** 2 / den))
                    assert abs(got - want) <= 1e-15 * max(abs(want), h), (
                        beta, sign, v)


def test_gap_decreases_with_delta():
    for sign in "+-":
        gaps = [PoissonExtremalPair(beta=0.25, delta=d).l1_gap(sign)
                for d in (1.0, 2.0, 4.0)]
        assert gaps[0] > gaps[1] > gaps[2]


@pytest.mark.parametrize("beta,delta", [(0.05, 1.0), (0.3, 3.0), (0.45, 3.0)])
def test_poisson_l1_oracle_within_its_tolerance(beta, delta):
    # selftest's exact node-sum gap against 2 pi q/(1 -+ q), q = e^{-2 pi
    # beta delta}, at 40 digits: within its stated tolerance, which
    # scales with the gap (below 2e-16 at gap 1.3e-3)
    import mpmath
    from szeta.selftest import poisson_l1
    with mpmath.workdps(40):
        q = mpmath.exp(-2 * mpmath.pi * mpmath.mpf(beta) * mpmath.mpf(delta))
        for sign in "+-":
            want = 2 * mpmath.pi * q / (1 - q if sign == "+" else 1 + q)
            gap, tol = poisson_l1(beta, delta, sign)
            assert abs(gap - want) <= tol <= 1e-13 * want + 2e-16, sign
