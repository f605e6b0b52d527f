import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from szeta.numkit import (AccuracyError, DomainError, MangoldtTable,
                          polylog_H, quad_adaptive, re_digamma_quarter,
                          sieve_mangoldt, sum_tail_bounded)


class TestPolylog:
    def test_h1_closed_form(self):
        # H_1(x) = sum x^k/(k+1) = -log(1-x)/x
        for x in (-0.9, -0.5, 0.3, 0.9):
            assert polylog_H(1, x) == pytest.approx(
                -math.log1p(-x) / x, rel=1e-12)

    def test_h2_special_values(self):
        assert polylog_H(2, 1.0) == pytest.approx(math.pi ** 2 / 6,
                                                  rel=1e-12)
        assert polylog_H(2, -1.0) == pytest.approx(math.pi ** 2 / 12,
                                                   rel=1e-12)

    def test_h0_geometric(self):
        assert polylog_H(0, 0.5) == pytest.approx(2.0, rel=1e-12)

    def test_divergent_argument_rejected(self):
        with pytest.raises(DomainError):
            polylog_H(0, 1.0)
        with pytest.raises(DomainError):
            polylog_H(1, 1.0)

    @given(st.integers(min_value=1, max_value=6),
           st.floats(min_value=-0.99, max_value=0.99))
    @settings(max_examples=30, deadline=None)
    def test_series_identity(self, n, x):
        # direct partial sum agrees with the evaluator
        direct = sum(x ** k / (k + 1) ** n for k in range(200))
        tail = abs(x) ** 200 / (1 - abs(x))
        assert abs(polylog_H(n, x) - direct) <= tail + 1e-10


class TestDigamma:
    def test_against_scipy(self):
        from scipy.special import digamma
        for u in (0.0, 1.0, 10.0, 100.0):
            ref = digamma(0.25 + 0.5j * u).real
            assert re_digamma_quarter(u) == pytest.approx(ref, abs=1e-12)


class TestSieve:
    def test_psi_values(self):
        table = sieve_mangoldt(1000)
        # psi(100) known from direct enumeration
        direct = 0.0
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                  47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
            pk = p
            while pk <= 100:
                direct += math.log(p)
                pk *= p
        assert table.psi(100) == pytest.approx(direct, rel=1e-12)

    def test_lambda_prime_powers(self):
        table = sieve_mangoldt(100)
        assert table.lam(8) == pytest.approx(math.log(2))
        assert table.lam(9) == pytest.approx(math.log(3))
        assert table.lam(12) == 0.0
        with pytest.raises(DomainError):
            table.lam(1)


class TestQuad:
    def test_smooth(self):
        val = quad_adaptive(math.exp, 0.0, 1.0, 1e-12)
        assert val == pytest.approx(math.e - 1.0, abs=1e-12)

    def test_integrable_singularity(self):
        val = quad_adaptive(lambda x: math.log(x), 0.0, 1.0, 1e-10)
        assert val == pytest.approx(-1.0, abs=1e-8)


class TestSumTail:
    def test_geometric(self):
        val = sum_tail_bounded(lambda k: 0.5 ** k,
                              lambda K: 0.5 ** K, 1e-14)
        assert val.value == pytest.approx(2.0, abs=1e-12)

    def test_array_elements_stop_at_their_own_tail(self):
        x = np.array([0.5, 0.1, 0.0])
        res = sum_tail_bounded(lambda k: x ** k,
                               lambda K: x ** K / (1.0 - x), 1e-14)
        for xv, v in zip(x, res.value):
            one = sum_tail_bounded(lambda k: xv ** k,
                                   lambda K: xv ** K / (1.0 - xv), 1e-14)
            assert v == one.value
        assert res.terms_used == 48  # x = 0.5; x = 0.1 stops after 15
        assert res.tail_bound == pytest.approx(0.5 ** 48 / 0.5)
