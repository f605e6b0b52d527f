import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from szeta import explicit_formula as ef
from szeta import selftest
from szeta import zeta_core as zc
from szeta.numkit import (_BERN, _GK_NODES, _GK_WG, _GK_WK, _HZ_DIRECT,
                          AccuracyError, DomainError, digamma, frac_product,
                          gauss_panels, hurwitz_zeta, polylog_H,
                          quad_adaptive, sieve_mangoldt, sum_tail_bounded,
                          trig_sq)


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


    @pytest.mark.parametrize("n", [3, 4, 6])
    @pytest.mark.parametrize("x", [0.45, -0.45, 0.9, -0.93, 0.999, -1.0])
    def test_blocks_keep_the_bits_of_whole_blocks(self, n, x):
        # the growing blocks add up pairwise as np.sum does in one block
        # of 65 536 terms; the sum stops sooner only where every later
        # term is 0
        total, j0 = 0.0, 1
        while True:
            j = np.arange(j0, j0 + 65536, dtype=np.float64)
            total += float(np.sum(np.abs(x) ** j * np.sign(x) ** j
                                  / j ** n))
            j0 += 65536
            tail = 1.0 / ((n - 1) * (j0 - 1) ** (n - 1))
            if abs(x) < 1.0:
                tail = min(tail, abs(x) ** j0 / ((1.0 - abs(x)) * j0 ** n))
            if tail <= 1e-14:
                break
        assert polylog_H(n, x) == total / x


def _lambda_by_trial_division(n: int) -> float:
    """log p if n = p^k, else 0."""
    p = next(d for d in range(2, n + 1) if n % d == 0)
    while n % p == 0:
        n //= p
    return math.log(p) if n == 1 else 0.0


def _dense_prime_powers(X: int):
    """prime_powers as the dense table computed it: Lambda at every
    integer up to X, then its nonzero entries."""
    is_comp = np.zeros(X + 1, dtype=bool)
    is_comp[:2] = True
    for p in range(2, int(math.isqrt(X)) + 1):
        if not is_comp[p]:
            is_comp[p * p::p] = True
    primes = np.nonzero(~is_comp)[0]
    lam = np.zeros(X + 1, dtype=np.float64)
    lam[primes] = np.log(primes.astype(np.float64))
    for p in primes:
        if p * p > X:
            break
        q = int(p) * int(p)
        lp = math.log(p)
        while q <= X:
            lam[q] = lp
            q *= int(p)
    n = np.nonzero(lam)[0]
    logn = np.log(n)
    return logn, logn / (2.0 * math.pi), lam[n] / np.sqrt(n)


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
        assert table.lam[table.n <= 100].sum() == pytest.approx(
            direct, rel=1e-12)

    def test_lambda_prime_powers(self):
        table = sieve_mangoldt(100)
        assert table.limit == 100 and table.n[-1] == 97
        lam = dict(zip(table.n.tolist(), table.lam.tolist()))
        assert lam[8] == pytest.approx(math.log(2))
        assert lam[9] == pytest.approx(math.log(3))
        assert 12 not in lam and 1 not in lam

    def test_against_trial_division(self):
        # every limit up to 600, and limits at and next to prime powers
        ref = {n: _lambda_by_trial_division(n) for n in range(2, 1026)}
        for X in [*range(2, 601), 728, 729, 1023, 1024, 1025]:
            table = sieve_mangoldt(X)
            want = [n for n in range(2, X + 1) if ref[n]]
            assert table.n.dtype == np.int64
            assert table.lam.dtype == np.float64
            assert np.all(np.diff(table.n) > 0)
            assert table.n.tolist() == want
            np.testing.assert_allclose(table.lam, [ref[n] for n in want],
                                       rtol=1e-15, atol=0)

    def test_tables_compare_and_hash_by_identity(self):
        # equal contents, distinct tables: each owns its own caches
        a, b = sieve_mangoldt(100), sieve_mangoldt(100)
        assert a == a and a != b and not (a == b)
        assert hash(a) == hash(a) and len({a, b, a}) == 2

    @pytest.mark.parametrize("X", [12393, 130000, 10 ** 6])
    def test_prime_powers_keep_the_dense_bits(self, X):
        for got, want in zip(sieve_mangoldt(X).prime_powers,
                             _dense_prime_powers(X)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_memory_is_a_few_bytes_per_integer(self):
        # the dense float64 table peaked at 10.7 B per integer
        X = 10 ** 7
        tracemalloc.start()
        try:
            sieve_mangoldt(X).prime_powers
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * X


class TestQuad:
    def test_smooth(self):
        val = quad_adaptive(math.exp, 0.0, 1.0, 1e-12)
        assert val == pytest.approx(math.e - 1.0, abs=1e-12)

    def test_integrable_singularity(self):
        val = quad_adaptive(lambda x: math.log(x), 0.0, 1.0, 1e-10)
        assert val == pytest.approx(-1.0, abs=1e-8)

    def test_rule_pair(self):
        # the 7 Gauss nodes and weights sit inside the 15 Kronrod nodes;
        # K15 is exact through degree 22, G7 through degree 13
        x, w = np.polynomial.legendre.leggauss(7)
        assert np.allclose(_GK_NODES[1::2], x, rtol=0, atol=1e-15)
        assert np.allclose(_GK_WG[1::2], w, rtol=0, atol=1e-15)
        assert not np.any(_GK_WG[0::2])
        for k in range(23):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert _GK_WK @ _GK_NODES ** k == pytest.approx(exact,
                                                            abs=1e-15)
            if k < 14:
                assert _GK_WG @ _GK_NODES ** k == pytest.approx(
                    exact, abs=1e-15)

    @pytest.mark.parametrize("edges", [[0.0, 0.5, 2.0], [2.0, 0.5, 0.0]])
    def test_gauss_panels_either_orientation(self, edges):
        # descending edges (the sigma grid's) give the same positive
        # weights; 4 points per panel are exact through degree 7
        x, w = gauss_panels(edges, 4)
        assert x.shape == w.shape == (8,) and np.all(w > 0)
        assert np.all((x > 0.0) & (x < 2.0))
        for k in range(8):
            assert w @ x ** k == pytest.approx(2.0 ** (k + 1) / (k + 1),
                                               rel=1e-14)
        # the rule is cached per n: writing to a result leaves it alone
        x[:], w[:] = 0.0, 0.0
        x2, w2 = gauss_panels(edges, 4)
        assert np.all(x2 > 0.0) and np.all(w2 > 0.0)

    @pytest.mark.parametrize("a,b", [(0.0, math.inf), (-math.inf, 0.0),
                                     (math.nan, 1.0)])
    def test_infinite_endpoint_rejected(self, a, b):
        with pytest.raises(DomainError):
            quad_adaptive(math.exp, a, b, 1e-10)

    def test_tol_must_be_positive(self):
        for tol in (0.0, -1e-10, math.nan):
            with pytest.raises(DomainError):
                quad_adaptive(math.exp, 0.0, 1.0, tol)

    def test_divergent_integral_raises_with_best(self):
        with pytest.raises(AccuracyError) as exc:
            quad_adaptive(lambda x: 1.0 / x, 0.0, 1.0, 1e-10)
        assert math.isfinite(exc.value.best) and exc.value.best > 10.0

    def test_tol_below_rounding_raises(self):
        # never returns with an estimate above tol: the 50 eps |f| floor
        # of every interval keeps a 1e-20 tolerance out of reach
        with pytest.raises(AccuracyError) as exc:
            quad_adaptive(math.exp, 0.0, 1.0, 1e-20)
        assert exc.value.best == pytest.approx(math.e - 1.0, rel=1e-15)

    def test_nonfinite_integrand_raises(self):
        with pytest.raises(AccuracyError):
            quad_adaptive(lambda x: math.nan, 0.0, 1.0, 1e-10)


def _rhs_a(aid, x, alpha, m, k):
    return ef.appendix_asymptotic(aid, {"x": x, "alpha": alpha, "m": m,
                                        "k": k})


# every caller of quad_adaptive, over the parameters the library, its
# CLI, the selftest and the benchmark use
QUAD_CALL_SITES = {
    "s_n_direct": lambda: [zc.s_n_direct(n, a, t) for n in (1, 2, 3)
                           for a in (0.5, 0.6, 0.75)
                           for t in (50.0, 100.0, 1000.0)],
    "appendix A1-A3": lambda: [_rhs_a(aid, x, a, m, 1)
                               for aid in ("A1", "A2", "A3")
                               for x in (1e5, 1.3e5, 1e6)
                               for a in (0.6, 0.7, 0.8) for m in (0, 1)],
    "selftest check 5": selftest.check_corollary_integral,
}


def _quad_calls(monkeypatch, run) -> list:
    """(f, a, b, tol) of every quad_adaptive call that run() makes."""
    calls = []

    def recording(f, a, b, tol=1e-10):
        calls.append((f, a, b, tol))
        return quad_adaptive(f, a, b, tol)
    for module in (zc, ef, selftest):
        monkeypatch.setattr(module, "quad_adaptive", recording)
    run()
    assert calls
    return calls


@pytest.mark.parametrize("site", QUAD_CALL_SITES)
def test_quad_matches_quadpack_at_call_sites(site, monkeypatch):
    from scipy.integrate import quad
    for f, a, b, tol in _quad_calls(monkeypatch, QUAD_CALL_SITES[site]):
        ref = quad(f, a, b, epsabs=tol, epsrel=0.0, limit=400)[0]
        assert abs(quad_adaptive(f, a, b, tol) - ref) <= tol


@pytest.mark.parametrize("aid,x,alpha,m,k", [("A2", 1e8, 0.6, 2, 2),
                                             ("A2", 1e8, 0.5, 2, 2),
                                             ("A1", 1e6, 0.6, 2, 1),
                                             ("A3", 1e8, 0.5, 1, 2)])
def test_quad_matches_mpmath_where_quadpack_misses(aid, x, alpha, m, k):
    # scipy's quad misses these by 1.5e-9 to 9e-8, 15 to 900 times tol
    # (in the A2 cases while reporting success); a 30-digit mpmath
    # quadrature split at the decades does not
    import mpmath
    p, lx = 2 * m + 2, math.log(x)
    f = {"A1": lambda u: u ** -alpha * mpmath.log(u) ** -p,
         "A2": lambda u: u ** -alpha * (k * lx + mpmath.log(u)) ** -p,
         "A3": lambda u: (u ** (alpha - 1)
                          * ((k + 2) * lx - mpmath.log(u)) ** -p)}[aid]
    with mpmath.workdps(30):
        pts = [2] + [mpmath.mpf(10) ** j
                     for j in range(1, round(math.log10(x)) + 1)]
        ref = float(mpmath.quad(f, pts))
    assert _rhs_a(aid, x, alpha, m, k).direct == pytest.approx(ref,
                                                                abs=1e-10)


class TestHurwitzZeta:
    # q in [1e-8, 1]: log-spaced, q -> 0, and q at and next to 1
    Q = np.concatenate([np.geomspace(1e-8, 1.0, 400),
                        [1e-8, 1e-4, 0.5, 1.0 - 2.0 ** -52, 1.0]])

    @pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
    def test_against_scipy(self, s):
        from scipy.special import zeta
        got = hurwitz_zeta(s, self.Q)
        assert np.all(np.abs(got / zeta(s, self.Q) - 1.0) <= 1e-14)

    @pytest.mark.parametrize("s", [2, 3, 6, 13])
    def test_against_mpmath(self, s):
        import mpmath
        q = self.Q[::20]
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.zeta(s, mpmath.mpf(float(v))))
                            for v in q])
        assert np.all(np.abs(hurwitz_zeta(s, q) / ref - 1.0) <= 1e-15)

    def test_riemann_zeta_values(self):
        assert hurwitz_zeta(2, 1.0) == pytest.approx(math.pi ** 2 / 6,
                                                     rel=1e-16)
        assert hurwitz_zeta(4, 1.0) == pytest.approx(math.pi ** 4 / 90,
                                                     rel=1e-16)
        assert type(hurwitz_zeta(3, 1.0)) is float
        assert hurwitz_zeta(3, np.array([1.0])).shape == (1,)

    def test_remainder_bound(self):
        # Johansson's bound 4 (s)_2M x^(1-s-2M) / ((2 pi)^2M (s+2M-1)),
        # x = q + N >= N, against zeta(s, q) >= 1, over the s it serves
        M = len(_BERN)
        for s in range(2, 60):
            rising = math.prod(s + i for i in range(2 * M))
            bound = (4 * rising * _HZ_DIRECT ** (1 - s - 2 * M)
                     / ((2 * math.pi) ** (2 * M) * (s + 2 * M - 1)))
            assert bound < 1e-17

    @pytest.mark.parametrize("s,q", [(1, 0.5), (2.5, 0.5), (0, 0.5),
                                     (2, 0.0), (2, -0.1), (2, 1.5),
                                     (2, math.nan)])
    def test_domain(self, s, q):
        with pytest.raises(DomainError):
            hurwitz_zeta(s, q)


class TestDigamma:
    # Re z in [-1/4, 1] (0 left out: a pole) and |Im z| from 0 to 5e11:
    # the arguments 1/4 +- u/2 + it/2 of the explicit formula's closed
    # forms, 0 < u <= 1 and |t| up to 1e12
    IM = np.concatenate([[0.0], np.geomspace(1e-3, 5e11, 30)])
    Z = (np.linspace(-0.25, 1.0, 10)[:, None]
         + 1j * np.concatenate([IM, -IM[1:]])).ravel()

    def test_against_mpmath(self):
        import mpmath
        with mpmath.workdps(30):
            ref = np.array([complex(mpmath.digamma(mpmath.mpc(z.real,
                                                              z.imag)))
                            for z in self.Z])
        assert np.all(np.abs(digamma(self.Z) - ref) <= 1e-15 * np.abs(ref))
        # the recurrence serves the points with Re z < sqrt(max(100 -
        # (Im z)^2, 0)) - 1/2, Stirling's series the rest directly
        y = self.Z.imag
        near = self.Z.real < np.sqrt(np.maximum(100.0 - y * y, 0.0)) - 0.5
        assert near.sum() > 100 and (~near).sum() > 100

    def test_special_values(self):
        # psi(1) = -gamma, psi(1/4) = -gamma - pi/2 - 3 log 2
        g = 0.57721566490153286061
        for z, want in ((1.0, -g), (0.25, -g - math.pi / 2 - 3 * math.log(2))):
            assert abs(digamma(z) - want) <= 1e-15 * abs(want)
        assert digamma(np.array([0.5, 2.0 + 1j])).shape == (2,)

    def test_remainder_bound(self):
        # sec^19(ph w/2) |B_18|/(18 |w|^18) (DLMF 5.11(ii)) on the edge of
        # the region where the series starts, Re w = sqrt(max(100 - y^2,
        # 0)) - 1/2: the docstring's 3.6e-15, and 7.7e-18 at w = 9.5
        y = np.linspace(0.0, 1e3, 200_001)
        w = np.sqrt(np.maximum(100.0 - y * y, 0.0)) - 0.5 + 1j * y
        bound = (43867 / 798 / (18 * np.abs(w) ** 18)
                 / np.cos(np.angle(w) / 2) ** 19)
        assert bound.max() < 3.6e-15 and bound[0] < 7.7e-18


class TestPhases:
    @pytest.mark.parametrize("a", [1.0, 1.5, 2.9, 0.1, 1 / 3])
    def test_frac_product_against_exact_rationals(self, a):
        # a x less its nearest integer, from the exact product, within one
        # rounding of a number of size <= 1/2; fl(a x) - round(fl(a x))
        # is off by up to 2.3e-13 at a x near 2^41
        from fractions import Fraction
        x = np.concatenate([zc.bundled_zeros().ordinates,
                            [0.0, 0.5, 1e-300, 2.0 ** 41 + 0.3, 1e15 + 0.7,
                             -2515.3, 2.0 ** 60]])
        got = frac_product(a, x)
        for g, v in zip(got.tolist(), x.tolist()):
            p = Fraction(a) * Fraction(v)
            want = p - round(p)
            assert abs(Fraction(g) - want) <= Fraction(1, 2 ** 54), v
        assert float(frac_product(a, 2514.5)) == float(
            frac_product(a, np.array([2514.5]))[0])

    def test_trig_sq_vanishes_at_the_nodes(self):
        k = np.arange(-10 ** 6, 10 ** 6, 997, dtype=np.float64)
        assert np.all(trig_sq("+", k) == 0.0)
        assert np.all(trig_sq("-", k + 0.5) == 0.0)
        w = np.linspace(-3.0, 3.0, 601)
        assert np.allclose(trig_sq("+", w), np.sin(np.pi * w) ** 2,
                           rtol=0, atol=1e-14)
        assert np.allclose(trig_sq("-", w), np.cos(np.pi * w) ** 2,
                           rtol=0, atol=1e-14)


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
