import cmath
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from scalar_ft import f_integral, scalar_ft_g
from szeta import poisson_extremal
from szeta.numkit import DomainError, ResourceError
from szeta.odd_extremal import (_BYTES_PER_NODE, _FAR_TERMS, _NEAR_NODES,
                                _SERIES_TOL, OddExtremalPair, _fft_len,
                                _sinc2)

SMALL_GRID = [(0, 0.5, 1.0), (0, 0.75, 1.5), (1, 0.6, 1.0),
              (2, 0.9, 2.0)]


def test_parameter_validation():
    with pytest.raises(DomainError):
        OddExtremalPair(m=-1, alpha=0.6, delta=1.0)
    with pytest.raises(DomainError):
        OddExtremalPair(m=0, alpha=1.0, delta=1.0)
    with pytest.raises(DomainError):
        OddExtremalPair(m=0, alpha=0.4, delta=1.0)
    with pytest.raises(DomainError):
        OddExtremalPair(m=0, alpha=0.6, delta=0.9)


def test_m_must_have_an_integer_type():
    # m = 1.0 used to pass and fail later, inside ft_g
    for m in (1.0, 0.5, "1"):
        with pytest.raises(DomainError, match="integer"):
            OddExtremalPair(m=m, alpha=0.75, delta=1.5)
    pair = OddExtremalPair(m=np.int64(1), alpha=0.75, delta=1.5)
    assert pair.ft_g("+", 0.3) == OddExtremalPair(
        m=1, alpha=0.75, delta=1.5).ft_g("+", 0.3)


@pytest.mark.parametrize("m,alpha,delta", SMALL_GRID)
def test_target_positive_even(m, alpha, delta):
    pair = OddExtremalPair(m=m, alpha=alpha, delta=delta)
    x = np.linspace(0.01, 10, 200)
    f = pair.f_odd_vec(x)
    assert np.all(f > 0)
    assert np.allclose(pair.f_odd_vec(-x), f, rtol=1e-12)
    fe = pair.f_even_vec(x)
    assert np.allclose(pair.f_even_vec(-x), -fe, rtol=1e-12)


@pytest.mark.parametrize("m,alpha,delta", SMALL_GRID)
def test_bracketing(m, alpha, delta):
    pair = OddExtremalPair(m=m, alpha=alpha, delta=delta)
    x = np.linspace(-15, 15, 1201)
    f = pair.f_odd_vec(x)
    assert np.all(pair.g_real("+", x) >= f - 1e-9)
    assert np.all(pair.g_real("-", x) <= f + 1e-9)


@pytest.mark.parametrize("m,alpha,delta", SMALL_GRID)
def test_interpolation_nodes(m, alpha, delta):
    pair = OddExtremalPair(m=m, alpha=alpha, delta=delta)
    k = np.arange(1, 10, dtype=np.float64)
    plus = k / delta
    minus = (k - 0.5) / delta
    assert np.max(np.abs(pair.g_real("+", plus)
                         - pair.f_odd_vec(plus))) < 1e-9
    assert np.max(np.abs(pair.g_real("-", minus)
                         - pair.f_odd_vec(minus))) < 1e-9


@given(st.sampled_from(SMALL_GRID),
       st.floats(min_value=-10, max_value=10),
       st.floats(min_value=-1.5, max_value=1.5))
@settings(max_examples=10, deadline=None, derandomize=True)
def test_conjugate_symmetry(cfg, re, im):
    m, alpha, delta = cfg
    pair = OddExtremalPair(m=m, alpha=alpha, delta=delta)
    for sign in "+-":
        v = pair.g_eval(sign, complex(re, im))
        w = pair.g_eval(sign, complex(re, -im))
        assert cmath.isclose(w, v.conjugate(), rel_tol=1e-8,
                             abs_tol=1e-10)


@pytest.mark.parametrize("m,alpha,delta", SMALL_GRID)
def test_ft_support_and_value_at_zero(m, alpha, delta):
    pair = OddExtremalPair(m=m, alpha=alpha, delta=delta)
    f_int = f_integral(pair)
    for sign, s in (("+", 1.0), ("-", -1.0)):
        assert pair.ft_g(sign, delta * 1.01) == 0.0
        v0 = pair.ft_g(sign, 0.0)
        gap = pair.l1_gap_odd(sign)
        assert v0 == pytest.approx(f_int + s * gap, rel=1e-9)
        # even in xi
        assert pair.ft_g(sign, 0.4 * delta) == pytest.approx(
            pair.ft_g(sign, -0.4 * delta), rel=1e-12)


# xi/delta: 0, negative, in band, at and past delta.  At alpha = 1/2 the
# series' lattice sums cancel as xi -> delta, so there the oracle keeps
# only a few digits at 0.999 delta (0.004 at m = 2, delta = 1.5): that
# point is left to test_ft_matches_mpmath.
FT_XI = np.array([0.0, 0.25, -0.3, 0.5, -0.64, 0.8, 0.999, 1.0, -1.0,
                  1.2, -3.0])


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("alpha", [0.5, 0.6, 0.75, 0.9])
@pytest.mark.parametrize("delta", [1.0, 1.5, 2.0])
def test_ft_array_matches_scalar_oracle(m, alpha, delta):
    # the sigma-sum against an independent route, the shifted-frequency
    # series of the transform
    pair = OddExtremalPair(m=m, alpha=alpha, delta=delta)
    xi = FT_XI * delta
    kept = ~((alpha == 0.5) & (np.abs(FT_XI) == 0.999))
    for sign in "+-":
        got = pair.ft_g(sign, xi)
        want = np.array([scalar_ft_g(pair, sign, x) for x in xi])
        assert got.shape == xi.shape
        assert np.all(np.abs(got - want)[kept] <= pair.ft_error)
        assert np.all(got[np.abs(FT_XI) >= 1.0] == 0.0)
        one = pair.ft_g(sign, float(xi[2]))
        assert type(one) is float and one == got[2]


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("alpha", [0.55, 0.75, 0.9])
@pytest.mark.parametrize("delta", [1.0, 1.5, 2.9])
def test_ft_table_within_ft_error_of_series(m, alpha, delta):
    # ft (the sigma-sum) against the shifted-frequency series on random
    # frequencies and the band's ends; alpha near 1/2 is left to
    # test_ft_matches_mpmath, since there each series sums some 10^4 terms.
    # At 1e-9 delta the series' B(u)/u cancels (3e-9 off at m = 0,
    # alpha = .55, delta = 1), so that point is checked against mpmath.
    pair = OddExtremalPair(m=m, alpha=alpha, delta=delta)
    rng = np.random.default_rng(round(1000 * (m + alpha + delta)))
    xi = np.r_[rng.uniform(-delta, delta, 60), (1 - 1e-9) * delta, 0.0,
               delta]
    sign = "+-"[round(10 * (m + alpha + delta)) % 2]
    got = pair.ft(sign, xi)
    want = np.array([scalar_ft_g(pair, sign, x) for x in xi])
    assert np.all(np.abs(got - want) <= pair.ft_error)
    assert got[-1] == 0.0 and np.array_equal(pair.ft(sign, -xi), got)
    assert type(pair.ft(sign, float(xi[0]))) is float
    near = pair.ft(sign, 1e-9 * delta)
    assert abs(near - mpmath_ft(m, alpha, delta, sign, 1e-9 * delta)) \
        <= 1e-14


def mpmath_ft(m, alpha, delta, sign, xi):
    """(pi/2) int rho(u) sinh(2 pi u (delta - |xi|)) / {sinh^2, cosh^2}(pi u
    delta) du over [alpha - 1/2, 1], rho(u) = (u - a0)^{2m+1}/(2m+1), by
    mpmath's tanh-sinh quadrature at 30 digits on dyadic panels toward 0."""
    import mpmath
    with mpmath.workdps(30):
        a0 = mpmath.mpf(alpha) - mpmath.mpf(1) / 2
        s = mpmath.mpf(delta) - abs(mpmath.mpf(xi))
        if s <= 0:
            return 0.0
        den = mpmath.sinh if sign == "+" else mpmath.cosh

        def f(u):
            return ((u - a0) ** (2 * m + 1) / (2 * m + 1)
                    * mpmath.sinh(2 * mpmath.pi * u * s)
                    / den(mpmath.pi * u * delta) ** 2)
        edges = [a0] + [mpmath.mpf(2) ** -k for k in range(12, -1, -1)
                        if mpmath.mpf(2) ** -k > a0]
        return float(mpmath.pi / 2 * mpmath.quad(f, edges))


MP_DELTAS = (1.0, 1.5, 2.9)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("alpha", [0.5, 0.5001, 0.55, 0.75, 0.9])
def test_ft_matches_mpmath(m, alpha):
    # delta cycles over MP_DELTAS along the (m, alpha) cases; measured
    # within 1.6e-15
    alphas = [0.5, 0.5001, 0.55, 0.75, 0.9]
    delta = MP_DELTAS[(5 * m + alphas.index(alpha)) % 3]
    pair = OddExtremalPair(m=m, alpha=alpha, delta=delta)
    xi = delta * np.array([0.0, 1e-8, 0.37, 0.999])
    for sign in "+-":
        got = pair.ft(sign, xi)
        want = [mpmath_ft(m, alpha, delta, sign, x) for x in xi]
        assert np.all(np.abs(got - want) <= 1e-14), sign


@pytest.mark.parametrize("m,alpha,delta", [
    (0, 0.5, 1.0), (1, 0.5, 1.5), (0, 0.75, 1.5), (2, 0.9, 2.9)])
def test_ft_slope_at_zero(m, alpha, delta):
    # the transform is continuous at 0 with a finite one-sided slope
    # (about -7 at m = 0, alpha = 1/2, delta = 1): the difference
    # quotients at 1e-6 delta and 1e-8 delta agree
    pair = OddExtremalPair(m=m, alpha=alpha, delta=delta)
    for sign in "+-":
        v0 = pair.ft(sign, 0.0)
        q6, q8 = ((pair.ft(sign, h * delta) - v0) / (h * delta)
                  for h in (1e-6, 1e-8))
        assert q6 < 0.0
        assert abs(q8 / q6 - 1.0) <= 1e-3, (sign, q6, q8)


@pytest.mark.parametrize("m,alpha,delta", [(0, 0.75, 1.5), (1, 0.5, 2.0),
                                           (2, 0.9, 1.0)])
def test_ft_in_band_array_matches_mixed_array(m, alpha, delta):
    # an array inside (0, delta) has the values of the same points among
    # 0, negative, out-of-band and NaN frequencies
    pair = OddExtremalPair(m=m, alpha=alpha, delta=delta)
    xi = delta * np.r_[np.random.default_rng(7).uniform(0.0, 1.0, 40),
                       1e-6, 0.999]
    mixed = np.r_[0.0, -xi[:5], delta, 1.5 * delta, np.nan, xi]
    for sign in "+-":
        ft = pair.ft
        assert np.array_equal(ft(sign, xi), ft(sign, mixed)[-len(xi):])
        assert np.array_equal(ft(sign, -xi[:5]), ft(sign, xi[:5]))


def test_empty_arrays_give_empty_arrays():
    pair = OddExtremalPair(m=0, alpha=0.75, delta=1.5)
    for sign in "+-":
        for f in (pair.ft, pair.ft_g, pair.g_real):
            out = f(sign, np.array([]))
            assert isinstance(out, np.ndarray) and out.shape == (0,)


def test_g_real_memory_is_a_few_arrays_of_points():
    # Horner's rule and the near field work in place: six arrays of the
    # points' length, the output included, and no (17 x points) gather
    pair = OddExtremalPair(m=0, alpha=0.75, delta=1.5)
    x = np.random.default_rng(5).uniform(-100.0, 100.0, 1_000_000)
    x[:10] = 0.0  # the guarded sinc's points
    for sign in "+-":
        pair.g_real(sign, np.array([100.0]))  # nodes: not measured
        tracemalloc.start()
        try:
            out = pair.g_real(sign, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * out.nbytes


def test_ft_memory_is_linear_in_points():
    pair = OddExtremalPair(m=0, alpha=0.75, delta=1.5)
    pair.ft("+", 0.5)  # the sigma grid is not measured
    xi = np.random.default_rng(5).uniform(-1.6, 1.6, 1_000_000)
    tracemalloc.start()
    try:
        out = pair.ft("+", xi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * out.nbytes


@pytest.mark.parametrize("m,alpha,delta", SMALL_GRID)
def test_l1_gap_positive_and_ordered(m, alpha, delta):
    pair = OddExtremalPair(m=m, alpha=alpha, delta=delta)
    gp = pair.l1_gap_odd("+")
    gm = pair.l1_gap_odd("-")
    assert gp > 0 and gm > 0
    assert gm < gp


def test_gap_decreases_with_delta():
    for sign in "+-":
        gaps = [OddExtremalPair(m=0, alpha=0.75, delta=d)
                .l1_gap_odd(sign) for d in (1.0, 2.0, 3.0)]
        assert gaps[0] > gaps[1] > gaps[2]


@pytest.mark.parametrize("m,alpha,delta", SMALL_GRID)
def test_decay_envelope(m, alpha, delta):
    # the interpolation series, an independent construction of the pair,
    # within its own tolerance of the envelope K/x^2
    pair = OddExtremalPair(m=m, alpha=alpha, delta=delta)
    x = np.linspace(0.0, 80.0, 1601)[1:]
    for sign in "+-":
        K = pair.decay_envelope_const(sign)
        g = pair.g_real(sign, x)
        assert np.all(np.abs(g) <= K / (x * x) + _SERIES_TOL)


@pytest.mark.parametrize("m,alpha,delta",
                         SMALL_GRID + [(0, 0.5, 2.9), (2, 0.5, 1.5)])
def test_tail_envelope_is_proved_and_sharp(m, alpha, delta):
    # |g| x^2 <= K on [1e-3, 1e6], and the bound is attained as x grows
    # at the points (k + 1/2)/delta: there trig = 1 for '+', so x^2 g+
    # tends to int rho u (1 + 1/sinh^2) = K+, and g- = f (its nodes), so
    # x^2 g- tends to int rho u = K-
    pair = OddExtremalPair(m=m, alpha=alpha, delta=delta)
    sharp = (np.round(np.array([1e4, 1e5, 1e6]) * delta) + 0.5) / delta
    x = np.r_[np.geomspace(1e-3, 1e6, 20_001), sharp]
    for sign in "+-":
        K = pair.tail_envelope(sign)
        ratio = np.abs(pair.real(sign, x)) * x * x / K
        assert np.all(ratio <= 1.0 + 1e-12), (sign, ratio.max())
        assert np.all(ratio[-3:] >= 1.0 - 1e-6), (sign, ratio[-3:])


def _l1_gap_log_form(pair, sign):
    """The L1 gap as the sigma-integral of the log form, (1/delta) int
    (sigma - alpha)^{2m} log((1 -/+ e^{-2 pi delta})/(1 -/+ e^{-2 pi u
    delta})) dsigma, on the pair's sigma grid."""
    u, w = pair._sigma_grid
    d = pair.delta
    if sign == "+":
        logs = np.log(-np.expm1(-2 * math.pi * d * u)) - math.log1p(
            -math.exp(-2 * math.pi * d))
        return -float(np.dot(w, logs)) / d
    logs = np.log1p(np.exp(-2 * math.pi * d * u)) - math.log1p(
        math.exp(-2 * math.pi * d))
    return float(np.dot(w, logs)) / d


@pytest.mark.parametrize("m,alpha,delta", SMALL_GRID + [
    (0, 0.5, 2.9), (2, 0.5, 1.5), (2, 0.9, 2.9), (1, 0.5001, 1.0)])
def test_l1_gap_matches_log_form(m, alpha, delta):
    # the mixture of the Poisson gaps against the log form, which
    # cancels at large m, alpha and delta (5.2e-12 at m = 2, alpha =
    # 0.9, delta = 2.9, '+')
    pair = OddExtremalPair(m=m, alpha=alpha, delta=delta)
    for sign in "+-":
        assert pair.l1_gap_odd(sign) == pytest.approx(
            _l1_gap_log_form(pair, sign), rel=1e-11, abs=0.0)


def mp_log_form(m, alpha, x):
    """f and f' at each x by mpmath's tanh-sinh quadrature of the log-form
    sigma-integrals at 30 digits: f = (1/2) int (sigma - alpha)^{2m}
    log((1 + x^2)/((sigma - 1/2)^2 + x^2)) and f' = int (sigma -
    alpha)^{2m} (x/(1 + x^2) - x/((sigma - 1/2)^2 + x^2)) over [alpha,
    3/2]; no sigma grid."""
    import mpmath
    with mpmath.workdps(30):
        a, h = mpmath.mpf(alpha), mpmath.mpf(1) / 2
        F, Fp = [], []
        for v in x:
            X = mpmath.mpf(float(v))
            F.append(float(mpmath.quad(
                lambda s: (s - a) ** (2 * m) * mpmath.log(
                    (1 + X * X) / ((s - h) ** 2 + X * X)), [a, 1.5]) / 2))
            Fp.append(float(mpmath.quad(
                lambda s: (s - a) ** (2 * m) * (X / (1 + X * X) - X / (
                    (s - h) ** 2 + X * X)), [a, 1.5])))
    return np.array(F), np.array(Fp)


@pytest.mark.parametrize("m,alpha,delta", [(0, 0.5, 2.9), (3, 0.5001, 2.9),
                                           (1, 0.75, 1.0)])
def test_interpolation_formula_from_mpmath_nodes(m, alpha, delta):
    # selftest's oracle from node values that share no sigma grid with the
    # served sums: ft within 1e-13 and l1_gap within 1e-14 (measured 1.8e-15
    # and 2.0e-16); the oracle's stated tolerance (at most 6.0e-15 here)
    # within check 2's 1e-12
    from fractions import Fraction
    from szeta.selftest import interpolation_ft, odd_moment
    pair = OddExtremalPair(m=m, alpha=alpha, delta=delta)
    mu = functools.partial(odd_moment, pair)
    taus = (Fraction(0), Fraction(3, 10), Fraction(7, 10))
    for sign in "+-":
        got = interpolation_ft(lambda x: mp_log_form(m, alpha, x), mu,
                               delta, sign, taus)
        assert all(tol <= 1e-12 for _, tol in got), sign
        xi = delta * np.array([float(t) for t in taus])
        served = pair.ft(sign, xi)
        for (v, _), ft in zip(got, served):
            assert abs(v - ft) <= 1e-13, (sign, v, ft)
        gap = got[0][0] - math.pi * mu(0)
        assert abs((gap if sign == "+" else -gap)
                   - pair.l1_gap(sign)) <= 1e-14, sign


@pytest.mark.parametrize("m,alpha,delta", [(0, 0.5, 1.0), (1, 0.5, 2.0)])
def test_oracle_node_values_from_mpmath(m, alpha, delta):
    # f_odd_vec and f_even_vec at every node of the interpolation oracle
    # against 30-digit quadrature, at check 2's two worst pairs (8.5 and
    # 6.8 eps): within the 13 eps that the oracle's 16 eps per unit of
    # node size leaves after the phases and products
    from szeta.selftest import _oracle_size
    pair = OddExtremalPair(m=m, alpha=alpha, delta=delta)
    y = np.arange(2 * _oracle_size(delta)[0] + 2) / 2.0
    F, Fp = mp_log_form(m, alpha, y / delta)
    eps = np.finfo(float).eps
    assert np.all(np.abs(pair.f_odd_vec(y / delta) - F) <= 13 * eps * F)
    assert np.all(np.abs(-pair.f_even_vec(y / delta) - Fp)
                  <= 13 * eps * np.abs(Fp))


@pytest.mark.parametrize("m,alpha", [(0, 0.5), (3, 0.5001), (2, 0.9)])
def test_odd_moment_matches_mpmath(m, alpha):
    # the binomial sum against int rho(u) u^p du in 30-digit mpmath
    import mpmath
    from szeta.selftest import odd_moment
    pair = OddExtremalPair(m=m, alpha=alpha, delta=1.0)
    n = 2 * m + 1
    with mpmath.workdps(30):
        a0 = mpmath.mpf(alpha) - mpmath.mpf(1) / 2
        for p in range(18):
            want = mpmath.quad(lambda u: (u - a0) ** n / n * u ** p, [a0, 1])
            assert odd_moment(pair, p) == pytest.approx(float(want),
                                                        rel=1e-14, abs=0.0)


def dense_g_real(pair, sign, x, N=None):
    """Interpolation series summed directly over every node of the slice
    |k| <= N, by default the one g_real uses: a (points x nodes) matrix,
    with the guarded sinc at a node within 1e-4.  Oracle for the
    near/far-field evaluator."""
    w = pair.delta * np.atleast_1d(np.asarray(x, dtype=np.float64))
    if N is None:
        N = pair._budget(sign, float(np.max(np.abs(w))))
    nu, F, Fp = pair._nodes(sign, N)
    near = np.round(w) if sign == "+" else np.floor(w) + 0.5
    S2 = (np.sin(math.pi * (w - near)) / math.pi) ** 2
    dw = w[:, None] - nu[None, :]
    tiny = np.abs(dw) < 1e-4
    dws = np.where(tiny, 1.0, dw)
    terms = (F / dws ** 2 + Fp / dws) * S2[:, None]
    terms[tiny] = (F + Fp * dw)[tiny] * _sinc2(dw[tiny])
    return terms.sum(axis=1)


@given(m=st.sampled_from([0, 1, 2]),
       alpha=st.floats(min_value=0.5, max_value=1.0, exclude_max=True),
       delta=st.floats(min_value=1.0, max_value=3.0),
       sign=st.sampled_from("+-"),
       node=st.integers(min_value=-4000, max_value=4000),
       offsets=st.lists(st.floats(min_value=-1e-4, max_value=1e-4),
                        min_size=1, max_size=4),
       spread=st.lists(st.floats(min_value=-4000.0, max_value=4000.0),
                       min_size=1, max_size=8))
# every example builds up to 2*10^4 nodes, so a failure is reported as
# found rather than shrunk
@settings(max_examples=12, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
def test_g_real_matches_dense_sum(m, alpha, delta, sign, node, offsets,
                                  spread):
    pair = OddExtremalPair(m=m, alpha=alpha, delta=delta)
    nu = node + (0.5 if sign == "-" else 0.0)
    w = np.concatenate([[nu, nu + 1.0, 0.0, 0.5], nu + np.asarray(offsets),
                        spread, np.linspace(-3.0, 3.0, 25)])
    x = w / delta
    g = pair.g_real(sign, x)
    assert np.max(np.abs(g - dense_g_real(pair, sign, x))) <= 1e-13


@pytest.mark.parametrize("m,alpha,delta", [(0, 0.75, 1.5), (1, 0.5, 1.0),
                                           (3, 0.9, 2.0)])
def test_far_field_matches_direct_correlation(m, alpha, delta):
    # the kept columns are the nodes |k| <= N//2; a too-short FFT aliases
    # them, which shows first at the slice's ends
    pair = OddExtremalPair(m=m, alpha=alpha, delta=delta)
    K = _NEAR_NODES
    N0 = pair._budget("+", 0.0)  # the smallest budget
    for sign in "+-":
        for N in (N0, 64, 81, 1152, 4374):
            _, F, Fp = pair._nodes(sign, N)
            c = pair._far_field(sign, N)
            M = N // 2
            assert c.shape == (_FAR_TERMS, 2 * M + 1)
            for col in (0, M, 2 * M):
                i = N - M + col  # slice index of the column's node
                j = np.arange(-i, 2 * N + 1 - i)
                j = j[np.abs(j) > K]
                Fj, Fpj, jf = F[i + j], Fp[i + j], j.astype(np.float64)
                want = [np.sum((p + 1) * Fj / jf ** (p + 2)
                               - Fpj / jf ** (p + 1))
                        for p in range(_FAR_TERMS)]
                scale = np.max(np.abs(F)) + np.max(np.abs(Fp))
                assert np.allclose(c[:, col], want, rtol=0.0,
                                   atol=1e-15 * scale), (sign, N, col)


def _largest_window(pair, sign, R):
    """The largest |delta*x| whose budget is that of R, by bisection."""
    N = pair._budget(sign, R)
    lo, hi = R, float(N)
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if pair._budget(sign, mid) == N else (lo, mid)
    return lo, N


# at delta = 16 the budget is N >= 2R + 20 itself: the window's edge lies
# 10 nodes inside the columns |k| <= N//2 of _far_field
@pytest.mark.parametrize("m,alpha,delta,windows", [
    (0, 0.75, 1.5, (0.0, 5.0, 130.0, 2700.0)),
    (1, 0.5, 1.0, (0.0, 5.0, 130.0, 2700.0)), (0, 0.75, 16.0, (2e4,))])
def test_g_real_at_the_largest_window_of_its_budget(m, alpha, delta,
                                                    windows):
    # the window's outermost nearest nodes must lie in _far_field's
    # columns and their near fields in the node slice
    pair = OddExtremalPair(m=m, alpha=alpha, delta=delta)
    for sign in "+-":
        for R in windows:
            Rmax, N = _largest_window(pair, sign, R)
            x = Rmax / delta
            while delta * x > Rmax:
                x = np.nextafter(x, 0.0)
            edge = delta * x
            near = round(edge) if sign == "+" else math.floor(edge) + 0.5
            w = np.r_[edge, near, near - 1.0, near - 0.5, near - 1e-6,
                      np.linspace(-edge, edge, 7)]
            w = np.r_[w, -w]
            w = w[np.abs(w) <= edge]
            xs = w / delta
            assert pair._budget(sign, float(np.max(np.abs(delta * xs)))) == N
            g = pair.g_real(sign, xs)
            assert np.max(np.abs(g - dense_g_real(pair, sign, xs))) <= 1e-13


def test_node_and_far_field_memory_within_bytes_per_node():
    pair = OddExtremalPair(m=0, alpha=0.75, delta=1.5)
    pair.f_odd_vec(0.0)  # the sigma grid is not node data
    for N in (1 << 15, 3 ** 10):
        for sign in "+-":
            tracemalloc.start()
            try:
                pair._nodes(sign, N)
                pair._far_field(sign, N)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < _BYTES_PER_NODE * (2 * N + 1)
        pair._cache.clear()


@pytest.mark.parametrize("m,alpha,delta", SMALL_GRID)
def test_g_real_independent_of_call_history(m, alpha, delta):
    x = np.linspace(-30.0, 30.0, 601)
    for sign in "+-":
        fresh = OddExtremalPair(m=m, alpha=alpha, delta=delta)
        used = OddExtremalPair(m=m, alpha=alpha, delta=delta)
        used.g_real(sign, np.array([-2000.0, 2000.0]) / delta)
        assert np.array_equal(fresh.g_real(sign, x), used.g_real(sign, x))


def test_g_real_independent_of_call_history_at_alpha_half():
    # the first call's budget search starts from the nodes |k| <= 1152,
    # and node k = 1152 was then the lone column of its sigma-sum block:
    # other bits than in a fresh build
    x = np.linspace(-2600.0, 2600.0, 4001)
    fresh = OddExtremalPair(m=0, alpha=0.5, delta=1.0)
    used = OddExtremalPair(m=0, alpha=0.5, delta=1.0)
    used.g_real("+", x[:10] / 50)
    used.g_real("+", x / 3)
    assert np.array_equal(fresh.g_real("+", x), used.g_real("+", x))


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("alpha", [0.5, 0.6, 0.75])
def test_sigma_sums_do_not_depend_on_the_batch(m, alpha):
    pair = OddExtremalPair(m=m, alpha=alpha, delta=1.0)
    # the last six points straddle |x| = 4, where real and target hand
    # the sigma-sum over to the moment series
    edge = np.array([np.nextafter(4.0, 0.0), 4.0, np.nextafter(4.0, 5.0)])
    x = np.r_[np.linspace(-50.0, 50.0, 20003), edge, -edge]
    xi = np.linspace(0.0, 0.999, 20003)
    idx = [1, 4321, 10001, 15000, 20002]
    ix = idx + list(range(20003, 20009))
    for f, pts, at in ((pair.f_odd_vec, x, ix), (pair.f_even_vec, x, ix),
                       (pair.target, x, ix),
                       (lambda x: pair.real("+", x), x, ix),
                       (lambda x: pair.real("-", x), x, ix),
                       (lambda xi: pair.ft_g("+", xi), xi, idx),
                       (lambda xi: pair.ft_g("-", xi), xi, idx)):
        batch = f(pts)
        assert [f(pts[i:i + 1])[0] for i in at] == list(batch[at])


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("alpha", [0.5, 0.6, 0.75])
def test_sigma_sums_do_not_depend_on_the_block_size(m, alpha, monkeypatch):
    rng = np.random.default_rng(round(10 * (m + alpha)))
    x = rng.uniform(-50.0, 50.0, 5001)
    xi = rng.uniform(-1.2, 1.2, 5001)

    def values():
        pair = OddExtremalPair(m=m, alpha=alpha, delta=1.0)
        return [pair.f_odd_vec(x), pair.f_even_vec(x), pair.ft_g("+", xi),
                pair.ft_g("-", xi), pair.target(x), pair.real("+", x),
                pair.real("-", x)]

    want = values()
    for block in (250_000, 1):
        monkeypatch.setattr(poisson_extremal, "_SIGMA_BLOCK", block)
        for got, ref in zip(values(), want):
            assert np.array_equal(got, ref)


@pytest.mark.parametrize("m,alpha,delta", SMALL_GRID)
def test_real_at_a_node_is_the_target_bit_for_bit(m, alpha, delta):
    pair = OddExtremalPair(m=m, alpha=alpha, delta=delta)
    for sign in "+-":
        for k in [1, 2, 5, 17, 40]:
            x = (k + (0.0 if sign == "+" else 0.5)) / delta
            assert pair.real(sign, x)[0] == pair.target(x)[0]


@functools.lru_cache(maxsize=None)
def mpmath_mixture(m, alpha, delta, x, weight):
    """int rho(u) h_u(x) k(u) du over [alpha - 1/2, 1], rho(u) = (u -
    a0)^{2m+1}/(2m+1), h_u(x) = u/(u^2 + x^2) and k = 1 (weight None), 1/
    sinh^2 ('+') or 1/cosh^2 ('-') of pi u delta, by mpmath's
    Gauss-Legendre quadrature at 30 digits on dyadic panels toward 0,
    down to |x|/16."""
    import mpmath
    with mpmath.workdps(30):
        a0 = mpmath.mpf(alpha) - mpmath.mpf(1) / 2
        x = mpmath.mpf(x)
        if weight is None:
            def k(u):
                return 1
        else:
            den = mpmath.sinh if weight == "+" else mpmath.cosh

            def k(u):
                return 1 / den(mpmath.pi * u * delta) ** 2
        low = (4 if x == 0 or abs(x) >= 1
               else 4 - math.floor(math.log2(abs(x))))
        edges = [a0] + [mpmath.mpf(2) ** -j for j in range(low, -1, -1)
                        if mpmath.mpf(2) ** -j > a0]
        return mpmath.quad(lambda u: ((u - a0) ** (2 * m + 1) / (2 * m + 1)
                                      * u / (u * u + x * x) * k(u)),
                           edges, method="gauss-legendre")


def mpmath_real(m, alpha, delta, sign, x):
    """g+- = f +- trig A+- (module docstring of odd_extremal) from
    mpmath_mixture, with trig = sin^2 ('+') or cos^2 ('-') of pi delta x;
    f alone where trig is 0 (A+ diverges at x = 0 for m = 0, alpha =
    1/2)."""
    import mpmath
    f = mpmath_mixture(m, alpha, None, x, None)
    if sign is None:
        return float(f)
    with mpmath.workdps(30):
        trig = (mpmath.sin if sign == "+" else mpmath.cos)(
            mpmath.pi * mpmath.mpf(delta) * mpmath.mpf(x)) ** 2
        if trig == 0:
            return float(f)
        a = trig * mpmath_mixture(m, alpha, delta, x, sign)
        return float(f + a if sign == "+" else f - a)


MIXTURE_X = np.array([0.0, 1e-7, 1e-3, 3.999, 4.0, 4.001, 60.0, -2345.6,
                      1e6])


@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("alpha", [0.5, 0.5001, 0.55, 0.75, 0.9])
def test_real_and_target_match_mpmath(m, alpha):
    # both sides of the |x| = 4 switch between sigma-sum and moment
    # series, and the node x = 0; measured within 6.7e-16
    for delta in MP_DELTAS:
        pair = OddExtremalPair(m=m, alpha=alpha, delta=delta)
        for sign in (None, "+", "-"):
            got = (pair.target(MIXTURE_X) if sign is None
                   else pair.real(sign, MIXTURE_X))
            want = [mpmath_real(m, alpha, delta, sign, float(x))
                    for x in MIXTURE_X]
            assert np.all(np.abs(got - want) <= 1e-13), (delta, sign)


@pytest.mark.parametrize("m,alpha", [(0, 0.5), (1, 0.75), (2, 0.9)])
def test_real_at_the_exact_phase(m, alpha):
    # f +- A trig with trig from 60-digit mpmath at the exact delta x,
    # within 4 ulp of max(|real|, f), also where delta x has no double
    # (ulp(delta x) is 1 from 4.5e15)
    import mpmath
    eps = np.finfo(float).eps
    x = np.array([0.3, 17.3, 1234.5, 98765.4321, 1e6 + 0.3, 1e10 + 0.3,
                  -1e15 - 0.2, 3.3e15 + 0.5])
    with mpmath.workdps(60):
        for delta in (1.0, 1.3, 1.5, 2.9):
            pair = OddExtremalPair(m=m, alpha=alpha, delta=delta)
            for sign in "+-":
                f, a = pair.real_parts(sign, x)
                trig = mpmath.sin if sign == "+" else mpmath.cos
                want = np.array([float(trig(mpmath.pi * mpmath.mpf(delta)
                                            * mpmath.mpf(v)) ** 2)
                                 for v in x.tolist()])
                want = f + a * want if sign == "+" else f - a * want
                got = pair.real(sign, x)
                assert np.all(np.abs(got - want)
                              <= 4 * eps * np.maximum(np.abs(got), f)), (
                    delta, sign)


@pytest.mark.parametrize("m,alpha,delta", SMALL_GRID + [(3, 0.5001, 2.9)])
def test_real_within_series_tol_of_g_real(m, alpha, delta, zeros):
    # the interpolation series as the oracle, on [-60, 60] and on the
    # zero side's window 150 -+ gamma at t = 150; measured within 4.0e-13
    pair = OddExtremalPair(m=m, alpha=alpha, delta=delta)
    gam = zeros.ordinates
    for x in (np.linspace(-60.0, 60.0, 2401),
              np.concatenate([150.0 - gam, 150.0 + gam])):
        for sign in "+-":
            assert np.max(np.abs(pair.real(sign, x) - pair.g_real(sign, x))) \
                <= _SERIES_TOL, sign


def _is_3_smooth(n):
    while n % 2 == 0:
        n //= 2
    while n % 3 == 0:
        n //= 3
    return n == 1


def test_fft_len_is_smallest_3_smooth():
    smooth = [n for n in range(1, 5000) if _is_3_smooth(n)]
    for n in range(1, 4000):
        assert _fft_len(n) == min(s for s in smooth if s >= n)


@pytest.mark.parametrize("delta", [1.0, 1.5, 3.0])
def test_budget_on_3_smooth_grid_meets_tail_test(delta):
    pair = OddExtremalPair(m=0, alpha=0.75, delta=delta)
    d = delta
    for sign in "+-":
        for R in (0.0, 0.4, 3.0, 17.5, 150.0, 2515.6, 3812.0, 4004.0,
                  1.2e4, 1e5):
            N = pair._budget(sign, R)
            assert _is_3_smooth(N) and N > 2 * R
            # the tail test of _budget, recomputed on the slice
            nu, F, Fp = pair._nodes(sign, N)
            CF = np.max(np.abs(F) * (d * d + nu * nu) / (d * d))
            CFp = np.max(np.abs(Fp) * (d ** 3 + np.abs(nu) ** 3) / d ** 3)
            tail = (2 * CF * d * d / ((N - R) ** 2 * N)
                    + CFp * d ** 3 / N ** 3) / math.pi ** 2
            assert tail <= _SERIES_TOL


def test_budget_does_not_depend_on_call_history():
    rng = np.random.default_rng(11)
    d = 1.5
    warm = OddExtremalPair(m=0, alpha=0.75, delta=d)
    for _ in range(40):
        sign = "+-"[int(rng.integers(2))]
        R = float(rng.choice([0.0, 10.0 ** rng.uniform(-1.0, 4.0)]))
        fresh = OddExtremalPair(m=0, alpha=0.75, delta=d)
        assert warm._budget(sign, R) == fresh._budget(sign, R)


BUDGET_PAIRS = [(0, 0.5, 1.0), (0, 0.75, 1.5), (2, 0.9, 2.0)]
BUDGET_WINDOWS = np.r_[0.0, np.geomspace(0.25, 5e3, 39)]


def _budget_tail(pair, sign, N, R):
    """_budget's tail bound for the window R, recomputed on the slice
    |k| <= N."""
    d = pair.delta
    nu, F, Fp = pair._nodes(sign, N)
    CF = np.max(np.abs(F) * (d * d + nu * nu) / (d * d))
    CFp = np.max(np.abs(Fp) * (d ** 3 + np.abs(nu) ** 3) / d ** 3)
    return (2 * CF * d * d / ((N - R) ** 2 * N)
            + CFp * d ** 3 / N ** 3) / math.pi ** 2


@pytest.mark.parametrize("m,alpha,delta", BUDGET_PAIRS)
def test_budget_is_monotone_in_the_window(m, alpha, delta):
    pair = OddExtremalPair(m=m, alpha=alpha, delta=delta)
    for sign in "+-":
        budgets = [pair._budget(sign, float(R)) for R in BUDGET_WINDOWS]
        assert budgets == sorted(budgets), sign


@pytest.mark.parametrize("m,alpha,delta", BUDGET_PAIRS)
def test_budget_is_the_smallest_3_smooth_that_passes(m, alpha, delta):
    # the 3-smooth number just below a budget fails the tail test, unless
    # it lies below the search's first candidate
    pair = OddExtremalPair(m=m, alpha=alpha, delta=delta)
    d = delta
    for sign in "+-":
        for R in map(float, BUDGET_WINDOWS):
            N = pair._budget(sign, R)
            below = next(n for n in range(N - 1, 0, -1) if _is_3_smooth(n))
            dense = min(math.ceil(50 + 20 * R / d), math.ceil(2 * R) + 2000)
            first = _fft_len(max(math.ceil(10 * d), dense,
                                 math.ceil(2 * R + 20)))
            if below >= first:
                assert _budget_tail(pair, sign, below, R) > _SERIES_TOL


@pytest.mark.parametrize("m,alpha,delta,signs", [
    (0, 0.5, 1.0, "+"), (2, 0.5, 1.0, "+-"), (1, 0.9, 2.0, "+-")])
def test_g_real_at_the_smallest_budget_against_4x_the_nodes(m, alpha, delta,
                                                            signs):
    # odd_grid's window R = 120.1 delta: the nodes a budget leaves out
    # are within its tail test, here against a dense sum over 4x the
    # nodes (26 244 for the 6 561 at (0, 1/2, 1) '+')
    pair = OddExtremalPair(m=m, alpha=alpha, delta=delta)
    rng = np.random.default_rng(20)
    R = 120.1 * delta
    w = np.r_[R, -R, 0.0, 0.5, 119.5, -119.0, 3.0 + 1e-6,
              rng.uniform(-R, R, 48)]
    x = w / delta
    for sign in signs:
        N = pair._budget(sign, R)
        g = pair.g_real(sign, x)
        assert np.max(np.abs(g - dense_g_real(pair, sign, x, 4 * N))) \
            <= _SERIES_TOL, sign


def test_g_real_far_out_and_node_memory_limit():
    pair = OddExtremalPair(m=0, alpha=0.75, delta=1.0)
    x = np.concatenate([1e5 - np.linspace(0.0, 3.0, 13),
                        -1e5 + np.linspace(0.0, 3.0, 13)])
    f = pair.f_odd_vec(x)
    gp, gm = pair.g_real("+", x), pair.g_real("-", x)
    assert np.all(np.isfinite(gp)) and np.all(np.isfinite(gm))
    assert np.all(gm <= f + 1e-15) and np.all(f <= gp + 1e-15)
    with pytest.raises(ResourceError):
        pair.g_real("+", np.array([1e7]))


class NodesBuilt(Exception):
    pass


def test_node_memory_limit_raises_before_any_node(monkeypatch):
    def no_nodes(self, sign, N):
        raise NodesBuilt(N)
    # a budget that passes the memory check reaches _nodes and raises
    # NodesBuilt, so ResourceError means no node was built
    monkeypatch.setattr(OddExtremalPair, "_nodes", no_nodes)
    for delta in (1.0, 1.5):
        pair = OddExtremalPair(m=0, alpha=0.75, delta=delta)
        with pytest.raises(ResourceError, match="node memory limit"):
            pair.g_real("+", np.array([1e7 / delta]))
        # the largest window below the limit rounds up to 2^3 3^11 nodes
        with pytest.raises(NodesBuilt, match="1417176"):
            pair._budget("+", 707_588.0)
        with pytest.raises(ResourceError):
            pair._budget("+", 707_588.5)
