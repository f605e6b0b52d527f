import cmath
import gc
import math
import tracemalloc
import weakref
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gamma_grid import grid_level, on_grid
from scalar_ft import scalar_ft_g, scalar_ft_m
from szeta import explicit_formula as ef
from szeta import zeta_core as zc
from szeta.numkit import DomainError, sieve_mangoldt
from szeta.odd_extremal import OddExtremalPair
from szeta.poisson_extremal import PoissonExtremalPair


@pytest.fixture(scope="module")
def mangoldt():
    return sieve_mangoldt(int(math.ceil(math.exp(3 * math.pi))) + 1)


def report_items(rep):
    """A report's fields in order, the kernel as its describe() and the
    residual property last, as `szeta verify gw` prints them."""
    out = {f.name: getattr(rep, f.name) for f in fields(rep)}
    out["kernel"] = rep.kernel.describe()
    out["residual"] = rep.residual
    return out


class TestGammaIntegral:
    def test_against_direct_quadrature(self):
        # Fourier-side route vs. direct x-space integration of the
        # digamma factor against the kernel (QAWF decomposition)
        from scipy.integrate import quad
        from scipy.special import digamma

        def re_digamma_quarter(x):
            return digamma(0.25 + 0.5j * x).real
        p = PoissonExtremalPair(beta=0.25, delta=1.5)
        t = 10.0
        for sign in "+-":
            b, d = p.beta, p.delta
            D = p._denom(sign)
            a = 2 * math.pi * b * d
            C = math.exp(a) + math.exp(-a)
            base = quad(lambda x: (b / (b * b + (t - x) ** 2)
                                   * re_digamma_quarter(x)),
                        -np.inf, np.inf, epsabs=1e-12, limit=400,
                        full_output=1)[0]
            # substituting u = t - x, the oscillatory part becomes a
            # half-line cosine transform of a smooth decaying factor
            osc = quad(lambda u: (b / (b * b + u * u)
                                  * (re_digamma_quarter(t - u)
                                     + re_digamma_quarter(t + u))),
                       0.0, np.inf, weight="cos",
                       wvar=2 * math.pi * d, limlst=300,
                       epsabs=1e-12, full_output=1)[0]
            ref = (C * base - 2 * osc) / D / (2 * math.pi)
            val, _ = ef._gamma_integral(p, sign, t)
            assert val == pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_odd_alpha_half_closes(self, m, zeros):
        # the transform's sigma-sum keeps its digits as xi -> 0 and xi ->
        # delta at alpha = 1/2, so the formula closes with the bands of
        # alpha > 1/2: residuals -3.0e-4, -5.9e-5 and -2.5e-5 against zero
        # tails 7.1e-3, 7.9e-4 and 2.8e-4
        kernel = OddExtremalPair(m=m, alpha=0.5, delta=1.5)
        for sign in "+-":
            rep = ef.gw_evaluate(kernel, sign, 50.0, 1.5, zeros)
            # the band of `szeta verify gw` at its default --tol
            band = rep.zero_tail_bound + rep.prime_tail_bound + 1e-5
            assert abs(rep.residual) <= band, sign


class TestArchTerm:
    """2 Re K(t + i/2), from _gamma_integral's Poisson mixture."""

    @pytest.mark.parametrize("beta,delta,tol", [(0.25, 1.5, 1e-13),
                                                (0.45, 1.0, 1e-13),
                                                (0.05, 2.0, 5e-12)])
    def test_poisson_against_closed_form(self, beta, delta, tol):
        # the bands of the retired panel grid, whose cosh-weighted
        # rounding reached 2e-12 at beta = 0.05; the closed form is within
        # 4.3e-15 there (TestClosedForms holds it to 1e-14 of mpmath)
        p = PoissonExtremalPair(beta=beta, delta=delta)
        b, d = beta, delta
        for sign in "+-":
            D = p._denom(sign)
            for t in (14.2, 50.0, 150.0, 2400.0):
                z = complex(t, 0.5)
                m = (b / (b * b + z * z)
                     * (2 * math.cosh(2 * math.pi * b * d)
                        - 2 * cmath.cos(2 * math.pi * d * z)) / D)
                _, arch = ef._gamma_integral(p, sign, t)
                assert abs(arch - 2 * m.real) <= tol

    @pytest.mark.parametrize("m,alpha,delta", [(0, 0.75, 1.5),
                                               (2, 0.9, 2.0)])
    def test_odd_against_dense_series(self, m, alpha, delta):
        # the interpolation series at w = delta (t + i/2), summed over
        # all 2^18 + 1 nodes |k| <= 2^17; the series' own budget at
        # this point (g_eval) is off by up to 7e-13
        pair = OddExtremalPair(m=m, alpha=alpha, delta=delta)
        for sign in "+-":
            nu, F, Fp = pair._nodes(sign, 1 << 17)
            for t in (30.0, 150.0):
                w = delta * complex(t, 0.5)
                node = round(w.real) + (0.0 if sign == "+" else 0.5)
                S2 = (cmath.sin(math.pi * (w - node)) / math.pi) ** 2
                dw = w - nu
                ref = 2 * (S2 * complex(np.sum(F / dw ** 2 + Fp / dw))).real
                _, arch = ef._gamma_integral(pair, sign, t)
                assert abs(arch - ref) <= 2e-13

    def test_odd_node_cache_sized_by_the_zero_side(self, zeros, mangoldt):
        # gw_sweep's pair at t = 150: the zero side reads the pair's
        # mixture and the arch term its transform, so no call builds the
        # interpolation series' nodes (10 368 per sign when it did)
        pair = OddExtremalPair(m=0, alpha=0.75, delta=1.5)
        for sign in "+-":
            ef.gw_evaluate(pair, sign, 150.0, 1.5, zeros, mangoldt=mangoldt)
            assert ("nodes", sign) not in pair._cache
            assert ("far", sign) not in pair._cache
        assert "mixture" in pair._cache


GRID_KERNELS = [
    *(pytest.param(OddExtremalPair, dict(m=m, alpha=a, delta=d),
                   id=f"odd-{m}-{a}-{d}")
      for m, a, d in ((0, 0.75, 1.5), (2, 0.9, 2.0), (1, 0.6, 2.9))),
    *(pytest.param(PoissonExtremalPair, dict(beta=b, delta=d),
                   id=f"poisson-{b}-{d}")
      for b in (0.25, 0.05) for d in (1.5, 2.9))]


class TestGammaGrid:
    """The closed forms against the panel grid of tests/gamma_grid.py,
    which sums both terms from the kernel's transform alone, and what a
    call keeps."""

    @pytest.mark.parametrize("family,params", GRID_KERNELS)
    def test_each_level_agrees_with_the_doubled_grid(self, family, params):
        # the closed forms agree with the oracle within its rounding, 16
        # eps times the scale of each sum, and the oracle is converged at
        # its level (against twice the panels)
        kernel = family(**params)
        eps = np.finfo(float).eps
        for sign in "+-":
            for t in (14.2, 30.0, 77.7, 154.0, 1000.0, 2400.0):
                npan = grid_level(t, kernel.delta)
                got = np.array(ef._gamma_integral(kernel, sign, t))
                one, s_one = on_grid(kernel, sign, t, npan)
                two, s_two = on_grid(kernel, sign, t, 2 * npan)
                assert np.all(np.abs(got - one) <= 16 * eps * s_one)
                band = 16 * eps * (s_one + s_two)
                assert np.all(np.abs(one - two) <= band), (sign, t)

    def test_same_bits_whatever_the_call_history(self, zeros):
        # cold kernels, warm ascending and descending t, and through
        # gw_evaluate on a Mangoldt table: the same bits, and the table
        # keeps the prime sides alone
        ts = (30.0, 42.6, 42.7, 85.3, 85.4, 150.0, 170.6, 170.7)

        def kernels():
            return [PoissonExtremalPair(beta=0.25, delta=1.5),
                    OddExtremalPair(m=0, alpha=0.75, delta=1.5)]
        table = sieve_mangoldt(int(math.ceil(math.exp(3 * math.pi))))
        for i, kernel in enumerate(kernels()):
            for sign in "+-":
                cold = [ef._gamma_integral(kernels()[i], sign, t)
                        for t in ts]
                assert [ef._gamma_integral(kernel, sign, t)
                        for t in ts] == cold
                assert [ef._gamma_integral(kernel, sign, t)
                        for t in ts[::-1]] == cold[::-1]
                for t, (gamma, arch) in zip(ts, cold):
                    rep = ef.gw_evaluate(kernel, sign, t, 1.5, zeros,
                                         mangoldt=table)
                    assert (rep.gamma_integral, rep.arch_terms) == (gamma,
                                                                    arch)
                assert all(type(v) is float for v in cold[0])
        assert set(table._cache) == {(k, s) for k in kernels() for s in "+-"}

    def test_kept_reports_stay_small(self, zeros, mangoldt):
        # a report holds its kernel and eleven fields; the describe()
        # dict and a stored residual took 504-571 B per kept report
        ts = [float(t) for t in np.linspace(90.0, 150.0, 300)]
        for kernel in (PoissonExtremalPair(beta=0.25, delta=1.5),
                       OddExtremalPair(m=0, alpha=0.75, delta=1.5)):
            def reports():
                return [ef.gw_evaluate(kernel, "+-"[i % 2], t, 1.5, zeros,
                                       mangoldt=mangoldt)
                        for i, t in enumerate(ts)]
            warm = reports()  # noqa: F841 -- the allocator's steady state
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                kept = reports()
                gc.collect()
                used = tracemalloc.get_traced_memory()[0] - base
            finally:
                tracemalloc.stop()
            assert used / len(kept) <= 400, kernel


def mp_closed_forms(kernel, t):
    """(digamma integral, arch) per sign, from the kernel's (u, a, b) in
    30-digit mpmath: the closed forms of explicit_formula's docstring as
    written there, with 6 poles.  psi(1/4 + it/2 +- u/2) at u < 1e-3 is
    its Taylor series about 1/4 + it/2 to the 8th power, whose remainder
    is below (2e-3)^9 relative; the members share psi across signs."""
    import mpmath
    with mpmath.workdps(30):
        T, d, pi = mpmath.mpf(t), mpmath.mpf(kernel.delta), mpmath.pi
        w0 = mpmath.mpc(0.25, T / 2)
        taylor = [mpmath.psi(j, w0) / mpmath.factorial(j) for j in range(9)]
        ys = [mpmath.mpf(2 * k) + mpmath.mpf(0.5) for k in range(6)]
        z = mpmath.mpc(T, 0.5)
        phase = mpmath.expj(-2 * pi * d * T)
        members = {}
        for x in kernel.poisson_mixture("+")[0].tolist():
            U = mpmath.mpf(x)
            if x < 1e-3:
                pp, pm = (sum(c * s ** j for j, c in enumerate(taylor))
                          for s in (U / 2, -U / 2))
            else:
                pp, pm = mpmath.digamma(w0 + U / 2), mpmath.digamma(w0 - U / 2)
            res = sum(mpmath.exp(-2 * pi * d * y) * U
                      / (U ** 2 + mpmath.mpc(T, -y) ** 2) for y in ys)
            members[x] = (mpmath.re(pp) / 2,
                          mpmath.re(mpmath.exp(-2 * pi * d * U) * (pp + pm) / 2
                                    - 2 * phase * res) / 2,
                          U / (U ** 2 + z ** 2))
        cos_z = mpmath.cos(2 * pi * d * z)
        out = {}
        for sign in "+-":
            gamma = arch = mpmath.mpf(0)
            for x, a, b in zip(*(v.tolist()
                                 for v in kernel.poisson_mixture(sign))):
                plain, cos_part, h = members[x]
                gamma += a * plain + b * cos_part
                arch += 2 * mpmath.re(h * (a + b * cos_z))
            out[sign] = (float(gamma), float(arch))
    return out


CLOSED_FORM_KERNELS = [
    *(pytest.param(OddExtremalPair, dict(m=m, alpha=a, delta=d),
                   id=f"odd-{m}-{a}-{d}")
      for m, a, d in ((0, 0.75, 1.5), (2, 0.9, 2.0), (1, 0.6, 2.9),
                      (0, 0.5, 1.0), (3, 0.5001, 2.9))),
    *(pytest.param(PoissonExtremalPair, dict(beta=b, delta=d),
                   id=f"poisson-{b}-{d}")
      for b, d in ((0.25, 1.5), (0.45, 1.0), (0.05, 2.0)))]


class TestClosedForms:
    """_gamma_integral's closed forms against the panel grid and mpmath."""

    @pytest.mark.parametrize("family,params", CLOSED_FORM_KERNELS)
    def test_against_the_panel_grid(self, family, params):
        # within 1e-13 of tests/gamma_grid.py at t <= 2400; the Poisson
        # arch term at beta = 0.05 within 5e-12, where the cosh-weighted
        # grid's own rounding reaches 1.2e-12
        kernel = family(**params)
        arch_tol = 5e-12 if params.get("beta") == 0.05 else 1e-13
        for sign in "+-":
            for t in (0.0, 0.1, 1.0, 3.0, -7.3, 14.2, 30.0, 100.0, 154.0,
                      2400.0):
                gamma, arch = ef._gamma_integral(kernel, sign, t)
                (g_gamma, g_arch), _ = on_grid(kernel, sign, t)
                assert abs(gamma - g_gamma) <= 1e-13, (sign, t)
                assert abs(arch - g_arch) <= arch_tol, (sign, t)

    @pytest.mark.parametrize("family,params", CLOSED_FORM_KERNELS)
    def test_against_mpmath(self, family, params):
        # within 1e-14 max(1, |term|) of the same closed forms in 30-digit
        # mpmath, on the members' own (u, a, b), up to t = 1e12
        kernel = family(**params)
        for t in (0.0, 0.5, 14.2, 2400.0, 1e6, 1e12):
            ref = mp_closed_forms(kernel, t)
            for sign in "+-":
                got = ef._gamma_integral(kernel, sign, t)
                for v, want in zip(got, ref[sign]):
                    assert abs(v - want) <= 1e-14 * max(1.0, abs(want)), (
                        sign, t)


class TestPrimeSum:
    def test_needs_full_sieve(self, mangoldt):
        p = PoissonExtremalPair(beta=0.25, delta=1.5)
        small = sieve_mangoldt(100)
        with pytest.raises(DomainError):
            ef.prime_sum(p, "+", 50.0, small)

    def test_envelope_poisson_brackets(self, mangoldt):
        # measured prime sums respect the closed-form one-sided bounds:
        # with x = e^(2 pi delta), q = x^-beta and M the main term of
        # display B4, -x^-beta M/(1-q)^2 ('+') and x^-beta M/(1+q)^2 ('-')
        t_grid = np.linspace(20, 80, 13)
        for delta in (1.0, 1.5):
            p = PoissonExtremalPair(beta=0.25, delta=delta)
            x = math.exp(2 * math.pi * delta)
            q = x ** -0.25
            M = ef.appendix_asymptotic("B4", {"beta": 0.25, "x": x}).main_term
            for sign in "+-":
                env = (-q * M / (1 - q) ** 2 if sign == "+"
                       else q * M / (1 + q) ** 2)
                for t in t_grid:
                    s = ef.prime_sum(p, sign, float(t), mangoldt)
                    if sign == "+":
                        assert -s / math.pi >= env - 1e-12
                    else:
                        assert -s / math.pi <= env + 1e-12


class TestGwEvaluate:
    def test_report_fields_and_residual(self, zeros, mangoldt):
        p = PoissonExtremalPair(beta=0.25, delta=1.5)
        rep = ef.gw_evaluate(p, "+", 50.0, 1.5, zeros,
                             mangoldt=mangoldt)
        assert rep.zero_tail_bound > 0
        assert abs(rep.residual) <= (rep.zero_tail_bound
                                     + rep.prime_tail_bound + 1e-5)
        d = report_items(rep)
        assert set(d) >= {"t", "delta", "residual", "zero_side",
                          "prime_sum"}
        assert rep.kernel is p
        assert rep.residual == rep.zero_side - (
            rep.arch_terms - rep.log_pi_term + rep.gamma_integral
            - rep.prime_sum)

    def test_residual_shrinks_with_more_zeros(self, zeros, zeros500,
                                              mangoldt):
        p = PoissonExtremalPair(beta=0.25, delta=1.0)
        r_few = ef.gw_evaluate(p, "-", 50.0, 1.0, zeros500,
                               mangoldt=mangoldt)
        r_many = ef.gw_evaluate(p, "-", 50.0, 1.0, zeros,
                                mangoldt=mangoldt)
        assert abs(r_many.residual) <= abs(r_few.residual) + 1e-9
        assert r_many.zero_tail_bound < r_few.zero_tail_bound

    def test_odd_far_field_shared_across_calls(self, zeros, mangoldt):
        # the pair's moment entry is built once and serves every t and
        # both signs; no far-field coefficients are built
        pair = OddExtremalPair(m=0, alpha=0.75, delta=1.5)
        ef.gw_evaluate(pair, "+", 154.0, 1.5, zeros, mangoldt=mangoldt)
        mixture = pair._cache["mixture"]
        for sign in "+-":
            for t in (30.0, 90.0, 150.0):
                ef.gw_evaluate(pair, sign, t, 1.5, zeros,
                               mangoldt=mangoldt)
                assert pair._cache["mixture"] is mixture
                assert ("far", sign) not in pair._cache

    def test_zero_side_is_sum_of_both_shifts(self, zeros, mangoldt):
        pair = OddExtremalPair(m=0, alpha=0.75, delta=1.5)
        gam = zeros.ordinates
        t = 90.0
        for sign in "+-":
            rep = ef.gw_evaluate(pair, sign, t, 1.5, zeros,
                                 mangoldt=mangoldt)
            want = (np.sum(pair.real(sign, t - gam))
                    + np.sum(pair.real(sign, t + gam)))
            assert abs(rep.zero_side - want) <= 1e-12

    def test_delta_mismatch_rejected(self, zeros):
        p = PoissonExtremalPair(beta=0.25, delta=1.5)
        with pytest.raises(DomainError):
            ef.gw_evaluate(p, "+", 50.0, 2.0, zeros)


class TestPrimeSideCache:
    """The weighted transform at the prime powers, kept on the Mangoldt
    table per (kernel, sign)."""

    @staticmethod
    def kernels(delta):
        return {"poisson": PoissonExtremalPair(beta=0.25, delta=delta),
                "odd": OddExtremalPair(m=0, alpha=0.75, delta=delta)}

    def test_reused_kernels_and_table_match_fresh_ones(self, zeros):
        # gw_sweep's order: at each t both kernels and both signs; one
        # table shared by the kernels of two bandwidths
        table = sieve_mangoldt(int(math.ceil(math.exp(3 * math.pi))))
        kept = {d: self.kernels(d) for d in (1.0, 1.5)}
        for t in (30.0, 77.7, 150.0):
            for d, kernels in kept.items():
                for family in kernels:
                    for sign in "+-":
                        got = ef.gw_evaluate(kernels[family], sign, t, d,
                                             zeros, mangoldt=table)
                        fresh = ef.gw_evaluate(
                            self.kernels(d)[family], sign, t, d, zeros,
                            mangoldt=sieve_mangoldt(
                                int(math.ceil(math.exp(2 * math.pi * d)))))
                        assert got.kernel is kernels[family]
                        assert report_items(got) == report_items(fresh)
        # one prime side per (kernel, sign), whatever the number of calls,
        # and nothing per t: the digamma and arch terms keep nothing
        want = {(k, s) for kernels in kept.values()
                for k in kernels.values() for s in "+-"}
        assert set(table._cache) == want
        assert len(table._cache) == 2 * 2 * 2

    def test_report_constants_kept_per_kernel_and_sign(self, zeros,
                                                       mangoldt):
        # log_pi_term and prime_tail_bound do not depend on t: warm calls
        # share the floats of the prime side's entry, with the bits of
        # the per-call expressions and of a fresh table
        table = sieve_mangoldt(mangoldt.limit)
        for kernel in self.kernels(1.5).values():
            for sign in "+-":
                a, b = (ef.gw_evaluate(kernel, sign, t, 1.5, zeros,
                                       mangoldt=table) for t in (40.0, 90.0))
                assert a.log_pi_term is b.log_pi_term
                assert a.prime_tail_bound is b.prime_tail_bound
                fresh = ef.gw_evaluate(kernel, sign, 90.0, 1.5, zeros,
                                       mangoldt=sieve_mangoldt(table.limit))
                _, xi, w = table.prime_powers
                wsum = float(np.sum(w[xi <= 1.5])) / math.pi
                for rep in (b, fresh):
                    assert rep.log_pi_term == (kernel.ft(sign, 0.0)
                                               * math.log(math.pi)
                                               / (2.0 * math.pi))
                    assert rep.prime_tail_bound == kernel.ft_error * wsum

    def test_equal_kernel_adds_no_entry(self, zeros, mangoldt):
        table = sieve_mangoldt(mangoldt.limit)
        for kernels in (self.kernels(1.5), self.kernels(1.5)):
            for kernel in kernels.values():
                for sign in "+-":
                    ef.gw_evaluate(kernel, sign, 50.0, 1.5, zeros,
                                   mangoldt=table)
        # a prime side per kernel and sign, and nothing else
        assert len(table._cache) == 4
        # prime_sum on a kernel and sign already kept adds none either
        ef.prime_sum(kernels["poisson"], "+", 50.0, table)
        assert len(table._cache) == 4

    def test_cache_dies_with_its_table(self, zeros, mangoldt):
        table = sieve_mangoldt(mangoldt.limit)
        ef.gw_evaluate(self.kernels(1.5)["odd"], "+", 50.0, 1.5, zeros,
                       mangoldt=table)
        assert table._cache
        ref = weakref.ref(table)
        del table
        gc.collect()
        assert ref() is None


class ScalarLoopFt:
    """A pair whose ft loops over frequencies with a scalar oracle."""

    def __init__(self, pair, scalar_ft):
        self.pair, self.scalar_ft = pair, scalar_ft

    def __getattr__(self, name):
        return getattr(self.pair, name)

    def ft(self, sign, xi):
        if np.ndim(xi) == 0:
            return self.scalar_ft(self.pair, sign, xi)
        return np.array([self.scalar_ft(self.pair, sign, x) for x in xi])


def test_batched_fourier_side_matches_scalar_loop(zeros):
    # the eight configurations of selftest.check_explicit_formula
    table = sieve_mangoldt(int(math.ceil(math.exp(4 * math.pi))) + 1)
    for t, delta in ((50.0, 1.5), (100.0, 2.0)):
        for pair, scalar_ft in (
                (PoissonExtremalPair(beta=0.25, delta=delta), scalar_ft_m),
                (OddExtremalPair(m=0, alpha=0.75, delta=delta),
                 scalar_ft_g)):
            for sign in "+-":
                rep = ef.gw_evaluate(pair, sign, t, delta, zeros,
                                     mangoldt=table)
                loop = ScalarLoopFt(pair, scalar_ft)
                rep_loop = ef.gw_evaluate(loop, sign, t, delta, zeros,
                                          mangoldt=table)
                assert rep.kernel is pair and rep_loop.kernel is loop
                got, want = report_items(rep), report_items(rep_loop)
                assert got.keys() == want.keys()
                if pair.ft_error:
                    assert 0.0 < got["prime_tail_bound"] < 1e-9
                else:
                    assert got["prime_tail_bound"] == 0.0
                for key, v in got.items():
                    if isinstance(v, float):
                        assert abs(v - want[key]) <= 1e-12, key
                    else:
                        assert v == want[key], key


class TestThirdKernel:
    class TwoMembers:
        """0.3 m_{0.1} + 0.7 m_{0.4}: two Poisson pairs of one delta and
        sign, with weights that neither family builds; a majorant ('+')
        or minorant ('-') of 0.3 h_{0.1} + 0.7 h_{0.4}, implementing what
        gw_evaluate uses of the Kernel interface."""

        ft_error = 0.0
        weights = (0.3, 0.7)

        def __init__(self, delta):
            self.delta = delta
            self.pairs = [PoissonExtremalPair(beta=b, delta=delta)
                          for b in (0.1, 0.4)]

        def describe(self):
            return {"family": "two_members", "delta": self.delta}

        def real(self, sign, x):
            return sum(c * p.real(sign, x)
                       for c, p in zip(self.weights, self.pairs))

        def ft(self, sign, xi):
            return sum(c * p.ft(sign, xi)
                       for c, p in zip(self.weights, self.pairs))

        def tail_envelope(self, sign):
            return sum(c * p.tail_envelope(sign)
                       for c, p in zip(self.weights, self.pairs))

        def poisson_mixture(self, sign):
            parts = [p.poisson_mixture(sign) for p in self.pairs]
            u, a, b = (np.concatenate(v) for v in zip(*parts))
            c = np.array(self.weights)
            return u, c * a, c * b

    def test_two_member_mixture_closes_explicit_formula(self, zeros):
        table = sieve_mangoldt(int(math.ceil(math.exp(4 * math.pi))) + 1)
        for delta in (1.0, 1.5, 2.0):
            kernel = self.TwoMembers(delta)
            for sign in "+-":
                for t in (30.0, 50.0, 100.0, 150.0):
                    rep = ef.gw_evaluate(kernel, sign, t, delta, zeros,
                                         mangoldt=table)
                    assert rep.kernel is kernel
                    assert rep.kernel.describe() == {
                        "family": "two_members", "delta": delta}
                    assert abs(rep.residual) <= rep.zero_tail_bound + 1e-5
                    # the terms are linear in the kernel
                    parts = [ef._gamma_integral(p, sign, t)
                             for p in kernel.pairs]
                    for i, v in enumerate((rep.gamma_integral,
                                           rep.arch_terms)):
                        want = sum(c * q[i]
                                   for c, q in zip(kernel.weights, parts))
                        assert abs(v - want) <= 1e-13 * max(1.0, abs(want))


class TestRepSum:
    def test_preconditions(self, zeros):
        with pytest.raises(DomainError):
            ef.rep_sum(-1, 0.5, 100.0, zeros)
        with pytest.raises(DomainError):
            ef.rep_sum(0, 0.6, 1.0, zeros)

    @given(st.sampled_from([(-1, 0.75), (0, 0.6), (1, 0.6)]),
           st.floats(min_value=-1e-9, max_value=1e-9))
    @settings(max_examples=10, deadline=None)
    def test_stable_under_tiny_perturbation(self, zeros, cfg, eps):
        n, alpha = cfg
        t = 90.0
        a = ef.rep_sum(n, alpha, t, zeros).value
        b = ef.rep_sum(n, alpha, t + eps, zeros).value
        assert abs(a - b) < 1e-5

    def test_method_tag(self, zeros):
        v = ef.rep_sum(0, 0.6, 100.0, zeros)
        assert v.method == "zero_sum"

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("alpha,t", [(0.5, 100.0), (0.75, 1000.0)])
    def test_est_error_is_the_nu0_closed_form(self, zeros, n, alpha, t):
        # f <= nu0/x^2 and |fe| <= 2 nu0/|x|^3 with nu0 = int rho u over
        # [a0, 1], rho(u) = (u - a0)^{2m+1}/(2m+1), in closed form; a
        # factor 2 for the counting function's wiggle
        m, odd_index = divmod(n, 2)
        a0, L = alpha - 0.5, 1.5 - alpha
        nu0 = (L ** (2 * m + 3) / (2 * m + 3)
               + a0 * L ** (2 * m + 2) / (2 * m + 2)) / (2 * m + 1)
        t0 = float(zeros.ordinates[-1])
        coeff = 1.0 / (math.pi * math.factorial(2 * m))
        if odd_index:
            dens = ef._density_tail(t, t0) + ef._density_tail(-t, t0)
            want = 2.0 * coeff * nu0 / (2.0 * math.pi) * dens
        else:
            dens = (ef._density_tail_p3(t, t0)
                    + ef._density_tail_p3(-t, t0))
            want = 2.0 * coeff * 2.0 * nu0 / (2.0 * math.pi) * dens
        got = ef.rep_sum(n, alpha, t, zeros).est_error
        assert got == pytest.approx(want, rel=1e-13)


class TestAppendix:
    def test_unknown_id(self):
        with pytest.raises(DomainError):
            ef.appendix_asymptotic("Z9", {"x": 1e5})

    def test_missing_params(self):
        with pytest.raises(DomainError):
            ef.appendix_asymptotic("A1", {"x": 1e5})

    def test_a4_exact_inequality(self):
        chk = ef.appendix_asymptotic("A4", {"x": 1e5, "alpha": 0.8})
        assert chk.direct <= chk.main_term

    def test_b4_beta_zero_degenerates(self):
        chk = ef.appendix_asymptotic("B4", {"x": 1e4, "beta": 0.25})
        assert chk.error_scale > 0
        assert chk.deviation_multiple < 10.0

    @pytest.mark.parametrize("m,alpha,x", [(0, 0.51, 1e12), (1, 0.7, 1e6),
                                           (1, 0.8, 1e12), (0, 0.95, 1e4)])
    def test_a5_within_its_tail_tolerance_of_mpmath(self, m, alpha, x):
        # the series stops once its proved tail bound is below 1e-15
        # times the error scale
        import mpmath
        chk = ef.appendix_asymptotic("A5", {"x": x, "alpha": alpha, "m": m})
        with mpmath.workdps(40):
            a, X, p = mpmath.mpf(alpha), mpmath.mpf(x), 2 * m + 2
            lx, l2 = mpmath.log(X), mpmath.log(2)
            q = X ** (mpmath.mpf(1) / 2 - a)
            ref = float(mpmath.nsum(lambda k: (k + 1) * q ** k * abs(
                2 ** a / (X ** (2 * a - 1) * ((k + 2) * lx - l2) ** p)
                - 2 ** (1 - a) / (k * lx + l2) ** p), [1, mpmath.inf]))
        assert chk.main_term == 0.0
        assert abs(chk.direct - ref) <= (1e-15 * chk.error_scale
                                         + 1e-15 * ref)

    @pytest.mark.parametrize("m,alpha", [(0, 0.55), (1, 0.7), (1, 0.9)])
    def test_b3_within_its_tail_tolerance_of_a_long_sum(self, m, alpha):
        x = 1e4
        chk = ef.appendix_asymptotic("B3", {"x": x, "alpha": alpha, "m": m})
        table = sieve_mangoldt(int(x))
        n, lam = table.n, table.lam
        p, lx, logn = 2 * m + 2, math.log(x), np.log(n)
        q = x ** (0.5 - alpha)
        ref = math.fsum(
            (k + 1) * q ** k * abs(float(np.sum(
                lam / n ** alpha / (k * lx + logn) ** p
                - lam * n ** (alpha - 1) / x ** (2 * alpha - 1)
                / ((k + 2) * lx - logn) ** p)))
            for k in range(1, 400))
        assert abs(chk.direct - ref) <= 1e-13 * chk.error_scale + 1e-15 * ref

    @pytest.mark.parametrize("aid", ["A5", "B3"])
    def test_a5_b3_need_alpha_above_half(self, aid):
        # q = x^(1/2 - alpha) = 1 leaves the series without a geometric
        # tail bound
        with pytest.raises(DomainError, match="alpha"):
            ef.appendix_asymptotic(aid, {"x": 1e4, "alpha": 0.5, "m": 0})
