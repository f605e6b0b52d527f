import cmath
import gc
import math
import sys
import threading
import tracemalloc
import weakref
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gamma_grid import grid_level, on_grid
from scalar_ft import scalar_ft_g, scalar_ft_m
from szeta import explicit_formula as ef
from szeta import zeta_core as zc
from szeta.cli import _GW_KEYS
from szeta.numkit import DomainError, frac_product, sieve_mangoldt, trig_sq
from szeta.odd_extremal import OddExtremalPair
from szeta.poisson_extremal import (PoissonExtremalPair, PoissonMixture,
                                    mixture_at)


@pytest.fixture(scope="module")
def mangoldt():
    return sieve_mangoldt(int(math.ceil(math.exp(3 * math.pi))) + 1)


def report_items(rep):
    """A report's terms in order, the kernel as its describe(), as `szeta
    verify gw` prints them."""
    out = {key: getattr(rep, key) for key in _GW_KEYS}
    out["kernel"] = rep.kernel.describe()
    return out


def mp_mixture_at(u, b, delta, z):
    """mixture_at's member sum -2b u sin(pi delta (z + iu)) sin(pi delta (z
    - iu))/((z + iu)(z - iu)) in 30-digit mpmath, at the exact delta z less
    its nearest integer, whose signs cancel in the product: so the sum is
    exactly 0 where delta Re z is an integer and Im z is a member u."""
    import mpmath
    with mpmath.workdps(30):
        d, pi = mpmath.mpf(delta), mpmath.pi
        z = complex(z)
        X = mpmath.fmul(delta, z.real, exact=True)
        X, Z = X - mpmath.nint(X), mpmath.mpc(z.real, z.imag)
        total = mpmath.mpc(0)
        for uu, bb in zip(u.tolist(), b.tolist()):
            U = mpmath.mpf(uu)
            f = [pi * d if Z + s * 1j * U == 0 else
                 mpmath.sin(pi * (X + 1j * d * (z.imag + s * U)))
                 / (Z + s * 1j * U) for s in (1, -1)]
            total += -2 * mpmath.mpf(bb) * U * f[0] * f[1]
        return complex(total)


MIXTURE_AT_KERNELS = [
    pytest.param(PoissonExtremalPair(beta=0.25, delta=1.5), id="poisson"),
    pytest.param(OddExtremalPair(m=0, alpha=0.5, delta=1.0),
                 id="odd-alpha-half"),
    pytest.param(OddExtremalPair(m=1, alpha=0.75, delta=2.0), id="odd")]


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
        # alpha > 1/2: residuals -3.0e-4, -5.9e-5 and -2.5e-5 ('+')
        # against zero tails 6.2e-4, 1.2e-4 and 5.1e-5
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
        # all 2^18 + 1 nodes |k| <= 2^17: a budget sized for the real
        # axis is off by up to 7e-13 here
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

    @pytest.mark.parametrize("kernel", MIXTURE_AT_KERNELS)
    def test_mixture_at_matches_mpmath(self, kernel):
        # within 4e-15 relative of the same member sum in 30-digit mpmath
        # off the real axis (measured 1.1e-15), also 1e-10 off a member's
        # zero z = i u, where a factor is 0/0 unreduced, and exactly 0
        # where both are (the Poisson pair at 2400 + i/4, delta = 1.5)
        for sign in "+-":
            u, _, b = kernel.poisson_mixture(sign)
            zs = [complex(t, y) for y in (0.25, 0.5, 1.5)
                  for t in (0.0, 1e-9, 14.1, 2400.0)]
            for z in zs + [complex(3e-10, u[-1] + 5e-10), 1j * u[-1]]:
                got = mixture_at(u, b, kernel.delta, z)
                want = mp_mixture_at(u, b, kernel.delta, z)
                assert abs(got - want) <= 4e-15 * abs(want), (sign, z)
            if isinstance(kernel, OddExtremalPair):
                assert kernel.g_eval(sign, 14.1 + 0.5j) == mixture_at(
                    u, b, kernel.delta, 14.1 + 0.5j)

    @pytest.mark.parametrize("kernel", MIXTURE_AT_KERNELS)
    def test_mixture_at_on_the_real_axis(self, kernel):
        # within 4 eps of the real-axis mixture sum h_u w (1 + sin^2/sinh^2
        # or 1 - cos^2/cosh^2) in 30-digit mpmath (measured 2.6 eps), and
        # so within 4 eps of real beyond real's own distance from that sum
        # (which reaches 5.9 eps for the odd pair at alpha = 1/2, whose
        # ~1000 members real sums through its moment series)
        import mpmath
        eps = np.finfo(float).eps
        x = np.array([0.0, 0.3, 1.7, 4.0, 14.1, -55.5, 2400.25])
        with mpmath.workdps(30):
            d, pi = mpmath.mpf(kernel.delta), mpmath.pi
            U, w = ([mpmath.mpf(v) for v in a.tolist()]
                    for a in kernel._members())
            for sign in "+-":
                u, _, b = kernel.poisson_mixture(sign)
                den = [(mpmath.sinh if sign == "+" else mpmath.cosh)(
                    pi * v * d) ** 2 for v in U]
                for v, r in zip(x, kernel.real(sign, x)):
                    X = mpmath.mpf(v)
                    c = pi * d * X
                    trig = mpmath.sin(c) ** 2 if sign == "+" else -mpmath.cos(
                        c) ** 2
                    want = float(sum(wi * ui / (ui * ui + X * X)
                                     * (1 + trig / di)
                                     for ui, wi, di in zip(U, w, den)))
                    got = mixture_at(u, b, kernel.delta, v)
                    assert abs(got - want) <= 4 * eps * want, (sign, v)
                    assert abs(got.real - r) <= 4 * eps * r + abs(r - want)

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
        # a report keeps its five t-dependent terms packed in one bytes
        # object and shares t, its kernel, sign and GwConstants: about
        # 154 B; five float fields took 233 B, eleven fields 250-330 B,
        # and the describe() dict and a stored residual 504-571 B
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
            assert used / len(kept) <= 160, kernel


class TestSignFreeTerms:
    """The digamma and arch terms that both signs share at one t, kept on
    the kernel one entry deep (_sign_free_terms): every report has the
    bits of one from a kernel object never evaluated before, whatever
    the call order."""

    # check 3's kernels at its two (t, delta), and the odd pair at alpha
    # = 1/2 (976 members)
    @staticmethod
    def kernels():
        return [PoissonExtremalPair(beta=0.25, delta=1.5),
                OddExtremalPair(m=0, alpha=0.75, delta=1.5),
                PoissonExtremalPair(beta=0.25, delta=2.0),
                OddExtremalPair(m=0, alpha=0.75, delta=2.0),
                OddExtremalPair(m=0, alpha=0.5, delta=1.0)]

    # 200 t per kernel: check 3's two, the first zero, 0 and values near
    # and far from the ordinates on both sides, up to 2450
    TS = [0.0, 0.5, 14.134725141734693, 50.0, 100.0, 2400.0, -30.3,
          -1000.25] + [float(t) for t in np.linspace(1.0, 2450.0, 192)
                       + 0.123]

    @pytest.fixture(scope="class")
    def table(self):
        return sieve_mangoldt(int(math.ceil(math.exp(4 * math.pi))) + 1)

    @staticmethod
    def bits(rep):
        return (rep.kernel, rep.sign, rep.terms) + tuple(
            float(getattr(rep, key)).hex()
            for key in ("t", *ef._TERM_NAMES, "log_pi_term",
                        "prime_tail_bound", "residual"))

    def test_every_call_order_gives_a_fresh_kernels_bits(self, zeros, table):
        def evaluate(kernel, sign, t):
            return self.bits(ef.gw_evaluate(kernel, sign, t, kernel.delta,
                                            zeros, mangoldt=table))

        def fresh(i, sign, t):
            return evaluate(self.kernels()[i], sign, t)

        ts = self.TS
        assert len(ts) == 200
        plus_minus, minus_plus, twin = (self.kernels() for _ in range(3))
        for i in range(len(plus_minus)):
            want = {(s, t): fresh(i, s, t) for t in ts for s in "+-"}
            for t in ts:
                for s in "+-":
                    assert evaluate(plus_minus[i], s, t) == want[s, t]
                for s in "-+":
                    assert evaluate(minus_plus[i], s, t) == want[s, t]
            # the same t twice, and two equal but distinct kernel objects
            # in turn at one t
            for t in ts[::10]:
                for s in "+-":
                    assert evaluate(plus_minus[i], s, t) == want[s, t]
                    assert evaluate(plus_minus[i], s, t) == want[s, t]
                    assert evaluate(twin[i], s, t) == want[s, t]
                    assert evaluate(plus_minus[i], s, t) == want[s, t]
            assert twin[i] == plus_minus[i] and twin[i] is not plus_minus[i]
        # the kernels interleaved at one t
        kernels = self.kernels()
        for t in ts[::20]:
            want = [[fresh(i, s, t) for s in "+-"]
                    for i in range(len(kernels))]
            for j, s in enumerate("+-"):
                for k, w in zip(kernels, want):
                    assert evaluate(k, s, t) == w[j]

    def test_zero_and_minus_zero_are_two_ts(self, zeros, table):
        for i, kernel in enumerate(self.kernels()):
            for t in (0.0, -0.0):
                for s in "+-":
                    got = ef.gw_evaluate(kernel, s, t, kernel.delta, zeros,
                                         mangoldt=table)
                    want = ef.gw_evaluate(self.kernels()[i], s, t,
                                          kernel.delta, zeros,
                                          mangoldt=table)
                    assert self.bits(got) == self.bits(want)
                    assert math.copysign(1.0, got.t) == math.copysign(1.0, t)
                    assert kernel._cache["sign_free"][0] == ef._T_BITS.pack(t)

    def test_one_entry_per_kernel_replaced_by_a_new_t(self, zeros, table):
        for kernel in self.kernels():
            n = len(kernel.poisson_mixture("+")[0])
            for t in (30.0, 30.0, 77.7):
                for s in "+-":
                    ef.gw_evaluate(kernel, s, t, kernel.delta, zeros,
                                   mangoldt=table)
                    key, *terms = kernel._cache["sign_free"]
                    assert key == ef._T_BITS.pack(t)
                    assert set(kernel._cache) == {"mixture", "sign_free"}
                    assert [v.shape for v in terms] == [(n,)] * 3
                    assert sum(v.nbytes for v in terms) == 32 * n

    def test_a_replacement_between_reads_mixes_no_two_ts(self):
        # a _cache in which another caller's t replaces the entry right
        # after every read: the worst interleaving of two threads
        other = OddExtremalPair(m=0, alpha=0.75, delta=1.5)
        ef._gamma_integral(other, "+", 77.7)

        class Racing(dict):
            def get(self, key, default=None):
                hit = super().get(key, default)
                if key == "sign_free":
                    self[key] = other._cache[key]
                return hit
        kernel = OddExtremalPair(m=0, alpha=0.75, delta=1.5,
                                 _cache=Racing())
        for t in (30.3, 30.3, 120.1):
            for s in "+-":
                assert ef._gamma_integral(kernel, s, t) == (
                    ef._gamma_integral(self.kernels()[1], s, t))

    def test_threads_replacing_the_entry_keep_their_own_t(self):
        # four threads on one kernel, each at its own t, switching every
        # microsecond: a thread reads the entry once, so no term pairs
        # one t's weights with another's sign-free terms
        kernel = OddExtremalPair(m=0, alpha=0.75, delta=1.5)
        ts = (30.3, 77.7, 120.1, 149.9)
        want = {(s, t): ef._gamma_integral(self.kernels()[1], s, t)
                for t in ts for s in "+-"}
        bad = []

        def work(t):
            for _ in range(100):
                for s in "+-":
                    if ef._gamma_integral(kernel, s, t) != want[s, t]:
                        bad.append((s, t))
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in ts]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert bad == []


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
        # within 1e-14 relative of the same closed forms in 30-digit
        # mpmath, on the members' own (u, a, b), up to t = 1e12, where the
        # arch term is down to 3.7e-25 (measured 4.1e-15, at the Poisson
        # pair beta = 0.05, t = 0.5; 2.2e-15 elsewhere)
        kernel = family(**params)
        for t in (0.0, 0.5, 14.2, 2400.0, 1e6, 1e12):
            ref = mp_closed_forms(kernel, t)
            for sign in "+-":
                got = ef._gamma_integral(kernel, sign, t)
                for v, want in zip(got, ref[sign]):
                    assert abs(v - want) <= 1e-14 * abs(want), (sign, t)

    @pytest.mark.parametrize("delta", [1.3, 2.9])
    def test_at_the_exact_phase(self, delta):
        # delta t has no double here; at its exact value the arch term and
        # mixture_at on and off the axis are within 1e-14 relative of
        # 30-digit mpmath (measured 1.2e-15; 5.4e-4 with the phase of the
        # rounded delta t), the digamma term within 1e-14 max(1, |term|),
        # where the phase weighs less than its rounding
        for kernel in (PoissonExtremalPair(beta=0.25, delta=delta),
                       OddExtremalPair(m=0, alpha=0.75, delta=delta)):
            for t in (2400.123, 1e6 + 0.1, 1e12 + 0.3):
                ref = mp_closed_forms(kernel, t)
                for sign in "+-":
                    gamma, arch = ef._gamma_integral(kernel, sign, t)
                    want_g, want_a = ref[sign]
                    assert abs(gamma - want_g) <= 1e-14 * max(1.0, abs(want_g))
                    assert abs(arch - want_a) <= 1e-14 * abs(want_a), (sign, t)
                    u, _, b = kernel.poisson_mixture(sign)
                    for z in (complex(t, 0.0), complex(-t, 1.5)):
                        want = mp_mixture_at(u, b, delta, z)
                        assert abs(mixture_at(u, b, delta, z) - want) <= (
                            1e-14 * abs(want)), (sign, z)

    @pytest.mark.parametrize("beta", [0.49, 0.499, 0.4999, 0.49999])
    def test_poisson_as_beta_nears_half(self, beta):
        # psi(1/4 - beta/2 + it/2) nears its pole as t -> 0 and cancels
        # against the first residue, and h_beta(t + i/2) nears its pole;
        # within 1e-14 max(1, |term|) of 30-digit mpmath (the digamma term
        # against mp_closed_forms, the arch term against the product
        # form: the inline form's rounded (a, b) are 2.5e-12 off there)
        kernel = PoissonExtremalPair(beta=beta, delta=1.0)
        for t in (0.0, 0.01):
            ref = mp_closed_forms(kernel, t)
            for sign in "+-":
                gamma, arch = ef._gamma_integral(kernel, sign, t)
                u, _, b = kernel.poisson_mixture(sign)
                want = 2 * mp_mixture_at(u, b, 1.0, complex(t, 0.5)).real
                assert abs(gamma - ref[sign][0]) <= 1e-14 * max(
                    1.0, abs(ref[sign][0])), (sign, t)
                assert abs(arch - want) <= 1e-14 * max(1.0, abs(want))


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

    def test_t_beyond_the_table_rejected_on_either_side(self, zeros):
        # the zero side is even in t, and so is the table's coverage
        p = PoissonExtremalPair(beta=0.25, delta=1.5)
        t0 = float(zeros.ordinates[-1])
        for t in (t0, -t0, 3000.0, -3000.0):
            with pytest.raises(zc.ZeroTableError):
                ef.gw_evaluate(p, "+", t, 1.5, zeros)

    def test_delta_mismatch_rejected(self, zeros):
        p = PoissonExtremalPair(beta=0.25, delta=1.5)
        with pytest.raises(DomainError):
            ef.gw_evaluate(p, "+", 50.0, 2.0, zeros)


def zero_side_by_real(kernel, sign, t, zeros):
    """The zero side as one real() call on t - gamma and t + gamma,
    summed, the route before the phases; and the sum of |real|."""
    gam = np.asarray(zeros.ordinates)
    v = kernel.real(sign, np.concatenate([t - gam, t + gam]))
    return float(np.sum(v[:len(gam)] + v[len(gam):])), float(np.sum(abs(v)))


def mp_poisson_zero_side(beta, delta, ts, zeros):
    """{(sign, t): zero side} of the Poisson pair in 30-digit mpmath, at
    t - gamma and t + gamma exactly, from h (1 + sin^2/sinh^2) and h (1 -
    cos^2/cosh^2); the phases of gamma are shared across t."""
    import mpmath
    out = {}
    with mpmath.workdps(30):
        b, d, pi = mpmath.mpf(beta), mpmath.mpf(delta), mpmath.pi
        gam = [mpmath.mpf(g) for g in zeros.ordinates.tolist()]
        sg = [mpmath.sin(pi * d * g) for g in gam]
        cg = [mpmath.cos(pi * d * g) for g in gam]
        sh2, ch2 = mpmath.sinh(pi * b * d) ** 2, mpmath.cosh(pi * b * d) ** 2
        for t in ts:
            T = mpmath.mpf(t)
            st, ct = mpmath.sin(pi * d * T), mpmath.cos(pi * d * T)
            f = a_sin = a_cos = mpmath.mpf(0)
            for g, s_, c_ in zip(gam, sg, cg):
                for x, sx in ((T - g, st * c_ - ct * s_),
                              (T + g, st * c_ + ct * s_)):
                    h = b / (b * b + x * x)
                    f += h
                    a_sin += h * sx * sx
                    a_cos += h * (1 - sx * sx)
            out["+", t] = float(f + a_sin / sh2)
            out["-", t] = float(f - a_cos / ch2)
    return out


# t on the first ordinate and 1e-9 off it, and at the table's end
ZERO_SIDE_TS = (0.5, 14.2, 14.134725141734693, 14.134725141734693 + 1e-9,
                50.0, 100.0, 2400.0, 2515.0)


class TestZeroSide:
    """The zero side from the per-table phases (_zero_side) against the
    sum of real() it replaced and, for the Poisson pair, mpmath."""

    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("alpha", [0.5, 0.5001, 0.75, 0.9])
    def test_odd_against_the_sum_of_real(self, m, alpha, zeros):
        for delta in (1.0, 1.5, 2.9):
            pair = OddExtremalPair(m=m, alpha=alpha, delta=delta)
            for sign in "+-":
                for t in ZERO_SIDE_TS:
                    got = ef._zero_side(pair, sign, t, zeros)
                    want, scale = zero_side_by_real(pair, sign, t, zeros)
                    assert abs(got - want) <= 1e-14 * max(1.0, scale), (
                        delta, sign, t)

    @pytest.mark.parametrize("beta,delta", [(0.05, 1.0), (0.25, 1.5),
                                            (0.45, 2.9)])
    def test_poisson_against_mpmath_and_real(self, beta, delta, zeros):
        pair = PoissonExtremalPair(beta=beta, delta=delta)
        ref = mp_poisson_zero_side(beta, delta, ZERO_SIDE_TS, zeros)
        for sign in "+-":
            for t in ZERO_SIDE_TS:
                got = ef._zero_side(pair, sign, t, zeros)
                assert abs(got - ref[sign, t]) <= 1e-14 * max(
                    1.0, abs(ref[sign, t])), (sign, t)
                want, scale = zero_side_by_real(pair, sign, t, zeros)
                assert abs(got - want) <= 1e-14 * max(1.0, scale), (sign, t)

    def test_even_in_t(self, zeros):
        pair = OddExtremalPair(m=0, alpha=0.5, delta=1.0)
        for sign in "+-":
            for t in (0.5, 14.2, 2400.0):
                assert (ef._zero_side(pair, sign, -t, zeros)
                        == ef._zero_side(pair, sign, t, zeros))

    def test_same_bits_cold_or_warm_in_any_order(self, zeros):
        # fresh tables and kernels at each t, against one warm table with
        # t ascending and then descending; the table keeps its last
        # ordinate and the phases of each delta, and nothing per t
        ts = (0.5, 14.134725141734693, 30.0, 77.7, 150.0, 2515.0)

        def fresh_table():
            return zc.ZeroTable(ordinates=zeros.ordinates.copy(),
                                precision=zeros.precision, source="copy")

        def kernels():
            return [PoissonExtremalPair(beta=0.25, delta=1.5),
                    OddExtremalPair(m=0, alpha=0.75, delta=1.5),
                    OddExtremalPair(m=0, alpha=0.5, delta=2.9)]
        warm = fresh_table()
        for i, kernel in enumerate(kernels()):
            for sign in "+-":
                cold = [ef._zero_side(kernels()[i], sign, t, fresh_table())
                        for t in ts]
                assert [ef._zero_side(kernel, sign, t, warm)
                        for t in ts] == cold
                assert [ef._zero_side(kernel, sign, t, warm)
                        for t in ts[::-1]] == cold[::-1]
                assert all(type(v) is float for v in cold)
        assert set(warm._cache) == {("phases", 1.5), ("phases", 2.9)}

    def test_zero_table_keeps_only_the_phases(self, zeros, mangoldt):
        table = zc.ZeroTable(ordinates=zeros.ordinates.copy(),
                             precision=zeros.precision, source="copy")
        pair = PoissonExtremalPair(beta=0.25, delta=1.5)
        for sign, t in (("+", 30.0), ("-", 90.0)):
            ef.gw_evaluate(pair, sign, t, 1.5, table, mangoldt=mangoldt)
        assert set(table._cache) == {("phases", 1.5)}

    @pytest.mark.parametrize("pair", [
        PoissonExtremalPair(beta=0.05, delta=1.0),
        PoissonExtremalPair(beta=0.45, delta=2.9),
        OddExtremalPair(m=0, alpha=0.5, delta=1.0),
        OddExtremalPair(m=1, alpha=0.75, delta=2.9)],
        ids=["poisson-0.05-1", "poisson-0.45-2.9", "odd-0-0.5-1",
             "odd-1-0.75-2.9"])
    def test_real_parts_rebuild_real(self, pair):
        # real = f + A sin^2(pi delta x) ('+') or f - A cos^2(pi delta x)
        # ('-') at the exact delta x, 0 to the bit at the nodes; the
        # Poisson pair's m_real agrees within its rounding, up to ulp(delta
        # x) in its phase
        x = np.concatenate([np.linspace(-7.0, 7.0, 1401),
                            [100.3, 2514.9, 5030.1]])
        nodes = np.arange(-3, 4) / pair.delta
        for sign in "+-":
            f, a = pair.real_parts(sign, x)
            trig = trig_sq(sign, frac_product(pair.delta, x))
            rebuilt = f + a * trig if sign == "+" else f - a * trig
            assert np.array_equal(pair.real(sign, x), rebuilt)
            assert np.all(trig <= 1.0)
            at = nodes if sign == "+" else nodes + 0.5 / pair.delta
            assert np.array_equal(pair.real(sign, at), pair.target(at))
            if isinstance(pair, PoissonExtremalPair):
                err = np.abs(pair.m_real(sign, x) - rebuilt)
                eps = np.finfo(float).eps
                assert np.all(err <= 16 * eps * (1 + pair.delta * np.abs(x))
                              * (f + a)), sign


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
    """A pair whose ft loops over frequencies with a scalar oracle; every
    other attribute, real and real_parts included, is the pair's."""

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
            self._cache = {}

        def describe(self):
            return {"family": "two_members", "delta": self.delta}

        def real(self, sign, x):
            return sum(c * p.real(sign, x)
                       for c, p in zip(self.weights, self.pairs))

        def real_parts(self, sign, x):
            parts = [p.real_parts(sign, x) for p in self.pairs]
            return tuple(sum(c * v for c, v in zip(self.weights, vs))
                         for vs in zip(*parts))

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

    @dataclass(frozen=True)
    class Mixture(PoissonMixture):
        """The same mixture as a PoissonMixture: one short constructor."""

        delta: float
        _cache: dict = field(default_factory=dict, repr=False,
                             compare=False)
        formula = dict.fromkeys(("real", "ft", "l1_gap"), "poisson_mixture")
        ft_error = 0.0

        def _members(self):
            return np.array([0.1, 0.4]), np.array([0.3, 0.7])

        def describe(self):
            return {"family": "two_members", "delta": self.delta}

    def test_mixture_subclass_is_the_weighted_sum(self):
        x = np.array([0.0, 0.25, 0.7, 3.9, 4.1, -17.3, 250.0, 1e5])
        xi = np.array([0.0, 0.3, -0.6, 0.95, 1.0, 2.5])
        for delta in (1.0, 1.5, 2.0):
            mix, ref = self.Mixture(delta), self.TwoMembers(delta)
            assert mix == self.Mixture(delta)
            assert hash(mix) == hash(self.Mixture(delta))
            for sign in "+-":
                for got, want in (
                        (mix.ft(sign, delta * xi), ref.ft(sign, delta * xi)),
                        (mix.real(sign, x), ref.real(sign, x)),
                        (mix.l1_gap(sign), sum(
                            c * p.l1_gap(sign)
                            for c, p in zip(ref.weights, ref.pairs))),
                        (mix.tail_envelope(sign), ref.tail_envelope(sign))):
                    assert np.all(np.abs(got - want)
                                  <= 1e-15 * np.abs(want))

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

    def test_n_minus1_band_carries_the_lead_terms_error(self, zeros):
        # the zero sum misses E(s) = -Re 1/(s-1) - Re psi(s/2+1)/2 +
        # log(pi)/2 of Re zeta'/zeta, which its lead -(1/2pi) log(t/2pi)
        # only approximates: |diff| sits at 0.35-0.74 of the band, and
        # above the truncation bound alone at (0.99, 20) and (0.75, 14.2)
        import mpmath
        points = [(0.75, 95.0), (0.75, 100.0), (0.75, 104.9), (0.6, 1000.0),
                  (0.9, 2000.0), (0.55, 500.0), (0.51, 50.0), (0.99, 20.0),
                  (0.6, 2400.0), (0.75, 14.2)]
        over = []
        for alpha, t in points:
            rep = ef.rep_sum(-1, alpha, t, zeros)
            diff = abs(rep.value - zc.s_n_direct(-1, alpha, t, zeros).value)
            s = mpmath.mpc(alpha, t)
            e = (-mpmath.re(1 / (s - 1)) - mpmath.re(mpmath.digamma(s / 2 + 1))
                 / 2 + mpmath.log(mpmath.pi) / 2)
            lead = -mpmath.log(t / (2 * mpmath.pi)) / (2 * mpmath.pi)
            want = rep.est_error + float(abs(lead - e / mpmath.pi))
            assert ef.rep_band(rep) == pytest.approx(want, rel=1e-12)
            assert diff <= ef.rep_band(rep), (alpha, t)
            over.append(diff > rep.est_error)
        assert over.count(True) == 2


class TestAppendix:
    def test_unknown_id(self):
        with pytest.raises(DomainError):
            ef.appendix_asymptotic("Z9", {"x": 1e5})

    def test_missing_params(self):
        with pytest.raises(DomainError):
            ef.appendix_asymptotic("A1", {"x": 1e5})

    def test_params_keep_what_the_item_reads(self):
        # every given parameter was echoed, read or not
        chk = ef.appendix_asymptotic("A4", {"x": 1e5, "m": 3, "alpha": 0.8,
                                            "k": 2, "beta": 0.1, "c": 0.1})
        assert list(chk.params.items()) == [("x", 1e5), ("alpha", 0.8),
                                            ("c", 0.1)]

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
