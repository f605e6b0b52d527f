import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from szeta import zeta_core as zc
from szeta.numkit import DomainError, ResourceError


class TestZeta:
    def test_known_values(self):
        assert zc.zeta(2.0 + 0j).real == pytest.approx(
            math.pi ** 2 / 6, rel=1e-12)
        assert zc.zeta(complex(0.5, 14.134725141734694)) == pytest.approx(
            0.0, abs=1e-8)

    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        for s in (complex(0.5, 30.0), complex(0.75, 100.0),
                  complex(2.0, 55.0)):
            ref = complex(mp.zeta(mp.mpc(s.real, s.imag)))
            assert zc.zeta(s) == pytest.approx(ref, rel=1e-10)

    def test_logderiv_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        for s in (complex(0.75, 50.0), complex(1.5, 20.0)):
            ref = complex(mp.zeta(mp.mpc(s.real, s.imag), derivative=1)
                          / mp.zeta(mp.mpc(s.real, s.imag)))
            assert zc.zeta_logderiv(s) == pytest.approx(ref, rel=1e-8)


class TestZeroTable:
    def test_bundled_table(self, zeros):
        assert len(zeros) == 2000
        assert zeros.ordinates[0] == pytest.approx(14.134725, abs=1e-5)
        assert np.all(np.diff(zeros.ordinates) > 0)

    def test_reject_unsorted(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("14.1\n13.9\n")
        with pytest.raises(zc.ZeroTableError):
            zc.load_zeros(str(p))

    def test_reject_garbage(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("14.1\nnot-a-number\n")
        with pytest.raises(zc.ZeroTableError):
            zc.load_zeros(str(p))

    def test_comments_and_blanks_ok(self, tmp_path):
        p = tmp_path / "ok.txt"
        p.write_text("# header\n\n14.1 # first\n21.0\n")
        t = zc.load_zeros(str(p))
        assert len(t) == 2


class TestCounting:
    def test_count_matches_table(self, zeros):
        n, s = zc.count_zeros(100.0, zeros)
        assert n == 29.0  # 29 zeros below t=100
        assert abs(s) < 1.0

    @given(st.floats(min_value=15.0, max_value=2000.0),
           st.floats(min_value=0.0, max_value=500.0))
    @settings(max_examples=30, deadline=None)
    def test_count_monotone(self, zeros, t, dt):
        n1, _ = zc.count_zeros(t, zeros)
        n2, _ = zc.count_zeros(min(t + dt, 2500.0), zeros)
        assert n2 >= n1

    def test_beyond_table_rejected(self, zeros):
        with pytest.raises(DomainError):
            zc.count_zeros(3000.0, zeros)


class TestSnDirect:
    def test_n_minus1_is_logderiv(self):
        t, alpha = 37.5, 0.8
        ref = zc.zeta_logderiv(complex(alpha, t)).real / math.pi
        assert zc.s_n_direct(-1, alpha, t).value == pytest.approx(
            ref, rel=1e-10)

    def test_absolutely_convergent_route(self):
        # alpha = 1.5: the argument tracked from sigma = 40 against the
        # convergent prime series for Im log zeta
        from szeta.numkit import sieve_mangoldt
        alpha, t = 1.5, 60.0
        table = sieve_mangoldt(200000)
        n, lam = table.n, table.lam
        s = -np.sum(lam / (n ** alpha * np.log(n))
                    * np.sin(t * np.log(n))) / math.pi
        # truncation tail of the prime series is O(2/(sqrt(X) log X))
        assert zc.s_n_direct(0, alpha, t).value == pytest.approx(
            s, abs=4e-4)

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("alpha", [0.6, 0.75])
    def test_antiderivative_chain(self, n, alpha):
        # d/dt S_{n+1} = S_n away from zeros
        t, h = 33.0, 5e-4
        hi = zc.s_n_direct(n + 1, alpha, t + h).value
        lo = zc.s_n_direct(n + 1, alpha, t - h).value
        mid = zc.s_n_direct(n, alpha, t).value
        assert (hi - lo) / (2 * h) == pytest.approx(mid, abs=5e-4)

    @pytest.mark.parametrize("alpha,t", [(0.6, 14.2), (0.5, 25.3),
                                         (0.75, 500.0)])
    def test_s0_against_mpmath_ray_integral(self, alpha, t):
        # S_0 = -(1/pi) Im integral_alpha^inf zeta'/zeta(sigma+it) dsigma
        # = (1/pi) arg zeta(alpha+it) + 2k: a rough quadrature of the ray
        # integral fixes the branch k, a 30-digit zeta gives the value
        mp = pytest.importorskip("mpmath")

        def im_logderiv(sig):
            s = mp.mpc(sig, t)
            return mp.im(mp.zeta(s, derivative=1) / mp.zeta(s))
        cuts = [c for c in (1, 2, 3, 6, 12, 40, 80) if c > alpha]
        with mp.workdps(15):
            rough = -mp.quad(im_logderiv, [alpha, *cuts, mp.inf],
                             method="gauss-legendre", maxdegree=1) / mp.pi
        with mp.workdps(30):
            arg = mp.arg(mp.zeta(mp.mpc(alpha, t))) / mp.pi
            ref = float(arg + 2 * mp.nint((rough - arg) / 2))
        assert abs(rough - ref) < 0.1
        assert abs(zc.s_n_direct(0, alpha, t).value - ref) <= 1e-12

    def test_zeta_height_limit(self):
        # fails by name before the direct sum is allocated
        for t in (1e6 + 1.0, 1e30):
            with pytest.raises(ResourceError, match="Euler-Maclaurin"):
                zc.zeta(complex(0.5, t))
            with pytest.raises(ResourceError):
                zc.s_n_direct(0, 0.75, t)

    def test_zero_proximity_averaging(self, zeros):
        g1 = zeros.ordinates[0]
        v = zc.s_n_direct(0, 0.5, float(g1), zeros)
        a = zc.s_n_direct(0, 0.5, g1 - 1e-6).value
        b = zc.s_n_direct(0, 0.5, g1 + 1e-6).value
        assert v.value == pytest.approx(0.5 * (a + b), abs=1e-9)

