import math

import pytest
from hypothesis import given, settings, strategies as st

from szeta import bounds as bd
from szeta.numkit import DomainError

T_BIG = math.exp(math.exp(4.5))
ALPHAS = st.floats(min_value=0.55, max_value=0.95)


class TestConstants:
    def test_c_odd_rejects_even_n(self):
        with pytest.raises(DomainError):
            bd.c_odd(2, 0.6, T_BIG, "+")

    def test_c_even_rejects_odd_n(self):
        with pytest.raises(DomainError):
            bd.c_even(1, 0.6, T_BIG)

    def test_c_odd_needs_t_above_e(self):
        with pytest.raises(DomainError):
            bd.c_odd(1, 0.6, math.e, "+")

    def test_c_n_checks_sign_for_even_n(self):
        with pytest.raises(DomainError):
            bd.c_n(2, 0.6, T_BIG, "x")

    def test_alpha_half_closed_form_accepted(self):
        v = bd.c_odd(1, 0.5, T_BIG, "+")
        assert v > 0

    def test_n_minus1_plus_diverges_at_half(self):
        with pytest.raises(DomainError):
            bd.c_odd(-1, 0.5, T_BIG, "+")

    @given(st.sampled_from([1, 3, 5, 7]), ALPHAS)
    @settings(max_examples=30, deadline=None)
    def test_parity_alternation(self, n, alpha):
        # the half-line limits alternate which sign carries the larger
        # constant with n mod 4; at finite alpha the ordering persists
        cp = bd.c_odd(n, alpha, T_BIG, "+")
        cm = bd.c_odd(n, alpha, T_BIG, "-")
        assert cp > 0 and cm > 0
        if n % 4 == 1:
            assert cp < cm
        else:
            assert cp > cm

    def test_theorem1_known_values(self):
        assert bd.theorem1_constant(0, "+") == pytest.approx(0.25)
        assert bd.theorem1_constant(1, "-") == pytest.approx(
            math.pi / 24, rel=1e-12)
        assert bd.theorem1_constant(1, "+") == pytest.approx(
            math.pi / 48, rel=1e-12)
        assert bd.theorem1_constant(3, "+") == pytest.approx(
            math.pi ** 3 / 1440, rel=1e-12)
        assert bd.theorem1_constant(3, "-") == pytest.approx(
            7.0 / 8.0 * math.pi ** 3 / 1440, rel=1e-12)

    @given(ALPHAS)
    @settings(max_examples=30, deadline=None)
    def test_monotone_shift_term(self, alpha):
        # (2a-1)/(a(1-a)) increases on (1/2, 1)
        f = lambda a: (2 * a - 1) / (a * (1 - a))
        assert f(alpha + 1e-4) > f(alpha)


class TestEnvelope:
    def test_region_enforced(self):
        with pytest.raises(DomainError):
            bd.envelope(0, 0.75, 1e6, 1.0)
        with pytest.raises(DomainError):
            bd.envelope(0, 0.95, T_BIG, 1.0)

    def test_shape(self):
        env = bd.envelope(1, 0.7, T_BIG, 0.2)
        assert env.lower_main < 0 < env.upper_main
        assert env.ell > 0 and env.err_scale > 0
        assert env.err_scale == pytest.approx(
            env.ell / ((1 - 0.7) ** 2 * math.log(math.log(T_BIG))),
            rel=1e-12)

    @pytest.mark.parametrize("n", [0, 2])
    def test_even_n_constant_evaluated_once(self, n, monkeypatch):
        calls = []
        c_even = bd.c_even
        monkeypatch.setattr(bd, "c_even",
                            lambda *a: calls.append(a) or c_even(*a))
        env = bd.envelope(n, 0.7, T_BIG, 0.2)
        assert len(calls) == 1
        assert env.upper_main == -env.lower_main

    def test_n_minus1_asymmetric_error(self):
        env = bd.envelope(-1, 0.7, T_BIG, 0.2)
        assert env.err_scale_lower < env.err_scale_upper
        assert env.err_scale_upper == pytest.approx(
            env.err_scale_lower / (0.7 - 0.5) ** 2, rel=1e-12)

    @given(st.sampled_from([-1, 0, 1, 2, 3]))
    @settings(max_examples=10, deadline=None)
    def test_continuity_in_alpha(self, n):
        # no branch artifacts: small alpha steps move the mains smoothly
        step = 1e-5
        alphas = [0.6 + k * step for k in range(6)]
        vals = [bd.envelope(n, a, T_BIG, 0.2).upper_main
                for a in alphas]
        diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
        scale = abs(vals[0]) * step * 50
        assert all(d <= scale for d in diffs)


class TestInterp:
    @given(st.sampled_from([0, 2, 4]), ALPHAS)
    @settings(max_examples=30, deadline=None)
    def test_lambda_window_and_split(self, n, alpha):
        ip = bd.interp_params(n, alpha, T_BIG)
        assert 0.5 <= ip.lam <= 2.0
        assert ip.a + ip.b == pytest.approx(1.0, abs=1e-12)
        assert ip.nu == pytest.approx(
            ip.lam / math.log(math.log(T_BIG)), rel=1e-12)

    def test_plugback_exact(self):
        for n in (2, 4):
            alpha, t = 0.7, T_BIG
            ip = bd.interp_params(n, alpha, t)
            cp = bd.c_odd(n + 1, alpha, t, "+")
            cm = bd.c_odd(n + 1, alpha, t, "-")
            ch = ip.a * bd.c_odd(n - 1, alpha, t, "-")
            val = (cp + cm) / ip.lam + ch * ip.lam / 2
            assert val == pytest.approx(
                bd.c_even(n, alpha, t), rel=1e-13)


class TestCheckEnvelope:
    def test_report_only_small_t(self, zeros):
        chk = bd.check_envelope(0, 0.75, 500.0, 1.0, zeros=zeros)
        assert chk.region_ok is False
        assert chk.inside is True  # wide band at desk scale

    def test_zero_slack_band(self, zeros):
        chk = bd.check_envelope(0, 0.75, 500.0, 1.0, zeros=zeros,
                                slack=0.0)
        assert chk.band_lower == chk.envelope.lower_main
        assert chk.band_upper == chk.envelope.upper_main

    def test_band_scales_with_slack(self, zeros):
        c1 = bd.check_envelope(0, 0.75, 500.0, 1.0, zeros=zeros,
                               slack=1.0)
        c2 = bd.check_envelope(0, 0.75, 500.0, 1.0, zeros=zeros,
                               slack=2.0)
        w1 = c1.band_upper - c1.band_lower
        w2 = c2.band_upper - c2.band_lower
        base = c1.envelope.upper_main - c1.envelope.lower_main
        assert w2 - base == pytest.approx(2 * (w1 - base), rel=1e-9)
