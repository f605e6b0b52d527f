"""Acceptance suite: one test per criterion, driven through selftest."""

import math

import numpy as np
import pytest

from szeta import explicit_formula as ef
from szeta import selftest as st
from szeta.odd_extremal import OddExtremalPair
from szeta.poisson_extremal import PoissonExtremalPair


def _assert_ok(result, max_runtime=None):
    assert result.passed, result.details.get("failures")
    if max_runtime is not None:
        assert result.runtime < max_runtime, (
            f"{result.name} took {result.runtime:.1f}s "
            f"(limit {max_runtime}s)")


def test_criterion_1_poisson_suite():
    _assert_ok(st.check_poisson_suite(), max_runtime=10.0)


def test_criterion_2_odd_suite():
    _assert_ok(st.check_odd_suite(), max_runtime=60.0)


def test_criterion_3_explicit_formula(zeros):
    _assert_ok(st.check_explicit_formula(zeros), max_runtime=60.0)


def test_criteria_2_and_3_build_no_interpolation_nodes(zeros, monkeypatch):
    # check 2's oracles are the interpolation formula and the inverse
    # transform, check 3's arch oracle quadrature in u: neither reads a
    # node set of the interpolation series
    def no_nodes(*args):
        raise AssertionError("interpolation nodes built")
    monkeypatch.setattr(OddExtremalPair, "_nodes", no_nodes)
    _assert_ok(st.check_odd_suite())
    _assert_ok(st.check_explicit_formula(zeros))


def test_criterion_4_theorem1_limits():
    _assert_ok(st.check_theorem1_limits())


def test_criterion_5_corollary_integral():
    _assert_ok(st.check_corollary_integral())


def test_criterion_6_asymptotic_displays():
    _assert_ok(st.check_appendix(), max_runtime=120.0)


def test_criterion_7_representation(zeros):
    _assert_ok(st.check_representation(zeros))


def test_criterion_8_interpolation():
    _assert_ok(st.check_interpolation())


def test_criterion_9_count_cross_route(zeros):
    _assert_ok(st.check_count_cross_route(zeros))


def _shifted(owner, name, by):
    orig = getattr(owner, name)
    return lambda *args: orig(*args) + by


def _ft_shifted_at_one_xi(owner, by):
    # ft + by at xi = 0.3 delta, the first in-band frequency of checks 1-2
    orig = owner.ft
    return lambda self, sign, xi: orig(self, sign, xi) + by * (
        np.asarray(xi) == 0.3 * self.delta)


def _a_scaled(factor, near):
    # real's A+- term times factor at |x| < 4 (near) or |x| >= 4 (not near)
    orig = OddExtremalPair.real_parts

    def real_parts(self, sign, x):
        f, a = orig(self, sign, x)
        return f, a * np.where((np.abs(x) < 4.0) == near, factor, 1.0)
    return real_parts


# (sub-check, check, owner, name, replacement): each pushes one value past
# its band; the bands are the interpolation oracle's tolerances (at most
# 7.2e-14 in check 1 and 7.0e-15 in check 2), 1e-13 target (inverse) and
# 1e-14 (inverse_far, which a far-field A+- off by 1e-9 relative exceeds
# by up to 2.5e-12 in 25 of check 2's 48 pair-signs)
FAULTS = [
    pytest.param("l1", st.check_poisson_suite, PoissonExtremalPair,
                 "l1_gap", _shifted(PoissonExtremalPair, "l1_gap", 1e-10),
                 id="l1"),
    pytest.param("l1", st.check_poisson_suite, PoissonExtremalPair,
                 "l1_gap", lambda self, sign: math.nan, id="l1-nan"),
    pytest.param("ft", st.check_poisson_suite, PoissonExtremalPair, "ft",
                 _ft_shifted_at_one_xi(PoissonExtremalPair, 1e-12),
                 id="poisson-ft"),
    pytest.param("ft", st.check_odd_suite, OddExtremalPair, "ft",
                 _ft_shifted_at_one_xi(OddExtremalPair, 1e-11), id="odd-ft"),
    pytest.param("l1", st.check_odd_suite, OddExtremalPair, "l1_gap",
                 _shifted(OddExtremalPair, "l1_gap", 1e-11), id="odd-l1"),
    pytest.param("inverse", st.check_odd_suite, OddExtremalPair,
                 "real_parts", _a_scaled(1.0 + 1e-9, True), id="inverse"),
    pytest.param("inverse_far", st.check_odd_suite, OddExtremalPair,
                 "real_parts", _a_scaled(1.0 + 1e-9, False), id="far-field"),
    pytest.param("arch", st.check_explicit_formula, ef, "mixture_at",
                 _shifted(ef, "mixture_at", 1e-11), id="arch"),
    pytest.param("diff", st.check_representation, ef, "rep_band",
                 lambda rep: 0.0, id="diff"),
]


@pytest.mark.parametrize("sub, check, owner, name, replacement", FAULTS)
def test_a_value_past_its_band_fails_its_sub_check(
        sub, check, owner, name, replacement, monkeypatch):
    monkeypatch.setattr(owner, name, replacement)
    result = check()
    assert not result.passed
    assert result.details["failures"]
    assert all(f.startswith(f"{sub} ") for f in result.details["failures"])
