"""Special-function kernel: oracle values, identities, method agreement."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import loggamma
from scipy.stats import norm

from rislink import specfun
from rislink.errors import DomainError, NumericError
from rislink.fading import FadingParams
from rislink.metrics import LinkConfig, _ber_g_spec, _capacity_g_spec
from rislink.specfun import (
    CF_COMPLEMENT,
    CF_DIRECT,
    CONTOUR_QUADRATURE,
    MAX_CONTOUR_EVALS,
    EvalReport,
    MeijerGSpec,
    _contour_position,
    _contour_quadrature,
    _MellinBarnesIntegrand,
    beta,
    digamma,
    ln_gamma,
    log_betainc,
    meijer_g,
    q_function,
)


def euler_gamma_oracle(n: int = 2000) -> float:
    """Euler-Mascheroni constant from the harmonic series tail expansion."""
    h = sum(1.0 / k for k in range(1, n + 1))
    return h - math.log(n) - 1.0 / (2 * n) + 1.0 / (12 * n**2)


class TestLnGamma:
    def test_at_one(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_factorial_oracle(self):
        assert ln_gamma(5.0) == pytest.approx(math.log(math.factorial(4)), rel=1e-13)

    def test_half(self):
        assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-13)

    @pytest.mark.parametrize("x", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            ln_gamma(x)

    @given(st.floats(min_value=0.5, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_recurrence(self, x):
        assert abs(ln_gamma(x + 1.0) - ln_gamma(x) - math.log(x)) <= 1e-12


class TestDigamma:
    def test_euler_mascheroni(self):
        assert digamma(1.0) == pytest.approx(-euler_gamma_oracle(), abs=1e-11)

    def test_harmonic_shift(self):
        want = digamma(1.0) + 1.0 + 0.5 + 1.0 / 3.0 + 0.25
        assert digamma(5.0) == pytest.approx(want, abs=1e-12)
        assert digamma(5.0) == pytest.approx(1.5061176684318003, abs=1e-10)

    def test_recurrence_at_two(self):
        assert digamma(2.0) == pytest.approx(digamma(1.0) + 1.0, abs=1e-12)

    @given(st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=60, deadline=None)
    def test_recurrence(self, x):
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma(-2.0)


class TestBeta:
    def test_ones(self):
        assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_one_n(self):
        assert beta(1.0, 5.0) == pytest.approx(0.2, rel=1e-13)

    def test_factorials(self):
        # B(2,3) = 1!*2!/4! = 1/12
        assert beta(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-13)

    def test_no_overflow(self):
        v = beta(500.0, 500.0)
        assert 0.0 < v < 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            beta(0.0, 1.0)


class TestQFunction:
    def test_zero(self):
        assert q_function(0.0) == 0.5

    def test_far_tail_underflows_gracefully(self):
        assert q_function(40.0) == pytest.approx(0.0, abs=1e-300)

    def test_inverse_normal_oracle(self):
        x = float(norm.isf(0.1))
        assert q_function(x) == pytest.approx(0.1, rel=1e-12)
        assert x == pytest.approx(1.2815515655, abs=1e-9)

    @given(st.floats(min_value=-8.0, max_value=8.0))
    @settings(max_examples=80, deadline=None)
    def test_symmetry(self, x):
        assert abs(q_function(x) + q_function(-x) - 1.0) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            q_function(float("nan"))


def betainc_value(a: float, b: float, y: float) -> tuple[float, float, str, int]:
    """I_x(a, b) at x = y/(1+y), its absolute error bound, side, iterations."""
    log_value, rel, side, evals = log_betainc(a, b, y)
    value = math.exp(log_value)
    return value, value * rel, side, evals


class TestLogBetainc:
    def test_end_points(self):
        assert log_betainc(3.7, 1.2, 0.0) == (-math.inf, 0.0, CF_DIRECT, 0)
        assert log_betainc(3.7, 1.2, math.inf) == (0.0, 0.0, CF_COMPLEMENT, 0)

    @pytest.mark.parametrize("y", [1e-3, 0.5, 4.0, 300.0])
    @pytest.mark.parametrize("shape", [0.05, 0.5, 3.0, 40.0])
    def test_power_identities(self, shape, y):
        # I_x(a, 1) = x^a and I_x(1, b) = 1 - (1 - x)^b; at b = 0.05 the
        # complement's tail is near 1, so its bound must carry the
        # cancellation of 1 - tail
        value, err, _, _ = betainc_value(shape, 1.0, y)
        want = (y / (1.0 + y)) ** shape
        assert abs(value - want) <= err + 4.0 * np.finfo(float).eps * want
        value, err, _, _ = betainc_value(1.0, shape, y)
        want = -math.expm1(-shape * math.log1p(y))
        assert abs(value - want) <= err + 4.0 * np.finfo(float).eps * want

    @pytest.mark.parametrize("a", [1.0, 10.0, 1e3, 1e6])
    def test_half_at_symmetric_point(self, a):
        # x = 1/2 sits on the side boundary (a+1)/(2a+2), which goes to
        # the complement
        value, err, side, evals = betainc_value(a, a, 1.0)
        assert side == CF_COMPLEMENT
        assert abs(value - 0.5) <= err
        assert evals <= 2000

    @pytest.mark.parametrize("a,b", [(0.5, 50.0), (2.2, 3.1), (40.0, 6.0), (2560.0, 768.0),
                                     (512.0, 51200.0)])
    def test_continuous_across_side_boundary(self, a, b):
        x_b = (a + 1.0) / (a + b + 2.0)
        lo = hi = x_b / (1.0 - x_b)
        while log_betainc(a, b, lo)[2] != CF_DIRECT:
            lo = math.nextafter(lo, 0.0)
        while log_betainc(a, b, hi)[2] != CF_COMPLEMENT:
            hi = math.nextafter(hi, math.inf)
        v_lo, e_lo, _, _ = betainc_value(a, b, lo)
        v_hi, e_hi, _, _ = betainc_value(a, b, hi)
        assert abs(v_lo - v_hi) <= e_lo + e_hi

    @pytest.mark.parametrize("y", [1e-3, 0.3, 1.0, 7.5, 400.0])
    def test_scipy_cross_check(self, y):
        from scipy.special import betainc

        value, _, _, _ = betainc_value(2.2, 3.1, y)
        assert value == pytest.approx(float(betainc(2.2, 3.1, y / (1.0 + y))), rel=1e-12)

    @pytest.mark.parametrize("a,b,y", [(0.0, 1.0, 1.0), (1.0, -2.0, 1.0),
                                       (1.0, math.inf, 1.0), (1.0, 1.0, -0.5),
                                       (1.0, 1.0, math.nan)])
    def test_domain(self, a, b, y):
        with pytest.raises(DomainError):
            log_betainc(a, b, y)

    def test_iteration_cap_is_loud(self, monkeypatch):
        monkeypatch.setattr(specfun, "MAX_CF_ITERATIONS", 3)
        with pytest.raises(NumericError):
            log_betainc(1e4, 1e4, 1.0)


def g11_spec(a: float, b: float, z: float) -> MeijerGSpec:
    return MeijerGSpec([a], [], [b], [], z)


def log_spec(z: float) -> MeijerGSpec:
    return MeijerGSpec([1.0, 1.0], [], [1.0], [0.0], z)


def erfc_spec(z: float) -> MeijerGSpec:
    return MeijerGSpec([], [1.0], [0.0, 0.5], [], z)


# a repeated factor and a unit-shifted numerator/denominator pair in
# each direction of the integrand
SHIFTED_SPEC = MeijerGSpec([0.0, 0.0], [1.5], [0.5, 0.25], [-1.0], 4.0)


class TestMeijerGSpec:
    def test_collision_rejected(self):
        with pytest.raises(DomainError):
            MeijerGSpec([1.0], [], [0.0], [], 1.0)

    def test_collision_larger_integer_rejected(self):
        with pytest.raises(DomainError):
            MeijerGSpec([2.0], [], [0.0], [0.5], 1.0)

    def test_zero_difference_allowed(self):
        MeijerGSpec([1.0], [], [1.0], [], 1.0)

    def test_nonpositive_argument_rejected(self):
        with pytest.raises(DomainError):
            g11_spec(-1.0, 1.0, 0.0)

    def test_shape_properties(self):
        s = MeijerGSpec([0.1, 0.2], [0.3], [1.5], [2.5, 3.5], 1.0)
        assert (s.m, s.n, s.p, s.q) == (1, 2, 3, 3)


class TestMeijerGIdentities:
    def test_binomial_kernel_example(self):
        # a = 1 - 2, b = 1, z = 1: Gamma(3) * 1 * 2^-3
        r = meijer_g(g11_spec(-1.0, 1.0, 1.0))
        assert r.method == CONTOUR_QUADRATURE
        assert r.value == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("m,m_s,z", [(1.0, 2.0, 0.7), (2.5, 5.0, 3.0), (0.5, 1.5, 10.0)])
    def test_binomial_kernel_general(self, m, m_s, z):
        r = meijer_g(g11_spec(1.0 - m_s, m, z))
        want = math.gamma(m + m_s) * z**m * (1.0 + z) ** (-(m + m_s))
        assert r.value == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("z", [0.1, 1.0, 10.0, 100.0])
    def test_log_kernel(self, z):
        r = meijer_g(log_spec(z))
        assert r.value == pytest.approx(math.log1p(z), rel=1e-9)

    @pytest.mark.parametrize("z", [0.01, 1.0, 4.0])
    def test_erfc_kernel(self, z):
        from scipy.special import erfc

        r = meijer_g(erfc_spec(z))
        want = math.sqrt(math.pi) * float(erfc(math.sqrt(z)))
        assert r.value == pytest.approx(want, rel=1e-9)
        assert z != 1.0 or r.value == pytest.approx(0.2788055852806619, rel=1e-9)

    def test_report_invariants(self):
        for spec in (g11_spec(-1.0, 1.0, 1.0), log_spec(5.0), erfc_spec(1.0)):
            r = meijer_g(spec)
            assert isinstance(r, EvalReport)
            assert np.isfinite(r.abs_error_estimate)
            assert r.abs_error_estimate >= 0.0
            assert r.sign in (-1.0, 0.0, 1.0)
            assert r.value == pytest.approx(
                r.sign * math.exp(r.log_abs_value), rel=1e-12
            )

    def test_methods_agree_within_estimates(self):
        # the contour lies within its own error estimate of the exact
        # erfc kernel
        from scipy.special import erfc

        contour = _contour_quadrature(erfc_spec(1.0))
        assert contour.method == CONTOUR_QUADRATURE
        want = math.sqrt(math.pi) * float(erfc(1.0))
        assert abs(contour.value - want) <= contour.abs_error_estimate

    def test_methods_agree_log_kernel(self):
        contour = _contour_quadrature(log_spec(0.25))
        assert abs(contour.value - math.log1p(0.25)) <= contour.abs_error_estimate

    def test_cancelling_pole_families_fall_through_to_contour(self):
        # two far-apart lower parameters whose residue families would
        # cancel each other dozens of digits deep; the contour carries
        # the value
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        spec = MeijerGSpec(
            [1.0, 1.0, -53.537], [], [74.403, 1.0], [0.0], 0.40405797979240027
        )
        got = meijer_g(spec)
        assert got.method == CONTOUR_QUADRATURE
        ref = complex(
            mp.meijerg(
                [[1.0, 1.0, -53.537], []],
                [[74.403, 1.0], [0.0]],
                mp.mpf("0.40405797979240027"),
            )
        )
        assert got.sign * math.exp(got.log_abs_value - math.log(abs(ref.real))) \
            == pytest.approx(1.0, rel=1e-9)

    def test_family_hump_not_truncated_early(self):
        # a power series in z would decay, regrow around the gamma zero
        # crossings, then decay for good; the contour sees no such valley
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 25
        spec = MeijerGSpec([0.2], [], [12.5, 0.0], [], 0.3)
        got = meijer_g(spec)
        ref = complex(mp.meijerg([[0.2], []], [[12.5, 0.0], []], 0.3))
        assert got.value == pytest.approx(ref.real, rel=1e-9)

    def test_over_budget_raises_before_evaluating_nodes(self):
        # a pole-separating gap of 1e-5 narrows the analytic strip, so
        # the step the rule needs makes the node count far exceed the budget
        spec = MeijerGSpec([1.0], [], [1e-5, 0.5], [], 1.0)
        with pytest.raises(NumericError, match="over the budget") as info:
            meijer_g(spec)
        needed, spent = map(int, re.search(
            r"needs (\d+) more nodes after (\d+) integrand", str(info.value)
        ).groups())
        assert needed + spent > MAX_CONTOUR_EVALS
        assert spent < 200

    def test_trapezoid_diagnostics(self):
        r = meijer_g(log_spec(0.25))
        d = r.details
        assert d["nodes"] <= d["evals"] <= MAX_CONTOUR_EVALS
        assert d["t_max"] <= d["step"] * (d["nodes"] - 1) < d["t_max"] + 2 * d["step"]

    def test_no_separating_contour_is_loud(self):
        # overlapping pole families leave no separating contour
        spec = MeijerGSpec([3.2], [], [0.5, 1.5], [], 0.5)
        with pytest.raises(DomainError):
            meijer_g(spec)

    @pytest.mark.parametrize(
        "spec,mp_args",
        [
            (
                MeijerGSpec([0.0, -0.5, -10.0, 0.0], [], [1.0], [0.0, -1.0], 0.01),
                ([[0.0, -0.5, -10.0, 0.0], []], [[1.0], [0.0, -1.0]], 0.01),
            ),
            (
                MeijerGSpec([0.3], [1.2], [0.7, 1.9], [0.1], 2.5),
                ([[0.3], [1.2]], [[0.7, 1.9], [0.1]], 2.5),
            ),
            (
                MeijerGSpec([1.0, 1.0, -3.0], [], [8.0, 1.0], [0.0], 40.0),
                ([[1.0, 1.0, -3.0], []], [[8.0, 1.0], [0.0]], 40.0),
            ),
            (SHIFTED_SPEC, ([[0.0, 0.0], [1.5]], [[0.5, 0.25], [-1.0]], 4.0)),
        ],
    )
    def test_mpmath_cross_check(self, spec, mp_args):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 25
        ref = complex(mp.meijerg(*mp_args))
        assert abs(ref.imag) <= 1e-12 * abs(ref.real)
        got = meijer_g(spec)
        assert got.value == pytest.approx(ref.real, rel=1e-9)


def naive_log_integrand(spec: MeijerGSpec, u):
    """Every gamma factor of the Mellin-Barnes integrand as its own loggamma."""
    return (
        u * math.log(spec.argument)
        + sum(loggamma(b - u) for b in spec.b_front)
        + sum(loggamma(1.0 - a + u) for a in spec.a_front)
        - sum(loggamma(1.0 - b + u) for b in spec.b_rest)
        - sum(loggamma(a - u) for a in spec.a_rest)
    )


_PLAN_MODEL = LinkConfig.from_eta(100.0, FadingParams(m=2.5, m_s=5.0), 8).model()


class TestTermPlan:
    @pytest.mark.parametrize("spec,log_gammas", [
        (SHIFTED_SPEC, 2),
        (_capacity_g_spec(_PLAN_MODEL, 100.0), 4),
        (_ber_g_spec(_PLAN_MODEL, 100.0), 3),
    ])
    def test_merged_terms_match_every_factor(self, spec, log_gammas):
        chi = _MellinBarnesIntegrand(spec)
        c, _, _ = _contour_position(spec, chi)
        u = c + 1j * np.linspace(0.0, 16.0, 257)
        # exp drops the multiples of 2 pi i that merging may add
        ratio = np.exp(chi(u) - naive_log_integrand(spec, u))
        assert np.max(np.abs(ratio - 1.0)) <= 1e-13
        # the gap, widened so that gammaln and log see negative arguments
        left = max(a - 1.0 for a in spec.a_front)
        x = np.linspace(left - 3.0, min(spec.b_front) + 3.0, 257) + 1e-3 * math.pi
        real, cplx = chi.real_axis(x), chi(x.astype(complex)).real
        assert np.all(np.isfinite(real))
        assert np.all(np.abs(real - cplx) <= 1e-13 * (1.0 + np.abs(cplx)))
        assert meijer_g(spec).details["log_gammas"] == log_gammas
