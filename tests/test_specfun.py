"""Special-function kernel: oracle values, identities, method agreement."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from rislink import specfun
from rislink.errors import DomainError, NumericError
from rislink.fading import FadingParams
from rislink.metrics import LinkConfig, _ber_form, _capacity_form
from rislink.specfun import (
    CF_COMPLEMENT,
    CF_DIRECT,
    CONTOUR_QUADRATURE,
    MAX_CONTOUR_EVALS,
    EvalReport,
    MeijerGSpec,
    _block_plan,
    _contour_position,
    _MellinBarnesIntegrand,
    _saddle_grid,
    digamma,
    log_betainc,
    log_gamma,
    meijer_g,
    meijer_g_batch,
    q_function,
)


def euler_gamma_oracle(n: int = 2000) -> float:
    """Euler-Mascheroni constant from the harmonic series tail expansion."""
    h = sum(1.0 / k for k in range(1, n + 1))
    return h - math.log(n) - 1.0 / (2 * n) + 1.0 / (12 * n**2)


def ln_beta(x: float, y: float) -> float:
    """log B(x, y) as the closed forms combine log_gamma."""
    return log_gamma(x) + log_gamma(y) - log_gamma(x + y)


class TestLnGamma:
    def test_at_one(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0

    def test_factorial_oracle(self):
        # Gamma(5) = 4!
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-15)

    def test_half(self):
        # Gamma(1/2)^2 = pi
        assert 2.0 * log_gamma(0.5) == pytest.approx(math.log(math.pi), rel=1e-15)

    @pytest.mark.parametrize("x", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain(self, x):
        # a pole or an overflow is +inf, and nan stays nan: log_gamma never
        # raises, and each caller decides what such a term means
        got = log_gamma(x)
        assert math.isnan(got) if math.isnan(x) else got == math.inf
        assert log_gamma(1e308) == math.inf

    @given(st.floats(min_value=0.5, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_recurrence(self, x):
        # ln Gamma(x + 1) - ln Gamma(x) = ln x
        assert abs(ln_beta(x, 1.0) + math.log(x)) <= 1e-12


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
        assert math.exp(ln_beta(1.0, 1.0)) == pytest.approx(1.0, rel=1e-14)

    def test_one_n(self):
        assert math.exp(ln_beta(1.0, 5.0)) == pytest.approx(0.2, rel=1e-13)

    def test_factorials(self):
        # B(2,3) = 1!*2!/4! = 1/12
        assert math.exp(ln_beta(2.0, 3.0)) == pytest.approx(1.0 / 12.0, rel=1e-13)

    def test_no_overflow(self):
        v = math.exp(ln_beta(500.0, 500.0))
        assert 0.0 < v < 1.0

    def test_domain(self):
        # a pole of Gamma(x) leaves B(x, y) infinite, not an error
        assert ln_beta(0.0, 1.0) == math.inf


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

    @pytest.mark.parametrize("a,b,y,what", [
        (1.024e33, 1024.0001024, 1.9484981596119805e27, "continued fraction is -0.00195"),
        (1e308, 1e300, 1.0, "log terms leave double range"),
        (8e300, 40.0, 4.988155787422199e298, "tail has relative error 4.916e\\+288"),
    ])
    def test_fraction_or_terms_outside_doubles_are_loud(self, a, b, y, what):
        # a fraction that comes out negative has no log, gammaln(a + b)
        # and gammaln(a) both overflow, to +inf and -inf terms, and on the
        # complement side a tail whose terms cancel misses the accuracy
        # target: it underflows, and 1 - tail would read 1 +- an ulp
        with pytest.raises(NumericError, match=f"{what}.* at {re.escape(repr((a, b, y)))}"):
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
        # a_front - b_front = 1 leaves the pole families no gap
        with pytest.raises(DomainError, match="no separating contour"):
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
        s = MeijerGSpec([0.1, 0.2], [2.3], [1.5], [-2.5], 1.0)
        assert (s.m, s.n, s.p, s.q) == (1, 2, 3, 2)
        assert s.decay == pytest.approx(0.5 * math.pi)

    @pytest.mark.parametrize("row", ["a_front", "a_rest", "b_front", "b_rest"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_parameter_rejected(self, row, bad):
        # b_front = (inf,) once ran 67,734 evaluations before failing, and
        # a_rest = (inf,) raised OverflowError from the term plan
        rows = {"a_front": [1.0], "a_rest": [], "b_front": [0.5], "b_rest": []}
        rows[row] = rows[row] + [bad]
        with pytest.raises(DomainError, match=f"parameters {row} must be finite"):
            MeijerGSpec(**rows, argument=1.0)

    @pytest.mark.parametrize("rows,pair", [
        # the pole-collision check, and the term plan's fold, once raised a
        # bare OverflowError from round(inf)
        (([1e308], [], [-1e308], []), "a_front value 1e+308 and b_front value -1e+308"),
        (([-1e308], [], [0.5], [1.7e308]), "a_front value -1e+308 and b_rest value 1.7e+308"),
        (([], [-1.7e308], [1e308], []), "b_front value 1e+308 and a_rest value -1.7e+308"),
        # a gap too wide for a double: the contour's grid would turn to nan
        (([-1e308], [], [1e308], []), "a_front value -1e+308 and b_front value 1e+308"),
    ])
    def test_parameters_beyond_double_range_of_each_other_rejected(self, rows, pair):
        message = f"{pair} differ by more than double range"
        with pytest.raises(DomainError, match=re.escape(message)):
            MeijerGSpec(*rows, 1.0)

    @pytest.mark.parametrize("rows,term", [
        # 1/Gamma(-1e5 - u) on the gap (-0.5, 0.7), and 1/Gamma(-4 + u)
        (([0.5], [-1e5], [0.7], []), "Gamma(-100000.0 - u) reaches real part -100000.69"),
        (([0.5], [], [0.7], [5.0]), "Gamma(-4.0 + u) reaches real part -4.49"),
    ])
    def test_log_gamma_below_zero_rejected(self, rows, term):
        # the contour's Lanczos log-gamma holds at real parts >= 0, which
        # every term of the capacity and BER closed forms keeps
        with pytest.raises(DomainError, match=re.escape(term)):
            MeijerGSpec(*rows, 1.0)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4000), *(st.floats(math.log(lo), math.log(hi)) for lo, hi in (
    (0.01, 1e4), (1.001, 1e4))), st.floats(-40.0, 80.0), st.sampled_from([0.5, 1.0]))
def test_closed_forms_keep_every_log_gamma_at_or_above_zero(n, log_m, log_m_s, eta_db, lam):
    # the capacity and BER specs of the link domain build their plans: no
    # DomainError, the one for a log-gamma below 0 included
    cfg = LinkConfig.from_eta(10.0 ** (eta_db / 10.0),
                              FadingParams(math.exp(log_m), math.exp(log_m_s)), n,
                              lambda_mod=lam)
    for form in (_capacity_form, _ber_form):
        try:
            plan = form(cfg).spec.plan
        except NumericError:  # a BER pole gap or argument past the doubles
            continue
        assert min(o - plan.grid[0, -1] if d else o + plan.grid[0, 0]
                   for d, o, _ in plan.gammas) >= 0.0


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
            assert 0.0 <= r.details["rel_error"] < math.inf
            assert r.sign in (-1.0, 0.0, 1.0)
            assert r.value == pytest.approx(
                r.sign * math.exp(r.log_abs_value), rel=1e-12
            )

    def test_methods_agree_within_estimates(self):
        # the contour lies within its own error estimate of the exact
        # erfc kernel
        from scipy.special import erfc

        contour = meijer_g(erfc_spec(1.0))
        assert contour.method == CONTOUR_QUADRATURE
        want = math.sqrt(math.pi) * float(erfc(1.0))
        assert abs(contour.value - want) <= abs(contour.value) * contour.details["rel_error"]

    def test_methods_agree_log_kernel(self):
        contour = meijer_g(log_spec(0.25))
        assert abs(contour.value - math.log1p(0.25)) <= (
            abs(contour.value) * contour.details["rel_error"])

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

    def test_over_budget_raises_before_evaluating_nodes(self, monkeypatch):
        # the saddle search and the probes fit a budget of 200; the nodes
        # of the rule do not
        monkeypatch.setattr(specfun, "MAX_CONTOUR_EVALS", 200)
        spec = MeijerGSpec([1.0], [], [1e-5, 0.5], [], 1.0)
        with pytest.raises(NumericError, match="over the budget") as info:
            meijer_g(spec)
        needed, spent = map(int, re.search(
            r"needs (\d+) more nodes after (\d+) integrand", str(info.value)
        ).groups())
        assert needed + spent > specfun.MAX_CONTOUR_EVALS
        assert spent < 200

    def test_trapezoid_diagnostics(self):
        r = meijer_g(log_spec(0.25))
        d = r.details
        assert d["nodes"] <= d["evals"] <= MAX_CONTOUR_EVALS
        # the nodes run over x, t = scale sinh(x), to the first even
        # node count past the cut
        x_max = math.asinh(d["t_max"] / d["scale"])
        assert x_max <= d["step"] * (d["nodes"] - 1) < x_max + 2 * d["step"]

    def test_narrow_pole_gap_matches_mpmath(self):
        # a gap of 1e-5 between the poles at 0 and 1e-5; 40 digits from
        #   mpmath.meijerg([[1.0], []], [[mpmath.mpf(1e-5), 0.5], []], 1)
        r = meijer_g(MeijerGSpec([1.0], [], [1e-5, 0.5], [], 1.0))
        assert abs(r.value - 177243.7754066813630087) <= abs(r.value) * r.details["rel_error"]
        assert r.details["scale"] < 1e-5 and r.details["evals"] < 1000

    def test_no_separating_contour_is_loud(self):
        # overlapping pole families leave no separating contour
        with pytest.raises(DomainError, match="no separating contour"):
            MeijerGSpec([3.2], [], [0.5, 1.5], [], 0.5)

    def test_no_front_parameters_lack_decay(self):
        # m = n = 0: no pole family on either side, and no exponential decay
        with pytest.raises(DomainError, match="lacks exponential decay"):
            meijer_g(MeijerGSpec([], [1.0], [], [0.0], 1.0))

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
    """Every gamma factor of the Mellin-Barnes integrand as its own
    log-gamma, at 30 digits, at each point of u."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    return np.array([complex(
        v * mp.log(spec.argument)
        + sum(mp.loggamma(b - v) for b in spec.b_front)
        + sum(mp.loggamma(1 - a + v) for a in spec.a_front)
        - sum(mp.loggamma(1 - b + v) for b in spec.b_rest)
        - sum(mp.loggamma(a - v) for a in spec.a_rest)
    ) for v in map(mp.mpc, np.ravel(u))])


def _plan_cfg(eta: float) -> LinkConfig:
    return LinkConfig.from_eta(eta, FadingParams(m=2.5, m_s=5.0), 8)


class TestTermPlan:
    @pytest.mark.parametrize("spec,log_gammas", [
        (SHIFTED_SPEC, 2),
        (_capacity_form(_plan_cfg(100.0)).spec, 4),
        (_ber_form(_plan_cfg(100.0)).spec, 3),
    ])
    def test_merged_terms_match_every_factor(self, spec, log_gammas):
        chi = _MellinBarnesIntegrand([spec])
        c = _contour_position(chi)[0][0]
        t = np.linspace(0.0, 16.0, 257)
        re, im = chi.at(c)(t)
        # exp drops the multiples of 2 pi i that merging may add
        ratio = np.exp(re[0] + 1j * im[0] - naive_log_integrand(spec, c + 1j * t))
        assert np.max(np.abs(ratio - 1.0)) <= 1e-13
        # the first saddle pass's span, on the real path and on the complex
        # one at t = 0
        x = spec.plan.grid[0]
        real, cplx = chi.real_axis(x), chi.at(x)(0.0)[0]
        assert np.all(np.isfinite(real))
        assert np.all(np.abs(real - cplx) <= 1e-13 * (1.0 + np.abs(cplx)))
        assert meijer_g(spec).details["log_gammas"] == log_gammas


class TestBlockPlan:
    """The per-block set-up is cached on the parameter rows alone."""

    ETAS = np.logspace(-2, 6, 12)
    FAMILY = [_capacity_form(_plan_cfg(eta)).spec for eta in ETAS]

    def test_family_builds_its_plan_once(self):
        _block_plan.cache_clear()
        family = [_capacity_form(_plan_cfg(eta)).spec for eta in self.ETAS]
        info = _block_plan.cache_info()
        assert (info.misses, info.hits) == (1, len(family) - 1)
        reports = [meijer_g(spec) for spec in family]
        # each report equals one of a spec built from an empty cache
        for eta, report in zip(self.ETAS, reports):
            _block_plan.cache_clear()
            assert meijer_g(_capacity_form(_plan_cfg(eta)).spec) == report

    def test_evals_count_the_shared_pass(self):
        # one 65-node saddle pass (this spec's first pass resolves its
        # saddle), 19 truncation probes and the rule's nodes out to t = 32,
        # evaluated with the probes, of which the cut at t = 16 takes 101,
        # whether the spec's first pass came from the cache or not
        _block_plan.cache_clear()
        for _ in range(2):
            d = meijer_g(_capacity_form(_plan_cfg(self.ETAS[0])).spec).details
            reach = 2 * math.ceil(math.asinh(specfun._REACH / d["scale"]) / 0.1) + 1
            assert (d["t_max"], d["step"], d["nodes"], reach) == (16.0, 0.05, 101, 115)
            assert d["evals"] == 65 + 19 + reach

    def test_cached_arrays_are_read_only(self):
        spec = self.FAMILY[0]
        plan = _block_plan(spec.a_front, spec.a_rest, spec.b_front, spec.b_rest)
        assert plan.grid.shape == plan.base.shape == (1, 65)
        # the first pass, and each term's offset, sign and weights
        for a in (plan.grid, plan.base, plan.offsets, plan.signs,
                  *(v for v in plan.weights if isinstance(v, np.ndarray))):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_no_gap_is_not_cached(self):
        _block_plan.cache_clear()
        for _ in range(2):
            with pytest.raises(DomainError, match="no separating contour"):
                MeijerGSpec([3.2], [], [0.5, 1.5], [], 0.5)
        assert _block_plan.cache_info().currsize == 0

    @pytest.mark.parametrize("lo,hi", [(-1.0 + 1e-6, 8.0 - 1e-6), (0.3, 0.30000000001),
                                       (-41.0, -1.000001), (1e-6, 40.0)])
    def test_saddle_grid_is_linspace(self, lo, hi):
        assert np.array_equal(_saddle_grid(lo, hi), np.linspace(lo, hi, 65))


def ber_point_specs(p_s_dbm: float) -> list:
    """The 8 BER specs of one point of configs/ber_vs_power.ini, in row
    order: N 8, 16, then m_s 2, 5, then lambda 0.5, 1."""
    eta = 10.0 ** (p_s_dbm / 10.0)
    return [_ber_form(LinkConfig.from_eta(eta, FadingParams(1.0, m_s), n, lambda_mod=lam)).spec
            for n in (8, 16) for m_s in (2.0, 5.0) for lam in (0.5, 1.0)]


def scatter_specs(seed: int, points: int) -> list:
    """The capacity and BER specs of points drawn log-uniformly over the
    scatter box, in point order: N 1-1024, m 0.5-10, m_s 1.1-50, eta
    -20..60 dB uniformly, and lambda 1/2 or 1."""
    rng = np.random.default_rng(seed)
    n = np.rint(np.exp(rng.uniform(0.0, math.log(1024.0), points))).astype(int)
    m = np.exp(rng.uniform(math.log(0.5), math.log(10.0), points))
    m_s = np.exp(rng.uniform(math.log(1.1), math.log(50.0), points))
    eta = 10.0 ** (rng.uniform(-20.0, 60.0, points) / 10.0)
    lam = rng.choice([0.5, 1.0], points)
    cfgs = [LinkConfig.from_eta(float(e), FadingParams(float(a), float(b)), int(k),
                                lambda_mod=float(q)) for k, a, b, e, q in zip(n, m, m_s, eta, lam)]
    return [form(cfg).spec for cfg in cfgs for form in (_capacity_form, _ber_form)]


def rebuilt(spec: MeijerGSpec) -> MeijerGSpec:
    """The spec built anew, its block plan with it if the cache is empty."""
    return MeijerGSpec(spec.a_front, spec.a_rest, spec.b_front, spec.b_rest, spec.argument)


def lone(spec: MeijerGSpec):
    """meijer_g(spec), or the NumericError it raises."""
    try:
        return meijer_g(spec)
    except NumericError as exc:
        return exc


def assert_same_report(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert (got.method, got.log_abs_value, got.sign, got.details) == (
            want.method, want.log_abs_value, want.sign, want.details)


class TestBatch:
    """Each row of meijer_g_batch is its lone call's report, bit for bit."""

    # at -19 dBm rows 0, 2, 4, 5 and 6 halve the step once, to 181-197 nodes
    BER_POINT = ber_point_specs(-19.0)
    # two 1/Gamma(1.5 - u) factors outgrow the decay of Gamma(0.5 - u) on
    # the line until Gamma(1000 - u)^2 turns it, and z^u oscillates fast:
    # the rule halves its step past the node budget
    OVER_BUDGET = MeijerGSpec([], [1.5, 1.5], [0.5, 1000.0, 1000.0], [], 1e300)
    # 12 points, 24 rows over the scatter box
    SCATTER = scatter_specs(4, 12)

    def test_rows_of_mixed_plans_match_lone_calls(self):
        specs = [*self.BER_POINT[:4], self.OVER_BUDGET, *self.BER_POINT[4:],
                 _capacity_form(_plan_cfg(100.0)).spec, SHIFTED_SPEC]
        reports = meijer_g_batch(specs)
        assert isinstance(reports[4], NumericError)
        assert [r.details["step"] for r in reports[:4] + reports[5:9]] == [
            0.025, 0.05, 0.025, 0.05, 0.025, 0.025, 0.025, 0.05]
        for spec, report in zip(specs, reports):
            assert_same_report(report, lone(spec))
        assert meijer_g_batch([]) == []

    def test_scatter_rows_match_lone_calls(self, monkeypatch):
        want = [meijer_g(spec) for spec in self.SCATTER]
        details = [r.details for r in want]
        # the rows cover cuts past the nodes the probes' call evaluates,
        # second saddle passes and steps halved twice and three times
        assert {d["t_max"] for d in details} >= {128.0, 256.0, 512.0}
        assert {d["step"] for d in details} >= {0.05, 0.025, 0.0125, 0.00625}
        assert max(_contour_position(_MellinBarnesIntegrand([spec]))[0][4]
                   for spec in self.SCATTER) == 2
        # a budget that the costliest row alone overruns, beside a row
        # that fails on its own
        budget = max(d["evals"] for d in details) - 1
        monkeypatch.setattr(specfun, "MAX_CONTOUR_EVALS", budget)
        specs = [*self.SCATTER, self.OVER_BUDGET]
        reports = meijer_g_batch(specs)
        costliest = [d["evals"] for d in details].index(budget + 1)
        assert [i for i, r in enumerate(reports) if isinstance(r, NumericError)] == [
            costliest, len(self.SCATTER)]
        assert "over the budget" in str(reports[costliest])
        for spec, report in zip(specs, reports):
            assert_same_report(report, lone(spec))
        for i, (report, report_alone) in enumerate(zip(reports, want)):
            if i != costliest:
                assert_same_report(report, report_alone)

    @pytest.mark.parametrize("reach", [0.25, 1024.0])
    def test_reports_do_not_depend_on_the_reach(self, monkeypatch, reach):
        # every cut past the probes' nodes, or none: the nodes the rule
        # adds past a row's reach are the same bits, and only evals moves
        want = meijer_g_batch(self.SCATTER)
        monkeypatch.setattr(specfun, "_REACH", reach)
        for got, report in zip(meijer_g_batch(self.SCATTER), want):
            got_details, want_details = dict(got.details), dict(report.details)
            del got_details["evals"], want_details["evals"]
            assert (got.log_abs_value, got.sign, got_details) == (
                report.log_abs_value, report.sign, want_details)

    def test_failing_rows_leave_their_group_unchanged(self, monkeypatch):
        # a budget that the five rows whose step halves overrun, each by
        # its own count of nodes: row 2's cut at t = 16 leaves 14 of the
        # nodes out to t = 32 unused, which count all the same
        monkeypatch.setattr(specfun, "MAX_CONTOUR_EVALS", 260)
        reports = meijer_g_batch(self.BER_POINT)
        assert [i for i, r in enumerate(reports) if isinstance(r, NumericError)] == [
            0, 2, 4, 5, 6]
        assert "needs 90 more nodes after 189" in str(reports[2])
        assert "needs 98 more nodes after 183" in str(reports[4])
        for spec, report in zip(self.BER_POINT, reports):
            assert_same_report(report, lone(spec))


class TestCallCount:
    """A lone contour makes one line call for its probes and its rule's
    first pass, one more for the rest of a first pass past the probes'
    reach, and one per halving; and one real call per saddle pass, the
    first one the block plan's.  In a batch, the call that completes one
    row's first pass halves another row's step."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"real": 0, "line": 0}
        line, real = specfun._LogGammaSum.__call__, specfun._LogGammaSum.real

        def counted_line(self, y):
            counts["line"] += 1
            return line(self, y)

        def counted_real(self):
            counts["real"] += 1
            return real(self)

        monkeypatch.setattr(specfun._LogGammaSum, "__call__", counted_line)
        monkeypatch.setattr(specfun._LogGammaSum, "real", counted_real)
        return counts

    @pytest.mark.parametrize("spec,t_max,step,want", [
        # one saddle pass, the cut at t = 16 and the first step: nothing
        # beyond the probes' call
        (_capacity_form(_plan_cfg(0.01)).spec, 16.0, 0.05, {"real": 1, "line": 1}),
        # two saddle passes, and a cut past the reach
        (TestBatch.SCATTER[1], 128.0, 0.05, {"real": 2, "line": 2}),
        # two halvings
        (TestBatch.SCATTER[23], 32.0, 0.0125, {"real": 2, "line": 3}),
        # a cut past the reach and three halvings
        (TestBatch.SCATTER[17], 256.0, 0.00625, {"real": 2, "line": 5}),
    ])
    def test_calls_per_contour(self, calls, spec, t_max, step, want):
        _block_plan.cache_clear()
        d = meijer_g(rebuilt(spec)).details
        assert (d["t_max"], d["step"]) == (t_max, step)
        assert calls == want

    def test_first_pass_completes_beside_a_halving(self, calls):
        # the rules' first call evaluates the rest of SCATTER[1]'s first
        # pass, past the reach, and SCATTER[23]'s first halving; its second
        # halving is the third line call
        specs = [TestBatch.SCATTER[1], TestBatch.SCATTER[23]]
        want = [meijer_g(spec) for spec in specs]
        calls["line"] = 0
        reports = meijer_g_batch(specs)
        assert calls["line"] == 3
        for report, report_alone in zip(reports, want):
            assert_same_report(report, report_alone)


# a few hundred can put the integrand on the contour past double range of
# its saddle value, where the rule's sum turns inf or nan
PARAMETER = st.floats(-300.0, 300.0)


@st.composite
def spec_rows(draw):
    """Random finite rows and argument; the first a_front value may sit
    at, or within 1e-6 of, a positive integer above the first b_front."""
    a_front, a_rest, b_front, b_rest = (draw(st.lists(PARAMETER, max_size=3))
                                        for _ in range(4))
    if a_front and b_front and draw(st.booleans()):
        shift = draw(st.sampled_from([0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6]))
        a_front[0] = b_front[0] + draw(st.integers(1, 3)) + shift
    return a_front, a_rest, b_front, b_rest, draw(st.floats(1e-3, 1e3))


# two 1/Gamma(1.5 - u) factors outgrow the decay of Gamma(0.5 - u) on the
# line for thousands of units of t, until Gamma(1e4 - u)^2 turns it: exp
# overflows there
OVERFLOWING_ROWS = ([], [1.5, 1.5], [0.5, 1e4, 1e4], [], 1.0)


@settings(max_examples=200, deadline=None)
@given(spec_rows())
@example(OVERFLOWING_ROWS)
def test_a_built_spec_meets_only_numeric_errors(rows):
    # every DomainError comes from construction; the batch returns a report
    # or a NumericError, and raises nothing
    try:
        spec = MeijerGSpec(*rows)
    except DomainError:
        return
    (report,) = meijer_g_batch([spec])
    assert isinstance(report, (EvalReport, NumericError))


def test_non_finite_rule_sum_fails_at_once():
    # no later pass drops a node, so the first non-finite sum is the last
    (report,) = meijer_g_batch([MeijerGSpec(*OVERFLOWING_ROWS)])
    assert isinstance(report, NumericError)
    assert str(report) == "contour quadrature rule sum is nan after 430 integrand evaluations"


class TestNumpyRoutes:
    """The log-gamma, digamma and log-Q routes against 30-digit mpmath,
    at seeded points, within the bounds their docstrings state."""

    EPS = float(np.finfo(float).eps)

    @staticmethod
    def _phase_gap(a: float, b: float) -> float:
        return abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)

    @staticmethod
    def _log_gamma(x: np.ndarray):
        """ln Gamma(x + i y) as the contour evaluates one log-gamma term at
        the (rows, nodes) arguments x: a _LogGammaSum of that one term."""
        weights = specfun._term_weights([1.0], [1.0], [], [])
        return specfun._LogGammaSum(x[None], weights)

    def test_complex_log_gamma(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        rng = np.random.default_rng(31)
        x = np.concatenate([10.0 ** rng.uniform(math.log10(0.05), 7.0, 300),
                            rng.uniform(0.05, 0.5, 100), rng.uniform(-40.0, 0.5, 100)])
        y = rng.choice([-1.0, 1.0], x.size) * np.concatenate(
            [[0.0] * 20, 2.0 ** rng.uniform(-8.0, 16.0, x.size - 20)])
        # the contour's terms keep x >= 0
        x, y = x[x >= 0.0], y[x >= 0.0]
        # one line of nodes per x, as the contour evaluates them, and every
        # node on its own
        for re, im in (self._log_gamma(x[:, None])(y[:, None]), self._log_gamma(x[None])(y)):
            for xi, yi, r, i in zip(x, y, re.ravel(), im.ravel()):
                ref = complex(mp.loggamma(mp.mpc(xi, yi)))
                bound = 4.0 * self.EPS * max(abs(ref), 4.0)
                assert abs(r - ref.real) <= bound, (xi, yi)
                assert self._phase_gap(i, ref.imag) <= bound, (xi, yi)

    def test_real_log_gamma(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        rng = np.random.default_rng(32)
        x = np.concatenate([10.0 ** rng.uniform(-300.0, 15.0, 200),
                            rng.uniform(0.0, 0.5, 200), [0.5, 1.0, 2.0]])
        got = self._log_gamma(x[None]).real()[0]
        for xi, g in zip(x, got):
            ref = float(mp.loggamma(xi))
            assert abs(g - ref) <= 4.0 * self.EPS * max(abs(ref), 4.0), xi
        # the pole at 0
        with np.errstate(divide="ignore"):
            assert self._log_gamma(np.zeros((1, 1))).real().tolist() == [[math.inf]]

    def test_digamma(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        rng = np.random.default_rng(33)
        for x in [*10.0 ** rng.uniform(-300.0, 300.0, 300), 1.4616321449683622, 10.0, 9.999]:
            ref = float(mp.digamma(x))
            assert abs(digamma(x) - ref) <= 4.0 * self.EPS * (abs(ref) + 1.0), x

    def test_log_q(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        rng = np.random.default_rng(34)
        x = np.concatenate([10.0 ** rng.uniform(-300.0, 300.0, 300), [0.0, 675.0, 676.0, 677.0]])
        for got in (specfun.log_q_snr(x), [specfun.log_q_snr(v) for v in x]):
            for xi, g in zip(x, got):
                ref = float(mp.log(mp.erfc(mp.sqrt(mp.mpf(xi))) / 2))
                assert abs(g - ref) <= 2.0 * self.EPS * (abs(ref) + 1.0), xi
