"""Closed-form metrics: examples, monotonicity, scaling, asymptotics."""

import math
import warnings

import numpy as np
import pytest

from rislink import metrics
from rislink.cli import _eta
from rislink.errors import ConfigError, DomainError, NumericError, positive
from rislink.fading import PHYSICAL_DRAW, FadingParams, SumFadingModel, sum_cdf
from rislink.metrics import (
    LinkConfig,
    _ber_form,
    _capacity_form,
    avg_ber,
    avg_ber_asymptotic,
    avg_capacity,
    avg_capacity_asymptotic,
    outage,
    outage_asymptotic,
    physical_capacity,
    snr_threshold_from_db,
)
from rislink.specfun import MeijerGSpec, digamma, meijer_g
from rislink.validation import CAPACITY, McConfig, mc_metric, quad_ber, quad_capacity, quad_outage

F15 = FadingParams(m=1.0, m_s=5.0)

# frozen from high-precision quadrature of the defining integrals at
# (N=1, m=1, m_s=5, eta=100, lambda=1)
GOLDEN_CAPACITY = 6.0317707987276533
GOLDEN_BER = 0.0024777588834653326


def cfg_eta(eta, fading=F15, n=1, lam=1.0):
    return LinkConfig.from_eta(eta, fading, n, lambda_mod=lam)


class TestLinkConfig:
    def test_eta(self):
        # the CLI derives eta = P_s r_d^(-beta) / N_0 from dBm and geometry;
        # LinkConfig holds the result
        eta = _eta(p_s_dbm=3.0, n0_dbm=-3.0, r_d=2.0, beta=2.0)
        assert eta == pytest.approx(10.0**0.6 * 2.0**-2.0, rel=1e-15)
        assert _eta(0.0, 0.0, 1.0, 2.7) == 1.0
        assert LinkConfig(F15, 4, eta).eta == LinkConfig.from_eta(eta, F15, 4).eta == eta

    def test_validation(self):
        with pytest.raises(DomainError):
            LinkConfig(F15, 0)
        with pytest.raises(DomainError):
            LinkConfig(F15, 1, eta=-1.0)
        with pytest.raises(DomainError):
            LinkConfig(F15, 1, lambda_mod=0.7)

    @pytest.mark.parametrize("n_cells", [math.inf, -math.inf, math.nan, 8.5, "8"])
    def test_n_cells_not_whole_is_a_domain_error(self, n_cells):
        # inf and nan once escaped int() as OverflowError and ValueError
        for build in (lambda: SumFadingModel(F15, n_cells),
                      lambda: LinkConfig.from_eta(10.0, F15, n_cells)):
            with pytest.raises(DomainError, match="n_cells must be an integer >= 1"):
                build()

    def test_model_built_once(self):
        cfg = LinkConfig.from_eta(10.0, F15, 8.0)
        assert cfg.model() is cfg.model()
        assert cfg.model() == SumFadingModel(F15, 8) and cfg.n_cells == 8
        assert isinstance(cfg.n_cells, int)


class TestUnits:
    def test_zero_db(self):
        assert snr_threshold_from_db(0.0) == 1.0

    def test_three_db(self):
        assert snr_threshold_from_db(3.0) == pytest.approx(1.9953, abs=1e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            snr_threshold_from_db(float("inf"))

    @pytest.mark.parametrize("x_db", [4000.0, -4000.0, float("nan")])
    def test_outside_double_range_is_a_domain_error(self, x_db):
        # 10^400 overflows and 10^-400 underflows to 0.0
        with pytest.raises(DomainError, match="outside the positive finite doubles"):
            snr_threshold_from_db(x_db)

    def test_range_ends(self):
        assert snr_threshold_from_db(3080.0) == pytest.approx(1e308, rel=1e-12)
        assert 0.0 < snr_threshold_from_db(-3230.0) < 1e-300


@pytest.mark.parametrize("x", [1, 2.5, np.float64(1e-320), 1.7e308])
def test_positive_returns_its_argument(x):
    assert positive(x, "x") is x


# every library call that reaches errors.positive with a value outside the
# positive finite doubles: the call, the error class and the whole message.
# eta 5e-324 times lambda 0.5 rounds to 0.0; xi/eta at eta 1e-320 and xi
# = m/(N m_s) = 0.2 overflows, and so does eta/xi at xi about 2e-305
TINY_ETA, TINY_XI = cfg_eta(1e-320), cfg_eta(1e6, FadingParams(1e-300, 50.0), 1024)
RANGE_RULE = [
    (lambda: digamma(-2.0), DomainError, "digamma x is -2.0"),
    (lambda: digamma(math.nan), DomainError, "digamma x is nan"),
    (lambda: MeijerGSpec((), (), (0.0,), (), 0.0), DomainError, "Meijer G argument is 0.0"),
    (lambda: FadingParams(-1, 5), DomainError, "fading severity m is -1"),
    (lambda: FadingParams(1, 5, g_bar=0), DomainError, "mean power g_bar is 0"),
    (lambda: LinkConfig(F15, 1, eta=0.0), DomainError, "eta is 0.0"),
    (lambda: snr_threshold_from_db(4000.0), DomainError,
     "gamma_th from gamma_th_db = 4000.0 is inf"),
    # test_validation's TestOutageThreshold runs every outage route
    (lambda: outage(cfg_eta(1.0), -1.0), DomainError, "gamma_th is -1.0"),
    (lambda: _eta(4000.0, 0.0, 1.0, 1.0), ConfigError,
     "eta from p_s_dbm, n0_dbm, r_d and beta is inf"),
    (lambda: avg_capacity(TINY_XI), NumericError,
     "closed form capacity argument eta/xi is inf"),
    (lambda: avg_capacity_asymptotic(TINY_XI), NumericError,
     "capacity asymptote argument eta/xi is inf"),
    (lambda: avg_ber(cfg_eta(5e-324, lam=0.5)), NumericError,
     "closed form BER argument eta lambda is 0.0"),
    (lambda: avg_ber(TINY_ETA), NumericError,
     "closed form BER argument xi/(eta lambda) is inf"),
    (lambda: avg_ber_asymptotic(cfg_eta(5e-324, lam=0.5)), NumericError,
     "BER asymptote argument eta lambda is 0.0"),
    (lambda: avg_ber_asymptotic(TINY_ETA), NumericError,
     "BER asymptote argument xi/(eta lambda) is inf"),
    (lambda: quad_ber(cfg_eta(5e-324, lam=0.5)), NumericError,
     "BER quadrature argument eta lambda is 0.0"),
    (lambda: outage_asymptotic(TINY_ETA, 2.0), NumericError,
     "outage asymptote argument gamma_th xi/eta is inf"),
    (lambda: quad_outage(TINY_ETA, 2.0), NumericError,
     "outage quadrature argument gamma_th/eta is inf"),
    # physical_capacity's derived arguments: eta N g_bar overflows (was an
    # OverflowError), eta g_bar (m_s - 1)/m overflows (was a RuntimeWarning)
    # or underflows to 0.0 (was a math domain error)
    (lambda: physical_capacity(cfg_eta(1e308, FadingParams(1.0, 1.5), 1024)), NumericError,
     "physical capacity mean eta N g_bar is inf"),
    (lambda: physical_capacity(cfg_eta(1e300, FadingParams(1e-10, 1e10))), NumericError,
     "physical capacity argument eta g_bar (m_s - 1)/m is inf"),
    (lambda: physical_capacity(cfg_eta(1e-320, FadingParams(1e10, 1.0000001))), NumericError,
     "physical capacity argument eta g_bar (m_s - 1)/m is 0.0"),
]


@pytest.mark.parametrize("call,error,what", RANGE_RULE, ids=[w for _, _, w in RANGE_RULE])
def test_range_rule(call, error, what):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as info:
            call()
    assert type(info.value) is error
    assert str(info.value) == f"{what}, outside the positive finite doubles"


class TestCapacity:
    def test_vanishes_with_power(self):
        r = avg_capacity(cfg_eta(1e-12))
        assert 0.0 < r.value < 1e-6

    def test_golden_point(self):
        r = avg_capacity(cfg_eta(100.0))
        assert r.value == pytest.approx(GOLDEN_CAPACITY, rel=1e-6)

    def test_matches_quadrature(self):
        cfg = cfg_eta(100.0)
        assert avg_capacity(cfg).value == pytest.approx(
            quad_capacity(cfg).value, rel=1e-6
        )

    def test_near_asymptote_at_20db(self):
        r = avg_capacity(cfg_eta(100.0))
        assert abs(r.value - 5.960) <= 0.08

    def test_error_estimate_propagated(self):
        r = avg_capacity(cfg_eta(100.0))
        assert 0.0 <= r.error_estimate < 1e-6 * r.value * 1e3

    def test_huge_parameters_stay_finite(self):
        r = avg_capacity(cfg_eta(1e4, FadingParams(4.0, 5.0), 32))
        assert np.isfinite(r.value) and r.value > 0.0


class TestCapacityAsymptotic:
    def test_value(self):
        r = avg_capacity_asymptotic(cfg_eta(100.0))
        want = (math.log(500.0) - 0.5772156649015329 - 1.5061176684318003) / math.log(2.0)
        assert r.value == pytest.approx(want, abs=1e-9)

    def test_doubling_eta_adds_one_bit(self):
        lo = avg_capacity_asymptotic(cfg_eta(50.0)).value
        hi = avg_capacity_asymptotic(cfg_eta(100.0)).value
        assert hi - lo == pytest.approx(1.0, abs=1e-12)

    def test_matched_psi_terms_cancel(self):
        # m = m_s makes the digamma difference vanish
        cfg = LinkConfig.from_eta(64.0, FadingParams(3.0, 3.0), 2)
        r = avg_capacity_asymptotic(cfg)
        assert r.value == pytest.approx(math.log(64.0 / 0.5) / math.log(2.0), abs=1e-12)


class TestBer:
    def test_deep_noise_limit(self):
        r = avg_ber(cfg_eta(1e-9))
        assert r.value == pytest.approx(0.5, abs=1e-3)

    def test_golden_point(self):
        r = avg_ber(cfg_eta(100.0))
        assert r.value == pytest.approx(GOLDEN_BER, rel=1e-6)

    def test_matches_quadrature(self):
        cfg = cfg_eta(100.0)
        assert avg_ber(cfg).value == pytest.approx(quad_ber(cfg).value, rel=1e-6)

    def test_large_n_matches_quadrature(self):
        # N = 256 with a near-Gaussian gamma product along the contour
        cfg = cfg_eta(0.01, FadingParams(2.5, 50.0), 256)
        assert avg_ber(cfg).value == pytest.approx(quad_ber(cfg).value, rel=1e-6)

    # BER at N=1, m_s=3, eta=10 for a pole gap (-1, m - 1) down to 1e-7,
    # at 40 digits from the defining integral, with phi(x) = Q(sqrt(2x))
    # (1 + eps x)^(-m - m_s), eps = xi / eta and xi = m / m_s as a double:
    #   head = mpmath.quad(lambda x: x**(m - 1) * (phi(x) - 0.5), [0, 1])
    #   tail = mpmath.quad(lambda x: x**(m - 1) * phi(x), [1, 10, 100, mpmath.inf])
    #   ber = eps**m / mpmath.beta(m, m_s) * (0.5 / m + head + tail)
    @pytest.mark.parametrize("m,ref", [
        (1e-3, 0.4946435616167852646035),
        (5e-4, 0.4971420207325907407343),
        (1e-5, 0.4999231178367285585149),
        (1e-7, 0.4999990008608543102717),
    ])
    def test_narrow_pole_gap_within_estimate(self, m, ref):
        # b = m - 1 rounds by up to 5.5e-17, which G feels as that times
        # psi(m), about 1/m: 1e-9 relative at m = 1e-7
        r = avg_ber(cfg_eta(10.0, FadingParams(m, 3.0)))
        assert abs(r.value - ref) <= r.error_estimate
        assert r.error_estimate <= 1e-8 * ref

    def test_near_asymptote(self):
        exact = avg_ber(cfg_eta(100.0)).value
        assert exact <= 1.15 * 2.5e-3 and exact >= 2.5e-3 / 1.15

    def test_underflow_flagged(self):
        r = avg_ber(cfg_eta(1e4, FadingParams(4.0, 5.0), 32))
        assert r.value == 0.0
        assert r.diagnostics.get("underflow") is True
        assert np.isfinite(r.diagnostics["log_value"])


class TestBerAsymptotic:
    def test_reduces_to_quarter_eta(self):
        r = avg_ber_asymptotic(cfg_eta(100.0))
        assert r.value == pytest.approx(1.0 / 400.0, rel=1e-12)

    def test_power_law(self):
        lo = avg_ber_asymptotic(cfg_eta(100.0, F15, 2)).value
        hi = avg_ber_asymptotic(cfg_eta(1000.0, F15, 2)).value
        assert lo / hi == pytest.approx(10.0 ** 2, rel=1e-10)

    def test_modulation_ratio(self):
        n = 4
        bpsk = avg_ber_asymptotic(cfg_eta(100.0, F15, n, lam=1.0)).value
        bfsk = avg_ber_asymptotic(cfg_eta(100.0, F15, n, lam=0.5)).value
        assert bpsk / bfsk == pytest.approx(2.0 ** (-n), rel=1e-10)

    def test_overflow_kept_in_log(self):
        # far below its regime the asymptote exceeds double range: the value
        # reads inf with a flag, and the log stays exact
        f = FadingParams(10.0, 3.0)
        r = avg_ber_asymptotic(cfg_eta(0.01, f, 256))
        assert r.value == math.inf
        assert r.diagnostics["overflow"] is True
        assert r.diagnostics["log_value"] == pytest.approx(19997.9006, rel=1e-8)
        r = outage_asymptotic(cfg_eta(0.01, f, 256), 1.0)
        assert r.value == math.inf and r.diagnostics["overflow"] is True
        assert r.diagnostics["log_value"] == pytest.approx(2467.97508, rel=1e-8)

    def test_infinite_log_value_takes_the_overflow_branch(self):
        # exp(inf) is inf without an OverflowError; the estimate must still
        # read 0, not inf * rel_err = nan or inf
        r = metrics.result("asymptotic", math.inf, 1e-14)
        assert r.value == math.inf and r.error_estimate == 0.0
        assert r.diagnostics["overflow"] is True

    def test_underflow_flagged(self):
        r = avg_ber_asymptotic(cfg_eta(1e6, FadingParams(10.0, 3.0), 256))
        assert r.value == 0.0 and r.diagnostics["underflow"] is True
        assert "overflow" not in r.diagnostics


# Meijer G and metric values at 40 digits, for LinkConfig.from_eta(eta,
# FadingParams(m, m_s), N) with lambda = 1:
#   spec = _capacity_form(cfg).spec  # or _ber_form(cfg).spec
#   g = mpmath.meijerg([list(spec.a_front), list(spec.a_rest)],
#                      [list(spec.b_front), list(spec.b_rest)],
#                      mpmath.mpf(spec.argument), maxterms=10**6).real
#   capacity = g / (gamma(Nm) gamma(Nms) ln 2)
#   ber = xi g / (gamma(Nm) gamma(Nms) eta 2 sqrt(pi))
CLOSED_FORM_REFERENCES = [
    ("capacity", 16, 1.0, 5.0, 1000.0, 1.1295203142203164683e130, 13.929362425446055057),
    ("capacity", 16, 4.0, 5.0, 10.0, 9.010162112844710592e204, 7.3287935019350995113),
    ("capacity", 32, 4.0, 2.0, 0.1, 8.6022365467343049003e300, 2.0777767029728391205),
    ("ber", 16, 1.0, 5.0, 10.0, 1.6633808242649897428e115, 5.0137124794550249843e-18),
    ("ber", 16, 4.0, 5.0, 10.0, 1.2180971768841333829e175, 9.6866219437757028667e-33),
    ("ber", 32, 4.0, 2.0, 10.0, 2.0406154546748580186e248, 6.023504089903584409e-56),
]


class TestClosedFormErrorEstimates:
    @pytest.mark.parametrize("metric,n,m,m_s,eta,g_ref,value_ref", CLOSED_FORM_REFERENCES)
    def test_estimates_cover_mpmath(self, metric, n, m, m_s, eta, g_ref, value_ref):
        cfg = cfg_eta(eta, FadingParams(m, m_s), n)
        form_of, metric_of = {
            "capacity": (_capacity_form, avg_capacity),
            "ber": (_ber_form, avg_ber),
        }[metric]
        g = meijer_g(form_of(cfg).spec)
        assert abs(g.value - g_ref) <= abs(g.value) * g.details["rel_error"]
        r = metric_of(cfg)
        d = r.diagnostics
        assert abs(r.value - value_ref) <= abs(r.value) * d["rel_error"]
        assert (d["method"], d["evals"], d["step"]) == (
            g.method, g.details["evals"], g.details["step"])
        assert d["rel_error"] >= g.details["rel_error"]


# every route that computes a log value, and the method its diagnostics
# name (None: either continued-fraction side); the routes without a
# step-halving rule report step nan
SCHEMA = {"log_value", "method", "evals", "rel_error", "step"}
LOG_SPACE_ROUTES = [
    (avg_capacity, (), "contour_quadrature"),
    (avg_ber, (), "contour_quadrature"),
    (outage, (2.0,), None),
    (avg_ber_asymptotic, (), "asymptotic"),
    (outage_asymptotic, (2.0,), "asymptotic"),
    (quad_capacity, (), "quadrature"),
    (quad_ber, (), "quadrature"),
    (quad_outage, (2.0,), "quadrature"),
    (physical_capacity, (), "physical"),
]
# N=64, m=4, m_s=5 at eta = 40 dB: the BER underflows to 0.0
UNDERFLOWING_BER = cfg_eta(1e4, FadingParams(4.0, 5.0), 64)


class TestDiagnosticsSchema:
    @pytest.mark.parametrize("cfg", [cfg_eta(100.0, F15, 8), UNDERFLOWING_BER],
                             ids=["N8", "N64"])
    @pytest.mark.parametrize("route,args,method", LOG_SPACE_ROUTES,
                             ids=[r.__name__ for r, _, _ in LOG_SPACE_ROUTES])
    def test_every_log_space_route_has_one_schema(self, route, args, method, cfg):
        r = route(cfg, *args)
        d = r.diagnostics
        assert set(d) - {"underflow", "overflow"} == SCHEMA
        assert {k: type(v) for k, v in d.items()} == {
            "log_value": float, "method": str, "evals": int, "rel_error": float,
            "step": float, **{flag: bool for flag in ("underflow", "overflow") if flag in d}}
        if method is None:
            assert d["method"] in ("cf_direct", "cf_complement") and d["evals"] > 0
        else:
            assert d["method"] == method
        assert (d["evals"] == 0) == (method == "asymptotic")
        assert math.isnan(d["step"]) == (method in (None, "asymptotic"))
        if math.isfinite(r.value) and r.value != 0.0:
            assert r.error_estimate == r.value * d["rel_error"]

    def test_underflowing_ber_reports_its_total_error(self):
        # the value and its estimate read 0.0; the relative error behind
        # them is G's plus the log terms' rounding
        r = avg_ber(UNDERFLOWING_BER)
        g = meijer_g(_ber_form(UNDERFLOWING_BER).spec)
        assert (r.value, r.error_estimate, r.diagnostics["underflow"]) == (0.0, 0.0, True)
        assert r.diagnostics["rel_error"] >= g.details["rel_error"]

    def test_nan_log_value_is_loud(self):
        # nan fails both the underflow and the -inf comparison, so it would
        # read as a silent 0.0
        with pytest.raises(NumericError, match="asymptotic log value is nan"):
            metrics.result("asymptotic", math.nan, 0.0)

    def test_physical_evals_are_outer_times_inner_nodes(self, monkeypatch):
        rules = []
        good = metrics._halving_trapezoid

        def recorded(*a):
            rules.append(good(*a))
            return rules[-1]

        monkeypatch.setattr(metrics, "_halving_trapezoid", recorded)
        d = physical_capacity(cfg_eta(100.0, F15, 8)).diagnostics
        (_, _, _, step, n, evals), = rules
        assert d["step"] == step
        # the rule evaluates every outer node it has, from an empty head,
        # and every outer node runs one inner rule, here of 93 nodes
        assert evals == n + 1
        assert d["evals"] == evals * 93


class TestPhysicalCapacity:
    # one branch of mean m_s/(m_s - 1) is the aggregate model's law at N=1;
    # (4, 20, 30 dB) is where 1 - M1 rounds past 1 unless log M1 is a
    # log-sum-exp at large s
    @pytest.mark.parametrize("m,m_s,eta_db", [
        (0.5, 1.1, -20.0), (0.5, 50.0, 50.0), (1.0, 5.0, 20.0), (1.0, 1.5, 0.0),
        (2.5, 3.0, 10.0), (4.0, 20.0, 30.0), (10.0, 1.1, 50.0), (10.0, 50.0, -20.0),
        (0.7, 2.0, 40.0), (3.0, 10.0, -10.0), (6.0, 1.3, 20.0), (1.5, 30.0, 0.0),
    ])
    def test_one_branch_is_the_closed_form(self, m, m_s, eta_db):
        cfg = cfg_eta(10.0 ** (eta_db / 10.0), FadingParams(m, m_s, m_s / (m_s - 1.0)))
        r, closed = physical_capacity(cfg), avg_capacity(cfg)
        assert r.method == "physical"
        assert abs(r.value - closed.value) <= r.error_estimate + closed.error_estimate
        assert r.error_estimate == r.value * r.diagnostics["rel_error"]
        assert r.diagnostics["rel_error"] < 1e-11

    @pytest.mark.parametrize("n,fading,eta,seed", [
        (2, FadingParams(2.0, 3.0), 10.0, 1),
        (8, FadingParams(0.7, 1.6, 2.0), 1000.0, 2),
        (32, FadingParams(4.0, 20.0), 1000.0, 3),
    ])
    def test_agrees_with_physical_draws(self, n, fading, eta, seed):
        cfg = cfg_eta(eta, fading, n)
        est = mc_metric(cfg, CAPACITY, McConfig(100_000, seed, PHYSICAL_DRAW))
        assert abs(physical_capacity(cfg).value - est.value) <= 3.5 * est.error_estimate

    def test_two_branches_match_mpmath(self):
        # 40 digits of Hamdi's integral with the branch MGF in closed form,
        # M1(s) = Gamma(m + m_s) / Gamma(m_s) U(m, 1 - m_s, s / L):
        #   mpmath.mp.dps = 60  (50 gives the same 40 digits)
        #   m, m_s, L, eta = mpf(1.5), mpf(3), mpf(1.5) / 2, mpf(10)
        #   m1 = lambda s: gamma(m + m_s) / gamma(m_s) * hyperu(m, 1 - m_s, s / L)
        #   f = lambda s: (1 - m1(eta * s) ** 2) * exp(-s) / s
        #   quad(f, [0, 1 / eta, 1, 10, inf]) / log(2)
        ref = 3.969529375257873414688495815233178483089
        r = physical_capacity(cfg_eta(10.0, FadingParams(1.5, 3.0), 2))
        assert abs(r.value - ref) <= r.error_estimate

    def test_over_budget_raises(self, monkeypatch):
        monkeypatch.setattr(metrics, "MAX_PHYSICAL_NODES", 200)
        with pytest.raises(NumericError, match="physical capacity needs .* over the budget"):
            physical_capacity(cfg_eta(100.0, F15, 8))

    def test_inner_rule_over_one_block_raises(self):
        # at m = 1e10 the inner step 0.3/sqrt(m + m_s) asks for 16 500 941
        # nodes per outer node, a grid that was built and ran past 20 s
        with pytest.raises(NumericError, match=f"needs 16500941 nodes, over the block of "
                                               f"{metrics._PHYSICAL_BLOCK}"):
            physical_capacity(cfg_eta(1e-300, FadingParams(1e10, 1.5)))

    @pytest.mark.parametrize("m,m_s", [(1.0, 3e305), (1.0, 1e308), (1.7e308, 5.0)])
    def test_shape_past_double_range_raises(self, m, m_s):
        # log Gamma(m_s + 1), or at a huge m the inner node count, overflows:
        # a NumericError, not an OverflowError, and no warning
        p = FadingParams(m, m_s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError) as info:
                physical_capacity(cfg_eta(1.0, p, 1))
        assert str(info.value) == f"physical capacity inner rule leaves double range at {p}"


# I_x(Nm, Nms) at x = y/(1+y), y = y_over_mean m/m_s, at 40 digits, by the
# positive series on the side where it converges (mpmath.betainc does not
# converge at large a + b):
#   def pos(a, b, x):
#       return (x**a * (1 - x)**b / (a * mpmath.beta(a, b))
#               * mpmath.hyp2f1(a + b, 1, a + 1, x))
#   value = pos(a, b, x) if x < (a + 1) / (a + b) else 1 - pos(b, a, 1 / (1 + y))
# The first row lies just past the Beta mean with Nms >> Nm.
CF_REFERENCES = [
    (1024, 0.5, 50.0, 1.01, 0.59440733689288196986),
    (256, 10.0, 50.0, 0.98, 0.17717182354499819599),
    (8, 1.0, 5.0, 0.3, 0.004554997161399601357),
]


class TestOutage:
    def test_vanishes_at_origin(self):
        r = outage(cfg_eta(100.0), 1e-280)
        assert r.value == pytest.approx(0.0, abs=1e-250)

    def test_single_branch_equals_model_cdf(self):
        cfg = cfg_eta(100.0)
        r = outage(cfg, 1.0)
        want = sum_cdf(SumFadingModel(F15, 1), 1.0 / 100.0)
        assert r.value == pytest.approx(want, rel=1e-9)

    def test_near_asymptote(self):
        r = outage(cfg_eta(100.0), 1.0)
        assert abs(r.value - 0.01) / 0.01 <= 0.03

    def test_bounded(self):
        for eta in (1e-6, 1e-2, 1.0, 1e4):
            v = outage(cfg_eta(eta), 2.0).value
            assert 0.0 <= v <= 1.0

    def test_path_recorded_when_argument_large(self):
        # y = 2 xi / 5 = 0.8 with xi = 2, so x = 4/9 lies below the
        # fraction's side boundary (a+1)/(a+b+2) = 5/8: the direct side
        r = outage(cfg_eta(5.0, FadingParams(4.0, 2.0)), 2.0)
        assert r.diagnostics["method"] == "cf_direct"
        r = outage(cfg_eta(0.1), 2.0)  # y = 4: complementary route
        assert r.diagnostics["method"] == "cf_complement"
        deep = outage(cfg_eta(1e-4), 100.0)
        assert deep.diagnostics["method"] == "cf_complement"
        assert deep.value == pytest.approx(1.0, abs=1e-6)

    def test_complement_error_estimate_covers_cancellation(self):
        # x = 0.776 lies just past the side boundary (a+1)/(a+b+2) = 0.769,
        # where 1 - tail cancels the most; the reference is
        #   mpmath.betainc(2560, 768, 0, y / (1 + y), regularized=True)
        # at 40 digits, y = gamma_th xi / eta = 2 (10/768) / 0.0075
        cfg = LinkConfig.from_eta(0.0075, FadingParams(10.0, 3.0), 256)
        r = outage(cfg, 2.0)
        assert r.diagnostics["method"] == "cf_complement"
        assert abs(r.value - 0.83672596206970876) <= r.error_estimate

    def test_large_tail_takes_direct_path(self):
        # y = 2 (10/768) / 0.01 > 2, but the complement's tail is near 1:
        # 1 - tail would cancel nine digits, so the value is summed
        # directly; mpmath.betainc(2560, 768, 0, y / (1 + y),
        # regularized=True) at 40 digits
        cfg = LinkConfig.from_eta(0.01, FadingParams(10.0, 3.0), 256)
        r = outage(cfg, 2.0)
        want = 4.2045067767614625e-10
        assert r.diagnostics["method"] == "cf_direct"
        assert abs(r.value - want) <= 1e-10 * want
        assert abs(r.value - want) <= r.error_estimate

    def test_past_mean_takes_complement(self):
        # y = 1.967 <= 2 lies past the Beta(Nm, Nms) mean (y = m/m_s =
        # 0.2), so the fraction runs on the complement side
        cfg = LinkConfig.from_eta(2.0 * (10.0 / 12800) / 1.967, FadingParams(10.0, 50.0), 256)
        r = outage(cfg, 2.0)
        q = quad_outage(cfg, 2.0)
        assert r.diagnostics["method"] == "cf_complement"
        assert abs(r.value - q.value) <= r.error_estimate + q.error_estimate

    def test_direct_error_estimate_covers_log_rounding(self):
        # at N = 1024 the log-space gamma sum rounds to more than 1e-12;
        # y = gamma_th xi / eta = 0.8 with xi = 2.5/3072, reference
        #   mpmath.betainc(2560, 3072, 0, y / (1 + y), regularized=True)
        # at 40 digits
        cfg = LinkConfig.from_eta(2.0 * 2.5 / 3072 / 0.8, FadingParams(2.5, 3.0), 1024)
        r = outage(cfg, 2.0)
        assert r.diagnostics["method"] == "cf_direct"
        assert abs(r.value - 0.063809324418204114) <= r.error_estimate

    @pytest.mark.parametrize("n,m,m_s,y_over_mean,value_ref", CF_REFERENCES)
    def test_continued_fraction_regression(self, n, m, m_s, y_over_mean, value_ref):
        y = y_over_mean * m / m_s
        cfg = LinkConfig.from_eta(m / (n * m_s) / y, FadingParams(m, m_s), n)
        r = outage(cfg, 1.0)
        assert abs(r.value - value_ref) <= r.error_estimate
        assert r.diagnostics["evals"] <= 200

    def test_domain(self):
        with pytest.raises(DomainError):
            outage(cfg_eta(1.0), 0.0)


class TestOutageAsymptotic:
    def test_gamma_factorials(self):
        r = outage_asymptotic(cfg_eta(100.0), 1.0)
        assert r.value == pytest.approx(0.01, rel=1e-12)

    def test_two_cell_value(self):
        r = outage_asymptotic(cfg_eta(100.0, F15, 2), 1.0)
        assert r.value == pytest.approx(55e-6, rel=1e-10)

    def test_pure_power_law_slope(self):
        # d log10 P / d eta_dB = -Nm/10 exactly
        n, m = 4, 2.0
        f = FadingParams(m, 5.0)
        eta_db = np.array([10.0, 20.0, 30.0])
        logs = [
            math.log10(outage_asymptotic(cfg_eta(10.0 ** (d / 10.0), f, n), 2.0).value)
            for d in eta_db
        ]
        slopes = np.diff(logs) / np.diff(eta_db)
        assert np.allclose(slopes, -n * m / 10.0, rtol=1e-12)


ETA_GRID = np.logspace(-1, 4, 10)


class TestMonotonicity:
    def test_capacity_increasing_in_eta(self):
        vals = [avg_capacity(cfg_eta(e, F15, 4)).value for e in ETA_GRID]
        assert np.all(np.diff(vals) > 0.0)

    def test_ber_decreasing_in_eta(self):
        logs = [
            avg_ber(cfg_eta(e, F15, 4)).diagnostics["log_value"] for e in ETA_GRID
        ]
        assert np.all(np.diff(logs) < 0.0)

    def test_outage_decreasing_in_eta(self):
        logs = [
            outage(cfg_eta(e, F15, 4), 2.0).diagnostics["log_value"]
            for e in ETA_GRID
        ]
        assert np.all(np.diff(logs) < 0.0)

    def test_outage_increasing_in_threshold(self):
        cfg = cfg_eta(100.0, F15, 4)
        gths = np.logspace(-2, 2, 10)
        logs = [outage(cfg, g).diagnostics["log_value"] for g in gths]
        assert np.all(np.diff(logs) > 0.0)


class TestCellScaling:
    @pytest.mark.parametrize("k", [4, 8, 16])
    def test_capacity_grows_with_cells(self, k):
        lo = avg_capacity(cfg_eta(100.0, F15, k)).value
        hi = avg_capacity(cfg_eta(100.0, F15, 2 * k)).value
        assert hi > lo

    @pytest.mark.parametrize("k", [4, 8, 16])
    def test_outage_shrinks_with_cells(self, k):
        lo = outage(cfg_eta(100.0, F15, k), 2.0).diagnostics["log_value"]
        hi = outage(cfg_eta(100.0, F15, 2 * k), 2.0).diagnostics["log_value"]
        assert hi < lo


class TestAsymptoticConvergence:
    # the figure parameter families (shadowing fixed at 5, default distance)
    @pytest.mark.parametrize("n", [1, 8, 16, 32])
    @pytest.mark.parametrize("m", [1.0, 4.0])
    def test_capacity_gap_small_at_high_snr(self, n, m):
        cfg = cfg_eta(1e4, FadingParams(m, 5.0), n)
        gap = abs(avg_capacity(cfg).value - avg_capacity_asymptotic(cfg).value)
        assert gap <= 0.05

    @pytest.mark.parametrize("n,m,m_s,gth", [(1, 1.0, 5.0, 2.0), (8, 1.0, 2.0, 4.0), (16, 4.0, 5.0, 2.0)])
    def test_outage_ratio_band_at_onset_threshold(self, n, m, m_s, gth):
        # first-order hypergeometric correction stays within 10 percent
        # once eta exceeds 10 gamma_th m N(m+m_s) / (N m_s)
        eta_min = 10.0 * gth * m * n * (m + m_s) / (n * m_s)
        for eta in (eta_min, 4.0 * eta_min, 100.0 * eta_min):
            cfg = cfg_eta(eta, FadingParams(m, m_s), n)
            ratio = math.exp(
                outage(cfg, gth).diagnostics["log_value"]
                - outage_asymptotic(cfg, gth).diagnostics["log_value"]
            )
            assert 0.9 <= ratio <= 1.1

    @pytest.mark.parametrize("n,m", [(1, 1.0), (2, 1.0), (1, 2.0), (8, 1.0)])
    def test_outage_slope_is_diversity_gain(self, n, m):
        f = FadingParams(m, 5.0)
        eta_db = np.linspace(30.0, 40.0, 11)
        logs = [
            outage(cfg_eta(10.0 ** (d / 10.0), f, n), 2.0).diagnostics["log_value"]
            / math.log(10.0)
            for d in eta_db
        ]
        slope = np.polyfit(eta_db, logs, 1)[0]
        assert slope == pytest.approx(-n * m / 10.0, rel=0.05)


class TestModulationOrdering:
    @pytest.mark.parametrize("n", [1, 8, 16])
    @pytest.mark.parametrize("eta_db", [0.0, 10.0, 20.0])
    def test_bpsk_beats_bfsk(self, n, eta_db):
        eta = 10.0 ** (eta_db / 10.0)
        bpsk = avg_ber(cfg_eta(eta, F15, n, lam=1.0)).diagnostics["log_value"]
        bfsk = avg_ber(cfg_eta(eta, F15, n, lam=0.5)).diagnostics["log_value"]
        assert bpsk < bfsk
