"""Oracles: quadrature routes, Monte-Carlo estimators, KS machinery."""

import dataclasses
import math

import numpy as np
import pytest

from rislink import metrics, validation
from rislink.errors import DomainError, NumericError
from rislink.fading import MODEL_DRAW, PHYSICAL_DRAW, FadingParams
from rislink.metrics import (
    LinkConfig,
    MetricResult,
    avg_ber,
    avg_ber_asymptotic,
    avg_capacity,
    avg_capacity_asymptotic,
    outage,
    outage_asymptotic,
)
from rislink.validation import (
    BER,
    CAPACITY,
    OUTAGE,
    CiEstimate,
    McConfig,
    evaluate,
    ks_statistic,
    mc_metric,
    mc_metrics,
    metric_cases,
    quad_ber,
    quad_capacity,
    quad_outage,
    run_oracle_grid,
)

F15 = FadingParams(1.0, 5.0)


def cfg_eta(eta, fading=F15, n=1, lam=1.0):
    return LinkConfig.from_eta(eta, fading, n, lambda_mod=lam)


class TestMcConfig:
    def test_minimum_samples(self):
        with pytest.raises(DomainError):
            McConfig(n_samples=5000, seed=1)

    def test_mode_validated(self):
        with pytest.raises(DomainError):
            McConfig(n_samples=10_000, seed=1, mode="nope")

    # an infinite count never ends the draw loop; the others fail inside
    # numpy, or divide by zero, once MC runs
    @pytest.mark.parametrize("n_samples,seed", [
        (math.inf, 1), (math.nan, 1), (100_000.5, 1), ("100000", 1), (None, 1),
        (100_000, -1), (100_000, 1.5), (100_000, math.inf), (100_000, "1"),
    ])
    def test_rejects_non_whole_counts_and_seeds(self, n_samples, seed):
        with pytest.raises(DomainError):
            McConfig(n_samples=n_samples, seed=seed)

    def test_whole_floats_become_ints(self):
        mc = McConfig(n_samples=1e5, seed=2.0)
        assert (mc.n_samples, mc.seed) == (100_000, 2)
        assert type(mc.n_samples) is int and type(mc.seed) is int


class TestQuadCapacity:
    def test_vanishing_power(self):
        r = quad_capacity(cfg_eta(1e-12))
        assert 0.0 <= r.value <= 1e-9 * 10

    def test_agrees_with_closed_form(self):
        for n, m, m_s, eta in [(1, 1.0, 5.0, 100.0), (8, 4.0, 2.0, 10.0), (32, 1.0, 5.0, 1e3)]:
            cfg = cfg_eta(eta, FadingParams(m, m_s), n)
            q = quad_capacity(cfg).value
            c = avg_capacity(cfg).value
            assert abs(c - q) / q <= 1e-6

    def test_near_asymptote_point(self):
        assert quad_capacity(cfg_eta(100.0)).value == pytest.approx(5.9597, abs=0.08)

    # Reference capacities at m = 2.5, m_s = 3, from a 30-digit trapezoid
    # rule on the u = ln(xi g) axis (geometrically convergent here):
    #
    #   import mpmath as mp
    #   mp.mp.dps = 30
    #   def capacity(n, m, m_s, eta_db):
    #       nm, nms = n * mp.mpf(m), n * mp.mpf(m_s)
    #       z = mp.mpf(10) ** (mp.mpf(eta_db) / 10) * nms / m    # eta / xi
    #       dens = lambda u: mp.exp(nm * u - (nm + nms) * mp.log1p(mp.exp(u))) \
    #           / mp.beta(nm, nms)
    #       u0, s = mp.log(nm / nms), mp.sqrt(1 / nm + 1 / nms)
    #       us = [u0 + j * s / 20 for j in range(-600, 601)]   # +-30 sigma
    #       assert abs(sum(dens(u) for u in us) * s / 20 - 1) < 1e-25
    #       return sum(mp.log1p(z * mp.exp(u)) * dens(u) for u in us) \
    #           * s / 20 / mp.log(2)
    @pytest.mark.parametrize("n,eta_db,ref", [
        (256, 0.0, 8.0054453620820067),
        (256, 30.0, 17.965601988395296),
        (1024, 0.0, 10.001361775588183),
        (1024, 30.0, 19.965738725759278),
    ])
    def test_large_n_matches_reference(self, n, eta_db, ref):
        r = quad_capacity(cfg_eta(10.0 ** (eta_db / 10.0), FadingParams(2.5, 3.0), n))
        assert r.value == pytest.approx(ref, rel=1e-9)
        assert abs(r.value - ref) <= r.error_estimate


class TestQuadBer:
    def test_deep_noise(self):
        assert quad_ber(cfg_eta(1e-13)).value == pytest.approx(0.5, abs=1e-6)
        assert quad_ber(cfg_eta(1e-9)).value == pytest.approx(
            avg_ber(cfg_eta(1e-9)).value, rel=1e-6
        )

    def test_shares_underflow_floor_with_closed_form(self):
        # log BER = -695 lies below the reporting floor log(1e-300) but
        # above exp's own underflow: both routes print 0.0 and flag it
        cfg = cfg_eta(4.356793848805242e37, F15, 8)
        closed, quad = avg_ber(cfg), quad_ber(cfg)
        assert closed.diagnostics["log_value"] == pytest.approx(-695.0, abs=1e-6)
        assert quad.diagnostics["log_value"] == pytest.approx(
            closed.diagnostics["log_value"], rel=1e-9
        )
        for r in (closed, quad):
            assert r.value == 0.0 and r.diagnostics["underflow"] is True

    def test_never_exceeds_half(self):
        for eta in (1e-6, 1e-2, 1.0, 1e2, 1e4):
            assert quad_ber(cfg_eta(eta, F15, 4)).value <= 0.5

    def test_agrees_with_closed_form_in_logs(self):
        for n, m, m_s, eta in [(1, 1.0, 5.0, 100.0), (16, 1.0, 2.0, 100.0), (32, 4.0, 5.0, 1e4)]:
            cfg = cfg_eta(eta, FadingParams(m, m_s), n)
            lq = quad_ber(cfg).diagnostics["log_value"]
            lc = avg_ber(cfg).diagnostics["log_value"]
            assert abs(math.expm1(lc - lq)) <= 1e-6

    # a narrow peak beside a tail x^(Nm) that decays over ~1/Nm in u;
    # 40-digit references from TestBer.test_narrow_pole_gap_within_estimate
    @pytest.mark.parametrize("m,ref", [
        (1e-3, 0.4946435616167852646035),
        (5e-4, 0.4971420207325907407343),
    ])
    def test_narrow_pole_gap_within_estimate(self, m, ref):
        r = quad_ber(cfg_eta(10.0, FadingParams(m, 3.0)))
        assert abs(r.value - ref) <= r.error_estimate

    def test_narrow_pole_gap_agrees_with_closed_form(self):
        cfg = cfg_eta(10.0, FadingParams(2.5e-4, 3.0))
        q, c = quad_ber(cfg), avg_ber(cfg)
        assert abs(q.value - c.value) <= q.error_estimate + c.error_estimate

    def test_support_too_wide_raises(self):
        with pytest.raises(NumericError, match="did not close"):
            quad_ber(cfg_eta(10.0, FadingParams(1e-5, 3.0)))


class TestQuadOutage:
    def test_agrees_with_closed_form_in_logs(self):
        for n, m, m_s, eta, gth in [
            (1, 1.0, 5.0, 100.0, 1.0),
            (8, 1.0, 5.0, 100.0, 2.0),
            (32, 4.0, 2.0, 1e3, 2.0),
        ]:
            cfg = cfg_eta(eta, FadingParams(m, m_s), n)
            lq = quad_outage(cfg, gth).diagnostics["log_value"]
            lc = outage(cfg, gth).diagnostics["log_value"]
            assert abs(math.expm1(lc - lq)) <= 1e-6

    def test_relative_accuracy_near_certain_outage(self):
        # the scaled integral is ~1e-25 here; quadrature must stay
        # relatively accurate rather than bottoming out on epsabs
        cfg = cfg_eta(0.0076, FadingParams(3.737, 4.233), 2)
        lq = quad_outage(cfg, 6.382).diagnostics["log_value"]
        lc = outage(cfg, 6.382).diagnostics["log_value"]
        assert abs(math.expm1(lc - lq)) <= 1e-6

    def test_narrow_peak_far_below_threshold(self):
        # at N = 1024 the density is a spike 21 units below the cut u = 0;
        # integrating all the way up to the cut misses it
        r = quad_outage(cfg_eta(1e-12, FadingParams(10.0, 50.0), 1024), 2.0)
        assert abs(r.value - 1.0) <= r.error_estimate

    def test_domain(self):
        with pytest.raises(DomainError):
            quad_outage(cfg_eta(1.0), -2.0)


def _softplus(p):
    return p + math.log1p(math.exp(-p)) if p > 0.0 else math.log1p(math.exp(p))


def scipy_oracle(cfg, metric, gamma_th):
    """An oracle's (log value, relative error) by scipy quad on the natural
    log axis u of g, independent of the package's trapezoid: the peak by
    minimize_scalar, the support walked from it in steps of 2^k until
    the integrand is 100 below its peak, the walk's points as breakpoints."""
    from scipy.integrate import quad
    from scipy.optimize import minimize_scalar
    from scipy.special import log_ndtr

    model = cfg.model()
    nm, nms = model.nm, model.nms
    ln_b = math.lgamma(nm) + math.lgamma(nms) - math.lgamma(nm + nms)
    top = 400.0
    if metric == CAPACITY:
        log_z = math.log(cfg.eta / model.xi)
        shift, front = 0.0, -math.log(math.log(2.0))

        def kernel(u):
            return math.log(_softplus(log_z + u)) if log_z + u > -700.0 else log_z + u
    elif metric == BER:
        shift = math.log(model.xi / (cfg.eta * cfg.lambda_mod))
        front = nm * shift

        def kernel(u):
            return float(log_ndtr(-math.sqrt(2.0 * math.exp(u))))
    else:
        shift = math.log(model.xi * gamma_th / cfg.eta)
        front, top = nm * shift, 0.0

        def kernel(u):
            return 0.0

    def log_h(u):
        return kernel(u) + nm * u - (nm + nms) * _softplus(shift + u)

    u_peak = minimize_scalar(lambda u: -log_h(u), bounds=(-400.0, top), method="bounded",
                             options={"xatol": 1e-10}).x
    h_peak = log_h(u_peak)
    points, ends = [u_peak], []
    for direction in (-1.0, 1.0):
        step = 1.0
        while log_h(u_peak + direction * step) > h_peak - 100.0:
            points.append(u_peak + direction * step)
            step *= 2.0
        ends.append(min(u_peak + direction * step, top))
    val, err = quad(lambda u: math.exp(log_h(u) - h_peak), *ends, epsabs=0.0, epsrel=1e-11,
                    limit=400, points=[p for p in points if ends[0] < p < ends[1]] or None)
    return front - ln_b + h_peak + math.log(val), err / val


def _scatter_points(n_points, seed):
    """(N, m, m_s, eta, lambda, gamma_th), log-uniform over N 1-1024,
    m 0.5-10, m_s 1.1-50, eta -20..60 dB and gamma_th 0..10 dB."""
    rng = np.random.default_rng(seed)
    for _ in range(n_points):
        yield (int(round(math.exp(rng.uniform(0.0, math.log(1024.0))))),
               math.exp(rng.uniform(math.log(0.5), math.log(10.0))),
               math.exp(rng.uniform(math.log(1.1), math.log(50.0))),
               10.0 ** (rng.uniform(-20.0, 60.0) / 10.0), float(rng.choice([0.5, 1.0])),
               10.0 ** (rng.uniform(0.0, 10.0) / 10.0))


class TestQuadAgainstScipy:
    @pytest.mark.parametrize("metric", [CAPACITY, BER, OUTAGE])
    def test_agrees_with_scipy_quad(self, metric):
        # the oracles share the step-halving trapezoid with the Meijer G
        # contour; scipy's adaptive quad keeps an independent integrator
        for n, m, m_s, eta, lam, gth in _scatter_points(50, 2014):
            cfg = cfg_eta(eta, FadingParams(m, m_s), n, lam)
            ours = evaluate(cfg, metric, "quadrature", gth)
            log_ref, rel_ref = scipy_oracle(cfg, metric, gth)
            gap = abs(math.expm1(ours.diagnostics["log_value"] - log_ref))
            assert gap <= ours.diagnostics["rel_error"] + rel_ref + 1e-9, (n, m, m_s, eta)

    @pytest.mark.parametrize("oracle,args", [
        (quad_capacity, (cfg_eta(100.0, F15, 8),)),
        (quad_ber, (cfg_eta(100.0, F15, 8),)),
        (quad_outage, (cfg_eta(100.0, F15, 8), 2.0)),
    ])
    def test_reports_evals_step_and_rel_error(self, monkeypatch, oracle, args):
        # evals counts every integrand node: the rule's, and those of the
        # peak search and the support walk before it
        rules = []
        good = validation._halving_trapezoid

        def recorded(*a):
            rules.append(good(*a))
            return rules[-1]

        monkeypatch.setattr(validation, "_halving_trapezoid", recorded)
        r = oracle(*args)
        d = r.diagnostics
        (_, _, _, step, n), = rules
        assert type(d["evals"]) is int and d["evals"] > n + 1
        assert d["step"] == step and 0.0 < step <= 0.0625
        assert type(d["rel_error"]) is float and 0.0 < d["rel_error"] < 1e-10
        assert r.error_estimate == r.value * d["rel_error"]


class TestRangeGuard:
    @pytest.mark.parametrize("oracle,args", [
        (quad_capacity, (cfg_eta(100.0),)),
        (quad_ber, (cfg_eta(1e-2),)),
        (quad_outage, (cfg_eta(0.1), 2.0)),
    ])
    def test_out_of_range_value_raises(self, monkeypatch, oracle, args):
        # an integrand off by a factor e pushes each value past its
        # feasible range: Jensen's bound, 1/2 and 1
        good = validation._log_axis_integral

        def broken(log_terms, *a, **kw):
            return good(lambda y: (*log_terms(y), 1.0), *a, **kw)

        oracle(*args)
        monkeypatch.setattr(validation, "_log_axis_integral", broken)
        with pytest.raises(NumericError, match="above its bound"):
            oracle(*args)


    @pytest.mark.parametrize("route,args", [
        (avg_capacity, (cfg_eta(100.0),)),
        (avg_ber, (cfg_eta(1e-2),)),
    ])
    def test_closed_form_above_bound_raises(self, monkeypatch, route, args):
        # G off by a factor e pushes capacity past Jensen's bound and BER
        # past 1/2
        good = metrics.meijer_g

        def broken(spec):
            r = good(spec)
            return dataclasses.replace(r, log_abs_value=r.log_abs_value + 1.0)

        route(*args)
        monkeypatch.setattr(metrics, "meijer_g", broken)
        with pytest.raises(NumericError, match="above its bound"):
            route(*args)

    def test_outage_above_bound_raises(self, monkeypatch):
        good = metrics.log_betainc

        def broken(*a):
            log_value, *rest = good(*a)
            return (log_value + 1.0, *rest)

        cfg = cfg_eta(0.1)
        outage(cfg, 2.0)
        monkeypatch.setattr(metrics, "log_betainc", broken)
        with pytest.raises(NumericError, match="above its bound"):
            outage(cfg, 2.0)

    @pytest.mark.parametrize("route", [avg_capacity, avg_ber])
    def test_negative_meijer_g_raises(self, monkeypatch, route):
        # the metric is positive; |G| of a negative G would be a silent
        # wrong number
        good = metrics.meijer_g

        def negated(spec):
            r = good(spec)
            return dataclasses.replace(r, value=-r.value, sign=-1.0)

        monkeypatch.setattr(metrics, "meijer_g", negated)
        with pytest.raises(NumericError, match="sign -1"):
            route(cfg_eta(10.0))

    def test_overflowing_asymptote_keeps_zero_error(self):
        # the asymptote has no feasible bound: its value overflows to inf
        # with a flag, and inf * 0 must not make the estimate nan
        cfg = cfg_eta(1e-30, FadingParams(4.0, 3.0), 64)
        for r in (avg_ber_asymptotic(cfg), outage_asymptotic(cfg, 1.0)):
            assert r.value == math.inf
            assert r.error_estimate == 0.0
            assert r.diagnostics["overflow"] is True
            assert math.isfinite(r.diagnostics["log_value"])


class TestOutageThreshold:
    @pytest.mark.parametrize("gamma_th", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("route", [
        outage, outage_asymptotic, quad_outage,
        lambda cfg, g: mc_metric(cfg, OUTAGE, McConfig(10_000, 5), gamma_th=g),
    ], ids=["exact", "asymptotic", "quadrature", "mc"])
    def test_every_route_rejects(self, route, gamma_th):
        with pytest.raises(DomainError, match="gamma_th must be positive"):
            route(cfg_eta(1.0), gamma_th)


class TestMcMetric:
    def test_outage_at_negligible_threshold(self):
        est = mc_metric(cfg_eta(100.0), OUTAGE, McConfig(10_000, 3), gamma_th=1e-200)
        assert est.mean == 0.0 and est.std_error == 0.0

    def test_capacity_band(self):
        cfg = cfg_eta(100.0)
        est = mc_metric(cfg, CAPACITY, McConfig(1_000_000, 11))
        closed = avg_capacity(cfg).value
        assert abs(est.mean - closed) <= 3.0 * est.std_error

    def test_ber_modes_agree_at_n1(self):
        # matched mean power makes the two draw modes identical in law
        m_s = 5.0
        fading = FadingParams(1.0, m_s, g_bar=m_s / (m_s - 1.0))
        cfg = cfg_eta(10.0, fading, 1)
        a = mc_metric(cfg, BER, McConfig(200_000, 21, MODEL_DRAW))
        b = mc_metric(cfg, BER, McConfig(200_000, 22, PHYSICAL_DRAW))
        combined = math.hypot(a.std_error, b.std_error)
        assert abs(a.mean - b.mean) <= 3.0 * combined

    def test_deterministic(self):
        cfg = cfg_eta(50.0, F15, 4)
        mc = McConfig(50_000, 1234)
        a = mc_metric(cfg, CAPACITY, mc)
        b = mc_metric(cfg, CAPACITY, mc)
        assert a == b  # bit-identical dataclass equality

    def test_requires_threshold_for_outage(self):
        with pytest.raises(DomainError):
            mc_metric(cfg_eta(1.0), OUTAGE, McConfig(10_000, 5))

    def test_unknown_metric(self):
        with pytest.raises(DomainError):
            mc_metric(cfg_eta(1.0), "snr", McConfig(10_000, 5))


class TestMcMetrics:
    @pytest.mark.parametrize("mode,n_samples", [
        (MODEL_DRAW, 50_000),
        (PHYSICAL_DRAW, 20_000),
        (MODEL_DRAW, validation._CHUNK + 10_000),
    ])
    def test_each_case_equals_a_lone_call(self, mode, n_samples):
        mc = McConfig(n_samples, 99, mode)
        cases = [
            (cfg_eta(10.0, F15, 4), CAPACITY, math.nan),
            (cfg_eta(10.0, F15, 4, lam=0.5), BER, math.nan),
            (cfg_eta(10.0, F15, 4), BER, math.nan),
            (cfg_eta(10.0, F15, 4), OUTAGE, 2.0),
            (cfg_eta(300.0, F15, 4), OUTAGE, 4.0),
        ]
        shared = mc_metrics(cases, mc)
        lone = [mc_metric(cfg, which, mc, gamma_th=g) for cfg, which, g in cases]
        assert shared == lone  # bit-identical dataclass equality

    def test_cases_must_share_one_model(self):
        cases = [(cfg_eta(10.0, F15, 1), CAPACITY, math.nan),
                 (cfg_eta(10.0, F15, 4), CAPACITY, math.nan)]
        with pytest.raises(DomainError, match="one channel model"):
            mc_metrics(cases, McConfig(10_000, 5))


class TestKsStatistic:
    def test_self_consistency(self):
        rng = np.random.default_rng(60)
        n = 10**5
        x = rng.standard_normal(n)
        from scipy.stats import norm

        stat = ks_statistic(x, norm.cdf)
        assert stat < 1.63 / math.sqrt(n)

    def test_scipy_agreement(self):
        from scipy.stats import kstest, norm

        rng = np.random.default_rng(61)
        x = rng.standard_normal(2000)
        ours = ks_statistic(x, norm.cdf)
        theirs = float(kstest(x, norm.cdf).statistic)
        assert ours == pytest.approx(theirs, abs=1e-12)

    def test_degenerate_mass(self):
        x = np.full(500, 0.5)
        from scipy.stats import norm

        assert ks_statistic(x, norm.cdf) >= 0.5

    def test_permutation_invariance(self):
        rng = np.random.default_rng(62)
        x = rng.exponential(size=1000)
        from scipy.stats import expon

        a = ks_statistic(x, expon.cdf)
        b = ks_statistic(rng.permutation(x), expon.cdf)
        assert a == b

    def test_minimum_size(self):
        with pytest.raises(DomainError):
            ks_statistic(np.arange(10), lambda v: v)


class TestEvaluate:
    ROUTES = {
        ("exact", CAPACITY): avg_capacity,
        ("exact", BER): avg_ber,
        ("exact", OUTAGE): outage,
        ("asymptotic", CAPACITY): avg_capacity_asymptotic,
        ("asymptotic", BER): avg_ber_asymptotic,
        ("asymptotic", OUTAGE): outage_asymptotic,
        ("quadrature", CAPACITY): quad_capacity,
        ("quadrature", BER): quad_ber,
        ("quadrature", OUTAGE): quad_outage,
    }

    @pytest.mark.parametrize("variant,metric", sorted(ROUTES))
    def test_every_route(self, variant, metric):
        cfg = cfg_eta(30.0, F15, 4, lam=0.5)
        route = self.ROUTES[(variant, metric)]
        want = route(cfg, 2.0) if metric == OUTAGE else route(cfg)
        got = evaluate(cfg, metric, variant, 2.0)
        assert got.method == want.method
        assert got.value == want.value

    def test_patched_route_runs(self, monkeypatch):
        # the table is built per call, so a wrapper patched onto the
        # module (tracing, fault injection) is the function that runs
        marker = MetricResult(value=0.125, method="patched")
        monkeypatch.setattr(validation, "quad_ber", lambda cfg: marker)
        assert evaluate(cfg_eta(10.0), BER, "quadrature") is marker

    def test_unknown_route(self):
        with pytest.raises(DomainError):
            evaluate(cfg_eta(10.0), BER, "mc")
        with pytest.raises(DomainError):
            evaluate(cfg_eta(10.0), "snr", "exact")


class TestMetricCases:
    def test_each_metric_varies_its_own_coordinate(self):
        [(lam, g_db, g)] = metric_cases(CAPACITY, (0.5, 1.0), (3.0,))
        assert lam == 1.0 and math.isnan(g_db) and math.isnan(g)
        ber = metric_cases(BER, (0.5, 1.0), (3.0, 6.0))
        assert [lam for lam, _, _ in ber] == [0.5, 1.0]
        assert all(math.isnan(g_db) and math.isnan(g) for _, g_db, g in ber)
        out = metric_cases(OUTAGE, (0.5, 1.0), (0.0, 10.0))
        assert out == [(1.0, 0.0, 1.0), (1.0, 10.0, 10.0)]


class TestOracleGrid:
    def test_smoke_grid_green(self):
        checks = run_oracle_grid("smoke", master_seed=42)
        assert len(checks) == 40  # 8 points x (1 cap + 2 ber + 2 outage)
        assert all(c.ok for c in checks)
        worst = max(c.rel_gap_quad for c in checks)
        assert worst <= 1e-6

    def test_thread_invariance(self):
        a = run_oracle_grid("smoke", master_seed=7, n_samples=10_000)
        b = run_oracle_grid("smoke", master_seed=7, n_samples=10_000, max_workers=4)
        # repr spells every float exactly, and nan fields compare equal
        assert repr(a) == repr(b)

    def test_one_draw_per_point(self, monkeypatch):
        calls = []
        draw = validation.sample_sum

        def counting(model, *args, **kwargs):
            calls.append(model)
            return draw(model, *args, **kwargs)

        monkeypatch.setattr(validation, "sample_sum", counting)
        checks = run_oracle_grid("smoke", n_samples=10_000)
        assert len(calls) == len({c.index for c in checks}) == 8

    def test_unknown_preset(self):
        with pytest.raises(DomainError):
            run_oracle_grid("quick")

    def test_every_check_names_the_presets(self):
        for check in (run_oracle_grid, lambda p: validation.ks_checks(p, 42),
                      validation.mode_gap_checks):
            with pytest.raises(DomainError, match="use one of smoke, full"):
                check("quick")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_ordered_map_keeps_item_order(self, workers):
        got = list(validation.ordered_map(lambda x: x * x, range(10), workers))
        assert got == [x * x for x in range(10)]


class TestModeGap:
    def test_capacity_gap_small_for_many_cells(self):
        # the aggregate model's closed form against the exact capacity of
        # the sum of 8 unit-mean branches
        cfg = cfg_eta(100.0, n=8)
        model, physical = avg_capacity(cfg), metrics.physical_capacity(cfg)
        assert abs(model.value - physical.value) / physical.value < 0.03
