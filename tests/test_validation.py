"""Oracles: quadrature routes, Monte-Carlo estimators, KS machinery."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from rislink import metrics, validation
from rislink.errors import DomainError, NumericError
from rislink.fading import (
    MODEL_DRAW,
    PHYSICAL_DRAW,
    FadingParams,
    SumFadingModel,
    cdf,
    sample,
    sample_sum,
)
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
    BranchSums,
    CAPACITY,
    OUTAGE,
    McConfig,
    evaluate,
    ks_statistic,
    mc_metric,
    mc_metrics,
    metric_cases,
    point_cases,
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

    # at N m above ~5e5 the saddle's valley is narrower than the saddle
    # search's second grid step; a line left far above the saddle aliased
    # the rule, and the exact BER came out up to 680 e-folds off while
    # claiming 1e-8.  The first row is the CLI example
    #   rislink metrics --metric ber --m 633.5562497002662
    #     --m-s 1.0044727406044165 --n-cells 1762 --eta-db -11.817462916229594
    # (6.26e-11 against 3.73e-51); the others come from a seeded scan over
    # N m 1e6-1e7, N m_s 1.001-1e4 and eta lambda/xi = N m 1e-14..1e-5
    @pytest.mark.parametrize("n,m,m_s,eta", [
        (1762, 633.5562497002662, 1.0044727406044165, 10.0 ** (-11.817462916229594 / 10.0)),
        (1, 1187973.2393517664, 1373.7142823039712, 141.8093383628806),
        (1, 3135059.512020923, 2.0379911495659173, 71267.27530553819),
        (1, 5269444.919236222, 141.3647149011781, 2644.4057783548546),
        (1, 7976364.533134794, 399.61325521980257, 24845.65704982047),
        (1, 1787189.279967414, 1.3467387898350502, 37780.05221736373),
    ])
    def test_narrow_saddle_valley_agrees_with_closed_form(self, n, m, m_s, eta):
        cfg = cfg_eta(eta, FadingParams(m, m_s), n)
        closed, quad = avg_ber(cfg).diagnostics, quad_ber(cfg).diagnostics
        assert abs(math.expm1(closed["log_value"] - quad["log_value"])) <= (
            closed["rel_error"] + quad["rel_error"])


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
            (ours,) = evaluate([(cfg, metric, gth)], "quadrature")
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
        (_, _, _, step, n, evals), = rules
        assert type(d["evals"]) is int and d["evals"] > n + 1
        assert d["evals"] == evals
        assert d["step"] == step and 0.0 < step <= 0.0625
        assert type(d["rel_error"]) is float and 0.0 < d["rel_error"] < 1e-10
        assert r.error_estimate == r.value * d["rel_error"]


# (log_value, evals, step) of each step-halving oracle at four points
# (N, m, m_s, eta), outage at gamma_th = 2: evals and the final step fix
# every node each rule evaluated, the support walk's nodes of the first
# grid within 6 units of the peak included (outage's second point, whose
# support reaches past them, evaluates its first pass again).  Captured with
#   for route, args in ((quad_capacity, ()), (quad_ber, ()), (quad_outage, (2.0,)),
#                       (metrics.physical_capacity, ())):
#       print([(d["log_value"], d["evals"], d["step"]) for d in
#              (route(cfg_eta(eta, FadingParams(m, m_s), n), *args).diagnostics
#               for n, m, m_s, eta in NODE_POINTS)])
NODE_POINTS = [(8, 1.0, 5.0, 100.0), (1, 0.5, 1.1, 1e-2), (64, 4.0, 5.0, 1e4),
               (1024, 10.0, 50.0, 1e6)]
NODE_SEQUENCES = [
    (quad_capacity, (), [(2.2588401028540517, 216, 0.0625), (-2.927195869285516, 215, 0.0625),
                         (2.9594390933219756, 218, 0.0625), (3.3989118456483993, 223, 0.0625)]),
    (quad_ber, (), [(-38.59231800495261, 345, 0.03125), (-0.8384947627381039, 645, 0.015625),
                    (-1924.9071237595138, 220, 0.0625), (-116936.6168988445, 224, 0.0625)]),
    (quad_outage, (2.0,), [(-41.2621858918503, 358, 0.03125),
                           (-0.0033501894225329565, 570, 0.03125),
                           (-2910.497703603332, 357, 0.03125),
                           (-194155.06298470596, 357, 0.03125)]),
    (metrics.physical_capacity, (), [(2.2521848392059325, 46965, 0.1),
                                     (-4.983824871270745, 143325, 0.1),
                                     (2.9590841592485293, 33235, 0.2),
                                     (3.3989108356458715, 25675, 0.2)]),
]


@pytest.mark.parametrize("route,args,want", NODE_SEQUENCES,
                         ids=[r.__name__ for r, _, _ in NODE_SEQUENCES])
def test_step_halving_oracles_keep_their_nodes(route, args, want):
    for (n, m, m_s, eta), (log_value, evals, step) in zip(NODE_POINTS, want):
        d = route(cfg_eta(eta, FadingParams(m, m_s), n), *args).diagnostics
        assert (d["evals"], d["step"]) == (evals, step), (n, m, m_s, eta)
        # the nodes' values may differ in their last bits between libms
        assert d["log_value"] == pytest.approx(log_value, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("route,args", [(quad_capacity, ()), (quad_ber, ()),
                                        (quad_outage, (2.0,))])
def test_first_pass_does_not_depend_on_the_walks_reach(monkeypatch, route, args):
    # a first pass taken from the support walk's nodes and one evaluated
    # by a call of its own, past a reach of 1 unit, are the same bits
    for n, m, m_s, eta in NODE_POINTS:
        cfg = cfg_eta(eta, FadingParams(m, m_s), n)
        want = route(cfg, *args)
        monkeypatch.setattr(validation, "_QUAD_REACH", 1)
        got = route(cfg, *args)
        monkeypatch.undo()
        assert got.diagnostics["evals"] != want.diagnostics["evals"]
        for r in (got, want):
            del r.diagnostics["evals"]
        assert got == want


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

    def test_peak_curvature_outside_doubles_raises(self):
        # at m = 1e300 the outage oracle's curvature overflows to -inf, and
        # the rule's scale 1/sqrt(-curvature) would be 0
        with pytest.raises(NumericError, match="outage integrand peak has curvature -inf"):
            validation._log_axis_integral(lambda y: (0.0 * y,), lambda y: (0.0, -math.inf),
                                          0.0, "outage")

    # N(m + m_s) past 1/eps, where each node's log terms round by more
    # than 1: the oracles raise before any arithmetic could warn
    @pytest.mark.parametrize("oracle,args", [(quad_ber, ()), (quad_outage, (2.0,))])
    @pytest.mark.parametrize("n,m,m_s", [(8, 1e300, 5.0), (1024, 1e30, 1.0000001)])
    def test_shape_past_one_over_eps_raises_without_warning(self, oracle, args, n, m, m_s):
        with pytest.raises(NumericError, match="shape N\\(m \\+ m_s\\) = .* exceeds 1/eps"):
            oracle(cfg_eta(1.0, FadingParams(m, m_s), n), *args)

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
            return dataclasses.replace(r, sign=-1.0)

        monkeypatch.setattr(metrics, "meijer_g", negated)
        with pytest.raises(NumericError, match="sign -1"):
            route(cfg_eta(10.0))

    def test_negative_meijer_g_fails_its_own_batch_row(self, monkeypatch):
        # evaluate finishes each batched closed form as the lone route
        # does, and a failing row leaves the others as their lone routes
        # give them
        good = validation.meijer_g_batch

        def negated_middle(specs):
            reports = good(specs)
            reports[1] = dataclasses.replace(reports[1], sign=-1.0)
            return reports

        monkeypatch.setattr(validation, "meijer_g_batch", negated_middle)
        cfgs = [cfg_eta(eta) for eta in (10.0, 100.0, 1000.0)]
        for metric, route in ((CAPACITY, avg_capacity), (BER, avg_ber)):
            got = evaluate([(cfg, metric, math.nan) for cfg in cfgs], "exact")
            assert isinstance(got[1], NumericError) and "sign -1" in str(got[1])
            assert [got[0], got[2]] == [route(cfgs[0]), route(cfgs[2])]

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
        message = f"gamma_th is {gamma_th!r}, outside the positive finite doubles"
        with pytest.raises(DomainError, match=re.escape(message)):
            route(cfg_eta(1.0), gamma_th)


class TestMcMetric:
    def test_outage_at_negligible_threshold(self):
        est = mc_metric(cfg_eta(100.0), OUTAGE, McConfig(10_000, 3), gamma_th=1e-200)
        assert est.value == 0.0 and est.error_estimate == 0.0

    def test_capacity_band(self):
        cfg = cfg_eta(100.0)
        est = mc_metric(cfg, CAPACITY, McConfig(1_000_000, 11))
        closed = avg_capacity(cfg).value
        assert abs(est.value - closed) <= 3.0 * est.error_estimate

    def test_ber_modes_agree_at_n1(self):
        # matched mean power makes the two draw modes identical in law
        m_s = 5.0
        fading = FadingParams(1.0, m_s, g_bar=m_s / (m_s - 1.0))
        cfg = cfg_eta(10.0, fading, 1)
        a = mc_metric(cfg, BER, McConfig(200_000, 21, MODEL_DRAW))
        b = mc_metric(cfg, BER, McConfig(200_000, 22, PHYSICAL_DRAW))
        combined = math.hypot(a.error_estimate, b.error_estimate)
        assert abs(a.value - b.value) <= 3.0 * combined

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

    @pytest.mark.parametrize("mode,n_samples", [
        (MODEL_DRAW, 10_000), (PHYSICAL_DRAW, validation._CHUNK + 1000)])
    def test_result_records_mode_and_draws(self, mode, n_samples):
        # the MC record is every route's: mean, standard error, draws
        est = mc_metric(cfg_eta(10.0), CAPACITY, McConfig(n_samples, 5, mode))
        assert isinstance(est, MetricResult) and est.method == "mc"
        assert est.diagnostics == {"method": mode, "evals": n_samples}
        assert 0.0 < est.error_estimate < est.value


# The allocating draws and scores that the in-place ones must equal bit
# for bit: scale * X / Y from two fresh gamma arrays, a branch sum built
# by total = total + sample(...), and each metric's chain on fresh arrays.

def ref_f_draw(a, b, scale, rng, size):
    x = rng.gamma(a, size=size)
    y = rng.gamma(b, size=size)
    return scale * x / y


def ref_sample(p, rng, size=None):
    return ref_f_draw(p.m, p.m_s, p.g_bar * (p.m_s - 1.0) / p.m, rng, size)


def ref_sample_sum(model, mode, rng, size=None):
    if mode == MODEL_DRAW:
        return ref_f_draw(model.nm, model.nms, model.nms / model.params.m, rng, size)
    total = ref_sample(model.params, rng, size)
    for _ in range(model.n_cells - 1):
        total = total + ref_sample(model.params, rng, size)
    return total


def ref_metric_samples(cfg, which, gamma_th, g):
    from scipy.special import erfc

    if which == CAPACITY:
        return np.log2(1.0 + cfg.eta * g)
    if which == BER:
        return 0.5 * erfc(np.sqrt(2.0 * cfg.eta * cfg.lambda_mod * g) / math.sqrt(2.0))
    return (cfg.eta * g < gamma_th).astype(float)


def ref_chunks(model, mc):
    """The chunks of channel powers that mc_metrics scores, from the
    allocating draws: a model sample drawn a chunk at a time, a physical
    one whole."""
    rng = np.random.default_rng(np.random.SeedSequence(mc.seed))
    n, size, physical = mc.n_samples, validation._CHUNK, mc.mode == PHYSICAL_DRAW
    whole = ref_sample_sum(model, mc.mode, rng, size=n) if physical else None
    for start in range(0, n, size):
        k = min(size, n - start)
        yield whole[start:start + k] if physical else ref_sample_sum(model, mc.mode, rng, size=k)


def ref_branch(cfg, which, gamma_th, g):
    """The scoring path one chunk of draws takes, and the draws it runs
    erfc on: BER by how many erfc arguments reach the cutoff, outage
    with or without a draw below its threshold."""
    if which == BER:
        x = np.sqrt(2.0 * cfg.eta * cfg.lambda_mod * g) / math.sqrt(2.0)
        dead = np.count_nonzero(x >= validation._ERFC_ZERO)
        if dead == g.size:
            return "ber none live", 0
        if not dead:
            return "ber all live", g.size
        if 4 * dead < g.size:
            return "ber over 3/4 live", g.size
        return "ber gathered", g.size - dead
    if which == OUTAGE and not (cfg.eta * g < gamma_th).any():
        return "outage none below", 0
    return which, 0


BRANCHES = {CAPACITY, OUTAGE, "ber none live", "ber all live", "ber over 3/4 live",
            "ber gathered", "outage none below"}


class TestMcMetrics:
    @pytest.mark.parametrize("mode,n_samples", [
        (MODEL_DRAW, 50_000),
        (PHYSICAL_DRAW, 20_000),
        (MODEL_DRAW, validation._CHUNK + 10_000),
    ])
    def test_each_case_equals_a_lone_call(self, monkeypatch, mode, n_samples):
        mc = McConfig(n_samples, 99, mode)
        # BER's erfc argument reaches the cutoff where eta g >= 710: at eta
        # 100 for about a tenth of the draws, at 200 for about half, at 1e5
        # for all; a few draws' 10 g fall below 2, none below 0.1
        cases = [
            (cfg_eta(10.0, F15, 4), CAPACITY, math.nan),
            (cfg_eta(10.0, F15, 4, lam=0.5), BER, math.nan),
            (cfg_eta(10.0, F15, 4), BER, math.nan),
            (cfg_eta(100.0, F15, 4), BER, math.nan),
            (cfg_eta(200.0, F15, 4), BER, math.nan),
            (cfg_eta(10.0, F15, 4), OUTAGE, 2.0),
            (cfg_eta(300.0, F15, 4), OUTAGE, 4.0),
            (cfg_eta(10.0, F15, 4), OUTAGE, 20.0),
            (cfg_eta(1e5, F15, 4), BER, math.nan),
            (cfg_eta(10.0, F15, 4), OUTAGE, 0.1),
        ]
        paths = [ref_branch(*case, g) for g in ref_chunks(cases[0][0].model(), mc)
                 for case in cases]
        assert {branch for branch, _ in paths} == BRANCHES
        # the draws each erfc call of the shared call runs on
        import scipy.special

        erfc_sizes, scipy_erfc = [], scipy.special.erfc

        def erfc(x, out):
            erfc_sizes.append(x.size)
            return scipy_erfc(x, out=out)

        monkeypatch.setattr(scipy.special, "erfc", erfc)
        shared = mc_metrics(cases, mc)
        assert erfc_sizes == [size for _, size in paths if size]
        lone = [mc_metric(cfg, which, mc, gamma_th=g) for cfg, which, g in cases]
        assert shared == lone  # bit-identical dataclass equality
        assert [(r.value, r.error_estimate) for r in shared[-2:]] == [(0.0, 0.0)] * 2

    def test_erfc_is_zero_from_the_cutoff(self):
        # BER scores 0 where erfc's argument reaches _ERFC_ZERO without
        # calling erfc; the installed scipy must give exactly 0.0 there, and
        # more than 0 at 26.64, so the cutoff lies within 0.01 of the edge
        from scipy.special import erfc

        zero = validation._ERFC_ZERO
        assert zero ** 2 > 709.782712893384  # Cephes' MAXLOG
        grid = np.append(np.geomspace(zero, 1e300, 2000), np.inf)
        assert grid[0] == zero
        assert not erfc(grid).any()
        assert erfc(zero) == 0.0 and erfc(26.64) > 0.0

    def test_cases_must_share_one_model(self):
        cases = [(cfg_eta(10.0, F15, 1), CAPACITY, math.nan),
                 (cfg_eta(10.0, F15, 4), CAPACITY, math.nan)]
        with pytest.raises(DomainError, match="one channel model"):
            mc_metrics(cases, McConfig(10_000, 5))

    @pytest.mark.parametrize("mode", [MODEL_DRAW, PHYSICAL_DRAW])
    @pytest.mark.parametrize("n", [1, 3, 17])
    def test_draws_equal_the_reference(self, mode, n):
        model = SumFadingModel(FadingParams(1.5, 4.0, g_bar=2.0), n)
        rng, ref = np.random.default_rng(2024), np.random.default_rng(2024)
        out = np.full(1000, np.nan)
        assert sample_sum(model, mode, rng, size=1000, out=out) is out
        got = [out, sample_sum(model, mode, rng, size=999), sample_sum(model, mode, rng),
               sample(model.params, rng)]
        want = [ref_sample_sum(model, mode, ref, size) for size in (1000, 999, None)]
        want.append(ref_sample(model.params, ref))
        assert [type(x) for x in got[2:]] == [float, float]
        assert [np.asarray(x).tobytes() for x in got] == [np.asarray(x).tobytes() for x in want]
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("mode", [MODEL_DRAW, PHYSICAL_DRAW])
    def test_moments_equal_the_two_pass_formula(self, monkeypatch, mode):
        # three chunks, the last (1808 draws) shorter than the workspace, so
        # the pairwise merge runs and a stale tail in a reused buffer shows.
        # A model sample is drawn a chunk at a time, a physical one whole
        monkeypatch.setattr(validation, "_CHUNK", 4096)
        mc = McConfig(10_000, 17, mode)
        cut = validation._ERFC_ZERO ** 2
        reached = set()
        for n in (1, 3, 17):
            model = SumFadingModel(F15, n)
            chunks = list(ref_chunks(model, mc))
            g_all = np.concatenate(chunks)
            # at eta 10, BER's cutoff lies past every draw; etas that put it at
            # the 90th and 50th percentiles and under the least draw; a
            # threshold under the least 10 g
            g_min = g_all.min()
            gammas_th_db = (3.0, 6.0, 10.0 * math.log10(10.0 * g_min / 2.0))
            cases = point_cases(10.0, F15, n, (CAPACITY, BER, OUTAGE), (1.0, 0.5), gammas_th_db)
            for eta in (*(cut / np.quantile(g_all, (0.9, 0.5))), 2.0 * cut / g_min):
                cases += point_cases(float(eta), F15, n, (BER,), (1.0,), ())
            n_total, moments = 0, [(0.0, 0.0)] * len(cases)
            assert [g.size for g in chunks] == [4096, 4096, 1808]
            for g in chunks:
                k = g.size
                tot = n_total + k
                reached.update(ref_branch(*case[:3], g)[0] for case in cases)
                for i, (cfg, which, gamma_th, _) in enumerate(cases):
                    vals = ref_metric_samples(cfg, which, gamma_th, g)
                    c_mean = float(vals.mean())
                    c_m2 = float(((vals - c_mean) ** 2).sum())
                    mean, m2 = moments[i]
                    delta = c_mean - mean
                    moments[i] = (mean + delta * k / tot,
                                  m2 + c_m2 + delta * delta * n_total * k / tot)
                n_total = tot
            got = [(r.value, r.error_estimate) for r in mc_metrics(cases, mc)]
            want = [(mean, math.sqrt(m2 / (n_total - 1) / n_total)) for mean, m2 in moments]
            assert n_total == mc.n_samples
            assert [case[1] for case in cases] == [CAPACITY, BER, BER] + [OUTAGE] * 3 + [BER] * 3
            assert got == want, n
        assert reached == BRANCHES


    def test_lone_physical_value_is_pinned(self):
        # up to _CHUNK draws the whole branch-major sample is the one chunk
        # that chunked drawing drew, so a lone value keeps its bits
        cfg = cfg_eta(10.0, F15, 8)
        est = mc_metric(cfg, CAPACITY, McConfig(validation._CHUNK, 7, PHYSICAL_DRAW))
        assert (est.value, est.error_estimate) == (6.205297470267158, 0.0012183086642027262)

    @pytest.mark.parametrize("n_cells", [(2, 5, 5, 9), (9, 2, 5)])
    def test_branch_sums_give_lone_results(self, n_cells):
        # an ascending call grows the shared sum by its new branches; a call
        # below the count draws afresh and leaves the sum alone; the last
        # call frees the sample
        mc = McConfig(10_000, 23, PHYSICAL_DRAW)
        sums = BranchSums(len(n_cells))
        counts = []
        for n in n_cells:
            cases = point_cases(10.0, F15, n, (CAPACITY, BER, OUTAGE), (1.0,), (6.0,))
            assert mc_metrics(cases, mc, sums) == mc_metrics(cases, mc)
            counts.append(sums.count)
        assert counts == list(itertools.accumulate(n_cells, max))
        assert (sums.calls, sums.total, sums.rng) == (0, None, None)


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

    # the pruned statistic against a full evaluation of the CDF, bit for bit

    @pytest.mark.parametrize("seed", [42, 107])
    def test_ks_checks_laws_match_full_evaluation(self, monkeypatch, seed):
        seen = []

        def recording(samples, cdf_fn):
            stat = ks_statistic(samples, cdf_fn)
            seen.append((stat, ks_reference(samples, cdf_fn)))
            return stat

        monkeypatch.setattr(validation, "ks_statistic", recording)
        checks = validation.ks_checks("full", seed)
        assert len(seen) == len(checks) == 8
        assert all(stat == want for stat, want in seen)
        if seed == 107:
            (row,) = [c for c in checks if c.metric == "ks_model_sum" and c.m == 1.0
                      and c.m_s == 2.0]
            assert row.mc_mean == 0.0052291515433174895

    @pytest.mark.parametrize("n", [100, 101, 2000, 10**5 + 7])
    @pytest.mark.parametrize("law", ["norm", "expon"])
    def test_matches_full_evaluation(self, n, law):
        from scipy import stats

        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) if law == "norm" else rng.exponential(size=n)
        cdf_fn = getattr(stats, law).cdf
        assert ks_statistic(x, cdf_fn) == ks_reference(x, cdf_fn)

    def test_all_ties_match_full_evaluation(self):
        from scipy.stats import norm

        x = np.full(1000, 0.25)
        assert ks_statistic(x, norm.cdf) == ks_reference(x, norm.cdf)

    def test_supremum_inside_a_block(self):
        from scipy.stats import norm

        x = np.random.default_rng(63).standard_normal(10_000)

        def shifted(v):
            return norm.cdf(v - 0.03)

        # the fixture's supremum lies strictly inside a block
        xs = np.sort(x)
        f = shifted(xs)
        gaps = np.maximum(np.arange(1, xs.size + 1) / xs.size - f, f - np.arange(xs.size) / xs.size)
        at = int(np.argmax(gaps))
        assert at % validation._KS_BLOCK != 0 and at != xs.size - 1
        assert ks_statistic(x, shifted) == ks_reference(x, shifted)

    def test_evaluates_a_fraction_of_an_f_law(self):
        p = FadingParams(1.0, 5.0)
        x = sample(p, np.random.default_rng(64), size=10**5)
        evaluated = []

        def counting(v):
            evaluated.append(v.size)
            return cdf(p, v)

        assert ks_statistic(x, counting) == ks_reference(x, lambda v: cdf(p, v))
        assert sum(evaluated) <= 0.25 * x.size

    # what the pruning relies on is checked at every evaluated point

    def test_nan_sample_raises(self):
        from scipy.stats import norm

        x = np.random.default_rng(65).standard_normal(1000)
        x[500] = math.nan
        with pytest.raises(DomainError, match="nan"):
            ks_statistic(x, norm.cdf)

    @pytest.mark.parametrize("cdf_fn", [
        lambda v: np.full(v.shape, math.nan),
        lambda v: 1.5 * (v > 0.0),
        lambda v: -np.exp(-v),
    ], ids=["nan", "above_one", "below_zero"])
    def test_cdf_outside_unit_interval_raises(self, cdf_fn):
        x = np.random.default_rng(66).exponential(size=1000)
        with pytest.raises(DomainError, match=r"outside \[0, 1\]"):
            ks_statistic(x, cdf_fn)

    def test_decreasing_cdf_raises(self):
        from scipy.stats import norm

        x = np.random.default_rng(67).standard_normal(1000)
        with pytest.raises(DomainError, match="non-decreasing"):
            ks_statistic(x, norm.sf)


def ks_reference(samples, cdf_fn) -> float:
    """The KS statistic from cdf_fn at every sorted sample."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    f = np.asarray(cdf_fn(x), dtype=float)
    return float(max((np.arange(1, n + 1) / n - f).max(), (f - np.arange(0, n) / n).max()))


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
        (got,) = evaluate([(cfg, metric, 2.0)], variant)
        assert got.method == want.method
        assert got.value == want.value

    def test_patched_route_runs(self, monkeypatch):
        # the table is built per call, so a wrapper patched onto the
        # module (tracing, fault injection) is the function that runs
        marker = MetricResult(value=0.125, method="patched")
        monkeypatch.setattr(validation, "quad_ber", lambda cfg: marker)
        (got,) = evaluate([(cfg_eta(10.0), BER, math.nan)], "quadrature")
        assert got is marker

    def test_exact_batch_is_each_lone_route(self, monkeypatch):
        # two families' capacity, BER and outage cases in one call; their
        # capacity and BER cases share one batched Meijer G call
        batches = []
        good = validation.meijer_g_batch

        def counting(specs):
            batches.append(len(specs))
            return good(specs)

        monkeypatch.setattr(validation, "meijer_g_batch", counting)
        cases = [case for n in (4, 32) for case in point_cases(
            300.0, F15, n, (CAPACITY, BER, OUTAGE), (0.5, 1.0), (3.0, 6.0))]
        got = evaluate(cases, "exact")
        assert batches == [6]
        assert [case[1] for case in cases] == [CAPACITY, BER, BER, OUTAGE, OUTAGE] * 2
        for (cfg, metric, gamma_th, _), r in zip(cases, got):
            route = self.ROUTES[("exact", metric)]
            assert r == (route(cfg, gamma_th) if metric == OUTAGE else route(cfg))

    def test_exact_batch_keeps_each_error_in_its_row(self):
        # an outage threshold of 0 fails its own row only
        cases = [(cfg_eta(10.0), OUTAGE, 0.0), (cfg_eta(10.0), BER, math.nan)]
        got = evaluate(cases, "exact")
        assert isinstance(got[0], DomainError) and "gamma_th" in str(got[0])
        assert got[1] == avg_ber(cfg_eta(10.0))

    @pytest.mark.parametrize("variant", ["asymptotic", "quadrature"])
    def test_lone_routes_keep_each_error_in_its_row(self, variant):
        # the case-by-case routes store a failing case's error and go on
        cfg = cfg_eta(10.0)
        cases = [(cfg, BER, math.nan), (cfg, OUTAGE, 0.0), (cfg, CAPACITY, math.nan)]
        got = evaluate(cases, variant)
        assert isinstance(got[1], DomainError) and "gamma_th" in str(got[1])
        assert got[0] == self.ROUTES[(variant, BER)](cfg)
        assert got[2] == self.ROUTES[(variant, CAPACITY)](cfg)

    def test_unknown_route(self):
        with pytest.raises(DomainError):
            evaluate([(cfg_eta(10.0), BER, math.nan)], "mc")
        with pytest.raises(DomainError):
            evaluate([(cfg_eta(10.0), "snr", math.nan)], "exact")

    def test_physical_route_is_each_lone_call(self):
        cases = [(cfg_eta(100.0, F15, 8), CAPACITY, math.nan),
                 (cfg_eta(3.0, FadingParams(1.5, 3.0), 2), CAPACITY, math.nan, "ignored")]
        want = [metrics.physical_capacity(cfg) for cfg, *_ in cases]
        assert evaluate(cases, "physical") == want

    @pytest.mark.parametrize("metric", [BER, OUTAGE])
    def test_physical_route_is_capacity_only(self, monkeypatch, metric):
        # an unknown pair raises before any route runs
        calls = []
        monkeypatch.setattr(validation, "physical_capacity", calls.append)
        cases = [(cfg_eta(10.0), CAPACITY, math.nan), (cfg_eta(10.0), metric, 2.0)]
        with pytest.raises(DomainError, match=f"no 'physical' route for metric '{metric}'"):
            evaluate(cases, "physical")
        assert calls == []


class TestInRowOrder:
    def test_zips_columns_into_rows(self):
        assert validation.in_row_order([1, 2], "ab", [None, 0.5]) == [
            (1, "a", None), (2, "b", 0.5)]
        assert validation.in_row_order() == []

    def test_first_error_in_row_order_then_column_order(self):
        late, left, right = (NumericError(w) for w in ("late", "left", "right"))
        # row 1's error beats row 2's, though row 2's is in an earlier column
        with pytest.raises(NumericError, match="right"):
            validation.in_row_order([1, 2, late], [3, right, 5])
        # within a row, the earlier column wins
        with pytest.raises(NumericError, match="left"):
            validation.in_row_order([1, left, late], [3, right, 5])
        with pytest.raises(DomainError, match="first"):
            validation.in_row_order([DomainError("first"), left], [right, 4])

    def test_columns_must_be_equal_length(self):
        with pytest.raises(ValueError):
            validation.in_row_order([1, 2], [3])


class TestMetricCases:
    def test_each_metric_varies_its_own_coordinate(self):
        [(lam, g_db, g)] = metric_cases(CAPACITY, (0.5, 1.0), (3.0,))
        assert lam == 1.0 and math.isnan(g_db) and math.isnan(g)
        ber = metric_cases(BER, (0.5, 1.0), (3.0, 6.0))
        assert [lam for lam, _, _ in ber] == [0.5, 1.0]
        assert all(math.isnan(g_db) and math.isnan(g) for _, g_db, g in ber)
        out = metric_cases(OUTAGE, (0.5, 1.0), (0.0, 10.0))
        assert out == [(1.0, 0.0, 1.0), (1.0, 10.0, 10.0)]


def _point_seed(master_seed, idx):
    return int(np.random.SeedSequence((master_seed, idx)).generate_state(1)[0])


def _lone_point_rows(master_seed, idx, n, m, m_s, eta_db, n_samples):
    """The oracle rows of grid point idx run alone, on the substream of
    (master_seed, idx): one sample and one call per route for its rows."""
    cases = point_cases(10.0 ** (eta_db / 10.0), FadingParams(m, m_s), n,
                        (CAPACITY, BER, OUTAGE), validation.GRID_LAMBDA,
                        validation.GRID_GAMMA_TH_DB)
    estimates = mc_metrics(cases, McConfig(n_samples, _point_seed(master_seed, idx)))
    rows = []
    for (cfg, metric, _, gth_db), est, exact, quad in zip(
            cases, estimates, evaluate(cases, "exact"), evaluate(cases, "quadrature")):
        c_log, q_log = exact.diagnostics["log_value"], quad.diagnostics["log_value"]
        gap = validation._rel_gap_from_logs(c_log, q_log)
        ok_mc, note = validation._mc_consistent(exact.value, est, metric)
        rows.append(validation.Check(
            kind="oracle", index=idx, n_cells=n, m=m, m_s=m_s, eta_db=eta_db, metric=metric,
            lambda_mod=cfg.lambda_mod, gamma_th_db=gth_db, closed_log=c_log, quad_log=q_log,
            rel_gap_quad=gap, mc_mean=est.value, mc_std_error=est.error_estimate, note=note,
            ok=bool(ok_mc) and gap <= metrics.REL_TOL))
    return rows


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

    @pytest.mark.parametrize("preset,families", [("smoke", 2), ("full", 16)])
    def test_one_draw_per_family(self, monkeypatch, preset, families):
        # the eta_db points of one (N, m, m_s) share one sample
        calls = []
        draw = validation.sample_sum

        def counting(model, *args, **kwargs):
            calls.append(model)
            return draw(model, *args, **kwargs)

        monkeypatch.setattr(validation, "sample_sum", counting)
        checks = run_oracle_grid(preset, n_samples=10_000)
        assert len(calls) == len(set(calls)) == families
        assert len({c.index for c in checks}) == families * len(validation._ETA_DB)

    def test_mc_columns_are_lone_calls_on_the_family_seed(self):
        checks = run_oracle_grid("smoke", master_seed=5, n_samples=10_000)
        for c in checks:
            first = c.index - c.index % len(validation._ETA_DB)
            cfg = cfg_eta(10.0 ** (c.eta_db / 10.0), FadingParams(c.m, c.m_s), c.n_cells,
                          c.lambda_mod)
            gamma_th = (metrics.snr_threshold_from_db(c.gamma_th_db) if c.metric == OUTAGE
                        else math.nan)
            est = mc_metric(cfg, c.metric, McConfig(10_000, _point_seed(5, first)), gamma_th)
            assert (c.mc_mean, c.mc_std_error) == (est.value, est.error_estimate)

    def test_first_point_of_a_family_is_its_lone_run(self):
        grid = validation.PRESETS["smoke"].grid
        checks = run_oracle_grid("smoke", master_seed=5, n_samples=10_000)
        firsts = [c for c in checks if c.eta_db == grid[-1][0]]
        want = [row for k, (n, m, m_s) in enumerate(itertools.product(*grid[:-1]))
                for row in _lone_point_rows(5, k * len(grid[-1]), n, m, m_s, grid[-1][0],
                                            10_000)]
        assert len(firsts) == 10
        assert repr(firsts) == repr(want)

    def test_failing_row_raises_its_own_error(self, monkeypatch):
        # at the point eta = 10 the exact BER row at lambda 0.5 and the
        # quadrature BER row at lambda 1 fail; the exact route runs first,
        # but the lambda 1 row comes first in row order
        good_form, good_quad = validation._ber_form, validation.quad_ber

        def form(cfg):
            if (cfg.eta, cfg.lambda_mod) == (10.0, 0.5):
                raise NumericError("exact, lambda 0.5")
            return good_form(cfg)

        def quad(cfg):
            if (cfg.eta, cfg.lambda_mod) == (10.0, 1.0):
                raise NumericError("quadrature, lambda 1")
            return good_quad(cfg)

        monkeypatch.setattr(validation, "_ber_form", form)
        monkeypatch.setattr(validation, "quad_ber", quad)
        with pytest.raises(NumericError, match="quadrature, lambda 1"):
            run_oracle_grid("smoke", n_samples=10_000)

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
    @pytest.mark.parametrize("preset", sorted(validation.PRESETS))
    def test_rows_are_lone_route_calls(self, preset):
        # each row as lone avg_capacity and physical_capacity calls give it
        want = []
        for i, n in enumerate(validation.PRESETS[preset].gap_ns):
            cfg = cfg_eta(metrics.snr_threshold_from_db(20.0), F15, n)
            model, physical = avg_capacity(cfg), metrics.physical_capacity(cfg)
            gap = abs(model.value - physical.value) / physical.value
            want.append(validation.Check(
                kind="mode_gap", index=9000 + i, n_cells=n, m=1.0, m_s=5.0, eta_db=20.0,
                metric="capacity_gap", closed_log=model.diagnostics["log_value"],
                quad_log=physical.diagnostics["log_value"], rel_gap_quad=gap,
                note=f"rel_error={physical.diagnostics['rel_error']:.3e}", ok=gap < 0.03))
        assert repr(validation.mode_gap_checks(preset)) == repr(want)

    def test_failing_row_raises_in_row_order(self, monkeypatch):
        # the exact route fails at N 32 and the physical one at N 16: the
        # N 16 row comes first in row order
        good_form, good_physical = validation._capacity_form, validation.physical_capacity

        def form(cfg):
            if cfg.n_cells == 32:
                raise NumericError("exact, N 32")
            return good_form(cfg)

        def physical(cfg):
            if cfg.n_cells == 16:
                raise NumericError("physical, N 16")
            return good_physical(cfg)

        monkeypatch.setattr(validation, "_capacity_form", form)
        monkeypatch.setattr(validation, "physical_capacity", physical)
        with pytest.raises(NumericError, match="physical, N 16"):
            validation.mode_gap_checks("full")

    def test_capacity_gap_small_for_many_cells(self):
        # the aggregate model's closed form against the exact capacity of
        # the sum of 8 unit-mean branches
        cfg = cfg_eta(100.0, n=8)
        model, physical = avg_capacity(cfg), metrics.physical_capacity(cfg)
        assert abs(model.value - physical.value) / physical.value < 0.03
