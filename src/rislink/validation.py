"""Independent oracles for the closed-form metrics.

Two families:

  * adaptive quadrature of the defining integrals, computed on a
    peak-normalized log scale so that relative accuracy survives even
    when the metric itself is hundreds of orders below double range;
  * seeded Monte-Carlo estimators over the channel sampler, with
    standard errors and exact small-count fallbacks.

Neither path touches the Meijer G evaluator or the hypergeometric
closed forms, so agreement between the three routes is a genuine
cross-check.  Grid points evaluate independently; every one owns a
private RNG substream derived from (master seed, point index), making
results identical no matter how the points are scheduled.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, log_ndtr

from .errors import DomainError, NumericError
from .fading import (
    MODEL_DRAW,
    PHYSICAL_DRAW,
    FadingParams,
    SumFadingModel,
    sample_sum,
)
from .metrics import (
    BER_BOUND,
    OUTAGE_BOUND,
    QUADRATURE,
    LinkConfig,
    MetricResult,
    avg_ber,
    avg_ber_asymptotic,
    avg_capacity,
    avg_capacity_asymptotic,
    capacity_bound,
    check_gamma_th,
    outage,
    outage_asymptotic,
    result,
    snr_threshold_from_db,
)

_SQRT2 = math.sqrt(2.0)
_LN2 = math.log(2.0)
_EPS = float(np.finfo(float).eps)
QUAD_LIMIT = 400  # subdivision cap per quad call; ~30 evals each

CAPACITY = "capacity"
BER = "ber"
OUTAGE = "outage"

# Two-sided normal tail mass at 3.5 sigma; the exact small-count
# fallbacks below are calibrated to the same false-alarm rate.
ALPHA_3P5 = 4.6525e-4


@dataclass(frozen=True)
class McConfig:
    """Monte-Carlo run parameters."""

    n_samples: int
    seed: int
    mode: str = MODEL_DRAW

    def __post_init__(self):
        if self.n_samples < 10_000:
            raise DomainError(
                f"n_samples must be at least 10^4 for usable CIs, got {self.n_samples}"
            )
        if self.mode not in (MODEL_DRAW, PHYSICAL_DRAW):
            raise DomainError(f"unknown MC mode {self.mode!r}")


@dataclass(frozen=True)
class CiEstimate:
    """Monte-Carlo mean with its standard error."""

    mean: float
    std_error: float
    n: int


def _peak_normalized_quad(
    log_h, what: str, u_peak: float | None = None, u_hi: float | None = None
) -> tuple[float, float]:
    """log of the integral of exp(log_h(u)) du, and its relative error.

    The integrand is normalized by its peak, found numerically unless the
    caller knows it in closed form, so the quadrature stays relatively
    accurate however far the integral lies outside double range.  The
    support runs where log_h lies within 100 of the peak, cut at u_hi;
    a cut far beyond the support would let quad miss a narrow peak.
    """
    # imported here: only the quadrature routes need these, and they
    # cost a CLI process that never runs one about 0.2 s of start-up
    from scipy.integrate import quad
    from scipy.optimize import minimize_scalar

    if u_peak is None:
        peak = minimize_scalar(lambda u: -log_h(u), method="bounded",
                               bounds=(-400.0, 400.0),
                               options={"xatol": 1e-10})
        u_peak = float(peak.x)
    h_peak = log_h(u_peak)

    def edge(direction: float) -> float:
        step = 1.0
        while log_h(u_peak + direction * step) > h_peak - 100.0:
            step *= 2.0
            if step > 1e6:
                raise NumericError(f"{what} integrand support did not close")
        return u_peak + direction * step

    u_top = edge(+1.0) if u_hi is None else min(u_hi, edge(+1.0))
    val, err = quad(lambda u: math.exp(log_h(u) - h_peak), edge(-1.0), u_top,
                    epsabs=1e-13, epsrel=1e-11, limit=QUAD_LIMIT)
    if not (np.isfinite(val) and val > 0.0):
        raise NumericError(f"quadrature failed for {what} integral")
    return h_peak + math.log(val), err / val


def _quad_result(model: SumFadingModel, log_front: float, log_integral: float,
                 rel_err: float, upper: float) -> MetricResult:
    """exp(log_front + log_integral) / B(Nm, Nms); raises above ``upper``.

    The error estimate also carries the rounding of the log-space sum,
    each term good to a few ulps of its own size: at large N that
    rounding, not the quadrature, limits the accuracy.
    """
    lgammas = [math.lgamma(x) for x in (model.nm, model.nms, model.nm + model.nms)]
    ln_b = lgammas[0] + lgammas[1] - lgammas[2]
    rel_err += 8.0 * _EPS * (
        abs(log_front) + sum(abs(t) for t in lgammas) + abs(log_integral)
    )
    return result(QUADRATURE, log_front - ln_b + log_integral, rel_err, upper)


def _softplus(u: float) -> float:
    """log(1 + e^u) without overflow: the bits of numpy's logaddexp(0, u)
    at a fraction of its cost per scalar call."""
    return u + math.log1p(math.exp(-u)) if u > 0.0 else math.log1p(math.exp(u))


def _log_softplus(s: float) -> float:
    """log(log(1 + e^s)), equal to s to double precision far below zero."""
    return math.log(_softplus(s)) if s > -700.0 else s


def quad_capacity(cfg: LinkConfig) -> MetricResult:
    """E[log2(1 + eta g)] by peak-normalized adaptive quadrature.

    On the axis u = ln(xi g) the expectation is B(Nm, Nms)^-1 times the
    integral of ln(1 + (eta/xi) e^u) e^(Nm u) (1 + e^u)^(-A) du,
    A = N(m + m_s).  Bounded above by Jensen's log2(1 + eta E[g]).
    """
    model = cfg.model()
    eta = cfg.eta
    nm = model.nm
    a_tot = nm + model.nms
    log_z = math.log(eta) - math.log(model.xi)

    def log_h(u: float) -> float:
        return _log_softplus(log_z + u) + nm * u - a_tot * _softplus(u)

    log_integral, rel_err = _peak_normalized_quad(log_h, "capacity")
    return _quad_result(model, -math.log(_LN2), log_integral, rel_err,
                        capacity_bound(cfg))


def _log_q_of_sqrt(x: float) -> float:
    """log Q(sqrt(2x)) for x >= 0, safe far into the tail."""
    return float(log_ndtr(-math.sqrt(2.0 * x)))


def quad_ber(cfg: LinkConfig) -> MetricResult:
    """E[Q(sqrt(2 eta lambda g))] by peak-normalized adaptive quadrature.

    Substituting x = eta lambda g and factoring (xi/(eta lambda))^Nm / B
    out of the density leaves the integral of
    Q(sqrt(2x)) x^(Nm-1) (1 + eps x)^(-A).  It is evaluated on the log
    axis u = ln x, whose Jacobian makes the integrand peak interior for
    every parameter combination.  Exact on the log scale even when the
    BER underflows doubles.
    """
    model = cfg.model()
    eta_lam = cfg.eta * cfg.lambda_mod
    nm = model.nm
    a_tot = nm + model.nms
    log_eps = math.log(model.xi) - math.log(eta_lam)

    def log_h(u: float) -> float:
        # log of the u-axis integrand, overflow-safe via softplus
        return (
            _log_q_of_sqrt(math.exp(u))
            + nm * u
            - a_tot * _softplus(log_eps + u)
        )

    log_integral, rel_err = _peak_normalized_quad(log_h, "BER")
    return _quad_result(model, nm * log_eps, log_integral, rel_err, BER_BOUND)


def quad_outage(cfg: LinkConfig, gamma_th: float) -> MetricResult:
    """P{eta g < gamma_th} by quadrature of the density over (0, v).

    Substituting g = v e^u and factoring (xi v)^Nm / B leaves the
    integral of exp(h(u)) over u <= 0 with
    h(u) = Nm u - A log(1 + xi v e^u), a concave function whose maximum
    is known in closed form.
    """
    check_gamma_th(gamma_th)
    model = cfg.model()
    v = gamma_th / cfg.eta
    nm = model.nm
    a_tot = nm + model.nms
    log_xiv = math.log(model.xi) + math.log(v)

    def h(u: float) -> float:
        return nm * u - a_tot * _softplus(log_xiv + u)

    # stationary point of h: xi v e^u = Nm / Nms, clamped to u <= 0
    u_star = min(0.0, math.log(nm / model.nms) - log_xiv)
    log_integral, rel_err = _peak_normalized_quad(h, "outage", u_peak=u_star, u_hi=0.0)
    return _quad_result(model, nm * log_xiv, log_integral, rel_err, OUTAGE_BOUND)


def evaluate(
    cfg: LinkConfig, metric: str, variant: str, gamma_th: float = float("nan")
) -> MetricResult:
    """One metric by the exact, asymptotic or quadrature route.

    ``gamma_th`` (linear) is read by outage only.  The route table is
    built per call from this module's names, so a function patched onto
    the module, such as a tracing wrapper, is the one that runs.
    """
    routes = {
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
    route = routes.get((variant, metric))
    if route is None:
        raise DomainError(f"no {variant!r} route for metric {metric!r}")
    return route(cfg, gamma_th) if metric == OUTAGE else route(cfg)


def metric_cases(metric: str, lambdas, gammas_th_db):
    """The (lambda, gamma_th_db, linear gamma_th) cases one metric runs at.

    BER varies the modulation constant, outage the threshold; the
    coordinate a metric does not read is 1 for lambda and nan for the
    threshold.
    """
    nan = float("nan")
    if metric == BER:
        return [(lam, nan, nan) for lam in lambdas]
    if metric == OUTAGE:
        return [(1.0, g, snr_threshold_from_db(g)) for g in gammas_th_db]
    return [(1.0, nan, nan)]


def point_cases(eta: float, fading: FadingParams, n_cells: int, metrics,
                lambdas, gammas_th_db):
    """The (cfg, metric, linear gamma_th, gamma_th_db) rows of one point.

    Rows follow ``metrics``, then :func:`metric_cases` within a metric.
    They all share one channel model, so :func:`mc_metrics` can score
    them on one sample.
    """
    return [
        (LinkConfig.from_eta(eta, fading, n_cells, lambda_mod=lam), metric, gth, gth_db)
        for metric in metrics
        for lam, gth_db, gth in metric_cases(metric, lambdas, gammas_th_db)
    ]


_CHUNK = 1 << 18


def _metric_samples(cfg: LinkConfig, which: str, gamma_th: float, g: np.ndarray):
    eta = cfg.eta
    if which == CAPACITY:
        return np.log2(1.0 + eta * g)
    if which == BER:
        return 0.5 * erfc(np.sqrt(2.0 * eta * cfg.lambda_mod * g) / _SQRT2)
    return (eta * g < gamma_th).astype(float)  # outage


def mc_metrics(cases, mc: McConfig) -> list[CiEstimate]:
    """Seeded Monte-Carlo estimates of several metrics on one sample.

    ``cases`` holds (cfg, metric, linear gamma_th) triples that share one
    channel model; they may differ in eta, lambda and threshold.  Each
    chunk of channel powers is drawn once and scored for every case, so
    every case gets the estimate a lone call with the same seed gives.
    Capacity averages log2(1 + eta g); BER averages the conditional
    error probability Q(sqrt(2 eta lambda g)) directly (no bit flips),
    outage averages the threshold indicator.  Aggregation merges
    (count, mean, M2) triples over fixed-size chunks, so the result is
    bit-identical for a given seed regardless of scheduling.
    """
    for cfg, which, gamma_th in cases:
        if which not in (CAPACITY, BER, OUTAGE):
            raise DomainError(f"unknown metric {which!r}")
        if which == OUTAGE:
            check_gamma_th(gamma_th)
    models = {cfg.model() for cfg, _, _ in cases}
    if len(models) != 1:
        raise DomainError(
            f"cases must share one channel model to share draws, got {len(models)}"
        )
    (model,) = models
    rng = np.random.default_rng(np.random.SeedSequence(mc.seed))
    n_total = 0
    moments = [(0.0, 0.0)] * len(cases)  # (mean, M2) per case
    remaining = mc.n_samples
    while remaining > 0:
        k = min(_CHUNK, remaining)
        g = sample_sum(model, mc.mode, rng, size=k)
        tot = n_total + k
        for i, (cfg, which, gamma_th) in enumerate(cases):
            vals = _metric_samples(cfg, which, gamma_th, g)
            c_mean = float(vals.mean())
            c_m2 = float(((vals - c_mean) ** 2).sum())
            # Chan et al. pairwise merge of (n, mean, M2)
            mean, m2 = moments[i]
            delta = c_mean - mean
            moments[i] = (mean + delta * k / tot,
                          m2 + c_m2 + delta * delta * n_total * k / tot)
        n_total = tot
        remaining -= k
    estimates = []
    for mean, m2 in moments:
        var = m2 / (n_total - 1) if n_total > 1 else 0.0
        estimates.append(CiEstimate(
            mean=mean, std_error=math.sqrt(max(var, 0.0) / n_total), n=n_total))
    return estimates


def mc_metric(
    cfg: LinkConfig,
    which: str,
    mc: McConfig,
    gamma_th: float = float("nan"),
) -> CiEstimate:
    """Seeded Monte-Carlo estimate of one metric: one case of
    :func:`mc_metrics`."""
    return mc_metrics([(cfg, which, gamma_th)], mc)[0]


def ks_statistic(samples, cdf_fn) -> float:
    """Sup distance between the empirical CDF of samples and cdf_fn."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < 100:
        raise DomainError(f"ks_statistic needs at least 100 samples, got {n}")
    f = np.asarray(cdf_fn(x), dtype=float)
    hi = np.arange(1, n + 1) / n - f
    lo = f - np.arange(0, n) / n
    return float(max(hi.max(), lo.max()))


# ---------------------------------------------------------------------------
# Oracle-agreement grid
# ---------------------------------------------------------------------------

REL_TOL_QUAD = 1e-6
MC_SIGMA_BAND = 3.5

# preset -> (N values, m values, m_s values, eta_db values)
GRID_PRESETS = {
    "full": ((1, 8, 16, 32), (1.0, 4.0), (2.0, 5.0), (0.0, 10.0, 20.0, 30.0)),
    "smoke": ((1, 8), (1.0,), (5.0,), (0.0, 10.0, 20.0, 30.0)),
}
GRID_GAMMA_TH_DB = (3.0, 6.0)
GRID_LAMBDA = (1.0, 0.5)


@dataclass
class GridCheck:
    """One metric at one grid point: three routes and their verdict."""

    index: int
    n_cells: int
    m: float
    m_s: float
    eta_db: float
    metric: str
    lambda_mod: float
    gamma_th_db: float
    closed_log: float
    quad_log: float
    mc_mean: float
    mc_std_error: float
    rel_gap_quad: float
    mc_ok: bool
    quad_ok: bool
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.mc_ok and self.quad_ok


def _rel_gap_from_logs(log_a: float, log_b: float) -> float:
    """|a/b - 1| computed from natural logs, robust at any magnitude."""
    if log_a == -math.inf and log_b == -math.inf:
        return 0.0
    if log_a == -math.inf or log_b == -math.inf:
        return math.inf
    d = log_a - log_b
    if abs(d) > 1.0:
        return math.inf
    return abs(math.expm1(d))


def _mc_consistent(
    closed: float, est: CiEstimate, which: str
) -> tuple[bool, str]:
    """Closed form versus MC at the 3.5 sigma false-alarm rate.

    When the estimator has resolved the metric (small relative standard
    error), this is the plain sigma band.  Outside the CLT regime exact
    bounds at the same alpha take over:

      * outage with fewer than 10 observed hits: Garwood's Poisson
        interval on the hit count;
      * samples all zero: the one-sided exact bound requiring
        P(all zero | closed) >= alpha, using Q <= 1/2 for BER;
      * heavy-tailed BER (se comparable to the mean, so the sample mean
        and its se are both unreliable): only the Markov bound
        P(sample mean >= x) <= closed/x remains valid, i.e. the closed
        form must not sit far below the observed mean.  Deep-tail BER
        points are genuinely unresolvable by plain sampling at these
        sizes; their 1e-6 verification is carried by the quadrature
        route.
    """
    if which == OUTAGE:
        k = int(round(est.mean * est.n))
        if k < 10:
            # Garwood bounds at total mass ALPHA_3P5
            from scipy.stats import chi2

            lo = 0.5 * chi2.ppf(ALPHA_3P5 / 2.0, 2 * k) / est.n if k > 0 else 0.0
            hi = 0.5 * chi2.ppf(1.0 - ALPHA_3P5 / 2.0, 2 * k + 2) / est.n
            ok = lo <= closed <= hi
            return ok, f"poisson k={k}"
        band = MC_SIGMA_BAND * est.std_error
        return abs(closed - est.mean) <= band, "normal"
    if est.std_error == 0.0 and est.mean == 0.0:
        # all samples underflowed; metric must sit below the detection floor
        factor = 2.0 if which == BER else 1.0
        ceiling = -math.log(ALPHA_3P5) / (factor * est.n)
        return closed <= ceiling, "all_zero"
    if est.std_error > 0.05 * est.mean or est.std_error == 0.0:
        return closed >= ALPHA_3P5 * est.mean, "unresolved"
    band = MC_SIGMA_BAND * est.std_error
    return abs(closed - est.mean) <= band, "normal"


def run_oracle_grid(
    preset: str = "smoke",
    master_seed: int = 42,
    n_samples: int | None = None,
    mode: str = MODEL_DRAW,
    max_workers: int = 1,
) -> list[GridCheck]:
    """Run the triple-agreement check over the preset grid.

    Per point and metric the closed form must match quadrature within
    1e-6 relative and sit inside the Monte-Carlo acceptance band.  The
    BER is checked for both modulation constants and the outage at both
    threshold presets.  Rows come back in grid order independent of the
    worker count.
    """
    if preset not in GRID_PRESETS:
        raise DomainError(f"unknown preset {preset!r}; use 'smoke' or 'full'")
    if n_samples is None:
        n_samples = 100_000 if preset == "smoke" else 1_000_000

    def one_point(item) -> list[GridCheck]:
        idx, (n, m, m_s, eta_db) = item
        eta = 10.0 ** (eta_db / 10.0)
        seed = int(np.random.SeedSequence((master_seed, idx)).generate_state(1)[0])
        mc = McConfig(n_samples=n_samples, seed=seed, mode=mode)
        cases = point_cases(eta, FadingParams(m=m, m_s=m_s), n, (CAPACITY, BER, OUTAGE),
                            GRID_LAMBDA, GRID_GAMMA_TH_DB)
        # one sample per point, scored for every row
        estimates = mc_metrics([case[:3] for case in cases], mc)
        checks: list[GridCheck] = []
        for (cfg, metric, gth, gth_db), est in zip(cases, estimates):
            exact = evaluate(cfg, metric, "exact", gth)
            c_log = exact.diagnostics["log_value"]
            q_log = evaluate(cfg, metric, "quadrature", gth).diagnostics["log_value"]
            gap = _rel_gap_from_logs(c_log, q_log)
            ok_mc, note = _mc_consistent(exact.value, est, metric)
            checks.append(
                GridCheck(
                    index=idx,
                    n_cells=n,
                    m=m,
                    m_s=m_s,
                    eta_db=eta_db,
                    metric=metric,
                    lambda_mod=cfg.lambda_mod,
                    gamma_th_db=gth_db,
                    closed_log=c_log,
                    quad_log=q_log,
                    mc_mean=est.mean,
                    mc_std_error=est.std_error,
                    rel_gap_quad=gap,
                    mc_ok=ok_mc,
                    quad_ok=gap <= REL_TOL_QUAD,
                    note=note,
                )
            )
        return checks

    items = list(enumerate(itertools.product(*GRID_PRESETS[preset])))
    if max_workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            grouped = list(pool.map(one_point, items))
    else:
        grouped = [one_point(it) for it in items]
    return [c for group in grouped for c in group]


def physical_model_capacity_gap(
    n_cells: int,
    fading: FadingParams,
    eta: float,
    seed: int,
    n_samples: int = 200_000,
) -> dict:
    """Relative capacity gap between the two sampling modes (diagnostic)."""
    cfg = LinkConfig.from_eta(eta, fading, n_cells)
    est_model = mc_metric(cfg, CAPACITY, McConfig(n_samples, seed, MODEL_DRAW))
    est_phys = mc_metric(cfg, CAPACITY, McConfig(n_samples, seed + 1, PHYSICAL_DRAW))
    gap = abs(est_model.mean - est_phys.mean) / est_phys.mean
    return {
        "n_cells": n_cells,
        "model_mean": est_model.mean,
        "physical_mean": est_phys.mean,
        "rel_gap": gap,
        "combined_se": math.hypot(est_model.std_error, est_phys.std_error),
    }
