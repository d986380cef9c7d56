"""Independent oracles for the closed-form metrics.

Two families:

  * quadrature of the defining integrals: a trapezoidal rule on array
    nodes along a sinh-mapped log axis, normalized by the integrand's
    peak so that relative accuracy survives even when the metric
    itself is hundreds of orders below double range;
  * seeded Monte-Carlo estimators over the channel sampler, with
    standard errors and exact small-count fallbacks.

Neither path touches the Meijer G evaluator or the hypergeometric
closed forms, so agreement between the three routes is a genuine
cross-check.  The quadrature shares only the step-halving rule,
``specfun._halving_trapezoid``, with the Meijer G contour, not its
integrand.  Grid points evaluate independently; every one owns a
private RNG substream derived from (master seed, point index), making
results identical no matter how the points are scheduled.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import erfc, expit, gammaincinv, log_ndtr

from .errors import DomainError, NumericError
from .fading import (
    MODEL_DRAW,
    PHYSICAL_DRAW,
    FadingParams,
    SumFadingModel,
    cdf,
    sample,
    sample_sum,
    sum_cdf,
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
    physical_capacity,
    result,
    snr_threshold_from_db,
)
from .specfun import _halving_trapezoid

_SQRT2 = math.sqrt(2.0)
_LN2 = math.log(2.0)
_EPS = float(np.finfo(float).eps)
# Integrand nodes per quadrature oracle call, peak search and support walk
# included; the peak search's step cap; the widest support walked, in
# units of the oracle's axis; and the rule's relative tolerance
MAX_QUAD_EVALS = 1 << 14
_PEAK_STEPS = 100
_SUPPORT_SPAN = 1e6
_QUAD_REL_TOL = 1e-13

CAPACITY = "capacity"
BER = "ber"
OUTAGE = "outage"

# Two-sided normal tail mass at 3.5 sigma; the exact small-count
# fallbacks below are calibrated to the same false-alarm rate.
ALPHA_3P5 = 4.6525e-4


def _whole(value, low: int, message: str) -> int:
    """value as an int, when it is a whole number >= low; DomainError otherwise."""
    try:
        whole = int(value)
        ok = whole == value and whole >= low
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise DomainError(f"{message}, got {value!r}")
    return whole


@dataclass(frozen=True)
class McConfig:
    """Monte-Carlo run parameters."""

    n_samples: int
    seed: int
    mode: str = MODEL_DRAW

    def __post_init__(self):
        # an infinite count would never end the draw loop, and other
        # non-integers fail only once MC runs, inside numpy
        object.__setattr__(self, "n_samples", _whole(
            self.n_samples, 10_000, "n_samples must be a whole number of at least "
            "10^4 for usable CIs"))
        object.__setattr__(self, "seed", _whole(
            self.seed, 0, "seed must be a non-negative integer"))
        if self.mode not in (MODEL_DRAW, PHYSICAL_DRAW):
            raise DomainError(f"unknown MC mode {self.mode!r}")


@dataclass(frozen=True)
class CiEstimate:
    """Monte-Carlo mean with its standard error."""

    mean: float
    std_error: float
    n: int


def _peak(slopes, y: float, what: str) -> tuple[float, float, int]:
    """The peak of a log integrand with one maximum, its curvature there
    and the steps spent, from slopes(y) = (log h'(y), log h''(y)).

    A Newton step on the slope is taken while it at most halves the step
    before it and stays inside the sign bracket found so far; otherwise
    the bracket is bisected, or, while a side is still open, a step of
    1, 2, 4, ... is taken toward it.  The search stops once the Newton
    step is below 1e-3 of the peak's width 1/sqrt(-log h'').
    """
    lo, hi, reach, last = -math.inf, math.inf, 1.0, math.inf
    for k in range(1, _PEAK_STEPS + 1):
        d, c = slopes(y)
        lo, hi = (y, hi) if d > 0.0 else (lo, y)
        step = -d / c if c < 0.0 else math.copysign(math.inf, d)
        if c < 0.0 and abs(d) <= 1e-3 * math.sqrt(-c):
            return y + step, c, k
        if math.isfinite(lo) and math.isfinite(hi):
            if not (abs(step) <= 0.5 * last and lo < y + step < hi):
                step = 0.5 * (lo + hi) - y
        elif not abs(step) <= min(reach, 0.5 * last):
            step = math.copysign(reach, d)
            reach *= 2.0
        y, last = y + step, abs(step)
    raise NumericError(f"{what} integrand peak search did not converge in {k} steps")


def _log_axis_integral(log_terms, slopes, start: float, what: str):
    """log of the integral of exp(log h(y)) dy over the real line, log h
    the sum of log_terms(y) with one peak; its relative error, the
    integrand nodes spent (peak search and support walk included) and
    the final step.

    The peak's curvature sets the scale s = 1/sqrt(-log h''), and the
    rule is :func:`specfun._halving_trapezoid` on y = y_peak + s sinh(x),
    the map of the Meijer G contour, with the integrand normalized by
    its peak value: it stays relatively accurate however far the
    integral lies outside double range, and sinh's growth brings a tail
    that falls only linearly in y, a power law of g, within a few units
    of x.  log h is analytic in a strip about the axis (softplus's
    nearest singularities are at +-i pi), so the rule converges
    geometrically.  The support is walked in whole units of x until
    log h lies 100 below its peak, at most _SUPPORT_SPAN from it.  Each
    node's log terms round to a few ulps of their size at the peak.
    """
    y_peak, curvature, spent = _peak(slopes, start, what)
    scale = 1.0 / math.sqrt(-curvature)
    peak_terms = log_terms(np.float64(y_peak))
    h_peak = float(sum(peak_terms))
    reach = np.arange(1.0, math.ceil(math.asinh(_SUPPORT_SPAN / scale)) + 1.0)
    probes = np.concatenate([-reach, reach])
    below = sum(log_terms(y_peak + scale * np.sinh(probes))) < h_peak - 100.0
    spent += 1 + probes.size
    if not (below[:reach.size].any() and below[reach.size:].any()):
        raise NumericError(f"{what} integrand support did not close")
    x_lo, x_hi = probes[np.argmax(below)], reach[np.argmax(below[reach.size:])]

    def integrand(x):
        x = x_lo + x
        return np.exp(sum(log_terms(y_peak + scale * np.sinh(x))) - h_peak) * (
            scale * np.cosh(x))

    node_rounding = 4.0 * _EPS * sum(abs(float(t)) for t in peak_terms)
    h0 = 0.0625
    total, err, rounding, h, n = _halving_trapezoid(
        integrand, h0, int((x_hi - x_lo) / h0), _QUAD_REL_TOL, 0.0, node_rounding,
        f"{what} quadrature", spent, MAX_QUAD_EVALS)
    return h_peak + math.log(total), float((err + rounding) / total), spent + n + 1, h


def _quad_expectation(cfg: LinkConfig, what: str, kernel, shift: float,
                      log_front: float, upper: float, start: float,
                      log_axis: bool = False) -> MetricResult:
    """exp(log_front) / B(Nm, Nms) times the integral of
    exp(K(u)) e^(Nm u) (1 + e^(shift + u))^(-A) du, A = N(m + m_s).

    This is the expectation of a metric's kernel under the aggregate
    density on one log axis of g; each oracle picks the axis (``shift``),
    the log kernel K and the factor taken outside the integral.
    ``kernel(u)`` gives K at an array u, and ``kernel(u, True)`` K, K'
    and K''.  With ``log_axis`` the integral runs over u < 0 only, on
    y = ln(-u), where the cut at u = 0 becomes a smooth tail; otherwise
    y = u.  ``start`` is where the peak search starts on y, and a value
    above ``upper`` raises.  The density's log slope is
    Nm - A sigma(shift + u), sigma the logistic function.  The error
    estimate also carries the rounding of the log-space sum, each term
    good to a few ulps of its own size: at large N that rounding, not
    the quadrature, limits the accuracy.
    """
    model = cfg.model()
    nm = model.nm
    a_tot = nm + model.nms

    def axis(y):
        """u at y, and log du/dy."""
        return (-np.exp(np.minimum(y, 300.0)), y) if log_axis else (y, 0.0)

    def log_terms(y):
        u, log_jacobian = axis(y)
        return kernel(u), nm * u, -a_tot * np.logaddexp(0.0, shift + u), log_jacobian

    def slopes(y):
        u, _ = axis(y)
        k, k1, k2 = kernel(u, True)
        sig = expit(shift + u)
        d = k1 + nm - a_tot * sig
        c = k2 - a_tot * sig * expit(-shift - u)
        # on y = ln(-u), du/dy = u and d2u/dy2 = u
        return (1.0 + u * d, u * (u * c + d)) if log_axis else (d, c)

    log_integral, rel_err, evals, step = _log_axis_integral(log_terms, slopes, start, what)
    lgammas = [math.lgamma(x) for x in (nm, model.nms, a_tot)]
    ln_b = lgammas[0] + lgammas[1] - lgammas[2]
    rel_err += 8.0 * _EPS * (
        abs(log_front) + sum(abs(t) for t in lgammas) + abs(log_integral)
    )
    return result(QUADRATURE, log_front - ln_b + log_integral, rel_err, upper,
                  evals=evals, step=step, rel_error=rel_err)


def quad_capacity(cfg: LinkConfig) -> MetricResult:
    """E[log2(1 + eta g)] by the peak-normalized log-axis trapezoid.

    On the axis u = ln(xi g) the expectation is B(Nm, Nms)^-1 times the
    integral of ln(1 + (eta/xi) e^u) e^(Nm u) (1 + e^u)^(-A) du,
    A = N(m + m_s).  The peak search starts at the density's mode.
    Bounded above by Jensen's log2(1 + eta E[g]).
    """
    model = cfg.model()
    log_z = math.log(cfg.eta) - math.log(model.xi)

    def log_softplus(u, slopes=False):
        """K = log(log(1 + e^p)), p = log_z + u; equal to p far below zero."""
        p = log_z + u
        k = np.where(p > -700.0, np.log(np.logaddexp(0.0, np.maximum(p, -700.0))), p)
        if not slopes:
            return k
        k1 = np.exp(-np.logaddexp(0.0, -p) - k)  # sigma(p) / softplus(p)
        return k, k1, k1 * (expit(-p) - k1)

    return _quad_expectation(cfg, "capacity", log_softplus, 0.0, -math.log(_LN2),
                             capacity_bound(cfg), math.log(model.nm / model.nms))


def quad_ber(cfg: LinkConfig) -> MetricResult:
    """E[Q(sqrt(2 eta lambda g))] by the peak-normalized log-axis trapezoid.

    Substituting x = eta lambda g and factoring (xi/(eta lambda))^Nm / B
    out of the density leaves the integral of
    Q(sqrt(2x)) x^(Nm-1) (1 + eps x)^(-A).  It is evaluated on the log
    axis u = ln x, whose Jacobian makes the integrand peak interior for
    every parameter combination.  Exact on the log scale even when the
    BER underflows doubles.  The kernel's slope is below -x, so the peak
    lies below both the density's mode and ln(Nm), and the search
    starts at the lower of the two.
    """
    model = cfg.model()
    log_eps = math.log(model.xi) - math.log(cfg.eta * cfg.lambda_mod)

    def log_q(u, slopes=False):
        """K = log Q(sqrt(2x)) at x = e^u, safe far into the tail."""
        u = np.minimum(u, 700.0)
        x = np.exp(u)
        k = log_ndtr(-np.sqrt(2.0 * x))
        if not slopes:
            return k
        # K' = -sqrt(x / 2) phi / Q at sqrt(2x), phi the normal density
        k1 = -np.exp(0.5 * u - x - k - 0.5 * math.log(4.0 * math.pi))
        return k, k1, k1 * (0.5 - x - k1)

    start = min(math.log(model.nm / model.nms) - log_eps, math.log(model.nm))
    return _quad_expectation(cfg, "BER", log_q, log_eps, model.nm * log_eps, BER_BOUND,
                             start)


def quad_outage(cfg: LinkConfig, gamma_th: float) -> MetricResult:
    """P{eta g < gamma_th} by quadrature of the density over (0, v).

    Substituting g = v e^u and factoring (xi v)^Nm / B leaves the
    integral of exp(h(u)) over u < 0 with
    h(u) = Nm u - A log(1 + xi v e^u), a concave function whose maximum
    u* is known in closed form.  It runs on y = ln(-u), where the peak
    of h(u) + y solves -u h'(u) = 1; the search starts at
    y = ln(-u* + 1/Nm), which is that root when the density's mode lies
    far below the cut or far above it.
    """
    check_gamma_th(gamma_th)
    model = cfg.model()
    log_xiv = math.log(model.xi) + math.log(gamma_th / cfg.eta)
    # stationary point of h: xi v e^u = Nm / Nms, clamped to u <= 0
    u_star = min(0.0, math.log(model.nm / model.nms) - log_xiv)
    def no_kernel(u, slopes=False):
        return (0.0, 0.0, 0.0) if slopes else 0.0

    return _quad_expectation(cfg, "outage", no_kernel, log_xiv, model.nm * log_xiv,
                             OUTAGE_BOUND, math.log(1.0 / model.nm - u_star), log_axis=True)


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
# The validate report: oracle-agreement grid, KS and mode-gap checks
# ---------------------------------------------------------------------------

REL_TOL_QUAD = 1e-6
MC_SIGMA_BAND = 3.5
KS_SAMPLES = 100_000
MODE_GAP_TOL = 0.03


@dataclass(frozen=True)
class Preset:
    """What one validate preset checks."""

    grid: tuple  # oracle axes: (N values, m values, m_s values, eta_db values)
    ks_pairs: tuple  # (m, m_s) of the KS checks
    gap_ns: tuple  # N of the mode-gap checks
    n_samples: int  # default MC draws per grid point


_ETA_DB = (0.0, 10.0, 20.0, 30.0)
PRESETS = {
    "smoke": Preset(((1, 8), (1.0,), (5.0,), _ETA_DB), ((1.0, 5.0), (4.0, 2.0)),
                    (8,), 100_000),
    "full": Preset(((1, 8, 16, 32), (1.0, 4.0), (2.0, 5.0), _ETA_DB),
                   ((1.0, 2.0), (1.0, 5.0), (4.0, 2.0), (4.0, 5.0)), (8, 16, 32),
                   1_000_000),
}
GRID_GAMMA_TH_DB = (3.0, 6.0)
GRID_LAMBDA = (1.0, 0.5)


def _preset(name: str) -> Preset:
    if name not in PRESETS:
        raise DomainError(f"unknown preset {name!r}; use one of {', '.join(PRESETS)}")
    return PRESETS[name]


@dataclass(frozen=True, kw_only=True)
class Check:
    """One row of the validate report, one field per column in column
    order; a column the row's kind does not use reads nan."""

    kind: str
    index: int
    n_cells: int
    m: float
    m_s: float
    eta_db: float = math.nan
    metric: str
    lambda_mod: float = math.nan
    gamma_th_db: float = math.nan
    closed_log: float = math.nan
    quad_log: float = math.nan
    rel_gap_quad: float = math.nan
    mc_mean: float = math.nan
    mc_std_error: float = math.nan
    note: str
    ok: bool


REPORT_HEADER = [{"n_cells": "N", "lambda_mod": "lambda"}.get(f.name, f.name)
                 for f in fields(Check)]


def ordered_map(fn, items, workers: int = 1):
    """fn over items, results yielded in item order, each once it and
    those before it are done; on a pool of ``workers`` threads when
    workers > 1."""
    if workers <= 1:
        yield from map(fn, items)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, items)


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
            # Garwood bounds at total mass ALPHA_3P5; chi2.ppf(q, 2k) / 2
            # is the Gamma(k) quantile gammaincinv(k, q)
            lo = gammaincinv(k, ALPHA_3P5 / 2.0) / est.n if k > 0 else 0.0
            hi = gammaincinv(k + 1, 1.0 - ALPHA_3P5 / 2.0) / est.n
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
) -> list[Check]:
    """Run the triple-agreement check over the preset grid.

    Per point and metric the closed form must match quadrature within
    1e-6 relative and sit inside the Monte-Carlo acceptance band.  The
    BER is checked for both modulation constants and the outage at both
    threshold presets.  ``n_samples`` None takes the preset's draws.
    Rows come back in grid order independent of the worker count.
    """
    p = _preset(preset)
    if n_samples is None:
        n_samples = p.n_samples

    def one_point(item) -> list[Check]:
        idx, (n, m, m_s, eta_db) = item
        eta = 10.0 ** (eta_db / 10.0)
        seed = int(np.random.SeedSequence((master_seed, idx)).generate_state(1)[0])
        mc = McConfig(n_samples=n_samples, seed=seed, mode=mode)
        cases = point_cases(eta, FadingParams(m=m, m_s=m_s), n, (CAPACITY, BER, OUTAGE),
                            GRID_LAMBDA, GRID_GAMMA_TH_DB)
        # one sample per point, scored for every row
        estimates = mc_metrics([case[:3] for case in cases], mc)
        checks = []
        for (cfg, metric, gth, gth_db), est in zip(cases, estimates):
            exact = evaluate(cfg, metric, "exact", gth)
            c_log = exact.diagnostics["log_value"]
            q_log = evaluate(cfg, metric, "quadrature", gth).diagnostics["log_value"]
            gap = _rel_gap_from_logs(c_log, q_log)
            ok_mc, note = _mc_consistent(exact.value, est, metric)
            checks.append(Check(
                kind="oracle", index=idx, n_cells=n, m=m, m_s=m_s, eta_db=eta_db,
                metric=metric, lambda_mod=cfg.lambda_mod, gamma_th_db=gth_db,
                closed_log=c_log, quad_log=q_log, rel_gap_quad=gap, mc_mean=est.mean,
                mc_std_error=est.std_error, note=note,
                ok=bool(ok_mc) and gap <= REL_TOL_QUAD,
            ))
        return checks

    items = enumerate(itertools.product(*p.grid))
    return [c for group in ordered_map(one_point, items, max_workers) for c in group]


def ks_checks(preset: str, master_seed: int) -> list[Check]:
    """KS distance of a single branch and of the model-draw sum of 8 from
    their CDFs, at each of the preset's (m, m_s) pairs; each must fall
    below the 1.63 / sqrt(n) critical value."""
    crit = 1.63 / math.sqrt(KS_SAMPLES)
    checks = []
    for i, (m, m_s) in enumerate(_preset(preset).ks_pairs):
        p = FadingParams(m=m, m_s=m_s)
        model = SumFadingModel(p, 8)
        for index, n, name, draw, law in (
            (7000 + i, 1, "ks_single", lambda rng: sample(p, rng, size=KS_SAMPLES),
             lambda x: cdf(p, x)),
            (8000 + i, 8, "ks_model_sum",
             lambda rng: sample_sum(model, MODEL_DRAW, rng, size=KS_SAMPLES),
             lambda x: sum_cdf(model, x)),
        ):
            rng = np.random.default_rng(np.random.SeedSequence((master_seed, index)))
            stat = ks_statistic(draw(rng), law)
            checks.append(Check(
                kind="ks", index=index, n_cells=n, m=m, m_s=m_s, metric=name,
                mc_mean=stat, mc_std_error=crit, note=f"n={KS_SAMPLES}", ok=stat < crit,
            ))
    return checks


def mode_gap_checks(preset: str) -> list[Check]:
    """The aggregate model's capacity closed form against the exact
    capacity of the physical branch sum, at each of the preset's N;
    the relative gap is reported and bounded at 3 percent."""
    fading, eta_db = FadingParams(1.0, 5.0), 20.0
    checks = []
    for i, n in enumerate(_preset(preset).gap_ns):
        cfg = LinkConfig.from_eta(snr_threshold_from_db(eta_db), fading, n)
        model, physical = avg_capacity(cfg), physical_capacity(cfg)
        gap = abs(model.value - physical.value) / physical.value
        checks.append(Check(
            kind="mode_gap", index=9000 + i, n_cells=n, m=fading.m, m_s=fading.m_s,
            eta_db=eta_db, metric="capacity_gap",
            closed_log=model.diagnostics["log_value"],
            quad_log=physical.diagnostics["log_value"], rel_gap_quad=gap,
            note=f"rel_error={physical.diagnostics['rel_error']:.3e}",
            ok=gap < MODE_GAP_TOL,
        ))
    return checks
