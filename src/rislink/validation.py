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
``specfun._halving_rules``, with the Meijer G contour, not its
integrand, one row at a time through ``specfun._halving_trapezoid``.
Grid families evaluate independently: the eta_db points of one
(N, m, m_s) share one Monte-Carlo sample, a private RNG substream
derived from (master seed, index of the family's first point), making
results identical no matter how the families are scheduled.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import operator
import threading
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DomainError, NumericError, positive
from .fading import (
    MODEL_DRAW,
    PHYSICAL_DRAW,
    FadingParams,
    SumFadingModel,
    cdf,
    sample,
    sample_sum,
    sum_cdf,
    _whole,
)
from .metrics import (
    BER_BOUND,
    OUTAGE_BOUND,
    QUADRATURE,
    ClosedForm,
    LinkConfig,
    MetricResult,
    _ber_form,
    _capacity_form,
    avg_ber_asymptotic,
    avg_capacity_asymptotic,
    capacity_bound,
    check_shape,
    outage,
    outage_asymptotic,
    physical_capacity,
    result,
    snr_threshold_from_db,
)
from .specfun import REL_TOL, _halving_trapezoid, log_q_snr, meijer_g_batch

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
# The rule's first step, 1/_PER_UNIT, and the reach in whole units of x of
# its first grid in the support walk
_PER_UNIT = 16
_QUAD_STEP = 1.0 / _PER_UNIT
_QUAD_REACH = 6

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
        # an infinite count would never end the draw loop, and other
        # non-integers fail only once MC runs, inside numpy
        object.__setattr__(self, "n_samples", _whole(
            self.n_samples, 10_000, "n_samples must be a whole number of at least "
            "10^4 for usable CIs"))
        object.__setattr__(self, "seed", _whole(
            self.seed, 0, "seed must be a non-negative integer"))
        if self.mode not in (MODEL_DRAW, PHYSICAL_DRAW):
            raise DomainError(f"unknown MC mode {self.mode!r}")


def _softplus(v: float) -> float:
    """ln(1 + e^v) of a float, without overflow."""
    return max(v, 0.0) + math.log1p(math.exp(-abs(v)))


def _expit(v: float) -> float:
    """The logistic function 1 / (1 + e^-v) of a float, without overflow."""
    return math.exp(-_softplus(-v))


# t_0 + t_1 + ... of a log integrand's terms: sum() would add them to 0,
# one more pass over the nodes
_summed = functools.partial(functools.reduce, operator.add)


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
    log h lies 100 below its peak, at most _SUPPORT_SPAN from it; the
    walk's call also evaluates the rule's first grid within _QUAD_REACH
    units of the peak, and the rule takes it as its head wherever the
    support closes there.  Each node's log terms round to a few ulps of
    their size at the peak.
    """
    y_peak, curvature, spent = _peak(slopes, start, what)
    scale = 1.0 / math.sqrt(-curvature)
    if not 0.0 < scale < math.inf:
        raise NumericError(f"{what} integrand peak has curvature {float(curvature)!r}")
    peak_terms = log_terms(np.float64(y_peak))
    h_peak = float(_summed(peak_terms))
    # the rule's first grid, x = j / _PER_UNIT, out to _QUAD_REACH from
    # the peak, and the walk's whole units beyond it: the units within it
    # lie on the grid, so a support that closes there needs no call for
    # its first pass
    units = math.ceil(math.asinh(_SUPPORT_SPAN / scale))
    w, k = min(units, _QUAD_REACH), _PER_UNIT
    beyond = np.arange(w + 1.0, units + 1.0)
    x = np.concatenate([_QUAD_STEP * np.arange(-k * w, k * w + 1.0), -beyond, beyond])
    log_h = _summed(log_terms(y_peak + scale * np.sinh(x)))
    below = (log_h < h_peak - 100.0).tolist()
    spent += 1 + x.size
    on_grid, past = below[:2 * k * w + 1], below[2 * k * w + 1:]
    # whether log h lies 100 below its peak at the units -1, -2, ... and
    # 1, 2, ...
    left = on_grid[k * w - k::-k] + past[:beyond.size]
    right = on_grid[k * w + k::k] + past[beyond.size:]
    if not (True in left and True in right):
        raise NumericError(f"{what} integrand support did not close")
    lo, hi = 1 + left.index(True), 1 + right.index(True)
    x_lo = -float(lo)

    def integrand(x):
        x = x_lo + x
        return np.exp(_summed(log_terms(y_peak + scale * np.sinh(x))) - h_peak) * (
            scale * np.cosh(x))

    # the walk's grid is the rule's head where the support closes within it
    grid = slice(k * (w - lo), k * (w + hi) + 1) if max(lo, hi) <= w else slice(0)
    head = np.exp(log_h[grid] - h_peak) * (scale * np.cosh(x[grid]))
    node_rounding = 4.0 * _EPS * sum(abs(float(t)) for t in peak_terms)
    total, err, rounding, h, _, evals = _halving_trapezoid(
        integrand, head, float(lo + hi), _QUAD_STEP, _QUAD_REL_TOL, 0.0, node_rounding,
        f"{what} quadrature", spent, MAX_QUAD_EVALS)
    return h_peak + math.log(total), float((err + rounding) / total), evals, h


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
    check_shape(model, f"{what} quadrature")
    a_tot = nm + model.nms

    def log_terms(y):
        """K(u) and the density's two log terms at u, and on y = ln(-u)
        log du/dy = y."""
        if not log_axis:
            return kernel(y), nm * y, -a_tot * np.logaddexp(0.0, shift + y)
        u = -np.exp(np.minimum(y, 300.0))
        return kernel(u), nm * u, -a_tot * np.logaddexp(0.0, shift + u), y

    def slopes(y):
        """The log slope and curvature at a float y, in floats."""
        u = -math.exp(min(y, 300.0)) if log_axis else y
        k, k1, k2 = kernel(u, True)
        sig = _expit(shift + u)
        d = k1 + nm - a_tot * sig
        c = k2 - a_tot * sig * _expit(-shift - u)
        # on y = ln(-u), du/dy = u and d2u/dy2 = u
        return (1.0 + u * d, u * (u * c + d)) if log_axis else (d, c)

    log_integral, rel_err, evals, step = _log_axis_integral(log_terms, slopes, start, what)
    lgammas = [math.lgamma(x) for x in (nm, model.nms, a_tot)]
    ln_b = lgammas[0] + lgammas[1] - lgammas[2]
    rel_err += 8.0 * _EPS * (
        abs(log_front) + sum(abs(t) for t in lgammas) + abs(log_integral)
    )
    return result(QUADRATURE, log_front - ln_b + log_integral, rel_err, upper,
                  evals=evals, step=step)


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
        """K = log(log(1 + e^p)), p = log_z + u; equal to p far below zero.
        With slopes, K, K' and K'' at a float u."""
        p = log_z + u
        if not slopes:
            return np.where(p > -700.0, np.log(np.logaddexp(0.0, np.maximum(p, -700.0))), p)
        k = math.log(_softplus(p)) if p > -700.0 else p
        k1 = math.exp(-_softplus(-p) - k)  # sigma(p) / softplus(p)
        return k, k1, k1 * (_expit(-p) - k1)

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
    log_eps = math.log(model.xi) - math.log(positive(
        cfg.eta * cfg.lambda_mod, "BER quadrature argument eta lambda", NumericError))

    def log_q(u, slopes=False):
        """K = log Q(sqrt(2x)) at x = e^u, safe far into the tail.  With
        slopes, K, K' and K'' at a float u."""
        if not slopes:
            return log_q_snr(np.exp(np.minimum(u, 700.0)))
        u = min(u, 700.0)
        x = math.exp(u)
        k = log_q_snr(x)
        # K' = -sqrt(x / 2) phi / Q at sqrt(2x), phi the normal density
        k1 = -math.exp(0.5 * u - x - k - 0.5 * math.log(4.0 * math.pi))
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
    positive(gamma_th, "gamma_th")
    model = cfg.model()
    log_xiv = math.log(model.xi) + math.log(positive(
        gamma_th / cfg.eta, "outage quadrature argument gamma_th/eta", NumericError))
    # stationary point of h: xi v e^u = Nm / Nms, clamped to u <= 0
    u_star = min(0.0, math.log(model.nm / model.nms) - log_xiv)
    def no_kernel(u, slopes=False):
        return (0.0, 0.0, 0.0) if slopes else 0.0

    return _quad_expectation(cfg, "outage", no_kernel, log_xiv, model.nm * log_xiv,
                             OUTAGE_BOUND, math.log(1.0 / model.nm - u_star), log_axis=True)


def evaluate(cases, variant: str) -> list:
    """Each (cfg, metric, linear gamma_th, ...) case by the exact,
    asymptotic, quadrature or physical (capacity only) route, in case
    order: its MetricResult, or the DomainError or NumericError its route
    raised; ``gamma_th`` is read by outage only, later fields not at all.

    The exact capacity and BER routes build a ClosedForm; every ClosedForm
    of the call then runs through one meijer_g_batch, so the Meijer G
    calls share every contour pass, and each is finished in its own row,
    as avg_capacity and avg_ber finish a lone call.  No result depends on
    the others.  An unknown (variant, metric) pair raises at once.  The
    route table is built per call from this module's names, so a function
    patched onto the module, such as a tracing wrapper, is the one that
    runs.
    """
    routes = {
        ("exact", CAPACITY): _capacity_form,
        ("exact", BER): _ber_form,
        ("exact", OUTAGE): outage,
        ("asymptotic", CAPACITY): avg_capacity_asymptotic,
        ("asymptotic", BER): avg_ber_asymptotic,
        ("asymptotic", OUTAGE): outage_asymptotic,
        ("quadrature", CAPACITY): quad_capacity,
        ("quadrature", BER): quad_ber,
        ("quadrature", OUTAGE): quad_outage,
        ("physical", CAPACITY): physical_capacity,
    }
    chosen = [routes.get((variant, metric)) for _, metric, *_ in cases]
    if None in chosen:
        raise DomainError(f"no {variant!r} route for metric {cases[chosen.index(None)][1]!r}")
    out = []
    for (cfg, metric, gamma_th, *_), route in zip(cases, chosen):
        try:
            out.append(route(cfg, gamma_th) if metric == OUTAGE else route(cfg))
        except (DomainError, NumericError) as exc:
            out.append(exc)
    forms = [i for i, r in enumerate(out) if isinstance(r, ClosedForm)]
    for i, report in zip(forms, meijer_g_batch([out[i].spec for i in forms])):
        try:
            out[i] = report if isinstance(report, Exception) else out[i].finish(report)
        except NumericError as exc:
            out[i] = exc
    return out


def in_row_order(*columns) -> list[tuple]:
    """Columns of route results zipped into rows; raises the first stored
    error instead, in row order and then column order."""
    rows = list(zip(*columns, strict=True))
    for r in itertools.chain.from_iterable(rows):
        if isinstance(r, Exception):
            raise r
    return rows


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


def _metric_samples(cfg: LinkConfig, which: str, gamma_th: float, g: np.ndarray,
                    vals: np.ndarray, mask: np.ndarray) -> None:
    """Write one metric's value at each channel power of g into vals: the
    ufuncs, in the order, of log2(1 + eta g), 0.5 erfc(sqrt(2 eta lambda
    g) / sqrt 2) and (eta g < gamma_th) as float, with mask as outage's
    bool buffer."""
    eta = cfg.eta
    if which == CAPACITY:
        np.multiply(g, eta, out=vals)
        np.add(vals, 1.0, out=vals)
        np.log2(vals, out=vals)
    elif which == BER:
        from scipy.special import erfc  # loaded on first use: only MC BER scores with it

        np.multiply(g, 2.0 * eta * cfg.lambda_mod, out=vals)
        np.sqrt(vals, out=vals)
        np.divide(vals, _SQRT2, out=vals)
        erfc(vals, out=vals)
        np.multiply(vals, 0.5, out=vals)
    else:  # outage
        np.less(np.multiply(g, eta, out=vals), gamma_th, out=mask)
        np.copyto(vals, mask)


@dataclass(eq=False)
class BranchSums:
    """One physical sample shared by the ``calls`` MC calls of a family
    whose cases differ only in N.

    ``total`` holds, at each draw, the sum of the first ``count`` branches
    that ``rng`` drew, in :func:`sample_sum`'s branch-major order, so a
    call at N >= count adds only branches count+1..N, and its sample is
    bit for bit a lone call's; a call below ``count`` draws afresh and
    leaves the sum alone.  ``lock`` serialises the calls, and the last
    call frees the sample.
    """

    calls: int
    rng: np.random.Generator | None = None
    total: np.ndarray | None = None
    count: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)


def _physical_sample(model: SumFadingModel, n: int, rng: np.random.Generator,
                     sums: BranchSums | None) -> np.ndarray:
    """The n-draw branch sum of model, drawn whole from rng, or grown from sums."""
    if sums is None or model.n_cells < sums.count:
        g = sample_sum(model, PHYSICAL_DRAW, rng, size=n)
    else:
        if not sums.count:
            sums.rng = rng
        g = sums.total = sample_sum(model, PHYSICAL_DRAW, sums.rng, size=n, out=sums.total,
                                    summed=sums.count)
        sums.count = model.n_cells
    if sums is not None:
        sums.calls -= 1
        if not sums.calls:
            sums.rng = sums.total = None
    return g


def mc_metrics(cases, mc: McConfig, sums: BranchSums | None = None) -> list[MetricResult]:
    """Seeded Monte-Carlo estimates of several metrics on one sample.

    ``cases`` are :func:`evaluate`'s cases and share one channel model;
    they may differ in eta, lambda and threshold.  The sample is scored
    for every case, so every case gets the estimate a lone call with the
    same seed gives.  Capacity averages log2(1 + eta g); BER averages the
    conditional error probability Q(sqrt(2 eta lambda g)) directly (no bit
    flips), outage averages the threshold indicator.  Aggregation merges
    (count, mean, M2) triples over fixed-size chunks, so the result is
    bit-identical for a given seed regardless of scheduling.  Each is a
    MetricResult of method "mc": the mean, its standard error, and
    diagnostics holding the draw mode as ``method`` and the draws as
    ``evals``.

    A model-mode sample is drawn one chunk at a time.  A physical-mode
    sample is drawn whole, branch-major (about 24 bytes a draw while it
    is drawn), so its first k branches are a k-cell sample; ``sums``
    shares one such sample across the calls of a family that differ
    only in N (see :class:`BranchSums`).  Up to ``_CHUNK`` draws, the
    whole sample is the one chunk, drawn as before.
    """
    for _, which, gamma_th, *_ in cases:
        if which not in (CAPACITY, BER, OUTAGE):
            raise DomainError(f"unknown metric {which!r}")
        if which == OUTAGE:
            positive(gamma_th, "gamma_th")
    models = {case[0].model() for case in cases}
    if len(models) != 1:
        raise DomainError(
            f"cases must share one channel model to share draws, got {len(models)}"
        )
    (model,) = models
    rng = np.random.default_rng(np.random.SeedSequence(mc.seed))
    n = mc.n_samples
    physical = mc.mode == PHYSICAL_DRAW
    moments = [(0.0, 0.0)] * len(cases)  # (mean, M2) per case
    # one workspace per call, never shared: families run on several threads.
    # A shorter last chunk works on views of its heads.
    size = min(_CHUNK, n)
    g_work = None if physical else np.empty(size)
    vals_work, mask_work = np.empty(size), np.empty(size, bool)
    with contextlib.nullcontext() if sums is None else sums.lock:
        # a draw past double range raises below, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            whole = _physical_sample(model, n, rng, sums) if physical else None
        for n_total in range(0, n, _CHUNK):
            k = min(_CHUNK, n - n_total)
            vals, mask = vals_work[:k], mask_work[:k]
            if physical:
                g = whole[n_total:n_total + k]
            else:
                with np.errstate(over="ignore", invalid="ignore"):
                    g = sample_sum(model, MODEL_DRAW, rng, size=k, out=g_work[:k])
            if not np.isfinite(g, out=mask).all():
                raise NumericError(f"MC draws at N m = {model.nm:.3e}, N m_s = "
                                   f"{model.nms:.3e} leave double range")
            tot = n_total + k
            for i, (cfg, which, gamma_th, *_) in enumerate(cases):
                # vals.mean() and ((vals - mean) ** 2).sum() in one buffer: the
                # same ufuncs in the same order
                _metric_samples(cfg, which, gamma_th, g, vals, mask)
                c_mean = float(np.add.reduce(vals) / k)
                vals -= c_mean
                c_m2 = float(np.add.reduce(np.square(vals, out=vals)))
                # Chan et al. pairwise merge of (n, mean, M2)
                mean, m2 = moments[i]
                delta = c_mean - mean
                moments[i] = (mean + delta * k / tot,
                              m2 + c_m2 + delta * delta * n_total * k / tot)
    estimates = []
    for mean, m2 in moments:
        var = m2 / (n - 1)
        estimates.append(MetricResult(
            value=mean, method="mc", error_estimate=math.sqrt(var / n),
            diagnostics={"method": mc.mode, "evals": n}))
    return estimates


def mc_metric(cfg: LinkConfig, which: str, mc: McConfig,
              gamma_th: float = float("nan")) -> MetricResult:
    """Seeded Monte-Carlo estimate of one metric, a MetricResult of method
    "mc": one case of :func:`mc_metrics`."""
    return mc_metrics([(cfg, which, gamma_th)], mc)[0]


# Sorted samples per block of ks_statistic, and the margin its block bounds
# leave for a CDF's rounding
_KS_BLOCK = 32
_KS_MARGIN = 1e-9


def _ks_cdf(cdf_fn, x: np.ndarray) -> np.ndarray:
    """cdf_fn at x; DomainError unless every value lies in [0, 1]."""
    f = np.asarray(cdf_fn(x), dtype=float)
    if not ((f >= 0.0) & (f <= 1.0)).all():
        raise DomainError("ks_statistic cdf_fn gave a value outside [0, 1] or nan")
    return f


def _ks_gap(f: np.ndarray, i: np.ndarray, n: int) -> float:
    """The larger one-sided gap (i+1)/n - F or F - i/n at sorted indexes i."""
    return float(max(((i + 1) / n - f).max(), (f - i / n).max()))


def ks_statistic(samples, cdf_fn) -> float:
    """Sup distance between the empirical CDF of samples and cdf_fn.

    cdf_fn must be non-decreasing: it is evaluated at every _KS_BLOCK-th
    sorted sample and the last, and inside the block between two of them,
    i0 < i < i1, monotonicity bounds both one-sided gaps by
    max(i1/n - F(x_i0), F(x_i1) - (i0+1)/n).  Only the blocks whose bound
    reaches the block ends' maximum less _KS_MARGIN, which covers the
    CDF's rounding, are evaluated inside, so the statistic is the maximum
    of the gaps a full evaluation takes, bit for bit.  A nan sample, a CDF
    value outside [0, 1] and evaluated CDF values that fall by more than
    the margin raise DomainError.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < 100:
        raise DomainError(f"ks_statistic needs at least 100 samples, got {n}")
    if np.isnan(x[-1]):  # sorting puts nan last
        raise DomainError("ks_statistic samples include nan")
    ends = np.append(np.arange(0, n - 1, _KS_BLOCK), n - 1)
    f = np.empty(n)
    f[ends] = fe = _ks_cdf(cdf_fn, x[ends])
    d = _ks_gap(fe, ends, n)
    bound = np.maximum(ends[1:] / n - fe[:-1], fe[1:] - (ends[:-1] + 1) / n)
    # the indexes of the blocks to evaluate, block ends left out
    inside = np.append(np.repeat(bound >= d - _KS_MARGIN, np.diff(ends)), False)
    inside[ends] = False
    i = np.flatnonzero(inside)
    if i.size:
        f[i] = fi = _ks_cdf(cdf_fn, x[i])
        d = max(d, _ks_gap(fi, i, n))
    inside[ends] = True  # now every evaluated index
    if (np.diff(f[inside]) < -_KS_MARGIN).any():
        raise DomainError("ks_statistic cdf_fn decreases; it must be non-decreasing")
    return d


# ---------------------------------------------------------------------------
# The validate report: oracle-agreement grid, KS and mode-gap checks
# ---------------------------------------------------------------------------

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


def _mc_consistent(closed: float, est: MetricResult, which: str) -> tuple[bool, str]:
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
    mean, se, n = est.value, est.error_estimate, est.diagnostics["evals"]
    if which == OUTAGE:
        k = int(round(mean * n))
        if k < 10:
            # Garwood bounds at total mass ALPHA_3P5; chi2.ppf(q, 2k) / 2
            # is the Gamma(k) quantile gammaincinv(k, q)
            from scipy.special import gammaincinv

            lo = gammaincinv(k, ALPHA_3P5 / 2.0) / n if k > 0 else 0.0
            hi = gammaincinv(k + 1, 1.0 - ALPHA_3P5 / 2.0) / n
            ok = lo <= closed <= hi
            return ok, f"poisson k={k}"
        band = MC_SIGMA_BAND * se
        return abs(closed - mean) <= band, "normal"
    if se == 0.0 and mean == 0.0:
        # all samples underflowed; metric must sit below the detection floor
        factor = 2.0 if which == BER else 1.0
        ceiling = -math.log(ALPHA_3P5) / (factor * n)
        return closed <= ceiling, "all_zero"
    if se > 0.05 * mean or se == 0.0:
        return closed >= ALPHA_3P5 * mean, "unresolved"
    band = MC_SIGMA_BAND * se
    return abs(closed - mean) <= band, "normal"


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

    The grid runs by family: the eta_db points of one (N, m, m_s) share
    one channel law, so they share one Monte-Carlo sample (common random
    numbers), seeded from (master seed, index of the family's first
    point), and one call per route.  The first point's rows are those a
    lone run of that point gives; the family's rows are correlated.  A
    failing sample raises first, then :func:`in_row_order`'s row.  Rows
    come back in grid order independent of the worker count.
    """
    p = _preset(preset)
    if n_samples is None:
        n_samples = p.n_samples
    etas_db = p.grid[-1]

    def one_family(item) -> list[Check]:
        k, (n, m, m_s) = item
        first = k * len(etas_db)
        seed = int(np.random.SeedSequence((master_seed, first)).generate_state(1)[0])
        rows = [(first + j, eta_db, case) for j, eta_db in enumerate(etas_db)
                for case in point_cases(10.0 ** (eta_db / 10.0), FadingParams(m=m, m_s=m_s),
                                        n, (CAPACITY, BER, OUTAGE), GRID_LAMBDA,
                                        GRID_GAMMA_TH_DB)]
        cases = [case for _, _, case in rows]
        # one sample and one call per route for all the family's rows
        columns = (mc_metrics(cases, McConfig(n_samples=n_samples, seed=seed, mode=mode)),
                   evaluate(cases, "exact"), evaluate(cases, "quadrature"))
        checks = []
        for (idx, eta_db, (cfg, metric, gth, gth_db)), (est, exact, quad) in zip(
                rows, in_row_order(*columns)):
            c_log, q_log = exact.diagnostics["log_value"], quad.diagnostics["log_value"]
            gap = _rel_gap_from_logs(c_log, q_log)
            ok_mc, note = _mc_consistent(exact.value, est, metric)
            checks.append(Check(
                kind="oracle", index=idx, n_cells=n, m=m, m_s=m_s, eta_db=eta_db,
                metric=metric, lambda_mod=cfg.lambda_mod, gamma_th_db=gth_db,
                closed_log=c_log, quad_log=q_log, rel_gap_quad=gap, mc_mean=est.value,
                mc_std_error=est.error_estimate, note=note,
                ok=bool(ok_mc) and gap <= REL_TOL,
            ))
        return checks

    families = enumerate(itertools.product(*p.grid[:-1]))
    return [c for group in ordered_map(one_family, families, max_workers) for c in group]


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
    capacity of the physical branch sum, by :func:`evaluate`'s "exact"
    and "physical" routes, at each of the preset's N; the relative gap is
    reported and bounded at 3 percent."""
    fading, eta_db, ns = FadingParams(1.0, 5.0), 20.0, _preset(preset).gap_ns
    cases = [(LinkConfig.from_eta(10.0 ** (eta_db / 10.0), fading, n), CAPACITY, math.nan)
             for n in ns]
    checks = []
    for i, (n, (model, physical)) in enumerate(zip(
            ns, in_row_order(evaluate(cases, "exact"), evaluate(cases, "physical")))):
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
