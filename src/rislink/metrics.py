"""Closed-form and asymptotic link metrics for the RIS-assisted channel.

The received SNR is eta * g_D with the deterministic gain
eta = P_s r_d^(-beta) / N_0 and g_D the aggregate channel power from
:mod:`rislink.fading`.  Metrics:

  average capacity   E[log2(1 + eta g_D)]          (bits/s/Hz)
  average BER        E[Q(sqrt(2 eta lambda g_D))]  (lambda: 1 BPSK, 0.5 BFSK)
  outage             P{eta g_D < gamma_th}

Capacity and BER evaluate Meijer G closed forms through
:mod:`rislink.specfun`; outage reduces to a Gauss hypergeometric
expression, the regularized incomplete beta.  Every prefactor is
combined in log space so that results remain exact when the gamma
factors are far beyond double range.

The capacity kernel is evaluated as

    Cbar = Lambda / (xi ln 2) * G^{2,3}_{3,4}[eta/xi | 1, 1, 1-Nm;
                                              Nms, 1 ; 0]

which is the well-posed parameter set produced by the Mellin convolution
of the log kernel with the aggregate density.  The often-quoted
G^{3,3}_{4,4} arrangement with lower row {Nms, 0, 1, 0} carries a
left/right pole collision at s = 0 (upper-row 1 against lower-row 0)
and admits no separating contour; the form above is the same integral
with the redundant parameter pair removed and the colliding pair merged
analytically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericError, positive
from .fading import FadingParams, SumFadingModel
from .specfun import (_MIN_GAP, REL_TOL, EvalReport, MeijerGSpec, _halving_trapezoid,
                      digamma, log_betainc, log_gamma, meijer_g)

_LN2 = math.log(2.0)
_EPS = float(np.finfo(float).eps)

CLOSED_FORM = "closed_form"
ASYMPTOTIC = "asymptotic"
QUADRATURE = "quadrature"
PHYSICAL = "physical"

# Below this, a value is reported as 0.0 with a flag rather than as a
# denormal.
UNDERFLOW_FLOOR = 1e-300

# Feasible upper bounds of BER and outage; capacity's is capacity_bound(cfg).
BER_BOUND, OUTAGE_BOUND = 0.5, 1.0


@dataclass(frozen=True)
class LinkConfig:
    """One source-destination link: the channel and the transmit SNR factor
    eta = P_s r_d^(-beta) / N_0 (the CLI derives eta from dBm and geometry)."""

    fading: FadingParams
    n_cells: int
    eta: float = 1.0
    lambda_mod: float = 1.0

    def __post_init__(self):
        # the channel model, built once, checks n_cells and makes it an int
        model = SumFadingModel(params=self.fading, n_cells=self.n_cells)
        object.__setattr__(self, "_model", model)
        object.__setattr__(self, "n_cells", model.n_cells)
        positive(self.eta, "eta")
        if self.lambda_mod not in (0.5, 1.0):
            raise DomainError(
                f"lambda_mod must be 0.5 (BFSK) or 1 (BPSK), got {self.lambda_mod}"
            )

    @classmethod
    def from_eta(
        cls,
        eta: float,
        fading: FadingParams,
        n_cells: int,
        lambda_mod: float = 1.0,
    ) -> "LinkConfig":
        """The link with the given transmit SNR factor."""
        return cls(fading=fading, n_cells=n_cells, eta=eta, lambda_mod=lambda_mod)

    def model(self) -> SumFadingModel:
        return self._model


@dataclass
class MetricResult:
    """One computed metric value with method tag and error estimate.

    ``diagnostics`` holds the schema that :func:`result` writes for
    every log-space route; the capacity asymptote leaves it empty.
    """

    value: float
    method: str
    error_estimate: float = 0.0
    diagnostics: dict = field(default_factory=dict)


def snr_threshold_from_db(x_db: float) -> float:
    """gamma_th_db -> linear gamma_th, which must be a positive finite double."""
    try:
        x = 10.0 ** (x_db / 10.0)
    except OverflowError:
        x = math.inf
    return positive(x, f"gamma_th from gamma_th_db = {x_db!r}")


def result(route: str, log_value: float, rel_err: float, upper: float = math.inf,
           method: str | None = None, evals: int = 0,
           step: float = math.nan) -> MetricResult:
    """The result of every route that computes the log of its value.

    The value is exp(log_value), read as 0.0 below UNDERFLOW_FLOOR and
    inf above double range, each flagged in ``diagnostics``, and its
    error estimate value * rel_err (0.0 when it overflows).  A rel_err
    above REL_TOL, or a value above ``upper`` by more than its estimate,
    raises NumericError, and so does a nan log_value.
    ``diagnostics`` holds plain Python values: ``log_value`` (exact
    when the value under- or overflows), ``method`` (the route unless
    given), ``evals``, ``rel_error`` (rel_err) and ``step``, the final
    step of a step-halving rule or nan where none ran.
    """
    if not rel_err <= REL_TOL:
        raise NumericError(f"{route} relative error {rel_err:.3e} misses the target {REL_TOL:g}")
    log_value = float(log_value)
    if math.isnan(log_value):  # it would fail both comparisons below and read as 0.0
        raise NumericError(f"{route} log value is nan")
    diagnostics = {"log_value": log_value, "method": method or route, "evals": int(evals),
                   "rel_error": float(rel_err), "step": float(step)}
    value = err = 0.0
    if log_value > math.log(UNDERFLOW_FLOOR):
        try:
            value = math.exp(log_value)
        except OverflowError:
            value = math.inf
        # exp(inf) is inf without an OverflowError
        if value == math.inf:
            diagnostics["overflow"] = True
        else:
            err = value * rel_err
    elif log_value > -math.inf:
        diagnostics["underflow"] = True
    if value > upper + err:
        raise NumericError(f"{route} value {value!r} is above its bound {upper!r} "
                           f"by more than its error estimate {err:.3e}")
    return MetricResult(value=value, method=route, error_estimate=err,
                        diagnostics=diagnostics)


def check_shape(model: SumFadingModel, what: str) -> None:
    """Raise NumericError where the shape N(m + m_s) reaches 1/eps, past
    which each log term of the aggregate density rounds by more than 1."""
    a_tot = model.nm + model.nms
    if a_tot * _EPS >= 1.0:
        raise NumericError(f"{what} shape N(m + m_s) = {a_tot:.3e} exceeds 1/eps")


def _log_gammas(*xs) -> list[float]:
    """ln Gamma at each x, for an asymptote; NumericError where one
    overflows, which would leave the asymptote's log value inf - inf."""
    out = [log_gamma(x) for x in xs]
    if math.inf in out:
        raise NumericError(f"asymptote log-gamma term overflows at {xs}")
    return out


def capacity_bound(cfg: LinkConfig) -> float:
    """Jensen's upper bound log2(1 + eta E[g]) on the average capacity."""
    return math.log1p(cfg.eta * cfg.model().mean()) / _LN2


class ClosedForm(NamedTuple):
    """A closed form before its Meijer G call: G's spec, the log terms
    that multiply G, the feasible bound, and spec_rel, the relative error
    that the rounding of G's parameters carries into G."""

    spec: MeijerGSpec
    log_terms: tuple
    upper: float
    spec_rel: float = 0.0

    def finish(self, report: EvalReport) -> MetricResult:
        """The product of exp(log_terms) and a positive G, as a closed form.

        The error adds the rounding of the log-space sum, each term good
        to a few ulps of its own size, and spec_rel to the evaluator's own
        bound.
        """
        if not report.sign > 0.0:
            raise NumericError(f"Meijer G has sign {report.sign}; the metric needs G > 0")
        d = report.details
        rel = d["rel_error"] + self.spec_rel + 8.0 * _EPS * (
            sum(abs(t) for t in self.log_terms) + abs(report.log_abs_value))
        return result(CLOSED_FORM, sum(self.log_terms) + report.log_abs_value, rel,
                      self.upper, report.method, d["evals"], d["step"])


def _capacity_form(cfg: LinkConfig) -> ClosedForm:
    """avg_capacity before its Meijer G call."""
    model = cfg.model()
    check_shape(model, "closed form capacity")
    argument = positive(cfg.eta / model.xi, "closed form capacity argument eta/xi",
                        NumericError)
    spec = MeijerGSpec(a_front=(1.0, 1.0, 1.0 - model.nm), a_rest=(),
                       b_front=(model.nms, 1.0), b_rest=(0.0,), argument=argument)
    return ClosedForm(spec, (model.log_lambda_norm, -math.log(model.xi), -math.log(_LN2)),
                      capacity_bound(cfg))


def avg_capacity(cfg: LinkConfig) -> MetricResult:
    """Average capacity in bits/s/Hz, Meijer G closed form."""
    form = _capacity_form(cfg)
    return form.finish(meijer_g(form.spec))


# physical_capacity cuts mass e^-_PHYSICAL_TAIL off each end of both of
# its axes, and evaluates at most MAX_PHYSICAL_NODES outer nodes, each a
# rule of a few hundred kernel terms, in blocks of _PHYSICAL_BLOCK terms
_PHYSICAL_TAIL = 40.0
MAX_PHYSICAL_NODES = 1 << 14
_PHYSICAL_BLOCK = 1 << 16


def physical_capacity(cfg: LinkConfig) -> MetricResult:
    """Average capacity of the true sum of N branches, exactly, no Monte Carlo.

    A branch of ``cfg.fading`` is g = k X / Y, X ~ Gamma(m), Y ~ Gamma(m_s),
    k = g_bar (m_s - 1) / m, the law ``physical_draw`` samples.  Its MGF
    M1(s) = E_Y[(1 + s k / Y)^-m] is a trapezoid on u = ln y, the sum's is
    M = M1^N, and Hamdi's formula (IEEE Trans. Commun. 56(5), 2008)

        C = (1 / ln 2) int_0^inf (1 - M(eta s)) e^-s / s ds

    is a trapezoid on v = ln s, its step halved as on the Meijer G contour.
    Both integrands are analytic in a strip about their axis, so both
    rules converge geometrically.  1 - M1 is the mean of -expm1(.), exact
    as s -> 0; where it passes 1/2, log M1 is a log-sum-exp, so that
    rounding cannot take 1 - M1 to 1 or past it.  The error adds the
    outer rule's even-node difference and rounding, the tails cut off
    both axes, and each node's inner even-node difference.
    """
    p, n_cells, eta = cfg.fading, cfg.n_cells, cfg.eta
    k_eta = positive(eta * p.g_bar * (p.m_s - 1.0) / p.m,
                     "physical capacity argument eta g_bar (m_s - 1)/m", NumericError)
    mean_eta = positive(eta * n_cells * p.g_bar, "physical capacity mean eta N g_bar",
                        NumericError)
    tail = _PHYSICAL_TAIL
    # u = ln y: the cut leaves mass e^-tail of Gamma(m_s) below and of
    # Gamma(m_s + m), which weights the kernel's tail at large s, above
    b = p.m_s + p.m
    try:  # lgamma, or at a huge m the node count, can leave double range
        u_lo = (math.lgamma(p.m_s + 1.0) - tail) / p.m_s
        u_hi = math.log(b + math.sqrt(2.0 * b * tail) + tail)
        h_u = min(0.125, 0.3 / math.sqrt(b))
        # one outer node's row of the inner rule must fit in one block
        size = 2 * math.ceil(0.5 * (u_hi - u_lo) / h_u) + 1
    except OverflowError:
        raise NumericError(f"physical capacity inner rule leaves double range at {p}") from None
    if size > _PHYSICAL_BLOCK:
        raise NumericError(f"physical capacity inner rule needs {size} nodes, over the "
                           f"block of {_PHYSICAL_BLOCK}")
    u = u_lo + h_u * np.arange(size)
    log_w = p.m_s * u - np.exp(u)
    log_w -= log_w.max()
    w = np.exp(log_w)
    shift = math.log(k_eta) - u
    # 1 - M(eta s) <= eta s E[g]: the cut below v_lo leaves at most
    # mean_eta e^v_lo, the one above v_hi = ln(tail) at most e^-tail / tail
    v_lo = -tail - math.log(max(1.0, mean_eta))
    v_hi = math.log(tail)
    rows = _PHYSICAL_BLOCK // u.size
    inner_err = 0.0

    def means(terms):
        """Row means under w on all nodes and on the even nodes."""
        return terms.sum(axis=1) / w.sum(), terms[:, ::2].sum(axis=1) / w[::2].sum()

    def integrand(x):
        nonlocal inner_err
        out = np.empty(x.size)
        for i in range(0, x.size, rows):
            v = v_lo + x[i:i + rows]
            z = p.m * np.logaddexp(0.0, v[:, None] + shift)
            a, a_even = means(w * -np.expm1(-z))
            big = a > 0.5
            log_m1 = np.log1p(-np.where(big, 0.5, a))
            rel = np.abs(a - a_even) / np.where(a > 0.0, a, 1.0)
            if big.any():
                t = log_w - z[big]
                top = t.max(axis=1)
                m1, m1_even = means(np.exp(t - top[:, None]))
                log_m1[big] = top + np.log(m1)
                rel[big] = np.abs(np.log(m1 / m1_even))
            f = -np.expm1(n_cells * log_m1) * np.exp(-np.exp(v))
            inner_err += float((rel * f).sum())
            out[i:i + rows] = f
        return out

    total, err, rounding, h, n, _ = _halving_trapezoid(
        integrand, np.empty(0), v_hi - v_lo, 0.4, 1e-12, 0.0,
        4.0 * _EPS * float(np.max(p.m_s * np.abs(u) + np.exp(u))),
        "physical capacity", 0, MAX_PHYSICAL_NODES)
    cut = mean_eta * math.exp(v_lo) + min(1.0 / tail, mean_eta) * math.exp(-tail)
    # each node also loses at most 2 N e^-tail to the u-axis cut
    cut += 2.0 * n_cells * math.exp(-tail) * (v_hi - v_lo)
    rel_err = (err + rounding + h * inner_err + cut) / total
    return result(PHYSICAL, math.log(total) - math.log(_LN2), rel_err,
                  math.log1p(mean_eta) / _LN2, evals=(n + 1) * u.size, step=h)


def avg_capacity_asymptotic(cfg: LinkConfig) -> MetricResult:
    """High-SNR capacity [ln(eta/xi) + psi(Nm) - psi(Nms)] / ln 2."""
    model = cfg.model()
    z = positive(cfg.eta / model.xi, "capacity asymptote argument eta/xi", NumericError)
    value = (math.log(z) + digamma(model.nm) - digamma(model.nms)) / _LN2
    return MetricResult(value=value, method=ASYMPTOTIC, error_estimate=0.0)


def _ber_form(cfg: LinkConfig) -> ClosedForm:
    """avg_ber before its Meijer G call."""
    model = cfg.model()
    check_shape(model, "closed form BER")
    eta_lam = positive(cfg.eta * cfg.lambda_mod, "closed form BER argument eta lambda",
                       NumericError)
    b = model.nm - 1.0
    # the double b = Nm - 1 is off by up to half an ulp, and G, whose
    # poles pinch the gap (-1, b), carries Gamma(1 + b): log G moves with
    # b at the rate psi(Nm), about -1/Nm for a small Nm
    b_rounding = 0.5 * math.ulp(b) * abs(digamma(model.nm))
    if b_rounding > REL_TOL:
        raise NumericError(f"closed form BER parameter N m - 1 = {b!r} at N m = {model.nm!r} "
                           f"puts a rounding error of {b_rounding:.3e} on G, above the "
                           f"target {REL_TOL:g}")
    if not b + 1.0 > _MIN_GAP:  # MeijerGSpec's test of the pole gap (-1, b)
        raise NumericError(f"closed form BER pole gap {b + 1.0!r} at N m = {model.nm!r} is "
                           f"not above the Meijer G contour's {_MIN_GAP:g}")
    argument = positive(model.xi / eta_lam, "closed form BER argument xi/(eta lambda)",
                        NumericError)
    spec = MeijerGSpec(a_front=(0.0, -0.5, -model.nms, 0.0), a_rest=(), b_front=(b,),
                       b_rest=(0.0, -1.0), argument=argument)
    return ClosedForm(spec, (model.log_lambda_norm, -math.log(eta_lam),
                             -math.log(2.0 * math.sqrt(math.pi))), BER_BOUND, b_rounding)


def avg_ber(cfg: LinkConfig) -> MetricResult:
    """Average bit error rate, Meijer G closed form."""
    form = _ber_form(cfg)
    return form.finish(meijer_g(form.spec))


def avg_ber_asymptotic(cfg: LinkConfig) -> MetricResult:
    """High-SNR BER: Gamma(1/2+Nm) (xi/(eta lambda))^Nm / (2 sqrt(pi) B Nm)."""
    model = cfg.model()
    eta_lam = positive(cfg.eta * cfg.lambda_mod, "BER asymptote argument eta lambda",
                       NumericError)
    nm, nms = model.nm, model.nms
    lg_half, lg_nm, lg_nms, lg_tot = _log_gammas(0.5 + nm, nm, nms, nm + nms)
    log_value = (
        lg_half
        - math.log(2.0 * math.sqrt(math.pi))
        - (lg_nm + lg_nms - lg_tot)
        - math.log(nm)
        + nm * math.log(positive(model.xi / eta_lam, "BER asymptote argument xi/(eta lambda)",
                                 NumericError))
    )
    return result(ASYMPTOTIC, log_value, 0.0)


def outage(cfg: LinkConfig, gamma_th: float) -> MetricResult:
    """Outage probability P{eta g_D < gamma_th}, gamma_th linear.

    Gamma(Nm+Nms) / (Gamma(1+Nm) Gamma(Nms)) y^Nm
        * 2F1(N(m+m_s), Nm; 1+Nm; -y),  y = gamma_th xi / eta,

    the regularized incomplete beta I_x(Nm, Nms) at x = y/(1+y), by the
    log-space continued fraction of :func:`specfun.log_betainc`.
    Diagnostics record its side as ``method`` and its iterations as
    ``evals``.
    """
    positive(gamma_th, "gamma_th")
    model = cfg.model()
    y = gamma_th * model.xi / cfg.eta
    log_value, rel_err, side, evals = log_betainc(model.nm, model.nms, y)
    return result(CLOSED_FORM, log_value, rel_err, OUTAGE_BOUND, side, evals)


def outage_asymptotic(cfg: LinkConfig, gamma_th: float) -> MetricResult:
    """High-SNR outage: the y^Nm power law without the 2F1 correction."""
    positive(gamma_th, "gamma_th")
    model = cfg.model()
    nm, nms = model.nm, model.nms
    y = gamma_th * model.xi / cfg.eta
    lg_tot, lg_nm1, lg_nms = _log_gammas(nm + nms, 1.0 + nm, nms)
    log_value = lg_tot - lg_nm1 - lg_nms + nm * math.log(
        positive(y, "outage asymptote argument gamma_th xi/eta", NumericError))
    return result(ASYMPTOTIC, log_value, 0.0)
