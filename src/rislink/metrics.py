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

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, NumericError
from .fading import FadingParams, SumFadingModel
from .specfun import EvalReport, MeijerGSpec, digamma, log_betainc, meijer_g

_LN2 = math.log(2.0)
_EPS = float(np.finfo(float).eps)

CLOSED_FORM = "closed_form"
ASYMPTOTIC = "asymptotic"
QUADRATURE = "quadrature"

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
        if int(self.n_cells) != self.n_cells or self.n_cells < 1:
            raise DomainError(f"n_cells must be an integer >= 1, got {self.n_cells}")
        object.__setattr__(self, "n_cells", int(self.n_cells))
        if not (np.isfinite(self.eta) and self.eta > 0.0):
            raise DomainError(f"eta must be positive and finite, got {self.eta}")
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
        return SumFadingModel(params=self.fading, n_cells=self.n_cells)


@dataclass
class MetricResult:
    """One computed metric value with method tag and error estimate.

    ``diagnostics`` may carry ``log_value`` (natural log of the value,
    exact even when ``value`` under- or overflows), evaluator notes, and
    range flags.
    """

    value: float
    method: str
    error_estimate: float = 0.0
    diagnostics: dict = field(default_factory=dict)


def snr_threshold_from_db(x_db: float) -> float:
    """dB -> linear power ratio."""
    if not np.isfinite(x_db):
        raise DomainError(f"finite dB value required, got {x_db}")
    return 10.0 ** (x_db / 10.0)


def check_gamma_th(gamma_th: float) -> None:
    """The outage threshold check shared by every outage route."""
    if not (np.isfinite(gamma_th) and gamma_th > 0.0):
        raise DomainError(f"gamma_th must be positive and linear, got {gamma_th}")


def result(route: str, log_value: float, rel_err: float, upper: float = math.inf,
           **diagnostics) -> MetricResult:
    """The result of every route that computes the log of its value.

    The value is exp(log_value), read as 0.0 below UNDERFLOW_FLOOR and
    inf above double range, each flagged in ``diagnostics``, and its
    error estimate value * rel_err (0.0 when it overflows).  A value
    above ``upper`` by more than that estimate raises NumericError.
    """
    diagnostics = {"log_value": log_value, **diagnostics}
    value = err = 0.0
    if log_value > math.log(UNDERFLOW_FLOOR):
        try:
            value = math.exp(log_value)
            err = value * rel_err
        except OverflowError:
            diagnostics["overflow"] = True
            value = math.inf
    elif log_value > -math.inf:
        diagnostics["underflow"] = True
    if value > upper + err:
        raise NumericError(f"{route} value {value!r} is above its bound {upper!r} "
                           f"by more than its error estimate {err:.3e}")
    return MetricResult(value=value, method=route, error_estimate=err,
                        diagnostics=diagnostics)


def capacity_bound(cfg: LinkConfig) -> float:
    """Jensen's upper bound log2(1 + eta E[g]) on the average capacity."""
    return math.log1p(cfg.eta * cfg.model().mean()) / _LN2


def _capacity_g_spec(model: SumFadingModel, eta: float) -> MeijerGSpec:
    return MeijerGSpec(
        a_front=(1.0, 1.0, 1.0 - model.nm),
        a_rest=(),
        b_front=(model.nms, 1.0),
        b_rest=(0.0,),
        argument=eta / model.xi,
    )


def _closed_form(log_terms, report: EvalReport, upper: float) -> MetricResult:
    """The product of exp(log_terms) and a positive G, as a closed form.

    The error adds the rounding of the log-space sum, each term good to
    a few ulps of its own size, to the evaluator's own bound.
    """
    if not report.sign > 0.0:
        raise NumericError(f"Meijer G has sign {report.sign}; the metric needs G > 0")
    g_rel = report.details["rel_error"]
    rel = g_rel + 8.0 * _EPS * (
        sum(abs(t) for t in log_terms) + abs(report.log_abs_value))
    return result(CLOSED_FORM, sum(log_terms) + report.log_abs_value, rel, upper,
                  g_method=report.method, g_evals=report.details.get("evals", 0),
                  g_rel_error=g_rel)


def avg_capacity(cfg: LinkConfig) -> MetricResult:
    """Average capacity in bits/s/Hz, Meijer G closed form."""
    model = cfg.model()
    report = meijer_g(_capacity_g_spec(model, cfg.eta))
    return _closed_form((model.log_lambda_norm, -math.log(model.xi), -math.log(_LN2)),
                        report, capacity_bound(cfg))


def avg_capacity_asymptotic(cfg: LinkConfig) -> MetricResult:
    """High-SNR capacity [ln(eta/xi) + psi(Nm) - psi(Nms)] / ln 2."""
    model = cfg.model()
    value = (math.log(cfg.eta / model.xi) + digamma(model.nm)
             - digamma(model.nms)) / _LN2
    return MetricResult(value=value, method=ASYMPTOTIC, error_estimate=0.0)


def _ber_g_spec(model: SumFadingModel, eta_lam: float) -> MeijerGSpec:
    return MeijerGSpec(
        a_front=(0.0, -0.5, -model.nms, 0.0),
        a_rest=(),
        b_front=(model.nm - 1.0,),
        b_rest=(0.0, -1.0),
        argument=model.xi / eta_lam,
    )


def avg_ber(cfg: LinkConfig) -> MetricResult:
    """Average bit error rate, Meijer G closed form."""
    model = cfg.model()
    eta_lam = cfg.eta * cfg.lambda_mod
    report = meijer_g(_ber_g_spec(model, eta_lam))
    return _closed_form((model.log_lambda_norm, -math.log(eta_lam),
                         -math.log(2.0 * math.sqrt(math.pi))), report, BER_BOUND)


def avg_ber_asymptotic(cfg: LinkConfig) -> MetricResult:
    """High-SNR BER: Gamma(1/2+Nm) (xi/(eta lambda))^Nm / (2 sqrt(pi) B Nm)."""
    model = cfg.model()
    eta_lam = cfg.eta * cfg.lambda_mod
    nm, nms = model.nm, model.nms
    log_value = (
        gammaln(0.5 + nm)
        - math.log(2.0 * math.sqrt(math.pi))
        - (gammaln(nm) + gammaln(nms) - gammaln(nm + nms))
        - math.log(nm)
        + nm * math.log(model.xi / eta_lam)
    )
    return result(ASYMPTOTIC, log_value, 0.0)


def outage(cfg: LinkConfig, gamma_th: float) -> MetricResult:
    """Outage probability P{eta g_D < gamma_th}, gamma_th linear.

    Gamma(Nm+Nms) / (Gamma(1+Nm) Gamma(Nms)) y^Nm
        * 2F1(N(m+m_s), Nm; 1+Nm; -y),  y = gamma_th xi / eta,

    the regularized incomplete beta I_x(Nm, Nms) at x = y/(1+y), by the
    log-space continued fraction of :func:`specfun.log_betainc`.
    Diagnostics record its side as ``method``, its iterations as
    ``evals`` and its relative bound as ``rel_error``.
    """
    check_gamma_th(gamma_th)
    model = cfg.model()
    y = gamma_th * model.xi / cfg.eta
    log_value, rel_err, side, evals = log_betainc(model.nm, model.nms, y)
    return result(CLOSED_FORM, log_value, rel_err, OUTAGE_BOUND,
                  method=side, evals=evals, rel_error=rel_err)


def outage_asymptotic(cfg: LinkConfig, gamma_th: float) -> MetricResult:
    """High-SNR outage: the y^Nm power law without the 2F1 correction."""
    check_gamma_th(gamma_th)
    model = cfg.model()
    nm, nms = model.nm, model.nms
    y = gamma_th * model.xi / cfg.eta
    log_value = (
        gammaln(nm + nms) - gammaln(1.0 + nm) - gammaln(nms) + nm * math.log(y)
    )
    return result(ASYMPTOTIC, log_value, 0.0)
