"""Fisher-Snedecor F composite fading: single branch and N-branch sum.

A single branch with fading severity m, shadowing parameter m_s > 1 and
mean power g_bar has channel-power density

    f(g) = Gamma(m+m_s) L^m g^(m-1) / (Gamma(m) Gamma(m_s) (1 + L g)^(m+m_s)),
    L = m / ((m_s - 1) g_bar),

which is the elementary reduction of the G^{1,1}_{1,1} kernel in
:mod:`rislink.specfun`.  The aggregate power of N i.i.d. reflector
branches is modelled by a single F-shaped density with parameters
(N m, N m_s) and scale xi = m / (N m_s):

    f_D(g) = (xi g)^(N m) / (g B(Nm, Nms) (1 + xi g)^(N(m + m_s))).

Draws are exact scaled gamma ratios, so sampling is independent of the
density code paths it is tested against.  All distribution objects are
immutable; random draws consume an explicitly passed numpy Generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, gammaln

from .errors import DomainError
from .specfun import ln_beta

MODEL_DRAW = "model_draw"
PHYSICAL_DRAW = "physical_draw"


@dataclass(frozen=True)
class FadingParams:
    """Single-branch F fading parameters (m, m_s, mean power g_bar)."""

    m: float
    m_s: float
    g_bar: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.m) and self.m > 0.0):
            raise DomainError(f"fading severity m must be positive, got {self.m}")
        if not (np.isfinite(self.m_s) and self.m_s > 1.0):
            # m_s <= 1 leaves the mean channel power undefined.
            raise DomainError(f"shadowing parameter m_s must exceed 1, got {self.m_s}")
        if not (np.isfinite(self.g_bar) and self.g_bar > 0.0):
            raise DomainError(f"mean power g_bar must be positive, got {self.g_bar}")

    @property
    def rate(self) -> float:
        """The PDF scale L = m / ((m_s - 1) g_bar)."""
        return self.m / ((self.m_s - 1.0) * self.g_bar)


@dataclass(frozen=True)
class SumFadingModel:
    """Aggregate N-branch channel-power distribution, i.i.d. branches."""

    params: FadingParams
    n_cells: int

    def __post_init__(self):
        if int(self.n_cells) != self.n_cells or self.n_cells < 1:
            raise DomainError(f"n_cells must be an integer >= 1, got {self.n_cells}")
        object.__setattr__(self, "n_cells", int(self.n_cells))

    @property
    def nm(self) -> float:
        return self.n_cells * self.params.m

    @property
    def nms(self) -> float:
        return self.n_cells * self.params.m_s

    @property
    def xi(self) -> float:
        """Scale xi = m / (N m_s)."""
        return self.params.m / (self.n_cells * self.params.m_s)

    @property
    def log_lambda_norm(self) -> float:
        """log of Lambda = xi / (Gamma(Nm) Gamma(Nms))."""
        return math.log(self.xi) - float(gammaln(self.nm) + gammaln(self.nms))

    @property
    def lambda_norm(self) -> float:
        """Lambda = xi / (Gamma(Nm) Gamma(Nms)); underflows to 0 for large N."""
        return math.exp(self.log_lambda_norm) if self.log_lambda_norm > -745 else 0.0

    def mean(self) -> float:
        """First moment Nm (Nms / m) / (Nms - 1) of the model density."""
        return self.nm * (self.nms / self.params.m) / (self.nms - 1.0)


def pdf(p: FadingParams, g) -> float | np.ndarray:
    """Single-branch channel-power density at g >= 0."""
    g = np.asarray(g, dtype=float)
    if np.any(g < 0.0) or not np.all(np.isfinite(g)):
        raise DomainError("pdf requires finite g >= 0")
    L = p.rate
    ln_front = (
        gammaln(p.m + p.m_s)
        - gammaln(p.m)
        - gammaln(p.m_s)
        + p.m * math.log(L)
    )
    gp = np.where(g > 0.0, g, 1.0)
    out = np.exp(ln_front + (p.m - 1.0) * np.log(gp) - (p.m + p.m_s) * np.log1p(L * g))
    # at g = 0 the g^(m-1) factor decides: 0 above m=1, finite at m=1, diverging below
    origin = math.exp(ln_front) if p.m == 1.0 else (np.inf if p.m < 1.0 else 0.0)
    out = np.where(g == 0.0, origin, out)
    return out if out.ndim else float(out)


def cdf(p: FadingParams, v) -> float | np.ndarray:
    """Single-branch CDF via the regularized incomplete beta reduction.

    F(v) = I_x(m, m_s) with x = L v / (1 + L v); this route is kept
    independent of both the sampler and the generic Meijer G evaluator.
    """
    v = np.asarray(v, dtype=float)
    if np.any(v < 0.0) or not np.all(np.isfinite(v)):
        raise DomainError("cdf requires finite v >= 0")
    x = p.rate * v / (1.0 + p.rate * v)
    out = betainc(p.m, p.m_s, x)
    return out if out.ndim else float(out)


def sample(p: FadingParams, rng: np.random.Generator, size=None):
    """Draw channel powers g = g_bar (m_s-1)/m * X/Y, X~Gamma(m), Y~Gamma(m_s).

    The ratio construction is exact (E[g] = g_bar) and independently
    checkable against the density by a KS test.
    """
    x = rng.gamma(p.m, size=size)
    y = rng.gamma(p.m_s, size=size)
    return p.g_bar * (p.m_s - 1.0) / p.m * x / y


def _sum_log_pdf(model: SumFadingModel, g: np.ndarray) -> np.ndarray:
    """log density for g > 0 (entries at g = 0 are not meaningful)."""
    nm, nms, xi = model.nm, model.nms, model.xi
    gp = np.where(g > 0.0, g, 1.0)
    return (
        nm * math.log(xi)
        + (nm - 1.0) * np.log(gp)
        - (nm + nms) * np.log1p(xi * g)
        - ln_beta(nm, nms)
    )


def sum_pdf(model: SumFadingModel, g) -> float | np.ndarray:
    """Aggregate channel-power density, algebraic form, log-space assembled."""
    g = np.asarray(g, dtype=float)
    if np.any(g < 0.0) or not np.all(np.isfinite(g)):
        raise DomainError("sum_pdf requires finite g >= 0")
    out = np.exp(_sum_log_pdf(model, g))
    nm = model.nm
    if nm == 1.0:
        origin = math.exp(math.log(model.xi) - ln_beta(1.0, model.nms))
    else:
        origin = np.inf if nm < 1.0 else 0.0
    out = np.where(g == 0.0, origin, out)
    return out if out.ndim else float(out)


def sum_pdf_origin(model: SumFadingModel, g) -> float | np.ndarray:
    """Small-g approximation g^(Nm-1) xi^Nm / B(Nm, Nms) of the sum density."""
    g = np.asarray(g, dtype=float)
    nm = model.nm
    ln_front = nm * math.log(model.xi) - ln_beta(nm, model.nms)
    gp = np.where(g > 0.0, g, 1.0)
    out = np.exp(ln_front + (nm - 1.0) * np.log(gp))
    if nm == 1.0:
        origin = math.exp(ln_front)
    else:
        origin = np.inf if nm < 1.0 else 0.0
    out = np.where(g == 0.0, origin, out)
    return out if out.ndim else float(out)


def sum_cdf(model: SumFadingModel, v) -> float | np.ndarray:
    """CDF of the aggregate model density: I_x(Nm, Nms), x = xi v/(1 + xi v)."""
    v = np.asarray(v, dtype=float)
    if np.any(v < 0.0) or not np.all(np.isfinite(v)):
        raise DomainError("sum_cdf requires finite v >= 0")
    x = model.xi * v / (1.0 + model.xi * v)
    out = betainc(model.nm, model.nms, x)
    return out if out.ndim else float(out)


def sample_sum(
    model: SumFadingModel,
    mode: str,
    rng: np.random.Generator,
    size=None,
):
    """Draw aggregate channel powers.

    ``physical_draw`` returns the true branch sum (N independent draws
    added); ``model_draw`` samples the single-distribution form directly
    via g = (Nms/m) X/Y with X~Gamma(Nm), Y~Gamma(Nms).  The analytics
    are exact for ``model_draw``; the gap to ``physical_draw`` measures
    the sum-model approximation and is reported as a diagnostic by the
    validation tooling.
    """
    if mode == MODEL_DRAW:
        x = rng.gamma(model.nm, size=size)
        y = rng.gamma(model.nms, size=size)
        return (model.nms / model.params.m) * x / y
    if mode == PHYSICAL_DRAW:
        total = sample(model.params, rng, size=size)
        for _ in range(model.n_cells - 1):
            total = total + sample(model.params, rng, size=size)
        return total
    raise DomainError(f"unknown draw mode {mode!r}; use 'model_draw' or 'physical_draw'")
