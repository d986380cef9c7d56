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

Both are the F (beta-prime) law with shapes (a, b) and rate c: (m, m_s,
L) for a branch, (Nm, Nms, xi) for the aggregate.  One set of private
helpers holds its CDF and draw for both; the densities themselves live
in the closed forms of :mod:`rislink.metrics` and the quadrature oracles
of :mod:`rislink.validation`.

Draws are exact scaled gamma ratios, so sampling is independent of the
CDF it is tested against.  All distribution objects are
immutable; random draws consume an explicitly passed numpy Generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, positive
from .specfun import log_gamma

MODEL_DRAW = "model_draw"
PHYSICAL_DRAW = "physical_draw"


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
class FadingParams:
    """Single-branch F fading parameters (m, m_s, mean power g_bar)."""

    m: float
    m_s: float
    g_bar: float = 1.0

    def __post_init__(self):
        positive(self.m, "fading severity m")
        if not (np.isfinite(self.m_s) and self.m_s > 1.0):
            # m_s <= 1 leaves the mean channel power undefined.
            raise DomainError(f"shadowing parameter m_s must exceed 1, got {self.m_s}")
        positive(self.g_bar, "mean power g_bar")

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
        object.__setattr__(self, "n_cells", _whole(self.n_cells, 1,
                                                   "n_cells must be an integer >= 1"))
        # every route reads the aggregate shapes and scale in linear form
        if not all(0.0 < x < math.inf for x in (self.nm, self.nms, self.xi)):
            raise DomainError(
                f"n_cells = {self.n_cells}, m = {self.params.m!r} and m_s = "
                f"{self.params.m_s!r} put N m, N m_s or xi = m/(N m_s) outside the "
                "positive finite doubles")

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
        return math.log(self.xi) - (log_gamma(self.nm) + log_gamma(self.nms))

    def mean(self) -> float:
        """First moment Nm (Nms / m) / (Nms - 1) of the model density."""
        return self.nm * (self.nms / self.params.m) / (self.nms - 1.0)


def _support(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if np.any(v < 0.0) or not np.all(np.isfinite(v)):
        raise DomainError(f"{name} requires finite v >= 0")
    return v


def _f_cdf(a: float, b: float, c: float, v: np.ndarray) -> float | np.ndarray:
    """CDF I_x(a, b), x = c v / (1 + c v): the regularized incomplete beta."""
    from scipy.special import betainc  # loaded on first use: only the KS checks need it

    out = betainc(a, b, c * v / (1.0 + c * v))
    return out if out.ndim else float(out)


def _f_draw(a: float, b: float, scale: float, rng: np.random.Generator, size,
            out=None, y=None):
    """Exact draws scale * X / Y, X ~ Gamma(a) drawn before Y ~ Gamma(b).

    An array draw is made in place: X in ``out`` and Y in ``y`` (fresh
    arrays when None), and ``out`` returns the ratio.  numpy's gamma(a) is
    1.0 * standard_gamma(a), so the variates and the stream are gamma's.
    """
    if size is None:
        return scale * rng.standard_gamma(a) / rng.standard_gamma(b)
    x = rng.standard_gamma(a, size, out=out)
    y = rng.standard_gamma(b, size, out=y)
    np.multiply(x, scale, out=x)
    return np.divide(x, y, out=x)


def _branch(p: FadingParams) -> tuple[float, float, float]:
    """A branch's (a, b, scale) for _f_draw: scale = g_bar (m_s-1)/m."""
    return p.m, p.m_s, p.g_bar * (p.m_s - 1.0) / p.m


def cdf(p: FadingParams, v) -> float | np.ndarray:
    """Single-branch CDF, kept independent of the sampler and of the
    generic Meijer G evaluator."""
    return _f_cdf(p.m, p.m_s, p.rate, _support(v, "cdf"))


def sample(p: FadingParams, rng: np.random.Generator, size=None):
    """Draw channel powers g = g_bar (m_s-1)/m * X/Y, X~Gamma(m), Y~Gamma(m_s).

    The ratio construction is exact (E[g] = g_bar) and independently
    checkable against the density by a KS test.
    """
    return _f_draw(*_branch(p), rng, size)


def sum_cdf(model: SumFadingModel, v) -> float | np.ndarray:
    """CDF of the aggregate model density."""
    return _f_cdf(model.nm, model.nms, model.xi, _support(v, "sum_cdf"))


def sample_sum(
    model: SumFadingModel,
    mode: str,
    rng: np.random.Generator,
    size=None,
    out=None,
    summed: int = 0,
):
    """Draw aggregate channel powers.

    ``physical_draw`` returns the true branch sum (N independent draws
    added); ``model_draw`` samples the single-distribution form directly
    via g = (Nms/m) X/Y with X~Gamma(Nm), Y~Gamma(Nms).  The analytics
    are exact for ``model_draw``; the gap to ``physical_draw`` measures
    the sum-model approximation and is reported as a diagnostic by the
    validation tooling.  An array draw is written into ``out`` when it
    is given, an array of shape ``size``.

    The branch sum is branch-major: branch 1 at every draw, then branch
    2, each added in place from one pair of buffers.  So the first k
    branches of N are a k-branch sample, and ``summed`` = k > 0 continues
    one: ``out`` holds the sum of the first k branches drawn from ``rng``,
    and branches k+1..N are added onto it, bit for bit as one call for
    all N would add them.
    """
    if mode == MODEL_DRAW:
        return _f_draw(model.nm, model.nms, model.nms / model.params.m, rng, size, out)
    if mode == PHYSICAL_DRAW:
        if not 0 <= summed <= model.n_cells:
            raise DomainError(f"summed = {summed!r} branches, outside 0..N = {model.n_cells}")
        branch = _branch(model.params)
        x, y = (None, None) if size is None else (np.empty(size), np.empty(size))
        total = out if summed else _f_draw(*branch, rng, size, out, y)
        for _ in range(model.n_cells - max(summed, 1)):
            total += _f_draw(*branch, rng, size, x, y)
        return total
    raise DomainError(f"unknown draw mode {mode!r}; use 'model_draw' or 'physical_draw'")
