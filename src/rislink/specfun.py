"""Double-precision special functions used by the closed-form link metrics.

Gamma-family functions, the Gaussian Q-function and its log, the
regularized incomplete beta in log space, and a numerical Meijer G
evaluator, all on numpy and math: scalars use math.lgamma and
math.erfc, and arrays a numpy Lanczos log-gamma in real arithmetic.
The Meijer G evaluator has one method for every parameter set:
numerical Mellin-Barnes integration along a vertical contour placed at
the saddle of the integrand magnitude inside the pole-separating gap.
The integrand is analytic and decays exponentially along that line, so
a trapezoidal rule in x, t = a sinh(x) along the line, converges
geometrically however close the poles are; all nodes are evaluated as
arrays, and meijer_g_batch evaluates the specs of one term-plan
structure together, each row bit for bit as on its own.

Every gamma product is assembled in log space with sign tracking; values
whose magnitude overflows a double are still available through the
``log_abs_value``/``sign`` fields of :class:`EvalReport`.

All functions are pure and safe to call concurrently; the Meijer G
set-up cached per parameter block holds read-only arrays.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericError, positive

_SQRT2 = math.sqrt(2.0)
_LN2 = math.log(2.0)
_EPS = float(np.finfo(float).eps)

# Hard caps; exceeding them raises, never returns silently.
MAX_CF_ITERATIONS = 10_000
MAX_CONTOUR_EVALS = 100_000
# The accuracy target of every log-space route; a bound above it raises.
REL_TOL = 1e-6

# Nodes per vectorized integrand call; bounds the contour's working set.
_CONTOUR_BLOCK = 4096


def log_gamma(x: float) -> float:
    """ln|Gamma(x)| by math.lgamma, but +inf where that overflows or meets a
    pole, as a log-gamma that cannot raise: each caller decides what an
    infinite term means."""
    try:
        return math.lgamma(x)
    except (OverflowError, ValueError):
        return math.inf


# psi(x) ~ ln x - 1/(2x) - sum B_2k / (2k x^2k), k = 1..7, the coefficients
# B_2k / 2k of 1/x^2k, highest first
_DIGAMMA_SERIES = (-1.0 / 12.0, 1.0 / 120.0, -1.0 / 252.0, 1.0 / 240.0, -1.0 / 132.0,
                   691.0 / 32760.0, -1.0 / 12.0)[::-1]


def digamma(x: float) -> float:
    """Logarithmic derivative of the gamma function for x > 0.

    The recurrence psi(x) = psi(x + 1) - 1/x carries x to 10 or more, where
    the asymptotic series, cut after its x^-14 term, is good to 1e-17.
    The error is at most 4 eps (|psi(x)| + 1).
    """
    x = positive(x, "digamma x")
    shift = 0.0
    while x < 10.0:
        shift -= 1.0 / x
        x += 1.0
    inv = 1.0 / x
    series = 0.0
    for coef in _DIGAMMA_SERIES:
        series = series * inv * inv + coef
    return math.log(x) + (shift - 0.5 * inv + series * inv * inv)


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = 0.5 erfc(x / sqrt(2))."""
    if not np.isfinite(x):
        raise DomainError(f"q_function requires finite x, got {x}")
    return 0.5 * math.erfc(x / _SQRT2)


# Beyond this s, erfc(s) nears the bottom of the doubles, and the asymptotic
# series erfc(s) = e^(-s^2) / (s sqrt(pi)) * sum_k (-1)^k (2k-1)!! / (2 s^2)^k,
# cut after its k = 6 term, is good to 2e-17; its coefficients of s^(-2k)
_ERFC_SERIES_FROM = 26.0
_ERFC_SERIES = tuple((-1) ** k * math.prod(range(1, 2 * k, 2)) / 2.0 ** k for k in range(7))
_ERFC_POWERS, _ERFC_ARRAY = np.arange(7.0), np.array(_ERFC_SERIES)
_LOG_2_SQRT_PI = math.log(2.0 * math.sqrt(math.pi))


def _log_erfc_series(x, s):
    """ln(erfc(s) / 2) at s = sqrt(x) >= _ERFC_SERIES_FROM, by the series,
    at floats x and s or at each element of arrays."""
    if isinstance(x, float):
        inv, series = 1.0 / x, 0.0
        for coef in _ERFC_SERIES[::-1]:
            series = series * inv + coef
        return math.log(series / s) - x - _LOG_2_SQRT_PI
    series = np.power.outer(1.0 / x, _ERFC_POWERS) @ _ERFC_ARRAY
    out = np.log(series / s)
    out -= x
    out -= _LOG_2_SQRT_PI
    return out


def log_q_snr(x):
    """ln Q(sqrt(2 x)) = ln(erfc(sqrt(x)) / 2) at x >= 0, a float or each
    element of an array.

    math.erfc serves below sqrt(x) = 26, and the asymptotic series of erfc
    in logs beyond, so the result stays exact far past the doubles' range
    of Q.  The error is at most 2 eps (|ln Q| + 1): most of it is the
    rounding of sqrt(x), which moves ln Q by about x eps.
    """
    if not getattr(x, "ndim", 0):
        s = math.sqrt(x)
        if s >= _ERFC_SERIES_FROM:
            return _log_erfc_series(float(x), s)
        return math.log(math.erfc(s)) - _LN2
    s = np.sqrt(x)
    # erfc at each s, clipped where the series serves so that it stays normal
    erfc = np.fromiter(map(math.erfc, np.minimum(s, _ERFC_SERIES_FROM).ravel().tolist()),
                       float, s.size)
    out = np.log(erfc.reshape(s.shape))
    out -= _LN2
    if np.maximum.reduce(s, axis=None) < _ERFC_SERIES_FROM:
        return out
    return np.where(s < _ERFC_SERIES_FROM, out, _log_erfc_series(
        np.maximum(x, _ERFC_SERIES_FROM ** 2), np.maximum(s, _ERFC_SERIES_FROM)))


# ---------------------------------------------------------------------------
# Regularized incomplete beta in log space
# ---------------------------------------------------------------------------

CF_DIRECT = "cf_direct"
CF_COMPLEMENT = "cf_complement"


def _nonzero(v: float) -> float:
    return v if abs(v) > 1e-300 else 1e-300


def _beta_cf(a: float, b: float, x: float) -> tuple[float, int]:
    """Modified Lentz evaluation of the continued fraction h, with
    I_x(a, b) = x^a (1-x)^b h / (a B(a, b)), and its iteration count.
    It converges in about sqrt(max(a, b)) steps for x < (a+1)/(a+b+2)."""
    c, d = 1.0, 1.0 / _nonzero(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for k in range(1, MAX_CF_ITERATIONS + 1):
        even = k * (b - k) * x / ((a + 2 * k - 1.0) * (a + 2 * k))
        odd = -(a + k) * (a + b + k) * x / ((a + 2 * k) * (a + 2 * k + 1.0))
        for coef in (even, odd):
            d = 1.0 / _nonzero(1.0 + coef * d)
            c = _nonzero(1.0 + coef / c)
            h *= c * d
        if abs(c * d - 1.0) <= _EPS:
            return h, k
    raise NumericError(f"incomplete beta continued fraction did not converge within "
                       f"{MAX_CF_ITERATIONS} iterations at {(a, b, x)}")


def log_betainc(a: float, b: float, y: float) -> tuple[float, float, str, int]:
    """log I_x(a, b) at x = y/(1+y): (log value, relative error, side, iterations).

    The fraction runs at x when x < (a+1)/(a+b+2), and otherwise at
    1 - x = 1/(1+y) for the complement 1 - I_{1-x}(b, a).  The prefactor
    is assembled in logs, so the value stays exact far below double range.
    """
    if not (0.0 < a < math.inf and 0.0 < b < math.inf and y >= 0.0):
        raise DomainError(f"log_betainc requires finite a, b > 0 and y >= 0, got {(a, b, y)}")
    if y == 0.0 or y == math.inf:  # the end points, where a log below is infinite
        return (-math.inf, 0.0, CF_DIRECT, 0) if y == 0.0 else (0.0, 0.0, CF_COMPLEMENT, 0)
    log_x = math.log(y) - math.log1p(y)
    log_1mx = -math.log1p(y)
    x = y / (1.0 + y)
    direct = x < (a + 1.0) / (a + b + 2.0)
    if not direct:
        a, b, x, log_x, log_1mx = b, a, 1.0 / (1.0 + y), log_1mx, log_x
    h, evals = _beta_cf(a, b, x)
    at = (a, b, y) if direct else (b, a, y)
    if not 0.0 < h < math.inf:
        raise NumericError(f"incomplete beta continued fraction is {h!r} at {at}")
    terms = (a * log_x, b * log_1mx, -math.log(a), math.log(h),
             log_gamma(a + b), -log_gamma(a), -log_gamma(b))
    try:
        log_value = math.fsum(terms)
    except ValueError:  # an infinite term of each sign
        raise NumericError(f"incomplete beta log terms leave double range at {at}") from None
    # each log term is good to about two ulps of its own size, and each
    # iteration rounds the fraction by a few ulps
    rel_err = 2.0 * _EPS * sum(abs(t) for t in terms) + 4.0 * _EPS * evals
    if direct:
        return log_value, rel_err, CF_DIRECT, evals
    tail = math.exp(min(log_value, 0.0))  # a log value above 0 leaves no complement
    if tail >= 1.0:
        raise NumericError(f"incomplete beta complement lost to rounding at {at}")
    if not rel_err <= REL_TOL:  # the tail may underflow, and 1 - tail hide its error
        raise NumericError(f"incomplete beta tail has relative error {rel_err:.3e} at {at}")
    # 1 - tail inherits the tail's absolute error, and rounds to an ulp
    return math.log1p(-tail), rel_err * tail / (1.0 - tail) + _EPS, CF_COMPLEMENT, evals


# ---------------------------------------------------------------------------
# Meijer G
# ---------------------------------------------------------------------------

CONTOUR_QUADRATURE = "contour_quadrature"
# The narrowest pole-separating gap a spec may have; it also rejects an
# a_front - b_front within 1e-9 of a positive integer.
_MIN_GAP = 1e-9


@dataclass(frozen=True)
class MeijerGSpec:
    """Parameter block of G^{m,n}_{p,q}(z) on the positive real axis.

    ``a_front`` holds the first n upper parameters, ``a_rest`` the
    remaining p - n; ``b_front``/``b_rest`` likewise for the lower row.
    In the Mellin-Barnes integrand the ``b_front`` entries contribute
    Gamma(b - s) (poles running right from b) and the ``a_front`` entries
    Gamma(1 - a + s) (poles running left from a - 1).

    Construction raises every DomainError a spec can cause, so meijer_g
    meets only NumericError: a non-finite parameter or argument <= 0,
    parameters beyond double range of each other, no exponential decay
    (2(m + n) <= p + q), pole families that no vertical contour
    separates by more than _MIN_GAP, or a log-gamma term whose real part
    falls below 0 where the contour runs (_block_plan).  ``decay`` holds
    Stirling's decay exponent in |Im u|, ``plan`` the block's cached
    _block_plan.
    """

    a_front: tuple[float, ...]
    a_rest: tuple[float, ...]
    b_front: tuple[float, ...]
    b_rest: tuple[float, ...]
    argument: float
    decay: float = field(repr=False, compare=False)
    plan: _BlockPlan = field(repr=False, compare=False)

    def __init__(self, a_front, a_rest, b_front, b_rest, argument):
        rows = dict(a_front=a_front, a_rest=a_rest, b_front=b_front, b_rest=b_rest)
        rows = {row: tuple(map(float, values)) for row, values in rows.items()}
        vars(self).update(rows)
        # |a| + |b| bounds |a - b|, so a finite sum of every magnitude leaves
        # each parameter, and each difference the plan takes, finite
        if math.isfinite(sum(map(abs, itertools.chain(*rows.values())))):
            vars(self)["argument"] = positive(float(argument), "Meijer G argument")
        else:
            self._check_range(argument)
        decay = 0.5 * math.pi * (2.0 * (self.m + self.n) - self.p - self.q)
        if decay <= 0.0:
            raise DomainError(f"contour integrand lacks exponential decay "
                              f"(2(m+n) <= p+q for {self})")
        vars(self).update(decay=decay, plan=_block_plan(*rows.values()))

    def _check_range(self, argument):
        """Set the argument, raising where a parameter, the argument or a
        difference the plan takes is not finite, in that order."""
        for row in ("a_front", "a_rest", "b_front", "b_rest"):
            if not all(map(math.isfinite, getattr(self, row))):
                raise DomainError(f"Meijer G parameters {row} must be finite, "
                                  f"got {getattr(self, row)}")
        vars(self)["argument"] = positive(float(argument), "Meijer G argument")
        # the pairs whose differences the term plan takes; a_front - b_front
        # also bounds the width of the gap, which the contour needs finite
        for row, other in (("a_front", "b_front"), ("a_front", "b_rest"),
                           ("b_front", "a_rest")):
            for a in getattr(self, row):
                for b in getattr(self, other):
                    if not math.isfinite(a - b):
                        raise DomainError(f"Meijer G parameters {row} value {a} and {other} "
                                          f"value {b} differ by more than double range")

    # the orders of G^{m,n}_{p,q}
    m = property(lambda self: len(self.b_front))
    n = property(lambda self: len(self.a_front))
    p = property(lambda self: self.n + len(self.a_rest))
    q = property(lambda self: self.m + len(self.b_rest))


@dataclass
class EvalReport:
    """One Meijer G evaluation: the method used, the result as
    ``log_abs_value`` and ``sign``, and ``details``, whose ``rel_error``
    is the relative error bound.  ``value`` may overflow to inf or
    underflow to 0.0 for extreme parameter magnitudes; the log and sign
    always carry the full result.
    """

    method: str
    log_abs_value: float
    sign: float
    details: dict = field(default_factory=dict)

    @property
    def value(self) -> float:
        with np.errstate(over="ignore"):
            return float(self.sign * np.exp(self.log_abs_value))


# Largest integer offset gap folded into log terms: Gamma(x+k)/Gamma(x) is
# the product x(x+1)...(x+k-1), k logs in place of two log-gammas.
_MAX_FOLD = 8


def _merge_direction(nums, dens) -> tuple[dict, dict]:
    """Gamma(o_i + x) numerator and denominator offsets in one direction
    x = +-u, reduced to {offset: weight} log-gamma and log terms.

    Equal offsets cancel or add up exactly.  A numerator and denominator
    whose offsets differ by an exact integer k, 1 <= |k| <= _MAX_FOLD,
    nearest first, fold into the |k| factors of their ratio.
    """
    gammas: dict[float, int] = {}
    for o in nums:
        gammas[o] = gammas.get(o, 0) + 1
    logs: dict[float, int] = {}
    if not dens:
        return gammas, logs
    for o in dens:
        gammas[o] = gammas.get(o, 0) - 1
    dens = [q for q, w in gammas.items() if w < 0]
    pairs = sorted((abs(p - q), p, q) for p, w in gammas.items() if w > 0 for q in dens
                   if abs(p - q) <= _MAX_FOLD and p - q == round(p - q))
    for k, p, q in pairs:
        while gammas[p] > 0 > gammas[q]:
            gammas[p] -= 1
            gammas[q] += 1
            # Gamma(p + x) / Gamma(q + x) is a product of k factors
            low, sign = (q, 1) if p > q else (p, -1)
            for j in range(int(k)):
                logs[low + j] = logs.get(low + j, 0) + sign
    return ({o: w for o, w in gammas.items() if w},
            {o: w for o, w in logs.items() if w})


# Lanczos's approximation with g = 607/128 and 15 coefficients (P. Godfrey's
# set): Gamma(x) = sqrt(2 pi) t^(x - 1/2) e^-t (c_0 + sum_k c_k / (x + k - 1)),
# t = x + g - 1/2, at Re x >= 0 only (_block_plan rejects a term that would
# reach below).  Its terms cancel far less than those of the common g = 7
# set, whose error reaches 20 eps of ln Gamma.  c_1.. and their k - 1 are
# columns against the (terms, rows, nodes) arguments.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C0 = 0.99999999999999709182
_LANCZOS_C = np.array([
    57.156235665862923517, -59.597960355475491248, 14.136097974741747174,
    -0.49191381609762019978, 0.33994649984811888699e-4, 0.46523628927048575665e-4,
    -0.98374475304879564677e-4, 0.15808870322491248884e-3, -0.21026444172410488319e-3,
    0.21743961811521264320e-3, -0.16431810653676389022e-3, 0.84418223983852743293e-4,
    -0.26190838401581408670e-4, 0.36899182659531622704e-5]).reshape(-1, 1, 1, 1)
_LANCZOS_K = np.arange(float(_LANCZOS_C.size)).reshape(-1, 1, 1, 1)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# ndarray.sum without its Python wrapper, which the contour's many small
# arrays would pay on every call
_SUM = np.add.reduce


class _Weights(NamedTuple):
    """_LogGammaSum's weights (_term_weights)."""

    gammas: int
    w: np.ndarray
    shift: np.ndarray
    const: float


def _term_weights(g_re: list, g_im: list, l_re: list, l_im: list) -> _Weights:
    """_LogGammaSum's weights for log-gamma terms of weights g_re and g_im
    on the real and imaginary parts and log terms of l_re and l_im: the
    log-gammas' count; the weights on the real part's pieces and on the
    imaginary part's, in _LogGammaSum's order, as one read-only (2,
    pieces, 1, 1) array; each term's shift, g - 1/2 for a log-gamma and 0
    for a log, as a read-only (terms, 1, 1) array; and the real part's
    constant."""
    g, k = len(g_re), 3 * len(g_re) + len(l_re)
    flat = np.array(g_re + g_re + l_re + [-w for w in g_re]
                    + [-w for w in g_im] + g_im + l_im + g_im
                    + [_LANCZOS_G - 0.5] * g + [0.0] * len(l_re), dtype=float)
    flat.flags.writeable = False
    return _Weights(g, flat[:2 * k].reshape(2, k, 1, 1), flat[2 * k:].reshape(-1, 1, 1),
                    sum(g_re) * (_HALF_LOG_2PI - _LANCZOS_G) + sum(l_re))


class _LogGammaSum:
    """sum_g w_g ln Gamma(x_g + i y) + sum_l w_l ln(v_l + i y), plus
    re0 + i im0 y, along lines of fixed real parts, in real arithmetic:
    the real part, and the imaginary part modulo 2 pi, each with its own
    weights (_term_weights), so that a term of the conjugate argument
    takes the opposite weight on the imaginary part.

    z, a (terms, rows, nodes) array, holds the x_g >= 0, then the v_l, on
    its first axis; the weights and re0, im0 broadcast against the rest.
    Each log-gamma is Lanczos's approximation, ln A + (u - 1/2)(ln(u + g
    - 1/2) - 1) + 1/2 ln(2 pi) - g at u = x + i y, A its sum.  What
    depends on z alone is computed once.  Each evaluation takes the logs
    and arctangents of A, t + i y (t = x + g - 1/2) and v + i y, the last
    two over e for their logs less 1, in one call each, and both parts as
    one weighted sum over one stack of every term's pieces.  Each
    log-gamma is within 4 eps max(|ln Gamma|, 4) of the true one.
    """

    def __init__(self, z, weights: _Weights, re0=0.0, im0=0.0):
        g = weights.gammas
        self.g, self.logs, self.w, self.im0 = g, len(z) - g, weights.w, im0
        x = z[:g]
        self.d, self.dd, self.xh = x + _LANCZOS_K, None, x - 0.5
        self.b = (z + weights.shift) / math.e
        self.re0 = weights.const + re0

    def __call__(self, y):
        """Real and imaginary parts at y, broadcasting against the lines."""
        if self.dd is None:
            self.dd = self.d * self.d
        g, b = self.g, self.b
        k = 2 * g + self.logs
        y2 = y * y
        # xy holds the real and imaginary parts of each term's log argument:
        # the conjugate of each Lanczos sum A (its 14 terms one array), then
        # t + i y and v + i y over e
        q = np.add(self.dd, y2)
        np.divide(_LANCZOS_C, q, out=q)
        xy = np.empty((2, k) + q.shape[2:])
        _SUM(q, axis=0, out=xy[1, :g])
        xy[1, :g] *= y
        q *= self.d
        _SUM(q, axis=0, initial=_LANCZOS_C0, out=xy[0, :g])
        xy[0, g:] = b
        np.divide(y, math.e, out=xy[1, g:])
        # the real part's pieces: ln|A|, (x - 1/2)(ln|t + i y| - 1),
        # ln|v + i y| - 1, y arg(t + i y); the imaginary part's: -arg A,
        # (x - 1/2) arg(t + i y), arg(v + i y), y (ln|t + i y| - 1)
        f = np.empty(self.w.shape[:2] + q.shape[2:])
        np.arctan2(xy[1], xy[0], out=f[1, :k])
        np.square(xy, out=xy)
        np.log(np.add(xy[0], xy[1], out=xy[0]), out=f[0, :k])
        f[0, :k] *= 0.5
        np.multiply(f[1, g:2 * g], y, out=f[0, k:k + g])
        np.multiply(f[0, g:2 * g], y, out=f[1, k:k + g])
        f[:, g:2 * g] *= self.xh
        re, im = _SUM(self.w * f, axis=1)
        re += self.re0
        im += y * self.im0
        return re, im

    def real(self):
        """The real part at y = 0: +inf at a pole of a log-gamma of weight
        above 0, -inf at one of weight below 0 or at a zero of a log term,
        which warn unless the caller's np.errstate ignores them."""
        g = self.g
        k = 2 * g + self.logs
        # the real part's pieces at y = 0, y arg(t + i y) being 0
        f = np.empty((k,) + self.b.shape[1:])
        np.log(_SUM(_LANCZOS_C / self.d, axis=0, initial=_LANCZOS_C0), out=f[:g])
        np.log(np.abs(self.b), out=f[g:k])
        f[g:2 * g] *= self.xh
        out = _SUM(self.w[0, :k] * f, axis=0)
        out += self.re0
        return out


@functools.lru_cache(maxsize=64)
def _structure_arrays(structure: tuple) -> tuple:
    """Each term's sign (+1 for the direction +u, -1 for -u), the
    log-gammas' then the logs', as a read-only (terms, 1, 1) array, and
    their _term_weights, for one term structure (_BlockPlan.structure):
    every plan of the structure shares them.  A -u term o - u is the
    conjugate of the one at o - c + i t, so its weight on the imaginary
    part is -w."""
    gammas, logs = structure
    signs = np.array([1.0 - 2.0 * d for d, _ in gammas + logs]).reshape(-1, 1, 1)
    signs.flags.writeable = False
    return signs, _term_weights(*([w * (1.0 - 2.0 * d) ** k for d, w in plan]
                                  for plan in (gammas, logs) for k in (0, 1)))


_SADDLE_INDEX = np.arange(65.0)
# The most saddle passes a contour takes: the first spans the gap, and each
# later one the last one's two steps about its minimum
_SADDLE_PASSES = 12


def _saddle_grid(lo, hi) -> np.ndarray:
    """np.linspace(lo, hi, 65), bit for bit, without its set-up; lo and hi
    may be (rows, 1) columns, for one grid per row."""
    grid = _SADDLE_INDEX * ((hi - lo) / 64) + lo
    grid[..., -1:] = hi
    return grid


class _BlockPlan(NamedTuple):
    """What the contour needs of a parameter block, whatever the argument:
    the integrand's term plan; its structure, each term's direction and
    weight in plan order; the pole-separating gap (left, right); the
    first saddle pass's grid, a read-only (1, 65) row, and the log
    integrand there but for its z^u term, likewise; each term's offset,
    the log-gammas' then the logs', as a read-only (terms, 1, 1) float64
    array, which the integrand promotes exactly; and its structure's
    _structure_arrays, the terms' signs and weights."""

    gammas: tuple
    logs: tuple
    structure: tuple
    left: float
    right: float
    grid: np.ndarray
    base: np.ndarray
    offsets: np.ndarray
    signs: np.ndarray
    weights: _Weights


@functools.lru_cache(maxsize=256)
def _block_plan(a_front, a_rest, b_front, b_rest) -> _BlockPlan:
    """The plan of one parameter block, built once and shared by every
    argument z: a sweep family's points differ only in z.

    The integrand's gamma factors are Gamma(1 - a + u) and 1/Gamma(1 - b + u)
    in the direction +u (a_front, b_rest), Gamma(b - u) and 1/Gamma(a - u)
    in the direction -u (b_front, a_rest).  Each direction is reduced by
    _merge_direction, so each distinct log-gamma is evaluated once per
    node, times its weight.  Folding changes the log only by multiples of
    2 pi i, which exp removes.  The gap is (max(a_front) - 1,
    min(b_front)), and must be wider than _MIN_GAP; the first saddle pass
    spans it, 1e-6 clear of each pole or a quarter of a narrower gap, or
    40 wide beside a lone pole family.  Every later pass and the line lie
    within that first span, where each merged log-gamma's real part must
    stay at or above 0, the range of its Lanczos approximation: the
    front parameters' terms always do, and a rest parameter's that falls
    below raises DomainError.
    """
    left = max(a_front, default=-math.inf) - 1.0
    right = min(b_front, default=math.inf)
    if not right - left > _MIN_GAP:
        raise DomainError(f"no separating contour: left poles reach {left}, "
                          f"right poles start at {right}")
    gammas, logs = [], []
    for d, (nums, dens) in enumerate((
        ([1.0 - a for a in a_front], [1.0 - b for b in b_rest]),
        (b_front, a_rest),
    )):
        merged_gammas, merged_logs = _merge_direction(nums, dens)
        gammas += [(d, o, w) for o, w in merged_gammas.items()]
        logs += [(d, o, w) for o, w in merged_logs.items()]
    # MeijerGSpec has rejected m = n = 0 (no decay), so one edge is finite
    if math.isinf(left):
        lo, hi = right - 40.0, right - 1e-6
    elif math.isinf(right):
        lo, hi = left + 1e-6, left + 40.0
    else:
        pad = min(1e-6 * max(1.0, right - left), 0.25 * (right - left))
        lo, hi = left + pad, right - pad
    for d, o, _ in gammas:
        x = o - hi if d else o + lo
        if x < 0.0:
            raise DomainError(f"log-gamma term Gamma({o!r} {'-' if d else '+'} u) reaches "
                              f"real part {x!r} < 0 on the saddle range [{lo!r}, {hi!r}]")
    structure = tuple(tuple((d, w) for d, _, w in plan) for plan in (gammas, logs))
    signs, weights = _structure_arrays(structure)
    offsets = np.array([o for _, o, _ in gammas + logs]).reshape(-1, 1, 1)
    grid = _saddle_grid(lo, hi)[None]
    with np.errstate(divide="ignore", invalid="ignore"):
        base = _LogGammaSum(offsets + signs * grid, weights).real()
    for a in (offsets, grid, base):
        a.flags.writeable = False
    return _BlockPlan(tuple(gammas), tuple(logs), structure, left, right, grid, base,
                      offsets, signs, weights)


def _term_scale(plan: _BlockPlan, c: float) -> float:
    """The summed magnitudes of the weighted log terms at the real point
    c, each taken as at least 4: each rounds to 4 eps max(|term|, 4)
    (_LogGammaSum)."""
    return (sum(max(abs(w * log_gamma(o - c if d else o + c)), 4.0) for d, o, w in plan.gammas)
            + sum(max(abs(w * math.log(abs(o - c if d else o + c))), 4.0)
                  for d, o, w in plan.logs))


def _column(values: list):
    """One value per row as a (rows, 1) column, or a lone row's value
    itself, which broadcasts over (1, n) rows alike."""
    return values[0] if len(values) == 1 else np.array(values)[:, None]


class _MellinBarnesIntegrand:
    """log of the Mellin-Barnes integrands of specs that share one term
    structure, one spec per row, from their blocks' cached plans (see
    _block_plan).  ln z is a _column and each term's offsets a (rows, 1)
    column, so the integrand at (rows, nodes) points is one array
    expression whose every element is computed as a lone spec's would
    be."""

    def __init__(self, specs: list):
        self.specs = specs
        self.log_z = _column([math.log(s.argument) for s in specs])
        plan = specs[0].plan
        self.offsets = plan.offsets if len(specs) == 1 else (
            np.concatenate([s.plan.offsets for s in specs], axis=1))
        self.signs, self.weights = plan.signs, plan.weights

    def take(self, rows: list) -> "_MellinBarnesIntegrand":
        """The integrand of the given rows, in increasing order, alone."""
        if len(rows) == len(self.specs):
            return self
        return _MellinBarnesIntegrand([self.specs[r] for r in rows])

    def at(self, c) -> _LogGammaSum:
        """The integrand along the rows' lines Re u = c, c a _column, as a
        function of t: the real and imaginary parts of its log at c + i t,
        the imaginary part modulo 2 pi."""
        return _LogGammaSum(self.offsets + self.signs * c, self.weights, c * self.log_z,
                            self.log_z)

    def real_axis(self, x: np.ndarray) -> np.ndarray:
        """Re log integrand at real points x."""
        return x * self.log_z + _LogGammaSum(self.offsets + self.signs * x, self.weights).real()


def _contour_position(chi: _MellinBarnesIntegrand) -> list:
    """Pick each row's vertical line Re(u) = c inside its pole-separating gap.

    The contour is placed at the minimum of the integrand magnitude on
    the real axis (the saddle), found by grid passes in real arithmetic,
    where the integrand is real; a mid-gap line can be catastrophically
    cancelled when the result is many orders below the integrand scale.
    Each pass has 65 points.  The first spans the gap; its log terms come
    from the block's plan, so it adds only the z^u term.  A row whose
    minimum has a neighbour more than 1 above it in log|chi| takes
    another pass over the last one's two steps about its minimum,
    evaluated in full, and so on, up to _SADDLE_PASSES: a valley
    narrower than the step would otherwise put the line far above the
    saddle, where the rule aliases.  Returns, per row, c, log|chi(c)|,
    the distance from c to the nearest pole, the summed magnitudes of
    the log terms at c (_term_scale), which bound their rounding, and
    the passes taken.
    """
    last = [None] * len(chi.specs)  # per row: its last pass's grid, log|chi|, argmin, pass
    live, part = list(range(len(chi.specs))), chi
    plans = [s.plan for s in chi.specs]
    grid, base = ((plans[0].grid, plans[0].base) if len(plans) == 1 else
                  (np.concatenate([p.grid for p in plans]),
                   np.concatenate([p.base for p in plans])))
    w = grid * chi.log_z + base
    for n in range(1, _SADDLE_PASSES + 1):
        if n > 1:
            part = chi.take(live)
            lo, hi = ([last[r][0][min(max(last[r][2] + step, 0), 64)] for r in live]
                      for step in (-1, 1))
            grid = _saddle_grid(_column(lo), _column(hi)).reshape(len(live), -1)
            w = part.real_axis(grid)
        # a denominator pole on the grid is a zero of chi, not a saddle
        w = np.where(np.isfinite(w), w, np.inf)
        k = w.argmin(axis=1).tolist()
        for j, (r, i) in enumerate(zip(live, k)):
            last[r] = (grid[j], w[j], i, n)
        live = [r for j, (r, i) in enumerate(zip(live, k))
                if max(w[j, max(i - 1, 0):i + 2].tolist()) - w[j, i] > 1.0]
        if not live:
            break
    lines = []
    for spec, (g, w, i, n) in zip(chi.specs, last):
        c = float(g[i])
        log_scale = abs(c * math.log(spec.argument)) + _term_scale(spec.plan, c)
        lines.append((c, float(w[i]), min(c - spec.plan.left, spec.plan.right - c),
                      log_scale, n))
    return lines


_PROBES = 2.0 ** np.arange(-2, 17)
_LOG_CUT = math.log(1e-18)
# The probes' call also evaluates each row's rule nodes out to t = _REACH
_REACH = 32.0


def _padded(xs: list) -> np.ndarray:
    """Rows of nodes as one array, each zero-padded past its own nodes."""
    if len(xs) == 1:
        return xs[0][None]
    out = np.zeros((len(xs), max(x.size for x in xs)))
    for i, x in enumerate(xs):
        out[i, :x.size] = x
    return out


def _halving_rules(f, heads: list, spans: list, h: float, rel_tol: float, floor: float,
                   node_roundings, what: str, used: list, budget: int) -> list:
    """Per row, the rule h (f(0)/2 + f(h) + ... + f(n h)), n = 2 ceil(span
    / 2h) its first pass, the step halved until it holds: (total, error,
    rounding, step, n, evaluations), or the NumericError of a row whose
    sum is not finite or whose next nodes would take its evaluations past
    the budget: every later pass keeps its nodes.

    A row's head holds f(0), f(h), ... as far as its caller evaluated
    them, counted in the row's ``used``; it may be empty or run past n h,
    and the rule keeps its first n + 1 values.  The first call evaluates
    the rest of each row's first pass, and in that same call a row whose
    head covers its first pass takes its first halving.  The error is the
    difference from the rule on the even nodes, and the step is halved,
    each pass adding only the new odd nodes, until it is at most rel_tol
    * max(|total|, floor) or the rounding, the row's node_rounding
    relative in each node: a smaller step cannot resolve a difference
    below that.  Each call is f(x, rows) on the rows still open, one row
    of x each, zero-padded past a row's own nodes (_padded).  The padding
    is the node x = 0, which every row evaluates first, so it neither
    overflows nor warns; its values are dropped, and each row sums over
    its own nodes alone.
    """
    n = [2 * math.ceil(span / (2.0 * h)) for span in spans]
    values = [v[:k + 1] for v, k in zip(heads, n)]
    used, out = list(used), [None] * len(heads)
    steps, x = [h] * len(heads), [None] * len(heads)
    live = range(len(heads))
    while True:
        for r in live:
            v, h = values[r], steps[r]
            if v.size <= n[r]:
                x[r] = h * np.arange(v.size, n[r] + 1)
            else:
                half = 0.5 * float(v[0])
                total = h * (half + float(_SUM(v[1:])))
                if not math.isfinite(total):
                    out[r] = NumericError(f"{what} rule sum is {total!r} after {used[r]} "
                                          "integrand evaluations")
                    continue
                coarse = 2.0 * h * (half + float(_SUM(v[2::2])))
                err = abs(total - coarse)
                rounding = node_roundings[r] * h * float(_SUM(np.abs(v)))
                if err <= max(rel_tol * max(abs(total), floor), rounding):
                    out[r] = (total, err, rounding, h, v.size - 1, used[r])
                    continue
                steps[r] = 0.5 * h
                x[r] = steps[r] * np.arange(1, v.size * 2 - 2, 2)
            if used[r] + x[r].size > budget:
                out[r] = NumericError(f"{what} needs {x[r].size} more nodes after {used[r]} "
                                      f"integrand evaluations, over the budget of {budget}")
            used[r] += x[r].size
        live = [r for r in live if out[r] is None]
        if not live:
            return out
        fx = f(_padded([x[r] for r in live]), live)
        for i, r in enumerate(live):
            new = fx[i, :x[r].size]
            if values[r].size <= n[r]:
                values[r] = np.concatenate((values[r], new))
                continue
            refined = np.empty(2 * values[r].size - 1)
            refined[::2] = values[r]
            refined[1::2] = new
            values[r] = refined


def _halving_trapezoid(f, head, span: float, h: float, rel_tol: float, floor: float,
                       node_rounding: float, what: str, used: int, budget: int):
    """_halving_rules of one row, f mapping an array of nodes to the
    integrand there; returns (total, error, rounding, step, n,
    evaluations)."""
    (out,) = _halving_rules(lambda x, rows: f(x[0])[None], [head], [span], h, rel_tol,
                            floor, [node_rounding], what, [used], budget)
    if isinstance(out, Exception):
        raise out
    return out


def _blocked(part: _LogGammaSum, t: np.ndarray):
    """part(t), its real and imaginary parts at the (rows, nodes) t,
    evaluated in blocks of about _CONTOUR_BLOCK nodes."""
    width = max(1, _CONTOUR_BLOCK // len(t))
    if t.shape[1] <= width:
        return part(t)
    re, im = zip(*(part(t[:, k:k + width]) for k in range(0, t.shape[1], width)))
    return np.concatenate(re, axis=1), np.concatenate(im, axis=1)


def _mapped(a, x, w0, re, im):
    """The rule's integrand at x, t = a sinh(x), from the real and
    imaginary parts of the log integrand there: dt/dx = a cosh(x) times
    chi / chi(c), the cosine of the imaginary part taking the real part."""
    return a * np.cosh(x) * (np.exp(re - w0) * np.cos(im))


def _contour(specs: list) -> list:
    """meijer_g of the specs, whose plans share one term structure, or the
    NumericError a spec's own call raises: one integrand call per saddle
    pass, one for the probes and the rules' first nodes, and one per call
    of the rules (_halving_rules).

    The probes are the powers of two from 1/4 to 2^16 along each row's
    line; its cut is the probe after the last one above 1e-18 of the
    saddle value, and a row whose integrand never falls that far raises.
    The probes' call also evaluates each row's rule nodes x = h j out to
    t = _REACH, a grid that does not depend on the cut, and the rule
    takes them as the row's head: a row whose cut lies within them makes
    no call for its first pass.  A row whose reach would take it past
    the budget evaluates none of them.  Every node evaluated counts
    towards the budget and ``details['evals']``.  Each call evaluates the
    line in blocks of about _CONTOUR_BLOCK nodes.
    """
    chi = _MellinBarnesIntegrand(specs)
    lines = _contour_position(chi)
    # the _column's of each row's c, w0 and distance to the nearest pole
    c, w0, scale, _, _ = map(_column, zip(*lines))
    line, h, p = chi.at(c), 0.05, _PROBES.size
    # the saddle passes and the probes come before the rule's nodes
    spent, reach = [], []
    for _, _, a, _, passes in lines:
        spent.append(passes * _SADDLE_INDEX.size + p)
        k = 2 * math.ceil(math.asinh(_REACH / a) / (2.0 * h)) + 1
        reach.append(k if spent[-1] + k <= MAX_CONTOUR_EVALS else 0)
    # each row's nodes h j short of its reach, zero-padded past it, after
    # the probes
    j = np.arange(float(max(reach)))[None]
    x = h * (j if len(specs) == 1 else np.where(j < _column(reach), j, 0.0))
    probes = _PROBES[None] if len(specs) == 1 else np.broadcast_to(_PROBES, (len(specs), p))
    re, im = _blocked(line, np.concatenate((probes, scale * np.sinh(x)), axis=1))
    out = []
    for r, (spec, w) in enumerate(zip(specs, re[:, :p] - w0)):
        above = (w > _LOG_CUT).nonzero()[0]
        k = int(above[-1]) + 1 if above.size else 0
        out.append(NumericError(
            f"contour truncation bound not reached by t = {_PROBES[-1]:.0f} for {spec}")
            if k == p else (float(_PROBES[k]), float(w[k])))
    live = [r for r, cut in enumerate(out) if not isinstance(cut, Exception)]
    if not live:
        return out
    # the rule's integrand at the nodes the probes' call evaluated
    head = _mapped(scale, x, w0, re[:, p:], im[:, p:])

    def mapped(x, rows):
        """The integrand of the live rows that rows indexes, at x."""
        if len(rows) == len(specs):
            return _mapped(scale, x, w0, *_blocked(line, scale * np.sinh(x)))
        rows = [live[i] for i in rows]
        a = scale[rows]
        return _mapped(a, x, w0[rows], *_blocked(chi.take(rows).at(c[rows]), a * np.sinh(x)))

    rules = _halving_rules(
        mapped, [head[r, :reach[r]] for r in live],
        [math.asinh(out[r][0] / lines[r][2]) for r in live], h, 1e-12, 1e-3,
        # each node's log terms round to a few ulps of their own size, and
        # exp carries that into the node value
        [4.0 * _EPS * lines[r][3] for r in live], "contour quadrature",
        [spent[r] + reach[r] for r in live], MAX_CONTOUR_EVALS)
    for r, rule in zip(live, rules):
        if isinstance(rule, Exception):
            out[r] = rule
            continue
        (c_r, w0_r, scale_r, _, _), (t_max, w_tail) = lines[r], out[r]
        total, err, rounding, h, n_r, evals = rule
        details = dict(contour=c_r, evals=evals, step=h, nodes=n_r + 1,
                       t_max=t_max, scale=scale_r, log_gammas=len(specs[r].plan.gammas),
                       rel_error=0.0)
        if total == 0.0:
            out[r] = EvalReport(CONTOUR_QUADRATURE, -math.inf, 0.0, details)
            continue
        tail = math.exp(w_tail) / specs[r].decay
        details["rel_error"] = float((err + tail + rounding) / abs(total) + 1e-14)
        log_abs = w0_r + math.log(abs(total)) - math.log(math.pi)
        out[r] = EvalReport(CONTOUR_QUADRATURE, log_abs, math.copysign(1.0, total), details)
    return out


def meijer_g_batch(specs) -> list:
    """meijer_g of each spec, or the NumericError that its own call raises,
    in the order given.

    Specs whose plans share one term structure (_BlockPlan.structure:
    the directions and weights of the merged terms, such as every
    capacity spec of a sweep point) run through the contour together:
    each saddle pass, the probes with the rules' first nodes and each
    call of the step-halving rules is one integrand call on (rows, nodes)
    arrays, a row's parameters being (rows, 1) columns.  Every element is
    computed by the operations of a lone call, in its order, each row's
    argmin and sums run over that row's own nodes, and the zero padding
    past a row's nodes is dropped; so each report equals meijer_g(spec)
    bit for bit, and a failing row changes no other row's report.
    """
    out, groups = [None] * len(specs), {}
    for i, spec in enumerate(specs):
        groups.setdefault(spec.plan.structure, []).append(i)
    # a node past double range makes its row's rule sum non-finite, and
    # that row fails on it; a pole on a saddle grid is an infinite log
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for index in groups.values():
            for i, report in zip(index, _contour([specs[i] for i in index])):
                out[i] = report
    return out


def meijer_g(spec: MeijerGSpec) -> EvalReport:
    """Evaluate G^{m,n}_{p,q} on the positive real axis by integrating the
    Mellin-Barnes integrand along Re(u) = c; meijer_g_batch of one spec.

    MeijerGSpec has checked the separating gap and the exponential decay
    that this needs.  The line t >= 0 (the integrand is
    conjugate-symmetric) is mapped through t = a sinh(x), a being the
    distance from c to the nearest pole, so those poles sit at
    x = +-i pi/2 however narrow the gap, and the nodes bunch near t = 0
    where the integrand peaks.  The trapezoidal rule in x converges
    geometrically in 1/h (Trefethen & Weideman, SIAM Review 56(3),
    2014).  The step starts at 1/20 and is halved until the rule agrees
    with the one on its even nodes to 1e-12 relative, or to within the
    nodes' rounding.  The line is cut at the power-of-two probe after
    the last one where |chi| is above 1e-18 of the saddle value.  The
    error adds that difference, the tail beyond the cut and the rounding
    of the nodes' log terms.

    The spec holds its block's term plan and first saddle pass, built
    once per block (_block_plan); all that moves with z is computed per
    call.  ``details['evals']`` counts every node evaluated, the shared
    first saddle pass and the rule's nodes short of t = _REACH included,
    so it does not depend on what the cache holds.
    """
    (report,) = meijer_g_batch([spec])
    if isinstance(report, Exception):
        raise report
    return report
