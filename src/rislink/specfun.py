"""Double-precision special functions used by the closed-form link metrics.

Gamma-family wrappers, the Gaussian Q-function, the regularized
incomplete beta in log space, and a numerical Meijer G evaluator.
The Meijer G evaluator has one method for every parameter set:
numerical Mellin-Barnes integration along a vertical contour placed at
the saddle of the integrand magnitude inside the pole-separating gap.
The integrand is analytic and decays exponentially along that line, so
a fixed-step trapezoidal rule converges geometrically; all nodes are
evaluated as arrays.

Every gamma product is assembled in log space with sign tracking; values
whose magnitude overflows a double are still available through the
``log_abs_value``/``sign`` fields of :class:`EvalReport`.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc as _erfc
from scipy.special import digamma as _digamma
from scipy.special import gammaln as _gammaln
from scipy.special import loggamma as _loggamma

from .errors import DomainError, NumericError

_SQRT2 = math.sqrt(2.0)
_EPS = float(np.finfo(float).eps)

# Hard caps; exceeding them raises, never returns silently.
MAX_CF_ITERATIONS = 10_000
MAX_CONTOUR_EVALS = 100_000

# Nodes per vectorized integrand call; bounds the contour's working set.
_CONTOUR_BLOCK = 4096


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not np.isfinite(x) or x <= 0.0:
        raise DomainError(f"ln_gamma requires finite x > 0, got {x}")
    return float(_gammaln(x))


def digamma(x: float) -> float:
    """Logarithmic derivative of the gamma function for x > 0."""
    if not np.isfinite(x) or x <= 0.0:
        raise DomainError(f"digamma requires finite x > 0, got {x}")
    return float(_digamma(x))


def beta(x: float, y: float) -> float:
    """Beta function B(x, y) = Gamma(x)Gamma(y)/Gamma(x+y), via log space."""
    return math.exp(ln_beta(x, y))


def ln_beta(x: float, y: float) -> float:
    """log B(x, y); safe for arguments far beyond gamma overflow."""
    if not (np.isfinite(x) and np.isfinite(y)) or x <= 0.0 or y <= 0.0:
        raise DomainError(f"beta requires finite x, y > 0, got ({x}, {y})")
    return float(_gammaln(x) + _gammaln(y) - _gammaln(x + y))


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = 0.5 erfc(x / sqrt(2))."""
    if not np.isfinite(x):
        raise DomainError(f"q_function requires finite x, got {x}")
    return float(0.5 * _erfc(x / _SQRT2))


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
    terms = (a * log_x, b * log_1mx, -math.log(a), math.log(h),
             float(_gammaln(a + b)), -float(_gammaln(a)), -float(_gammaln(b)))
    log_value = math.fsum(terms)
    # each log term is good to about two ulps of its own size, and each
    # iteration rounds the fraction by a few ulps
    rel_err = 2.0 * _EPS * sum(abs(t) for t in terms) + 4.0 * _EPS * evals
    if direct:
        return log_value, rel_err, CF_DIRECT, evals
    tail = math.exp(log_value)
    if tail >= 1.0:
        raise NumericError(f"incomplete beta complement lost to rounding at {(b, a, y)}")
    # 1 - tail inherits the tail's absolute error, and rounds to an ulp
    return math.log1p(-tail), rel_err * tail / (1.0 - tail) + _EPS, CF_COMPLEMENT, evals


# ---------------------------------------------------------------------------
# Meijer G
# ---------------------------------------------------------------------------

CONTOUR_QUADRATURE = "contour_quadrature"


@dataclass(frozen=True)
class MeijerGSpec:
    """Parameter block of G^{m,n}_{p,q}(z) on the positive real axis.

    ``a_front`` holds the first n upper parameters, ``a_rest`` the
    remaining p - n; ``b_front``/``b_rest`` likewise for the lower row.
    In the Mellin-Barnes integrand the ``b_front`` entries contribute
    Gamma(b - s) (poles running right from b) and the ``a_front`` entries
    Gamma(1 - a + s) (poles running left from a - 1).  A spec where some
    a_front minus some b_front is a positive integer has colliding pole
    families and is rejected: no vertical contour can separate them.
    """

    a_front: tuple[float, ...]
    a_rest: tuple[float, ...]
    b_front: tuple[float, ...]
    b_rest: tuple[float, ...]
    argument: float

    def __init__(self, a_front, a_rest, b_front, b_rest, argument):
        object.__setattr__(self, "a_front", tuple(float(a) for a in a_front))
        object.__setattr__(self, "a_rest", tuple(float(a) for a in a_rest))
        object.__setattr__(self, "b_front", tuple(float(b) for b in b_front))
        object.__setattr__(self, "b_rest", tuple(float(b) for b in b_rest))
        object.__setattr__(self, "argument", float(argument))
        if not np.isfinite(self.argument) or self.argument <= 0.0:
            raise DomainError(f"Meijer G argument must be positive, got {argument}")
        for a in self.a_front:
            for b in self.b_front:
                d = a - b
                if d >= 0.5 and abs(d - round(d)) < 1e-9:
                    raise DomainError(
                        "pole collision: a_front value {} exceeds b_front value {} "
                        "by the positive integer {}".format(a, b, int(round(d)))
                    )

    @property
    def m(self) -> int:
        return len(self.b_front)

    @property
    def n(self) -> int:
        return len(self.a_front)

    @property
    def p(self) -> int:
        return len(self.a_front) + len(self.a_rest)

    @property
    def q(self) -> int:
        return len(self.b_front) + len(self.b_rest)


@dataclass
class EvalReport:
    """One Meijer G evaluation: value, error bound and the method used.

    ``value`` may overflow to inf or underflow to 0.0 for extreme
    parameter magnitudes; ``log_abs_value`` and ``sign`` always carry the
    full result.  ``abs_error_estimate`` is finite: |value| times the
    relative error when ``value`` is representable, the bare relative
    error otherwise.  ``details['rel_error']`` always holds the relative
    bound.
    """

    value: float
    abs_error_estimate: float
    method: str
    log_abs_value: float = -math.inf
    sign: float = 0.0
    details: dict = field(default_factory=dict)


def _report(log_abs: float, sign: float, rel_err: float, method: str, **details) -> EvalReport:
    with np.errstate(over="ignore"):
        value = float(sign * np.exp(log_abs))
    abs_err = float(abs(value) * rel_err)
    if not np.isfinite(abs_err):
        abs_err = float(rel_err)
    details["rel_error"] = float(rel_err)
    return EvalReport(
        value=value,
        abs_error_estimate=abs_err,
        method=method,
        log_abs_value=float(log_abs),
        sign=float(sign),
        details=dict(details),
    )


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
    for offsets, weight in ((nums, 1), (dens, -1)):
        for o in offsets:
            gammas[o] = gammas.get(o, 0) + weight
    pairs = sorted(
        (abs(p - q), p, q)
        for p in gammas for q in gammas
        if gammas[p] > 0 > gammas[q] and p - q == round(p - q) and abs(p - q) <= _MAX_FOLD
    )
    logs: dict[float, int] = {}
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


def _log_abs(x):
    return np.log(np.abs(x))


class _MellinBarnesIntegrand:
    """log of the Mellin-Barnes integrand, from a term plan built once.

    The integrand's gamma factors are Gamma(1 - a + u) and 1/Gamma(1 - b + u)
    in the direction +u (a_front, b_rest), Gamma(b - u) and 1/Gamma(a - u)
    in the direction -u (b_front, a_rest).  Each direction is reduced by
    _merge_direction, so each distinct log-gamma is evaluated once per
    node, times its weight.  Folding changes the log only by multiples of
    2 pi i, which exp removes.
    """

    def __init__(self, spec: MeijerGSpec):
        self.spec = spec
        self.log_z = math.log(spec.argument)
        self.evals = 0
        # (direction, offset, weight) terms; direction 0 is +u, 1 is -u
        self.gammas, self.logs = [], []
        for d, (nums, dens) in enumerate((
            ([1.0 - a for a in spec.a_front], [1.0 - b for b in spec.b_rest]),
            (spec.b_front, spec.a_rest),
        )):
            gammas, logs = _merge_direction(nums, dens)
            self.gammas += [(d, o, w) for o, w in gammas.items()]
            self.logs += [(d, o, w) for o, w in logs.items()]

    def _terms(self, u, log_gamma, log):
        x = (u, -u)
        yield u * self.log_z
        for d, o, w in self.gammas:
            yield w * log_gamma(o + x[d])
        for d, o, w in self.logs:
            yield w * log(o + x[d])

    def __call__(self, u):
        """Complex log integrand at the points u."""
        u = np.asarray(u, dtype=complex)
        self.evals += u.size
        return sum(self._terms(u, _loggamma, np.log))

    def real_axis(self, x):
        """Re log integrand at real points x, in real arithmetic."""
        x = np.asarray(x, dtype=float)
        self.evals += x.size
        return sum(self._terms(x, _gammaln, _log_abs))

    def log_scale(self, c: float) -> float:
        """Summed magnitudes of the evaluated log terms at u = c: their
        rounding bound."""
        return float(sum(abs(t) for t in self._terms(c, _gammaln, _log_abs)))

    def on_line(self, c: float, t: np.ndarray, w0: float) -> np.ndarray:
        """Re exp(logchi(c + i t) - w0), vectorized over t in blocks.

        Raises before evaluating when the nodes would take the total
        past MAX_CONTOUR_EVALS.
        """
        if self.evals + t.size > MAX_CONTOUR_EVALS:
            raise NumericError(
                f"contour quadrature needs {t.size} more nodes after "
                f"{self.evals} integrand evaluations, over the budget of "
                f"{MAX_CONTOUR_EVALS}"
            )
        out = np.empty(t.size)
        for k in range(0, t.size, _CONTOUR_BLOCK):
            part = t[k:k + _CONTOUR_BLOCK]
            out[k:k + _CONTOUR_BLOCK] = np.exp(self(c + 1j * part) - w0).real
        return out


def _contour_position(spec: MeijerGSpec, chi: _MellinBarnesIntegrand):
    """Pick the vertical line Re(u) = c inside the pole-separating gap.

    The gap is (max(a_front) - 1, min(b_front)).  Within it the contour
    is placed at the minimum of the integrand magnitude on the real
    axis (the saddle), found by two 65-point grid passes in real
    arithmetic, where the integrand is real; a mid-gap line can be
    catastrophically cancelled when the result is many orders below the
    integrand scale.  Returns c, log|chi(c)| and the distance from c to
    the nearest pole.
    """
    left = max((a - 1.0 for a in spec.a_front), default=-math.inf)
    right = min(spec.b_front, default=math.inf)
    if not left < right:
        raise DomainError(
            f"no separating contour: left poles reach {left}, "
            f"right poles start at {right}"
        )
    if math.isinf(left) and math.isinf(right):
        lo, hi = -20.0, 20.0
    elif math.isinf(left):
        lo, hi = right - 40.0, right - 1e-6
    elif math.isinf(right):
        lo, hi = left + 1e-6, left + 40.0
    else:
        pad = 1e-6 * max(1.0, right - left)
        lo, hi = left + pad, right - pad
    for _ in range(2):
        grid = np.linspace(lo, hi, 65)
        w = chi.real_axis(grid)
        # a denominator pole on the grid is a zero of chi, not a saddle
        k = int(np.argmin(np.where(np.isfinite(w), w, np.inf)))
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, 64)]
    c, w0 = float(grid[k]), float(w[k])
    return c, w0, min(c - left, right - c)


def _decay_rate(spec: MeijerGSpec) -> float:
    """Exponential decay exponent of |integrand| in |Im u|, per Stirling."""
    return 0.5 * math.pi * (2.0 * (spec.m + spec.n) - spec.p - spec.q)


def _truncation(chi: _MellinBarnesIntegrand, c: float, w0: float,
                probes: np.ndarray, w: np.ndarray):
    """(t_max, log|chi(c + i t_max)| - w0) for the cut of the line.

    w holds the log values at the power-of-two probes.  The cut is the
    first probe past the last one above 1e-18 of the saddle; three
    quarter-octave probes refine the octave where that crossing lies.
    """
    floor = math.log(1e-18)
    above = np.nonzero(w > floor)[0]
    if not above.size:
        return probes[0], float(w[0])
    k = int(above[-1])
    if k == probes.size - 1:
        raise NumericError(
            f"contour truncation bound not reached by t = {probes[-1]:.0f} for {chi.spec}"
        )
    t = np.append(probes[k] * 2.0 ** (np.arange(1, 4) / 4.0), probes[k + 1])
    wt = np.append(chi(c + 1j * t[:3]).real - w0, w[k + 1])
    above = np.nonzero(wt > floor)[0]
    j = int(above[-1]) + 1 if above.size else 0
    return t[j], float(wt[j])


def _contour_quadrature(spec: MeijerGSpec) -> EvalReport:
    """Integrate the Mellin-Barnes integrand along Re(u) = c.

    Trapezoidal rule over t >= 0 (the integrand is conjugate-symmetric),
    which converges geometrically in 1/h for an integrand analytic in
    the strip |Re u - c| < d.  The step starts at 2 pi d / (growth + 40),
    growth being how far log|chi| rises at c +- d above the saddle, and
    is halved until the rule agrees with the one on its even nodes to
    1e-12 relative, or to within the nodes' rounding.  The line is cut
    at the first probe past the last one where |chi| is above 1e-18 of
    the saddle value: powers of two, refined to quarter octaves in the
    octave where |chi| crosses that level.
    """
    delta = _decay_rate(spec)
    if delta <= 0.0:
        raise DomainError(
            "contour integrand lacks exponential decay "
            f"(2(m+n) <= p+q for {spec})"
        )
    chi = _MellinBarnesIntegrand(spec)
    c, w0, pole_gap = _contour_position(spec, chi)

    d = min(1.0, 0.5 * pole_gap)
    probes = 2.0 ** np.arange(-2, 17)
    w = chi(np.concatenate(([c - d, c + d], c + 1j * probes))).real - w0
    growth = max(float(np.max(w[:2])), 0.0)
    h = 2.0 * math.pi * d / (growth + 40.0)
    t_max, w_tail = _truncation(chi, c, w0, probes, w[2:])
    tail = math.exp(w_tail) / delta

    # each node's log terms round to a few ulps of their own size, and
    # exp carries that into the node value as a relative error
    node_rounding = 4.0 * _EPS * chi.log_scale(c)
    n = 2 * math.ceil(0.5 * t_max / h)
    f = chi.on_line(c, h * np.arange(n + 1), w0)
    while True:
        total = h * (0.5 * f[0] + f[1:].sum())
        coarse = 2.0 * h * (0.5 * f[0] + f[2::2].sum())
        err = abs(total - coarse)
        rounding = node_rounding * h * float(np.abs(f).sum())
        # a smaller step cannot resolve a difference below the rounding
        if err <= max(1e-12 * max(abs(total), 1e-3), rounding):
            break
        h *= 0.5
        refined = np.empty(2 * n + 1)
        refined[::2] = f
        refined[1::2] = chi.on_line(c, h * np.arange(1, 2 * n, 2), w0)
        f, n = refined, 2 * n

    details = dict(contour=c, evals=chi.evals, step=h, nodes=n + 1, t_max=float(t_max),
                   log_gammas=len(chi.gammas))
    if total == 0.0:
        return _report(-math.inf, 0.0, 0.0, CONTOUR_QUADRATURE, **details)
    log_abs = w0 + math.log(abs(total)) - math.log(math.pi)
    rel_err = (err + tail + rounding) / abs(total) + 1e-14
    return _report(
        log_abs, math.copysign(1.0, total), rel_err, CONTOUR_QUADRATURE, **details
    )


def meijer_g(spec: MeijerGSpec) -> EvalReport:
    """Evaluate G^{m,n}_{p,q} on the positive real axis by the
    Mellin-Barnes contour, which handles each parameter set with a
    separating gap and an exponentially decaying integrand and raises
    otherwise."""
    return _contour_quadrature(spec)
