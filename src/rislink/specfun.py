"""Double-precision special functions used by the closed-form link metrics.

Gamma-family wrappers, the Gaussian Q-function, the Gauss hypergeometric
function for non-positive argument, and a numerical Meijer G evaluator.
The Meijer G evaluator has two tiers:

  1. the elementary G^{1,1}_{1,1} reduction to a binomial kernel,
  2. numerical Mellin-Barnes integration along a vertical contour placed
     at the saddle of the integrand magnitude inside the pole-separating
     gap, for every other parameter set.  The integrand is analytic and
     decays exponentially along that line, so a fixed-step trapezoidal
     rule converges geometrically; all nodes are evaluated as arrays.

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
from scipy.special import gammasgn as _gammasgn
from scipy.special import loggamma as _loggamma

from .errors import DomainError, NumericError

_LN2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)
_EPS = float(np.finfo(float).eps)

# Hard caps; exceeding them raises, never returns silently.
MAX_SERIES_TERMS = 10_000
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
# Gauss hypergeometric 2F1 for z <= 0
# ---------------------------------------------------------------------------


def _is_nonpositive_int(x: float, tol: float = 1e-12) -> bool:
    return x <= tol and abs(x - round(x)) <= tol


def _series_2f1(a: float, b: float, c: float, z: float, rtol: float = 1e-14):
    """Direct power series; returns (sum, max_abs_term, n_terms).

    Caller is responsible for convergence (|z| < 1) and for judging the
    cancellation implied by max_abs_term.
    """
    term = 1.0
    total = 1.0
    max_abs = 1.0
    for k in range(MAX_SERIES_TERMS):
        term *= (a + k) * (b + k) * z / ((c + k) * (k + 1.0))
        total += term
        max_abs = max(max_abs, abs(term))
        if abs(term) <= rtol * max(abs(total), 1e-300):
            return total, max_abs, k + 1
    raise NumericError(
        f"2F1 series did not converge within {MAX_SERIES_TERMS} terms "
        f"(a={a}, b={b}, c={c}, z={z})"
    )


def _log_2f1_pfaff(a: float, b: float, c: float, z: float) -> float:
    """log 2F1(a,b;c;z) for z <= 0 via the Pfaff map w = z/(z-1) in [0, 1).

    Requires a > 0, c > 0 and c - b >= 0 so that every term of the mapped
    series is nonnegative; the sum is then accumulated with logaddexp and
    never overflows.
    """
    if z == 0.0:
        return 0.0
    w = z / (z - 1.0)
    bp = c - b
    if bp < 0.0 or a <= 0.0 or c <= 0.0:
        raise DomainError(
            f"log-space Pfaff path needs a > 0, c > 0, c - b >= 0 "
            f"(a={a}, b={b}, c={c})"
        )
    log_term = 0.0
    log_sum = 0.0
    for k in range(MAX_SERIES_TERMS):
        ratio = (a + k) * (bp + k) * w / ((c + k) * (k + 1.0))
        if ratio == 0.0:
            break
        log_term += math.log(ratio)
        log_sum = np.logaddexp(log_sum, log_term)
        if log_term < log_sum - 37.0:  # term below eps * partial sum
            break
    else:
        raise NumericError(
            f"Pfaff series did not converge within {MAX_SERIES_TERMS} terms "
            f"(a={a}, b={b}, c={c}, z={z}, w={w})"
        )
    return float(-a * math.log1p(-z) + log_sum)


def gauss_2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric 2F1(a, b; c; z) for real z <= 0.

    For z in (-1, 0] the direct series is used when its terms stay small
    enough that cancellation cannot eat the accuracy target; otherwise,
    and always for z < -1, the Pfaff transformation

        2F1(a, b; c; z) = (1 - z)^(-a) * 2F1(a, c - b; c; z / (z - 1))

    maps the argument into [0, 1) where the series converges.
    """
    if z > 0.0 or not np.isfinite(z):
        raise DomainError(f"gauss_2f1 supports z <= 0 only, got {z}")
    if _is_nonpositive_int(c):
        raise DomainError(f"2F1 pole: c must not be a non-positive integer, got {c}")
    if z == 0.0:
        return 1.0
    if z > -1.0:
        # First-term ratio bounds the growth of the alternating series; when
        # terms grow, cancellation destroys double precision and the
        # all-positive Pfaff series is used instead.  Slow convergence near
        # z = -1 likewise falls through to the Pfaff map.
        if abs(a * b * z / c) <= 1.0:
            try:
                total, max_abs, _ = _series_2f1(a, b, c, z)
            except NumericError:
                pass
            else:
                if max_abs <= 1e4 * max(abs(total), 1e-300):
                    return total
    return math.exp(_log_2f1_pfaff(a, b, c, z))


# ---------------------------------------------------------------------------
# Meijer G
# ---------------------------------------------------------------------------

CONTOUR_QUADRATURE = "contour_quadrature"
CLOSED_IDENTITY = "closed_identity"


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


def _try_closed_identity(spec: MeijerGSpec) -> EvalReport | None:
    """G^{1,1}_{1,1}(z | a; b) = Gamma(1+b-a) z^b (1+z)^(a-b-1)."""
    if (spec.m, spec.n, spec.p, spec.q) != (1, 1, 1, 1):
        return None
    a, b, z = spec.a_front[0], spec.b_front[0], spec.argument
    s = 1.0 + b - a
    sign = float(_gammasgn(s))
    log_abs = float(_gammaln(s)) + b * math.log(z) - s * math.log1p(z)
    return _report(log_abs, sign, 1e-14, CLOSED_IDENTITY)


class _MellinBarnesIntegrand:
    """log of the Mellin-Barnes integrand on the line u = c + i t."""

    def __init__(self, spec: MeijerGSpec):
        self.spec = spec
        self.log_z = math.log(spec.argument)
        self.evals = 0

    def _terms(self, u):
        yield u * self.log_z
        for b in self.spec.b_front:
            yield _loggamma(b - u)
        for a in self.spec.a_front:
            yield _loggamma(1.0 - a + u)
        for b in self.spec.b_rest:
            yield -_loggamma(1.0 - b + u)
        for a in self.spec.a_rest:
            yield -_loggamma(a - u)

    def __call__(self, u):
        u = np.asarray(u, dtype=complex)
        self.evals += u.size
        return sum(self._terms(u))

    def log_scale(self, c: float) -> float:
        """Summed magnitudes of the log terms at u = c: their rounding bound."""
        return float(sum(abs(t.real) for t in self._terms(complex(c, 0.0))))

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
    axis (the saddle), found by two 65-point grid passes; a mid-gap line
    can be catastrophically cancelled when the result is many orders
    below the integrand scale.  Returns c, log|chi(c)| and the distance
    from c to the nearest pole.
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
        w = chi(grid).real
        k = int(np.nanargmin(w))
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, 64)]
    c, w0 = float(grid[k]), float(w[k])
    return c, w0, min(c - left, right - c)


def _decay_rate(spec: MeijerGSpec) -> float:
    """Exponential decay exponent of |integrand| in |Im u|, per Stirling."""
    return 0.5 * math.pi * (2.0 * (spec.m + spec.n) - spec.p - spec.q)


def _contour_quadrature(spec: MeijerGSpec) -> EvalReport:
    """Integrate the Mellin-Barnes integrand along Re(u) = c.

    Trapezoidal rule over t >= 0 (the integrand is conjugate-symmetric),
    which converges geometrically in 1/h for an integrand analytic in
    the strip |Re u - c| < d.  The step starts at 2 pi d / (growth + 40),
    growth being how far log|chi| rises at c +- d above the saddle, and
    is halved until the rule agrees with the one on its even nodes to
    1e-12 relative, or to within the nodes' rounding.  The line is cut
    at the first power-of-two t past the last one where |chi| is above
    1e-18 of the saddle value.
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
    growth = max(float(np.max(chi(np.array([c - d, c + d])).real)) - w0, 0.0)
    h = 2.0 * math.pi * d / (growth + 40.0)

    probes = 2.0 ** np.arange(-2, 17)
    above = np.nonzero(chi(c + 1j * probes).real - w0 > math.log(1e-18))[0]
    if above.size and above[-1] == probes.size - 1:
        raise NumericError(
            f"contour truncation bound not reached by t = {probes[-1]:.0f} for {spec}"
        )
    t_max = probes[above[-1] + 1] if above.size else probes[0]
    tail = float(np.exp(chi(complex(c, t_max)).real - w0)) / delta

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

    details = dict(contour=c, evals=chi.evals, step=h, nodes=n + 1, t_max=float(t_max))
    if total == 0.0:
        return _report(-math.inf, 0.0, 0.0, CONTOUR_QUADRATURE, **details)
    log_abs = w0 + math.log(abs(total)) - math.log(math.pi)
    rel_err = (err + tail + rounding) / abs(total) + 1e-14
    return _report(
        log_abs, math.copysign(1.0, total), rel_err, CONTOUR_QUADRATURE, **details
    )


def meijer_g(spec: MeijerGSpec) -> EvalReport:
    """Evaluate G^{m,n}_{p,q} on the positive real axis.

    G^{1,1}_{1,1} takes its elementary closed form; every other spec
    goes to the Mellin-Barnes contour, which handles each parameter set
    with a separating gap and an exponentially decaying integrand and
    raises otherwise.
    """
    report = _try_closed_identity(spec)
    if report is not None:
        return report
    return _contour_quadrature(spec)
