"""Double-precision special functions used by the closed-form link metrics.

Gamma-family wrappers, the Gaussian Q-function, the regularized
incomplete beta in log space, and a numerical Meijer G evaluator.
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
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import erfc as _erfc
from scipy.special import digamma as _digamma
from scipy.special import gammaln as _gammaln
from scipy.special import loggamma as _loggamma

from .errors import DomainError, NumericError, positive

_SQRT2 = math.sqrt(2.0)
_EPS = float(np.finfo(float).eps)

# Hard caps; exceeding them raises, never returns silently.
MAX_CF_ITERATIONS = 10_000
MAX_CONTOUR_EVALS = 100_000
# The accuracy target of every log-space route; a bound above it raises.
REL_TOL = 1e-6

# Nodes per vectorized integrand call; bounds the contour's working set.
_CONTOUR_BLOCK = 4096


def digamma(x: float) -> float:
    """Logarithmic derivative of the gamma function for x > 0."""
    return float(_digamma(positive(x, "digamma x")))


def ln_beta(x: float, y: float) -> float:
    """log B(x, y); safe for arguments far beyond gamma overflow."""
    positive(x, "ln_beta x")
    positive(y, "ln_beta y")
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
    at = (a, b, y) if direct else (b, a, y)
    if not 0.0 < h < math.inf:
        raise NumericError(f"incomplete beta continued fraction is {h!r} at {at}")
    terms = (a * log_x, b * log_1mx, -math.log(a), math.log(h),
             float(_gammaln(a + b)), -float(_gammaln(a)), -float(_gammaln(b)))
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
    (2(m + n) <= p + q), or pole families that no vertical contour
    separates by more than _MIN_GAP.  ``decay`` holds Stirling's decay
    exponent in |Im u|, ``plan`` the block's cached _block_plan.
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
        for row, values in rows.items():
            object.__setattr__(self, row, tuple(map(float, values)))
            if not all(map(math.isfinite, getattr(self, row))):
                raise DomainError(f"Meijer G parameters {row} must be finite, "
                                  f"got {getattr(self, row)}")
        object.__setattr__(self, "argument", positive(float(argument), "Meijer G argument"))
        # the pairs whose differences the term plan takes; a_front - b_front
        # also bounds the width of the gap, which the contour needs finite
        for row, other in (("a_front", "b_front"), ("a_front", "b_rest"),
                           ("b_front", "a_rest")):
            for a in getattr(self, row):
                for b in getattr(self, other):
                    if not math.isfinite(a - b):
                        raise DomainError(f"Meijer G parameters {row} value {a} and {other} "
                                          f"value {b} differ by more than double range")
        decay = 0.5 * math.pi * (2.0 * (self.m + self.n) - self.p - self.q)
        if decay <= 0.0:
            raise DomainError(f"contour integrand lacks exponential decay "
                              f"(2(m+n) <= p+q for {self})")
        object.__setattr__(self, "decay", decay)
        object.__setattr__(self, "plan", _block_plan(*(getattr(self, row) for row in rows)))

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
    for offsets, weight in ((nums, 1), (dens, -1)):
        for o in offsets:
            gammas[o] = gammas.get(o, 0) + weight
    pairs = sorted(
        (abs(p - q), p, q)
        for p in gammas for q in gammas
        if gammas[p] > 0 > gammas[q] and abs(p - q) <= _MAX_FOLD and p - q == round(p - q)
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
    with np.errstate(divide="ignore"):  # -inf at a zero, a denominator pole
        return np.log(np.abs(x))


def _weighted(w: int, v: np.ndarray) -> np.ndarray:
    """w v; a weight of 1 leaves v as it is, which is w v but for the
    sign of a zero."""
    return v if w == 1 else w * v


def _log_terms(gammas, logs, u, log_gamma, log) -> list:
    """The weighted log-gamma and log terms of the integrand at the points
    u, in plan order; each term is (direction, offset, weight), direction
    0 being +u and 1 being -u (o - u is o + (-u), exactly)."""
    return ([_weighted(w, log_gamma(o - u if d else o + u)) for d, o, w in gammas]
            + [_weighted(w, log(o - u if d else o + u)) for d, o, w in logs])


_SADDLE_INDEX = np.arange(65.0)


def _saddle_grid(lo, hi) -> np.ndarray:
    """np.linspace(lo, hi, 65), bit for bit, without its set-up; lo and hi
    may be (rows, 1) columns, for one grid per row."""
    grid = _SADDLE_INDEX * ((hi - lo) / 64) + lo
    grid[..., -1:] = hi
    return grid


class _BlockPlan(NamedTuple):
    """What the contour needs of a parameter block, whatever the argument:
    the integrand's term plan; its structure, each term's direction and
    weight in plan order; the pole-separating gap (left, right); and the
    first saddle pass's grid and log terms, read-only (1, 65) rows."""

    gammas: tuple
    logs: tuple
    structure: tuple
    left: float
    right: float
    grid: np.ndarray
    terms: tuple


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
    40 wide beside a lone pole family.
    """
    gammas, logs = [], []
    for d, (nums, dens) in enumerate((
        ([1.0 - a for a in a_front], [1.0 - b for b in b_rest]),
        (b_front, a_rest),
    )):
        merged_gammas, merged_logs = _merge_direction(nums, dens)
        gammas += [(d, o, w) for o, w in merged_gammas.items()]
        logs += [(d, o, w) for o, w in merged_logs.items()]
    left = max((a - 1.0 for a in a_front), default=-math.inf)
    right = min(b_front, default=math.inf)
    if not right - left > _MIN_GAP:
        raise DomainError(f"no separating contour: left poles reach {left}, "
                          f"right poles start at {right}")
    # MeijerGSpec has rejected m = n = 0 (no decay), so one edge is finite
    if math.isinf(left):
        lo, hi = right - 40.0, right - 1e-6
    elif math.isinf(right):
        lo, hi = left + 1e-6, left + 40.0
    else:
        pad = min(1e-6 * max(1.0, right - left), 0.25 * (right - left))
        lo, hi = left + pad, right - pad
    grid = _saddle_grid(lo, hi)[None]
    terms = _log_terms(gammas, logs, grid, _gammaln, _log_abs)
    for a in (grid, *terms):
        a.flags.writeable = False
    structure = tuple(tuple((d, w) for d, _, w in plan) for plan in (gammas, logs))
    return _BlockPlan(tuple(gammas), tuple(logs), structure, left, right, grid, tuple(terms))


def _column(values: list):
    """One value per row as a (rows, 1) column, or a lone row's value
    itself, which broadcasts over (1, n) rows alike."""
    return values[0] if len(values) == 1 else np.array(values)[:, None]


def _columns(plans: list) -> tuple:
    """(gammas, logs) of plans that share one structure, each offset the
    _column of the rows' offsets.  The offsets are float64: the complex
    integrand promotes them exactly."""
    if len(plans) == 1:
        return plans[0].gammas, plans[0].logs
    return tuple([(term[0][0], _column([o for _, o, _ in term]), term[0][2])
                  for term in zip(*lists)]
                 for lists in ([p.gammas for p in plans], [p.logs for p in plans]))


class _MellinBarnesIntegrand:
    """log of the Mellin-Barnes integrands of specs that share one term
    structure, one spec per row, from their blocks' cached plans (see
    _block_plan).  ln z and each term's offset are _column's, so the
    integrand at (rows, nodes) points is one array expression whose
    every element is computed as a lone spec's would be."""

    def __init__(self, specs: list):
        self.specs = specs
        self.log_z = _column([math.log(s.argument) for s in specs])
        self.offsets = _columns([s.plan for s in specs])

    def take(self, rows: list) -> "_MellinBarnesIntegrand":
        """The integrand of the given rows, in increasing order, alone."""
        if len(rows) == len(self.specs):
            return self
        return _MellinBarnesIntegrand([self.specs[r] for r in rows])

    def __call__(self, u):
        """Complex log integrand at the points u."""
        return sum(_log_terms(*self.offsets, u, _loggamma, np.log), u * self.log_z)

    def real_terms(self, x) -> list:
        """The log terms at real points x, in real arithmetic."""
        return _log_terms(*self.offsets, x, _gammaln, _log_abs)

    def real_axis(self, x: np.ndarray, terms) -> np.ndarray:
        """Re log integrand at real points x, from their log terms."""
        return sum(terms, x * self.log_z)


def _contour_position(chi: _MellinBarnesIntegrand) -> list:
    """Pick each row's vertical line Re(u) = c inside its pole-separating gap.

    The contour is placed at the minimum of the integrand magnitude on
    the real axis (the saddle), found by two 65-point grid passes in
    real arithmetic, where the integrand is real; a mid-gap line can be
    catastrophically cancelled when the result is many orders below the
    integrand scale.  The first pass spans the gap; its log terms come
    from the block's plan, so it adds only the z^u term.  The second
    pass spans the first one's two steps about its minimum, and is
    evaluated in full.  Returns, per row, c, log|chi(c)|, the distance
    from c to the nearest pole, and the summed magnitudes of the log
    terms at c, their rounding bound.
    """
    rows = [(s.plan.grid, *s.plan.terms) for s in chi.specs]
    grid, *terms = rows[0] if len(rows) == 1 else map(np.concatenate, zip(*rows))
    for second in (False, True):
        if second:
            lo = _column([grid[r, max(i - 1, 0)] for r, i in enumerate(k)])
            hi = _column([grid[r, min(i + 1, 64)] for r, i in enumerate(k)])
            grid = _saddle_grid(lo, hi).reshape(len(k), -1)
            terms = chi.real_terms(grid)
        w = chi.real_axis(grid, terms)
        # a denominator pole on the grid is a zero of chi, not a saddle
        k = np.argmin(np.where(np.isfinite(w), w, np.inf), axis=1).tolist()
    lines = []
    for r, (i, spec) in enumerate(zip(k, chi.specs)):
        c, log_z = float(grid[r, i]), math.log(spec.argument)
        log_scale = float(sum([abs(c * log_z)] + [abs(t[r, i]) for t in terms]))
        lines.append((c, float(w[r, i]), min(c - spec.plan.left, spec.plan.right - c),
                      log_scale))
    return lines


_PROBES = 2.0 ** np.arange(-2, 17)
_PROBE_LINE = 1j * _PROBES[None]


def _halving_rules(f, h: float, spans, rel_tol: float, floor: float, node_roundings,
                   what: str, spent: int, budget: int) -> list:
    """Per row, h (f(0)/2 + f(h) + ... + f(n h)) over [0, span], the step
    halved until it holds: (total, error, rounding, step, n), n the least
    even count with n h >= span, or the NumericError of a row whose next
    nodes would take its evaluations, spent before it included, past the
    budget, or whose sum is not finite: every later pass keeps its nodes.

    The error is the difference from the rule on the even nodes, and the
    step is halved, each pass adding only the new odd nodes, until it is
    at most rel_tol * max(|total|, floor) or the rounding, the row's
    node_rounding relative in each node: a smaller step cannot resolve a
    difference below that.  Each pass is one call f(x, rows) on the rows
    still halving, one row of x each, zero-padded past a row's own
    nodes.  The padding is the node x = 0, which every row evaluates
    first, so it neither overflows nor warns; its values are dropped,
    and each row sums over its own nodes alone.
    """
    n = [2 * math.ceil(span / (2.0 * h)) for span in spans]
    x = [h * np.arange(k + 1) for k in n]
    steps, used, values, out = ([v] * len(n) for v in (h, spent, None, None))
    live = list(range(len(n)))
    while True:
        for r in live:
            if used[r] + x[r].size > budget:
                out[r] = NumericError(f"{what} needs {x[r].size} more nodes after {used[r]} "
                                      f"integrand evaluations, over the budget of {budget}")
            used[r] += x[r].size
        live = [r for r in live if out[r] is None]
        if not live:
            return out
        if len(live) == 1:
            nodes = x[live[0]][None]
        else:
            nodes = np.zeros((len(live), max(x[r].size for r in live)))
            for i, r in enumerate(live):
                nodes[i, :x[r].size] = x[r]
        fx = f(nodes, live)
        for i, r in enumerate(live):
            v, h = fx[i, :x[r].size], steps[r]
            if values[r] is not None:
                refined = np.empty(2 * n[r] + 1)
                refined[::2] = values[r]
                refined[1::2] = v
                v, n[r] = refined, 2 * n[r]
            values[r] = v
            total = h * (0.5 * v[0] + v[1:].sum())
            if not math.isfinite(total):
                out[r] = NumericError(f"{what} rule sum is {float(total)!r} after {used[r]} "
                                      "integrand evaluations")
                continue
            coarse = 2.0 * h * (0.5 * v[0] + v[2::2].sum())
            err = abs(total - coarse)
            rounding = node_roundings[r] * h * float(np.abs(v).sum())
            if err <= max(rel_tol * max(abs(total), floor), rounding):
                out[r] = (total, err, rounding, h, n[r])
            else:
                steps[r] = 0.5 * h
                x[r] = steps[r] * np.arange(1, 2 * n[r], 2)
        live = [r for r in live if out[r] is None]


def _halving_trapezoid(f, h: float, span: float, rel_tol: float, floor: float,
                       node_rounding: float, what: str, spent: int, budget: int):
    """_halving_rules of one row, f mapping an array of nodes to the
    integrand there; returns (total, error, rounding, step, n)."""
    (out,) = _halving_rules(lambda x, rows: f(x[0])[None], h, [span], rel_tol, floor,
                            [node_rounding], what, spent, budget)
    if isinstance(out, Exception):
        raise out
    return out


def _contour(specs: list) -> list:
    """meijer_g of the specs, whose plans share one term structure, or the
    NumericError a spec's own call raises: one integrand call per saddle
    pass, one for the probes and one per pass of the rules.

    The probes are the powers of two from 1/4 to 2^16 along each row's
    line; its cut is the probe after the last one above 1e-18 of the
    saddle value, and a row whose integrand never falls that far raises.
    Each pass evaluates the line in blocks of about _CONTOUR_BLOCK nodes.
    """
    chi = _MellinBarnesIntegrand(specs)
    lines = _contour_position(chi)
    # the _column's of each row's c, w0 and distance to the nearest pole
    c, w0, scale, _ = map(_column, zip(*lines))
    out = []
    for spec, w in zip(specs, chi(c + _PROBE_LINE).real - w0):
        above = np.nonzero(w > math.log(1e-18))[0]
        k = int(above[-1]) + 1 if above.size else 0
        out.append(NumericError(
            f"contour truncation bound not reached by t = {_PROBES[-1]:.0f} for {spec}"
        ) if k == _PROBES.size else (float(_PROBES[k]), float(w[k])))
    live = [r for r, cut in enumerate(out) if not isinstance(cut, Exception)]

    def mapped(x, rows):
        """The rows' integrand in x, dt/dx = a cosh(x) included."""
        rows = [live[i] for i in rows]
        c_rows, w0_rows, a = ((c, w0, scale) if len(rows) == len(specs)
                              else (v[rows] for v in (c, w0, scale)))
        part, t = chi.take(rows), a * np.sinh(x)
        width = max(1, _CONTOUR_BLOCK // t.shape[0])
        blocks = [np.exp(part(c_rows + 1j * t[:, k:k + width]) - w0_rows).real
                  for k in range(0, t.shape[1], width)]
        return a * np.cosh(x) * (blocks[0] if len(blocks) == 1
                                 else np.concatenate(blocks, axis=1))

    # both saddle passes and the probes come before the rule's nodes
    spent = 2 * _SADDLE_INDEX.size + _PROBES.size
    rules = _halving_rules(
        mapped, 0.05, [math.asinh(out[r][0] / lines[r][2]) for r in live], 1e-12, 1e-3,
        # each node's log terms round to a few ulps of their own size, and
        # exp carries that into the node value
        [4.0 * _EPS * lines[r][3] for r in live], "contour quadrature", spent,
        MAX_CONTOUR_EVALS)
    for r, rule in zip(live, rules):
        if isinstance(rule, Exception):
            out[r] = rule
            continue
        (c_r, w0_r, scale_r, _), (t_max, w_tail) = lines[r], out[r]
        total, err, rounding, h, n = rule
        details = dict(contour=c_r, evals=spent + n + 1, step=h, nodes=n + 1, t_max=t_max,
                       scale=scale_r, log_gammas=len(specs[r].plan.gammas), rel_error=0.0)
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
    each saddle pass, the probes and each pass of the step-halving rules
    is one integrand call on (rows, nodes) arrays, a row's parameters
    being (rows, 1) columns.  Every element is computed by the operations
    of a lone call, in its order, each row's argmin and sums run over
    that row's own nodes, and the zero padding past a row's nodes is
    dropped; so each report equals meijer_g(spec) bit for bit, and a
    failing row changes no other row's report.
    """
    out, groups = [None] * len(specs), {}
    for i, spec in enumerate(specs):
        groups.setdefault(spec.plan.structure, []).append(i)
    # a node past double range makes its row's rule sum non-finite, and
    # that row fails on it
    with np.errstate(over="ignore", invalid="ignore"):
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
    call.  ``details['evals']`` counts every node used, the shared first
    pass included, so it does not depend on what the cache holds.
    """
    (report,) = meijer_g_batch([spec])
    if isinstance(report, Exception):
        raise report
    return report
