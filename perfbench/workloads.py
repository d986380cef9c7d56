"""The four benchmark workloads and their correctness checks.

Each workload is built from the checkout root, a scratch directory and
the workload seed.  One repetition of the timed section is the list of
calls ``segments()`` returns, each taking a few seconds at most; a
segment returns ``(output, point_times)``, where point_times maps a
point id to its duration in seconds.  ``run()`` makes one whole
repetition and returns ``(outputs, point_times)``, outputs being the
segments' outputs in order.  Untimed, ``load(outputs)`` reads the
outputs into plain values, which must repeat exactly between
repetitions, and ``check(loaded)`` returns a Verdict.  A ``tracer``
attribute, when set, receives the id of the point being computed.

``failed`` counts operations whose output failed a check: it raised,
disagreed with another route, left a statistical band, or differs from a
stored reference.  ``correct`` is false only when a deterministic check
fails: a sweep row differs from its stored reference, a report or CSV is
malformed, or an exit code is outside the documented set.  Statistical
bands depend on the seed and cross-route disagreements on scatter points
are standing defects (ROADMAP item 1), so those only raise ``failed``.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import functools
import io
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.stats import norm, qmc

HERE = Path(__file__).resolve().parent
REF_DIR = HERE / "ref"
FIGURE_CONFIGS = ("capacity_vs_power", "ber_vs_power", "outage_vs_power")
MC_PHYSICAL_CONFIG = HERE / "configs" / "mc_physical.ini"

# scatter-points: ROADMAP item 1's probe domain, sampled log-uniformly,
# computed in segments of SCATTER_SEGMENT points
SCATTER_POINTS = 256
SCATTER_SEGMENT = 32
SCATTER_REL_TOL = 1e-6
# oracle-grid: MC draws per metric column and grid point; see README.md
ORACLE_SAMPLES = 100_000
# mc-physical: the reference runs the config with MC_REF_SAMPLES draws per
# row.  A row may sit within z combined standard errors of it, with z set
# so the whole table keeps one 3.5 sigma row's false-alarm rate
# (Bonferroni); a changed random stream then passes and a biased one fails
MC_REF_SAMPLES = 1_000_000
MC_REF_SEED = 20191212
ALPHA_3P5 = 4.6525e-4


class _Workload:
    tracer = None

    def segments(self) -> list:
        raise NotImplementedError

    def run(self):
        outputs, times = [], {}
        for segment in self.segments():
            output, t = segment()
            outputs.append(output)
            times.update(t)
        return outputs, times


@dataclass
class Verdict:
    attempted: int
    failed: int = 0
    correct: bool = True
    notes: list[str] = field(default_factory=list)


class _PointClock(io.TextIOBase):
    """Stderr sink that timestamps the sweep's "sweep point i/n done" lines.

    Under tracing it also stamps the tracer with the id of the point
    being computed.
    """

    def __init__(self, tracer, tag: str):
        self.marks: list[float] = []
        self.tracer, self.tag = tracer, tag
        self._stamp()

    def _stamp(self) -> None:
        if self.tracer is not None:
            self.tracer.point = f"{self.tag}:{len(self.marks)}"

    def write(self, s: str) -> int:
        if s.startswith("sweep point"):
            self.marks.append(time.perf_counter())
            self._stamp()
        return len(s)


def _run_cli_sweep(config: Path, out: Path, extra: list[str], tracer, tag: str):
    """One ``rislink sweep`` through cli.main; returns exit code and point times."""
    from rislink import cli

    clock = _PointClock(tracer, tag)
    t0 = time.perf_counter()
    with contextlib.redirect_stderr(clock):
        code = cli.main(["sweep", str(config), "--out", str(out),
                         "--threads", "1", *extra])
    edges = [t0] + clock.marks
    times = {f"{tag}:{i}": edges[i + 1] - edges[i] for i in range(len(clock.marks))}
    return code, times


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _row_key(row: dict, skip: tuple[str, ...]) -> tuple:
    return tuple(v for k, v in row.items() if k not in skip)


class FigureSweeps(_Workload):
    """The shipped configs/*.ini sweeps, exact + asymptotic, no MC; a segment per sweep."""

    def __init__(self, root: Path, work: Path, seed: int, names=FIGURE_CONFIGS,
                 ref_dir: Path = REF_DIR):
        self.configs = [root / "configs" / f"{n}.ini" for n in names]
        self.work = work
        self.ref_dir = ref_dir

    def segments(self):
        return [functools.partial(self._sweep, cfg) for cfg in self.configs]

    def _sweep(self, cfg: Path):
        out = self.work / f"{cfg.stem}.csv"
        code, times = _run_cli_sweep(cfg, out, [], self.tracer, cfg.stem)
        return (cfg.stem, code, out), times

    def load(self, outputs):
        return [(name, code, _read_csv(out) if code == 0 else [])
                for name, code, out in outputs]

    def check(self, loaded) -> Verdict:
        v = Verdict(attempted=0)
        for name, code, rows in loaded:
            ref = _read_csv(self.ref_dir / f"{name}.csv")
            v.attempted += len(ref)
            if code != 0 or len(rows) != len(ref):
                v.failed += len(ref)
                v.correct = False
                v.notes.append(f"{name}: exit {code}, {len(rows)}/{len(ref)} rows")
                continue
            bad = 0
            for row, want in zip(rows, ref):
                skip = ("value", "error_estimate")
                if _row_key(row, skip) != _row_key(want, skip):
                    bad += 1
                    continue
                got, exp = float(row["value"]), float(want["value"])
                if row["variant"] == "asymptotic":
                    tol = 1e-12 * abs(exp)
                else:
                    tol = max(float(row["error_estimate"]), 1e-6 * abs(exp))
                bad += not abs(got - exp) <= tol
            if bad:
                v.failed += bad
                v.correct = False
                v.notes.append(f"{name}: {bad} rows differ from the reference")
        return v


def scatter_inputs(seed: int, n_points: int) -> list[tuple]:
    """(N, m, m_s, eta_db, lambda, gamma_th_db), log-uniform over the probe domain.

    Scrambled Sobol points, the seed setting the scrambling: for a power
    of two n_points they fill the 6-d domain evenly, jointly and not only
    axis by axis, so the mix of cheap and costly points, and with it the
    total work, varies little from seed to seed, while every point moves
    with the seed.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5CA7)))
    sobol = qmc.Sobol(d=6, scramble=True, rng=rng)
    u = sobol.random(n_points).T

    def axis(k: int, lo: float, hi: float) -> np.ndarray:
        return lo + (hi - lo) * u[k]

    n = np.rint(np.exp(axis(0, 0.0, math.log(1024.0)))).astype(int)
    m = np.exp(axis(1, math.log(0.5), math.log(10.0)))
    m_s = np.exp(axis(2, math.log(1.1), math.log(50.0)))
    eta_db = axis(3, -20.0, 60.0)
    lam = np.where(u[4] < 0.5, 0.5, 1.0)
    gth_db = axis(5, 0.0, 10.0)
    return [(int(a), float(b), float(c), float(d), float(e), float(f))
            for a, b, c, d, e, f in zip(n, m, m_s, eta_db, lam, gth_db)]


def _log_value(fn, *args):
    """The route's natural-log value, or the name of the exception it raised."""
    try:
        return fn(*args).diagnostics.get("log_value", 0.0)
    except Exception as exc:  # a failing route is counted, never fatal
        return type(exc).__name__


def _rel_gap(log_a: float, log_b: float) -> float:
    """|a/b - 1| from natural logs; inf past a factor e or for a NaN."""
    if log_a == log_b:
        return 0.0
    d = log_a - log_b
    return abs(math.expm1(d)) if abs(d) < 1.0 else math.inf


class ScatterPoints(_Workload):
    """Isolated points: exact, asymptotic and quadrature for all three metrics."""

    def __init__(self, root: Path, work: Path, seed: int, n_points: int = SCATTER_POINTS):
        self.points = scatter_inputs(seed, n_points)

    def segments(self):
        return [functools.partial(self._points, i, i + SCATTER_SEGMENT)
                for i in range(0, len(self.points), SCATTER_SEGMENT)]

    def _points(self, start: int, stop: int):
        from rislink import fading, metrics, validation

        outputs, times = [], {}
        for i, (n, m, m_s, eta_db, lam, gth_db) in enumerate(self.points[start:stop], start):
            if self.tracer is not None:
                self.tracer.point = i
            t0 = time.perf_counter()
            cfg = metrics.LinkConfig.from_eta(
                10.0 ** (eta_db / 10.0), fading.FadingParams(m, m_s), n, lambda_mod=lam)
            gth = 10.0 ** (gth_db / 10.0)
            # per metric: exact, quadrature, asymptotic
            row = (
                _log_value(metrics.avg_capacity, cfg),
                _log_value(validation.quad_capacity, cfg),
                _log_value(metrics.avg_capacity_asymptotic, cfg),
                _log_value(metrics.avg_ber, cfg),
                _log_value(validation.quad_ber, cfg),
                _log_value(metrics.avg_ber_asymptotic, cfg),
                _log_value(metrics.outage, cfg, gth),
                _log_value(validation.quad_outage, cfg, gth),
                _log_value(metrics.outage_asymptotic, cfg, gth),
            )
            times[i] = time.perf_counter() - t0
            outputs.append(row)
        return outputs, times

    def load(self, outputs):
        return [row for segment in outputs for row in segment]

    def check(self, rows) -> Verdict:
        v = Verdict(attempted=3 * len(rows))
        kinds = Counter()
        for row in rows:
            for k, metric in enumerate(("capacity", "ber", "outage")):
                routes = dict(zip(("exact", "quadrature", "asymptotic"), row[3 * k:3 * k + 3]))
                raised = [f"{r}_raised_{val}" for r, val in routes.items() if isinstance(val, str)]
                if raised:
                    kinds[f"{metric}.{raised[0]}"] += 1
                elif not _rel_gap(routes["exact"], routes["quadrature"]) <= SCATTER_REL_TOL:
                    kinds[f"{metric}.disagreed"] += 1
        v.failed = sum(kinds.values())
        v.notes.append("scatter failures: " + (
            ", ".join(f"{k}={kinds[k]}" for k in sorted(kinds)) or "none"))
        return v


class OracleGrid(_Workload):
    """``rislink validate --preset full`` with one worker: the acceptance gate, one segment."""

    def __init__(self, root: Path, work: Path, seed: int, preset: str = "full",
                 n_samples: int = ORACLE_SAMPLES):
        self.seed, self.preset, self.n_samples = seed, preset, n_samples
        self.out = work / "validate_report.csv"

    def segments(self):
        return [self._validate]

    def _validate(self):
        from rislink import cli

        t0 = time.perf_counter()
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.run_validate(self.preset, self.seed, str(self.out),
                                    threads=1, n_samples=self.n_samples)
        return code, {"validate": time.perf_counter() - t0}

    def load(self, outputs):
        (code,) = outputs
        return code, _read_csv(self.out)

    def check(self, loaded) -> Verdict:
        code, rows = loaded
        v = Verdict(attempted=len(rows))
        bad = [r for r in rows if r["ok"] != "True"]
        v.failed = len(bad)
        if code not in (0, 4) or (code == 0) != (not bad) or not rows:
            v.correct = False
            v.notes.append(f"validate exit {code} with {len(bad)}/{len(rows)} failing rows")
        v.notes += [f"oracle-grid failing row: {r['kind']} {r['index']} {r['metric']} "
                    f"({r['note']})" for r in bad]
        return v


class McPhysical(_Workload):
    """An n_cells sweep of physical-mode Monte Carlo, all three metrics, one segment."""

    def __init__(self, root: Path, work: Path, seed: int,
                 config: Path = MC_PHYSICAL_CONFIG, ref: Path = REF_DIR / "mc_physical.csv",
                 ref_samples: int = MC_REF_SAMPLES):
        self.config, self.ref, self.seed = config, ref, seed
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        parser.read(config)
        # a run's standard error, expected from the reference's spread
        self.se_scale = math.sqrt(ref_samples / parser.getint("mc", "samples"))
        self.out = work / "mc_physical.csv"

    def segments(self):
        return [self._sweep]

    def _sweep(self):
        return _run_cli_sweep(self.config, self.out, ["--seed", str(self.seed)],
                              self.tracer, "mc")

    def load(self, outputs):
        (code,) = outputs
        return code, _read_csv(self.out) if code == 0 else []

    def check(self, loaded) -> Verdict:
        code, rows = loaded
        ref = _read_csv(self.ref)
        v = Verdict(attempted=len(ref))
        if code != 0 or len(rows) != len(ref):
            v.failed, v.correct = len(ref), False
            v.notes.append(f"mc-physical: exit {code}, {len(rows)}/{len(ref)} rows")
            return v
        z = norm.isf(ALPHA_3P5 / (2 * len(ref)))
        skip = ("value", "error_estimate", "seed")
        for row, want in zip(rows, ref):
            if _row_key(row, skip) != _row_key(want, skip):
                v.failed += 1
                v.correct = False
                continue
            ref_se = float(want["error_estimate"])
            row_se = max(float(row["error_estimate"]), self.se_scale * ref_se)
            gap = abs(float(row["value"]) - float(want["value"]))
            if not gap <= z * math.hypot(row_se, ref_se):
                v.failed += 1
                v.notes.append(f"mc-physical row N={row['N']} {row['metric']}: "
                               f"{gap:.3e} from the reference, over {z:.2f} standard errors")
        return v


WORKLOADS = {
    "figure-sweeps": FigureSweeps,
    "oracle-grid": OracleGrid,
    "scatter-points": ScatterPoints,
    "mc-physical": McPhysical,
}
