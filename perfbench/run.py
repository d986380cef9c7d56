"""rislink benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload figure-sweeps --seed 1 --seconds 20 --trace 0

Run from anywhere; the checkout is the directory above this file and the
program is imported from its ``src``.  The timed section repeats the
workload's unit of work until ``--seconds`` would be exceeded (at least
once).  End-to-end times are medians, in seconds at the reference
machine's speed: each timed segment is scaled by calibration runs right
before and after it (_ReferenceClock); raw times and speed factors are
printed, and README.md gives the reason.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` measures untraced repetitions for half
the time, then one traced repetition, and prints the per-layer metrics.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  Workloads, metrics and predictions are in README.md.
"""

from __future__ import annotations

import os

# one process, one worker: pin native thread pools before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 7
# calibrate() on the reference machine in a calm period (2-core VM,
# Python 3.11.7, numpy 2.4.6, scipy 1.17.1); it only sets the scale
CALIBRATION_REF_S = 0.1


def calibrate() -> float:
    """Seconds taken by a fixed mix of the kinds of work rislink does.

    Complex loggamma on 32-node arrays (the Mellin-Barnes contour), scipy
    quad over a Python integrand (the quadrature oracles) and numpy gamma
    draws (Monte Carlo).  It does not call rislink, so no change to the
    program moves it; only the machine's speed does.
    """
    from scipy.integrate import quad
    from scipy.special import loggamma

    rng = np.random.default_rng(20191212)
    z = np.linspace(0.5, 6.0, 32) + 1j * np.linspace(0.0, 40.0, 32)
    t0 = time.perf_counter()
    for _ in range(16):
        for i in range(200):
            loggamma(z + 0.01 * i)
        quad(lambda x: math.exp(-x) * math.log1p(x), 0.0, 50.0, limit=200)
        rng.gamma(2.0, size=200_000)
    return time.perf_counter() - t0


class _ReferenceClock:
    """Scales each timed segment by calibrations on both sides of it.

    Other tenants of a shared machine slow everything on it by up to 2x,
    switching between slow and calm within seconds and staying slow for
    minutes.  Calibrations right before and right after a segment of a
    few seconds most often see the speed the segment ran at; medians
    over many segments drop the ones where the speed changed in between.
    """

    def __init__(self):
        self.calibrations: list[float] = []
        self.factors: list[float] = []
        self.mark()

    def mark(self) -> None:
        """Calibrate at the start of the next segment."""
        self.calibrations.append(calibrate())

    def scale(self, raw_s: float) -> float:
        """``raw_s`` of the segment since the last calibration, at reference speed."""
        before = self.calibrations[-1]
        self.mark()
        self.factors.append(CALIBRATION_REF_S / ((before + self.calibrations[-1]) / 2))
        return raw_s * self.factors[-1]


def _median_point_times(reps: list[dict]) -> list[float]:
    """Per point, the median over repetitions, ascending.

    One sample per point keeps the sample count fixed whatever the number
    of repetitions.
    """
    by_point: dict = {}
    for times in reps:
        for key, dt in times.items():
            by_point.setdefault(key, []).append(dt)
    return sorted(statistics.median(v) for v in by_point.values())


def _setup_seconds(clock: _ReferenceClock) -> tuple[list[float], list[float]]:
    """Raw and scaled times of SETUP_PROBES fresh set-up probes."""
    probe = [sys.executable, str(HERE / "warmup.py")]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # no timeout: with one, wait() polls in steps of up to 50 ms
        subprocess.run(probe, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - t0)
        scaled.append(clock.scale(raw[-1]))
    return raw, scaled


def _environment() -> dict:
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=30).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def _timed_reps(workload, budget_s: float, clock: _ReferenceClock):
    """Repeat the unit until the next repetition would overrun the budget.

    Each segment is scaled to reference speed by ``clock``.  Returns
    each repetition's raw and scaled wall time, its scaled
    point times, the first repetition's loaded outputs, and whether
    every repetition reproduced them.
    """
    raw_walls, walls, laps, point_reps, first, stable = [], [], [], [], None, True
    start = time.perf_counter()
    while True:
        lap0 = time.perf_counter()
        raw, wall, outputs, times = 0.0, 0.0, [], {}
        for segment in workload.segments():
            t0 = time.perf_counter()
            output, seg_times = segment()
            dt = time.perf_counter() - t0
            raw += dt
            wall += clock.scale(dt)
            times.update({k: v * clock.factors[-1] for k, v in seg_times.items()})
            outputs.append(output)
        raw_walls.append(raw)
        walls.append(wall)
        point_reps.append(times)
        loaded = workload.load(outputs)
        if first is None:
            first = loaded
        elif repr(loaded) != repr(first):
            stable = False
        laps.append(time.perf_counter() - lap0)
        if time.perf_counter() - start + statistics.median(laps) > budget_s:
            return raw_walls, walls, point_reps, first, stable


def _emit(verdict, metrics: list[tuple[str, float, str]], notes: list[str]) -> None:
    for note in notes + verdict.notes:
        print(note)
    for name, value, unit in metrics:
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit in metrics},
    }))


def main(argv=None, registry=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (SRC / "rislink" / "__init__.py").is_file():
        print(f"rislink sources not found under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    import rislink
    import tracing
    import warmup
    from workloads import WORKLOADS

    registry = WORKLOADS if registry is None else registry
    if args.workload not in registry:
        ap.error(f"--workload must be one of {sorted(registry)}")
    if Path(rislink.__file__).resolve().parent != SRC / "rislink":
        print(f"imported rislink from {rislink.__file__}, not {SRC}", file=sys.stderr)
        return 2

    calibrate()  # loads what it uses
    clock = _ReferenceClock()
    raw_setup, setup = ([], []) if args.trace else _setup_seconds(clock)
    warmup.warm_up()
    work = OUT_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = registry[args.workload](ROOT, work, args.seed)
        budget = args.seconds / 2 if args.trace else args.seconds
        clock.mark()
        raw_walls, walls, point_reps, first, stable = _timed_reps(workload, budget, clock)
        verdict = workload.check(first)
        notes = [f"env {json.dumps(_environment())}",
                 f"workload {args.workload} seed {args.seed}: {len(walls)} repetitions, "
                 f"raw wall {' '.join(f'{w:.4f}' for w in raw_walls)} s, raw set-up "
                 f"{' '.join(f'{w:.4f}' for w in raw_setup)} s, calibrations "
                 f"{' '.join(f'{c:.4f}' for c in clock.calibrations)} s"]

        if args.trace:
            tracer = tracing.Tracer()
            workload.tracer = tracer
            tracer.install()
            try:
                t0 = time.perf_counter()
                outputs, _ = workload.run()
                traced_s = time.perf_counter() - t0
            finally:
                tracer.restore()
            stable = stable and repr(workload.load(outputs)) == repr(first)
            trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(trace_file)
            notes.append(f"{len(tracer.spans)} spans written to {trace_file}")
            metrics = tracing.layer_metrics(tracer.spans, traced_s,
                                            traced_s - statistics.median(raw_walls))
        else:
            points = _median_point_times(point_reps)
            notes.append(f"point_ms_tail is the {tracing.tail_label(len(points))}")
            notes.append(f"failed_frac = {verdict.failed}/{verdict.attempted}"
                         f" = {verdict.failed / verdict.attempted:.6g}")
            metrics = [
                ("setup_s", statistics.median(setup), "s"),
                ("wall_s", statistics.median(walls), "s"),
                ("point_ms_p50", 1e3 * statistics.median(points), "ms"),
                ("point_ms_tail", 1e3 * points[tracing.tail_index(len(points))], "ms"),
                ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            ]
        if not stable:
            verdict.correct = False
            verdict.notes.append("outputs differ between repetitions of the same inputs")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _emit(verdict, metrics, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
