"""Self-test of the benchmark: tiny runs of every workload, then fault injection.

    python3 perfbench/selftest.py

Each workload runs once at a tiny size, untraced and traced, and every
metric of BENCHMARK.json must be printed by name with its unit.  Then
each correctness check is shown to catch a fault: a perturbed reference
row (figure-sweeps, mc-physical) or a forced exact-vs-quadrature
mismatch (oracle-grid, scatter-points) must raise the failed count.
Exits non-zero on the first unmet expectation.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from rislink import cli, metrics, validation  # noqa: E402

WORK = ROOT / ".perfbench_out" / "selftest"

TINY_MC_CONFIG = """
[sweep]
axis = n_cells
start = 4
stop = 8
steps = 2
metrics = capacity, ber, outage
variants = mc

[link]
p_s_dbm = 0
gamma_th_db = 6

[mc]
samples = 10000
mode = physical
"""
TINY_MC_REF_SAMPLES = 100_000


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def tiny_registry() -> dict:
    config = WORK / "mc_tiny.ini"
    config.write_text(TINY_MC_CONFIG)
    ref = WORK / "mc_tiny_ref.csv"
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["sweep", str(config), "--out", str(ref), "--threads", "1",
                        "--seed", "7", "--mc-samples", str(TINY_MC_REF_SAMPLES)])
    expect(code == 0, "tiny mc-physical reference generated")
    return {
        "figure-sweeps": functools.partial(wl.FigureSweeps, names=("outage_vs_power",)),
        "oracle-grid": functools.partial(wl.OracleGrid, preset="smoke", n_samples=10_000),
        "scatter-points": functools.partial(wl.ScatterPoints, n_points=4),
        "mc-physical": functools.partial(wl.McPhysical, config=config, ref=ref,
                                         ref_samples=TINY_MC_REF_SAMPLES),
    }


def run_benchmark(registry, name: str, trace: int) -> tuple[dict, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.01",
                         "--trace", str(trace)], registry=registry)
    expect(code == 0, f"{name} --trace {trace} exits 0")
    text = buf.getvalue()
    return json.loads(text.strip().splitlines()[-1]), text


def check_metrics_printed(registry, spec: dict) -> None:
    for name in registry:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, text = run_benchmark(registry, name, trace)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name}: result keys")
            expect(result["correct"] and result["attempted"] >= 1, f"{name}: correct run")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{name} --trace {trace}: every {key} metric with its unit")
            expect(all(f"\n{k} = " in text for k in want),
                   f"{name} --trace {trace}: every metric printed by name")


def outputs_of(workload):
    outputs, _ = workload.run()
    return workload.load(outputs)


def perturbed_copy(src: Path, dst: Path, row_index: int, scale: float) -> None:
    with open(src, newline="") as fh:
        rows = list(csv.DictReader(fh))
    row = rows[row_index]
    row["value"] = repr(float(row["value"]) * scale + 10 * float(row["error_estimate"]))
    with open(dst, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


@contextlib.contextmanager
def shifted_log_value(module, attr: str, shift: float):
    """Make one route report a log value off by ``shift``."""
    original = getattr(module, attr)

    def wrong(*args, **kwargs):
        r = original(*args, **kwargs)
        diag = dict(r.diagnostics, log_value=r.diagnostics["log_value"] + shift)
        return dataclasses.replace(r, diagnostics=diag)

    setattr(module, attr, wrong)
    try:
        yield
    finally:
        setattr(module, attr, original)


def check_faults_caught(registry) -> None:
    # figure-sweeps: one exact row of the outage reference moved
    ref_dir = WORK / "ref"
    ref_dir.mkdir(exist_ok=True)
    perturbed_copy(wl.REF_DIR / "outage_vs_power.csv", ref_dir / "outage_vs_power.csv",
                   0, 1.001)
    clean = registry["figure-sweeps"](ROOT, WORK, 3)
    base = clean.check(outputs_of(clean))
    bad = wl.FigureSweeps(ROOT, WORK, 3, names=("outage_vs_power",), ref_dir=ref_dir)
    hit = bad.check(outputs_of(bad))
    expect(base.failed == 0 and hit.failed == 1 and not hit.correct,
           "figure-sweeps: a perturbed reference row is caught")

    # mc-physical: one reference row moved far outside its band
    tiny = registry["mc-physical"](ROOT, WORK, 3)
    loaded = outputs_of(tiny)
    base = tiny.check(loaded)
    perturbed_copy(tiny.ref, WORK / "mc_bad_ref.csv", 0, 1.05)
    tiny.ref = WORK / "mc_bad_ref.csv"
    hit = tiny.check(loaded)
    expect(base.failed == 0 and hit.failed == 1,
           "mc-physical: a perturbed reference row is caught")

    # oracle-grid: BER quadrature forced off by 1e-3 relative
    grid = registry["oracle-grid"](ROOT, WORK, 3)
    base = grid.check(outputs_of(grid))
    with shifted_log_value(validation, "quad_ber", 1e-3):
        hit = grid.check(outputs_of(grid))
    expect(hit.failed > base.failed, "oracle-grid: a forced exact-vs-quad mismatch is caught")

    # scatter-points: exact BER forced off by 1e-3 relative
    scatter = registry["scatter-points"](ROOT, WORK, 3)
    base = scatter.check(outputs_of(scatter))
    with shifted_log_value(metrics, "avg_ber", 1e-3):
        hit = scatter.check(outputs_of(scatter))
    expect(hit.failed > base.failed, "scatter-points: a forced exact-vs-quad mismatch is caught")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        registry = tiny_registry()
        check_metrics_printed(registry, spec)
        check_faults_caught(registry)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
