"""Regenerate the stored reference outputs under perfbench/ref.

    python3 perfbench/make_refs.py

The figure-sweep references are the shipped configs' CSVs.  The
mc-physical reference runs the benchmark's config with ten times the
samples (MC_REF_SAMPLES) and its own seed, so its standard errors are small next to a
benchmark run's.  Regenerate only for an intended change of output, and
say so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from rislink import cli  # noqa: E402

from workloads import (  # noqa: E402
    FIGURE_CONFIGS, MC_PHYSICAL_CONFIG, MC_REF_SAMPLES, MC_REF_SEED, REF_DIR,
)


def main() -> int:
    REF_DIR.mkdir(exist_ok=True)
    runs = [[str(HERE.parent / "configs" / f"{n}.ini"), "--out", str(REF_DIR / f"{n}.csv")]
            for n in FIGURE_CONFIGS]
    runs.append([str(MC_PHYSICAL_CONFIG), "--out", str(REF_DIR / "mc_physical.csv"),
                 "--mc-samples", str(MC_REF_SAMPLES), "--seed", str(MC_REF_SEED)])
    for run in runs:
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["sweep", *run, "--threads", "1"])
        if code != 0:
            print(f"sweep {run[0]} exited {code}", file=sys.stderr)
            return code
        print(f"wrote {run[2]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
