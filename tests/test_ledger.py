"""The output ledger: every shipped sweep, the ``metrics`` rows of each
metric and variant, ``selftest``, the seeded validate reports and the
physical-mode sweep, regenerated in process and compared with the
outputs recorded in ``tests/ledger``.

``manifest.json`` holds each run's argv, exit code and the sha256 of its
output, with the numpy and scipy versions and numpy's enabled CPU
dispatch targets of the machine that recorded them.  On that
fingerprint every output must match byte for byte.  On any other, where
the last bits of a libm or SIMD loop may move, every column but
``value`` and ``error_estimate`` must match exactly, each value must lie
within the summed error estimates of its recorded row (1e-12 relative
where both are 0, as for the asymptotes), and ``selftest`` must print
the same lines but for the digits it got.  The seeded Monte-Carlo
outputs (the validate reports, the physical-mode sweep and the ``mc``
``metrics`` rows) carry no error estimate that bounds a move of their
last bits: off the fingerprint, every column that is not a number, ``ok``
among them, must match exactly, and every number within 1e-9 relative.

After an intended change of output, rewrite the ledger with

    PYTHONPATH=src python tests/test_ledger.py

and name each run whose sha256 moved, and why, in CHANGES.md.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from rislink import cli

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "tests" / "ledger"
MANIFEST = LEDGER / "manifest.json"
VALUE_COLUMNS = ("value", "error_estimate")
# an asymptote's value carries no error estimate
ZERO_ESTIMATE_REL = 1e-12
# selftest's computed digits: "got <x>" and "rel <x>"
SELFTEST_DIGITS = re.compile(r"(got|rel) \S+")
# how far a Monte-Carlo output's number may move off the fingerprint
MC_REL = 1e-9

MC_RUNS = {
    "validate_smoke": ["validate", "--preset", "smoke", "--seed", "42", "--out", "{out}"],
    "validate_smoke_physical": ["validate", "--preset", "smoke", "--seed", "42",
                                "--mc-mode", "physical", "--out", "{out}"],
    "validate_full": ["validate", "--preset", "full", "--seed", "42", "--mc-samples", "100000",
                      "--out", "{out}"],
    "mc_physical": ["sweep", "perfbench/configs/mc_physical.ini", "--seed", "42",
                    "--out", "{out}"],
    **{f"metrics_{metric}_mc": ["metrics", "--metric", metric, "--variant", "mc",
                                "--n-cells", "16", "--lambda", "0.5"]
       for metric in ("capacity", "ber", "outage")},
}

RUNS = {
    **{name: ["sweep", f"configs/{name}.ini", "--out", "{out}"]
       for name in ("capacity_vs_power", "ber_vs_power", "outage_vs_power")},
    **{f"metrics_{metric}_{variant}": ["metrics", "--metric", metric, "--variant", variant,
                                       "--n-cells", "16", "--lambda", "0.5"]
       for metric in ("capacity", "ber", "outage")
       for variant in ("exact", "asymptotic", "quadrature")},
    "selftest": ["selftest"],
    **MC_RUNS,
}


def fingerprint() -> dict:
    """The numpy and scipy versions and numpy's enabled CPU dispatch targets."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "cpu_dispatch": [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]}


def run(argv: list, out: Path) -> tuple[int, bytes]:
    """cli.main(argv) from the repository root, its exit code and output:
    the file that "{out}" names in argv, or else what it printed."""
    stdout, cwd = io.StringIO(), os.getcwd()
    argv = [str(out) if a == "{out}" else a for a in argv]
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return code, out.read_bytes() if out.exists() else stdout.getvalue().encode()


def output_path(name: str) -> Path:
    return LEDGER / (f"{name}.txt" if name == "selftest" else f"{name}.csv")


def same_number(got: str | None, want: str | None) -> bool:
    """Whether a Monte-Carlo output's cell matches its recorded one: the
    same text, or two numbers within MC_REL relative."""
    if got == want:
        return True
    try:
        return abs(float(got) - float(want)) <= MC_REL * abs(float(want))
    except (TypeError, ValueError):
        return False


def disagreements(name: str, got: str, want: str) -> list:
    """The differences between an output and its recorded one that the
    ledger does not allow on a foreign fingerprint, one line each."""
    if name == "selftest":
        got, want = (SELFTEST_DIGITS.sub(r"\1 _", s).splitlines() for s in (got, want))
        return [f"line {i}: {g!r} != {w!r}" for i, (g, w) in enumerate(zip(got, want))
                if g != w] + ([f"{len(got)} lines != {len(want)}"] * (len(got) != len(want)))
    got, want = (list(csv.DictReader(io.StringIO(s))) for s in (got, want))
    if len(got) != len(want):
        return [f"{len(got)} rows != {len(want)}"]
    if name in MC_RUNS:
        return [f"row {i}: {k} {g.get(k)!r} != {w.get(k)!r}"
                for i, (g, w) in enumerate(zip(got, want))
                for k in {**w, **g} if not same_number(g.get(k), w.get(k))]
    bad = []
    for i, (g, w) in enumerate(zip(got, want)):
        if g.keys() != w.keys():
            return [f"header {list(g)} != {list(w)}"]
        moved = [k for k in g if k not in VALUE_COLUMNS and g[k] != w[k]]
        (v, e), (v_ref, e_ref) = ([float(r[k]) for k in VALUE_COLUMNS] for r in (g, w))
        bound = e + e_ref if e + e_ref > 0.0 else ZERO_ESTIMATE_REL * abs(v_ref)
        if moved or not (g["value"] == w["value"] or abs(v - v_ref) <= bound):
            bad.append(f"row {i}: {moved or ''} value {v!r} against {v_ref!r} +- {bound:.3g}")
    return bad


def rewrite() -> None:
    """Run every ledger entry and record it: the outputs and the manifest."""
    LEDGER.mkdir(exist_ok=True)
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in RUNS.items():
            code, data = run(argv, Path(tmp) / f"{name}.out")
            output_path(name).write_bytes(data)
            entries.append({"name": name, "argv": argv, "exit": code,
                            "sha256": hashlib.sha256(data).hexdigest()})
    MANIFEST.write_text(json.dumps({"fingerprint": fingerprint(), "runs": entries},
                                   indent=1) + "\n")


def manifest() -> dict:
    return json.loads(MANIFEST.read_text())


def test_manifest_lists_every_run():
    assert [(r["name"], r["argv"]) for r in manifest()["runs"]] == list(RUNS.items())


@pytest.mark.parametrize("name", RUNS)
def test_output_matches_the_ledger(tmp_path, name):
    recorded = manifest()
    (entry,) = [r for r in recorded["runs"] if r["name"] == name]
    code, data = run(entry["argv"], tmp_path / "out")
    assert code == entry["exit"]
    if recorded["fingerprint"] == fingerprint():
        assert hashlib.sha256(data).hexdigest() == entry["sha256"]
    else:
        assert disagreements(name, data.decode(), output_path(name).read_text()) == []


def test_foreign_fingerprint_allows_only_moves_within_the_estimates():
    want = output_path("ber_vs_power").read_text()
    rows = list(csv.reader(io.StringIO(want)))
    header = rows[0]
    value, error = header.index("value"), header.index("error_estimate")
    exact = next(r for r in rows[1:] if r[header.index("variant")] == "exact")
    asymptote = next(r for r in rows[1:] if r[header.index("variant")] == "asymptotic")
    v, e = float(exact[value]), float(exact[error])

    def edited(row, column, text):
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(
            [r if r is not row else [*r[:column], text, *r[column + 1:]] for r in rows])
        return out.getvalue()

    def moved(text):
        return disagreements("ber_vs_power", text, want)

    assert moved(want) == []
    assert moved(edited(exact, value, repr(v + 1.5 * e))) == []
    assert moved(edited(exact, value, repr(v + 2.5 * e))) != []
    assert moved(edited(exact, error, repr(2.0 * e))) == []
    v = float(asymptote[value])
    assert moved(edited(asymptote, value, repr(v * (1 + 1e-13)))) == []
    assert moved(edited(asymptote, value, repr(v * (1 + 1e-11)))) != []
    assert moved(edited(exact, header.index("N"), "9")) != []
    selftest = output_path("selftest").read_text()
    assert disagreements("selftest", selftest.replace("got 2.5", "got 2.6", 1), selftest) == []
    assert disagreements("selftest", selftest.replace("PASS", "FAIL", 1), selftest) != []


def test_foreign_fingerprint_allows_monte_carlo_numbers_to_move_by_1e_9():
    want = output_path("validate_smoke").read_text()
    rows = list(csv.reader(io.StringIO(want)))
    header, row = rows[0], rows[1]
    mean, ok = header.index("mc_mean"), header.index("ok")

    def edited(column, text):
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(
            [r if r is not row else [*r[:column], text, *r[column + 1:]] for r in rows])
        return disagreements("validate_smoke", out.getvalue(), want)

    v = float(row[mean])
    assert edited(mean, repr(v)) == []
    assert edited(mean, repr(v * (1 + 1e-10))) == []
    assert edited(mean, repr(v * (1 + 1e-8))) != []
    assert edited(ok, "False" if row[ok] == "True" else "True") != []
    assert edited(header.index("note"), "moved") != []


if __name__ == "__main__":
    rewrite()
    print(f"rewrote {MANIFEST.relative_to(ROOT)} and {len(RUNS)} outputs")
