"""Command-line front end: single points, parameter sweeps, validation runs.

Sweeps are described by an INI-style config file (see README for the
schema); results land in a CSV whose rows each echo the complete
parameter tuple, so the file is reproducible from its own content plus
the seed.  All dB/dBm conversion happens here; the library modules work
strictly in linear units.

The power axis maps to the SNR factor as

    eta = 10^((p_s_dbm - n0_dbm) / 10) * r_d^(-beta)

with n0_dbm = 0 by default; changing n0_dbm shifts power-axis curves
rigidly and affects no invariant.

Exit codes: 0 success, 2 config error, 3 numeric error, 4 validation
failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import io
import math
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, NumericError
from .fading import MODEL_DRAW, PHYSICAL_DRAW, FadingParams
from .metrics import snr_threshold_from_db
from .validation import (
    BER,
    CAPACITY,
    OUTAGE,
    GridCheck,
    McConfig,
    evaluate,
    ks_statistic,
    mc_metrics,
    physical_model_capacity_gap,
    point_cases,
    run_oracle_grid,
)

AXES = ("p_s_dbm", "eta_db", "n_cells", "gamma_th_db")
METRICS = (CAPACITY, BER, OUTAGE)
VARIANTS = ("exact", "asymptotic", "quadrature", "mc")

CSV_HEADER = [
    "axis", "axis_value", "metric", "variant", "N", "m", "m_s", "g_bar",
    "r_d", "beta", "n0_dbm", "lambda", "gamma_th_db", "value",
    "error_estimate", "seed",
]

_SWEEP_KEYS = {"axis", "start", "stop", "steps", "metrics", "variants", "out"}
_LINK_KEYS = {
    "n_cells", "m", "m_s", "r_d", "beta", "n0_dbm", "lambda",
    "gamma_th_db", "p_s_dbm", "eta_db",
}
_MC_KEYS = {"samples", "seed", "mode"}
_MC_MODES = {"model": MODEL_DRAW, "physical": PHYSICAL_DRAW}

_DEFAULTS = {
    "m": 1.0,
    "m_s": 5.0,
    "r_d": 1.0,
    "beta": 2.7,
    "n0_dbm": 0.0,
    "lambda": 1.0,
    "gamma_th_db": 3.0,
    "p_s_dbm": 0.0,
    "n_cells": 8,
}


@dataclass
class SweepSpec:
    """A parameter grid: one axis, fixed values, curve families, outputs."""

    axis: str
    start: float
    stop: float
    steps: int
    metrics: tuple[str, ...]
    variants: tuple[str, ...] = ("exact", "asymptotic")
    # family dimensions; singleton tuples for fixed values
    n_cells: tuple[int, ...] = (8,)
    m: tuple[float, ...] = (1.0,)
    m_s: tuple[float, ...] = (5.0,)
    lambda_mod: tuple[float, ...] = (1.0,)
    gamma_th_db: tuple[float, ...] = (3.0,)
    r_d: float = 1.0
    beta: float = 2.7
    n0_dbm: float = 0.0
    p_s_dbm: float = 0.0
    mc_samples: int = 100_000
    mc_seed: int = 42
    mc_mode: str = MODEL_DRAW
    out: str = "sweep.csv"

    def axis_values(self) -> np.ndarray:
        vals = np.linspace(self.start, self.stop, self.steps)
        if self.axis == "n_cells":
            ints = np.unique(np.rint(vals).astype(int))
            if len(ints) != len(vals):
                raise ConfigError(
                    "n_cells axis produced duplicate integers; adjust start/stop/steps"
                )
            return ints.astype(float)
        return vals


def _key_line(text: str, key: str) -> int | None:
    pat = re.compile(r"^\s*" + re.escape(key) + r"\s*[=:]", re.IGNORECASE)
    for i, line in enumerate(text.splitlines(), start=1):
        if pat.match(line):
            return i
    return None


def _fail_key(text: str, section: str, key: str, msg: str) -> ConfigError:
    line = _key_line(text, key)
    where = f"line {line}" if line is not None else f"section [{section}]"
    return ConfigError(f"{msg} (key '{key}', {where})")


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def _int_list(raw: str) -> tuple[int, ...]:
    out = []
    for tok in raw.replace(",", " ").split():
        v = float(tok)
        if v != int(v):
            raise ValueError(f"{tok} is not an integer")
        out.append(int(v))
    return tuple(out)


def parse_config(text: str) -> SweepSpec:
    """Parse a sweep config document into a SweepSpec.  Unknown keys and
    out-of-range values fail loudly, naming the key and its line."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    allowed = {"sweep": _SWEEP_KEYS, "link": _LINK_KEYS, "mc": _MC_KEYS}
    for section in cp.sections():
        if section not in allowed:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in allowed[section]:
                raise _fail_key(text, section, key, "unknown key")
    if not cp.has_section("sweep"):
        raise ConfigError("config has no [sweep] section")

    link = cp["link"] if cp.has_section("link") else {}

    def link_floats(key: str) -> tuple[float, ...]:
        if key in link:
            try:
                return _float_list(link[key])
            except ValueError as exc:
                raise _fail_key(text, "link", key, f"bad value: {exc}")
        return (float(_DEFAULTS[key]),)

    m_vals = link_floats("m")
    ms_vals = link_floats("m_s")
    for v in ms_vals:
        if v <= 1.0:
            raise _fail_key(text, "link", "m_s", "m_s must exceed 1")
    for v in m_vals:
        if v <= 0.0:
            raise _fail_key(text, "link", "m", "m must be positive")
    lam_vals = link_floats("lambda")
    for v in lam_vals:
        if v not in (0.5, 1.0):
            raise _fail_key(text, "link", "lambda", "lambda must be 0.5 or 1")
    gth_vals = link_floats("gamma_th_db")
    if "n_cells" in link:
        try:
            n_vals = _int_list(link["n_cells"])
        except ValueError as exc:
            raise _fail_key(text, "link", "n_cells", f"bad value: {exc}")
    else:
        n_vals = (int(_DEFAULTS["n_cells"]),)
    for v in n_vals:
        if v < 1:
            raise _fail_key(text, "link", "n_cells", "n_cells must be >= 1")

    def link_scalar(key: str) -> float:
        vals = link_floats(key)
        if len(vals) != 1:
            raise _fail_key(text, "link", key, "expected a single value")
        return vals[0]

    r_d = link_scalar("r_d")
    beta_pl = link_scalar("beta")
    n0_dbm = link_scalar("n0_dbm")
    p_s_dbm = link_scalar("p_s_dbm")
    if r_d <= 0.0:
        raise _fail_key(text, "link", "r_d", "r_d must be positive")
    if beta_pl <= 0.0:
        raise _fail_key(text, "link", "beta", "beta must be positive")

    mc_samples, mc_seed, mc_mode = 100_000, 42, MODEL_DRAW
    if cp.has_section("mc"):
        mc = cp["mc"]
        if "samples" in mc:
            try:
                mc_samples = int(mc["samples"])
            except ValueError as exc:
                raise _fail_key(text, "mc", "samples", f"bad value: {exc}")
            if mc_samples < 10_000:
                raise _fail_key(text, "mc", "samples", "mc samples must be >= 10^4")
        if "seed" in mc:
            try:
                mc_seed = int(mc["seed"])
            except ValueError as exc:
                raise _fail_key(text, "mc", "seed", f"bad value: {exc}")
        if "mode" in mc:
            raw = mc["mode"].strip().lower()
            mc_mode = _MC_MODES.get(raw, raw)
            if mc_mode not in _MC_MODES.values():
                raise _fail_key(text, "mc", "mode", "mode must be model or physical")

    sweep = cp["sweep"]
    if "axis" not in sweep:
        raise ConfigError("missing required key 'axis' in [sweep]")
    axis = sweep["axis"].strip()
    if axis not in AXES:
        raise _fail_key(text, "sweep", "axis", f"axis must be one of {AXES}")
    if axis in link:
        raise _fail_key(
            text, "link", axis, "the sweep axis must not also be fixed in [link]"
        )
    for key in ("start", "stop", "steps"):
        if key not in sweep:
            raise ConfigError(f"missing required key '{key}' in [sweep]")
    try:
        start = float(sweep["start"])
        stop = float(sweep["stop"])
        steps = int(sweep["steps"])
    except ValueError as exc:
        raise ConfigError(f"bad sweep range: {exc}") from exc
    if not start < stop:
        raise _fail_key(text, "sweep", "start", "start must be less than stop")
    if steps < 2:
        raise _fail_key(text, "sweep", "steps", "steps must be at least 2")

    if "metrics" in sweep:
        metrics = tuple(tok for tok in sweep["metrics"].replace(",", " ").split())
        if not metrics:
            raise _fail_key(text, "sweep", "metrics", "metric set must not be empty")
        for tok in metrics:
            if tok not in METRICS:
                raise _fail_key(
                    text, "sweep", "metrics", f"unknown metric '{tok}'"
                )
    else:
        metrics = METRICS
    if "variants" in sweep:
        variants = tuple(tok for tok in sweep["variants"].replace(",", " ").split())
        if not variants:
            raise _fail_key(text, "sweep", "variants", "variant set must not be empty")
        for tok in variants:
            if tok not in VARIANTS:
                raise _fail_key(text, "sweep", "variants", f"unknown variant '{tok}'")
    else:
        variants = ("exact", "asymptotic")

    return SweepSpec(
        axis=axis,
        start=start,
        stop=stop,
        steps=steps,
        metrics=metrics,
        variants=variants,
        n_cells=n_vals,
        m=m_vals,
        m_s=ms_vals,
        lambda_mod=lam_vals,
        gamma_th_db=gth_vals,
        r_d=r_d,
        beta=beta_pl,
        n0_dbm=n0_dbm,
        p_s_dbm=p_s_dbm,
        mc_samples=mc_samples,
        mc_seed=mc_seed,
        mc_mode=mc_mode,
        out=sweep.get("out", "sweep.csv"),
    )


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _eta(p_s_dbm: float, n0_dbm: float, r_d: float, beta: float) -> float:
    return 10.0 ** ((p_s_dbm - n0_dbm) / 10.0) * r_d ** (-beta)


def _point_rows(spec: SweepSpec, axis_value: float) -> list[list[str]]:
    if spec.axis == "eta_db":
        eta = snr_threshold_from_db(axis_value)
    else:
        p_s = axis_value if spec.axis == "p_s_dbm" else spec.p_s_dbm
        eta = _eta(p_s, spec.n0_dbm, spec.r_d, spec.beta)
    gth_dbs = (axis_value,) if spec.axis == "gamma_th_db" else spec.gamma_th_db
    rows = []
    for n in spec.n_cells if spec.axis != "n_cells" else (int(axis_value),):
        for m in spec.m:
            for m_s in spec.m_s:
                cases = point_cases(eta, FadingParams(m=m, m_s=m_s), n, spec.metrics,
                                    spec.lambda_mod, gth_dbs)
                for cfg, metric, gth_db, variant, value, err in _case_rows(
                    cases, spec.variants, spec.mc_samples, spec.mc_seed, spec.mc_mode,
                ):
                    rows.append([
                        spec.axis, _fmt(axis_value), metric, variant,
                        _fmt(n), _fmt(m), _fmt(m_s), "1",
                        _fmt(spec.r_d), _fmt(spec.beta),
                        _fmt(spec.n0_dbm), _fmt(cfg.lambda_mod), _fmt(gth_db),
                        _fmt(value), _fmt(err), _fmt(spec.mc_seed),
                    ])
    return rows


def _case_rows(cases, variants, mc_samples: int, mc_seed: int, mc_mode: str):
    """(cfg, metric, gamma_th_db, variant, value, error) per case and variant.

    ``cases`` are the :func:`point_cases` of one (point, N, m, m_s)
    family.  The mc variant draws one sample for all of them, seeded from
    seed|N|m|m_s|eta: metric, lambda and threshold stay out of the key,
    so the family's MC rows are correlated, and no row depends on
    evaluation order (stable hash; the builtin hash() is salted per
    process).
    """
    if "mc" in variants:
        cfg = cases[0][0]
        key = "|".join([
            str(mc_seed), str(cfg.n_cells), f"{cfg.fading.m:.17g}",
            f"{cfg.fading.m_s:.17g}", f"{cfg.eta():.17g}",
        ])
        sub = int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")
        estimates = mc_metrics([case[:3] for case in cases],
                               McConfig(n_samples=mc_samples, seed=sub, mode=mc_mode))
    for i, (cfg, metric, gth, gth_db) in enumerate(cases):
        for variant in variants:
            if variant == "mc":
                value, err = estimates[i].mean, estimates[i].std_error
            else:
                r = evaluate(cfg, metric, variant, gth)
                value, err = r.value, r.error_estimate
            yield cfg, metric, gth_db, variant, value, err


def run_sweep(spec: SweepSpec, threads: int = 1, progress=None) -> list[list[str]]:
    """Evaluate the grid; returns rows in deterministic axis order."""
    values = spec.axis_values()
    if progress is None:
        progress = lambda msg: print(msg, file=sys.stderr)
    results: list[list[list[str]]] = [None] * len(values)

    def work(i):
        return i, _point_rows(spec, float(values[i]))

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            for i, rows in pool.map(work, range(len(values))):
                results[i] = rows
                progress(f"sweep point {i + 1}/{len(values)} done")
    else:
        for i in range(len(values)):
            results[i] = work(i)[1]
            progress(f"sweep point {i + 1}/{len(values)} done")
    return [row for group in results for row in group]


def write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())


VALIDATE_HEADER = [
    "kind", "index", "N", "m", "m_s", "eta_db", "metric", "lambda",
    "gamma_th_db", "closed_log", "quad_log", "rel_gap_quad", "mc_mean",
    "mc_std_error", "note", "ok",
]


def _check_row(c: GridCheck) -> list[str]:
    return [
        "oracle", str(c.index), _fmt(c.n_cells), _fmt(c.m), _fmt(c.m_s),
        _fmt(c.eta_db), c.metric, _fmt(c.lambda_mod), _fmt(c.gamma_th_db),
        _fmt(c.closed_log), _fmt(c.quad_log), _fmt(c.rel_gap_quad),
        _fmt(c.mc_mean), _fmt(c.mc_std_error), c.note, str(c.ok),
    ]


def run_validate(
    preset: str,
    master_seed: int,
    out: str,
    threads: int = 1,
    n_samples: int | None = None,
    mode: str = MODEL_DRAW,
) -> int:
    """Oracle-agreement grid, KS checks and the sampling-mode gap.

    Writes the report CSV and returns 0 when every check holds, 4
    otherwise.
    """
    from .fading import SumFadingModel, cdf, sample, sample_sum, sum_cdf

    checks = run_oracle_grid(
        preset, master_seed=master_seed, n_samples=n_samples,
        mode=mode, max_workers=threads,
    )
    rows = [_check_row(c) for c in checks]
    all_ok = all(c.ok for c in checks)

    # distributional checks: single branch and model-draw sum
    ks_n = 100_000
    crit = 1.63 / math.sqrt(ks_n)
    ks_grid = [(1.0, 5.0), (4.0, 2.0)] if preset == "smoke" else [
        (1.0, 2.0), (1.0, 5.0), (4.0, 2.0), (4.0, 5.0),
    ]
    for i, (m, m_s) in enumerate(ks_grid):
        p = FadingParams(m=m, m_s=m_s)
        rng = np.random.default_rng(np.random.SeedSequence((master_seed, 7000 + i)))
        stat = ks_statistic(sample(p, rng, size=ks_n), lambda x: cdf(p, x))
        ok = stat < crit
        all_ok = all_ok and ok
        rows.append([
            "ks", str(7000 + i), "1", _fmt(m), _fmt(m_s), "nan", "ks_single",
            "nan", "nan", "nan", "nan", "nan", _fmt(stat), _fmt(crit),
            f"n={ks_n}", str(ok),
        ])
        model = SumFadingModel(p, 8)
        rng = np.random.default_rng(np.random.SeedSequence((master_seed, 8000 + i)))
        stat = ks_statistic(
            sample_sum(model, MODEL_DRAW, rng, size=ks_n),
            lambda x: sum_cdf(model, x),
        )
        ok = stat < crit
        all_ok = all_ok and ok
        rows.append([
            "ks", str(8000 + i), "8", _fmt(m), _fmt(m_s), "nan", "ks_model_sum",
            "nan", "nan", "nan", "nan", "nan", _fmt(stat), _fmt(crit),
            f"n={ks_n}", str(ok),
        ])

    # physical vs model sampling gap (reported, bounded at 3 percent)
    gap_ns = (8,) if preset == "smoke" else (8, 16, 32)
    for i, n in enumerate(gap_ns):
        diag = physical_model_capacity_gap(
            n, FadingParams(1.0, 5.0), eta=100.0, seed=master_seed + 9000 + i
        )
        ok = diag["rel_gap"] < 0.03
        all_ok = all_ok and ok
        rows.append([
            "mode_gap", str(9000 + i), _fmt(n), "1", "5", "20", "capacity_gap",
            "nan", "nan", "nan", "nan", _fmt(diag["rel_gap"]),
            _fmt(diag["model_mean"]), _fmt(diag["physical_mean"]),
            f"se={diag['combined_se']:.3e}", str(ok),
        ])

    write_csv(out, VALIDATE_HEADER, rows)
    n_fail = sum(1 for r in rows if r[-1] == "False")
    print(
        f"validate[{preset}]: {len(rows)} checks, {n_fail} failures -> {out}",
        file=sys.stderr,
    )
    return 0 if all_ok else 4


def selftest() -> int:
    """Special-function identity suite; prints one line per identity."""
    from scipy.special import erfc as _erfc

    from .specfun import MeijerGSpec, log_betainc, meijer_g, q_function

    failures = 0

    def check(name: str, got: float, want: float, rtol: float) -> None:
        nonlocal failures
        rel = abs(got - want) / abs(want) if want != 0 else abs(got)
        ok = rel <= rtol
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {name}: got {got:.12e} want {want:.12e} rel {rel:.2e}")

    spec = MeijerGSpec([-1.0], [], [1.0], [], 1.0)
    check("G11 binomial kernel", meijer_g(spec).value, 0.25, 1e-9)
    for z in (0.1, 1.0, 10.0, 100.0):
        spec = MeijerGSpec([1.0, 1.0], [], [1.0], [0.0], z)
        check(f"log kernel z={z}", meijer_g(spec).value, math.log1p(z), 1e-9)
    for z in (0.01, 1.0, 4.0):
        spec = MeijerGSpec([], [1.0], [0.0, 0.5], [], z)
        want = math.sqrt(math.pi) * _erfc(math.sqrt(z))
        check(f"erfc kernel z={z}", meijer_g(spec).value, want, 1e-9)
    check("I_x(1,1) at y=1", math.exp(log_betainc(1.0, 1.0, 1.0)[0]), 0.5, 1e-12)
    check("I_x(2,1) at y=3", math.exp(log_betainc(2.0, 1.0, 3.0)[0]), 9.0 / 16.0, 1e-12)
    check("Q(0)", q_function(0.0), 0.5, 1e-14)
    return 0 if failures == 0 else 4


def _metrics_command(args) -> int:
    if args.eta_db is not None:
        eta = snr_threshold_from_db(args.eta_db)
    else:
        eta = _eta(args.p_s_dbm, args.n0_dbm, args.r_d, args.beta)
    cases = point_cases(eta, FadingParams(m=args.m, m_s=args.m_s), args.n_cells,
                        (args.metric,), (args.lam,), (args.gamma_th_db,))
    [(cfg, _, gth_db, _, value, err)] = _case_rows(
        cases, (args.variant,), args.mc_samples, args.seed, _MC_MODES[args.mc_mode],
    )
    axis_value = args.eta_db if args.eta_db is not None else args.p_s_dbm
    axis = "eta_db" if args.eta_db is not None else "p_s_dbm"
    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(CSV_HEADER)
    w.writerow([
        axis, _fmt(axis_value), args.metric, args.variant, _fmt(args.n_cells),
        _fmt(args.m), _fmt(args.m_s), "1", _fmt(args.r_d),
        _fmt(args.beta), _fmt(args.n0_dbm), _fmt(cfg.lambda_mod), _fmt(gth_db),
        _fmt(value), _fmt(err), _fmt(args.seed),
    ])
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rislink",
        description="RIS link metrics over Fisher-Snedecor F fading",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    mp = sub.add_parser("metrics", help="evaluate one point, print one CSV row")
    mp.add_argument("--metric", choices=METRICS, required=True)
    mp.add_argument("--variant", choices=VARIANTS, default="exact")
    mp.add_argument("--n-cells", type=int, default=8, dest="n_cells")
    mp.add_argument("--m", type=float, default=1.0)
    mp.add_argument("--m-s", type=float, default=5.0, dest="m_s")
    mp.add_argument("--r-d", type=float, default=1.0, dest="r_d")
    mp.add_argument("--beta", type=float, default=2.7)
    mp.add_argument("--n0-dbm", type=float, default=0.0, dest="n0_dbm")
    mp.add_argument("--p-s-dbm", type=float, default=0.0, dest="p_s_dbm")
    mp.add_argument("--eta-db", type=float, default=None, dest="eta_db")
    mp.add_argument("--lambda", type=float, default=1.0, dest="lam",
                    choices=(0.5, 1.0))
    mp.add_argument("--gamma-th-db", type=float, default=3.0, dest="gamma_th_db")
    mp.add_argument("--mc-samples", type=int, default=100_000)
    mp.add_argument("--mc-mode", choices=_MC_MODES, default="model")
    mp.add_argument("--seed", type=int, default=42)

    sp = sub.add_parser("sweep", help="run a sweep described by a config file")
    sp.add_argument("config", help="path to the sweep config")
    sp.add_argument("--out", default=None, help="output CSV (overrides config)")
    sp.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    sp.add_argument("--seed", type=int, default=None, help="override [mc] seed")
    sp.add_argument("--mc-samples", type=int, default=None)
    sp.add_argument("--mc-mode", choices=_MC_MODES, default=None)

    vp = sub.add_parser("validate", help="run the oracle-agreement grid")
    vp.add_argument("--preset", choices=("smoke", "full"), default="smoke")
    vp.add_argument("--seed", type=int, default=42)
    vp.add_argument("--out", default="validate_report.csv")
    vp.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    vp.add_argument("--mc-samples", type=int, default=None)
    vp.add_argument("--mc-mode", choices=_MC_MODES, default="model")

    sub.add_parser("selftest", help="special-function identity suite")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "metrics":
            return _metrics_command(args)
        if args.command == "sweep":
            with open(args.config) as fh:
                text = fh.read()
            spec = parse_config(text)
            if args.out is not None:
                spec.out = args.out
            if args.seed is not None:
                spec.mc_seed = args.seed
            if args.mc_samples is not None:
                spec.mc_samples = args.mc_samples
            if args.mc_mode is not None:
                spec.mc_mode = _MC_MODES[args.mc_mode]
            rows = run_sweep(spec, threads=args.threads)
            write_csv(spec.out, CSV_HEADER, rows)
            print(f"wrote {len(rows)} rows to {spec.out}", file=sys.stderr)
            return 0
        if args.command == "validate":
            return run_validate(
                args.preset, args.seed, args.out, threads=args.threads,
                n_samples=args.mc_samples, mode=_MC_MODES[args.mc_mode],
            )
        if args.command == "selftest":
            return selftest()
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, DomainError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
