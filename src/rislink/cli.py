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
import itertools
import math
import os
import re
import sys
from dataclasses import dataclass
from typing import Callable

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
_MC_MODES = {"model": MODEL_DRAW, "physical": PHYSICAL_DRAW}


def integer(tok: str) -> int:
    """An integer token; "8" and "8.0" both read as 8."""
    v = float(tok)
    if not v.is_integer():
        raise ValueError(f"{tok} is not an integer")
    return int(v)


def _mc_mode(tok: str) -> str:
    return _MC_MODES.get(tok.lower(), tok.lower())


@dataclass(frozen=True)
class Param:
    """One [link] or [mc] key.  ``many`` keys may hold a list, which forms
    curve families; every value must pass ``check``, else ``message``."""

    default: object
    many: bool
    check: Callable[[object], bool]
    message: str
    parse: Callable[[str], object] = float


# The [link] keys are also the metrics flags (--n-cells ... --p-s-dbm).
LINK_PARAMS = {
    "n_cells": Param(8, True, lambda v: v >= 1, "n_cells must be >= 1", integer),
    "m": Param(1.0, True, lambda v: v > 0.0, "m must be positive"),
    "m_s": Param(5.0, True, lambda v: v > 1.0, "m_s must exceed 1"),
    "r_d": Param(1.0, False, lambda v: v > 0.0, "r_d must be positive"),
    "beta": Param(2.7, False, lambda v: v > 0.0, "beta must be positive"),
    "n0_dbm": Param(0.0, False, math.isfinite, "n0_dbm must be finite"),
    "lambda": Param(1.0, True, lambda v: v in (0.5, 1.0), "lambda must be 0.5 or 1"),
    "gamma_th_db": Param(3.0, True, math.isfinite, "gamma_th_db must be finite"),
    "p_s_dbm": Param(0.0, False, math.isfinite, "p_s_dbm must be finite"),
}
# The [sweep] range keys, checked like the table keys; start and stop
# also pass the check of the axis key.
RANGE_PARAMS = {
    "start": Param(None, False, math.isfinite, "start must be finite"),
    "stop": Param(None, False, math.isfinite, "stop must be finite"),
    "steps": Param(None, False, lambda v: v >= 2, "steps must be at least 2", int),
}
# --seed runs the seed check; --mc-samples leaves its bound to McConfig,
# so a metrics row that draws no sample ignores it.
MC_PARAMS = {
    "samples": Param(100_000, False, lambda v: v >= 10_000, "mc samples must be >= 10^4",
                     int),
    "seed": Param(42, False, lambda v: v >= 0, "seed must be a non-negative integer",
                  int),
    "mode": Param(MODEL_DRAW, False, lambda v: v in _MC_MODES.values(),
                  "mode must be model or physical", _mc_mode),
}


@dataclass
class SweepSpec:
    """A parameter grid: one axis, fixed values, curve families, outputs."""

    axis: str
    start: float
    stop: float
    steps: int
    metrics: tuple[str, ...]
    variants: tuple[str, ...]
    # family dimensions; singleton tuples for fixed values
    n_cells: tuple[int, ...]
    m: tuple[float, ...]
    m_s: tuple[float, ...]
    lambda_mod: tuple[float, ...]
    gamma_th_db: tuple[float, ...]
    r_d: float
    beta: float
    n0_dbm: float
    p_s_dbm: float
    mc_samples: int
    mc_seed: int
    mc_mode: str
    out: str

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


def _tokens(text: str, section: str, given, key: str) -> list[str]:
    tokens = given[key].replace(",", " ").split()
    if not tokens:
        raise _fail_key(text, section, key, f"{key} must not be empty")
    return tokens


def _unique(text: str, section: str, key: str, values: tuple) -> tuple:
    """A list key's values; one given twice would repeat every row it forms."""
    if len(set(values)) != len(values):
        raise _fail_key(text, section, key, f"{key} repeats a value")
    return values


def _read(text: str, section: str, given, key: str, p: Param):
    """The checked value of one table key: a tuple for ``many`` keys."""
    if key not in given:
        return (p.default,) if p.many else p.default
    tokens = _tokens(text, section, given, key)
    if not p.many and len(tokens) != 1:
        raise _fail_key(text, section, key, "expected a single value")
    try:
        values = tuple(p.parse(tok) for tok in tokens)
    except ValueError as exc:
        raise _fail_key(text, section, key, f"bad value: {exc}")
    for v in values:
        if not p.check(v):
            raise _fail_key(text, section, key, p.message)
    return _unique(text, section, key, values) if p.many else values[0]


def parse_config(text: str) -> SweepSpec:
    """Parse a sweep config document into a SweepSpec.  Unknown keys and
    out-of-range values fail loudly, naming the key and its line."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    allowed = {"sweep": _SWEEP_KEYS, "link": LINK_PARAMS, "mc": MC_PARAMS}
    for section in cp.sections():
        if section not in allowed:
            raise ConfigError(f"unknown section [{section}]")
    if not cp.has_section("sweep"):
        raise ConfigError("config has no [sweep] section")
    sweep = cp["sweep"]
    link = cp["link"] if cp.has_section("link") else {}
    mc = cp["mc"] if cp.has_section("mc") else {}

    if "axis" not in sweep:
        raise ConfigError("missing required key 'axis' in [sweep]")
    axis = sweep["axis"].strip()
    if axis not in AXES:
        raise _fail_key(text, "sweep", "axis", f"axis must be one of {AXES}")
    if axis in link:
        raise _fail_key(
            text, "link", axis, "the sweep axis must not also be fixed in [link]"
        )
    for section in cp.sections():
        for key in cp[section]:
            if key not in allowed[section]:
                raise _fail_key(text, section, key, "unknown key")

    for key in RANGE_PARAMS:
        if key not in sweep:
            raise ConfigError(f"missing required key '{key}' in [sweep]")
    start, stop, steps = (_read(text, "sweep", sweep, key, p)
                          for key, p in RANGE_PARAMS.items())
    axis_param = LINK_PARAMS.get(axis)
    for key, value in (("start", start), ("stop", stop)):
        if axis_param is not None and not axis_param.check(value):
            raise _fail_key(text, "sweep", key,
                            f"{axis_param.message} on the {axis} axis")
    if not start < stop:
        raise _fail_key(text, "sweep", "start", "start must be less than stop")

    sets = {}
    for key, known, default in (("metrics", METRICS, METRICS),
                                ("variants", VARIANTS, ("exact", "asymptotic"))):
        if key not in sweep:
            sets[key] = default
            continue
        tokens = tuple(_tokens(text, "sweep", sweep, key))
        for tok in tokens:
            if tok not in known:
                raise _fail_key(text, "sweep", key, f"unknown {key[:-1]} '{tok}'")
        sets[key] = _unique(text, "sweep", key, tokens)

    fixed = {key: _read(text, "link", link, key, p) for key, p in LINK_PARAMS.items()}
    fixed["lambda_mod"] = fixed.pop("lambda")
    for key, p in MC_PARAMS.items():
        fixed["mc_" + key] = _read(text, "mc", mc, key, p)
    return SweepSpec(
        axis=axis,
        start=start,
        stop=stop,
        steps=steps,
        out=sweep.get("out", "sweep.csv"),
        **sets,
        **fixed,
    )


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _linear(what: str, keys: str, compute: Callable[[], float]) -> float:
    """The linear value compute() of a link quantity; a ConfigError naming
    the keys it comes from when it leaves the positive finite doubles."""
    try:
        x = compute()
    except OverflowError:
        x = math.inf
    if not 0.0 < x < math.inf:
        raise ConfigError(
            f"{what} = {x!r} from {keys} is outside the positive finite doubles")
    return x


def _eta(p_s_dbm: float, n0_dbm: float, r_d: float, beta: float) -> float:
    """Transmit SNR factor P_s r_d^(-beta) / N_0 from dBm and geometry."""
    return _linear("eta", "p_s_dbm, n0_dbm, r_d and beta",
                   lambda: 10.0 ** ((p_s_dbm - n0_dbm) / 10.0) * r_d ** (-beta))


def _family_mc(cases, spec: SweepSpec):
    """One MC estimate per case of a (point, N, m, m_s) family.

    The family draws one sample, seeded from seed|N|m|m_s|eta: metric,
    lambda and threshold stay out of the key, so the family's MC rows are
    correlated, and no row depends on evaluation order (stable hash; the
    builtin hash() is salted per process).
    """
    cfg = cases[0][0]
    key = "|".join([
        str(spec.mc_seed), str(cfg.n_cells), f"{cfg.fading.m:.17g}",
        f"{cfg.fading.m_s:.17g}", f"{cfg.eta:.17g}",
    ])
    sub = int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")
    return mc_metrics([case[:3] for case in cases],
                      McConfig(n_samples=spec.mc_samples, seed=sub, mode=spec.mc_mode))


def _point_link(spec: SweepSpec, axis_value: float):
    """eta, cell counts and thresholds (dB) of one axis point; checks that
    eta and every threshold an outage row reads are positive doubles."""
    if spec.axis == "eta_db":
        eta = _linear("eta", f"eta_db = {axis_value!r}",
                      lambda: 10.0 ** (axis_value / 10.0))
    else:
        p_s = axis_value if spec.axis == "p_s_dbm" else spec.p_s_dbm
        eta = _eta(p_s, spec.n0_dbm, spec.r_d, spec.beta)
    gth_dbs = (axis_value,) if spec.axis == "gamma_th_db" else spec.gamma_th_db
    if OUTAGE in spec.metrics:
        for g in gth_dbs:
            _linear("gamma_th", f"gamma_th_db = {g!r}", lambda: 10.0 ** (g / 10.0))
    ns = (int(axis_value),) if spec.axis == "n_cells" else spec.n_cells
    return eta, ns, gth_dbs


def _point_rows(spec: SweepSpec, axis_value: float) -> list[list[str]]:
    """The CSV rows of one axis point: every family, metric case and variant."""
    eta, ns, gth_dbs = _point_link(spec, axis_value)
    rows = []
    for n, m, m_s in itertools.product(ns, spec.m, spec.m_s):
        cases = point_cases(eta, FadingParams(m=m, m_s=m_s), n, spec.metrics,
                            spec.lambda_mod, gth_dbs)
        if "mc" in spec.variants:
            estimates = _family_mc(cases, spec)
        for i, (cfg, metric, gth, gth_db) in enumerate(cases):
            for variant in spec.variants:
                if variant == "mc":
                    value, err = estimates[i].mean, estimates[i].std_error
                else:
                    r = evaluate(cfg, metric, variant, gth)
                    value, err = r.value, r.error_estimate
                rows.append([
                    spec.axis, _fmt(axis_value), metric, variant,
                    _fmt(n), _fmt(m), _fmt(m_s), "1",
                    _fmt(spec.r_d), _fmt(spec.beta),
                    _fmt(spec.n0_dbm), _fmt(cfg.lambda_mod), _fmt(gth_db),
                    _fmt(value), _fmt(err), _fmt(spec.mc_seed),
                ])
    return rows


def run_sweep(spec: SweepSpec, threads: int = 1, progress=None) -> list[list[str]]:
    """Evaluate the grid; returns rows in deterministic axis order."""
    values = spec.axis_values()
    for v in values:  # a point outside double range fails before any work
        _point_link(spec, float(v))
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


def _report_row(cols: dict) -> list[str]:
    """A VALIDATE_HEADER row; the columns a check does not use read nan."""
    return [_fmt(cols.get(name, math.nan)) for name in VALIDATE_HEADER]


def _check_row(c: GridCheck) -> list[str]:
    return _report_row({**vars(c), "kind": "oracle", "N": c.n_cells,
                        "lambda": c.lambda_mod, "ok": str(c.ok)})


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

    # distributional checks: single branch and model-draw sum
    ks_n = 100_000
    crit = 1.63 / math.sqrt(ks_n)
    ks_grid = [(1.0, 5.0), (4.0, 2.0)] if preset == "smoke" else [
        (1.0, 2.0), (1.0, 5.0), (4.0, 2.0), (4.0, 5.0),
    ]
    for i, (m, m_s) in enumerate(ks_grid):
        p = FadingParams(m=m, m_s=m_s)
        model = SumFadingModel(p, 8)
        for index, n, name, draw, law in (
            (7000 + i, 1, "ks_single", lambda rng: sample(p, rng, size=ks_n),
             lambda x: cdf(p, x)),
            (8000 + i, 8, "ks_model_sum",
             lambda rng: sample_sum(model, MODEL_DRAW, rng, size=ks_n),
             lambda x: sum_cdf(model, x)),
        ):
            rng = np.random.default_rng(np.random.SeedSequence((master_seed, index)))
            stat = ks_statistic(draw(rng), law)
            rows.append(_report_row({
                "kind": "ks", "index": index, "N": n, "m": m, "m_s": m_s,
                "metric": name, "mc_mean": stat, "mc_std_error": crit,
                "note": f"n={ks_n}", "ok": str(stat < crit),
            }))

    # physical vs model sampling gap (reported, bounded at 3 percent)
    gap_ns = (8,) if preset == "smoke" else (8, 16, 32)
    fading, eta_db = FadingParams(1.0, 5.0), 20.0
    for i, n in enumerate(gap_ns):
        diag = physical_model_capacity_gap(
            n, fading, eta=snr_threshold_from_db(eta_db), seed=master_seed + 9000 + i
        )
        rows.append(_report_row({
            "kind": "mode_gap", "index": 9000 + i, "N": n, "m": fading.m,
            "m_s": fading.m_s, "eta_db": eta_db, "metric": "capacity_gap",
            "rel_gap_quad": diag["rel_gap"], "mc_mean": diag["model_mean"],
            "mc_std_error": diag["physical_mean"],
            "note": f"se={diag['combined_se']:.3e}", "ok": str(diag["rel_gap"] < 0.03),
        }))

    write_csv(out, VALIDATE_HEADER, rows)
    n_fail = sum(1 for r in rows if r[-1] == "False")
    print(
        f"validate[{preset}]: {len(rows)} checks, {n_fail} failures -> {out}",
        file=sys.stderr,
    )
    return 0 if n_fail == 0 else 4


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
    """One point as a one-point sweep: the row equals the sweep's row."""
    axis = "p_s_dbm" if args.eta_db is None else "eta_db"
    x = getattr(args, axis)
    fixed = {key: (getattr(args, key),) if p.many else getattr(args, key)
             for key, p in LINK_PARAMS.items()}
    fixed["lambda_mod"] = fixed.pop("lambda")
    spec = SweepSpec(
        axis=axis, start=x, stop=x, steps=1, metrics=(args.metric,),
        variants=(args.variant,), mc_samples=args.mc_samples, mc_seed=args.seed,
        mc_mode=args.mc_mode, out="-", **fixed,
    )
    rows = _point_rows(spec, x)  # a failing point prints nothing
    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(CSV_HEADER)
    w.writerows(rows)
    return 0


def _check_flags(args) -> None:
    """Run the table checks on the flags that set a table value: the link
    flags of ``metrics`` and every ``--seed``."""
    params = {"seed": MC_PARAMS["seed"]}
    if args.command == "metrics":
        params.update(LINK_PARAMS)
    for key, p in params.items():
        value = getattr(args, key, None)
        if value is not None and not p.check(value):
            raise ConfigError(f"{p.message} (flag --{key.replace('_', '-')})")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rislink",
        description="RIS link metrics over Fisher-Snedecor F fading",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    seed, samples, mode = MC_PARAMS["seed"], MC_PARAMS["samples"], MC_PARAMS["mode"]
    modes = {"type": mode.parse, "choices": tuple(_MC_MODES.values()),
             "metavar": "{model,physical}"}

    mp = sub.add_parser("metrics", help="evaluate one point, print one CSV row")
    mp.add_argument("--metric", choices=METRICS, required=True)
    mp.add_argument("--variant", choices=VARIANTS, default="exact")
    for key, p in LINK_PARAMS.items():
        mp.add_argument("--" + key.replace("_", "-"), type=p.parse, default=p.default)
    mp.add_argument("--eta-db", type=float, default=None)
    mp.add_argument("--mc-samples", type=samples.parse, default=samples.default)
    mp.add_argument("--mc-mode", default=mode.default, **modes)
    mp.add_argument("--seed", type=seed.parse, default=seed.default)

    sp = sub.add_parser("sweep", help="run a sweep described by a config file")
    sp.add_argument("config", help="path to the sweep config")
    sp.add_argument("--out", default=None, help="output CSV (overrides config)")
    sp.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    sp.add_argument("--seed", type=seed.parse, default=None, help="override [mc] seed")
    sp.add_argument("--mc-samples", type=samples.parse, default=None)
    sp.add_argument("--mc-mode", default=None, **modes)

    vp = sub.add_parser("validate", help="run the oracle-agreement grid")
    vp.add_argument("--preset", choices=("smoke", "full"), default="smoke")
    vp.add_argument("--seed", type=seed.parse, default=seed.default)
    vp.add_argument("--out", default="validate_report.csv")
    vp.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    vp.add_argument("--mc-samples", type=samples.parse, default=None)
    vp.add_argument("--mc-mode", default=mode.default, **modes)

    sub.add_parser("selftest", help="special-function identity suite")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
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
                spec.mc_mode = args.mc_mode
            rows = run_sweep(spec, threads=args.threads)
            write_csv(spec.out, CSV_HEADER, rows)
            print(f"wrote {len(rows)} rows to {spec.out}", file=sys.stderr)
            return 0
        if args.command == "validate":
            return run_validate(
                args.preset, args.seed, args.out, threads=args.threads,
                n_samples=args.mc_samples, mode=args.mc_mode,
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
