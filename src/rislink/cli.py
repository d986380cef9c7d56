"""Command-line front end: single points, parameter sweeps, validation runs.

Sweeps are described by an INI-style config file (see README for the
schema); results land in a CSV whose rows each echo the complete
parameter tuple, so the file is reproducible from its own content plus
the seed.  The power keys and the eta_db axis become eta here; each
gamma_th_db becomes a linear threshold in validation.metric_cases.

The power axis maps to the SNR factor as

    eta = 10^((p_s_dbm - n0_dbm) / 10) * r_d^(-beta)

with n0_dbm = 0 by default; changing n0_dbm shifts power-axis curves
rigidly and affects no invariant.

Exit codes: 0 success, 2 config error, 3 numeric error, 4 validation
failure.
"""

from __future__ import annotations

import argparse
import collections
import configparser
import csv
import functools
import hashlib
import io
import itertools
import math
import os
import re
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, NumericError, positive
from .fading import MODEL_DRAW, PHYSICAL_DRAW, FadingParams
from .validation import (
    BER,
    CAPACITY,
    OUTAGE,
    PRESETS,
    REPORT_HEADER,
    BranchSums,
    McConfig,
    evaluate,
    in_row_order,
    ks_checks,
    mc_metrics,
    mode_gap_checks,
    ordered_map,
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

_MC_MODES = {"model": MODEL_DRAW, "physical": PHYSICAL_DRAW}


def integer(tok: str) -> int:
    """A whole number: "8", "8.0" and "1e1" read as 8, 8 and 10, and a plain
    integer keeps every digit, which a double would round."""
    try:
        return int(str(tok))  # the str of a float fails, where int() would truncate
    except ValueError:
        v = float(tok)
    if not v.is_integer():
        raise ValueError(f"{tok} is not an integer")
    return int(v)


def _mc_mode(tok: str) -> str:
    return _MC_MODES.get(tok.lower(), tok.lower())


@dataclass(frozen=True)
class Param:
    """One config key.  ``many`` keys may hold a list, which forms curve
    families; every value must pass ``check``, else ``message``, where
    ``{}`` names the value.  A key whose default is None is required."""

    default: object
    many: bool
    check: Callable[[object], bool]
    message: str
    parse: Callable[[str], object] = float


# The [link] keys are also the metrics flags (--n-cells ... --p-s-dbm).
LINK_PARAMS = {
    "n_cells": Param(8, True, lambda v: v >= 1, "n_cells must be >= 1", integer),
    "m": Param(1.0, True, lambda v: 0.0 < v < math.inf, "m must be positive and finite"),
    "m_s": Param(5.0, True, lambda v: 1.0 < v < math.inf, "m_s must exceed 1 and be finite"),
    "r_d": Param(1.0, False, lambda v: 0.0 < v < math.inf, "r_d must be positive and finite"),
    "beta": Param(2.7, False, lambda v: 0.0 < v < math.inf, "beta must be positive and finite"),
    "n0_dbm": Param(0.0, False, math.isfinite, "n0_dbm must be finite"),
    "lambda": Param(1.0, True, lambda v: v in (0.5, 1.0), "lambda must be 0.5 or 1"),
    "gamma_th_db": Param(3.0, True, math.isfinite, "gamma_th_db must be finite"),
    "p_s_dbm": Param(0.0, False, math.isfinite, "p_s_dbm must be finite"),
}
# The keys eta comes from off the eta_db axis; that axis sets eta itself.
POWER_KEYS = ("p_s_dbm", "n0_dbm", "r_d", "beta")
_POWER_MESSAGE = "eta_db sets eta itself, so p_s_dbm, n0_dbm, r_d and beta do not apply"
# The [sweep] keys but ``out``, which is read raw: a path may hold spaces
# or commas.  start and stop also pass the check of the axis key.
SWEEP_PARAMS = {
    "axis": Param(None, False, lambda v: v in AXES, f"axis must be one of {AXES}", str),
    "start": Param(None, False, math.isfinite, "start must be finite"),
    "stop": Param(None, False, math.isfinite, "stop must be finite"),
    "steps": Param(None, False, lambda v: v >= 2, "steps must be at least 2", integer),
    "metrics": Param(METRICS, True, lambda v: v in METRICS, "unknown metric '{}'", str),
    "variants": Param(("exact", "asymptotic"), True, lambda v: v in VARIANTS,
                      "unknown variant '{}'", str),
}
MC_PARAMS = {
    "samples": Param(100_000, False, lambda v: v >= 10_000, "mc samples must be >= 10^4",
                     integer),
    "seed": Param(42, False, lambda v: v >= 0, "seed must be a non-negative integer",
                  integer),
    "mode": Param(MODEL_DRAW, False, lambda v: v in _MC_MODES.values(),
                  "mode must be model or physical", _mc_mode),
}
THREADS = Param(os.cpu_count() or 1, False, lambda v: v >= 1, "threads must be at least 1",
                integer)
# Every flag that sets a table value, by table key: the flag, its Param and
# the commands that take it.  main reads each given flag as one value.
TABLE_FLAGS = {
    **{key: ("--" + key.replace("_", "-"), p, ("metrics",)) for key, p in LINK_PARAMS.items()},
    **{key: (flag, MC_PARAMS[key], ("metrics", "sweep", "validate"))
       for key, flag in (("seed", "--seed"), ("samples", "--mc-samples"), ("mode", "--mc-mode"))},
    "threads": ("--threads", THREADS, ("sweep", "validate")),
}


@dataclass
class SweepSpec:
    """A parameter grid: one axis, its range, outputs, and the [link] and
    [mc] values keyed as in LINK_PARAMS and MC_PARAMS (``many`` keys hold
    tuples, whose products form the curve families)."""

    axis: str
    start: float
    stop: float
    steps: int
    metrics: tuple[str, ...]
    variants: tuple[str, ...]
    link: dict
    mc: dict
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


def _key_line(text: str, section: str, key: str) -> int | None:
    """The line of ``key`` in ``[section]``, or in ``[DEFAULT]``, which every section reads."""
    pat = re.compile(r"\s*" + re.escape(key) + r"\s*[=:]", re.IGNORECASE)
    current = None
    for i, line in enumerate(text.splitlines(), start=1):
        header = re.match(r"\s*\[(.+)\]", line)
        if header:
            current = header.group(1)
        elif current in (section, "DEFAULT") and pat.match(line):
            return i
    return None


def _fail_key(text: str, section: str, key: str, msg: str | None) -> ConfigError:
    """``msg`` naming the key's line, or with no ``msg``, the key's absence."""
    if msg is None:
        return ConfigError(f"missing required key '{key}' in [{section}]")
    line = _key_line(text, section, key)
    where = f"line {line}" if line is not None else f"section [{section}]"
    return ConfigError(f"{msg} (key '{key}', {where})")


def _read(given, key: str, p: Param, fail: Callable[[str, str | None], ConfigError]):
    """The checked value of one table key, or its default when ``given``
    lacks it: a tuple for ``many`` keys, whose default may be the tuple
    itself.  ``fail(key, msg)`` is the error, naming the key's line or its
    flag; a key with no default is required."""
    if key not in given:
        if p.default is None:
            raise fail(key, None)
        return (p.default,) if p.many and not isinstance(p.default, tuple) else p.default
    tokens = given[key].replace(",", " ").split()
    if not tokens:
        raise fail(key, f"{key} must not be empty")
    if not p.many and len(tokens) != 1:
        raise fail(key, "expected a single value")
    try:
        values = tuple(p.parse(tok) for tok in tokens)
    except ValueError as exc:
        raise fail(key, f"bad value: {exc}")
    for v in values:
        if not p.check(v):
            raise fail(key, p.message.format(v))
    if not p.many:
        return values[0]
    if len(set(values)) != len(values):  # a value given twice would repeat its rows
        raise fail(key, f"{key} repeats a value")
    return values


def parse_config(text: str) -> SweepSpec:
    """Parse a sweep config document into a SweepSpec.  Unknown keys and
    out-of-range values fail loudly, naming the key and its line."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    tables = {"sweep": SWEEP_PARAMS, "link": LINK_PARAMS, "mc": MC_PARAMS}
    for section in cp.sections():
        if section not in tables:
            raise ConfigError(f"unknown section [{section}]")
    if not cp.has_section("sweep"):
        raise ConfigError("config has no [sweep] section")
    given = {section: cp[section] if cp.has_section(section) else {} for section in tables}
    axis = _read(given["sweep"], "axis", SWEEP_PARAMS["axis"],
                 functools.partial(_fail_key, text, "sweep"))
    if axis in given["link"]:
        raise _fail_key(
            text, "link", axis, "the sweep axis must not also be fixed in [link]"
        )
    for section in cp.sections():
        for key in cp[section]:
            if key not in tables[section] and (section, key) != ("sweep", "out"):
                raise _fail_key(text, section, key, "unknown key")

    def read(section: str) -> dict:
        fail = functools.partial(_fail_key, text, section)
        return {key: _read(given[section], key, p, fail) for key, p in tables[section].items()}

    sweep = read("sweep")
    axis_param = LINK_PARAMS.get(axis)
    for key in ("start", "stop"):
        if axis_param is not None and not axis_param.check(sweep[key]):
            raise _fail_key(text, "sweep", key, f"{axis_param.message} on the {axis} axis")
    if not sweep["start"] < sweep["stop"]:
        raise _fail_key(text, "sweep", "start", "start must be less than stop")
    link = read("link")
    for key in POWER_KEYS:
        if axis == "eta_db" and key in given["link"]:
            raise _fail_key(text, "link", key, _POWER_MESSAGE)
    return SweepSpec(**sweep, link=link, mc=read("mc"),
                     out=given["sweep"].get("out", "sweep.csv"))


def _fmt(x) -> str:
    if isinstance(x, (str, bool)):
        return str(x)
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
    return positive(x, f"{what} from {keys}", ConfigError)


def _eta(p_s_dbm: float, n0_dbm: float, r_d: float, beta: float) -> float:
    """Transmit SNR factor P_s r_d^(-beta) / N_0 from dBm and geometry."""
    return _linear("eta", "p_s_dbm, n0_dbm, r_d and beta",
                   lambda: 10.0 ** ((p_s_dbm - n0_dbm) / 10.0) * r_d ** (-beta))


def _family_key(spec: SweepSpec, cfg) -> str:
    """The seed key of a family's MC sample: seed|N|m|m_s|eta, or in
    physical mode seed|m|m_s|eta, where a sample of N cells is the first
    N branches of the key's one stream."""
    n = [] if spec.mc["mode"] == PHYSICAL_DRAW else [str(cfg.n_cells)]
    return "|".join([str(spec.mc["seed"]), *n, f"{cfg.fading.m:.17g}",
                     f"{cfg.fading.m_s:.17g}", f"{cfg.eta:.17g}"])


def _family_mc(cases, spec: SweepSpec, sums: dict) -> list:
    """One MC estimate per case of a (point, N, m, m_s) family, or, where
    the sample fails, its DomainError or NumericError in every case.

    The family draws one sample, seeded from its _family_key: metric,
    lambda and threshold stay out of the key, so the family's MC rows are
    correlated, and no row depends on evaluation order (stable hash; the
    builtin hash() is salted per process).  In physical mode N stays out
    too, so rows across N share branches; ``sums`` maps a key that
    several families share to its BranchSums, which draws each branch
    once.
    """
    key = _family_key(spec, cases[0][0])
    sub = int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")
    try:
        return mc_metrics(cases, McConfig(n_samples=spec.mc["samples"], seed=sub,
                                          mode=spec.mc["mode"]), sums.get(key))
    except (DomainError, NumericError) as exc:
        return [exc] * len(cases)


def _point(spec: SweepSpec, axis_value: float):
    """One axis point: its value, the [link] values with the axis key set
    to it, and each (N, m, m_s) family's point_cases.  Building it checks
    eta, every outage threshold and every channel model."""
    link = dict(spec.link)
    if spec.axis == "eta_db":
        eta = _linear("eta", f"eta_db = {axis_value!r}", lambda: 10.0 ** (axis_value / 10.0))
    else:
        p = LINK_PARAMS[spec.axis]
        value = p.parse(axis_value)  # n_cells points are whole floats
        link[spec.axis] = (value,) if p.many else value
        eta = _eta(*(link[key] for key in POWER_KEYS))
    families = [(family, point_cases(eta, FadingParams(m=family[1], m_s=family[2]), family[0],
                                     spec.metrics, link["lambda"], link["gamma_th_db"]))
                for family in itertools.product(link["n_cells"], link["m"], link["m_s"])]
    return axis_value, link, families


def _point_rows(spec: SweepSpec, sums: dict, point) -> list[list[str]]:
    """The CSV rows of one built point: every family, metric case and
    variant, with ``sums`` as in _family_mc."""
    axis_value, link, families = point
    # the columns that hold for the point, then for a family and a case,
    # are formatted once each
    axis_cols = [spec.axis, _fmt(axis_value)]
    link_cols = ["1", *(_fmt(link[key]) for key in ("r_d", "beta", "n0_dbm"))]
    seed = _fmt(spec.mc["seed"])
    # one column per variant over every family's rows: one call, which
    # batches the point's Meijer G calls, or for mc one sample per family
    cases = [case for _, family_cases in families for case in family_cases]
    columns = [[r for _, family_cases in families for r in _family_mc(family_cases, spec, sums)]
               if variant == "mc" else evaluate(cases, variant) for variant in spec.variants]
    results = iter(in_row_order(*columns))
    rows = []
    for family, family_cases in families:
        family_cols = [*map(_fmt, family), *link_cols]
        for (cfg, metric, _, gth_db), row in zip(family_cases, results):
            case_cols = [*family_cols, _fmt(cfg.lambda_mod), _fmt(gth_db)]
            for variant, r in zip(spec.variants, row):
                rows.append([*axis_cols, metric, variant, *case_cols,
                             _fmt(r.value), _fmt(r.error_estimate), seed])
    return rows


def run_sweep(spec: SweepSpec, threads: int = 1) -> list[list[str]]:
    """Evaluate the grid; returns rows in deterministic axis order and
    prints "sweep point i/n done" to stderr as each point completes."""
    points = [_point(spec, float(v)) for v in spec.axis_values()]  # each check before any work
    # a physical seed key that several families share holds one running
    # branch sum, freed after its last family
    sums = {}
    if spec.mc["mode"] == PHYSICAL_DRAW:
        uses = collections.Counter(_family_key(spec, cases[0][0]) for _, _, families in points
                                   for _, cases in families)
        sums = {key: BranchSums(calls) for key, calls in uses.items() if calls > 1}
    rows = []
    point_rows = ordered_map(functools.partial(_point_rows, spec, sums), points, threads)
    for i, group in enumerate(point_rows):
        rows += group
        print(f"sweep point {i + 1}/{len(points)} done", file=sys.stderr)
    return rows


def _check_out(path: str) -> None:
    """Fail before any work when ``path`` cannot take the output CSV: it is
    empty or a directory, or its directory does not exist.  Nothing is
    created."""
    if not path:
        raise ConfigError("output path is empty")
    if os.path.isdir(path):
        raise ConfigError(f"output path {path!r} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"output path {path!r}: no directory {parent!r}")


def write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())


def run_validate(
    preset: str,
    master_seed: int,
    out: str,
    threads: int = 1,
    n_samples: int | None = None,
    mode: str = MODEL_DRAW,
) -> int:
    """Oracle-agreement grid, KS checks and the aggregate model's capacity gap.

    Writes the report CSV, prints a summary with the wall time of each
    part to stderr and returns 0 when every check holds, 4 otherwise.
    """
    checks, parts = [], []
    for part, run in (
        ("grid", lambda: run_oracle_grid(preset, master_seed, n_samples, mode,
                                         max_workers=threads)),
        ("ks", lambda: ks_checks(preset, master_seed)),
        ("mode_gap", lambda: mode_gap_checks(preset)),
    ):
        t0 = time.perf_counter()
        checks += run()
        parts.append(f"{part} {time.perf_counter() - t0:.2f} s")
    # a Check's fields, in column order, are its __dict__; astuple would
    # deep-copy each row
    write_csv(out, REPORT_HEADER, [[_fmt(v) for v in vars(c).values()] for c in checks])
    n_fail = sum(not c.ok for c in checks)
    print(
        f"validate[{preset}]: {len(checks)} checks, {n_fail} failures -> {out} "
        f"({', '.join(parts)})",
        file=sys.stderr,
    )
    return 0 if n_fail == 0 else 4


# Meijer G kernels with elementary values, as (name, MeijerGSpec arguments,
# value): G^{1,2}_{2,2}(z | 1,1; 1,0) = ln(1+z) and
# G^{2,0}_{1,2}(z | -,1; 0,1/2) = sqrt(pi) erfc(sqrt(z))
KERNEL_IDENTITIES = (
    *((f"log kernel z={z}", ([1.0, 1.0], [], [1.0], [0.0], z), math.log1p(z))
      for z in (0.1, 1.0, 10.0, 100.0)),
    *((f"erfc kernel z={z}", ([], [1.0], [0.0, 0.5], [], z),
       math.sqrt(math.pi) * math.erfc(math.sqrt(z))) for z in (0.01, 1.0, 4.0)),
)


def selftest() -> int:
    """Special-function identity suite; prints one line per identity."""
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
    for name, args, want in KERNEL_IDENTITIES:
        check(name, meijer_g(MeijerGSpec(*args)).value, want, 1e-9)
    check("I_x(1,1) at y=1", math.exp(log_betainc(1.0, 1.0, 1.0)[0]), 0.5, 1e-12)
    check("I_x(2,1) at y=3", math.exp(log_betainc(2.0, 1.0, 3.0)[0]), 9.0 / 16.0, 1e-12)
    check("Q(0)", q_function(0.0), 0.5, 1e-14)
    return 0 if failures == 0 else 4


def _fail_flag(key: str, msg: str) -> ConfigError:
    return ConfigError(f"{msg} (flag {TABLE_FLAGS[key][0]})")


def _metrics_command(args, flags: dict) -> int:
    """One point as a one-point sweep: the row equals the sweep's row."""
    for key in POWER_KEYS:
        if key in flags and args.eta_db is not None:
            raise _fail_flag(key, _POWER_MESSAGE)
    link = {key: flags.get(key, p.default) for key, p in LINK_PARAMS.items()}
    axis, x = ("p_s_dbm", link["p_s_dbm"]) if args.eta_db is None else ("eta_db", args.eta_db)
    spec = SweepSpec(
        axis=axis, start=x, stop=x, steps=1, metrics=(args.metric,),
        variants=(args.variant,),
        link={key: (v,) if LINK_PARAMS[key].many else v for key, v in link.items()},
        mc={key: flags.get(key, p.default) for key, p in MC_PARAMS.items()}, out="-",
    )
    rows = _point_rows(spec, {}, _point(spec, x))  # a failing point prints nothing
    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(CSV_HEADER)
    w.writerows(rows)
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
    mp.add_argument("--eta-db", type=float, default=None)

    sp = sub.add_parser("sweep", help="run a sweep described by a config file")
    sp.add_argument("config", help="path to the sweep config")
    sp.add_argument("--out", default=None, help="output CSV (overrides config)")

    vp = sub.add_parser("validate", help="run the oracle-agreement grid")
    vp.add_argument("--preset", choices=tuple(PRESETS), default="smoke")
    vp.add_argument("--out", default="validate_report.csv")

    # a table flag is a raw string, absent from args when left out; its
    # dest is its table key
    commands = {"metrics": mp, "sweep": sp, "validate": vp}
    for key, (flag, _, names) in TABLE_FLAGS.items():
        for name in names:
            commands[name].add_argument(flag, dest=key, default=argparse.SUPPRESS)

    sub.add_parser("selftest", help="special-function identity suite")
    return ap


def _join_values(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """argv with each flag that takes a value joined to the next token as
    flag=token, which argparse reads as the value even where it looks like
    an option (-1e1, -inf).  No option string is joined, so a flag left
    without a value still fails."""
    (commands,) = [a.choices for a in parser._actions if isinstance(a.choices, dict)]
    takes_value = {flag: a.nargs is None for p in (parser, *commands.values())
                   for a in p._actions for flag in a.option_strings}
    out = []
    for tok in argv:
        if out and takes_value.get(out[-1]) and tok.split("=")[0] not in takes_value:
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_values(parser, sys.argv[1:] if argv is None else argv))
    try:
        given = vars(args)
        # each flag is one value, and its failure names the flag
        flags = {key: _read(given, key, replace(p, many=False), _fail_flag)
                 for key, (_, p, _) in TABLE_FLAGS.items() if key in given}
        threads = flags.get("threads", THREADS.default)
        if args.command == "metrics":
            return _metrics_command(args, flags)
        if args.command == "sweep":
            with open(args.config) as fh:
                text = fh.read()
            spec = parse_config(text)
            if args.out is not None:
                spec.out = args.out
            spec.mc.update((key, flags[key]) for key in MC_PARAMS if key in flags)
            _check_out(spec.out)
            rows = run_sweep(spec, threads=threads)
            write_csv(spec.out, CSV_HEADER, rows)
            print(f"wrote {len(rows)} rows to {spec.out}", file=sys.stderr)
            return 0
        if args.command == "validate":
            _check_out(args.out)
            # with no --mc-samples, each preset draws its own count
            return run_validate(args.preset, flags.get("seed", MC_PARAMS["seed"].default),
                                args.out, threads=threads, n_samples=flags.get("samples"),
                                mode=flags.get("mode", MC_PARAMS["mode"].default))
        if args.command == "selftest":
            return selftest()
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, DomainError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
