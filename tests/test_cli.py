"""CLI: config parsing, sweep output, validation runner, exit codes."""

import argparse
import collections
import csv
import dataclasses
import io
import itertools
import math
import os
import re
import subprocess
import sys
import textwrap

import pytest

import rislink
from rislink import cli, fading, specfun, validation
from rislink.cli import (
    CSV_HEADER,
    LINK_PARAMS,
    SWEEP_PARAMS,
    SweepSpec,
    build_parser,
    main,
    parse_config,
    run_sweep,
    run_validate,
    selftest,
    write_csv,
)
from rislink.errors import ConfigError, DomainError, NumericError
from rislink.fading import MODEL_DRAW, PHYSICAL_DRAW, FadingParams
from rislink.metrics import BER_BOUND, OUTAGE_BOUND, LinkConfig, avg_ber, capacity_bound
from rislink.validation import PRESETS

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

MINIMAL = """
[sweep]
axis = eta_db
start = 0
stop = 20
steps = 3
"""

FIG_BER_STYLE = """
[sweep]
axis = p_s_dbm
start = -10
stop = 30
steps = 41
metrics = ber
variants = exact

[link]
n_cells = 8, 16
m = 1
lambda = 0.5, 1
"""


class TestParseConfig:
    def test_minimal_defaults(self):
        spec = parse_config(MINIMAL)
        assert isinstance(spec, SweepSpec)
        assert spec.axis == "eta_db"
        assert spec.steps == 3
        assert spec.link["m"] == (1.0,)
        assert spec.link["m_s"] == (5.0,)
        assert spec.link["r_d"] == 1.0
        assert spec.link["beta"] == 2.7
        assert spec.link["n0_dbm"] == 0.0
        assert spec.metrics == ("capacity", "ber", "outage")
        assert spec.variants == ("exact", "asymptotic")

    def test_shadowing_range_enforced(self):
        text = MINIMAL + "\n[link]\nm_s = 0.5\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "m_s must exceed 1" in str(err.value)
        assert "m_s" in str(err.value)

    def test_unknown_key_named_with_line(self):
        text = MINIMAL + "\n[link]\nfrobnicate = 3\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        msg = str(err.value)
        assert "frobnicate" in msg and "line" in msg
        # a key is looked for in its own section: m on line 7 is a [link] key
        text = ("[sweep]\naxis = eta_db\nstart = 0\nstop = 1\nsteps = 3\n"
                "[link]\nm = 1\n[mc]\nm = 2\n")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == "unknown key (key 'm', line 9)"
        # configparser puts a [DEFAULT] key in every section
        with pytest.raises(ConfigError) as err:
            parse_config("[DEFAULT]\nsamples = 20000\n" + MINIMAL)
        assert str(err.value) == "unknown key (key 'samples', line 2)"

    def test_unknown_section(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "\n[plotting]\nstyle = dark\n")

    def test_axis_also_fixed_rejected(self):
        text = MINIMAL + "\n[link]\neta_db = 10\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "axis" in str(err.value)

    def test_missing_axis(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[sweep]\nstart = 0\nstop = 1\nsteps = 2\n")
        assert "axis" in str(err.value)

    def test_reversed_range(self):
        with pytest.raises(ConfigError):
            parse_config("[sweep]\naxis = eta_db\nstart = 10\nstop = 0\nsteps = 2\n")

    def test_empty_metrics_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL.replace("steps = 3", "steps = 3\nmetrics ="))

    def test_figure_style_families(self):
        spec = parse_config(FIG_BER_STYLE)
        assert spec.link["n_cells"] == (8, 16)
        assert spec.link["lambda"] == (0.5, 1.0)
        assert spec.metrics == ("ber",)

    def test_bad_mc_values_are_config_errors(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "\n[mc]\nsamples = many\n")
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "\n[mc]\nseed = 0x2a\n")
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "\n[mc]\nsamples = 100\n")
        with pytest.raises(ConfigError, match="bad value: 10000.5 is not an integer"):
            parse_config(MINIMAL + "\n[mc]\nsamples = 10000.5\n")
        with pytest.raises(ConfigError, match="bad value: 1e400 is not an integer"):
            parse_config(MINIMAL + "\n[mc]\nseed = 1e400\n")

    def test_whole_number_keys_read_through_integer(self):
        # steps and the [mc] counts read as n_cells does: 1e1 is 10, and a
        # plain integer keeps the digits a double would round
        spec = parse_config(MINIMAL.replace("steps = 3", "steps = 1e1")
                            + "\n[mc]\nsamples = 1e5\nseed = 12345678901234567891\n")
        assert (spec.steps, spec.mc["samples"]) == (10, 100_000)
        assert spec.mc["seed"] == 12345678901234567891

    def test_bare_link_config(self):
        # a config without [sweep] is not a sweep; single points go through
        # the metrics subcommand
        with pytest.raises(ConfigError) as err:
            parse_config("[link]\nn_cells = 4\nm = 2\nm_s = 3\np_s_dbm = 10\n")
        assert "[sweep]" in str(err.value)

    def test_g_bar_rejected_with_line(self):
        # only physical-mode MC would read a branch mean, so the schema has none
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "\n[link]\ng_bar = 2\n")
        msg = str(err.value)
        assert "g_bar" in msg and "line 9" in msg

    def test_mc_mode_spellings(self):
        for raw, mode in (("model", "model_draw"), ("Physical", "physical_draw"),
                          ("physical_draw", "physical_draw")):
            assert parse_config(MINIMAL + f"\n[mc]\nmode = {raw}\n").mc["mode"] == mode
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "\n[mc]\nmode = both\n")

    def test_link_eta_db_is_unknown(self):
        # eta_db is an axis, never a fixed [link] value
        text = MINIMAL.replace("axis = eta_db", "axis = p_s_dbm") + "\n[link]\neta_db = 40\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "unknown key" in str(err.value)
        assert "'eta_db', line 9" in str(err.value)

    @pytest.mark.parametrize("key", ["m", "n_cells", "r_d"])
    def test_empty_link_value_rejected(self, key):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + f"\n[link]\n{key} =\n")
        assert f"'{key}', line 9" in str(err.value)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "\n[mc]\nseed = -1\n")
        assert "'seed', line 9" in str(err.value)


# one out-of-range value per [link] key; the same value as a metrics flag.
# An infinite m or m_s used to fail only in the channel model, naming no
# key, and beta = inf at r_d = 1 printed a row, since 1^-inf = 1
BAD_LINK_VALUES = [
    ("n_cells", "0"), ("m", "0"), ("m", "inf"), ("m_s", "1"), ("m_s", "inf"),
    ("r_d", "-1"), ("r_d", "0"), ("r_d", "inf"), ("beta", "-1"), ("beta", "inf"),
    ("n0_dbm", "inf"), ("lambda", "0.7"), ("gamma_th_db", "nan"), ("p_s_dbm", "inf"),
]


def test_bad_link_values_cover_the_table():
    assert {key for key, _ in BAD_LINK_VALUES} == set(LINK_PARAMS)


@pytest.mark.parametrize("key,bad", BAD_LINK_VALUES)
def test_bad_link_value_fails_as_key_and_as_flag(key, bad, capsys):
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + f"\n[link]\n{key} = {bad}\n")
    assert f"{LINK_PARAMS[key].message} (key '{key}', line 9)" in str(err.value)
    flag = "--" + key.replace("_", "-")
    assert main(["metrics", "--metric", "capacity", flag, bad]) == 2
    assert capsys.readouterr().err == (
        f"config error: {LINK_PARAMS[key].message} (flag {flag})\n"
    )


@pytest.mark.parametrize("command", [
    ["validate", "--preset", "smoke"], ["sweep", "unused.ini"],
    ["metrics", "--metric", "ber"],
])
def test_negative_seed_flag_exits_2(command, capsys):
    assert main([*command, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == (
        "config error: seed must be a non-negative integer (flag --seed)\n"
    )


# the [mc] keys as flags of every command: the same check and message as
# the key, on every variant; the samples bound once held only for rows that
# draw, and a bad mode was an argparse usage error
@pytest.mark.parametrize("key,bad", [("samples", "5000"), ("mode", "both")])
@pytest.mark.parametrize("command", [
    ["validate", "--preset", "smoke"], ["sweep", "unused.ini"],
    ["metrics", "--metric", "ber"], ["metrics", "--metric", "ber", "--variant", "mc"],
])
def test_bad_mc_value_fails_as_key_and_as_flag(command, key, bad, capsys):
    message = cli.MC_PARAMS[key].message
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + f"\n[mc]\n{key} = {bad}\n")
    assert str(err.value) == f"{message} (key '{key}', line 9)"
    flag = cli.TABLE_FLAGS[key][0]
    assert main([*command, flag, bad]) == 2
    assert capsys.readouterr() == ("", f"config error: {message} (flag {flag})\n")


# a malformed table flag is a config error naming the flag, as a malformed
# key is (it was an argparse usage error), and a flag takes one value
COMMAND_ARGS = {"metrics": ["metrics", "--metric", "ber"], "sweep": ["sweep", "unused.ini"],
                "validate": ["validate", "--preset", "smoke"]}


@pytest.mark.parametrize("key,command", [(key, command)
                                         for key, (_, _, commands) in cli.TABLE_FLAGS.items()
                                         for command in commands])
def test_malformed_table_flag_is_a_config_error(key, command, capsys):
    flag, p, _ = cli.TABLE_FLAGS[key]
    argv = [*COMMAND_ARGS[command], flag]
    assert main([*argv, "1 2"]) == 2
    assert capsys.readouterr().err == f"config error: expected a single value (flag {flag})\n"
    if p.parse is not cli._mc_mode:  # a mode token always parses, and fails its check
        assert main([*argv, "x"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: bad value: ") and err.endswith(f" (flag {flag})\n")
    if p.parse is cli.integer:
        assert main([*argv, "2.5"]) == 2
        assert capsys.readouterr().err == (
            f"config error: bad value: 2.5 is not an integer (flag {flag})\n")


@pytest.mark.parametrize("tok,want", [("8", 8), ("8.0", 8), ("1e1", 10), ("-0", 0),
                                      ("12345678901234567891", 12345678901234567891)])
def test_integer_reads_whole_numbers(tok, want):
    assert cli.integer(tok) == want


@pytest.mark.parametrize("tok", ["2.5", "inf", "nan", "1e400", "0x2a", "x", ""])
def test_integer_rejects_the_rest(tok):
    with pytest.raises(ValueError):
        cli.integer(tok)


def test_whole_number_flags_read_through_integer(capsys):
    row = _metrics_row(capsys, "--metric", "capacity", "--variant", "mc",
                       "--mc-samples", "1e4", "--seed", "12345678901234567891")
    assert row["seed"] == "12345678901234567891"


# a value that argparse alone takes for an option, such as -1e1 or -inf,
# reaches its flag's reader as it does after "="
@pytest.mark.parametrize("flag,value,code,err", [
    ("--eta-db", "-1e1", 0, ""),
    ("--n0-dbm", "-inf", 2, "config error: n0_dbm must be finite (flag --n0-dbm)\n"),
    ("--m", "-1e1", 2, "config error: m must be positive and finite (flag --m)\n"),
])
def test_option_like_value_reaches_its_reader(flag, value, code, err, capsys):
    outs = []
    for argv in ([flag, value], [f"{flag}={value}"]):
        assert main(["metrics", "--metric", "capacity", *argv]) == code
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1] and outs[0].err == err
    assert outs[0].out.count("\n") == (2 if code == 0 else 0)


def test_flag_followed_by_a_flag_is_a_usage_error(capsys):
    # an option string is never taken for the value before it
    with pytest.raises(SystemExit) as exc:
        main(["metrics", "--metric", "capacity", "--m", "--n-cells", "8"])
    assert exc.value.code == 2
    assert "argument --m: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-1"])
@pytest.mark.parametrize("command", [["validate", "--preset", "smoke"], ["sweep", "unused.ini"]])
def test_threads_below_one_exits_2(command, threads, capsys):
    assert main([*command, "--threads", threads]) == 2
    assert capsys.readouterr().err == (
        "config error: threads must be at least 1 (flag --threads)\n"
    )


def test_config_path_that_is_a_directory_exits_2(tmp_path, capsys):
    assert main(["sweep", str(tmp_path), "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err


def test_out_path_that_is_a_directory_exits_2(tmp_path, capsys):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(MINIMAL)
    assert main(["sweep", str(cfg), "--out", str(tmp_path), "--threads", "1"]) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("config error: ")


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unwritable_sweep_out_fails_before_any_point(where, tmp_path, capsys):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(MINIMAL)
    out = tmp_path if where == "directory" else tmp_path / "no" / "out.csv"
    assert main(["sweep", str(cfg), "--out", str(out), "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: output path ") and "sweep point" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.ini"]


@pytest.mark.parametrize("how", ["flag", "config"])
def test_empty_sweep_out_fails_before_any_point(how, tmp_path, capsys):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(MINIMAL + "out =\n" if how == "config" else MINIMAL)
    flags = ["--out", ""] if how == "flag" else []
    assert main(["sweep", str(cfg), *flags, "--threads", "1"]) == 2
    assert capsys.readouterr().err == "config error: output path is empty\n"


def test_empty_validate_out_fails_before_the_grid(monkeypatch, capsys):
    def grid(*args, **kwargs):
        raise AssertionError("the oracle grid ran")

    monkeypatch.setattr(cli, "run_oracle_grid", grid)
    assert main(["validate", "--preset", "smoke", "--out", ""]) == 2
    assert capsys.readouterr().err == "config error: output path is empty\n"


# off the eta_db axis these keys make eta; on it they would be echoed
# into every row and change nothing
POWER_KEYS = ["p_s_dbm", "n0_dbm", "r_d", "beta"]
NOT_ON_ETA_DB = "eta_db sets eta itself, so p_s_dbm, n0_dbm, r_d and beta do not apply"


@pytest.mark.parametrize("key", POWER_KEYS)
def test_power_key_on_eta_db_axis_fails_as_key_and_as_flag(key, capsys):
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + f"\n[link]\n{key} = 3\n")
    assert str(err.value) == f"{NOT_ON_ETA_DB} (key '{key}', line 9)"
    flag = "--" + key.replace("_", "-")
    assert main(["metrics", "--metric", "capacity", "--eta-db", "10", flag, "3"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"config error: {NOT_ON_ETA_DB} (flag {flag})\n")
    assert main(["metrics", "--metric", "capacity", flag, "3"]) == 0


def test_unwritable_validate_out_fails_before_the_grid(tmp_path, monkeypatch, capsys):
    def grid(*args, **kwargs):
        raise AssertionError("the oracle grid ran")

    monkeypatch.setattr(cli, "run_oracle_grid", grid)
    assert main(["validate", "--preset", "smoke", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: output path ")


def test_preset_choices_are_the_preset_table():
    ap = build_parser()
    (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    (preset,) = [a for a in sub.choices["validate"]._actions if a.dest == "preset"]
    assert tuple(preset.choices) == tuple(PRESETS)


# rows per kind and the index of each; ok is left out, since 10^4-draw MC
# bands are statistical
REPORT_SHAPES = {
    "smoke": {"oracle": (40, set(range(8))), "ks": (4, {7000, 7001, 8000, 8001}),
              "mode_gap": (1, {9000})},
    "full": {"oracle": (320, set(range(64))),
             "ks": (8, {7000, 7001, 7002, 7003, 8000, 8001, 8002, 8003}),
             "mode_gap": (3, {9000, 9001, 9002})},
}


@pytest.mark.parametrize("preset", sorted(REPORT_SHAPES))
def test_validate_report_shape(preset, tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert run_validate(preset, 42, str(out), threads=1, n_samples=10_000) in (0, 4)
    rows = list(csv.DictReader(out.open()))
    shape = {}
    for r in rows:
        count, indexes = shape.get(r["kind"], (0, set()))
        shape[r["kind"]] = (count + 1, indexes | {int(r["index"])})
    assert shape == REPORT_SHAPES[preset]
    assert {r["ok"] for r in rows} <= {"True", "False"}
    assert f"validate[{preset}]: {len(rows)} checks" in capsys.readouterr().err


def test_validate_summary_times_its_parts(tmp_path, capsys):
    out = tmp_path / "report.csv"
    run_validate("smoke", 42, str(out), n_samples=10_000)
    summary = capsys.readouterr().err.strip()
    assert re.fullmatch(
        rf"validate\[smoke\]: 45 checks, \d+ failures -> {re.escape(str(out))} "
        r"\(grid \d+\.\d\d s, ks \d+\.\d\d s, mode_gap \d+\.\d\d s\)", summary)


def test_validate_zero_samples_is_not_the_default(tmp_path):
    with pytest.raises(DomainError):
        run_validate("smoke", 42, str(tmp_path / "report.csv"), n_samples=0)


# metrics flags and sweep ranges whose linear value leaves the doubles, and
# the keys the error must name
OUT_OF_DOUBLES = [
    (["--metric", "capacity", "--p-s-dbm", "4000"], "p_s_dbm, n0_dbm, r_d and beta"),
    (["--metric", "capacity", "--r-d", "1e-200"], "p_s_dbm, n0_dbm, r_d and beta"),
    (["--metric", "capacity", "--p-s-dbm", "-4000"], "p_s_dbm, n0_dbm, r_d and beta"),
    (["--metric", "capacity", "--eta-db", "4000"], "eta_db"),
    (["--metric", "capacity", "--eta-db", "-4000"], "eta_db"),
    (["--metric", "capacity", "--eta-db", "inf"], "eta_db"),
    (["--metric", "outage", "--gamma-th-db", "4000"], "gamma_th_db"),
    (["--metric", "outage", "--gamma-th-db", "-4000"], "gamma_th_db"),
    ("axis = eta_db\nstart = 0\nstop = 5000\nsteps = 3", "eta_db"),
    ("axis = p_s_dbm\nstart = 0\nstop = 5000\nsteps = 3",
     "p_s_dbm, n0_dbm, r_d and beta"),
    ("axis = gamma_th_db\nstart = 0\nstop = 5000\nsteps = 3\nmetrics = outage",
     "gamma_th_db"),
]


@pytest.mark.parametrize("args,keys", OUT_OF_DOUBLES,
                         ids=[" ".join(a) if isinstance(a, list) else a.split("\n")[0]
                              + " sweep" for a, _ in OUT_OF_DOUBLES])
def test_value_outside_doubles_is_a_config_error(args, keys, tmp_path, capsys):
    if isinstance(args, str):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(f"[sweep]\n{args}\n")
        args = ["sweep", str(cfg), "--out", str(tmp_path / "out.csv"), "--threads", "1"]
    else:
        args = ["metrics", *args]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")
    assert f"from {keys}" in captured.err
    assert not (tmp_path / "out.csv").exists()


# metrics flags whose channel model leaves double range: N m overflows, or
# xi = m/(N m_s) underflows
MODEL_OUTSIDE_DOUBLES = [["--m", "1e308"], ["--m", "1e-300", "--m-s", "1e30", "--n-cells", "1"]]


@pytest.mark.parametrize("flags", MODEL_OUTSIDE_DOUBLES, ids=" ".join)
def test_model_outside_doubles_is_a_config_error_on_every_route(flags, capsys):
    for variant in cli.VARIANTS:
        for metric in cli.METRICS:
            assert main(["metrics", "--metric", metric, "--variant", variant, *flags,
                         "--mc-samples", "10000"]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("config error: n_cells = ")
            assert " m = " in err and " m_s = " in err


def test_outage_fraction_outside_doubles_is_a_numeric_error(capsys):
    # the model is in range, but the incomplete beta fraction comes out negative
    assert main(["metrics", "--metric", "outage", "--m", "1e30", "--m-s", "1.0000001",
                 "--n-cells", "1024"]) == 3
    assert capsys.readouterr().err.startswith(
        "numeric error: incomplete beta continued fraction is -0.00195")


# metrics flags where a route's error bound exceeds its value (capacity
# at m = 1e14, outage at m = 1e16), or where the outage's incomplete beta
# tail has a bound of 1e7 relative or more and underflows, so that
# 1 - tail would read 1: each misses the accuracy target and exits 3
MISSED_TARGET = [
    (["--metric", "capacity", "--m", "1e14", "--eta-db", "0"], "closed_form relative error"),
    (["--metric", "capacity", "--variant", "quadrature", "--m", "1e14", "--eta-db", "0"],
     "quadrature relative error"),
    (["--metric", "outage", "--m", "1e16"], "closed_form relative error"),
    (["--metric", "outage", "--m", "1e300"], "incomplete beta tail has relative error"),
    (["--metric", "outage", "--m", "1e20", "--gamma-th-db", "3.0103"],
     "incomplete beta tail has relative error"),
    # at the double-range edge: a complement tail whose log value passes
    # 709, which exp() cannot take (was a traceback); asymptotes whose
    # log-gamma terms overflow, to a nan log value that read as 0 +- 0;
    # an MC draw past double range (was inf +- nan); and closed forms at
    # N(m + m_s) past 1/eps, which warned before they raised
    (["--metric", "outage", "--m", "1e14", "--m-s", "1e30", "--n-cells", "1", "--eta-db", "0"],
     "incomplete beta complement lost to rounding"),
    (["--metric", "ber", "--variant", "asymptotic", "--m", "1e308", "--m-s", "1.0000001",
      "--n-cells", "1"], "asymptote log-gamma term overflows"),
    (["--metric", "outage", "--variant", "asymptotic", "--m", "1e308", "--m-s", "1.0000001",
      "--n-cells", "1"], "asymptote log-gamma term overflows"),
    # and a finite argument whose log-gamma overflows, where math.lgamma
    # raises OverflowError
    (["--metric", "ber", "--variant", "asymptotic", "--m", "1e306", "--m-s", "1.0000001",
      "--n-cells", "1"], "asymptote log-gamma term overflows"),
    (["--metric", "capacity", "--variant", "mc", "--m", "1e-5", "--m-s", "1e300",
      "--n-cells", "1024", "--eta-db", "0", "--mc-samples", "10000"], "MC draws at N m"),
    (["--metric", "capacity", "--m", "1e308", "--m-s", "50", "--n-cells", "1"],
     "closed form capacity shape N(m + m_s) = 1.000e+308 exceeds 1/eps"),
    (["--metric", "ber", "--m", "1e300", "--m-s", "50", "--n-cells", "1"],
     "closed form BER shape N(m + m_s) = 1.000e+300 exceeds 1/eps"),
    # a BER parameter N m - 1 that rounds to -1 (was a pole collision,
    # exit 2), and a Meijer G argument past double range, which the
    # Meijer G spec rejected (exit 2) and the capacity asymptote printed
    # as inf
    (["--metric", "ber", "--m", "1e-300", "--m-s", "50", "--n-cells", "1", "--eta-db", "0"],
     "closed form BER parameter N m - 1 = -1.0 at N m = 1e-300 puts a rounding error"),
    # and one that rounds within the target but leaves the poles no gap
    # the contour takes (was a config error naming the pole gap)
    (["--metric", "ber", "--m", "1e-9", "--n-cells", "1", "--eta-db", "0"],
     "closed form BER pole gap 9.999999717180685e-10 at N m = 1e-09 is not above the "
     "Meijer G contour's 1e-09"),
    (["--metric", "capacity", "--m", "1e-300", "--m-s", "50", "--n-cells", "1024",
      "--eta-db", "60"],
     "closed form capacity argument eta/xi is inf, outside the positive finite doubles"),
    (["--metric", "capacity", "--variant", "asymptotic", "--m", "1e-300", "--m-s", "1e10",
      "--n-cells", "1"],
     "capacity asymptote argument eta/xi is inf, outside the positive finite doubles"),
    (["--metric", "ber", "--eta-db", "-3200"],
     "closed form BER argument xi/(eta lambda) is inf, outside the positive finite doubles"),
    # the asymptotes at the same input printed inf with an error of nan
    (["--metric", "ber", "--variant", "asymptotic", "--eta-db", "-3200"],
     "BER asymptote argument xi/(eta lambda) is inf, outside the positive finite doubles"),
    (["--metric", "outage", "--variant", "asymptotic", "--eta-db", "-3200"],
     "outage asymptote argument gamma_th xi/eta is inf, outside the positive finite doubles"),
    # and an argument that underflows to 0 (was a math domain error traceback)
    (["--metric", "ber", "--variant", "asymptotic", "--eta-db", "3000", "--m-s", "1e300",
      "--n-cells", "1024"],
     "BER asymptote argument xi/(eta lambda) is 0.0, outside the positive finite doubles"),
    (["--metric", "outage", "--variant", "asymptotic", "--eta-db", "3000", "--m-s", "1e300",
      "--n-cells", "1024"],
     "outage asymptote argument gamma_th xi/eta is 0.0, outside the positive finite doubles"),
]


@pytest.mark.parametrize("flags,message", MISSED_TARGET,
                         ids=[" ".join(flags) for flags, _ in MISSED_TARGET])
def test_value_missing_the_accuracy_target_is_a_numeric_error(flags, message, capsys):
    assert main(["metrics", *flags]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"numeric error: {message}")


# points where the step-halving rule's first pass runs past the nodes its
# caller evaluated, as (flags, reference value, relative tolerance):
#  - the BER contour's cut at t = 256 lies past the rule nodes of the
#    probes' call, so the rule's first call evaluates the rest of its first
#    pass (a line left above the saddle would miss 6.596e-103);
#  - the outage's support closes past the quadrature walk's reach, so the
#    rule evaluates the oracle's whole first pass
PAST_THE_HEAD = [
    (["--metric", "ber", "--n-cells", "840", "--m", "2.1884038005191497",
      "--m-s", "30.567624431206692", "--eta-db", "-5.306341648101807"],
     6.596053434e-103, 1e-6),
    (["--metric", "outage", "--n-cells", "1", "--m", "4.627121762667704",
      "--m-s", "2.606606995954251", "--eta-db", "1.3079850375652313",
      "--gamma-th-db", "9.714494906365871"], 0.979310369394743, 1e-12),
]


@pytest.mark.parametrize("flags,reference,rel", PAST_THE_HEAD,
                         ids=[flags[1] for flags, _, _ in PAST_THE_HEAD])
def test_first_pass_past_the_head_agrees_across_routes(flags, reference, rel, capsys):
    exact, quad = (_metrics_row(capsys, *flags, "--variant", variant)
                   for variant in ("exact", "quadrature"))
    (v, e), (w, f) = ((float(r["value"]), float(r["error_estimate"])) for r in (exact, quad))
    assert abs(v - w) <= e + f
    assert abs(v / reference - 1.0) < rel


# route arguments that leave the positive finite doubles: eta lambda
# underflows to 0 (was a ZeroDivisionError or ValueError traceback), and
# the outage oracle's gamma_th/eta underflows (was a ValueError traceback)
# or overflows (was an error naming the peak search)
ARGUMENT_OUTSIDE_DOUBLES = [
    (["--metric", "ber", "--variant", "exact", "--lambda", "0.5", "--eta-db", "-3233"],
     "closed form BER argument eta lambda is 0.0"),
    (["--metric", "ber", "--variant", "asymptotic", "--lambda", "0.5", "--eta-db", "-3233"],
     "BER asymptote argument eta lambda is 0.0"),
    (["--metric", "ber", "--variant", "quadrature", "--lambda", "0.5", "--eta-db", "-3233"],
     "BER quadrature argument eta lambda is 0.0"),
    (["--metric", "outage", "--variant", "quadrature", "--gamma-th-db", "-3200",
      "--eta-db", "3000"], "outage quadrature argument gamma_th/eta is 0.0"),
    (["--metric", "outage", "--variant", "quadrature", "--eta-db", "-3200"],
     "outage quadrature argument gamma_th/eta is inf"),
]


@pytest.mark.parametrize("flags,argument", ARGUMENT_OUTSIDE_DOUBLES,
                         ids=[" ".join(flags) for flags, _ in ARGUMENT_OUTSIDE_DOUBLES])
def test_route_argument_outside_doubles_is_a_numeric_error(flags, argument, capsys):
    assert main(["metrics", *flags]) == 3
    assert capsys.readouterr() == (
        "", f"numeric error: {argument}, outside the positive finite doubles\n")


def test_threshold_outside_doubles_ignored_without_outage(capsys):
    # only outage reads gamma_th_db
    assert main(["metrics", "--metric", "capacity", "--gamma-th-db", "4000"]) == 0
    assert capsys.readouterr().out.count("\n") == 2


# a bad [sweep] range or list value, and the key and line it must name
BAD_SWEEP = [
    ("axis = foo\nstart = 0\nstop = 1\nsteps = 3", "axis must be one of", "'axis', line 2"),
    ("axis = eta_db\nstart = 0\nstop = inf\nsteps = 3", "stop must be finite", "'stop', line 4"),
    ("axis = eta_db\nstart = nan\nstop = 1\nsteps = 3", "start must be finite",
     "'start', line 3"),
    ("axis = p_s_dbm\nstart = -inf\nstop = 1\nsteps = 3", "start must be finite",
     "'start', line 3"),
    ("axis = n_cells\nstart = 0\nstop = 4\nsteps = 3", "n_cells must be >= 1",
     "'start', line 3"),
    ("axis = eta_db\nstart = 0\nstop = 1\nsteps = two", "bad value", "'steps', line 5"),
    ("axis = eta_db\nstart = 0\nstop = 1\nsteps = 2.5", "bad value: 2.5 is not an integer",
     "'steps', line 5"),
    ("axis = eta_db\nstart = 0\nstop = 1\nsteps = 1", "steps must be at least 2",
     "'steps', line 5"),
    ("axis = eta_db\nstart = 0\nstop = 1\nsteps = 3\nmetrics = capacity, capacity",
     "metrics repeats a value", "'metrics', line 6"),
    ("axis = eta_db\nstart = 0\nstop = 1\nsteps = 3\nvariants = exact exact",
     "variants repeats a value", "'variants', line 6"),
    ("axis = eta_db\nstart = 0\nstop = 1\nsteps = 3\nmetrics = capacity, snr",
     "unknown metric 'snr'", "'metrics', line 6"),
    ("axis = eta_db\nstart = 0\nstop = 1\nsteps = 3\nvariants = exact, oracle",
     "unknown variant 'oracle'", "'variants', line 6"),
    ("axis = eta_db\nstart = 0\nstop = 1\nsteps = 3\n[link]\nn_cells = 8, 8.0",
     "n_cells repeats a value", "'n_cells', line 7"),
    ("axis = eta_db\nstart = 0\nstop = 1\nsteps = 3\n[link]\nlambda = 1, 0.5, 1",
     "lambda repeats a value", "'lambda', line 7"),
    ("axis = p_s_dbm\nstart = 0\nstop = 1\nsteps = 3\n[link]\ngamma_th_db = 3, 3.0",
     "gamma_th_db repeats a value", "'gamma_th_db', line 7"),
]


def test_bad_sweep_values_cover_the_table():
    assert set(SWEEP_PARAMS) <= {where.split("'")[1] for _, _, where in BAD_SWEEP}


@pytest.mark.parametrize("body,message,where", BAD_SWEEP, ids=[m for _, m, _ in BAD_SWEEP])
def test_bad_sweep_value_named_with_line(body, message, where):
    with pytest.raises(ConfigError) as err:
        parse_config(f"[sweep]\n{body}\n")
    assert message in str(err.value)
    assert where in str(err.value)


# a sweep that parses but fails before any point is computed, and the
# start of its message: a channel model of the second point (N m = 1e309),
# an n_cells axis that rounds two points to one, a key before any section
# header and a key given twice
SWEEP_FAILS_BEFORE_ANY_POINT = [
    ("[sweep]\naxis = n_cells\nstart = 1\nstop = 1e10\nsteps = 2\nmetrics = capacity\n"
     "variants = asymptotic\n[link]\nm = 1e299\n",
     "n_cells = 10000000000, m = 1e+299 and m_s = 5.0 put N m, N m_s or xi = m/(N m_s) "
     "outside the positive finite doubles\n"),
    ("[sweep]\naxis = n_cells\nstart = 1\nstop = 2\nsteps = 5\n",
     "n_cells axis produced duplicate integers; adjust start/stop/steps\n"),
    ("axis = eta_db\n[sweep]\nstart = 0\nstop = 1\nsteps = 3\n",
     "malformed config: File contains no section headers."),
    ("[sweep]\naxis = eta_db\naxis = p_s_dbm\nstart = 0\nstop = 1\nsteps = 3\n",
     "malformed config: While reading from '<string>' [line  3]: option 'axis' in "
     "section 'sweep' already exists\n"),
]


@pytest.mark.parametrize("text,message", SWEEP_FAILS_BEFORE_ANY_POINT,
                         ids=["late model", "duplicate n_cells", "no header", "repeated key"])
@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_config_error_fails_before_any_point(text, message, threads, tmp_path, capsys):
    cfg, out = tmp_path / "sweep.ini", tmp_path / "out.csv"
    cfg.write_text(text)
    assert main(["sweep", str(cfg), "--out", str(out), "--threads", threads]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"config error: {message}")
    assert "sweep point" not in captured.err
    assert not out.exists()


def test_n_cells_axis_past_int64(tmp_path, capsys):
    # the axis rounds in exact integers: an int64 cast once wrapped 1e20 to
    # -2^63, warned (an error under the suite's RuntimeWarning filter), and
    # failed on an N that no key gave
    cfg, out = tmp_path / "sweep.ini", tmp_path / "out.csv"
    cfg.write_text("[sweep]\naxis = n_cells\nstart = 1\nstop = 1e20\nsteps = 2\n"
                   "metrics = capacity\nvariants = asymptotic\n")
    assert main(["sweep", str(cfg), "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert [(r["N"], r["metric"], r["variant"]) for r in rows] == [
        ("1", "capacity", "asymptotic"), ("100000000000000000000", "capacity", "asymptotic")]
    assert all(0.0 < float(r["value"]) < math.inf for r in rows[1:])


def test_edge_domain_scan(capsys):
    # every route at the accepted domain's edges either prints a checked
    # value or exits 2 or 3; the suite's error::RuntimeWarning filter
    # turns a warning into an escaping exception
    for m, m_s, n, eta_db, metric, variant in itertools.product(
            ("1e-300", "1e-9", "1e-5", "1", "1e14", "1e300", "1e308"),
            ("1.0000001", "50", "1e30", "1e300"), ("1", "1024"), ("-30", "0", "60"),
            cli.METRICS, cli.VARIANTS):
        argv = ["metrics", "--metric", metric, "--variant", variant, "--m", m, "--m-s", m_s,
                "--n-cells", n, "--eta-db", eta_db, "--mc-samples", "10000"]
        code = main(argv)
        out, stderr = capsys.readouterr()
        assert code in (0, 2, 3), argv
        # a config error here is a channel model outside double range,
        # never a Meijer G internal
        if code == 2:
            assert "outside the positive finite doubles" in stderr, argv
        if code != 0:
            continue
        row = dict(zip(CSV_HEADER, out.splitlines()[1].split(",")))
        value, err = float(row["value"]), float(row["error_estimate"])
        assert not (math.isnan(value) or math.isnan(err)), argv
        # the capacity asymptote's true value is finite wherever eta/xi is
        if variant == "mc" or (metric, variant) == ("capacity", "asymptotic"):
            assert math.isfinite(value), argv
        elif variant != "asymptotic":
            cfg = LinkConfig(FadingParams(float(m), float(m_s)), int(n),
                             10.0 ** (float(eta_db) / 10.0))
            bound = {"capacity": capacity_bound(cfg), "ber": BER_BOUND,
                     "outage": OUTAGE_BOUND}[metric]
            assert 0.0 <= value <= bound + err, argv


# one family per (point, N, m, m_s); every metric, both lambdas, both thresholds
MC_FAMILY_SWEEP = """
[sweep]
axis = eta_db
start = 0
stop = 20
steps = 3
metrics = capacity, ber, outage
variants = exact, mc

[link]
n_cells = 1, 8
lambda = 0.5, 1
gamma_th_db = 3, 6

[mc]
samples = 20000
seed = 7
"""


def _dict_rows(rows):
    return [dict(zip(CSV_HEADER, r)) for r in rows]


class TestSweep:
    def test_row_count_and_families(self):
        spec = parse_config(FIG_BER_STYLE)
        spec = dataclasses.replace(spec, steps=3)
        rows = run_sweep(spec)
        # 3 axis points x 2 N x 2 lambda x 1 variant
        assert len(rows) == 12
        assert all(len(r) == len(CSV_HEADER) for r in rows)

    def test_rows_echo_parameters(self):
        spec = parse_config(MINIMAL)
        rows = run_sweep(spec)
        i_axis = CSV_HEADER.index("axis_value")
        i_n = CSV_HEADER.index("N")
        i_beta = CSV_HEADER.index("beta")
        assert {r[i_n] for r in rows} == {"8"}
        assert {r[i_beta] for r in rows} == {"2.7000000000000002"}
        assert {r[i_axis] for r in rows} == {"0", "10", "20"}

    def test_progress_line_per_point_in_order(self, capsys):
        spec = parse_config(MINIMAL)
        run_sweep(spec, threads=2)
        assert capsys.readouterr() == ("", "".join(f"sweep point {i}/3 done\n"
                                                   for i in (1, 2, 3)))

    def test_deterministic_across_threads(self):
        spec = parse_config(FIG_BER_STYLE)
        spec = dataclasses.replace(spec, steps=4, variants=("exact", "mc"),
                                   mc={**spec.mc, "samples": 10_000})
        a = run_sweep(spec, threads=1)
        b = run_sweep(spec, threads=4)
        assert a == b

    @pytest.mark.parametrize("name", ["capacity_vs_power", "ber_vs_power"])
    def test_threads_share_the_block_cache(self, name):
        # two threads fill the Meijer G block cache from cold, and read it
        # after, with the rows of one thread
        with open(os.path.join(CONFIGS, f"{name}.ini")) as fh:
            spec = parse_config(fh.read())
        rows = []
        for threads in (1, 2):
            specfun._block_plan.cache_clear()
            rows.append(run_sweep(spec, threads=threads))
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("mode", [MODEL_DRAW, PHYSICAL_DRAW])
    def test_one_draw_per_family(self, monkeypatch, mode):
        calls = []
        draw = fading._f_draw

        def counting(a, *args, **kwargs):
            calls.append(a)  # m for a branch, N m for the model
            return draw(a, *args, **kwargs)

        monkeypatch.setattr(fading, "_f_draw", counting)
        text = """
[sweep]
axis = n_cells
start = 1
stop = 4
steps = 4
metrics = capacity, ber, outage
variants = mc

[link]
m = 1, 2
lambda = 0.5, 1
gamma_th_db = 3, 6
"""
        spec = parse_config(text)
        spec.mc.update(mode=mode, samples=validation._CHUNK + 1000)
        rows = run_sweep(spec)
        # 4 points x 2 families x (1 capacity + 2 BER + 2 outage) rows
        assert len(rows) == 40
        if mode == MODEL_DRAW:
            # one draw per family for each of the two chunks
            assert len(calls) == 4 * 2 * 2
        else:
            # each family's stream draws its 4 branches once, not 1 + 2 + 3 + 4
            assert collections.Counter(calls) == {1.0: 4, 2.0: 4}

    @pytest.mark.parametrize("chunk", [validation._CHUNK, 4096])
    def test_physical_rows_are_lone_metrics_rows(self, monkeypatch, capsys, chunk):
        # rows across N share one stream's branches, yet each is the row a
        # lone metrics call draws, with 10^4 draws in one chunk or in three
        monkeypatch.setattr(validation, "_CHUNK", chunk)
        text = """
[sweep]
axis = n_cells
start = 2
stop = 8
steps = 4
metrics = capacity, ber, outage
variants = mc

[link]
m = 1, 2
gamma_th_db = 9

[mc]
samples = 10000
seed = 11
mode = physical
"""
        rows = _dict_rows(run_sweep(parse_config(text)))
        capsys.readouterr()
        assert len(rows) == 4 * 2 * 3
        for want in rows:
            got = _metrics_row(capsys, "--metric", want["metric"], "--variant", "mc",
                               "--mc-mode", "physical", "--n-cells", want["N"],
                               "--m", want["m"], "--gamma-th-db", "9",
                               "--mc-samples", "10000", "--seed", "11")
            assert {**got, "axis": "n_cells", "axis_value": want["N"]} == want

    def test_physical_family_below_the_count_draws_afresh(self, tmp_path, capsys):
        # at each point, N 16 runs first and N 8 then draws afresh: the rows
        # are the same bytes on one thread and on two, and the N 8 rows are
        # those of a sweep without N 16
        base = ("[sweep]\naxis = p_s_dbm\nstart = -10\nstop = 10\nsteps = 5\n"
                "metrics = capacity, outage\nvariants = mc\n"
                "[mc]\nsamples = 10000\nmode = physical\n[link]\n")
        out = {}
        for name, cells, threads in (("t1", "16, 8", "1"), ("t2", "16, 8", "2"),
                                     ("n8", "8", "1")):
            path = tmp_path / f"{name}.ini"
            path.write_text(f"{base}n_cells = {cells}\n")
            out[name] = tmp_path / f"{name}.csv"
            assert main(["sweep", str(path), "--out", str(out[name]),
                         "--threads", threads]) == 0
        capsys.readouterr()
        assert out["t1"].read_bytes() == out["t2"].read_bytes()
        with open(out["t1"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(out["n8"], newline="") as fh:
            alone = list(csv.DictReader(fh))
        assert len(rows) == 5 * 2 * 2 and len(alone) == 5 * 2
        assert [r for r in rows if r["N"] == "8"] == alone

    def test_shared_branch_sums_hold_across_thread_switches(self):
        # more threads than cores, switching every microsecond: an update of
        # a shared sum lost between two points would move a row
        text = """
[sweep]
axis = n_cells
start = 1
stop = 12
steps = 12
metrics = capacity
variants = mc

[link]
m = 1, 2

[mc]
samples = 10000
mode = physical
"""
        spec = parse_config(text)
        want = run_sweep(spec, threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = run_sweep(spec, threads=6)
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    def test_physical_capacity_rows_agree_with_the_exact_sum(self):
        # the physical-sum capacity has an exact route with no Monte Carlo:
        # each of 16 correlated rows lies within a Bonferroni z of it, so
        # the table keeps one 3.5 sigma row's false-alarm rate
        from scipy.stats import norm

        text = """
[sweep]
axis = n_cells
start = 4
stop = 64
steps = 16
metrics = capacity
variants = mc

[link]
m = 1
m_s = 5
p_s_dbm = 0

[mc]
samples = 100000
mode = physical
"""
        spec = parse_config(text)
        rows = _dict_rows(run_sweep(spec))
        assert [int(r["N"]) for r in rows] == list(range(4, 65, 4))
        z = norm.isf(validation.ALPHA_3P5 / (2 * len(rows)))
        for r in rows:
            cases = validation.point_cases(1.0, FadingParams(1.0, 5.0), int(r["N"]),
                                           ("capacity",), (1.0,), (3.0,))
            (exact,) = validation.evaluate(cases, "physical")
            gap = abs(float(r["value"]) - exact.value)
            assert gap <= z * math.hypot(float(r["error_estimate"]), exact.error_estimate), r

    def test_mc_rows_within_four_se_of_exact(self):
        rows = _dict_rows(run_sweep(parse_config(MC_FAMILY_SWEEP)))
        coords = ("axis_value", "metric", "N", "lambda", "gamma_th_db")
        exact = {tuple(r[k] for k in coords): float(r["value"])
                 for r in rows if r["variant"] == "exact"}
        resolved = 0
        for r in rows:
            if r["variant"] != "mc":
                continue
            mean, se = float(r["value"]), float(r["error_estimate"])
            if not 0.0 < se <= 0.05 * mean:
                continue  # unresolved: too few hits for a normal band
            resolved += 1
            assert abs(mean - exact[tuple(r[k] for k in coords)]) <= 4.0 * se, r
        assert resolved >= 15  # at least half of the 30 MC rows

    def test_asymptotic_and_exact_converge_at_high_power(self):
        text = """
[sweep]
axis = eta_db
start = 35
stop = 45
steps = 3
metrics = capacity
variants = exact, asymptotic

[link]
n_cells = 16, 32
m = 1, 4
"""
        spec = parse_config(text)
        rows = run_sweep(spec)
        i_var = CSV_HEADER.index("variant")
        i_val = CSV_HEADER.index("value")
        i_key = [CSV_HEADER.index(k) for k in ("axis_value", "N", "m")]
        exact = {tuple(r[i] for i in i_key): float(r[i_val]) for r in rows
                 if r[i_var] == "exact"}
        asym = {tuple(r[i] for i in i_key): float(r[i_val]) for r in rows
                if r[i_var] == "asymptotic"}
        assert exact.keys() == asym.keys()
        for key, v in exact.items():
            assert abs(v - asym[key]) <= 0.05


def test_failing_exact_row_raises_the_first_in_row_order(tmp_path, monkeypatch, capsys):
    # the BER figure at -18 dBm, with a contour budget that rows 2, 4 and 6
    # of the point's batched Meijer G calls overrun, row 2 by its own
    # count: the sweep and the row's own metrics call both exit 3 with row
    # 2's error, the one its lone avg_ber call raises
    monkeypatch.setattr(specfun, "MAX_CONTOUR_EVALS", 179)
    cfg = LinkConfig.from_eta(cli._eta(-18.0, 0.0, 1.0, 2.7), FadingParams(1.0, 5.0), 8,
                              lambda_mod=0.5)
    with pytest.raises(NumericError) as lone:
        avg_ber(cfg)
    assert "needs 84 more nodes after 169" in str(lone.value)
    path = tmp_path / "ber.ini"
    path.write_text(textwrap.dedent("""
        [sweep]
        axis = p_s_dbm
        start = -18
        stop = -17
        steps = 2
        metrics = ber
        variants = exact, asymptotic

        [link]
        n_cells = 8, 16
        m = 1
        m_s = 2, 5
        lambda = 0.5, 1
        """))
    out = tmp_path / "ber.csv"
    assert main(["sweep", str(path), "--out", str(out), "--threads", "1"]) == 3
    assert capsys.readouterr().err == f"numeric error: {lone.value}\n"
    assert not out.exists()
    assert main(["metrics", "--metric", "ber", "--n-cells", "8", "--m", "1", "--m-s", "5",
                 "--lambda", "0.5", "--p-s-dbm", "-18"]) == 3
    assert capsys.readouterr() == ("", f"numeric error: {lone.value}\n")


# a two-family capacity sweep (N 8, N 16) whose first point fails: the
# error each family's exact and MC columns hold, and the one it exits with
FAILING_FAMILIES = [
    ("exact, mc", {8}, {16}, "exact, N 8"),
    ("mc, exact", {8}, {16}, "exact, N 8"),
    ("exact, mc", {16}, {8}, "mc, N 8"),
    # within a row, the earlier column's error wins, MC or not
    ("exact, mc", {8}, {8}, "exact, N 8"),
    ("mc, exact", {8}, {8}, "mc, N 8"),
]


@pytest.mark.parametrize("variants,exact_fails,mc_fails,message", FAILING_FAMILIES)
def test_failing_family_raises_the_first_in_row_order(variants, exact_fails, mc_fails,
                                                      message, tmp_path, monkeypatch, capsys):
    good_form, good_mc = validation._capacity_form, cli.mc_metrics

    def form(cfg):
        if cfg.n_cells in exact_fails:
            raise NumericError(f"exact, N {cfg.n_cells}")
        return good_form(cfg)

    def mc(cases, config, sums=None):
        if cases[0][0].n_cells in mc_fails:
            raise NumericError(f"mc, N {cases[0][0].n_cells}")
        return good_mc(cases, config, sums)

    monkeypatch.setattr(validation, "_capacity_form", form)
    monkeypatch.setattr(cli, "mc_metrics", mc)
    path = tmp_path / "families.ini"
    path.write_text(f"{MINIMAL}metrics = capacity\nvariants = {variants}\n"
                    "[link]\nn_cells = 8, 16\n[mc]\nsamples = 10000\n")
    out = tmp_path / "families.csv"
    assert main(["sweep", str(path), "--out", str(out), "--threads", "1"]) == 3
    assert capsys.readouterr() == ("", f"numeric error: {message}\n")
    assert not out.exists()


class TestMain:
    def test_selftest_passes(self, capsys):
        assert selftest() == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_selftest_command(self, capsys):
        assert main(["selftest"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 11 and all(line.startswith("PASS ") for line in lines)

    def test_metrics_subcommand(self, capsys):
        rc = main([
            "metrics", "--metric", "capacity", "--eta-db", "20",
            "--n-cells", "1", "--m", "1", "--m-s", "5",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == CSV_HEADER
        assert float(rows[1][CSV_HEADER.index("value")]) == pytest.approx(
            6.0317707987276533, rel=1e-6
        )

    def test_metrics_lambda_only_moves_ber(self, capsys):
        # capacity and outage do not read lambda: their row, MC
        # substream included, is the same for either value, and echoes 1
        for metric in ("capacity", "outage"):
            rows = []
            for lam in ("0.5", "1"):
                assert main([
                    "metrics", "--metric", metric, "--variant", "mc",
                    "--eta-db", "10", "--mc-samples", "10000", "--lambda", lam,
                ]) == 0
                rows.append(capsys.readouterr().out)
            assert rows[0] == rows[1]
            row = next(csv.DictReader(io.StringIO(rows[0])))
            assert row["lambda"] == "1"

    def test_metrics_mc_matches_sweep_row(self, capsys):
        rows = _dict_rows(run_sweep(parse_config(MC_FAMILY_SWEEP)))
        matched = 0
        for want in rows:
            if want["variant"] != "mc" or want["axis_value"] != "10":
                continue
            args = ["metrics", "--metric", want["metric"], "--variant", "mc",
                    "--eta-db", "10", "--n-cells", want["N"], "--mc-samples", "20000",
                    "--seed", "7", "--lambda", want["lambda"]]
            if want["metric"] == "outage":
                args += ["--gamma-th-db", want["gamma_th_db"]]
            assert main(args) == 0
            got = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
            assert got == want  # value and error included
            matched += 1
        # 2 N x (1 capacity + 2 BER + 2 outage)
        assert matched == 10

    def test_routes_leave_scipy_integrate_optimize_and_stats_out(self):
        # a fresh interpreter runs every route once, and a Garwood bound
        # (3 outage hits in 10^5 draws); none may load these modules, and
        # only the Garwood bound loads scipy.special
        src = os.path.dirname(os.path.dirname(rislink.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = textwrap.dedent("""
            import sys
            import rislink.cli
            from rislink import fading, metrics, validation

            cfg = metrics.LinkConfig.from_eta(10.0, fading.FadingParams(1.0, 5.0), 8)
            for route in (metrics.avg_capacity, metrics.avg_capacity_asymptotic,
                          validation.quad_capacity, metrics.avg_ber,
                          metrics.avg_ber_asymptotic, validation.quad_ber):
                route(cfg)
            for route in (metrics.outage, metrics.outage_asymptotic, validation.quad_outage):
                route(cfg, 2.0)
            for mode in (fading.MODEL_DRAW, fading.PHYSICAL_DRAW):
                validation.mc_metric(cfg, validation.CAPACITY,
                                     validation.McConfig(10_000, seed=1, mode=mode))
            print("scipy.special" in sys.modules)
            est = metrics.MetricResult(3e-5, "mc", 0.0,
                                       {"method": fading.MODEL_DRAW, "evals": 100_000})
            assert validation._mc_consistent(1e-5, est, validation.OUTAGE) == (True, "poisson k=3")
            print("scipy.special" in sys.modules)
            print(sorted(m for m in sys.modules
                         if m.startswith(("scipy.integrate", "scipy.optimize", "scipy.stats"))))
        """)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == ["False", "True", "[]"]

    def test_sweep_leaves_scipy_special_out(self, tmp_path):
        # a fresh rislink sweep of a shipped config never loads scipy.special
        src = os.path.dirname(os.path.dirname(rislink.__file__))
        config = os.path.join(os.path.dirname(src), "configs", "capacity_vs_power.ini")
        if not os.path.exists(config):
            pytest.skip("needs the checkout's configs")
        code = textwrap.dedent("""
            import sys
            from rislink.cli import main
            code = main(["sweep", sys.argv[1], "--out", sys.argv[2]])
            print(code, "scipy.special" in sys.modules)
        """)
        out = subprocess.run([sys.executable, "-c", code, config, str(tmp_path / "out.csv")],
                             env=dict(os.environ, PYTHONPATH=src), check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == ["0", "False"]

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(MINIMAL + "\n[link]\nm_s = 0.5\n")
        assert main(["sweep", str(cfg)]) == 2
        assert "m_s" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert main(["sweep", "/nonexistent/path.ini"]) == 2

    def test_g_bar_flag_removed(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["metrics", "--metric", "ber", "--g-bar", "2"])

    def test_sweep_writes_csv(self, tmp_path):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(MINIMAL)
        out = tmp_path / "out.csv"
        rc = main(["sweep", str(cfg), "--out", str(out), "--threads", "1"])
        assert rc == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == CSV_HEADER
        assert len(rows) > 1

    def test_sweep_byte_identical_across_runs_and_threads(self, tmp_path):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(FIG_BER_STYLE.replace("steps = 41", "steps = 3")
                       .replace("variants = exact", "variants = exact, mc"))
        outs = []
        for name, threads in (("a.csv", 1), ("b.csv", 1), ("c.csv", 4)):
            out = tmp_path / name
            rc = main([
                "sweep", str(cfg), "--out", str(out), "--threads", str(threads),
                "--mc-samples", "10000", "--seed", "7",
            ])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_sweep_flags_override_the_mc_section(self, tmp_path):
        # the flags must land where the [mc] keys do: same bytes, seed echoed
        body = MINIMAL + "metrics = capacity, outage\nvariants = mc\n[link]\nn_cells = 2\n"
        outs = []
        for mc, flags in (("samples = 10000\nseed = 3\nmode = model",
                           ["--seed", "7", "--mc-samples", "20000", "--mc-mode", "physical"]),
                          ("samples = 20000\nseed = 7\nmode = physical", [])):
            cfg = tmp_path / "sweep.ini"
            cfg.write_text(f"{body}[mc]\n{mc}\n")
            out = tmp_path / f"{len(outs)}.csv"
            assert main(["sweep", str(cfg), "--out", str(out), "--threads", "1", *flags]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        rows = list(csv.DictReader(io.StringIO(outs[0].decode())))
        assert len(rows) == 3 * 2 and {r["seed"] for r in rows} == {"7"}

    def test_validate_smoke(self, tmp_path):
        out = tmp_path / "report.csv"
        rc = main([
            "validate", "--preset", "smoke", "--seed", "42",
            "--out", str(out), "--threads", "2", "--mc-samples", "20000",
        ])
        assert rc == 0
        rows = list(csv.reader(out.open()))
        kinds = {r[0] for r in rows[1:]}
        assert kinds == {"oracle", "ks", "mode_gap"}
        # the mode gap compares two exact routes: no Monte Carlo columns
        (gap,) = [dict(zip(rows[0], r)) for r in rows[1:] if r[0] == "mode_gap"]
        assert math.isfinite(float(gap["closed_log"]))
        assert math.isfinite(float(gap["quad_log"]))
        assert math.isnan(float(gap["mc_mean"])) and math.isnan(float(gap["mc_std_error"]))

    def test_write_csv_newline_discipline(self, tmp_path):
        p = tmp_path / "x.csv"
        write_csv(str(p), ["a", "b"], [["1", "2"]])
        assert p.read_bytes() == b"a,b\n1,2\n"


VALUE = {"value", "error_estimate"}
# one value besides the default per [link] and [mc] key, and the columns it
# moves: on an exact row of each metric that reads the key, and for an [mc]
# key on an mc row, where an exact row moves only the seed it echoes
KEY_MOVES = {
    "n_cells": ("16", {"N", *VALUE}),
    "m": ("2", {"m", *VALUE}),
    "m_s": ("3", {"m_s", *VALUE}),
    "r_d": ("2", {"r_d", *VALUE}),
    "beta": ("3", {"beta"}),  # at r_d = 1, where r_d^-beta = 1
    "n0_dbm": ("-3", {"n0_dbm", *VALUE}),
    "lambda": ("0.5", {"lambda", *VALUE}),
    "gamma_th_db": ("6", {"gamma_th_db", *VALUE}),
    "p_s_dbm": ("3", {"axis_value", *VALUE}),
    "seed": ("7", {"seed", *VALUE}),
    "samples": ("20000", VALUE),
    "mode": ("physical", VALUE),
}
# the keys only one metric reads
READ_BY = {"lambda": "ber", "gamma_th_db": "outage"}


def _metrics_row(capsys, *args) -> dict:
    assert main(["metrics", *args]) == 0
    return next(csv.DictReader(io.StringIO(capsys.readouterr().out)))


def test_key_moves_cover_the_tables():
    assert set(KEY_MOVES) == set(LINK_PARAMS) | set(cli.MC_PARAMS)


@pytest.mark.parametrize("key", KEY_MOVES)
def test_key_moves_only_its_documented_columns(key, capsys):
    flag, p, _ = cli.TABLE_FLAGS[key]
    other, moves = KEY_MOVES[key]
    variants = ("exact", "mc") if key in cli.MC_PARAMS else ("exact",)
    for metric, variant in itertools.product(cli.METRICS, variants):
        default, moved = (_metrics_row(capsys, "--metric", metric, "--variant", variant,
                                       flag, value) for value in (str(p.default), other))
        assert default["g_bar"] == moved["g_bar"] == "1"
        want = moves - VALUE if variant == "exact" and key in cli.MC_PARAMS else moves
        if READ_BY.get(key, metric) != metric:
            want = set()
        assert {col for col in CSV_HEADER if default[col] != moved[col]} == want, metric


def test_power_and_noise_keys_make_one_eta(capsys):
    # eta = 10^((p_s_dbm - n0_dbm)/10) r_d^-beta: the same eta, bit for bit
    for metric in cli.METRICS:
        rows = [_metrics_row(capsys, "--metric", metric, *flags)
                for flags in (["--p-s-dbm", "3"], ["--n0-dbm", "-3"])]
        assert len({(row["value"], row["error_estimate"]) for row in rows}) == 1


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        for cmd in (["selftest"], ["validate"], ["metrics", "--metric", "ber"]):
            args = build_parser().parse_args(cmd)
            assert args.command == cmd[0]
