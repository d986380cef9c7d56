"""CLI: config parsing, sweep output, validation runner, exit codes."""

import argparse
import csv
import dataclasses
import io
import math
import os
import subprocess
import sys
import textwrap

import pytest

import rislink
from rislink import cli, validation
from rislink.cli import (
    CSV_HEADER,
    LINK_PARAMS,
    SweepSpec,
    build_parser,
    main,
    parse_config,
    run_sweep,
    run_validate,
    selftest,
    write_csv,
)
from rislink.errors import ConfigError, DomainError
from rislink.fading import MODEL_DRAW, PHYSICAL_DRAW
from rislink.validation import PRESETS

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


# one out-of-range value per [link] key; the same value as a metrics flag
BAD_LINK_VALUES = [
    ("n_cells", "0"), ("m", "0"), ("m_s", "1"), ("r_d", "-1"), ("r_d", "0"),
    ("beta", "-1"), ("n0_dbm", "inf"), ("lambda", "0.7"), ("gamma_th_db", "nan"),
    ("p_s_dbm", "inf"),
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


def test_threshold_outside_doubles_ignored_without_outage(capsys):
    # only outage reads gamma_th_db
    assert main(["metrics", "--metric", "capacity", "--gamma-th-db", "4000"]) == 0
    assert capsys.readouterr().out.count("\n") == 2


# a bad [sweep] range or list value, and the key and line it must name
BAD_SWEEP = [
    ("axis = eta_db\nstart = 0\nstop = inf\nsteps = 3", "stop must be finite", "'stop', line 4"),
    ("axis = eta_db\nstart = nan\nstop = 1\nsteps = 3", "start must be finite",
     "'start', line 3"),
    ("axis = p_s_dbm\nstart = -inf\nstop = 1\nsteps = 3", "start must be finite",
     "'start', line 3"),
    ("axis = n_cells\nstart = 0\nstop = 4\nsteps = 3", "n_cells must be >= 1",
     "'start', line 3"),
    ("axis = eta_db\nstart = 0\nstop = 1\nsteps = two", "bad value", "'steps', line 5"),
    ("axis = eta_db\nstart = 0\nstop = 1\nsteps = 1", "steps must be at least 2",
     "'steps', line 5"),
    ("axis = eta_db\nstart = 0\nstop = 1\nsteps = 3\nmetrics = capacity, capacity",
     "metrics repeats a value", "'metrics', line 6"),
    ("axis = eta_db\nstart = 0\nstop = 1\nsteps = 3\nvariants = exact exact",
     "variants repeats a value", "'variants', line 6"),
    ("axis = eta_db\nstart = 0\nstop = 1\nsteps = 3\n[link]\nn_cells = 8, 8.0",
     "n_cells repeats a value", "'n_cells', line 7"),
    ("axis = eta_db\nstart = 0\nstop = 1\nsteps = 3\n[link]\nlambda = 1, 0.5, 1",
     "lambda repeats a value", "'lambda', line 7"),
    ("axis = p_s_dbm\nstart = 0\nstop = 1\nsteps = 3\n[link]\ngamma_th_db = 3, 3.0",
     "gamma_th_db repeats a value", "'gamma_th_db', line 7"),
]


@pytest.mark.parametrize("body,message,where", BAD_SWEEP, ids=[m for _, m, _ in BAD_SWEEP])
def test_bad_sweep_value_named_with_line(body, message, where):
    with pytest.raises(ConfigError) as err:
        parse_config(f"[sweep]\n{body}\n")
    assert message in str(err.value)
    assert where in str(err.value)


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
        rows = run_sweep(spec, progress=lambda m: None)
        # 3 axis points x 2 N x 2 lambda x 1 variant
        assert len(rows) == 12
        assert all(len(r) == len(CSV_HEADER) for r in rows)

    def test_rows_echo_parameters(self):
        spec = parse_config(MINIMAL)
        rows = run_sweep(spec, progress=lambda m: None)
        i_axis = CSV_HEADER.index("axis_value")
        i_n = CSV_HEADER.index("N")
        i_beta = CSV_HEADER.index("beta")
        assert {r[i_n] for r in rows} == {"8"}
        assert {r[i_beta] for r in rows} == {"2.7000000000000002"}
        assert {r[i_axis] for r in rows} == {"0", "10", "20"}

    def test_progress_line_per_point_in_order(self):
        spec = parse_config(MINIMAL)
        lines = []
        run_sweep(spec, threads=2, progress=lines.append)
        assert lines == [f"sweep point {i}/3 done" for i in (1, 2, 3)]

    def test_deterministic_across_threads(self):
        spec = parse_config(FIG_BER_STYLE)
        spec = dataclasses.replace(spec, steps=4, variants=("exact", "mc"),
                                   mc={**spec.mc, "samples": 10_000})
        a = run_sweep(spec, threads=1, progress=lambda m: None)
        b = run_sweep(spec, threads=4, progress=lambda m: None)
        assert a == b

    @pytest.mark.parametrize("mode", [MODEL_DRAW, PHYSICAL_DRAW])
    def test_one_draw_per_family(self, monkeypatch, mode):
        calls = []
        draw = validation.sample_sum

        def counting(model, *args, **kwargs):
            calls.append(model)
            return draw(model, *args, **kwargs)

        monkeypatch.setattr(validation, "sample_sum", counting)
        text = """
[sweep]
axis = n_cells
start = 1
stop = 2
steps = 2
metrics = capacity, ber, outage
variants = mc

[link]
m = 1, 2
lambda = 0.5, 1
gamma_th_db = 3, 6
"""
        spec = parse_config(text)
        spec.mc.update(mode=mode, samples=validation._CHUNK + 1000)
        rows = run_sweep(spec, progress=lambda m: None)
        # 2 points x 2 families x (1 capacity + 2 BER + 2 outage) rows,
        # and one draw per family for each of the two chunks
        assert len(rows) == 20
        assert len(calls) == 2 * 2 * 2

    def test_mc_rows_within_four_se_of_exact(self):
        rows = _dict_rows(run_sweep(parse_config(MC_FAMILY_SWEEP), progress=lambda m: None))
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
        rows = run_sweep(spec, progress=lambda m: None)
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


class TestMain:
    def test_selftest_passes(self, capsys):
        assert selftest() == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

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

    def test_metrics_exact_ignores_mc_settings(self, capsys):
        # MC settings are validated only where the mc variant uses them
        assert main(["metrics", "--metric", "ber", "--mc-samples", "5000"]) == 0
        assert main([
            "metrics", "--metric", "ber", "--variant", "mc", "--mc-samples", "5000",
        ]) == 2

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
        rows = _dict_rows(run_sweep(parse_config(MC_FAMILY_SWEEP), progress=lambda m: None))
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
        # (3 outage hits in 10^5 draws); none may load these modules
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
            est = validation.CiEstimate(mean=3e-5, std_error=0.0, n=100_000)
            assert validation._mc_consistent(1e-5, est, validation.OUTAGE) == (True, "poisson k=3")
            print(sorted(m for m in sys.modules
                         if m.startswith(("scipy.integrate", "scipy.optimize", "scipy.stats"))))
        """)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

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


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        for cmd in (["selftest"], ["validate"], ["metrics", "--metric", "ber"]):
            args = build_parser().parse_args(cmd)
            assert args.command == cmd[0]
