"""Command-line behavior: exit codes, CSV shape, and byte stability."""

import importlib
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from ehrelay import analytics, cli
from ehrelay.analytics import p_h_levy_erf
from ehrelay.cli import main
from ehrelay.config import NUMERIC_FIELDS, SystemConfig, validate
from ehrelay.simulate import simulate_all, trials_per_block

sim_mod = importlib.import_module("ehrelay.simulate")


def run_cli(args):
    try:
        return main(args)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


def read(path):
    return pathlib.Path(path).read_bytes()


def header_and_row(path):
    lines = pathlib.Path(path).read_text().splitlines()
    assert len(lines) >= 2
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def cell(path, column, row=0):
    header, rows = header_and_row(path)
    return rows[row][header.index(column)]


def _never(*args, **kwargs):
    raise AssertionError("computed although the command should have stopped")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_row_and_determinism(tmp_path, baseline_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["simulate", "--config", baseline_path, "--scheme", "bsir",
            "--trials", "400", "--seed", "7"]
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert read(out1) == read(out2)
    header, rows = header_and_row(out1)
    assert rows[0][header.index("scheme")] == "bsir"
    assert float(cell(out1, "p_st_mw")) == pytest.approx(0.630957344, rel=1e-9)
    assert 0.0 <= float(cell(out1, "success_rate")) <= 1.0
    assert "freq_harvest_ok" in header


def test_simulate_csv_has_no_removed_option_columns(tmp_path):
    out = tmp_path / "sim.csv"
    assert run_cli(["simulate", "--scheme", "bcc", "--trials", "5", "--out", str(out)]) == 0
    header, _ = header_and_row(out)
    assert not {"t_block", "p_min_dbm", "p_max_dbm", "harvest_threshold_mode",
                "direct_literal_events"} & set(header)


def test_simulate_worker_count_invariance(tmp_path, baseline_path):
    base = ["simulate", "--config", baseline_path, "--scheme", "bcc",
            "--trials", "300", "--seed", "3"]
    one = tmp_path / "w1.csv"
    many = tmp_path / "w8.csv"
    assert run_cli(base + ["--workers", "1", "--out", str(one)]) == 0
    assert run_cli(base + ["--workers", "8", "--out", str(many)]) == 0
    assert read(one) == read(many)


def test_simulate_missing_config(tmp_path, capsys):
    missing = str(tmp_path / "nowhere.cfg")
    assert run_cli(["simulate", "--config", missing, "--scheme", "bcc",
                    "--trials", "5"]) == 2
    assert missing in capsys.readouterr().err


def test_simulate_invalid_alpha(capsys):
    assert run_cli(["simulate", "--scheme", "bcc", "--trials", "5",
                    "--alpha", "2"]) == 2
    assert "alpha must exceed 2" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["file", "flag"])
def test_block_duration_is_not_a_config_key(source, tmp_path, capsys, monkeypatch):
    # The block duration cancels from every formula, so no key sets it; nor
    # does any key choose the harvest threshold or the direct-link event
    # set, which have one rule each.
    monkeypatch.setattr(cli, "simulate", _never)
    for key, value in (("t_block", "1e-3"), ("harvest_threshold_mode", "energy"),
                       ("direct_literal_events", "true")):
        path = tmp_path / f"{key}.cfg"
        path.write_text(f"{key} = {value}\n")
        given = (["--config", str(path)] if source == "file" else [f"--{key}", value])
        assert run_cli(["simulate", "--scheme", "bcc", "--trials", "5"] + given) == 2
        err = capsys.readouterr().err
        assert (f"error: line 1: unknown config key '{key}'" in err if source == "file"
                else f"unrecognized arguments: --{key} {value}" in err)


@pytest.mark.parametrize("argv", [
    ["simulate", "--scheme", "bcc"],
    ["sweep", "--param", "p_st_dbm", "--values=0,5", "--schemes", "bcc"],
    ["compare", "--scheme", "bcc"],
    ["compare", "--scheme", "bcc", "--param", "p_st_dbm", "--values=0,5"],
])
def test_trial_too_large_to_draw_is_a_usage_error(argv, tmp_path, capsys, monkeypatch):
    # Refused before --out is opened, and before anything is drawn.
    for name in ("simulate", "_simulate_all", "analyze"):
        monkeypatch.setattr(cli, name, _never)
    out = tmp_path / "huge.csv"
    start = time.perf_counter()
    assert run_cli(argv + ["--lambda_p", "10", "--r_max", "10000", "--lambda_sr", "100",
                           "--trials", "1", "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "over the cap of 268435456" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_baseline_bcc(tmp_path, baseline_path):
    out = tmp_path / "ana.csv"
    assert run_cli(["analyze", "--config", baseline_path, "--scheme", "bcc",
                    "--out", str(out)]) == 0
    for column in ("p_h", "psi3", "psi4", "p_succ"):
        assert 0.0 < float(cell(out, column)) <= 1.0
    assert cell(out, "omega1") == ""  # not a factor of this scheme


ANALYZE_HEADER = ("scheme,p_h,guard_st,guard_sr,p_nonempty,psi31,psi3,psi4,omega1,omega,"
                  "phi,delta,lambda_eff,chi,chi_indep,p_dsucc_sd,pr_direct_fail,p11,p12,"
                  "p22,p32,pr_n1_zero,p_dsucc_dir,p_succ")
# The baseline analyze rows, factor by factor: which cells are empty and every
# printed digit. bcc and bsir carry the same numbers under their own columns.
ANALYZE_ROWS = {
    ("bcc", "false"):
        "bcc,0.908367029,0.969072426,0.969072426,0.956786082,0.0705441893,"
        "0.929455811,0.247231789,,,,,,,,0.215797064,,,,,,,,0.196022938",
    ("bcc", "true"):
        "bcc,0.908367029,0.969072426,0.969072426,0.956786082,0.0705441893,"
        "0.929455811,0.247231789,,,0.247231789,,,,,,0.752768211,0.971435338,"
        "0.028564662,,,,0.395143599,0.358935417",
    ("bsir", "false"):
        "bsir,0.908367029,0.969072426,0.969072426,0.956786082,,,,0.0705441893,"
        "0.929455811,0.247231789,,,,,0.215797064,,,,,,,,0.196022938",
    ("bsir", "true"):
        "bsir,0.908367029,0.969072426,0.969072426,0.956786082,,,,0.0705441893,"
        "0.929455811,0.247231789,,,,,,0.752768211,,,0.971435338,0.028564662,,"
        "0.395143599,0.358935417",
    ("bstd", "false"):
        "bstd,0.908367029,0.969072426,0.969072426,0.956786082,,,,,,,0.817900758,"
        "0.817900758,0.610033255,0.511928916,0.37790602,,,,,,,,0.343277368",
    ("bstd", "true"):
        "bstd,0.908367029,0.969072426,0.969072426,0.956786082,,,,,,0.247231789,"
        "0.817900758,0.817900758,0.610033255,0.511928916,,0.752768211,,,,,"
        "0.0765729796,0.524061148,0.476039868",
}


@pytest.mark.parametrize("scheme,direct", sorted(ANALYZE_ROWS))
def test_analyze_baseline_golden_row(scheme, direct, baseline_path, capsys):
    assert run_cli(["analyze", "--config", baseline_path, "--scheme", scheme,
                    "--direct_link", direct]) == 0
    out, err = capsys.readouterr()
    assert out == f"{ANALYZE_HEADER}\n{ANALYZE_ROWS[scheme, direct]}\n"
    assert err == ""


# The baseline rows away from alpha = 4, where the decode factors take the
# same closed forms: every printed digit.
ALPHA_ARGS = {"3": ["--alpha", "3", "--r_max", "400"], "5": ["--alpha", "5"]}
ANALYZE_ROWS_BY_ALPHA = {
    ("3", "bcc", "false"):
        "bcc,1,0.969072426,0.969072426,0.956786082,0.141011215,0.858988785,"
        "0.0160643613,,,,,,,,0.0129587595,,,,,,,,0.0129587595",
    ("3", "bcc", "true"):
        "bcc,1,0.969072426,0.969072426,0.956786082,0.141011215,0.858988785,"
        "0.0160643613,,,0.0160643613,,,,,,0.983935639,0.897785619,0.102214381,"
        ",,,0.027904541,0.027904541",
    ("3", "bsir", "false"):
        "bsir,1,0.969072426,0.969072426,0.956786082,,,,0.141011215,0.858988785,"
        "0.0160643613,,,,,0.0129587595,,,,,,,,0.0129587595",
    ("3", "bsir", "true"):
        "bsir,1,0.969072426,0.969072426,0.956786082,,,,0.141011215,0.858988785,"
        "0.0160643613,,,,,,0.983935639,,,0.897785619,0.102214381,,0.027904541,"
        "0.027904541",
    ("3", "bstd", "false"):
        "bstd,1,0.969072426,0.969072426,0.956786082,,,,,,,0.604257631,"
        "0.604257631,0.93236603,0.919858417,0.0655422159,,,,,,,,0.0655422159",
    ("3", "bstd", "true"):
        "bstd,1,0.969072426,0.969072426,0.956786082,,,,,,0.0160643613,"
        "0.604257631,0.604257631,0.93236603,0.919858417,,0.983935639,,,,,"
        "0.149818407,0.0800568516,0.0800568516",
    ("5", "bcc", "false"):
        "bcc,0.56841446,0.969072426,0.969072426,0.956786082,0.0578912754,"
        "0.942108725,0.451708307,,,,,,,,0.399642416,,,,,,,,0.227162528",
    ("5", "bcc", "true"):
        "bcc,0.56841446,0.969072426,0.969072426,0.956786082,0.0578912754,"
        "0.942108725,0.451708307,,,0.451708307,,,,,,0.548291693,0.98465973,"
        "0.0153402704,,,,0.644104248,0.366118168",
    ("5", "bsir", "false"):
        "bsir,0.56841446,0.969072426,0.969072426,0.956786082,,,,0.0578912754,"
        "0.942108725,0.451708307,,,,,0.399642416,,,,,,,,0.227162528",
    ("5", "bsir", "true"):
        "bsir,0.56841446,0.969072426,0.969072426,0.956786082,,,,0.0578912754,"
        "0.942108725,0.451708307,,,,,,0.548291693,,,0.98465973,0.0153402704,,"
        "0.644104248,0.366118168",
    ("5", "bstd", "false"):
        "bstd,0.56841446,0.969072426,0.969072426,0.956786082,,,,,,,0.878875909,"
        "0.878875909,0.442651143,0.29531226,0.540111409,,,,,,,,0.307007135",
    ("5", "bstd", "true"):
        "bstd,0.56841446,0.969072426,0.969072426,0.956786082,,,,,,0.451708307,"
        "0.878875909,0.878875909,0.442651143,0.29531226,,0.548291693,,,,,"
        "0.0632240761,0.733876664,0.417146107",
}


@pytest.mark.parametrize("alpha,scheme,direct", sorted(ANALYZE_ROWS_BY_ALPHA))
def test_analyze_golden_row_away_from_alpha4(alpha, scheme, direct, baseline_path,
                                             capsys):
    assert run_cli(["analyze", "--config", baseline_path, "--scheme", scheme,
                    "--direct_link", direct] + ALPHA_ARGS[alpha]) == 0
    out, err = capsys.readouterr()
    assert out == f"{ANALYZE_HEADER}\n{ANALYZE_ROWS_BY_ALPHA[alpha, scheme, direct]}\n"
    assert err == ""


def test_analyze_no_primaries(tmp_path):
    out = tmp_path / "ana0.csv"
    assert run_cli(["analyze", "--scheme", "bcc", "--lambda_p", "0",
                    "--out", str(out)]) == 0
    assert float(cell(out, "p_h")) == 0.0
    assert float(cell(out, "p_succ")) == 0.0


@pytest.mark.parametrize("scheme", ["bcc", "bsir", "bstd"])
def test_analyze_no_primaries_at_a_vanishing_power(scheme, capsys):
    # With no primaries the decode rate is 0, also where
    # (gamma*p_t/p_st)^(2/alpha) overflows.
    assert run_cli(["analyze", "--scheme", scheme, "--lambda_p", "0",
                    "--p_st_dbm", "-3200"]) == 0
    out = capsys.readouterr().out
    assert "nan" not in out
    assert float(out.splitlines()[1].split(",")[-1]) == 0.0


def test_analyze_bstd_direct_has_thinning_terms(tmp_path):
    out = tmp_path / "anad.csv"
    assert run_cli(["analyze", "--scheme", "bstd", "--direct_link", "true",
                    "--out", str(out)]) == 0
    assert 0.0 < float(cell(out, "pr_n1_zero")) < 1.0
    assert 0.0 < float(cell(out, "lambda_eff"))
    assert 0.0 < float(cell(out, "p_dsucc_dir")) <= 1.0


def test_analyze_rejects_random_baseline(capsys):
    assert run_cli(["analyze", "--scheme", "random_baseline"]) == 2
    assert "random_baseline" in capsys.readouterr().err


def test_analyze_refuses_static_slot_positions(tmp_path, capsys, monkeypatch):
    # No analytic expression couples the harvest to both hops' interference,
    # so a static primary field is refused before anything is computed.
    monkeypatch.setattr(cli, "analyze", _never)
    out = tmp_path / "a.csv"
    assert run_cli(["analyze", "--scheme", "bcc", "--slot_position_model", "static",
                    "--out", str(out)]) == 2
    assert ("error: slot_position_model static has no analytic expression"
            in capsys.readouterr().err)
    assert not out.exists()


def test_analyze_quadrature_failure_exit_code(capsys, monkeypatch):
    # With no node doubling allowed, the common-interference chi cannot show
    # that it settled, so it raises its documented stall.
    monkeypatch.setattr(analytics, "_CHI_MAX_DOUBLINGS", 0)
    assert run_cli(["analyze", "--scheme", "bstd", "--d_sd", "0.5"]) == 3
    assert "quadrature" in capsys.readouterr().err


def test_selfcheck_mismatch_warns_without_touching_the_csv(capsys, monkeypatch):
    args = ["analyze", "--scheme", "bcc"]
    assert run_cli(args) == 0
    clean = capsys.readouterr()
    assert clean.err == ""
    monkeypatch.setattr(cli, "alpha4_selfcheck",
                        lambda cfg: [("psi31", 0.25, 0.5, 0.5)])
    assert run_cli(args) == 0
    warned = capsys.readouterr()
    assert warned.out == clean.out
    assert warned.err == ("warning: closed-form/quadrature mismatch for psi31: "
                          "0.25 vs 0.5 (rel 0.5)\n")


@pytest.mark.parametrize("name,flags", [
    ("p_t_dbm", ["--p_t_dbm", "4000"]), ("p_st_dbm", ["--p_st_dbm", "4000"]),
    ("gamma_th_db", ["--gamma_th_db", "4000"]),
    ("p_st_dbm", ["--lambda_p", "0", "--p_st_dbm=-4000"]),
], ids=["p_t", "p_st", "gamma_th", "p_st_underflow"])
def test_db_value_without_linear_value_exits_2(name, flags, capsys):
    assert run_cli(["analyze", "--scheme", "bcc"] + flags) == 2
    assert (f"error: {name} must have a finite, nonzero linear value"
            in capsys.readouterr().err)


def test_config_file_reports_every_bad_line(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("bogus = 1\nalpha = x\n")
    assert run_cli(["analyze", "--scheme", "bcc", "--config", str(path),
                    "--r_gz", "wide"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: line 1: unknown config key 'bogus'",
        "error: line 2: alpha must be numeric, got 'x'",
        "error: --r_gz: r_gz must be numeric, got 'wide'",
    ]


def test_analyze_sparse_primaries_exits_zero(tmp_path):
    # lambda_p = 1e-8 puts sigma deep in the tail of the harvested sum; the
    # harvest probability still comes out, fast, as the alpha=4 erf form.
    out = tmp_path / "a.csv"
    t0 = time.perf_counter()
    assert run_cli(["analyze", "--scheme", "bcc", "--lambda_p", "1e-8",
                    "--out", str(out)]) == 0
    assert time.perf_counter() - t0 < 1.0
    expected = p_h_levy_erf(validate(SystemConfig(lambda_p=1e-8)))
    assert float(cell(out, "p_h")) == pytest.approx(expected, rel=1e-8)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_rows_ordered_and_stable(tmp_path, baseline_path):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    args = ["sweep", "--config", baseline_path, "--param", "p_st_dbm",
            "--values=-2,0", "--schemes", "bsir,random_baseline",
            "--trials", "200", "--seed", "5"]
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert read(out1) == read(out2)
    header, rows = header_and_row(out1)
    key = [(r[header.index("value")], r[header.index("scheme")]) for r in rows]
    assert key == [("-2", "bsir"), ("-2", "random_baseline"),
                   ("0", "bsir"), ("0", "random_baseline")]
    # analytic column present for bsir, absent for the flagged baseline pick
    assert rows[0][header.index("ana_p_succ")] != ""
    assert rows[1][header.index("ana_p_succ")] == ""


def _one_point_at_a_time(args, values, tmp_path):
    """The CSV of a sweep over ``values``, joined from one run per point."""
    expected = []
    for i, value in enumerate(values.split(",")):
        one = tmp_path / f"point{i}.csv"
        assert run_cli(args + [f"--values={value}", "--workers", "1",
                               "--out", str(one)]) == 0
        expected += read(one).splitlines(keepends=True)[min(i, 1):]
    return b"".join(expected)


def _sweep_drawing(args, monkeypatch, path):
    """Run the sweep ``args`` into ``path``; the trials of each ``_draw`` call
    this process made."""
    drawn = []
    real_draw = sim_mod._draw
    monkeypatch.setattr(sim_mod, "_draw", lambda *a: drawn.append(a[2]) or real_draw(*a))
    assert run_cli(args + ["--out", str(path)]) == 0
    monkeypatch.undo()
    return drawn


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("param, values", [("p_st_dbm", "-4,0,3,6"), ("p_t_dbm", "22,25,28")])
def test_decision_field_grid_draws_once(param, values, workers, baseline, tmp_path,
                                        monkeypatch):
    # Six blocks, drawn once for the whole grid: here and in the worker,
    # which decides its three blocks for every point. The rows are those of
    # the points run one at a time.
    args = ["sweep", "--param", param, "--schemes", "bcc,bsir,bstd,random_baseline",
            "--trials", "600", "--seed", "12"]
    expected = _one_point_at_a_time(args, values, tmp_path)
    grid = tmp_path / "grid.csv"
    drawn = _sweep_drawing(args + [f"--values={values}", "--workers", workers],
                           monkeypatch, grid)
    assert read(grid) == expected
    # This process draws its share of the blocks, once: all six, or the
    # last three when the worker takes the first three.
    assert sum(drawn) == 600 - (3 * trials_per_block(baseline) if workers == "2" else 0)


def test_decision_field_grid_draws_once_at_any_trial_count(baseline, tmp_path, monkeypatch):
    # 55 blocks, about 150k draw elements: each block is drawn once for the
    # four points.
    args = ["sweep", "--param", "p_st_dbm", "--schemes", "bcc,bsir,bstd,random_baseline",
            "--trials", "6000", "--seed", "13"]
    values = "-5,0,5,10"
    expected = _one_point_at_a_time(args, values, tmp_path)
    grid = tmp_path / "grid.csv"
    drawn = _sweep_drawing(args + [f"--values={values}", "--workers", "1"],
                           monkeypatch, grid)
    assert read(grid) == expected
    assert drawn == [n for _, n in sim_mod._blocks(baseline, 6000)]


def test_draw_field_grid_draws_once_per_point(baseline, tmp_path, monkeypatch):
    # r_gz moves the guard receivers' disc, so no two points share a draw.
    args = ["sweep", "--param", "r_gz", "--schemes", "bcc,bstd", "--trials", "600",
            "--seed", "14"]
    values = "0.5,1,1.5"
    expected = _one_point_at_a_time(args, values, tmp_path)
    grid = tmp_path / "grid.csv"
    drawn = _sweep_drawing(args + [f"--values={values}", "--workers", "1"],
                           monkeypatch, grid)
    assert read(grid) == expected
    assert drawn == 3 * [n for _, n in sim_mod._blocks(baseline, 600)]


@pytest.mark.parametrize("param, values, kept", [("p_st_dbm", "-4,0,3", 0),
                                                 ("r_gz", "0.5,1,1.5", 2)])
def test_simulation_error_drops_the_rows_of_its_pass(param, values, kept, tmp_path,
                                                     monkeypatch):
    # The kernel fails at the last point. A grid over a decision field is one
    # pass, so it writes no row; a grid over a draw field keeps the rows of
    # the points before.
    args = ["sweep", "--param", param, "--schemes", "bcc,bstd", "--trials", "600",
            "--seed", "15"]
    expected = _one_point_at_a_time(args, values, tmp_path).splitlines(keepends=True)
    last = float(values.split(",")[-1])
    real_decide = sim_mod._decide

    def decide(cfg, draws):
        if getattr(cfg, param) == last:
            raise RuntimeError("kernel fault")
        return real_decide(cfg, draws)

    monkeypatch.setattr(sim_mod, "_decide", decide)
    grid = tmp_path / "grid.csv"
    with pytest.raises(RuntimeError, match="kernel fault"):
        run_cli(args + [f"--values={values}", "--workers", "1", "--out", str(grid)])
    assert read(grid).splitlines(keepends=True) == expected[:1 + 2 * kept]


def test_sweep_leaves_static_analytic_cells_empty(tmp_path, monkeypatch):
    # As for the random baseline: simulated cells, no analytic value.
    monkeypatch.setattr(cli, "analyze", _never)
    out = tmp_path / "s.csv"
    assert run_cli(["sweep", "--slot_position_model", "static", "--param", "p_st_dbm",
                    "--values=-2,0", "--schemes", "bcc,bstd,random_baseline",
                    "--trials", "50", "--out", str(out)]) == 0
    header, rows = header_and_row(out)
    assert len(rows) == 6
    assert all(row[header.index("ana_p_succ")] == "" for row in rows)
    assert all(row[header.index("sim_p_succ")] != "" for row in rows)


def test_sweep_aborts_on_invalid_grid_point(capsys):
    code = run_cli(["sweep", "--param", "alpha", "--values", "4,2",
                    "--schemes", "bcc", "--trials", "10"])
    assert code == 2
    err = capsys.readouterr().err
    assert "alpha=2" in err and "alpha must exceed 2" in err


@pytest.mark.parametrize("command", ["sweep", "compare"])
@pytest.mark.parametrize("values,bad", [("a,b", "a"), ("0,x2", "x2"), (",", None)])
def test_non_numeric_grid_value_rejected(command, values, bad, capsys):
    # A list with no number at all is an error too, not a run without a grid.
    scheme = ["--schemes", "bcc"] if command == "sweep" else ["--scheme", "bcc"]
    assert run_cli([command, "--param", "p_st_dbm", f"--values={values}",
                    "--trials", "10"] + scheme) == 2
    message = "--values names no number" if bad is None else f"{bad!r} is not a number"
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("schemes,message", [
    (",", "--schemes names no scheme"), ("bcc,bcc", "--schemes names 'bcc' twice"),
    ("bcc,nope", "unknown scheme 'nope'"),
])
def test_sweep_rejects_empty_or_repeated_schemes(schemes, message, tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert run_cli(["sweep", "--param", "p_st_dbm", "--values=0", "--schemes",
                    schemes, "--trials", "10", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sweep_needs_grid(capsys):
    assert run_cli(["sweep", "--schemes", "bcc", "--trials", "10"]) == 2


@pytest.mark.parametrize("command", ["sweep", "compare"])
@pytest.mark.parametrize("grid,message", [
    (["--from", "0", "--to", "1"], "a --from/--to/--steps range misses --steps"),
    (["--param", "p_st_dbm", "--steps", "3"],
     "a --from/--to/--steps range misses --from, --to"),
    (["--param", "alpha"], "--param alpha needs --values or --from/--to/--steps"),
    (["--param", "p_st_dbm", "--values=0", "--from", "0", "--to", "5", "--steps", "3"],
     "give --values or --from/--to/--steps, not both"),
    (["--param", "lambda_p", "--from", "0", "--to", "1e-2", "--steps", "3", "--spacing", "log"],
     "log spacing needs positive endpoints"),
    (["--values=0"], "a grid needs --param naming the swept config field"),
    (["--param", "direct_link", "--values=0"],
     f"cannot sweep 'direct_link'; numeric fields: {NUMERIC_FIELDS}"),
    (["--param", "p_st_dbm", "--values=0", "--spacing", "log"],
     "--spacing applies to a --from/--to/--steps range"),
    (["--spacing", "log"], "--spacing applies to a --from/--to/--steps range"),
    (["--param", "p_st_dbm", "--from", "0", "--to", "1e400", "--steps", "2"],
     "a --from/--to/--steps range needs finite ends and span, got --from 0 --to inf"),
    (["--param", "p_st_dbm", "--from", "1e308", "--to=-1e308", "--steps", "2"],
     "a --from/--to/--steps range needs finite ends and span, got --from 1e+308 --to -1e+308"),
    (["--param", "lambda_p", "--from", "1e-3", "--to", "1e400", "--steps", "2",
      "--spacing", "log"],
     "a --from/--to/--steps range needs finite ends and span, got --from 0.001 --to inf"),
], ids=["no-steps", "no-endpoints", "param-alone", "values-and-range", "log-from-zero",
        "values-alone", "non-numeric-param", "spacing-with-values", "spacing-alone",
        "infinite-end", "overflowing-span", "log-infinite-end"])
def test_partial_or_mixed_grid_rejected(command, grid, message, tmp_path, capsys,
                                        monkeypatch):
    # Rejected before anything runs, where compare used to answer for the
    # base config and sweep to drop the range.
    monkeypatch.setattr(cli, "_simulate_all", _never)
    scheme = ["--schemes", "bcc"] if command == "sweep" else ["--scheme", "bcc"]
    out = tmp_path / "g.csv"
    assert run_cli([command, "--trials", "10", "--out", str(out)] + scheme + grid) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_sweep_linear_spacing(tmp_path):
    # The README's sweep grid.
    out = tmp_path / "slin.csv"
    assert run_cli(["sweep", "--param", "p_st_dbm", "--from", "-5", "--to", "10",
                    "--steps", "16", "--schemes", "bcc", "--trials", "10",
                    "--out", str(out)]) == 0
    header, rows = header_and_row(out)
    values = [float(r[header.index("value")]) for r in rows]
    assert values == list(np.linspace(-5.0, 10.0, 16))


@pytest.mark.parametrize("command,scheme", [("sweep", ["--schemes", "bcc"]),
                                            ("compare", ["--scheme", "bcc"])])
def test_zero_steps_rejected(command, scheme, capsys):
    assert run_cli([command, "--param", "p_st_dbm", "--from", "0", "--to", "1",
                    "--steps", "0", "--trials", "10"] + scheme) == 2
    assert "argument --steps: must be at least 1" in capsys.readouterr().err


def test_sweep_log_spacing(tmp_path):
    out = tmp_path / "slog.csv"
    assert run_cli(["sweep", "--param", "lambda_p", "--from", "1e-3", "--to",
                    "1e-2", "--steps", "3", "--spacing", "log", "--schemes",
                    "bcc", "--trials", "50", "--out", str(out)]) == 0
    header, rows = header_and_row(out)
    values = [float(r[header.index("value")]) for r in rows]
    assert values == pytest.approx([1e-3, 10 ** -2.5, 1e-2], rel=1e-9)


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_degenerate_point(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    assert run_cli(["compare", "--scheme", "bsir", "--lambda_sr", "0",
                    "--trials", "50", "--seed", "2", "--out", str(out)]) == 0
    assert float(cell(out, "sim_p_succ")) == 0.0
    assert float(cell(out, "p_succ")) == 0.0
    assert float(cell(out, "gap")) == 0.0
    assert "inside 95% Wilson interval" in capsys.readouterr().err


def test_compare_rejects_random_baseline_before_simulating(tmp_path, capsys,
                                                          monkeypatch):
    monkeypatch.setattr(cli, "_simulate_all", _never)
    out = tmp_path / "cmp.csv"
    assert run_cli(["compare", "--scheme", "random_baseline", "--trials", "50",
                    "--out", str(out)]) == 2
    assert ("error: random_baseline is a simulation-only reference"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("grid", [[], ["--param", "p_st_dbm", "--values=-2,0"]],
                         ids=["point", "grid"])
def test_compare_refuses_static_before_simulating(grid, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_simulate_all", _never)
    out = tmp_path / "cmp.csv"
    assert run_cli(["compare", "--scheme", "bsir", "--slot_position_model", "static",
                    "--trials", "50", "--out", str(out)] + grid) == 2
    assert ("error: slot_position_model static has no analytic expression"
            in capsys.readouterr().err)
    assert not out.exists()


def test_compare_grid_gap_in_ci(tmp_path, baseline_path):
    out = tmp_path / "cmpg.csv"
    assert run_cli(["compare", "--config", baseline_path, "--scheme", "bsir",
                    "--param", "p_st_dbm", "--values=-2,0", "--trials",
                    "3000", "--seed", "9", "--out", str(out)]) == 0
    header, rows = header_and_row(out)
    assert len(rows) == 2
    for row in rows:
        gap = float(row[header.index("gap")])
        sim = float(row[header.index("sim_p_succ")])
        ana = float(row[header.index("p_succ")])
        assert gap == pytest.approx(sim - ana, abs=1e-9)
        assert row[header.index("gap_in_ci")] in ("0", "1")


def test_compare_wide_ci_mostly_inside(tmp_path, baseline_path):
    out = tmp_path / "wide.csv"
    assert run_cli(["compare", "--config", baseline_path, "--scheme", "bcc",
                    "--param", "p_st_dbm", "--values=-2,0,2", "--trials", "100",
                    "--seed", "13", "--out", str(out)]) == 0
    header, rows = header_and_row(out)
    inside = sum(int(r[header.index("gap_in_ci")]) for r in rows)
    assert inside >= 2  # 100-trial intervals are wide


@pytest.mark.parametrize("value", ["0", "-1"])
def test_workers_below_one_rejected(value, capsys):
    assert run_cli(["simulate", "--scheme", "bcc", "--trials", "5",
                    f"--workers={value}"]) == 2
    assert "--workers: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("command,args", [
    ("simulate", ["--scheme", "bcc"]),
    ("sweep", ["--schemes", "bcc", "--param", "p_st_dbm", "--values=0"]),
    ("compare", ["--scheme", "bcc"]),
])
@pytest.mark.parametrize("option,message", [
    ("--trials=0", "argument --trials: must be at least 1, got 0"),
    ("--trials=-5", "argument --trials: must be at least 1, got -5"),
    ("--trials=abc", "argument --trials: invalid int value: 'abc'"),
    ("--seed=-1", "argument --seed: must be at least 0, got -1"),
], ids=["0", "-5", "abc", "seed-1"])
def test_trials_below_one_rejected(command, args, option, message, tmp_path, capsys,
                                   monkeypatch):
    # A usage error before --out is opened and before anything is drawn.
    for name in ("simulate", "_simulate_all", "analyze"):
        monkeypatch.setattr(cli, name, _never)
    out = tmp_path / "t.csv"
    assert run_cli([command, option, "--out", str(out)] + args) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--scheme", "bcc", "--trials", "10"],
    ["analyze", "--scheme", "bcc"],
    ["sweep", "--param", "p_st_dbm", "--values=0", "--schemes", "bcc", "--trials", "10"],
    ["compare", "--scheme", "bcc", "--trials", "10"],
])
def test_unwritable_out_is_a_usage_error(argv, tmp_path, capsys, monkeypatch):
    # Found when the file is opened, before anything is computed.
    for name in ("simulate", "_simulate_all", "analyze"):
        monkeypatch.setattr(cli, name, _never)
    out = tmp_path / "missing" / "x.csv"
    assert run_cli(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write --out {out}: ")
    assert captured.out == ""


# ---------------------------------------------------------------------------
# Pooled grid points: the caller analyzes while the workers simulate
# ---------------------------------------------------------------------------

# bstd's positive-stable tail rule fails at alpha 2.02 (bcc returns there),
# after every scheme returned at 2.05; 5,000 trials are three blocks.
_TAIL_RULE_SWEEP = ["sweep", "--param", "alpha", "--values=2.05,2.02", "--schemes",
                    "bcc,bstd,random_baseline", "--lambda_p", "1e-6",
                    "--trunc_epsilon", "1e300", "--trials", "5000"]


def test_held_analytic_failure_keeps_the_rows_before_it(baseline, capsys):
    captured = []
    for workers in ("1", "2"):
        assert run_cli(_TAIL_RULE_SWEEP + ["--workers", workers]) == 3
        captured.append(capsys.readouterr())
    assert captured[0] == captured[1]
    out, err = captured[1]
    assert [line.split(",")[:3] for line in out.splitlines()[1:]] == [
        ["alpha", "2.05", "bcc"], ["alpha", "2.05", "bstd"],
        ["alpha", "2.05", "random_baseline"], ["alpha", "2.02", "bcc"]]
    assert err == "error: positive-stable tail rule: quadrature stalled at relative change inf\n"
    # The pooled run kept its worker set, and left no reply on it.
    assert len(sim_mod._workers) == 1
    trials = 2 * trials_per_block(baseline) + 5
    assert (simulate_all(baseline, trials, 331, workers=2)
            == simulate_all(baseline, trials, 331, workers=1))


def test_pooled_point_analyzes_between_sending_and_its_own_share(baseline,
                                                                 monkeypatch):
    # Three blocks at two workers: the worker takes blocks 0 and 1, then this
    # process analyzes the point and counts block 2, all in its own thread.
    trials = 2 * trials_per_block(baseline) + 5
    simulate_all(baseline, trials, 3, workers=2)   # builds a set of one worker
    [(_, conn)] = workers = list(sim_mod._workers)
    events = []
    real_send, real_count, real_analyze = conn.send, sim_mod._count_blocks, cli.analyze

    def send(task):
        events.append(("send", task[2]))
        real_send(task)

    def count_blocks(cfgs, seed, blocks):
        events.append(("count", blocks))
        return real_count(cfgs, seed, blocks)

    def analyze(cfg, scheme):
        events.append(("analyze", scheme))
        return real_analyze(cfg, scheme)

    monkeypatch.setattr(conn, "send", send)
    monkeypatch.setattr(sim_mod, "_count_blocks", count_blocks)
    monkeypatch.setattr(cli, "analyze", analyze)
    threads = threading.active_count()
    assert run_cli(["compare", "--scheme", "bstd", "--trials", str(trials),
                    "--seed", "3", "--workers", "2", "--out", os.devnull]) == 0
    size = trials_per_block(baseline)
    assert events == [("send", [(0, size), (1, size)]), ("analyze", "bstd"),
                      ("count", [(2, 5)])]
    assert threading.active_count() == threads
    assert sim_mod._workers == workers


def test_no_pool_worker_outlives_a_cli_run(baseline_path):
    # The run prints the pids of its live child processes, the pool's workers,
    # just before it exits; none of them may still exist afterwards.
    script = ("import multiprocessing, sys\n"
              "from ehrelay.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(*(p.pid for p in multiprocessing.active_children()))\n"
              "sys.exit(code)\n")
    run = subprocess.run(
        [sys.executable, "-c", script, "sweep", "--config", baseline_path,
         "--param", "p_st_dbm", "--values=0,2", "--schemes", "bcc",
         "--trials", "300", "--seed", "3", "--workers", "2", "--out", os.devnull],
        capture_output=True, text=True, env=_env_with_src(), timeout=120)
    assert run.returncode == 0, run.stderr
    pids = [int(pid) for pid in run.stdout.split()]
    assert len(pids) == 1   # three blocks, two shares: one here, one on the pool
    deadline = time.monotonic() + 5.0
    while any(_exists(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(_exists(pid) for pid in pids)


def test_no_pool_worker_outlives_a_killed_run():
    # The run leaves its pool idle and kills itself with SIGKILL, so no exit
    # code runs; its workers must notice and end on their own.
    script = ("import multiprocessing, os, signal, sys\n"
              "import ehrelay\n"
              "from ehrelay.config import SystemConfig, validate\n"
              "sim = sys.modules['ehrelay.simulate']\n"
              "cfg = validate(SystemConfig())\n"
              "sim.simulate_all(cfg, 2 * sim.trials_per_block(cfg) + 5, 1, workers=3)\n"
              "print(*(p.pid for p in multiprocessing.active_children()), flush=True)\n"
              "os.kill(os.getpid(), signal.SIGKILL)\n")
    # Read one line rather than to the end: workers that outlive the run
    # would hold its stdout open.
    with subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                          text=True, env=_env_with_src()) as run:
        pids = [int(pid) for pid in run.stdout.readline().split()]
        assert run.wait(timeout=120) == -9
    assert len(pids) == 2   # three blocks, three shares: two on the pool
    deadline = time.monotonic() + 10.0
    while any(_exists(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in pids if _exists(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert not left


def test_spawned_workers_match_one_worker():
    # The start method macOS defaults to: workers import the package afresh.
    script = ("import multiprocessing\n"
              "from ehrelay.config import SystemConfig, validate\n"
              "from ehrelay.simulate import simulate_all, trials_per_block\n"
              "multiprocessing.set_start_method('spawn')\n"
              "cfg = validate(SystemConfig())\n"
              "trials = 2 * trials_per_block(cfg) + 5\n"
              "many = simulate_all(cfg, trials, 331, workers=3)\n"
              "print(multiprocessing.get_start_method(),\n"
              "      len(multiprocessing.active_children()),\n"
              "      many == simulate_all(cfg, trials, 331, workers=1))\n")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=_env_with_src(), timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["spawn", "2", "True"]


def _env_with_src():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))


def _exists(pid):
    """Whether process pid is running; a zombie (exited, not reaped) is not."""
    try:
        os.kill(pid, 0)
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except ProcessLookupError:
        return False
    except FileNotFoundError:   # it exited meanwhile, or there is no /proc
        return not os.path.isdir("/proc")


def test_float_format_nine_significant_digits(tmp_path):
    out = tmp_path / "fmt.csv"
    assert run_cli(["analyze", "--scheme", "bcc", "--out", str(out)]) == 0
    p_h = cell(out, "p_h")
    mantissa = p_h.replace("-", "").replace(".", "").lstrip("0")
    assert len(mantissa) <= 9


@pytest.mark.parametrize("value,text", [
    (float("inf"), "inf"), (np.float64("inf"), "inf"), (np.float64("-inf"), "-inf"),
    (np.float64("nan"), "nan"), (np.float64(0.1), "0.1"),
])
def test_non_finite_cells_print_as_plain_floats(value, text):
    # numpy 2's repr of a float64 is "np.float64(inf)"; a cell is "inf".
    assert cli._fmt(value) == text
