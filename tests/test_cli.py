"""Command-line behavior: exit codes, CSV shape, and byte stability."""

import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from ehrelay import analytics
from ehrelay.analytics import p_h_levy_erf
from ehrelay.cli import main
from ehrelay.config import SystemConfig, validate


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


def test_analyze_quadrature_failure_exit_code(capsys, monkeypatch):
    # With no node doubling allowed, the common-interference chi cannot show
    # that it settled, so it raises its documented stall.
    monkeypatch.setattr(analytics, "_CHI_MAX_DOUBLINGS", 0)
    assert run_cli(["analyze", "--scheme", "bstd", "--d_sd", "0.5"]) == 3
    assert "quadrature" in capsys.readouterr().err


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


def test_sweep_aborts_on_invalid_grid_point(capsys):
    code = run_cli(["sweep", "--param", "alpha", "--values", "4,2",
                    "--schemes", "bcc", "--trials", "10"])
    assert code == 2
    err = capsys.readouterr().err
    assert "alpha=2" in err and "alpha must exceed 2" in err


@pytest.mark.parametrize("command", ["sweep", "compare"])
@pytest.mark.parametrize("values,bad", [("a,b", "a"), ("0,x2", "x2")])
def test_non_numeric_grid_value_rejected(command, values, bad, capsys):
    scheme = ["--schemes", "bcc"] if command == "sweep" else ["--scheme", "bcc"]
    assert run_cli([command, "--param", "p_st_dbm", f"--values={values}",
                    "--trials", "10"] + scheme) == 2
    assert f"{bad!r} is not a number" in capsys.readouterr().err


@pytest.mark.parametrize("schemes,message", [
    (",", "--schemes names no scheme"), ("bcc,bcc", "--schemes names 'bcc' twice"),
])
def test_sweep_rejects_empty_or_repeated_schemes(schemes, message, tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert run_cli(["sweep", "--param", "p_st_dbm", "--values=0", "--schemes",
                    schemes, "--trials", "10", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sweep_needs_grid(capsys):
    assert run_cli(["sweep", "--schemes", "bcc", "--trials", "10"]) == 2


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
@pytest.mark.parametrize("value", ["0", "-5"])
def test_trials_below_one_rejected(command, args, value, capsys):
    assert run_cli([command, f"--trials={value}"] + args) == 2
    assert "argument --trials: must be at least 1" in capsys.readouterr().err


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


def test_workers_env_default(monkeypatch):
    from ehrelay.simulate import default_workers
    monkeypatch.setenv("EHRELAY_WORKERS", "5")
    assert default_workers() == 5
    monkeypatch.setenv("EHRELAY_WORKERS", "junk")
    assert default_workers() == 1
    monkeypatch.delenv("EHRELAY_WORKERS")
    assert default_workers() == 1


def test_float_format_nine_significant_digits(tmp_path):
    out = tmp_path / "fmt.csv"
    assert run_cli(["analyze", "--scheme", "bcc", "--out", str(out)]) == 0
    p_h = cell(out, "p_h")
    mantissa = p_h.replace("-", "").replace(".", "").lstrip("0")
    assert len(mantissa) <= 9
