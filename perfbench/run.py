"""ehrelay benchmark: one workload per process, closed loop, one caller.

Usage, from the repository root:

    python3 perfbench/run.py --workload sim_baseline --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` of the checkout the script sits in;
without it the script exits non-zero and prints no result. Each workload
sets up, warms up, then calls the package back to back for ``--seconds``
(a unit that would end past the deadline, by the running mean, is not
started). Every result is checked, and every call time is scaled to the
reference machine speed that ``speed.py`` defines. With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics of a run whose units alternate untraced and
traced, which also gives the tracing overhead. Lines before it are a
readable report; a JSON sidecar with provenance, descriptors and failure
reasons (and, when traced, the span file) goes to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 7
SETUP_REPLAYS = 20
SETUP_RUN = 0   # tracer run id of the traced set-up replays

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])


def _import_package():
    """Put the checkout's src/ first on the path and import ehrelay from it."""
    if not os.path.isfile(os.path.join(SRC, "ehrelay", "__init__.py")):
        raise SystemExit(f"perfbench: no package at {SRC}/ehrelay; "
                         "run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import ehrelay
    if os.path.dirname(os.path.dirname(os.path.abspath(ehrelay.__file__))) != SRC:
        raise SystemExit(f"perfbench: ehrelay imported from {ehrelay.__file__}, not {SRC}")


def _setup_probe(name):
    """Time one set-up from a fresh interpreter: import, config, warm-up.

    Prints the wall seconds and the seconds at reference speed, scaled by the
    median of nine speed probes taken right after.
    """
    start = perf_counter()
    _import_package()
    import workloads
    w = workloads.make(name)
    w.setup(ROOT)
    w.warm_up()
    wall = perf_counter() - start
    import speed
    speed.probe()
    probe = statistics.median(speed.probe() for _ in range(9))
    print(repr(wall), repr(wall * speed.reference_s(0) / probe))


class Tally:
    """Calls and outcomes of one mode (untraced or traced) of a run.

    Each call is kept as (rows, trials, wall seconds, speed-probe seconds
    next to it); ``normalized`` is its time at the probe's reference speed.
    """

    def __init__(self, reference_s):
        self.reference_s = reference_s
        self.calls = []
        self.ok_rows = 0
        self.not_ok = Counter()
        self.failures = Counter()

    def normalized(self):
        return [wall * self.reference_s / probe for _, _, wall, probe in self.calls]

    def rate(self, column, normalized=True):
        """Rows (column 0) or trials (1) per second of call time."""
        busy = sum(self.normalized()) if normalized else sum(c[2] for c in self.calls)
        return sum(c[column] for c in self.calls) / busy if busy > 0 else None


def _provenance(name, seed, seconds, trace, loadavg):
    """Where a result came from. Call it after reading peak RSS: it may run git."""
    import numpy
    digest = hashlib.sha256()
    for base in (os.path.join(SRC, "ehrelay"), os.path.join(ROOT, "configs")):
        for fname in sorted(os.listdir(base)):
            path = os.path.join(base, fname)
            if os.path.isfile(path):
                digest.update(fname.encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": commit, "source_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_start_method(),
        "loadavg_at_start": loadavg,
    }


def _run_units(w, seed, seconds, scratch, tracer):
    """The timed closed loop. Returns the untraced and traced tallies.

    The speed probe runs before the first call and after every call. A unit
    is not started when, by the running mean, it would end past the
    deadline. A traced run traces every other unit and runs at least two.
    """
    import speed
    plain, traced = (Tally(speed.reference_s(w.probe_processes)) for _ in range(2))
    units = w.units(seed, scratch)
    probe_before = speed.probe(w.probe_processes)
    start = perf_counter()
    done = 0
    while True:
        calls, context = next(units)
        is_traced = tracer is not None and done % 2 == 1
        tally = traced if is_traced else plain
        if is_traced:
            tracer.run_id = done + 1
            tracer.install()
        results, crashed = [], None
        try:
            for call in calls:
                t0 = perf_counter()
                try:
                    results.append(call.fn())
                except Exception as exc:   # a crash fails the unit; keep going
                    crashed = exc
                    traceback.print_exc(file=sys.stderr)
                    break
                finally:
                    wall = perf_counter() - t0
                    probe_after = speed.probe(w.probe_processes)
                    tally.calls.append((call.rows, call.trials, wall,
                                        (probe_before + probe_after) / 2))
                    probe_before = probe_after
        finally:
            if is_traced:
                tracer.uninstall()
        if crashed is not None:
            tally.failures[f"exception:{type(crashed).__name__}"] += 1
        else:
            outcome = w.check_unit(results, context)
            tally.ok_rows += outcome.ok_rows
            tally.not_ok.update(outcome.not_ok)
            tally.failures.update(outcome.failures)
        done += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / done > seconds and (tracer is None or done >= 2):
            return plain, traced


def _percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q))


def _peak_rss_mb():
    """Peak RSS of this process plus that of its largest waited-for child."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) * 1024 / 1e6


def _setup_seconds(name):
    """Median set-up seconds at reference speed, and every (wall, scaled) pair."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--setup-probe", name], cwd=ROOT, text=True,
                              capture_output=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(tuple(float(v) for v in proc.stdout.split()[-2:]))
    return statistics.median(t[1] for t in times), times


def run_workload(name, seed, seconds, trace):
    loadavg = os.getloadavg()
    import tracing
    import workloads
    scratch = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(scratch, exist_ok=True)

    w = workloads.make(name)
    w.setup(ROOT)
    w.warm_up()
    tracer = serial_trial_s = None
    if trace:
        cfg = getattr(w, "cfg", None)
        if cfg is not None:
            n = 100
            t0 = perf_counter()
            workloads.simulate_mod.simulate(cfg, "bcc", n, seed, workers=1)
            serial_trial_s = (perf_counter() - t0) / n
        tracer = tracing.Tracer()
        tracer.run_id = SETUP_RUN
        tracer.install()
        try:
            for _ in range(SETUP_REPLAYS):
                w.setup(ROOT)
        finally:
            tracer.uninstall()

    loop_start = perf_counter()
    plain, traced = _run_units(w, seed, seconds, scratch, tracer)
    loop_s = perf_counter() - loop_start
    peak_rss = _peak_rss_mb()
    provenance = _provenance(name, seed, seconds, trace, loadavg)
    failures = plain.failures + traced.failures + w.finish(ROOT, scratch, seed)
    rows = sum(c[0] for c in plain.calls + traced.calls)
    ok_rows = plain.ok_rows + traced.ok_rows
    not_ok = plain.not_ok + traced.not_ok
    summary = {
        "untraced_calls": len(plain.calls),
        "rows": rows, "ok_rows": ok_rows,
        "fail_ratio": (rows - ok_rows) / rows,
        "row_not_ok_reasons": dict(not_ok),
        "check_failures": dict(failures),
        "trial_rate": plain.rate(1) if plain.calls[0][1] else None,
        "wall_point_rate": plain.rate(0, normalized=False),
        "median_speed": statistics.median(plain.reference_s / c[3] for c in plain.calls),
        "timed_loop_s": loop_s,
        "calls": plain.calls,
    }
    report = {"provenance": provenance, "summary": summary,
              "computed_descriptors": w.descriptors()}

    tag = f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        table = tracing.SpanTable(tracer.spans)
        values = tracing.layer_metrics(table, SETUP_RUN, SETUP_REPLAYS, serial_trial_s)
        for column, key in ((1, "trial_rate"), (0, "point_rate")):
            a, b = plain.rate(column), traced.rate(column)
            values[f"trace.{key}_overhead_pct"] = (a - b) / a * 100.0 if a and b else None
        units = PER_LAYER
        report["spans"] = {"count": len(tracer.spans),
                           "by_name": tracing.span_summary(table),
                           "pool_worker_spans": "not captured"}
        tracer.write_csv(os.path.join(scratch, f"spans-{tag}.csv"))
    else:
        setup_s, setup_all = _setup_seconds(name)
        call_ms = [t * 1e3 for t in plain.normalized()]
        values = {
            "point_rate": plain.rate(0),
            "call_ms_p50": _percentile(call_ms, 50),
            "call_ms_p90": _percentile(call_ms, 90),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss,
            "ok_ratio": ok_rows / rows,
        }
        summary["setup_s_probes"] = setup_all
        units = END_TO_END

    absent = sorted(k for k in units if values.get(k) is None)
    metrics = {k: {"value": float(values[k]) if values.get(k) is not None else 0.0,
                   "unit": unit} for k, unit in units.items()}
    report["metrics"] = metrics
    report["absent"] = absent
    with open(os.path.join(scratch, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)

    print(f"provenance: {json.dumps(provenance, default=str)}")
    print(f"computed (from the config, not measured): {json.dumps(report['computed_descriptors'])}")
    trial_rate = summary["trial_rate"]
    print(f"{name}: {summary['untraced_calls']} untraced timed calls, {rows} rows, "
          f"trial_rate {'n/a' if trial_rate is None else f'{trial_rate:.6g} 1/s'}, "
          f"fail_ratio {summary['fail_ratio']:.6g} ({rows - ok_rows}/{rows})")
    print(f"  machine speed {summary['median_speed']:.3g} x reference (median), "
          f"wall point_rate {summary['wall_point_rate']:.6g} 1/s, "
          f"timed loop {loop_s:.3g} s")
    if trace:
        print(f"  {len(tracer.spans)} spans captured in this process; spans inside "
              f"simulate() pool workers are not captured")
    for reason, count in sorted(not_ok.items()):
        print(f"  not ok: {reason}: {count} rows")
    for check, count in sorted(failures.items()):
        print(f"  CHECK FAILED: {check}: {count}")
    for key, m in metrics.items():
        flag = "  (absent on this workload)" if key in absent else ""
        print(f"  {key:45s} {m['value']:14.6g} {m['unit']}{flag}")
    failed = sum(failures.values())
    result = {"correct": failed == 0, "attempted": rows, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(seed, seconds, trace):
    """Every workload, each in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                              cwd=ROOT, text=True, stdout=subprocess.PIPE)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=_SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        _setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    _import_package()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
