"""In-memory span tracing around the public functions of the ehrelay modules.

``Tracer.install`` replaces each target function with a wrapper in its
defining module and in every ``ehrelay`` module that imported it by name, so
calls across module boundaries (``ehrelay.simulate.interference_sum``,
``ehrelay.cli.analyze``, ...) are seen. ``uninstall`` puts the originals
back, so untraced blocks of a run pay nothing.

A span is (id, parent id, run id, name, start, end, ok, info). Only the
process that installed the tracer records spans: a worker forked by
``simulate(..., workers=2)`` inherits the wrappers but calls straight through,
so spans inside pool workers are not captured.
"""

from __future__ import annotations

import csv
import functools
import importlib
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, layer.metric-style span name). Nested attributes name a
# method on a class.
TARGETS = (
    ("ehrelay.config", "load_config", "config.load_config"),
    ("ehrelay.config", "validate", "config.validate"),
    ("ehrelay.config", "apply_overrides", "config.apply_overrides"),
    ("ehrelay.geometry", "RngStream.generator", "geometry.rng_setup"),
    ("ehrelay.geometry", "interference_sum", "geometry.interference_sum"),
    ("ehrelay.geometry", "is_clear_of_guard_zones", "geometry.guard_check"),
    ("ehrelay.simulate", "simulate", "simulate.simulate"),
    ("ehrelay.simulate", "run_realization", "simulate.run_realization"),
    ("ehrelay.simulate", "select_relay", "simulate.select_relay"),
    ("ehrelay.simulate", "harvested_energy", "simulate.harvested_energy"),
    ("ehrelay.analytics", "analyze", "analytics.analyze"),
    ("ehrelay.analytics", "p_h_gil_pelaez", "analytics.p_h"),
    ("ehrelay.analytics", "chi_integral", "analytics.chi"),
    ("ehrelay.analytics", "psi31_bound", "analytics.decode.psi31"),
    ("ehrelay.analytics", "omega1", "analytics.decode.omega1"),
    ("ehrelay.analytics", "psi4_far_field", "analytics.decode.psi4"),
    ("ehrelay.analytics", "delta_decode", "analytics.decode.delta"),
    ("ehrelay.analytics", "alpha4_selfcheck", "analytics.selfcheck"),
    ("ehrelay.cli", "main", "cli.main"),
)

CONFIG_SPANS = ("config.load_config", "config.validate", "config.apply_overrides")

# QuadratureFailure contexts reported on their own; any other context is
# counted under "other".
FAIL_CONTEXTS = {
    "gil-pelaez inversion": "analytics.fail.gil-pelaez_inversion",
    "gil-pelaez panels": "analytics.fail.gil-pelaez_panels",
    "chi double integral": "analytics.fail.chi_double_integral",
}
FAIL_OTHER = "analytics.fail.other"


def _simulate_info(args, kwargs):
    """(config, seed, trials, workers, scheme) of one simulate() call."""
    names = ("cfg", "scheme", "trials", "seed", "workers")
    bound = dict(zip(names, args))
    bound.update(kwargs)
    return (bound["cfg"], bound["seed"], bound["trials"], bound.get("workers"),
            bound["scheme"])


_INFO = {"simulate.simulate": _simulate_info}


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.run_id = 0
        self._stack = []
        self._next_id = 0
        self._pid = os.getpid()
        self._originals = []

    def _wrap(self, span_name, fn):
        info_of = _INFO.get(span_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            info = info_of(args, kwargs) if info_of else None
            self._stack.append(span_id)
            ok = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                ok = False
                info = getattr(exc, "context", type(exc).__name__)
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, self.run_id, span_name,
                                   start, end, ok, info))

        return wrapper

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "ehrelay" or name.startswith("ehrelay.")]
        for module_name, attr, span_name in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            wrapped = self._wrap(span_name, original)
            holders = [owner] + [m for m in modules
                                 if not path and m.__dict__.get(leaf) is original
                                 and m is not owner]
            for holder in holders:
                setattr(holder, leaf, wrapped)
                self._originals.append((holder, leaf, original))

    def uninstall(self):
        for holder, leaf, original in reversed(self._originals):
            setattr(holder, leaf, original)
        self._originals.clear()

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "run", "name", "start", "end",
                             "ok", "info"])
            for span_id, parent, run, name, start, end, ok, info in self.spans:
                if name == "simulate.simulate":
                    info = "seed=%s trials=%s workers=%s scheme=%s" % info[1:]
                writer.writerow([span_id, parent, run, name, repr(start),
                                 repr(end), int(ok), info])


class SpanTable:
    """Durations, self times and ancestry of a finished set of spans."""

    def __init__(self, spans):
        index = {s[0]: i for i, s in enumerate(spans)}
        self.spans = spans
        self.by_name = defaultdict(list)
        for i, s in enumerate(spans):
            self.by_name[s[3]].append(i)
        self.duration = [s[5] - s[4] for s in spans]
        self.self_time = list(self.duration)
        for i, s in enumerate(spans):
            p = index.get(s[1])
            if p is not None:
                self.self_time[p] -= self.duration[i]
        # Spans are stored in exit order, so a parent follows its children;
        # walk from the end to inherit "inside analyze" from parents.
        self.under_analyze = [False] * len(spans)
        for i in range(len(spans) - 1, -1, -1):
            s = spans[i]
            p = index.get(s[1])
            self.under_analyze[i] = (s[3] == "analytics.analyze"
                                     or (p is not None and self.under_analyze[p]))

    def select(self, name, run=None, under_analyze=None):
        for i in self.by_name.get(name, ()):
            if run is not None and self.spans[i][2] != run:
                continue
            if under_analyze is not None and self.under_analyze[i] != under_analyze:
                continue
            yield i

    def count(self, name, **kw):
        return sum(1 for _ in self.select(name, **kw))

    def total(self, name, self_only=False, **kw):
        times = self.self_time if self_only else self.duration
        return sum(times[i] for i in self.select(name, **kw))


def layer_metrics(table: SpanTable, setup_run: int, setup_replays: int,
                  serial_trial_s: float | None):
    """Per-layer metrics from one traced run; None marks a metric absent.

    ``serial_trial_s`` is the untraced workers=1 cost of one trial, used as
    the reference for parallel efficiency.
    """
    m = {}
    trials = table.count("simulate.run_realization")

    def per_trial_us(name, self_only=False):
        if not trials:
            return None
        return table.total(name, self_only=self_only) / trials * 1e6

    m["geometry.rng_setup_us"] = per_trial_us("geometry.rng_setup")
    m["geometry.interference_sum_us"] = per_trial_us("geometry.interference_sum")
    m["geometry.interference_sum_calls_per_trial"] = (
        table.count("geometry.interference_sum") / trials if trials else None)
    m["geometry.guard_check_us"] = per_trial_us("geometry.guard_check")
    m["simulate.run_realization_self_us"] = per_trial_us(
        "simulate.run_realization", self_only=True)
    m["simulate.select_relay_us"] = per_trial_us("simulate.select_relay")
    m["simulate.harvested_energy_us"] = per_trial_us("simulate.harvested_energy")

    sims = [table.spans[i] for i in table.select("simulate.simulate")]
    sim_durations = [table.duration[i] for i in table.select("simulate.simulate")]
    if sims:
        points = {info[:2] for *_, info in sims}
        distinct_calls = {info[:2] + info[4:] for *_, info in sims}
        m["simulate.calls_per_point"] = len(distinct_calls) / len(points)
        parallel = [(s[7], d) for s, d in zip(sims, sim_durations)
                    if (s[7][3] or 1) > 1]
        if not parallel:
            m["simulate.parallel_efficiency"] = 1.0
        elif serial_trial_s:
            work = sum(info[2] for info, _ in parallel) * serial_trial_s
            capacity = sum(d * info[3] for info, d in parallel)
            m["simulate.parallel_efficiency"] = work / capacity
        else:
            m["simulate.parallel_efficiency"] = None
    else:
        m["simulate.calls_per_point"] = None
        m["simulate.parallel_efficiency"] = None

    analyses = list(table.select("analytics.analyze"))
    n_ana = len(analyses)

    def per_analyze_ms(*names):
        if not n_ana:
            return None
        return sum(table.total(n, under_analyze=True) for n in names) / n_ana * 1e3

    m["analytics.analyze_ms"] = per_analyze_ms("analytics.analyze")
    m["analytics.p_h_ms"] = per_analyze_ms("analytics.p_h")
    m["analytics.chi_ms"] = per_analyze_ms("analytics.chi")
    m["analytics.decode_factors_ms"] = per_analyze_ms(
        "analytics.decode.psi31", "analytics.decode.omega1",
        "analytics.decode.psi4", "analytics.decode.delta")
    n_self = table.count("analytics.selfcheck")
    m["analytics.selfcheck_ms"] = (table.total("analytics.selfcheck") / n_self * 1e3
                                   if n_self else None)
    fails = Counter(table.spans[i][7] for i in analyses if not table.spans[i][6])
    m["analytics.useful_ratio"] = (n_ana - sum(fails.values())) / n_ana if n_ana else None
    for metric in list(FAIL_CONTEXTS.values()) + [FAIL_OTHER]:
        m[metric] = 0.0 if n_ana else None
    for context, count in fails.items():
        metric = FAIL_CONTEXTS.get(context, FAIL_OTHER)
        m[metric] += count / n_ana

    config_s = sum(table.total(n, run=setup_run) for n in CONFIG_SPANS)
    m["config.load_validate_us"] = (config_s / setup_replays * 1e6
                                    if setup_replays else None)

    mains = list(table.select("cli.main"))
    m["cli.self_ms"] = (sum(table.self_time[i] for i in mains) / len(mains) * 1e3
                        if mains else None)
    return m


def span_summary(table: SpanTable):
    """Calls, total and self seconds per span name, for the sidecar file."""
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for i, s in enumerate(table.spans):
        row = out[s[3]]
        row[0] += 1
        row[1] += table.duration[i]
        row[2] += table.self_time[i]
    return {name: {"calls": c, "total_s": t, "self_s": st}
            for name, (c, t, st) in sorted(out.items())}
