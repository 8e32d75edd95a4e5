"""The benchmark workloads: inputs made from a seed, calls, and checks.

Every workload calls only public ehrelay functions, looked up on their module
at call time so the tracer's wrappers are seen. ``units`` yields units
without end; a unit is a list of calls that belong together, and the runner
times each call, then hands the unit's results to ``check_unit``. ``finish``
runs the aggregate and untimed checks after the timed loop.

Row outcomes: a row is *ok* when the program returned a value that passed
every check. A ``QuadratureFailure`` is the program's documented diagnostic
for a valid config, so it is not a benchmark failure; it makes the row not ok
and is counted by context. A failed check is a benchmark failure.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import random
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ehrelay import analytics, cli, config

simulate_mod = importlib.import_module("ehrelay.simulate")

SCHEMES = ("bcc", "bsir", "bstd", "random_baseline")
# Flags whose counts depend only on the realization, not on the scheme.
SCHEME_FREE_FLAGS = ("harvest_ok", "st_clear", "relay_nonempty", "direct_decode_ok")
# Simulated rates must lie this many standard errors of the difference from
# the reference; wide enough that roughly one run in 10^5 trips it by chance.
Z_BAND = 5.0
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


@dataclass
class Call:
    fn: object       # zero-argument callable, timed by the runner
    rows: int        # config x scheme rows it produces
    trials: int      # Monte Carlo trials it runs


@dataclass
class UnitResult:
    ok_rows: int = 0
    not_ok: Counter = field(default_factory=Counter)     # reason -> rows
    failures: Counter = field(default_factory=Counter)   # check name -> count


def _baseline(root):
    return config.load_config(os.path.join(root, "configs", "baseline.cfg"))


class SimWorkload:
    """simulate() for all four schemes on one config at workers=1.

    A unit is the four schemes on one simulation seed drawn from the workload
    seed. The four schemes share realizations, so their scheme-free flag
    counts must agree.
    """

    probe_processes = 0   # single-threaded: probe machine speed in-process

    def __init__(self, name, overrides, trials_per_call):
        self.name = name
        self.overrides = overrides
        self.trials_per_call = trials_per_call

    def setup(self, root):
        self.cfg = config.validate(config.apply_overrides(_baseline(root), self.overrides))
        self.successes = Counter()
        self.trials = Counter()

    def warm_up(self):
        simulate_mod.simulate(self.cfg, "bcc", 4, 0, workers=1)

    def units(self, seed, scratch):
        rng = random.Random(seed)
        while True:
            s = rng.randrange(2 ** 31)
            yield [Call(fn=(lambda sc=scheme, s=s: simulate_mod.simulate(
                            self.cfg, sc, self.trials_per_call, s, workers=1)),
                        rows=1, trials=self.trials_per_call)
                   for scheme in SCHEMES], None

    def check_unit(self, results, _context):
        out = UnitResult()
        free = set()
        for scheme, res in zip(SCHEMES, results):
            bad = _sim_result_problems(res, scheme, self.trials_per_call)
            if bad:
                out.failures[bad] += 1
                continue
            out.ok_rows += 1
            self.successes[scheme] += res.flag_counts["success"]
            self.trials[scheme] += res.trials
            free.add(tuple(res.flag_counts[f] for f in SCHEME_FREE_FLAGS))
        if len(free) > 1:
            out.failures["paired_realizations_differ"] += 1
        return out

    def finish(self, root, scratch, seed):
        """Each scheme's rate over the run vs the reference."""
        failures = Counter()
        with open(REFERENCE_FILE, encoding="utf-8") as fh:
            reference = json.load(fh)[self.name]
        for scheme in SCHEMES:
            ref = reference["schemes"][scheme]
            if not _within_band(self.successes[scheme], self.trials[scheme],
                                ref["successes"], ref["trials"]):
                failures[f"rate_outside_reference_band:{scheme}"] += 1
        return failures

    def descriptors(self):
        return sim_descriptors(self.cfg)


def _sim_result_problems(res, scheme, trials):
    """Name of the first violated invariant of one simulate() result, or ''."""
    counts = res.flag_counts
    est = res.estimate
    if res.scheme != scheme or res.trials != trials or est.trials != trials:
        return "wrong_echo"
    if any(not 0 <= c <= trials for c in counts.values()):
        return "count_out_of_range"
    if not 0.0 <= est.ci_low <= est.p_hat <= est.ci_high <= 1.0:
        return "ci_order"
    if est.p_hat != counts["success"] / trials:
        return "p_hat_not_count"
    needed = ("harvest_ok", "st_clear", "relay_nonempty", "sr_decode_ok",
              "sr_clear", "sd_decode_ok")
    if counts["success"] > min(counts[f] for f in needed):
        return "success_exceeds_required_flag"
    return ""


def _within_band(k, n, k_ref, n_ref):
    if n == 0:
        return False
    p = (k + k_ref) / (n + n_ref)
    se = math.sqrt(max(p * (1.0 - p), 1e-12) * (1.0 / n + 1.0 / n_ref))
    return abs(k / n - k_ref / n_ref) <= Z_BAND * se


def sim_descriptors(cfg):
    """Expected per-trial sizes of the simulation, computed from the config."""
    primaries = cfg.lambda_p * math.pi * cfg.r_max ** 2
    relays = cfg.lambda_sr * math.pi * cfg.r_disc ** 2
    pairs = relays * primaries
    return {
        "primaries_per_field": primaries,
        "primary_fields_per_trial": 4,
        "guard_zone_receivers_per_trial": cfg.lambda_p * math.pi * (cfg.r_disc + cfg.r_gz) ** 2,
        "relays_per_trial": relays,
        "relay_primary_pairs_per_trial": pairs,
        "relay_primary_matrix_bytes_per_trial": pairs * 8,
    }


# --------------------------------------------------------------------------
# sweep_trend
# --------------------------------------------------------------------------

SWEEP_HEADER = ["param", "value", "scheme", "trials", "seed", "sim_p_succ",
                "ci_low", "ci_high", "ana_p_succ"]


class SweepWorkload:
    """cli.main(["sweep", ...]) over the criterion-5 p_st_dbm grid.

    One call is one grid point with all four schemes at workers=2, which is
    what a full sweep does per point. The workload seed orders the points
    and draws each call's simulation seed; every 16 calls cover the grid.
    """

    grid = tuple(float(v) for v in np.linspace(-5.0, 10.0, 16))
    trials = 1000
    workers = 2
    probe_processes = workers   # the pool runs on two processes; probe on as many

    def setup(self, root):
        self.cfg_path = os.path.join(root, "configs", "baseline.cfg")
        self.cfg = config.validate(_baseline(root))

    def warm_up(self):
        analytics.analyze(self.cfg, "bcc")
        simulate_mod.simulate(self.cfg, "bcc", 4, 0, workers=1)

    def argv(self, value, trials, seed, workers, out):
        return ["sweep", "--config", self.cfg_path, "--param", "p_st_dbm",
                f"--values={value!r}", "--schemes", ",".join(SCHEMES),
                "--trials", str(trials), "--seed", str(seed),
                "--workers", str(workers), "--out", out]

    def units(self, seed, scratch):
        rng = random.Random(seed)
        self._out = os.path.join(scratch, f"sweep-{os.getpid()}.csv")
        while True:
            for value in rng.sample(self.grid, len(self.grid)):
                sim_seed = rng.randrange(2 ** 31)
                argv = self.argv(value, self.trials, sim_seed, self.workers, self._out)
                yield [Call(fn=lambda argv=argv: cli.main(argv), rows=len(SCHEMES),
                            trials=len(SCHEMES) * self.trials)], (value, sim_seed)

    def check_unit(self, results, context):
        value, sim_seed = context
        out = UnitResult()
        code = results[0]
        if code == 3:
            out.not_ok["quadrature:sweep"] += len(SCHEMES)
            return out
        if code != 0:
            out.failures[f"exit_code_{code}"] += 1
            return out
        with open(self._out, encoding="utf-8") as fh:
            text = fh.read()
        bad = sweep_csv_problems(text, [value], self.trials, sim_seed)
        if bad:
            out.failures[bad] += 1
        else:
            out.ok_rows += len(SCHEMES)
        return out

    def finish(self, root, scratch, seed):
        """Untimed slice: workers 1 and 2 must write identical CSV."""
        if os.path.exists(self._out):
            os.remove(self._out)
        failures = Counter()
        rng = random.Random(seed + 1)
        value = rng.choice(self.grid)
        sim_seed = rng.randrange(2 ** 31)
        texts = []
        for workers in (1, 2):
            path = os.path.join(scratch, f"sweep-w{workers}-{os.getpid()}.csv")
            code = cli.main(self.argv(value, 300, sim_seed, workers, path))
            if code != 0:
                failures[f"workers_slice_exit_code_{code}"] += 1
                return failures
            with open(path, encoding="utf-8") as fh:
                texts.append(fh.read())
            os.remove(path)
        bad = sweep_csv_problems(texts[0], [value], 300, sim_seed)
        if bad:
            failures[f"workers_slice_{bad}"] += 1
        if texts[0] != texts[1]:
            failures["workers_1_vs_2_output_differs"] += 1
        return failures

    def descriptors(self):
        d = sim_descriptors(self.cfg)
        d["grid_points"] = len(self.grid)
        d["rows_per_call"] = len(SCHEMES)
        d["simulate_calls_per_grid_point"] = len(SCHEMES)
        return d


def sweep_csv_problems(text, values, trials, seed):
    """Name of the first violated invariant of a sweep CSV, or ''."""
    lines = text.split("\n")
    if lines[-1] != "":
        return "csv_no_trailing_newline"
    rows = [line.split(",") for line in lines[:-1]]
    if rows[0] != SWEEP_HEADER:
        return "csv_header"
    rows = rows[1:]
    if len(rows) != len(values) * len(SCHEMES):
        return "csv_row_count"
    if any(len(r) != len(SWEEP_HEADER) for r in rows):
        return "csv_column_count"
    ana = {}
    for i, r in enumerate(rows):
        value, scheme = values[i // len(SCHEMES)], SCHEMES[i % len(SCHEMES)]
        if (r[0] != "p_st_dbm" or float(r[1]) != value or r[2] != scheme
                or int(r[3]) != trials or int(r[4]) != seed):
            return "csv_row_keys"
        p, lo, hi = float(r[5]), float(r[6]), float(r[7])
        if not 0.0 <= lo <= p <= hi <= 1.0:
            return "csv_ci_order"
        if abs(p * trials - round(p * trials)) > 1e-6:
            return "csv_rate_not_a_count"
        if scheme == "random_baseline":
            if r[8] != "":
                return "csv_random_baseline_has_analytic"
        else:
            a = float(r[8])
            if not 0.0 <= a <= 1.0:
                return "csv_analytic_out_of_range"
            ana[(value, scheme)] = a
    if any(ana[(v, "bcc")] != ana[(v, "bsir")] for v in values):
        return "csv_bcc_bsir_analytic_differ"
    return ""


# --------------------------------------------------------------------------
# analyze_grid
# --------------------------------------------------------------------------

class AnalyzeWorkload:
    """analyze() then alpha4_selfcheck(), as ``ehrelay analyze`` runs them.

    A unit is a pass over the whole grid in a seed-shuffled order, so every
    run measures the same multiset of calls; each pass must give the same
    outcomes.
    """

    alphas = (3.5, 4.0, 5.0)
    lambdas = tuple(float(v) for v in np.geomspace(3e-3, 3e-2, 3))
    powers = (0.0, 5.0, 10.0)
    schemes = ("bcc", "bsir", "bstd")
    probe_processes = 0

    def setup(self, root):
        base = _baseline(root)
        self.configs = []
        self.skipped = 0
        for alpha in self.alphas:
            for lam in self.lambdas:
                for pst in self.powers:
                    try:
                        self.configs.append(config.validate(config.apply_overrides(
                            base, {"alpha": alpha, "lambda_p": lam, "p_st_dbm": pst})))
                    except config.ConfigError:
                        self.skipped += 1
        self.first_outcome = {}

    def warm_up(self):
        cfg = next(c for c in self.configs if c.alpha == 4.0)
        analytics.analyze(cfg, "bcc")
        analytics.alpha4_selfcheck(cfg)

    @staticmethod
    def _call(cfg, scheme):
        try:
            breakdown = analytics.analyze(cfg, scheme)
        except analytics.QuadratureFailure as exc:
            return exc
        return breakdown, analytics.alpha4_selfcheck(cfg)

    def units(self, seed, scratch):
        keys = [(i, s) for i in range(len(self.configs)) for s in self.schemes]
        order = random.Random(seed).sample(keys, len(keys))
        calls = [Call(fn=lambda c=self.configs[i], s=s: self._call(c, s), rows=1, trials=0)
                 for i, s in order]
        while True:
            yield calls, order

    def check_unit(self, results, order):
        out = UnitResult()
        p_succ = {}
        for (i, scheme), res in zip(order, results):
            cfg = self.configs[i]
            if isinstance(res, analytics.QuadratureFailure):
                outcome = ("fail", res.context)
                out.not_ok[f"quadrature:{res.context}"] += 1
            else:
                breakdown, selfcheck = res
                outcome = ("ok", breakdown.p_succ)
                bad = breakdown_problems(cfg, breakdown, selfcheck)
                if bad:
                    out.failures[bad] += 1
                else:
                    out.ok_rows += 1
                p_succ[(i, scheme)] = breakdown.p_succ
            if self.first_outcome.setdefault((i, scheme), outcome) != outcome:
                out.failures["outcome_not_deterministic"] += 1
        for i in range(len(self.configs)):
            if (i, "bcc") in p_succ or (i, "bsir") in p_succ:
                if p_succ.get((i, "bcc")) != p_succ.get((i, "bsir")):
                    out.failures["bcc_bsir_p_succ_differ"] += 1
        return out

    def finish(self, root, scratch, seed):
        return Counter()

    def descriptors(self):
        closed = sum(1 for c in self.configs if c.alpha == 4.0)
        return {
            "grid_configs": len(self.configs) + self.skipped,
            "configs_rejected_by_validate": self.skipped,
            "calls_per_pass": len(self.configs) * len(self.schemes),
            "closed_form_path_share": closed / len(self.configs),
            "quadrature_path_share": 1.0 - closed / len(self.configs),
        }


def breakdown_problems(cfg, b, selfcheck):
    """Name of the first violated invariant of one analytic breakdown, or ''."""
    for name in analytics.BREAKDOWN_FIELDS:
        v = getattr(b, name)
        if v is None:
            continue
        if not math.isfinite(v):
            return f"field_not_finite:{name}"
        if name == "lambda_eff":
            if v < 0.0:
                return "lambda_eff_negative"
        elif not 0.0 <= v <= 1.0:
            return f"field_outside_unit_interval:{name}"
    if b.p_succ is None:
        return "p_succ_missing"
    if cfg.alpha == 4.0:
        if abs(b.p_h - analytics.p_h_levy_erf(cfg)) > 1e-6:
            return "gil_pelaez_vs_levy_erf"
        if not selfcheck or any(rel > 1e-8 for *_, rel in selfcheck):
            return "alpha4_selfcheck"
    return ""


def make(name):
    if name == "sim_baseline":
        return SimWorkload("sim_baseline", {}, trials_per_call=200)
    if name == "sim_dense":
        return SimWorkload("sim_dense", {"alpha": 3.0, "r_max": 400.0, "p_st_dbm": 5.0},
                           trials_per_call=16)
    if name == "sweep_trend":
        return SweepWorkload()
    if name == "analyze_grid":
        return AnalyzeWorkload()
    raise KeyError(name)
