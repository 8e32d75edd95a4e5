"""Machine-speed probe: a fixed kernel timed next to every benchmark call.

On the 2-core virtual machine this benchmark was built on, other tenants
share the host: the same code runs up to 2x slower from one second to the
next, and 10 to 40 % slower or faster between runs minutes apart. The probe
is a fixed mix of interpreter work, small-array and mid-array numpy work, none
of it from ehrelay, so a change to the program does not change it. A call's
wall time times ``reference_s(processes)`` over the probe time next to it is
the call's time at reference speed: the speed at which the probe takes its
reference time.

A workload that runs on more than one process is probed the same way: its
probe forks that many processes, each running the kernel, and times the whole
fork, run and join.
"""

from __future__ import annotations

import math
import multiprocessing
from time import perf_counter

import numpy as np

_REFERENCE_S = {0: 0.003, 2: 0.045}
_FORKED_REPEATS = 8

_rng = np.random.default_rng(12345)
_WIDE = _rng.random(4096)
_POINTS = _rng.random((64, 2))


def _kernel() -> float:
    """Wall seconds of one pass of the fixed kernel (about 3 ms)."""
    start = perf_counter()
    acc = 0.0
    table = {}
    for i in range(3000):
        table[i & 63] = acc
        acc += math.sqrt(i) * 0.5
    for _ in range(40):
        x = np.random.default_rng(7).random(80)
        acc += float(np.sum(np.hypot(_POINTS[:, 0] - x[:64], _POINTS[:, 1]) ** -3.0))
    for _ in range(10):
        acc += float(np.sum(np.exp(-_WIDE) * np.sin(_WIDE * 3.0)))
    return perf_counter() - start


def _forked_kernel():
    for _ in range(_FORKED_REPEATS):
        _kernel()


def reference_s(processes: int) -> float:
    return _REFERENCE_S[processes]


def probe(processes: int = 0) -> float:
    """Probe seconds: the kernel in this process, or in ``processes`` forks."""
    if not processes:
        return _kernel()
    start = perf_counter()
    children = [multiprocessing.get_context("fork").Process(target=_forked_kernel)
                for _ in range(processes)]
    for child in children:
        child.start()
    for child in children:
        child.join()
    elapsed = perf_counter() - start
    if any(child.exitcode != 0 for child in children):
        raise RuntimeError("speed probe process failed")
    return elapsed
