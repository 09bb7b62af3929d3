"""Host-speed references for the perf benchmark.

The benchmark runs on shared virtual machines whose speed drifts with
other guests' load: a fixed Python loop can take twice as long from one
minute to the next, and a slow episode moves every timing of a run.  To
take that drift out, a fixed reference is timed before and after each
measured piece of work, and the work's duration ``t`` is reported as

    t * nominal / reference

that is, the time the work would have taken on a host on which the
reference takes ``nominal``.  There are two references:

* ``kernel_s`` - a pure-Python loop in this process, timed between
  consecutive pieces of work that run in this process or a warm one
  (campaigns, submits).  One 10 ms reading is itself noisy: now and
  then one reads two or three times its neighbours.  So ``reference``
  is the median of the ``SIDE`` readings before the work and the
  ``SIDE`` after it (:func:`around`), which still follows a slow
  episode of a few seconds;
* ``start_s`` - a fresh interpreter that imports part of the standard
  library and runs a short loop, next to a set-up that starts a process
  (a corpus build, a daemon start); ``reference`` is the mean of the
  readings right before and right after.  Process start-up and imports
  feel host load differently from a warm loop.

Neither calls program code, so a change to the program does not move
them; only the host does.  The raw wall times are kept beside the
scaled ones in each run's ``info`` line.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time

NOMINAL_S = 0.010               # kernel_s() on the reference host
START_NOMINAL_S = 0.200         # start_s() on the reference host
SIDE = 3                        # kernel readings on each side of work
_ROUNDS = 10_000                # about NOMINAL_S on a 2-vCPU KVM guest
# Random byte updates over a buffer larger than a core's private caches
# make the kernel feel contention for the shared cache and memory, as
# the program's large heap does.  It adds 8 MiB to the peak RSS of the
# process that times the kernel.
_BUFFER = bytearray(8 << 20)
_MASK = len(_BUFFER) - 1
_START_SCRIPT = (
    "import argparse, dataclasses, decimal, email.parser, http.client, "
    "json, logging, sqlite3, typing, urllib.request, xml.dom.minidom\n"
    "table = {}\n"
    "for i in range(100000):\n"
    "    key = (i * 2654435761) & 4095\n"
    "    table[key] = table.get(key, 0) + 1\n")


def _mix(acc: int, value: int) -> int:
    return (acc * 31 + value) & 0xFFFFFFFF


def kernel_s() -> float:
    """Wall time of one run of the reference kernel.

    The kernel does what the interpreter-bound program does most: dict
    reads and writes, indexed byte updates, integer arithmetic and
    function calls.  The garbage collector is off while it runs, so the
    size of the program's heap does not enter the measurement."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        table: dict[int, int] = {}
        acc = 0
        for i in range(_ROUNDS):
            key = (i * 2654435761) & 4095
            table[key] = table.get(key, 0) + 1
            _BUFFER[(i * 2654435761) & _MASK] ^= i & 0xFF
            acc = _mix(acc, i)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def start_s() -> float:
    """Wall time to start an isolated interpreter (``-I``: no
    environment, no user site) that runs ``_START_SCRIPT``."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", _START_SCRIPT], check=True)
    return time.perf_counter() - started


def around(readings: list[float], index: int) -> float:
    """The reference for the work done between ``readings[index]`` and
    ``readings[index + 1]``: the median of the ``SIDE`` readings up to
    and including the first and the ``SIDE`` from the second on (fewer
    at either end of the list)."""
    return statistics.median(
        readings[max(0, index + 1 - SIDE):index + 1 + SIDE])


def scale(duration_s: float, reference_s: float,
          nominal_s: float = NOMINAL_S) -> float:
    """``duration_s`` at the reference host speed, given the reference
    time measured around it."""
    return duration_s * nominal_s / reference_s
