"""Convert measured times to a fixed reference CPU speed.

On a shared host the speed of a CPU-bound run drifts by up to 1.7x over tens
of seconds, as neighbours come and go; no statistic over raw wall times
removes that. Each repetition therefore times a fixed pure-Python loop, which
uses nothing from ``promptopt``, right before and right after its run. The CPU
time of a span is scaled by ``REFERENCE_S / loop time``; the rest of the span,
time spent waiting (on the loopback stub's fixed latency, say), is kept as it
is. A change to the program moves the scaled time as it moves the wall time; a
change of host speed moves the loop too and cancels out.
"""

from __future__ import annotations

import json
import random
import re
import time

# The loop's time on a quiet 2-vCPU x86-64 cloud VM, CPython 3. It only fixes
# the scale: scaled seconds read as seconds on a host of that speed.
REFERENCE_S = 0.0215
LOOP_RUNS = 2  # per side of the run, so each repetition times the loop four times

_WORD = re.compile(r"[a-z]+")
_WORDS = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta")


def _loop() -> int:
    """Formatting, regex, dict and sort work of the kind the program does."""
    rng = random.Random(7)
    counts: dict[str, int] = {}
    rows = []
    for i in range(6000):
        text = f"{rng.choice(_WORDS)} {rng.choice(_WORDS)} item {i} of {rng.randint(1, 99)}"
        for word in _WORD.findall(text):
            counts[word] = counts.get(word, 0) + 1
        rows.append(text.upper().split())
    rows.sort()
    return len(json.dumps(counts)) + len(rows)


def loop_times(runs: int = LOOP_RUNS) -> list[float]:
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return times


def scaled(wall_s: float, cpu_s: float, loop_s: float) -> float:
    """``wall_s`` with its CPU part ``cpu_s`` converted to the reference speed."""
    cpu_s = min(cpu_s, wall_s)
    return wall_s - cpu_s + cpu_s * REFERENCE_S / loop_s
