"""Host-speed calibration: report times at a fixed reference speed.

The benchmark shares its cores with other tenants, and identical work
takes up to 40% more CPU time when they are busy (on a 2-core
container, repeated runs of one 100-source batch varied by 25-30%
interquartile range over median, in CPU time as much as in wall time).
The slowdown drifts over seconds to minutes, so longer runs do not
average it away.

A sidecar process therefore times a fixed sample of benchmark-own
Python code — allocation, dict and string work like the program's plus
a walk through a 30 MB shuffled heap, but none of the program — every
:data:`INTERVAL_S` while the benchmark runs.  When the measured work is
pinned to one CPU the sidecar is pinned beside it, so it feels the same
neighbours.
Every reported time is scaled by ``REFERENCE_S / mean(sample CPU
time)`` over the samples taken during the phase that time belongs to;
a time reported by the benchmark is thus "seconds on a host where a
sample takes ``REFERENCE_S``", and the raw times are printed beside it.
A sidecar costs about 3% of its CPU.

Run as a script, this module is the sidecar: it prints one line
``<start> <end> <cpu seconds>`` per sample until its standard input
closes.
"""

from __future__ import annotations

import os
import random
import re
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: CPU seconds one sample of the kernel takes on an unloaded reference host.
REFERENCE_S = 0.006
#: Seconds between the starts of two samples.
INTERVAL_S = 0.25
#: Fewest samples a phase needs before its own factor is used; a
#: shorter phase falls back to the whole run's samples.
MIN_SAMPLES = 5

#: Nodes of the sidecar's shuffled linked heap (about 30 MB, beyond a
#: core's caches), and the steps one sample walks through it, so a
#: sample also feels contention for the shared cache and memory.
_HEAP_NODES = 100_000
_WALK_STEPS = 4_000

_TEXT = " ".join(f"Item{i % 97} title {i} by Author{i % 13}" for i in range(600))
_WORD = re.compile(r"\w+")


def _kernel() -> int:
    nodes: list[dict] = []
    for position, token in enumerate(_WORD.findall(_TEXT)):
        node = {"tag": "span", "text": token, "children": []}
        nodes.append(node)
        if position:
            nodes[(position - 1) // 4]["children"].append(node)
    index: dict[str, list[dict]] = {}
    stack = [nodes[0]]
    while stack:
        node = stack.pop()
        index.setdefault(node["text"].lower(), []).append(node)
        stack.extend(node["children"])
    return len("|".join(sorted(index, key=lambda key: (len(key), key))))


def _heap() -> list[dict]:
    order = list(range(_HEAP_NODES))
    random.Random(7).shuffle(order)
    nodes = [{"next": 0, "text": f"node{index}"} for index in range(_HEAP_NODES)]
    for here, there in zip(order, order[1:] + order[:1]):
        nodes[here]["next"] = there
    return nodes


def _walk(nodes: list[dict], position: int) -> int:
    for __ in range(_WALK_STEPS):
        position = nodes[position]["next"]
    return position


def _sidecar() -> None:
    """Sample until standard input closes, then exit."""
    nodes = _heap()
    position = 0
    while True:
        started = time.perf_counter()
        cpu = time.process_time()
        _kernel()
        position = _walk(nodes, position)
        cpu = time.process_time() - cpu
        print(f"{started:.4f} {time.perf_counter():.4f} {cpu:.6f}", flush=True)
        idle = INTERVAL_S - (time.perf_counter() - started)
        readable, __, __ = select.select([sys.stdin], [], [], max(idle, 0.0))
        if readable and not sys.stdin.read(1):
            return


class HostSpeed:
    """A running sidecar and, once stopped, the samples it took."""

    def __init__(self, cpu: int | None) -> None:
        """Start the sidecar, pinned to ``cpu`` unless it is ``None``."""
        self.samples: list[tuple[float, float, float]] = []
        self._process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        if cpu is not None:
            os.sched_setaffinity(self._process.pid, {cpu})

    def stop(self) -> None:
        """Stop the sidecar, wait for it, and collect its samples."""
        try:
            output, __ = self._process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self._process.kill()
            output, __ = self._process.communicate()
        self.samples = [
            tuple(float(field) for field in line.split())
            for line in output.splitlines()
            if line.strip()
        ]

    def during(self, start: float, end: float) -> list[float]:
        """CPU seconds of the samples that started inside ``[start, end]``."""
        inside = [cpu for begun, __, cpu in self.samples if start <= begun <= end]
        if len(inside) < MIN_SAMPLES:
            inside = [cpu for __, __, cpu in self.samples]
        return inside

    def factor(self, start: float, end: float) -> float:
        """Multiply a time measured in ``[start, end]`` by this."""
        return REFERENCE_S / statistics.fmean(self.during(start, end))


if __name__ == "__main__":
    _sidecar()
