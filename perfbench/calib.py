"""Host-speed calibration: a fixed pure-Python kernel timed between reads.

Host speed can drift by a quarter or more, in states that last from a
fraction of a second to minutes, so a raw wall-clock time says as much
about the host as about the program.  The benchmark therefore
interleaves a fixed amount of benchmark-owned work -- a self-avoiding
walk over a small fixed graph (set lookups, list scans), the same kind
of work as the engine's walk loop -- with the operations it measures,
and scales every measured time by
``REF_STEP_S / observed seconds per kernel step``: the time the
operation would have taken on a host that runs the kernel at the
reference speed.

The kernel never calls into ``repro``, runs with ``gc`` disabled and
keeps nothing alive between calls, so a program that grows its heap
or its caches cannot slow the kernel and hide its own cost behind the
correction.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Callable, List, Tuple

#: reference seconds per kernel step (near this kernel's median on the
#: 2-vCPU host the README's figures were taken on); corrected times read
#: as "seconds on a host that runs the kernel this fast"
REF_STEP_S = 1.0e-6

_N_NODES = 4096
_DEGREE = 6
_MAX_WALK = 32
_LCG_MULT = 1103515245
_LCG_INC = 12345
_LCG_MASK = 0x7FFFFFFF


def _kernel_graph() -> Tuple[Tuple[int, ...], ...]:
    """A fixed random digraph (deterministic LCG, no numpy)."""
    state = 20190630
    adjacency = []
    for _ in range(_N_NODES):
        row = []
        for _ in range(_DEGREE):
            state = (state * _LCG_MULT + _LCG_INC) & _LCG_MASK
            row.append(state % _N_NODES)
        adjacency.append(tuple(row))
    return tuple(adjacency)


_GRAPH = _kernel_graph()


def _walk(steps: int) -> int:
    """``steps`` jumps of restarting self-avoiding walks; returns a
    checksum so the work cannot be skipped."""
    adjacency = _GRAPH
    state = 12345
    done = 0
    checksum = 0
    while done < steps:
        state = (state * _LCG_MULT + _LCG_INC) & _LCG_MASK
        node = state % _N_NODES
        visited = {node}
        for _ in range(_MAX_WALK):
            candidates = [v for v in adjacency[node] if v not in visited]
            if not candidates:
                break
            state = (state * _LCG_MULT + _LCG_INC) & _LCG_MASK
            node = candidates[state % len(candidates)]
            visited.add(node)
            done += 1
        checksum ^= node
    return checksum


def kernel_seconds(steps: int) -> float:
    """Wall seconds the kernel takes for ``steps`` jumps, gc disabled."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _walk(steps)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def steps_for(seconds: float) -> int:
    """Kernel steps that take ``seconds`` at the reference speed."""
    return max(1, round(seconds / REF_STEP_S))


class Calibrator:
    """Runs the kernel on demand and remembers every sample.

    ``factor(i)`` is the speed correction for an operation that ran
    next to sample ``i``: the reference step time over the median step
    time of the ``window`` samples centred on it, so one disturbed
    sample cannot swing an operation's correction.
    """

    def __init__(
        self,
        steps: int,
        window: int = 21,
        kernel: Callable[[int], float] = kernel_seconds,
    ) -> None:
        self.steps = steps
        self.window = window
        self.kernel = kernel
        self.samples: List[float] = []
        self.spent_s = 0.0

    def sample(self) -> int:
        """Run the kernel once; returns the sample's index."""
        seconds = self.kernel(self.steps)
        self.samples.append(seconds / self.steps)
        self.spent_s += seconds
        return len(self.samples) - 1

    def factor(self, index: int) -> float:
        half = self.window // 2
        lo = max(0, index - half)
        hi = min(len(self.samples), lo + self.window)
        lo = max(0, hi - self.window)
        return REF_STEP_S / statistics.median(self.samples[lo:hi])


