"""Passes over an operation list, and the metrics they yield.

A *pass* executes a fixed operation list in ``SEGMENTS`` contiguous
segments.  Each segment starts with a timed set-up on a fresh graph
copy (bracketed by calibration kernels), then serves its reads, each
preceded by a short calibration kernel.  Everything the pass keeps is
raw: wall seconds per read and per set-up, plus the kernel samples
that correct them for host speed afterwards.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from calib import Calibrator, kernel_seconds, steps_for, REF_STEP_S

#: fresh engines (and set-ups) per pass
SEGMENTS = 4
#: reads per run-second: the run length sets the list length through
#: this constant, never through the clock
READS_PER_SECOND = 40
#: no quantile is reported without this many samples beyond it
MIN_BEYOND = 10
#: calibration kernel before every serial read (seconds at reference speed)
READ_KERNEL_S = 0.003
#: kernel run just before and just after every serial set-up, and
#: every batch set-up (pool start, shm export, worker attach: ~4x longer)
SETUP_KERNEL_S = 0.3
BATCH_SETUP_KERNEL_S = 0.8
#: seed of every engine's own stream (set-up estimation); reads reseed
ENGINE_SEED = 5
#: reads per BatchExecutor.run call on the batch workload, and the
#: kernel run between two batches
BATCH_SIZE = 5
BATCH_KERNEL_S = 0.01
#: pool workers on the batch workload: the run is pinned to one CPU, so
#: a second worker would only share it and its latency would include
#: time its sibling held the CPU
BATCH_WORKERS = 1


def n_reads(seconds: int) -> int:
    """Operation-list length for a run of ``seconds``."""
    return max(READS_PER_SECOND * seconds, 200)


@dataclass
class Read:
    index: int
    kind: str
    truth: Optional[bool]
    raw_s: float
    #: host-speed correction (reference over observed kernel speed)
    factor: float
    #: index of the calibration sample taken just before this read
    sample: int = -1
    answer: bool = False
    path: Optional[tuple] = None
    jumps: int = 0
    walks: int = 0
    error: str = ""
    stats: Any = None
    info: Dict[str, Any] = field(default_factory=dict)
    result: Any = None

    @property
    def corrected_s(self) -> float:
        return self.raw_s * self.factor

    def trail(self) -> str:
        return f"{self.index}|{self.answer}|{self.path}|{self.jumps}|{self.walks}|{self.error}"


@dataclass
class Setup:
    raw_s: float
    factor: float
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def corrected_s(self) -> float:
        return self.raw_s * self.factor


@dataclass
class PassResult:
    reads: List[Read]
    setups: List[Setup]
    wall_s: float
    calibration_s: float
    rss_mb: float
    #: (wall seconds, correction factor) per executor batch (batch workload)
    batches: List[tuple] = field(default_factory=list)

    def digest(self) -> str:
        sha = hashlib.sha256()
        for read in self.reads:
            sha.update(read.trail().encode())
            sha.update(b"\n")
        return sha.hexdigest()[:16]


def read_stream(seed: int, index: int) -> np.random.Generator:
    """The stream read ``index`` always runs under (order-independent)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7, index)))


def segments(items: Sequence[Any], count: int) -> List[Sequence[Any]]:
    size = math.ceil(len(items) / count)
    return [items[i : i + size] for i in range(0, len(items), size)]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Host:
    """What a pass needs from the machine: the calibration kernel and
    a clock.  Tests substitute a slowed host."""

    def __init__(
        self,
        kernel: Callable[[int], float] = kernel_seconds,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.kernel = kernel
        self.clock = clock

    def bracketed(self, work: Callable[[], Any], kernel_s: float = SETUP_KERNEL_S) -> tuple:
        """Run ``work`` between two kernels of ``kernel_s`` reference
        seconds: (seconds, factor, result, kernel seconds)."""
        steps = steps_for(kernel_s)
        before = self.kernel(steps)
        start = self.clock()
        result = work()
        elapsed = self.clock() - start
        after = self.kernel(steps)
        factor = REF_STEP_S * steps / ((before + after) / 2)
        return elapsed, factor, result, before + after


def serial_pass(
    ops: Sequence[Any],
    *,
    new_graph: Callable[[], Any],
    new_engine: Callable[[Any], Any],
    make_query: Callable[[Any], Any],
    seed: int,
    host: Optional[Host] = None,
    tracer: Any = None,
) -> PassResult:
    """Serve ``ops`` through ``engine.execute(engine.prepare(query))``."""
    host = host or Host()
    span = tracer.span if tracer is not None else _no_span
    calibrator = Calibrator(steps_for(READ_KERNEL_S), kernel=host.kernel)
    reads: List[Read] = []
    setups: List[Setup] = []
    calibration_s = 0.0
    rss_mb = 0.0
    started = host.clock()
    for number, chunk in enumerate(segments(ops, SEGMENTS)):
        graph = new_graph()

        def build() -> Any:
            engine = new_engine(graph)
            engine.prepare()
            return engine

        elapsed, factor, engine, spent = host.bracketed(build)
        calibration_s += spent
        setups.append(Setup(elapsed, factor))
        for op in chunk:
            sample = calibrator.sample()
            if tracer is not None:
                tracer.op = op.index
            with span("dispatch"):
                engine.reseed(read_stream(seed, op.index))
                query = make_query(op)
            read = Read(op.index, op.kind, op.truth, 0.0, 1.0, sample)
            start = host.clock()
            try:
                with span("read"):
                    result = engine.execute(engine.prepare(query))
            except Exception as exc:  # a failed read is counted, not fatal
                read.raw_s = host.clock() - start
                read.error = f"{type(exc).__name__}: {exc}"
            else:
                read.raw_s = host.clock() - start
                _fill(read, result)
            reads.append(read)
        if tracer is not None:
            tracer.op = -1
        del engine, graph
        gc.collect()
        if number == 0:
            rss_mb = peak_rss_mb()
    for read in reads:
        read.factor = calibrator.factor(read.sample)
    calibration_s += calibrator.spent_s
    return PassResult(reads, setups, host.clock() - started, calibration_s, rss_mb)


def _no_span(name: str) -> contextlib.nullcontext:
    return contextlib.nullcontext()


def _fill(read: Read, result: Any) -> None:
    read.answer = bool(result.reachable)
    read.path = tuple(result.path) if result.path is not None else None
    read.jumps = int(result.jumps)
    read.walks = int(result.expansions)
    read.stats = result.stats
    read.info = dict(result.info)
    read.result = result
    error = getattr(result, "error", "")
    if error:
        read.error = f"{getattr(result, 'error_type', 'Error')}: {error}"


def batch_pass(
    ops: Sequence[Any],
    *,
    new_executor: Callable[[], Any],
    warm_queries: Sequence[Any],
    make_query: Callable[[Any], Any],
    host: Optional[Host] = None,
) -> PassResult:
    """Serve ``ops`` through a warm process-pool executor, in fixed-size
    batches with a calibration kernel between batches.

    A read's latency is its worker-side ``stats.total_s``; throughput
    comes from the batches' parent-side wall time, so dispatch and IPC
    count there.
    """
    host = host or Host()
    calibrator = Calibrator(steps_for(BATCH_KERNEL_S), kernel=host.kernel, window=5)
    reads: List[Read] = []
    setups: List[Setup] = []
    batches: List[tuple] = []
    calibration_s = 0.0
    rss_mb = 0.0
    started = host.clock()
    for number, chunk in enumerate(segments(ops, SEGMENTS)):

        def build() -> Any:
            executor = new_executor()
            report = executor.run(list(warm_queries))
            return executor, report

        elapsed, factor, (executor, report), spent = host.bracketed(
            build, BATCH_SETUP_KERNEL_S
        )
        calibration_s += spent
        setups.append(
            Setup(
                elapsed,
                factor,
                {
                    "worker_init_s": report.stats.worker_init_s,
                    "ship_bytes": report.stats.ship_bytes,
                    "results": report.results,
                },
            )
        )
        try:
            for offset in range(0, len(chunk), BATCH_SIZE):
                batch = chunk[offset : offset + BATCH_SIZE]
                sample = calibrator.sample()
                start = host.clock()
                report = executor.run([make_query(op) for op in batch])
                wall = host.clock() - start
                batches.append((wall, sample))
                for op, result in zip(batch, report.results):
                    read = Read(op.index, op.kind, op.truth, 0.0, 1.0, sample)
                    _fill(read, result)
                    stats = result.stats
                    read.raw_s = stats.total_s if stats is not None else 0.0
                    reads.append(read)
        finally:
            executor.close()
        if number == 0:
            rss_mb = peak_rss_mb()
    for read in reads:
        read.factor = calibrator.factor(read.sample)
    batches = [(wall, calibrator.factor(sample)) for wall, sample in batches]
    calibration_s += calibrator.spent_s
    return PassResult(reads, setups, host.clock() - started, calibration_s, rss_mb, batches)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def quantile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1), refused without ``MIN_BEYOND``
    samples beyond it."""
    n = len(values)
    beyond = n - math.ceil(q * n)
    if n == 0 or beyond < MIN_BEYOND:
        raise ValueError(
            f"quantile {q} of {n} samples has {beyond} beyond it "
            f"(need {MIN_BEYOND})"
        )
    return float(np.quantile(np.asarray(values, dtype=float), q))


def tail_quantile(n: int) -> float:
    """The highest of a few standard quantiles with enough samples
    beyond it."""
    best = 0.5
    for q in (0.9, 0.95, 0.99, 0.999):
        if n - math.ceil(q * n) >= MIN_BEYOND:
            best = q
    return best


def deciles(result: PassResult) -> List[float]:
    """Corrected read latency (ms) at 10%, 20%, ..., 90%."""
    lat = [r.corrected_s * 1e3 for r in result.reads if not r.error]
    return [float(v) for v in np.quantile(np.asarray(lat), np.arange(1, 10) / 10)]


def class_ranges(result: PassResult) -> Dict[str, tuple]:
    """Per slot class: (count, min, median, max) corrected latency (ms)."""
    by_kind: Dict[str, List[float]] = {}
    for read in result.reads:
        by_kind.setdefault(read.kind, []).append(read.corrected_s * 1e3)
    return {
        kind: (len(v), min(v), statistics.median(v), max(v))
        for kind, v in sorted(by_kind.items())
    }


def end_to_end(result: PassResult) -> Dict[str, Dict[str, Any]]:
    """Every end-to-end metric, corrected, with its raw twin and the
    sample count behind it."""
    reads = result.reads
    ok = [r for r in reads if not r.error]
    lat = [r.corrected_s * 1e3 for r in ok]
    raw = [r.raw_s * 1e3 for r in ok]
    neg = [r for r in ok if not r.answer]
    pos = [r for r in ok if r.answer]
    planted = [r for r in reads if r.truth is True]
    setups = [s.corrected_s for s in result.setups]
    if result.batches:
        busy = sum(w * f for w, f in result.batches)
        busy_raw = sum(w for w, _ in result.batches)
    else:
        busy = sum(r.corrected_s for r in ok)
        busy_raw = sum(r.raw_s for r in ok)
    out: Dict[str, Dict[str, Any]] = {
        "setup_s": _metric(statistics.median(setups), "s",
                           statistics.median(s.raw_s for s in result.setups), len(setups)),
        "qps": _metric(len(ok) / busy, "1/s", len(ok) / busy_raw, len(ok)),
        "p50_ms": _metric(quantile(lat, 0.5), "ms", quantile(raw, 0.5), len(lat)),
        "p95_ms": _metric(quantile(lat, 0.95), "ms", quantile(raw, 0.95), len(lat)),
        "neg_p50_ms": _metric(
            quantile([r.corrected_s * 1e3 for r in neg], 0.5), "ms",
            quantile([r.raw_s * 1e3 for r in neg], 0.5), len(neg)),
        "pos_p50_ms": _metric(
            quantile([r.corrected_s * 1e3 for r in pos], 0.5), "ms",
            quantile([r.raw_s * 1e3 for r in pos], 0.5), len(pos)),
        "recall": _metric(
            sum(r.answer for r in planted) / len(planted), "share", None, len(planted)),
        "peak_rss_mb": _metric(result.rss_mb, "MB", None, 1),
    }
    return out


def tail(result: PassResult) -> tuple:
    """(quantile, corrected ms, raw ms, samples beyond) of the highest
    standard quantile with ``MIN_BEYOND`` samples beyond it."""
    ok = [r for r in result.reads if not r.error]
    q = tail_quantile(len(ok))
    return (
        q,
        quantile([r.corrected_s * 1e3 for r in ok], q),
        quantile([r.raw_s * 1e3 for r in ok], q),
        len(ok) - math.ceil(q * len(ok)),
    )


def _metric(value: float, unit: str, raw: Optional[float], samples: int) -> Dict[str, Any]:
    return {"value": value, "unit": unit, "raw": raw, "samples": samples}
