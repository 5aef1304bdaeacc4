"""Reference benchmark: one named workload, every metric, plus correctness.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload standard --seed 1 --seconds 10 --trace 0

``--seconds`` sets the length of the seeded operation list (through
``bench.READS_PER_SECOND``), not a time limit: every run of one seed
executes exactly the same reads.  Every time metric is corrected for
host speed with the calibration kernel of ``calib.py``; the report
prints the raw wall-clock value beside it.  ``--trace 1`` runs the
untraced pass and then a traced replay of the same reads on fresh
engines, checks both left the same trail, and reports per-layer
metrics.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

import bench
import workloads
from tracing import LAYERS_KEY, SpanRecorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("standard", "star", "batch")
OUT_DIR = ROOT / ".perfbench_out"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Sequence[str]) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    finally:
        stop_children()


def run(args: argparse.Namespace) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(f"no repro package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    graph = workloads.build_graph()
    n = bench.n_reads(args.seconds)
    if args.workload == "star":
        ops = workloads.star_ops(graph, args.seed, n)
    else:
        ops = workloads.standard_ops(graph, args.seed, n)
    runner = Runner(args.workload, args.seed, graph, ops)
    untraced = runner.run_pass()
    failures, failed = runner.check(untraced)
    report: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "operations": len(ops),
        "ops_digest": workloads.ops_digest(ops),
        "trail_digest": untraced.digest(),
    }
    if args.trace:
        recorder = SpanRecorder()
        with recorder.installed():
            traced = runner.run_pass(tracer=recorder)
            if args.workload == "batch":
                export_factors = [setup.factor for setup in traced.setups]
            else:
                export_factors = [runner.export_plane()]
        if traced.digest() != untraced.digest():
            failures.append("traced and untraced passes left different trails")
        report["traced_digest"] = traced.digest()
        path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        recorder.write(str(path))
        report["spans_file"] = str(path.relative_to(ROOT))
        metrics = per_layer(args.workload, untraced, traced, recorder, export_factors)
    else:
        metrics = bench.end_to_end(untraced)
    print_report(report, metrics, untraced, failures)
    raw = {k: v["raw"] for k, v in metrics.items() if v.get("raw") is not None}
    print("perfbench-raw " + json.dumps({
        "raw": raw,
        "ops_digest": report["ops_digest"],
        "trail_digest": report["trail_digest"],
    }))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(untraced.reads),
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    return 0


def pin_to_one_cpu() -> None:
    """Keep this process, and the pool workers it forks, on one CPU.

    Host speed differs between CPUs and over time; the calibration
    kernel only measures the CPU it runs on, so the reads it corrects
    must run there too.  Reads never overlap the kernel (closed loop,
    one client), so sharing the CPU costs them nothing.  The pool has
    ``bench.BATCH_WORKERS`` (one) worker whatever the host's CPU count,
    so no two workers ever share the CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    The first shared-memory export starts multiprocessing's resource
    tracker, which Python leaves running until the interpreter is gone;
    stop it here, then terminate and reap any other child still left
    (pool workers are joined when their executor closes).
    """
    import multiprocessing
    import signal
    from multiprocessing import resource_tracker

    multiprocessing.active_children()  # joins finished Process objects
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()  # closes its pipe and waits for it to exit
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def _child_pids() -> List[int]:
    tasks = Path(f"/proc/{os.getpid()}/task")
    if not tasks.is_dir():
        return []
    pids: List[int] = []
    for task in tasks.iterdir():
        try:
            pids += [int(pid) for pid in (task / "children").read_text().split()]
        except OSError:
            pass
    return pids


class Runner:
    """Wires one workload's operation list to the passes of bench.py."""

    def __init__(self, workload: str, seed: int, graph: Any, ops: List[Any]) -> None:
        from repro.queries import RSPQuery

        self.workload = workload
        self.seed = seed
        self.graph = graph
        self.ops = ops
        self.make_query = lambda op: RSPQuery(op.source, op.target, op.regex)

    def factory(self, graph: Any) -> Any:
        from repro.core import make_engine

        return functools.partial(make_engine, "arrival", graph, seed=bench.ENGINE_SEED)

    def new_engine(self, graph: Any) -> Any:
        """An engine that sets itself up under the stream a
        BatchExecutor of this seed gives its workers, so ``standard``
        and ``batch`` run identically configured engines."""
        from repro.core.executor import setup_stream

        engine = self.factory(graph)()
        engine.reseed(setup_stream(self.seed))
        return engine

    def new_executor(self, backend: str = "process") -> Any:
        from repro.core import BatchExecutor

        return BatchExecutor(
            factory=self.factory(self.graph),
            backend=backend,
            workers=bench.BATCH_WORKERS,
            seed=self.seed,
            keep_pool=True,
            shm="auto",
        )

    def run_pass(self, tracer: Any = None) -> Any:
        if self.workload == "batch":
            from repro.queries import RSPQuery

            # two source == target reads: the cheapest a pool can serve
            template = workloads.star_templates(self.graph)[0]
            warm = [RSPQuery(v, v, template) for v in (0, 1)]
            return bench.batch_pass(
                self.ops,
                new_executor=self.new_executor,
                warm_queries=warm,
                make_query=self.make_query,
            )
        return bench.serial_pass(
            self.ops,
            new_graph=self.graph.copy,
            new_engine=self.new_engine,
            make_query=self.make_query,
            seed=self.seed,
            tracer=tracer,
        )

    def export_plane(self) -> float:
        """Export this graph to shared memory once, between calibration
        kernels; returns the host-speed factor.  Serial workloads never
        export: this is what the batch workload pays per set-up."""
        from repro.core import GraphPlane

        graph = self.graph.copy()
        _, factor, _, _ = bench.Host().bracketed(lambda: GraphPlane.export(graph).close())
        return factor

    def check(self, result: Any) -> Tuple[List[str], int]:
        """Every True answer carries a valid simple witness; no answer
        contradicts a certain truth; the batch prefix matches a serial
        executor.  Returns the problems and the number of failed reads."""
        from repro.verify import check_witness

        problems: List[str] = []
        failed = set()
        for read in result.reads:
            op = self.ops[read.index]
            if read.error:
                problems.append(f"read {read.index} failed: {read.error}")
                failed.add(read.index)
                continue
            if read.answer and op.truth is False:
                problems.append(f"read {read.index} answered True on a certain negative")
                failed.add(read.index)
            if read.answer:
                report = check_witness(
                    self.graph, self.make_query(op), read.result,
                    expect_simple=True, require_witness=True,
                )
                if not report.ok:
                    problems.append(f"read {read.index} witness: {report.invariant}")
                    failed.add(read.index)
        if self.workload == "batch":
            prefix = self.ops[: bench.BATCH_SIZE]
            executor = self.new_executor(backend="serial")
            serial = executor.run([self.make_query(op) for op in prefix])
            executor.close()
            for read, other in zip(result.reads, serial.results):
                mine = (read.answer, read.path, read.jumps, read.walks)
                theirs = (
                    bool(other.reachable),
                    tuple(other.path) if other.path is not None else None,
                    other.jumps,
                    other.expansions,
                )
                if mine != theirs:
                    problems.append(f"batch read {read.index} differs from serial")
        for read in result.reads:  # results are not needed past the checks
            read.result = None
        return problems, len(failed)


# ---------------------------------------------------------------------------
# per-layer metrics (traced runs)
# ---------------------------------------------------------------------------
def per_layer(
    workload: str, untraced: Any, traced: Any, recorder: Any, export_factors: List[float]
) -> Dict[str, Dict[str, Any]]:
    reads = [r for r in traced.reads if not r.error]
    n = len(reads)
    positives = sum(r.answer for r in reads) or 1
    factor = {r.index: r.factor for r in traced.reads}
    stats = [r.stats for r in reads if r.stats is not None]
    jumps = sum(r.jumps for r in reads) or 1
    layer_s: Dict[str, float] = {}
    setup_layers: List[Dict[str, float]] = []

    def add(name: str, seconds: float) -> None:
        layer_s[name] = layer_s.get(name, 0.0) + seconds

    if workload == "batch":
        for setup in traced.setups:
            for warm in setup.info["results"]:
                layers = warm.info.get(LAYERS_KEY, {})
                if "engine.setup" in layers:
                    setup_layers.append({k: v * setup.factor for k, v in layers.items()})
        for read in reads:
            layers = read.info.get(LAYERS_KEY, {})
            for name in ("tables.project", "verify.check_path"):
                add(name, layers.get(name, 0.0) * read.factor)
            plan = read.stats.plan_s
            add("engine.plan", plan * read.factor)
            add("engine.execute", (layers.get("engine.query", 0.0) - plan) * read.factor)
            add("tables.builds", layers.get("tables.builds", 0))
        views = [s for s in recorder.spans if s.name == "fastpath.build_graph_view"]
        view_ms = statistics.median(
            s.duration * f for s, f in zip(views, export_factors)) * 1e3
        params_ms = _median_ms(setup_layers, "parameters.estimate_walk_length")
        wall = sum(w * f for w, f in traced.batches)
        busy = sum(r.corrected_s for r in reads)
        dispatch_ms = (wall - busy) / n * 1e3
        busy_share = busy / wall
        init_s = statistics.median(
            s.info["worker_init_s"] * s.factor for s in traced.setups)
        ship = statistics.median(s.info["ship_bytes"] for s in traced.setups)
        # worker-side query time outside the engine's own total_s timer
        query_wall = sum(r.info[LAYERS_KEY]["engine.query.wall"] for r in reads)
        unattributed_share = 1.0 - sum(r.raw_s for r in reads) / query_wall
    else:
        # one engine.setup span per segment, in segment order
        setup_factor = {
            s.sid: setup.factor
            for s, setup in zip(
                [s for s in recorder.spans if s.name == "engine.setup"], traced.setups
            )
        }
        per_setup: Dict[int, Dict[str, float]] = {}
        read_total = 0.0
        read_self = 0.0
        engine_s = 0.0
        for span in recorder.spans:
            if span.parent in setup_factor:
                per_setup.setdefault(span.parent, {})[span.name] = (
                    span.duration * setup_factor[span.parent]
                )
            if span.op < 0:
                continue
            f = factor[span.op]
            if span.name == "read":
                read_total += span.duration * f
                read_self += span.self_s * f
            elif span.name in ("engine.plan", "engine.execute"):
                engine_s += span.duration * f
            add(span.name, span.self_s * f)
        setup_layers = list(per_setup.values())
        params_ms = _median_ms(setup_layers, "parameters.estimate_walk_length")
        view_ms = _median_ms(setup_layers, "fastpath.build_graph_view")
        add("tables.builds", recorder.table_builds)
        dispatch_ms = layer_s.get("dispatch", 0.0) / n * 1e3
        busy_share = engine_s / (engine_s + layer_s.get("dispatch", 0.0))
        init_s = statistics.median(s.corrected_s for s in traced.setups)
        ship = 0
        unattributed_share = read_self / read_total
    # export self time: the segments, without the view build under it
    exports = [s for s in recorder.spans if s.name == "shm.export"]
    export_ms = statistics.median(s.self_s * f for s, f in zip(exports, export_factors)) * 1e3
    hits = sum(s.plan_hits for s in stats)
    misses = sum(s.plan_misses for s in stats)
    untraced_s = sum(r.corrected_s for r in untraced.reads)
    traced_s = sum(r.corrected_s for r in traced.reads)
    values = {
        "setup.params_ms": (params_ms, "ms"),
        "setup.view_ms": (view_ms, "ms"),
        "plan.self_ms": (layer_s.get("engine.plan", 0.0) / n * 1e3, "ms"),
        "plan.hit_rate": (hits / max(1, hits + misses), "share"),
        "plan.compile_ms": (sum(r.stats.compile_s * r.factor for r in reads) / n * 1e3, "ms"),
        "tables.self_ms": (layer_s.get("tables.project", 0.0) / n * 1e3, "ms"),
        "tables.builds_per_query": (layer_s.get("tables.builds", 0) / n, "count"),
        "walk.self_ms": (layer_s.get("engine.execute", 0.0) / n * 1e3, "ms"),
        "walk.jumps_per_query": (jumps / n, "count"),
        "walk.walks_per_query": (sum(r.walks for r in reads) / n, "count"),
        "walk.candidates_per_jump": (sum(s.candidates_scanned for s in stats) / jumps, "count"),
        "walk.dead_source_share": (
            sum(1 for r in reads if not r.answer and r.jumps == 0) / n, "share"),
        "walk.wasted_jump_share": (
            sum(r.jumps for r in reads if not r.answer) / jumps, "share"),
        "verify.self_ms": (layer_s.get("verify.check_path", 0.0) / positives * 1e3, "ms"),
        "executor.dispatch_ms": (dispatch_ms, "ms"),
        "executor.busy_share": (busy_share, "share"),
        "executor.worker_init_s": (init_s, "s"),
        "executor.ship_bytes": (ship, "bytes"),
        "shm.export_ms": (export_ms, "ms"),
        "unattributed.share": (unattributed_share, "share"),
        "trace.overhead": (traced_s / untraced_s - 1.0, "share"),
        "host.calibration_share": (untraced.calibration_s / untraced.wall_s, "share"),
    }
    return {k: {"value": v, "unit": u, "raw": None, "samples": n} for k, (v, u) in values.items()}


def _median_ms(layers: List[Dict[str, float]], name: str) -> float:
    values = [layer[name] for layer in layers if name in layer]
    return statistics.median(values) * 1e3 if values else 0.0


def print_report(report: Dict[str, Any], metrics: Dict[str, Any], result: Any, failures: List[str]) -> None:
    for key, value in report.items():
        print(f"{key}: {value}")
    print(f"reads: {len(result.reads)}  set-ups: {len(result.setups)}  "
          f"wall: {result.wall_s:.2f} s  calibration share: "
          f"{result.calibration_s / result.wall_s:.3f}")
    for name, metric in metrics.items():
        raw = metric.get("raw")
        raw_text = f"  (raw {raw:.6g})" if raw is not None else ""
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}{raw_text}  "
              f"n={metric['samples']}")
    quantile, ms, raw_ms, beyond = bench.tail(result)
    print(f"  tail: p{quantile * 100:g} {ms:.6g} ms  (raw {raw_ms:.6g})  "
          f"{beyond} samples beyond")
    print("  deciles (ms): " + " ".join(f"{v:.4g}" for v in bench.deciles(result)))
    for kind, (count, low, mid, high) in bench.class_ranges(result).items():
        print(f"  class {kind:11s} n={count:<4d} min {low:.4g}  median {mid:.4g}  max {high:.4g} ms")
    for failure in failures[:20]:
        print(f"  FAIL {failure}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
