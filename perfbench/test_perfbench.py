"""Tests of the benchmark itself, on fake engines with a known cost.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench -q

A fake host advances a virtual clock: the calibration kernel and every
fake read cost a fixed amount of reference time, multiplied by the
host's slowdown, so corrected timings can be checked exactly.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
from calib import REF_STEP_S  # noqa: E402
from workloads import Op  # noqa: E402

#: reference seconds per fake read, by slot class
COST = {"dead": 0.002, "plant": 0.010, "live_neg": 0.100}
SETUP_COST = 0.4


class FakeHost(bench.Host):
    def __init__(self, slowdown: float = 1.0) -> None:
        self.now = 0.0
        self.slowdown = slowdown
        super().__init__(kernel=self._kernel, clock=lambda: self.now)

    def _kernel(self, steps: int) -> float:
        seconds = steps * REF_STEP_S * self.slowdown
        self.now += seconds
        return seconds

    def spend(self, reference_s: float) -> None:
        self.now += reference_s * self.slowdown


class FakeResult:
    def __init__(self, op: Op) -> None:
        self.reachable = bool(op.truth)
        self.path = [op.source, op.target] if op.truth else None
        self.jumps = 0 if op.kind == "dead" else 40
        self.expansions = 0 if op.kind == "dead" else 4
        self.stats = None
        self.info: dict = {}


class FakeEngine:
    """Answers each op with its truth after spending ``COST[kind] *
    per_read`` of reference time on the fake host."""

    def __init__(self, host: FakeHost, per_read: float = 1.0) -> None:
        self.host = host
        self.per_read = per_read
        self.seen: list = []

    def prepare(self, op: Op = None):
        if op is None:
            self.host.spend(SETUP_COST * self.per_read)
            return None
        return op

    def reseed(self, rng) -> None:
        pass

    def execute(self, op: Op) -> FakeResult:
        self.seen.append(op.index)
        self.host.spend(COST[op.kind] * self.per_read)
        return FakeResult(op)


def fake_ops(n: int = 240) -> list:
    kinds = ("dead", "plant", "dead", "live_neg", "plant", "dead")
    return [
        Op(i, kinds[i % len(kinds)], 1, i, i + 1, "a*", kinds[i % len(kinds)] == "plant")
        for i in range(n)
    ]


def run_fake(slowdown: float = 1.0, per_read: float = 1.0):
    host = FakeHost(slowdown)
    engines: list = []

    def new_engine(graph):
        engines.append(FakeEngine(host, per_read))
        return engines[-1]

    result = bench.serial_pass(
        fake_ops(),
        new_graph=lambda: object(),
        new_engine=new_engine,
        make_query=lambda op: op,
        seed=3,
        host=host,
    )
    return result, [i for engine in engines for i in engine.seen]


def test_slowed_host_executes_the_same_operations():
    normal, normal_seen = run_fake(1.0)
    slowed, slowed_seen = run_fake(1.4)
    assert normal_seen == slowed_seen == [op.index for op in fake_ops()]
    assert normal.digest() == slowed.digest()
    assert slowed.wall_s > normal.wall_s * 1.3
    for a, b in zip(normal.reads, slowed.reads):
        assert b.raw_s == pytest.approx(a.raw_s * 1.4)
        assert b.corrected_s == pytest.approx(a.corrected_s)


def test_slower_program_moves_every_corrected_time_by_its_slowdown():
    base = bench.end_to_end(run_fake(1.0)[0])
    slow = bench.end_to_end(run_fake(1.0, per_read=1.25)[0])
    for name in ("setup_s", "p50_ms", "p95_ms", "neg_p50_ms", "pos_p50_ms"):
        assert slow[name]["value"] == pytest.approx(base[name]["value"] * 1.25), name
    assert slow["qps"]["value"] == pytest.approx(base["qps"]["value"] / 1.25)
    assert slow["recall"]["value"] == base["recall"]["value"] == 1.0


def test_corrected_times_ignore_a_slowed_host():
    base = bench.end_to_end(run_fake(1.0)[0])
    slowed = bench.end_to_end(run_fake(1.3)[0])
    for name in ("setup_s", "qps", "p50_ms", "p95_ms", "neg_p50_ms", "pos_p50_ms"):
        assert slowed[name]["value"] == pytest.approx(base[name]["value"]), name
        assert slowed[name]["raw"] != pytest.approx(base[name]["raw"]), name


def test_no_quantile_without_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        bench.quantile(list(range(199)), 0.95)
    assert bench.quantile(list(range(200)), 0.95) == pytest.approx(189.05)
    with pytest.raises(ValueError):
        bench.quantile(list(range(19)), 0.5)
    assert bench.tail_quantile(200) == 0.95
    assert bench.tail_quantile(999) == 0.95
    assert bench.tail_quantile(1000) == 0.99
    assert bench.tail_quantile(10000) == 0.999


def test_end_to_end_refuses_a_list_too_short_for_p95():
    host = FakeHost()
    result = bench.serial_pass(
        fake_ops(120),
        new_graph=lambda: object(),
        new_engine=lambda graph: FakeEngine(host),
        make_query=lambda op: op,
        seed=3,
        host=host,
    )
    with pytest.raises(ValueError):
        bench.end_to_end(result)


def test_missing_repro_package_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "star", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_stop_children_leaves_no_process_behind():
    # a shared-memory segment starts the resource tracker; a sleeper
    # stands in for any other child still running at exit
    code = (
        f"import sys; sys.path.insert(0, {str(HERE)!r})\n"
        "import subprocess\n"
        "from multiprocessing import shared_memory\n"
        "import run\n"
        "segment = shared_memory.SharedMemory(create=True, size=16)\n"
        "segment.close(); segment.unlink()\n"
        "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        "before = len(run._child_pids())\n"
        "run.stop_children()\n"
        "print(before, len(run._child_pids()))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "0"]


@pytest.fixture(scope="module")
def graph():
    pytest.importorskip("repro")
    import workloads

    return workloads.build_graph()


@pytest.mark.parametrize("name", ["standard", "star"])
def test_one_seed_fixes_the_operation_list(graph, name):
    import workloads

    make = workloads.standard_ops if name == "standard" else workloads.star_ops
    block = workloads.STANDARD_BLOCK if name == "standard" else workloads.STAR_BLOCK
    first = make(graph, 5, 2 * len(block))
    assert workloads.ops_digest(first) == workloads.ops_digest(make(graph, 5, 2 * len(block)))
    assert workloads.ops_digest(first) != workloads.ops_digest(make(graph, 6, 2 * len(block)))
    assert [op.kind for op in first] == list(block) * 2
