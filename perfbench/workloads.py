"""The benchmark's three workloads, each a closed loop over the public API.

Every workload builds its inputs from the run's seed, times its own set-up
several times (reporting the median), measures a window of operations,
and checks the answers against references computed outside that window.
``README.md`` in this directory says why each workload exists and which
layers it exercises or bypasses.

A workload function returns a :class:`Phase`.  With a :class:`Tracer` it
also installs the timing hooks of :func:`install_hooks` for its set-up and
window and fills :attr:`Phase.layers` with the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import statistics
import threading
import time
from concurrent.futures import wait as wait_futures
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core import make_searcher
from repro.datasets.omniglot import SyntheticEmbeddingSpace
from repro.mann.episodes import PAPER_FEWSHOT_TASKS, EpisodeSampler
from repro.mann.fewshot import default_method_factories, run_episode
from repro.mann.memory import MANNMemory
from repro.serving import MicroBatchScheduler

from tracing import Span, Tracer, mean_ms

try:  # The autotuner may be replaced by a single kernel in a later version.
    from repro.circuits import autotune as _autotune
except ImportError:  # pragma: no cover - depends on the program version
    _autotune = None

FIG7_METHODS = ("mcam-3bit", "mcam-2bit", "tcam-lsh", "cosine", "euclidean")
CAM_METHODS = ("mcam-3bit", "mcam-2bit", "tcam-lsh")
FEATURES = 64
TOP_K = 3
#: Bound on every wait for a served result: a wedged pump ends the run with
#: counted failures instead of hanging it.
WAIT_TIMEOUT_S = 10.0


@dataclass
class Phase:
    """What one pass of a workload measured."""

    attempted: int = 0
    failed: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    #: When each operation completed, in seconds from the window's start.
    ends_s: List[float] = field(default_factory=list)
    #: Host steal samples over the window (see :class:`StealSampler`).
    steal: List[Tuple[float, float, float]] = field(default_factory=list)
    window_s: float = 0.0
    setup_s: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    mismatches: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    layer_table: Dict[str, dict] = field(default_factory=dict)
    record: Dict[str, Any] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return len(self.latencies_ms)

    def fail(self, message: str) -> None:
        self.mismatches.append(message)


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def kernel_table() -> Dict[str, str]:
    """The in-process autotune table, JSON-ready (empty without an autotuner)."""
    if _autotune is None:
        return {}
    return {repr(key): value for key, value in _autotune.kernel_table().items()}


def _descendants(pid: int) -> List[int]:
    found = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as handle:
                children = [int(p) for p in handle.read().split()]
        except OSError:
            continue
        for child in children:
            found.append(child)
            found.extend(_descendants(child))
    return found


def peak_rss_mb() -> float:
    """Peak RSS (``VmHWM``) summed over this process and its live children."""
    total_kb = 0
    for pid in [os.getpid()] + _descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue  # a child that exited between listing and reading
    return total_kb / 1024.0


def cpu_times() -> Tuple[float, float]:
    """Host-wide (total, steal) CPU jiffies from ``/proc/stat``.

    Steal is time the hypervisor ran something else on this machine's
    virtual CPUs; the run keeps it per window so that a slow run can be
    told apart from a slow program.
    """
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [float(x) for x in handle.readline().split()[1:]]
    except OSError:
        return 0.0, 0.0
    return sum(fields[:8]), fields[7] if len(fields) > 7 else 0.0


def steal_share(before: Tuple[float, float], after: Tuple[float, float]) -> float:
    total = after[0] - before[0]
    return (after[1] - before[1]) / total if total > 0 else 0.0


class StealSampler:
    """Samples host CPU steal every ``interval_s`` on a background thread.

    ``samples`` holds ``(seconds since start, total jiffies, steal jiffies)``.
    """

    def __init__(self, interval_s: float = 0.25) -> None:
        self.samples: List[Tuple[float, float, float]] = []
        self._interval_s = interval_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-steal", daemon=True)

    def _run(self) -> None:
        start = time.perf_counter()
        while True:
            self.samples.append((time.perf_counter() - start, *cpu_times()))
            if self._stop.wait(self._interval_s):
                self.samples.append((time.perf_counter() - start, *cpu_times()))
                return

    def start(self) -> "StealSampler":
        self._thread.start()
        return self

    def stop(self, phase: "Phase") -> None:
        """Stop sampling; store the samples and the window's steal share."""
        self._stop.set()
        self._thread.join()
        phase.steal = self.samples
        first, last = self.samples[0], self.samples[-1]
        phase.record["steal_share"] = steal_share(first[1:], last[1:])


def kill_descendants() -> None:
    """Last resort after a wedged run: SIGKILL every child process."""
    for pid in _descendants(os.getpid()):
        try:
            os.kill(pid, 9)
        except OSError:
            pass


def maybe_span(tracer: Optional[Tracer], name: str, request_id: Any = None) -> Any:
    """A tracer span, or a no-op context on an untraced pass."""
    return contextlib.nullcontext() if tracer is None else tracer.span(name, request_id)


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    got = np.ascontiguousarray(got)
    want = np.ascontiguousarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _reference(features: np.ndarray, labels: np.ndarray, queries: np.ndarray):
    """Top-k of an unsharded, serial ``mcam-3bit`` fitted from scratch."""
    searcher = make_searcher("mcam-3bit", FEATURES)
    searcher.fit(features, labels)
    indices, scores = [], []
    for start in range(0, queries.shape[0], 256):
        got = searcher.kneighbors_arrays(queries[start : start + 256], k=TOP_K)
        indices.append(got[0])
        scores.append(got[1])
    return np.concatenate(indices), np.concatenate(scores)


def _close_bounded(closer: Callable[[], None], timeout_s: float = WAIT_TIMEOUT_S) -> bool:
    """Run ``closer`` on a helper thread; False if it did not finish in time."""
    thread = threading.Thread(target=closer, name="perfbench-close", daemon=True)
    thread.start()
    thread.join(timeout_s)
    return not thread.is_alive()


def _executor_state(searcher: Any) -> Dict[str, Any]:
    """Active transport and supervisor restarts of the searcher's executor."""
    # The searcher exposes no accessor for its executor; the run record
    # reads it, and reports None where the executor has no such state.
    executor = getattr(searcher, "_executor", None)
    supervisor = getattr(executor, "supervisor", None)
    return {
        "active_transport": getattr(executor, "active_transport", None),
        "restarts": int(getattr(supervisor, "total_restarts", 0)),
        "demoted": bool(getattr(supervisor, "demoted", False)),
    }


# ----------------------------------------------------------------------
# Tracing hooks
# ----------------------------------------------------------------------
def install_hooks(tracer: Tracer) -> None:
    """Wrap the public calls each per-layer metric times."""

    def memory_span(kind: str) -> Callable[..., str]:
        return lambda memory, *a, **kw: f"mann.{kind}.{getattr(memory, 'method', 'other')}"

    def count_cells(args: tuple, kwargs: dict) -> None:
        array, queries = args[0], args[1]
        rows = np.shape(queries)[0] if np.ndim(queries) == 2 else 1
        tracer.count("circuits.mcam.cell_evals", rows * array.num_rows * array.num_cells)

    def trace_collect(collect: Callable[..., Any], dispatch: Span) -> Callable[..., Any]:
        def traced_collect(*args: Any, **kwargs: Any) -> Any:
            try:
                with tracer.span("sharding.collect", request_id=dispatch.request_id):
                    return collect(*args, **kwargs)
            finally:
                tracer.batches.append((dispatch.start_ns, time.perf_counter_ns()))

        return traced_collect

    def snapshot_size(path: str, span: Span) -> str:
        size = 0
        for folder, _, files in os.walk(path):
            size += sum(os.path.getsize(os.path.join(folder, name)) for name in files)
        tracer.count("storage.snapshot_bytes", size)
        tracer.count("storage.snapshots")
        return path

    def replayed(result: Any, span: Span) -> Any:
        tracer.count("storage.replayed_records", len(result[0]))
        return result

    tracer.wrap("repro.mann.memory:MANNMemory.write", memory_span("write"))
    tracer.wrap("repro.mann.memory:MANNMemory.classify", memory_span("classify"))
    tracer.wrap("repro.core.quantization:UniformQuantizer.quantize", "core.quantize")
    tracer.wrap(
        "repro.circuits.mcam_array:MCAMArray.row_conductances_batch",
        "circuits.mcam.conductance", on_call=count_cells,
    )
    tracer.wrap("repro.circuits.tcam:TCAMArray.hamming_distances_batch", "circuits.tcam.hamming")
    tracer.wrap(
        "repro.core.sharding:ShardedSearcher.submit_serving", "sharding.dispatch",
        on_result=trace_collect,
    )
    tracer.wrap("repro.core.sharding:merge_shard_topk", "sharding.merge")
    tracer.wrap("repro.core.sharding:ShardedSearcher.append", "sharding.append")
    tracer.wrap(
        "repro.core.sharding:ShardedSearcher.snapshot", "storage.snapshot",
        on_result=snapshot_size,
    )
    tracer.wrap("repro.core.sharding:ShardedSearcher.restore", "storage.restore")
    tracer.wrap("repro.storage.snapshot:load_snapshot", "storage.load_snapshot")
    tracer.wrap("repro.storage.journal:AppendJournal.record", "storage.journal_record")
    tracer.wrap(
        "repro.storage.journal:AppendJournal.replay", "storage.journal_replay",
        on_result=replayed,
    )
    tracer.wrap("repro.core.search:MCAMSearcher.fit", "core.shard_fit")
    tracer.wrap("repro.runtime.process_pool:ProcessShardExecutor.publish_shard", "runtime.publish")


def _queue_waits_ms(tracer: Tracer, bursts: List[_Burst]) -> np.ndarray:
    """Per completed query: latency minus the span of the batch that delivered it.

    A query is attributed to the last batch whose collect ended at or
    before it resolved; the batch span runs from its dispatch to the end
    of that collect.
    """
    if not bursts or not tracer.batches:
        return np.empty(0)
    batches = sorted(tracer.batches, key=lambda batch: batch[1])
    starts = np.array([start for start, _ in batches], dtype=np.int64)
    ends = np.array([end for _, end in batches], dtype=np.int64)
    resolved = np.concatenate([b.resolved_ns[b.ok] for b in bursts])
    submitted = np.concatenate([np.full(int(b.ok.sum()), b.submitted_ns) for b in bursts])
    position = np.searchsorted(ends, resolved, side="right") - 1
    known = position >= 0
    batch_ns = ends[position[known]] - starts[position[known]]
    return ((resolved[known] - submitted[known]) - batch_ns) / 1e6


def layer_metrics(
    tracer: Tracer,
    phase: Phase,
    window: Tuple[int, int],
    setup_windows: List[Tuple[int, int]],
    window_counters: Dict[str, float],
    setup_counters: Dict[str, float],
    bursts: List["_Burst"],
    serving_stats: Optional[Tuple[dict, dict]] = None,
    first_query_ms: Optional[List[float]] = None,
) -> None:
    """Fill ``phase.layers`` and ``phase.layer_table`` from a traced pass."""
    spans = tracer.within(*window)
    setup_spans = [s for lo, hi in setup_windows for s in tracer.within(lo, hi)]
    ops = max(1, phase.completed)
    layers: Dict[str, float] = {}
    for method in FIG7_METHODS:
        layers[f"mann.write_ms.{method}"] = mean_ms(spans, f"mann.write.{method}")
        layers[f"mann.classify_ms.{method}"] = mean_ms(spans, f"mann.classify.{method}")
    layers["core.quantize_ms"] = mean_ms(spans, "core.quantize")
    layers["circuits.mcam.conductance_ms"] = mean_ms(spans, "circuits.mcam.conductance")
    layers["circuits.mcam.cell_evals"] = window_counters.get("circuits.mcam.cell_evals", 0.0) / ops
    layers["circuits.tcam.hamming_ms"] = mean_ms(spans, "circuits.tcam.hamming")
    self_ms = tracer.self_times_ms(spans)
    glue = [
        self_ms[s.span_id]
        for s in spans
        if s.name in {f"mann.classify.{m}" for m in CAM_METHODS}
    ]
    layers["core.rank_glue_ms"] = statistics.fmean(glue) if glue else 0.0
    layers["circuits.autotune.calibrations"] = float(len(kernel_table()))
    batches, sizes = 0, 0
    if serving_stats is not None:
        before, after = serving_stats
        batches = after["batches"] - before["batches"]
        shapes_before = before["batch_shapes"]
        sizes = sum(
            size * (count - shapes_before.get(size, 0))
            for size, count in after["batch_shapes"].items()
        )
    layers["serving.batches"] = float(batches)
    layers["serving.batch_size_mean"] = sizes / batches if batches else 0.0
    waits = _queue_waits_ms(tracer, bursts)
    layers["serving.queue_wait_ms_p50"] = float(np.percentile(waits, 50)) if waits.size else 0.0
    layers["serving.queue_wait_ms_p99"] = float(np.percentile(waits, 99)) if waits.size else 0.0
    layers["sharding.dispatch_ms"] = mean_ms(spans, "sharding.dispatch")
    collect_self = [self_ms[s.span_id] for s in spans if s.name == "sharding.collect"]
    layers["sharding.collect_ms"] = statistics.fmean(collect_self) if collect_self else 0.0
    layers["sharding.merge_ms"] = mean_ms(spans, "sharding.merge")
    layers["sharding.append_ms"] = mean_ms(spans, "sharding.append")
    layers["storage.journal_record_ms"] = mean_ms(spans, "storage.journal_record")
    layers["core.shard_fit_ms"] = mean_ms(spans, "core.shard_fit")
    layers["runtime.publish_ms"] = mean_ms(spans, "runtime.publish")
    layers["serving.read_after_write_ms"] = mean_ms(spans, "serving.read_after_write")
    layers["storage.snapshot_ms"] = mean_ms(spans, "storage.snapshot")
    snapshots = window_counters.get("storage.snapshots", 0.0)
    layers["storage.snapshot_bytes"] = (
        window_counters.get("storage.snapshot_bytes", 0.0) / snapshots if snapshots else 0.0
    )

    def setup_median(name: str) -> float:
        durations = [s.duration_ms for s in setup_spans if s.name == name]
        return statistics.median(durations) if durations else 0.0

    restores = len([s for s in setup_spans if s.name == "storage.restore"])
    layers["storage.restore_ms"] = setup_median("storage.restore")
    layers["storage.load_snapshot_ms"] = setup_median("storage.load_snapshot")
    layers["storage.replayed_records"] = (
        setup_counters.get("storage.replayed_records", 0.0) / restores if restores else 0.0
    )
    layers["runtime.first_query_ms"] = statistics.median(first_query_ms) if first_query_ms else 0.0
    layers["runtime.transport_demotions"] = float(
        phase.record.get("active_transport") not in (None, "shm") or phase.record.get("demoted", False)
    )
    layers["runtime.restarts"] = float(phase.record.get("restarts", 0))
    phase.layers = layers
    phase.layer_table = tracer.layer_table(spans, phase.window_s)


# ----------------------------------------------------------------------
# fewshot_fig7
# ----------------------------------------------------------------------
#: Rounds sampled before timing; the loop cycles through them.
FEWSHOT_POOL_ROUNDS = 256
FEWSHOT_SETUPS = 5
FEWSHOT_WARMUP_S = 0.5
FEWSHOT_CHECK_EVERY = 10  # episodes


class _RecordingMemory(MANNMemory):
    """A MANN memory that keeps its last predictions for the checks."""

    def __init__(self, method: str, factory: Callable[[], Any], reuse: bool) -> None:
        super().__init__(searcher_factory=factory, reuse_searcher=reuse)
        self.method = method
        self.last: Optional[np.ndarray] = None

    def classify(self, query_embeddings: Any, rng: Any = None) -> np.ndarray:
        self.last = super().classify(query_embeddings, rng=rng)
        return self.last


def run_fewshot(seed: int, seconds: float, tracer: Optional[Tracer]) -> Phase:
    phase = Phase()
    space_seed, factory_seed, episode_seed = (
        int(s) for s in np.random.SeedSequence(seed).generate_state(3)
    )
    space = SyntheticEmbeddingSpace(seed=space_seed)
    samplers = [EpisodeSampler(space, n, k, queries_per_class=5) for n, k in PAPER_FEWSHOT_TASKS]
    sample_rng = np.random.default_rng(episode_seed)
    pool = [[s.sample_episode(sample_rng) for s in samplers] for _ in range(FEWSHOT_POOL_ROUNDS)]
    # One generator per pooled episode, shared by the five methods as
    # FewShotEvaluator.compare does.  The Fig. 7 engines sense ideally and
    # never draw from it, so a fresh generator with the same seed
    # reproduces an episode for the checks.
    def episode_rng(pool_round: int, task: int) -> np.random.Generator:
        return np.random.default_rng([seed, pool_round, task])

    rngs = [[episode_rng(r, t) for t in range(len(samplers))] for r in range(FEWSHOT_POOL_ROUNDS)]
    phase.record["config"] = {
        "tasks": [list(t) for t in PAPER_FEWSHOT_TASKS],
        "queries_per_class": 5,
        "methods": list(FIG7_METHODS),
        "executor": "serial",
        "pool_rounds": FEWSHOT_POOL_ROUNDS,
        "embedding_dim": space.embedding_dim,
    }
    if tracer is not None:
        install_hooks(tracer)

    memories: Dict[str, _RecordingMemory] = {}
    factories: Dict[str, Any] = {}
    per_task: Dict[Tuple[int, str], List[float]] = {}
    captured: List[tuple] = []
    episodes_run = [0]

    def play_round(r: int, measured: bool) -> None:
        """One operation: every task's episode, run by every method."""
        pool_round = r % FEWSHOT_POOL_ROUNDS
        for t, episode in enumerate(pool[pool_round]):
            check = measured and episodes_run[0] % FEWSHOT_CHECK_EVERY == 0
            episodes_run[0] += measured
            for method in FIG7_METHODS:
                memory = memories[method]
                accuracy = run_episode(
                    episode, factories[method], rng=rngs[pool_round][t], memory=memory
                )
                if measured:
                    per_task.setdefault((t, method), []).append(accuracy)
                if check:
                    captured.append((pool_round, t, method, memory.last))

    setup_windows = []
    for _ in range(FEWSHOT_SETUPS):
        for memory in memories.values():
            memory.clear()
        if _autotune is not None:
            _autotune.clear_kernel_table()  # every set-up pays cold calibrations
        started = time.perf_counter_ns()
        space = SyntheticEmbeddingSpace(seed=space_seed)
        factories = default_method_factories(space.embedding_dim, seed=factory_seed)
        memories = {m: _RecordingMemory(m, factories[m], reuse=True) for m in FIG7_METHODS}
        play_round(0, measured=False)
        ended = time.perf_counter_ns()
        phase.setup_s.append((ended - started) / 1e9)
        setup_windows.append((started, ended))
    setup_counters = dict(tracer.counters) if tracer is not None else {}

    r = 1
    warm_until = time.perf_counter() + FEWSHOT_WARMUP_S
    while time.perf_counter() < warm_until:
        play_round(r, measured=False)
        r += 1

    if tracer is not None:
        tracer.counters.clear()
    sampler = StealSampler().start()
    window_start = time.perf_counter_ns()
    deadline = window_start + int(seconds * 1e9)
    while True:
        op_start = time.perf_counter_ns()
        if op_start >= deadline:
            break
        phase.attempted += 1
        with maybe_span(tracer, "op", f"round{r}"):
            play_round(r, measured=True)
        op_end = time.perf_counter_ns()
        phase.latencies_ms.append((op_end - op_start) / 1e6)
        phase.ends_s.append((op_end - window_start) / 1e9)
        r += 1
    window_end = time.perf_counter_ns()
    sampler.stop(phase)
    phase.window_s = (window_end - window_start) / 1e9
    phase.peak_rss_mb = peak_rss_mb()
    phase.record["kernel_table"] = kernel_table()
    if tracer is not None:
        window_counters = dict(tracer.counters)
        tracer.uninstall()
        layer_metrics(
            tracer, phase, (window_start, window_end), setup_windows,
            window_counters, setup_counters, bursts=[],
        )
    for memory in memories.values():
        memory.clear()

    # Checks, outside the window: a fresh memory must predict bit for bit
    # what the reused memory predicted on every captured episode.
    for pool_round, t, method, predictions in captured:
        fresh = _RecordingMemory(method, factories[method], reuse=False)
        run_episode(
            pool[pool_round][t], factories[method], rng=episode_rng(pool_round, t), memory=fresh
        )
        if predictions is None or not _same_bits(predictions, fresh.last):
            phase.fail(f"{method} round {pool_round} task {t}: reused memory differs from fresh")
        fresh.clear()
    accuracy_table = {
        f"{n}w{k}s": {m: statistics.fmean(per_task[(t, m)]) for m in FIG7_METHODS}
        for t, (n, k) in enumerate(PAPER_FEWSHOT_TASKS)
        if (t, "mcam-3bit") in per_task
    }
    for task, row in accuracy_table.items():
        if not row["mcam-3bit"] > row["tcam-lsh"]:
            phase.fail(
                f"{task}: mcam-3bit accuracy {row['mcam-3bit']:.4f} "
                f"not above tcam-lsh {row['tcam-lsh']:.4f}"
            )
    phase.record["accuracy"] = accuracy_table
    phase.record["checked_episodes"] = len(captured) // len(FIG7_METHODS)
    return phase


# ----------------------------------------------------------------------
# Serving helpers shared by serve_burst and ingest_durable
# ----------------------------------------------------------------------
class _Burst:
    """One client burst of single queries, and when each one resolved.

    Results are copied into arrays as they are read, so a long run keeps
    no per-query Python objects alive for the garbage collector to scan.
    """

    def __init__(self, scheduler: MicroBatchScheduler, queries: np.ndarray) -> None:
        self.resolved_ns = np.zeros(queries.shape[0], dtype=np.int64)
        self.indices = np.zeros((queries.shape[0], TOP_K), dtype=np.int64)
        self.scores = np.zeros((queries.shape[0], TOP_K), dtype=np.float64)
        self.ok = np.zeros(queries.shape[0], dtype=bool)
        self.submitted_ns = time.perf_counter_ns()
        self.futures = scheduler.submit_many(queries, k=TOP_K)
        for position, future in enumerate(self.futures):
            future.add_done_callback(self._stamp(position))

    def _stamp(self, position: int) -> Callable[[Any], None]:
        def stamp(_future: Any) -> None:
            self.resolved_ns[position] = time.perf_counter_ns()

        return stamp

    def wait(self) -> int:
        """Wait (bounded) for every query; returns how many failed.

        A query that raised, or is still pending when the wait ends,
        counts as failed and keeps ``ok`` False.
        """
        done, _ = wait_futures(self.futures, timeout=WAIT_TIMEOUT_S)
        for position, future in enumerate(self.futures):
            if future in done and future.exception() is None:
                result = future.result()
                self.indices[position] = result.indices
                self.scores[position] = result.scores
                self.ok[position] = True
        self.futures = []
        return int((~self.ok).sum())

    @property
    def latencies_ms(self) -> np.ndarray:
        return (self.resolved_ns[self.ok] - self.submitted_ns) / 1e6


def _first_query(scheduler: MicroBatchScheduler, query: np.ndarray) -> Any:
    """Serve one query; raises if it fails or does not resolve in time."""
    return scheduler.submit(query, k=TOP_K).result(timeout=WAIT_TIMEOUT_S)


def _teardown(phase: Phase, scheduler: MicroBatchScheduler, searcher: Any) -> None:
    """Close the scheduler, then the searcher, each within a bounded wait."""
    if not (_close_bounded(scheduler.close) and _close_bounded(searcher.close)):
        phase.fail("teardown did not finish; killed the worker pool")
        kill_descendants()


# ----------------------------------------------------------------------
# serve_burst
# ----------------------------------------------------------------------
SERVE_ROWS = 4096
SERVE_SHARDS = 2
SERVE_WORKERS = 2
SERVE_CLIENTS = 2
SERVE_BURST = 32
SERVE_QUERY_POOL = 1024
SERVE_SETUPS = 3
SERVE_WARMUP_S = 0.5


def _serving_searcher(**kwargs: Any) -> Any:
    return make_searcher(
        "mcam-3bit", FEATURES, shards=SERVE_SHARDS, executor="processes",
        num_workers=SERVE_WORKERS, **kwargs,
    )


def run_serve_burst(seed: int, seconds: float, tracer: Optional[Tracer]) -> Phase:
    phase = Phase()
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(SERVE_ROWS, FEATURES))
    labels = rng.integers(0, 64, size=SERVE_ROWS)
    queries = rng.normal(size=(SERVE_QUERY_POOL, FEATURES))
    phase.record["config"] = {
        "backend": "mcam-3bit", "rows": SERVE_ROWS, "features": FEATURES,
        "shards": SERVE_SHARDS, "executor": "processes", "num_workers": SERVE_WORKERS,
        "clients": SERVE_CLIENTS, "burst": SERVE_BURST, "k": TOP_K,
        "query_pool": SERVE_QUERY_POOL, "scheduler": "defaults",
    }
    if tracer is not None:
        install_hooks(tracer)

    setup_windows, first_query_ms = [], []
    searcher = scheduler = None
    for _ in range(SERVE_SETUPS):
        if scheduler is not None:
            _teardown(phase, scheduler, searcher)
        started = time.perf_counter_ns()
        searcher = _serving_searcher()
        searcher.fit(features, labels)
        scheduler = MicroBatchScheduler(searcher)
        fitted = time.perf_counter_ns()
        _first_query(scheduler, queries[0])
        ended = time.perf_counter_ns()
        phase.setup_s.append((ended - started) / 1e9)
        first_query_ms.append((ended - fitted) / 1e6)
        setup_windows.append((started, ended))
    setup_counters = dict(tracer.counters) if tracer is not None else {}

    measured_bursts: List[Tuple[np.ndarray, _Burst]] = []
    count_lock = threading.Lock()
    wedged = threading.Event()

    def client(index: int, stop_ns: int, measured: bool, ends: List[int]) -> None:
        cursor = index * (SERVE_QUERY_POOL // SERVE_CLIENTS)
        attempted = failed = 0
        while time.perf_counter_ns() < stop_ns and not wedged.is_set():
            rows = (cursor + np.arange(SERVE_BURST)) % SERVE_QUERY_POOL
            cursor += SERVE_BURST
            attempted += SERVE_BURST
            try:
                burst = _Burst(scheduler, queries[rows])
            except Exception as exc:  # overload or a closed scheduler
                failed += SERVE_BURST
                phase.fail(f"submit_many failed: {exc!r}")
                wedged.set()
                break
            failures = burst.wait()
            if failures:
                failed += failures
                wedged.set()  # a wedged pump or a dead pool: stop the run
            if measured:
                measured_bursts.append((rows, burst))
        if measured:
            with count_lock:
                phase.attempted += attempted
                phase.failed += failed
        ends[index] = time.perf_counter_ns()

    def run_clients(duration_s: float, measured: bool) -> Tuple[int, int]:
        ends = [0] * SERVE_CLIENTS
        start = time.perf_counter_ns()
        stop = start + int(duration_s * 1e9)
        threads = [
            threading.Thread(target=client, args=(i, stop, measured, ends), daemon=True)
            for i in range(SERVE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(duration_s + 2 * WAIT_TIMEOUT_S)
        return start, max(ends) or time.perf_counter_ns()

    run_clients(SERVE_WARMUP_S, measured=False)
    stats_before = scheduler.stats.snapshot()
    if tracer is not None:
        tracer.counters.clear()
        tracer.batches.clear()
    sampler = StealSampler().start()
    window_start, window_end = run_clients(seconds, measured=True)
    sampler.stop(phase)
    phase.window_s = (window_end - window_start) / 1e9
    phase.latencies_ms = [float(x) for _, b in measured_bursts for x in b.latencies_ms]
    phase.ends_s = [
        float(x) for _, b in measured_bursts for x in (b.resolved_ns[b.ok] - window_start) / 1e9
    ]
    stats_after = scheduler.stats.snapshot()
    phase.peak_rss_mb = peak_rss_mb()
    phase.record.update(_executor_state(searcher))
    phase.record["kernel_table"] = kernel_table()
    if tracer is not None:
        window_counters = dict(tracer.counters)
        tracer.uninstall()
        layer_metrics(
            tracer, phase, (window_start, window_end), setup_windows, window_counters,
            setup_counters, [b for _, b in measured_bursts],
            serving_stats=(stats_before, stats_after), first_query_ms=first_query_ms,
        )
    _teardown(phase, scheduler, searcher)

    # Every delivered answer must equal an unsharded serial reference.
    want_indices, want_scores = _reference(features, labels, queries)
    if measured_bursts:
        ok = np.concatenate([b.ok for _, b in measured_bursts])
        rows = np.concatenate([r for r, _ in measured_bursts])[ok]
        got_indices = np.concatenate([b.indices for _, b in measured_bursts])[ok]
        got_scores = np.concatenate([b.scores for _, b in measured_bursts])[ok]
        bad = ~np.all(got_indices == want_indices[rows], axis=1) | ~np.all(
            got_scores.view(np.uint64) == want_scores[rows].view(np.uint64), axis=1
        )
        if bad.any():
            phase.fail(
                f"{int(bad.sum())} of {rows.size} served answers differ from "
                "the unsharded reference"
            )
    return phase


# ----------------------------------------------------------------------
# ingest_durable
# ----------------------------------------------------------------------
INGEST_ROWS = 4096
INGEST_APPEND = 8
INGEST_JOURNAL_RECORDS = 32
INGEST_RANDOM_READS = 8
#: Operations per second of --seconds: the run appends a fixed number of
#: rows whatever the speed of the code, so the store it measures on is the
#: same on every commit.
INGEST_OPS_PER_SECOND = 13
INGEST_WARMUP_OPS = 5
INGEST_SNAPSHOT_EVERY = 25
INGEST_CHECK_EVERY = 10
INGEST_SETUPS = 3


def run_ingest(seed: int, seconds: float, tracer: Optional[Tracer], workdir: str) -> Phase:
    phase = Phase()
    rng = np.random.default_rng(seed)
    measured_ops = max(1, round(INGEST_OPS_PER_SECOND * seconds))
    total_ops = INGEST_WARMUP_OPS + measured_ops
    base = rng.normal(size=(INGEST_ROWS, FEATURES))
    low, high = base.min(axis=0), base.max(axis=0)
    # Appended rows stay inside the base store's per-feature range, so no
    # append moves the quantizer calibration and forces a full refit.
    new_rows = np.clip(
        rng.normal(size=(INGEST_JOURNAL_RECORDS + total_ops, INGEST_APPEND, FEATURES)), low, high
    )
    all_features = np.concatenate([base, new_rows.reshape(-1, FEATURES)])
    all_labels = rng.integers(0, 64, size=all_features.shape[0])
    random_reads = rng.normal(size=(total_ops + 2, INGEST_RANDOM_READS * 2, FEATURES))
    restored_rows = INGEST_ROWS + INGEST_JOURNAL_RECORDS * INGEST_APPEND
    phase.record["config"] = {
        "backend": "mcam-3bit", "rows": INGEST_ROWS, "features": FEATURES, "shards": 2,
        "executor": "processes", "num_workers": 2, "append_rows": INGEST_APPEND,
        "journal_records": INGEST_JOURNAL_RECORDS, "measured_ops": measured_ops,
        "warmup_ops": INGEST_WARMUP_OPS, "read_queries": 2 * INGEST_RANDOM_READS,
        "snapshot_every": INGEST_SNAPSHOT_EVERY, "k": TOP_K, "fsync": True,
    }

    # The durable state a restarted process finds: a snapshot of the base
    # store plus a journal of acknowledged appends made after it.
    template = os.path.join(workdir, "ingest-template")
    writer = make_searcher("mcam-3bit", FEATURES, shards=2, appendable=True)
    writer.fit(base, all_labels[:INGEST_ROWS])
    writer.enable_durability(template)
    writer.snapshot()
    for record in range(INGEST_JOURNAL_RECORDS):
        start = INGEST_ROWS + record * INGEST_APPEND
        writer.append(all_features[start : start + INGEST_APPEND], all_labels[start : start + INGEST_APPEND])
    writer.close()
    if tracer is not None:
        install_hooks(tracer)

    setup_windows, first_query_ms = [], []
    searcher = scheduler = None
    for attempt in range(INGEST_SETUPS):
        if scheduler is not None:
            _teardown(phase, scheduler, searcher)
        directory = os.path.join(workdir, f"ingest-{attempt}")
        shutil.copytree(template, directory)
        started = time.perf_counter_ns()
        searcher = _serving_searcher(appendable=True)
        searcher.enable_durability(directory)
        searcher.restore()
        scheduler = MicroBatchScheduler(searcher)
        restored = time.perf_counter_ns()
        _first_query(scheduler, random_reads[-1][0])
        ended = time.perf_counter_ns()
        phase.setup_s.append((ended - started) / 1e9)
        first_query_ms.append((ended - restored) / 1e6)
        setup_windows.append((started, ended))
    setup_counters = dict(tracer.counters) if tracer is not None else {}

    checks: List[Tuple[str, int, np.ndarray, np.ndarray, np.ndarray]] = []

    def read(queries: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        burst = _Burst(scheduler, queries)
        return None if burst.wait() else (burst.indices, burst.scores)

    served = read(random_reads[-2])
    if served is None:
        phase.fail("reads after restore failed")
    else:
        checks.append(("restored state", restored_rows, random_reads[-2], *served))

    stats_before: dict = {}
    sampler = StealSampler()
    bursts: List[_Burst] = []
    acknowledged = restored_rows
    window_start = window_end = time.perf_counter_ns()
    for op in range(total_ops):
        measured = op >= INGEST_WARMUP_OPS
        if measured and op == INGEST_WARMUP_OPS:
            if tracer is not None:
                tracer.counters.clear()
                tracer.batches.clear()
            stats_before = scheduler.stats.snapshot()
            sampler.start()
            window_start = time.perf_counter_ns()
        rows = new_rows[INGEST_JOURNAL_RECORDS + op]
        row_labels = all_labels[acknowledged : acknowledged + INGEST_APPEND]
        queries = np.concatenate([rows, random_reads[op][:INGEST_RANDOM_READS]])
        phase.attempted += measured
        op_start = time.perf_counter_ns()
        with maybe_span(tracer, "op", f"op{op}"):
            try:
                searcher.append(rows, row_labels)
            except Exception as exc:
                phase.failed += measured
                phase.fail(f"append {op} failed: {exc!r}")
                break
            acknowledged += INGEST_APPEND
            with maybe_span(tracer, "serving.read_after_write"):
                burst = _Burst(scheduler, queries)
                failed = burst.wait()
        op_end = time.perf_counter_ns()
        if failed:
            phase.failed += measured
            phase.fail(f"read after append {op}: {failed} queries failed")
            break
        own = np.arange(acknowledged - INGEST_APPEND, acknowledged)
        if not np.all(np.any(burst.indices[:INGEST_APPEND] == own[:, None], axis=1)):
            phase.fail(f"read after append {op} did not see the appended rows")
        if measured:
            phase.latencies_ms.append((op_end - op_start) / 1e6)
            phase.ends_s.append((op_end - window_start) / 1e9)
            bursts.append(burst)
            number = op - INGEST_WARMUP_OPS + 1
            if number % INGEST_CHECK_EVERY == 0:
                checks.append(
                    (f"read after append {op}", acknowledged, queries, burst.indices, burst.scores)
                )
            if number % INGEST_SNAPSHOT_EVERY == 0:
                searcher.snapshot()
        window_end = time.perf_counter_ns()
    if phase.attempted:
        sampler.stop(phase)
    phase.window_s = (window_end - window_start) / 1e9
    stats_after = scheduler.stats.snapshot()
    phase.peak_rss_mb = peak_rss_mb()
    phase.record.update(_executor_state(searcher))
    phase.record["kernel_table"] = kernel_table()
    if tracer is not None:
        window_counters = dict(tracer.counters)
        tracer.uninstall()
        layer_metrics(
            tracer, phase, (window_start, window_end), setup_windows, window_counters,
            setup_counters, bursts, serving_stats=(stats_before, stats_after),
            first_query_ms=first_query_ms,
        )
    served = read(random_reads[-1])
    if served is None:
        phase.fail("final reads failed")
    else:
        checks.append(("final state", acknowledged, random_reads[-1], *served))
    _teardown(phase, scheduler, searcher)

    # Each checked read must equal a from-scratch refit of exactly the rows
    # acknowledged before it.
    for what, rows_acked, queries, got_indices, got_scores in checks:
        want_indices, want_scores = _reference(
            all_features[:rows_acked], all_labels[:rows_acked], queries
        )
        if not (_same_bits(got_indices, want_indices) and _same_bits(got_scores, want_scores)):
            phase.fail(f"{what}: served answers differ from a refit of {rows_acked} rows")
    phase.record["checked_reads"] = len(checks)
    return phase
