#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_burst --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing, in 4 fresh
processes that run one after the other for a quarter of ``--seconds`` each,
and pools their samples.  ``--trace 1`` runs the workload twice in one
process, first untraced and then with the per-layer timing hooks
installed, and reports the per-layer metrics plus the tracing overhead
(traced minus untraced).  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Each run also writes a run record (host fingerprint, seed, configuration,
autotune table, transport and restarts) to ``.perfbench/runs/`` and, when
traced, its spans and per-layer table to ``.perfbench/traces/``, both under
the repository root.  See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("fewshot_fig7", "serve_burst", "ingest_durable")
#: Percentile of ``op_ms_tail`` per workload: p99 only where a run yields
#: at least 1000 operations, so that ten samples lie beyond it (serve_burst,
#: ~3000 queries/s); p90 for the workloads with a few hundred.  Fixed per
#: workload, so a faster program does not change what the metric means.
TAIL_PERCENTILE = {"fewshot_fig7": 90, "serve_burst": 99, "ingest_durable": 90}
#: Length of the slices the window is cut into for the median metrics.
SLICE_S = 1.0
#: Largest share of the host's CPU time stolen by the hypervisor during a
#: slice for the slice to count (see ``quiet_slices``).
STEAL_MAX = 0.02
#: Processes an untraced run measures in, one after the other.
CHILDREN = 4
#: Wall-clock budget of a whole run, children included.
RUN_BUDGET_S = 170.0
#: How long a child's leftover processes may take to exit on their own.
GROUP_GRACE_S = 5.0


def _fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def host_fingerprint() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except Exception as exc:  # the config layout differs across numpy versions
        blas = {"error": repr(exc)}
    threads = {
        name: os.environ.get(name)
        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": threads,
    }


def percentile(values: list, pct: float) -> float:
    """Linear-interpolated percentile, as numpy computes it by default."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def slices(phase: dict) -> list:
    """Cut a pass's window into ``SLICE_S`` slices.

    Returns one ``(seconds, latencies, steal share)`` per slice: the
    operations that completed in it and the share of the host's CPU time
    the hypervisor gave to other machines meanwhile.
    """
    count = max(1, int(phase["window_s"] / SLICE_S))
    width = phase["window_s"] / count
    buckets: list = [[] for _ in range(count)]
    for end, latency in zip(phase["ends_s"], phase["latencies_ms"]):
        buckets[min(count - 1, max(0, int(end / width)))].append(latency)
    samples = phase["steal"]

    def at(t: float) -> tuple:
        return min(samples, key=lambda sample: abs(sample[0] - t))[1:] if samples else (0, 0)

    parts = []
    for index, bucket in enumerate(buckets):
        (total_a, steal_a), (total_b, steal_b) = at(index * width), at((index + 1) * width)
        share = (steal_b - steal_a) / (total_b - total_a) if total_b > total_a else 0.0
        parts.append((width, bucket, share))
    return parts


def quiet_slices(parts: list) -> list:
    """The slices the host left alone: steal share at most ``STEAL_MAX``.

    When fewer than a quarter of the slices qualify, the quietest quarter
    is used instead, so every run reports from at least that much of its
    window.
    """
    quiet = [part for part in parts if part[2] <= STEAL_MAX]
    least = max(1, len(parts) // 4)
    if len(quiet) < least:
        quiet = sorted(parts, key=lambda part: part[2])[:least]
    return quiet


def end_to_end(phases: list, tail_pct: int) -> dict:
    """End-to-end metrics of one or more passes.

    The window is cut into slices and only the quiet ones count (see
    :func:`quiet_slices`): on a shared virtual machine, time the hypervisor
    gives to other machines slows every layer at once and is no property
    of the program.  Throughput and median latency are medians over those
    slices; the tail percentile pools their samples.
    """
    parts = quiet_slices([part for p in phases for part in slices(p)])
    latencies = [x for _, bucket, _ in parts for x in bucket]
    return {
        "setup_s": statistics.median([x for p in phases for x in p["setup_s"]]),
        "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in phases]),
        "ops_per_s": statistics.median(len(bucket) / width for width, bucket, _ in parts),
        "op_ms_p50": statistics.median(percentile(bucket, 50) for _, bucket, _ in parts),
        "op_ms_tail": percentile(latencies, tail_pct),
    }


# ----------------------------------------------------------------------
# Child: one process that runs the workload and writes what it measured
# ----------------------------------------------------------------------
def child(args: argparse.Namespace) -> None:
    from dataclasses import asdict

    # Keep every file the program writes (shard spools, snapshots) inside
    # the checkout.
    work = os.path.join(OUT, "tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    os.environ["TMPDIR"] = work
    tempfile.tempdir = work
    sys.path[:0] = [SRC, HERE]
    import workloads
    from tracing import Tracer

    def run(tracer):
        if args.workload == "fewshot_fig7":
            return workloads.run_fewshot(args.seed, args.seconds, tracer)
        if args.workload == "serve_burst":
            return workloads.run_serve_burst(args.seed, args.seconds, tracer)
        scratch = os.path.join(work, "traced" if tracer else "plain")
        return workloads.run_ingest(args.seed, args.seconds, tracer, scratch)

    try:
        phases = [run(None)]
        if args.trace:
            tracer = Tracer()
            traced = run(tracer)
            traced.record["untraceable"] = {
                "worker-side quantize, conductance kernel and top-k":
                    "run inside pool worker processes; not visible from outside",
                **tracer.unavailable,
            }
            phases.append(traced)
            write_json(os.path.join(OUT, "traces", f"{args.workload}-seed{args.seed}.json"), {
                "spans": [span.as_dict() for span in tracer.spans],
                "layer_table": traced.layer_table,
            })
    finally:
        shutil.rmtree(work, ignore_errors=True)
    write_json(args.child_out, {"phases": [asdict(p) for p in phases]})


def group_alive(pgid: int) -> bool:
    """Whether any live (non-zombie) process is in process group ``pgid``."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while listing
        if fields[0] != "Z" and int(fields[2]) == pgid:
            return True
    return False


def wait_group(pgid: int, timeout_s: float) -> bool:
    """Poll until process group ``pgid`` is empty; False on timeout."""
    deadline = time.monotonic() + timeout_s
    while group_alive(pgid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


def run_child(args: argparse.Namespace, seed: int, seconds: float, out: str, budget_s: float) -> list:
    """Run one child process to completion (its whole process group on timeout)."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(args.trace),
        "--child-out", out,
    ]
    process = subprocess.Popen(command, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    try:
        code = process.wait(timeout=budget_s)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        wait_group(process.pid, GROUP_GRACE_S)
        _fail(f"{args.workload} seed {seed} did not finish within {budget_s:.0f} s", code=4)
    # Pool workers and multiprocessing's resource tracker share the child's
    # process group: wait for them to end, and kill any that do not.
    if not wait_group(process.pid, GROUP_GRACE_S):
        os.killpg(process.pid, signal.SIGKILL)
        wait_group(process.pid, GROUP_GRACE_S)
    if code != 0:
        _fail(f"{args.workload} seed {seed} exited with code {code}", code=4)
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)["phases"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child-out", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        _fail(f"the program's sources are missing: no {os.path.join(SRC, 'repro')}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    if args.child_out:
        child(args)
        return

    started = time.time()
    deadline = time.monotonic() + RUN_BUDGET_S
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    # An untraced run measures in several fresh processes, one after the
    # other, and pools their samples: a process's own speed (thread
    # placement, memory layout) then averages out instead of setting the
    # whole run.  A traced run is one process with both passes.
    children = 1 if args.trace else CHILDREN
    untraced, traced = [], None
    for index in range(children):
        seed = args.seed if args.trace else args.seed * 1000 + index
        out = os.path.join(OUT, "tmp", f"child-{os.getpid()}-{index}.json")
        try:
            phases = run_child(args, seed, args.seconds / children, out,
                               deadline - time.monotonic())
        finally:
            if os.path.exists(out):
                os.remove(out)
        untraced.append(phases[0])
        if args.trace:
            traced = phases[1]
        if any(p["failed"] or p["mismatches"] for p in phases):
            break  # report the failure now rather than repeat it
    phases = untraced + ([traced] if traced else [])

    tail_pct = TAIL_PERCENTILE[args.workload]
    metrics = end_to_end(untraced, tail_pct)
    all_slices = [part for p in untraced for part in slices(p)]
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "processes": children,
        "started_unix": started,
        "host": host_fingerprint(),
        "samples": sum(len(p["latencies_ms"]) for p in untraced),
        "quiet_slices": f"{len(quiet_slices(all_slices))} of {len(all_slices)}",
        "tail_percentile": tail_pct,
        "end_to_end": metrics,
        "setup_s_runs": [p["setup_s"] for p in untraced],
        "slices": [
            {"ops_per_s": len(bucket) / width, "op_ms_p50": percentile(bucket, 50),
             "steal_share": steal}
            for width, bucket, steal in all_slices
        ],
        "runs": [p["record"] for p in untraced],
        "mismatches": [m for p in phases for m in p["mismatches"]],
    }
    report = metrics
    if traced is not None:
        traced_metrics = end_to_end([traced], tail_pct)
        report = dict(traced["layers"])
        for name in ("op_ms_p50", "ops_per_s"):
            base = metrics[name]
            report[f"trace.overhead_{name}_pct"] = (
                100.0 * (traced_metrics[name] - base) / base if base else 0.0
            )
        record.update(
            traced_end_to_end=traced_metrics,
            per_layer=traced["layers"],
            layer_table=traced["layer_table"],
            traced_run=traced["record"],
        )
    write_json(
        os.path.join(OUT, "runs", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
        record,
    )

    expected = [m["name"] for m in declared["per_layer" if traced is not None else "end_to_end"]]
    if sorted(expected) != sorted(report):
        _fail(f"metrics {sorted(report)} do not match BENCHMARK.json", code=3)
    print(f"workload {args.workload}  seed {args.seed}  processes {children}  "
          f"samples {record['samples']}  tail p{tail_pct}")
    for name in expected:
        print(f"  {name:<40} {report[name]:14.4f} {units[name]}")
    if traced is not None:
        print("  layer self time, share of the traced window:")
        table = sorted(traced["layer_table"].items(), key=lambda kv: -kv[1]["self_ms"])
        for name, row in table:
            print(f"    {name:<38} calls {row['calls']:7d}  self {row['self_ms']:10.1f} ms"
                  f"  share {100 * row['self_share']:6.2f}%")
    for mismatch in record["mismatches"]:
        print(f"  MISMATCH: {mismatch}")
    correct = not record["mismatches"]
    print(json.dumps({
        "correct": correct,
        "attempted": sum(p["attempted"] for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "metrics": {name: {"value": report[name], "unit": units[name]} for name in expected},
    }))
    sys.stdout.flush()
    sys.exit(0 if correct else 1)


def write_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, default=repr)


if __name__ == "__main__":
    main()
