#!/usr/bin/env python3
"""deconf benchmark: one workload at one seed, end to end or traced.

    python3 perfbench/run.py --workload infinite-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed). One process, closed loop: one call at a
time, and ``workers`` is 1 or 2.

``--trace 0`` times the workload for ``--seconds`` and reports the
end-to-end metrics. ``--trace 1`` first times untraced calls for part of
``--seconds`` (for the tracing overhead and the derived pool overhead),
then runs a fixed amount of work under the tracer and reports the
per-layer metrics; the counts repeat exactly between runs at one seed.

Every output is checked (see ``checks.py``); ``attempted`` counts checks
and ``failed`` the failed ones plus exceptions the program raised, so
failed / attempted is the run's ``failed_frac``. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Run artifacts go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from multiprocessing import get_context
from pathlib import Path

import numpy as np

import checks
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 7  # setup_s is the median of at least this many fresh imports + input builds
SETUP_SECONDS = 1.0  # ... and of as many more as fit in this long
MIN_ROUNDS = 3  # sweep rounds (one workers=1 and one workers=2 call each) at least
MIN_PLANS = 100  # plan latencies per run at least, for op_ms_p90
UNTRACED_SHARE = 0.5  # share of --seconds a traced run spends on untraced calls
TRACED_SWEEP_CALLS = 1
TRACED_PLANS = 40
PLAN_BLOCK_SECONDS = 2.5  # plan-bounds alternates workers=1 and workers=2 blocks this long
PLAN_CHUNK = 2  # plans per task in a plan-bounds workers=2 block


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


# ---------------------------------------------------------------------------
# setup


def fresh_import():
    """Import ``deconf`` (and ``deconf.io``, which the CLI uses) from scratch."""
    for name in [n for n in sys.modules if n == "deconf" or n.startswith("deconf.")]:
        del sys.modules[name]
    importlib.import_module("deconf.io")
    return sys.modules["deconf"]


def setup(wl, seed, workdir):
    """Median of repeated import + seeded input generation.

    Each repeat writes its input files into an emptied directory, so every
    repeat creates them rather than overwriting the previous repeat's.
    """
    inputs_dir = workdir / "inputs"
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        shutil.rmtree(inputs_dir, ignore_errors=True)
        inputs_dir.mkdir()
        gc.collect()
        t0 = time.perf_counter()
        deconf = fresh_import()
        inputs = wl.make_inputs(seed, inputs_dir)
        times.append(time.perf_counter() - t0)
    return deconf, inputs, statistics.median(times)


# ---------------------------------------------------------------------------
# sweeps


def cpu_seconds():
    """CPU time of this process and its reaped children (the program's pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def timed_sweep(wl, deconf, inp, workers, out):
    """One call: (wall seconds, CPU seconds, output bytes)."""
    gc.collect()
    t0, c0 = time.perf_counter(), cpu_seconds()
    wl.run(deconf, inp, workers, out)
    return time.perf_counter() - t0, cpu_seconds() - c0, out.read_bytes()


def run_sweep(wl, deconf, inputs, args, log, workdir):
    """Rounds of one workers=1 and one workers=2 call on the same input."""
    budget = args.seconds * (UNTRACED_SHARE if args.trace else 1.0)
    times = {1: [], 2: []}  # wall seconds per call
    cpu = {1: [], 2: []}  # CPU seconds per call
    first = {}  # input index -> its first workers=1 output
    out = workdir / "curve.csv"
    rounds = 0
    start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - start < budget:
        idx = rounds % len(inputs)
        outputs = {}
        for workers in ((1, 2) if rounds % 2 == 0 else (2, 1)):
            try:
                dt, dc, outputs[workers] = timed_sweep(wl, deconf, inputs[idx], workers, out)
                times[workers].append(dt)
                cpu[workers].append(dc)
            except Exception as exc:  # the program failed: a failed check, not a crash
                log.error(f"{wl.name} workers={workers} call", exc)
        if 1 in outputs and 2 in outputs:
            log.check(f"{wl.name} workers=1 vs 2 bytes",
                      checks.check_identical(outputs[1], outputs[2], "workers=1 vs 2"))
        if outputs:
            wl.check_output(log, inputs[idx], next(iter(outputs.values())))
        if 1 in outputs:
            if idx in first:
                log.check(f"{wl.name} repeat bytes",
                          checks.check_identical(first[idx], outputs[1], "repeated input"))
            else:
                first[idx] = outputs[1]
        rounds += 1
    if not times[1] or not times[2]:
        raise SystemExit(f"{wl.name}: no successful call to measure")

    ops = wl.ops_per_call(inputs[0])
    if not args.trace:
        lat_ms = [1000.0 * t for t in cpu[1]]
        return {
            "ops_per_s": (ops / statistics.median(cpu[1]), "ops/cpu-s"),
            "ops_per_s_w2": (ops / statistics.median(cpu[2]), "ops/cpu-s"),
            "op_ms_p50": (percentile(lat_ms, 50), "cpu-ms"),
            "op_ms_p90": (percentile(lat_ms, 90), "cpu-ms"),
        }, (f"{rounds} rounds, {len(times[1])} calls per worker count, {ops} {wl.ops_unit} "
            f"each, median wall s per call {statistics.median(times[1]):.4g} at workers=1 and "
            f"{statistics.median(times[2]):.4g} at workers=2")

    traced = []
    with Tracer().install(deconf) as tracer:
        for idx in range(TRACED_SWEEP_CALLS):
            try:
                dt, _, data = timed_sweep(wl, deconf, inputs[idx], 1, out)
            except Exception as exc:  # the program failed: a failed check, not a crash
                log.error(f"{wl.name} traced call", exc)
                continue
            traced.append(dt)
            log.check(f"{wl.name} traced vs untraced bytes",
                      checks.check_identical(first.get(idx, b""), data, "traced vs untraced"))
    if not traced:
        raise SystemExit(f"{wl.name}: traced call failed")
    tracer.write(OUT / f"spans-{wl.name}.jsonl")
    metrics = tracer.layer_metrics()
    metrics["simulation.pool_overhead_s"] = (
        statistics.median(times[2]) - statistics.median(times[1]) / 2, "s")
    metrics["trace.overhead_frac"] = (
        statistics.mean(traced) / statistics.mean(times[1]) - 1.0, "ratio")
    return metrics, (f"{rounds} untraced rounds, {len(traced)} traced calls, "
                     f"{len(tracer.spans)} spans")


# ---------------------------------------------------------------------------
# plans


def run_plans(wl, deconf, paths, args, log, workdir):
    """Alternating blocks of plans one at a time (workers=1) and in two worker processes."""
    latencies = {}  # instance index -> its workers=1 plan latencies
    cpu = {}  # instance index -> its workers=1 plan CPU seconds
    records = {}  # instance index -> its first workers=1 plan
    w1_order = itertools.cycle(range(len(paths)))

    def plan_w1(seconds, min_plans=1):
        end = time.perf_counter() + seconds
        for count in itertools.count(1):
            idx = next(w1_order)
            try:
                t0, c0 = time.perf_counter(), time.process_time()
                record = wl.run(deconf, paths[idx])
                latencies.setdefault(idx, []).append(time.perf_counter() - t0)
                cpu.setdefault(idx, []).append(time.process_time() - c0)
            except Exception as exc:  # the program failed: a failed check, not a crash
                log.error(f"{wl.name} plan {idx}", exc)
            else:
                if idx in records:
                    log.check(f"{wl.name} repeat plan",
                              checks.check_identical(dumps(records[idx]), dumps(record),
                                                     "repeat plan"))
                else:
                    records[idx] = record
                    wl.check_output(log, deconf, paths[idx], record)
            if count >= min_plans and time.perf_counter() >= end:
                return

    if args.trace:
        plan_w1(args.seconds * UNTRACED_SHARE, TRACED_PLANS)
        if not latencies:
            raise SystemExit(f"{wl.name}: no successful plan to measure")
        traced = []
        with Tracer().install(deconf) as tracer:
            for idx in range(TRACED_PLANS):
                try:
                    t0 = time.perf_counter()
                    record = wl.run(deconf, paths[idx])
                    traced.append(time.perf_counter() - t0)
                except Exception as exc:  # the program failed: a failed check, not a crash
                    log.error(f"{wl.name} traced plan {idx}", exc)
                    continue
                log.check(f"{wl.name} traced plan",
                          checks.check_identical(dumps(records.get(idx)), dumps(record),
                                                 "traced vs untraced plan"))
        if not traced:
            raise SystemExit(f"{wl.name}: every traced plan failed")
        tracer.write(OUT / f"spans-{wl.name}.jsonl")
        metrics = tracer.layer_metrics()
        metrics["simulation.pool_overhead_s"] = (0.0, "s")  # the program starts no pool here
        untraced = [t for idx in range(TRACED_PLANS) for t in latencies.get(idx, ())]
        metrics["trace.overhead_frac"] = (
            statistics.mean(traced) / statistics.mean(untraced) - 1.0, "ratio")
        return metrics, (f"{len(untraced)} untraced plans, {len(traced)} traced plans, "
                         f"{len(tracer.spans)} spans")

    w2_plans, w2_cpu = 0, 0.0
    # fork, as the program's own pool does: no resource-tracker process is started,
    # and leaving the block joins both workers
    with ProcessPoolExecutor(2, mp_context=get_context("fork")) as pool:
        pids = set()
        for _ in range(50):  # both workers started before timing
            pids.update(f.result() for f in [pool.submit(workloads.worker_pid)
                                             for _ in range(2)])
            if len(pids) == 2:
                break
        w2_order = itertools.cycle(range(len(paths)))
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or (
            plan_count(latencies) < MIN_PLANS and time.perf_counter() - start < 3 * args.seconds
        ):
            plan_w1(PLAN_BLOCK_SECONDS)
            done, cpu_s = plan_w2(wl, pool, paths, w2_order, records, log)
            w2_plans += done
            w2_cpu += cpu_s
    if not latencies or not w2_plans:
        raise SystemExit(f"{wl.name}: no successful plan to measure")
    # every instance weighs the same, however often the loop reached it
    plan_s = [statistics.mean(times) for times in cpu.values()]
    lat_ms = [1000.0 * t for times in cpu.values() for t in times]
    return {
        "ops_per_s": (len(plan_s) / sum(plan_s), "ops/cpu-s"),
        "ops_per_s_w2": (w2_plans / w2_cpu, "ops/cpu-s"),
        "op_ms_p50": (percentile(lat_ms, 50), "cpu-ms"),
        "op_ms_p90": (percentile(lat_ms, 90), "cpu-ms"),
    }, (f"{len(lat_ms)} plans at workers=1, {w2_plans} at workers=2, median wall ms per "
        f"plan {1000 * statistics.median(t for times in latencies.values() for t in times):.4g}"
        " at workers=1")


def plan_w2(wl, pool, paths, order, records, log):
    """One block of two workers, each planning chunk after chunk (closed loop).

    Returns the plans done and the workers' CPU seconds spent on them.
    """
    def submit():
        chunk = [(idx, paths[idx]) for idx in itertools.islice(order, PLAN_CHUNK)]
        return pool.submit(workloads.plan_chunk, chunk)

    done, seconds = 0, 0.0
    start = time.perf_counter()
    pending = {submit(), submit()}
    while pending:
        finished, pending = wait(pending, return_when=FIRST_COMPLETED)
        for fut in finished:
            if time.perf_counter() - start < PLAN_BLOCK_SECONDS:
                pending.add(submit())
            try:
                results, chunk_seconds = fut.result()
            except Exception as exc:  # the program failed: a failed check, not a crash
                log.error(f"{wl.name} workers=2 chunk", exc)
                continue
            seconds += chunk_seconds
            for idx, record in results:
                done += 1
                if idx in records:
                    log.check(f"{wl.name} workers=2 plan",
                              checks.check_identical(dumps(records[idx]), dumps(record),
                                                     "workers=1 vs 2 plan"))
    return done, seconds


def plan_count(latencies):
    return sum(len(times) for times in latencies.values())


def dumps(record):
    return json.dumps(record, sort_keys=True).encode()


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


# ---------------------------------------------------------------------------
# manifest and main


def read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def cpu_quota():
    """The cgroup CPU quota, read only: v2 ``cpu.max`` or v1 quota/period."""
    v2 = read_text("/sys/fs/cgroup/cpu.max")
    if v2 is not None:
        return v2
    quota = read_text("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    period = read_text("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    return None if quota is None else f"{quota} {period}"


def git_commit():
    """The checked-out commit, read from .git without running git (None if absent)."""
    head = read_text(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = read_text(ROOT / ".git" / ref)
    if direct is not None:
        return direct
    for line in (read_text(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def cpu_model():
    for line in (read_text("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def steal_ticks():
    fields = (read_text("/proc/stat") or "").split("\n", 1)[0].split()
    return int(fields[8]) if len(fields) > 8 else None


def peak_rss_mb():
    """Largest resident set of this process or any finished child (ru_maxrss is KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "deconf" / "__init__.py").is_file():
        print(f"error: no deconf package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    manifest = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "cpu_model": cpu_model(), "cpu_quota": cpu_quota(), "git_commit": git_commit(),
        "loadavg_before": read_text("/proc/loadavg"),
    }
    steal_before = steal_ticks()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{wl.name}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    log = checks.CheckLog()
    try:
        deconf, inputs, setup_s = setup(wl, args.seed, workdir)
        runner = run_sweep if wl.kind == "sweep" else run_plans
        metrics, summary = runner(wl, deconf, inputs, args, log, workdir)
        wl.check_reference(deconf, log, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    manifest.update({
        "loadavg_after": read_text("/proc/loadavg"),
        "steal_ticks": None if steal_before is None else steal_ticks() - steal_before,
        "summary": summary,
    })
    with open(OUT / f"manifest-{wl.name}-s{args.seed}-t{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)

    print("manifest " + json.dumps(manifest))
    print(f"{wl.name} seed={args.seed} trace={args.trace}: {summary}; "
          f"ops are {wl.ops_unit}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {unit}")
    frac = log.failed / log.attempted if log.attempted else 0.0
    print(f"  {'failed_frac':<28} {frac:>16.6g} ({log.failed} of {log.attempted} checks)")
    print(json.dumps({
        "correct": log.failed == 0 and log.attempted > 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
