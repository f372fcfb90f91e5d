"""One workload process: set up, run ops, report one JSON line.

Modes:

* ``warm``: set up, run the first (cold) op, then warm ops for the given
  number of seconds, ending on a whole rotation of table kinds; the
  process in slot 0 then checks the reference inputs;
* ``exact``: set up and run only the ops that define the exact counts.

With ``--traced`` every target in ``tracing.WRAP_TARGETS`` is wrapped
before set-up starts, and the spans are written to the output directory
when the process ends.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from typing import Dict, List

import hostspeed
import tracing
from workloads import OUT_DIR, WORKLOADS, reference_problems


def _machine(workload_name: str) -> Dict[str, object]:
    from repro.obs import get_registry
    from repro.tta.compiled import numpy_active, numpy_available
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy_present": numpy_available(),
        "numpy_active": numpy_active(),
        "backend": "compiled" if workload_name == "table1-paper" else None,
        "metrics_registry_enabled": get_registry().enabled,
    }


def main(args) -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        report = _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


def _measure(args, workdir: str) -> Dict[str, object]:
    setup_calibration = hostspeed.samples(3)
    log = patch = None
    if args.traced:
        log = tracing.SpanLog()
        patch = tracing.install(log)
    workload = WORKLOADS[args.workload](args.seed, args.slot, workdir)
    workload.setup(lambda: setup_calibration.append(hostspeed.sample()))
    # Settle the heap so the collector's full passes during the ops fall
    # where the ops' own allocations put them, not where set-up left off.
    gc.collect()
    ready_at = time.monotonic()
    setup_calibration += hostspeed.samples(3)

    calibration: List[float] = []
    latencies: List[float] = []
    traced_ops: List[bool] = []
    failures: List[str] = []

    def one(index: int) -> None:
        if patch is not None:
            # Cold op and odd warm ops traced, even warm ops not: the two
            # halves interleave, so host drift cancels from the overhead.
            traced_ops.append(index == 0 or index % 2 == 1)
            patch.set(traced_ops[-1])
            log.op = index
        inputs = workload.prepare(index)
        calibration.append(hostspeed.sample())
        start = time.perf_counter()
        try:
            output = workload.run(inputs)
        except Exception as exc:  # a failed op is counted, not fatal
            latencies.append(time.perf_counter() - start)
            failures.append(f"op {index}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return
        latencies.append(time.perf_counter() - start)
        problem = workload.check(index, inputs, output)
        if problem:
            failures.append(f"op {index}: {problem}")
        workload.after_op(index, output)

    one(0)
    if args.child == "exact":
        for index in range(1, workload.exact_ops):
            one(index)
    elif args.child == "warm":
        window_start = time.perf_counter()
        index = 1
        # warm ops so far: index - 1; stop on a whole rotation of kinds
        # (traced runs: one traced and one untraced pass over them)
        rotation = workload.rotation * (2 if patch is not None else 1)
        while (index == 1 or (index - 1) % rotation
               or time.perf_counter() - window_start < args.seconds):
            one(index)
            index += 1
    calibration.append(hostspeed.sample())

    report: Dict[str, object] = {
        "ready_at": ready_at,
        "first_op_s": latencies[0],
        "warm_latencies": latencies[1:],
        "setup_calibration": setup_calibration,
        "calibration": calibration,
        "attempted": len(latencies),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exact": dict(workload.exact),
    }
    if patch is not None:
        patch.set(False)
        report["warm_traced"] = traced_ops[1:]
        report["exact"]["tta.cycles"] = log.counts.get(
            ("tta.cycles", tracing.FIRST), 0)
        report["trace"] = log.summary()
        spans_file = os.path.join(
            OUT_DIR,
            f"spans-{args.workload}-seed{args.seed}-{args.child}.jsonl")
        log.write(spans_file)
        report["spans_file"] = os.path.relpath(spans_file)
    if args.child == "warm" and args.slot == 0:
        report["reference_problems"] = reference_problems(workload)
        report["machine"] = _machine(args.workload)
    return report
