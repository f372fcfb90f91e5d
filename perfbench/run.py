"""Closed-loop benchmark of the repository: one client, one process at a time.

    python3 perfbench/run.py --workload table1-paper --seed 1 --seconds 22 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. Each workload runs in fresh processes that take the seed as an
argument (see ``workloads.py`` for the workloads and why each exists).

``--trace 0`` reports the end-to-end metrics. The seconds are split
into equal slices measured by several fresh processes, one after the
other; each also adds a set-up and a cold first-op sample, whose medians
are reported. Every time is scaled to the reference host speed by the
calibration loop of ``hostspeed.py``, timed between the ops; the
unscaled figures are in the details line. ``--trace 1`` reports the
per-layer metrics of ``layers.py``: one warm process alternates traced
and untraced ops (their throughput ratio is the tracing overhead), and
a second traced process with the same seed must repeat the exact
simulated counts bit for bit.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries
the details (samples, machine facts, failures, absent metrics). Both
are also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

import hostspeed
from workloads import HERE, OUT_DIR, WORKLOADS

ROOT = os.path.dirname(HERE)
DEADLINE_S = 170.0

#: Modules this benchmark deliberately does not measure, and why; claims
#: about them need a workload of their own.
UNMEASURED = {
    "repro.service": "campaign service, job spool and evaluation cache",
    "repro.conformance": "forwarding conformance matrix",
    "repro.faults": "fault, chaos and soft-error injection",
    "repro.pcap": "pcap capture and replay",
    "repro.reporting": "text renderers (Table-1 rendering runs only in "
                       "the reference check)",
    "repro.dse.parallel and --jobs>1": "not meaningful on a shared 2-core "
                                       "machine",
    "repro.dse.sdc": "datapath and memory SDC sweeps",
    "repro.dse.explorer": "greedy design-space exploration",
}

END_TO_END_UNITS = {
    "setup_s": "s", "first_op_ms": "ms", "ops_per_s": "1/s",
    "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB",
}


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the per-process side, started by this script itself
    parser.add_argument("--child", choices=("warm", "exact"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--slot", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class ChildFailed(Exception):
    pass


def _spawn(args, mode: str, seconds: float, traced: bool,
           deadline: float, slot: int = 0) -> Dict[str, object]:
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--child", mode,
               "--slot", str(slot)]
    if traced:
        command.append("--traced")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    spawned_at = time.monotonic()
    try:
        done = subprocess.run(command, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} process ran past the deadline") from None
    if done.returncode != 0:
        raise ChildFailed(f"{mode} process exited with {done.returncode}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready_at"] - spawned_at
    return report


def _scaled(child: Dict[str, object]) -> Dict[str, object]:
    """The child's times, scaled to the reference host speed."""
    scales = hostspeed.op_scales(child["calibration"])
    setup = hostspeed.REFERENCE_S / statistics.fmean(
        child["setup_calibration"])
    return {
        "setup_s": child["setup_s"] * setup,
        "first_op_s": child["first_op_s"] * scales[0],
        "warm_latencies": [latency * scale for latency, scale
                           in zip(child["warm_latencies"], scales[1:])],
        "scales": scales,
    }


def _timings(children: List[Dict[str, object]]) -> Dict[str, float]:
    """Set-up, cold-op and warm-op figures over the run's processes."""
    latencies = [x for child in children for x in child["warm_latencies"]]
    return {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "first_op_ms": 1000 * statistics.median(
            c["first_op_s"] for c in children),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * statistics.quantiles(latencies, n=10)[8],
    }


def _end_to_end(args, deadline: float):
    # A shared host slows down in phases of tens of seconds; slicing the
    # window over several processes spreads it across the whole run, and
    # scaling by the calibration loop takes out what remains.
    count = WORKLOADS[args.workload].processes
    children = [_spawn(args, "warm", args.seconds / count, False, deadline,
                       slot) for slot in range(count)]
    scaled = [_scaled(child) for child in children]
    values = _timings(scaled)
    values["peak_rss_mb"] = max(c["peak_rss_mb"] for c in children)
    metrics = {name: (value, END_TO_END_UNITS[name])
               for name, value in values.items()}
    p90 = values["op_p90_ms"] / 1000
    latencies = [x for child in scaled for x in child["warm_latencies"]]
    details = {
        "samples": {
            "warm_ops": len(latencies),
            "beyond_p90": sum(1 for x in latencies if x > p90),
            "setup_and_first_op": len(children),
        },
        "host_speed": statistics.median(
            x for child in scaled for x in child["scales"]),
        "unscaled": _timings(children),
        "machine": children[0]["machine"],
    }
    return children, metrics, details, children[0]["reference_problems"]


def _per_layer(args, deadline: float):
    from layers import derive
    traced = _spawn(args, "warm", args.seconds, True, deadline)
    repeat = _spawn(args, "exact", 0.0, True, deadline)
    on = [latency for latency, flag
          in zip(traced["warm_latencies"], traced["warm_traced"]) if flag]
    off = [latency for latency, flag
           in zip(traced["warm_latencies"], traced["warm_traced"]) if not flag]
    metrics, absent = derive(traced["trace"], len(on), traced["exact"])
    plain, wrapped = len(off) / sum(off), len(on) / sum(on)
    metrics["trace.untraced_ops_per_s"] = (plain, "1/s")
    metrics["trace.traced_ops_per_s"] = (wrapped, "1/s")
    metrics["trace.overhead_pct"] = (100 * (plain / wrapped - 1), "%")
    problems = list(traced["reference_problems"])
    if traced["exact"] != repeat["exact"]:
        problems.append(f"exact counts differ between two same-seed "
                        f"processes: {traced['exact']} vs {repeat['exact']}")
    details = {
        "samples": {"traced_warm_ops": len(on), "untraced_warm_ops": len(off)},
        "machine": traced["machine"],
        "exact_counts": traced["exact"],
        "absent": absent,
        "spans": {key: traced["trace"][key]
                  for key in ("spans", "dropped_spans")},
        "spans_file": traced["spans_file"],
    }
    return [traced, repeat], metrics, details, problems


def _declared_names(trace: int) -> Tuple[str, ...]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return tuple(m["name"] for m in spec["per_layer" if trace
                                         else "end_to_end"])


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if args.child:
        from child import main as child_main
        return child_main(args)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')}"
              f" is missing; run from a source checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    measure = _per_layer if args.trace else _end_to_end
    try:
        children, metrics, details, problems = measure(args, deadline)
    except ChildFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    declared = set(_declared_names(args.trace))
    missing = declared - set(metrics) - set(details.get("absent", {}))
    undeclared = set(metrics) - declared
    if missing or undeclared:
        print(f"metrics disagree with BENCHMARK.json: missing "
              f"{sorted(missing)}, undeclared {sorted(undeclared)}",
              file=sys.stderr)
        return 1

    failures = [f for child in children for f in child["failures"]]
    attempted = sum(child["attempted"] for child in children)
    details.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "why": WORKLOADS[args.workload].why,
        "error_rate": len(failures) / attempted,
        "failures": failures, "check_problems": problems,
        "unmeasured": UNMEASURED,
    })
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"details": details, "result": result}, handle, indent=1)
    for problem in failures + problems:
        print(f"FAILED: {problem}")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
