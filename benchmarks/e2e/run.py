#!/usr/bin/env python3
"""The repository's end-to-end benchmark (see README.md beside this file).

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this process and prints, as the last line of its
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding every ``end_to_end`` metric of ``BENCHMARK.json``
(``--trace 0``) or every ``per_layer`` metric (``--trace 1``).

Without ``--workload`` it runs every workload, untraced and then traced,
each in a child interpreter of its own (so ``peak_rss_mb`` is a
workload's own), and prints all of them; ``--calibrate N`` repeats the
untraced set N times over N seeds and writes the spread of every
end-to-end metric to ``calibration.json``.

The process ends with no thread and no child process alive, or it says
so and exits non-zero; a watchdog makes a hang a non-zero exit too.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import multiprocessing
import os
import signal
import statistics
import subprocess
import sys
import threading

import common
from common import DEFAULT_SEED, OUT_DIR, RunContext

#: a single workload must end well inside the driver's 180 s
WORKLOAD_WATCHDOG_S = 170
#: what a child interpreter gets before its process group is killed
CHILD_TIMEOUT_S = 175

WORKLOADS = {
    "power_store_sf01": "power_store",
    "full_run_mem_sf001": "full_run_mem",
    "service_short": "service_short",
    "maintenance_store_sf01": "maintenance_store",
}


def parse_args(argv):
    spec = common.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="sf 0.004, one unit of work, 1 s phases")
    parser.add_argument("--out", help="also write the full report to this JSON file")
    parser.add_argument("--calibrate", type=int, metavar="N",
                        help="run N untraced sets and write calibration.json")
    parser.add_argument("--write-digests", action="store_true",
                        help="pin this run's answers in expected_digests.json")
    args = parser.parse_args(argv)
    args.traced = args.traced or bool(args.trace)
    args.spec = spec
    return args


# -- one workload, in this process -------------------------------------------


def run_workload(args) -> dict:
    """Run ``args.workload``; returns the full report (the last-line
    object plus every metric measured, the failures and the layer table)."""
    import importlib

    from repro.obs import Tracer

    import probe

    spec = args.spec
    name = args.workload
    pinned = args.seed == DEFAULT_SEED and not args.smoke
    if args.write_digests and (not pinned or args.seconds != spec["run_seconds"]):
        raise SystemExit("--write-digests needs the default seed and size")

    tracer = Tracer(enabled=args.traced)
    ctx = RunContext(args.seed, args.seconds, tracer, smoke=args.smoke)
    workload = importlib.import_module(WORKLOADS[name])
    with tracer.span("harness.workload", workload=name):
        workload.run(ctx)

    if args.write_digests:
        common.write_pins(name, ctx.digests)
    elif pinned:
        pins = common.load_pins(name)
        for key, answer in ctx.digests.items():
            if key in pins and pins[key] != answer:
                ctx.failed += 1
                ctx.failures.append(f"{key}: {answer} is not the pinned {pins[key]}")
    ctx.emit("obs.failed_frac", ctx.failed / max(ctx.attempted, 1))

    reference = os.path.join(OUT_DIR, f"untraced_{name}.json")
    settings = {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke}
    layers = {}
    if args.traced:
        spans = probe.finish_spans(tracer)
        for span in spans:
            layers[span["name"]] = layers.get(span["name"], 0.0) + span["self_s"]
        wall = sum(s["elapsed"] for s in spans if s["name"] == "harness.workload")
        checking = layers.get("harness.verify", 0.0)
        unattributed = layers.get("harness.workload", 0.0) + layers.get("harness.setup", 0.0)
        ctx.emit("obs.self_time_coverage", 1.0 - unattributed / (wall - checking))
        ctx.emit("obs.spans", len(spans))
        ctx.emit("obs.trace_overhead_frac", trace_overhead(ctx, reference, settings))
        probe.write_trace(
            os.path.join(OUT_DIR, f"trace_{name}.json"), name, spans, ctx.requests,
        )
    else:
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(reference, "w", encoding="utf-8") as handle:
            json.dump({**settings, "unit_wall_s": ctx.metrics["unit_wall_s"]}, handle)

    measured = ctx.all_metrics()
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(measured) - known)
    if unknown:
        raise SystemExit(f"metrics not in BENCHMARK.json: {unknown}")
    missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in measured]
    if missing:
        raise SystemExit(f"{name} did not measure {missing}")
    wanted = spec["per_layer" if args.traced else "end_to_end"]
    # a layer this workload does not exercise did no work: it reads 0
    metrics = {
        m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
        for m in wanted
    }
    return {
        "workload": name,
        **settings,
        "traced": args.traced,
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
        "measured": measured,
        "failures": ctx.failures,
        "layers_self_s": layers,
    }


def trace_overhead(ctx, reference: str, settings: dict) -> float:
    """Traced ÷ untraced ``unit_wall_s`` − 1, against the untraced run of
    the same workload, seed and size that last ran in this checkout; 0
    when there is none to compare with."""
    try:
        with open(reference, encoding="utf-8") as handle:
            untraced = json.load(handle)
    except (OSError, ValueError):
        return 0.0
    if any(untraced.get(key) != value for key, value in settings.items()):
        return 0.0
    return ctx.metrics["unit_wall_s"] / untraced["unit_wall_s"] - 1.0


def print_report(report: dict) -> None:
    mode = "traced" if report["traced"] else "untraced"
    print(f"== {report['workload']} ({mode}, seed {report['seed']}, "
          f"{report['seconds']:g} s): {report['attempted']} operations, "
          f"{report['failed']} failed")
    for name, metric in report["metrics"].items():
        print(f"  {name:<48s} {metric['value']:>16.6f} {metric['unit']}")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    if report["layers_self_s"]:
        print("  self time by span:")
        ranked = sorted(report["layers_self_s"].items(), key=lambda kv: -kv[1])
        for name, seconds in ranked:
            print(f"    {name:<46s} {seconds:>16.6f} s")


def assert_clean_exit() -> None:
    threads = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
    children = multiprocessing.active_children()
    if threads or children:
        sys.stdout.flush()
        print(f"unclean exit: threads {threads}, child processes {children}",
              file=sys.stderr)
        os._exit(4)


# -- every workload, each in a child interpreter -----------------------------


def run_child(workload: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    """One workload in a fresh interpreter.  The child leads a process
    group of its own; the group is killed if the child outlives
    ``CHILD_TIMEOUT_S``, and the child is always waited for."""
    out = os.path.join(OUT_DIR, f"report_{workload}_{int(traced)}.json")
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(traced)), "--out", out,
    ]
    if smoke:
        command.append("--smoke")
    child = subprocess.Popen(command, stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    if code != 0:
        raise SystemExit(f"{workload} (traced={traced}) ended with {code}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def run_all(args) -> dict:
    reports = []
    for workload in WORKLOADS:
        for traced in (False, True):
            report = run_child(workload, args.seed, args.seconds, traced, args.smoke)
            print_report(report)
            reports.append(report)
    return {"reports": reports}


def calibrate(args) -> dict:
    """N untraced sets over N seeds: per workload and end-to-end metric
    the median, the quartiles, and their distance as a share of the
    median — what each ``bound`` in ``BENCHMARK.json`` is set from."""
    if args.calibrate < 5:
        raise SystemExit("--calibrate needs at least 5 sets")
    summary = {}
    for workload in WORKLOADS:
        runs = [
            run_child(workload, args.seed + i, args.seconds, False, args.smoke)
            for i in range(args.calibrate)
        ]
        summary[workload] = {}
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2
            summary[workload][name] = {
                "values": values, "median": q2, "q1": q1, "q3": q3, "spread": spread,
            }
            print(f"{workload:<24s} {name:<20s} median {q2:>12.4f} "
                  f"spread {100 * spread:6.2f} %")
        summary[workload]["failed"] = sum(run["failed"] for run in runs)
    report = {"sets": args.calibrate, "first_seed": args.seed,
              "seconds": args.seconds, "workloads": summary}
    with open(os.path.join(common.HERE, "calibration.json"), "w",
              encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    return report


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(common.SRC, "repro")):
        print(f"no program to measure: {common.SRC}/repro is missing", file=sys.stderr)
        return 2
    args = parse_args(argv)
    if args.workload:
        faulthandler.dump_traceback_later(WORKLOAD_WATCHDOG_S, exit=True)
        report = run_workload(args)
        print_report(report)
    else:
        report = calibrate(args) if args.calibrate else run_all(args)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    faulthandler.cancel_dump_traceback_later()
    assert_clean_exit()
    if args.workload:
        print(json.dumps({k: report[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
