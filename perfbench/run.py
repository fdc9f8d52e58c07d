"""Run the csalg benchmark: one command, any subset of the four workloads.

    python3 perfbench/run.py --workload centroid --seed 1 --seconds 15 --trace 0

``--workload`` takes one name, a comma-separated list, or ``all``.  One
workload runs in this process; several run one after another, each in a
child ``run.py`` of its own, so that no workload's memory peak or state
shows in another's figures.  Run from the root of a checkout: the
program is imported from ``src``.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give every metric by name with its
unit, and the machine the run was made on.
See ``perfbench/README.md``.
"""

import argparse
import contextlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
from time import perf_counter

import hostspeed
import workloads
from workloads import SRC, run_child

#: Child processes started to time set-up; the median is reported.
SETUP_SAMPLES = 15

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99, 95, 90, 80, 75)

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")


def machine_facts():
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "cpu": cpu or platform.processor() or platform.machine(),
            "loadavg_start": [round(x, 2) for x in os.getloadavg()]}


def worker_json(*args):
    _, code, out, err, _ = run_child([sys.executable, WORKER]
                                     + [str(a) for a in args])
    if code != 0:
        raise RuntimeError("worker %s failed:\n%s" % (args, err))
    return json.loads(out.strip().splitlines()[-1])


def checked_child(args):
    wall, code, _, err, _ = run_child(args)
    if code != 0:
        raise RuntimeError("%s failed:\n%s" % (args, err))
    return wall


def prewarm():
    """Fill ``__pycache__`` so child processes time start-up, not compiling."""
    checked_child([sys.executable, "-m", "compileall", "-q", SRC])


def wall_median(args, samples=SETUP_SAMPLES):
    return statistics.median(checked_child(args) for _ in range(samples))


def setup_seconds(name):
    """Median set-up time over fresh child interpreters, raw and scaled.

    Each sample is scaled by the host speed probed just before and just
    after its child.
    """
    raw, scaled = [], []
    before = hostspeed.spot()
    for _ in range(SETUP_SAMPLES):
        if name == "cli":
            wall = checked_child([sys.executable, "-c", "import csalg.cli"])
        else:
            wall = worker_json("setup", name)["setup_s"]
        after = hostspeed.spot()
        raw.append(wall)
        scaled.append(wall * hostspeed.REFERENCE_S * 2 / (before + after))
        before = after
    return statistics.median(raw), statistics.median(scaled)


def tail(latencies):
    """(percentile, value, samples beyond) of the highest usable tail."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    return None


def peak_rss_mb(state):
    """This process's peak; for ``cli``, the highest of its job children."""
    if state.name == "cli":
        return state.child_peak_mb
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- untraced run: end-to-end metrics ----------------------------------------


def timed_run(name, seed, seconds):
    setup_raw, setup_s = setup_seconds(name)
    state = workloads.setup(name)
    rng = random.Random(seed)
    spans, failures = [], []
    # In-process jobs are probed by a timer; a cli job waits on its child,
    # so the host is probed between jobs instead.
    in_process = name != "cli"
    probe = hostspeed.Probe()
    with probe if in_process else contextlib.nullcontext():
        before = None if in_process else hostspeed.spot()
        start = perf_counter()
        while True:
            for label, fn in workloads.cycle(state, rng):
                t0 = perf_counter()
                ok, digest = workloads.run_job(fn)
                t1 = perf_counter()
                if in_process:
                    spans.append((t0, t1, None))
                else:
                    after = hostspeed.spot()
                    spans.append((t0, t1, (before + after) / 2))
                    before = after
                if not ok:
                    failures.append("%s: %s" % (label, digest))
            if perf_counter() - start >= seconds:
                break
        elapsed = perf_counter() - start
    latencies, scaled = [], []
    for t0, t1, k in spans:
        wall = t1 - t0
        if in_process:
            wall -= probe.overhead(t0, t1)
            k = probe.speed(t0, t1) or probe.mean_speed()
        latencies.append(wall)
        scaled.append(wall * hostspeed.REFERENCE_S / k)
    speed = statistics.mean(
        probe.kernel_s if in_process else [k for _, _, k in spans])
    attempted, failed = len(spans), len(failures)
    metrics = {
        "jobs_per_s": ((attempted - failed) / sum(scaled), "1/s"),
        "job_p50_ms": (statistics.median(scaled) * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb(state), "MB"),
        "setup_s": (setup_s, "s"),
    }
    raw = {"jobs_per_s": (attempted - failed) / elapsed,
           "job_p50_ms": statistics.median(latencies) * 1000,
           "peak_rss_mb": metrics["peak_rss_mb"][0],
           "setup_s": setup_raw}
    report = ["workload %s: %d jobs in %.2f s, %d cycles, closed loop; "
              "host probe %.1f us (reference %.1f us)"
              % (name, attempted, elapsed, state.cycle_index,
                 speed * 1e6, hostspeed.REFERENCE_S * 1e6),
              "  %-12s %-24s %s" % ("metric", "scaled to reference",
                                    "as measured")]
    for key, (value, unit) in metrics.items():
        report.append("  %-12s %-24s %.6g %s" % (
            key, "%.6g %s" % (value, unit), raw[key], unit))
    got = tail(scaled)
    if got is None:
        report.append("  job_tail_ms  omitted: %d jobs, too few for a "
                      "percentile with 10 samples beyond it" % attempted)
    else:
        p, value, beyond = got
        report.append("  job_tail_ms  %.6g ms  (scaled; p%s, %d of %d "
                      "samples beyond)" % (value * 1000, p, beyond, attempted))
    report.append("  error_rate   %.6g  (%d of %d jobs failed)"
                  % (failed / attempted, failed, attempted))
    report.extend("  FAILED %s" % f for f in failures[:10])
    return attempted, failed, metrics, report


# -- traced run: per-layer metrics -------------------------------------------


def traced_run(name, seed):
    """One fixed cycle untraced and then traced, each in a fresh child."""
    import tracer as tracing
    tracer = tracing.Tracer()
    extra = {}
    if name == "cli":
        plain_wall = traced_wall = 0.0
        plain, traced = [], []
        for argv, want in workloads.CLI_COMMANDS:
            wall, code, out, _, _ = run_child(workloads.cli_command(argv))
            plain_wall += wall
            plain.append((workloads.cli_verdict(want, code, out), out))
            wall, code, out, err, _ = run_child(
                [sys.executable, WORKER, "cli"] + argv)
            traced_wall += wall
            traced.append((workloads.cli_verdict(want, code, out), out))
            tracer.merge(json.loads(err.strip().splitlines()[-1]))
        floor = wall_median([sys.executable, "-c", "pass"])
        extra["cli.interpreter_s"] = (floor, "s")
        extra["cli.import_s"] = (
            wall_median([sys.executable, "-c", "import csalg.cli"]) - floor,
            "s")
    else:
        plain_out = worker_json("fixed", name, seed, 0)
        traced_out = worker_json("fixed", name, seed, 1)
        plain_wall, traced_wall = plain_out["wall_s"], traced_out["wall_s"]
        plain = list(zip(plain_out["ok"], plain_out["digests"]))
        traced = list(zip(traced_out["ok"], traced_out["digests"]))
        tracer.merge(traced_out["trace"])
        extra["cli.interpreter_s"] = (0.0, "s")
        extra["cli.import_s"] = (0.0, "s")
    extra["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")

    metrics = {}
    for metric, unit, read, _ in tracing.LAYER_METRICS:
        metrics[metric] = (read(tracer), unit)
    metrics.update(extra)
    failed = sum(1 for ok, _ in traced if not ok)
    failed += sum(1 for ok, _ in plain if not ok)
    same = [p[1] for p in plain] == [t[1] for t in traced]
    report = ["workload %s (traced): one fixed cycle of %d jobs, run plain "
              "and traced" % (name, len(traced))]
    for key, (value, unit) in metrics.items():
        report.append("  %-34s %.6g %s" % (key, value, unit))
    report.append("  traced outputs equal untraced outputs: %s" % same)
    return len(plain) + len(traced), failed, metrics, report, same


# -- entry point --------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload, a comma-separated list, or all "
                             "(%s)" % ", ".join(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else args.workload.split(","))
    for name in names:
        if name not in workloads.WORKLOADS:
            parser.error("unknown workload %r" % name)
    return args, names


def run_each(args, names):
    """Run each workload in a child ``run.py`` and merge their results."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", args.seed, "--seconds", args.seconds,
                "--trace", args.trace]
        _, code, out, err, _ = run_child([str(a) for a in argv], timeout=None)
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            print(out + err, file=sys.stderr)
            return code or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for key, value in result["metrics"].items():
            metrics["%s.%s" % (name, key)] = value
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    args, names = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "csalg", "__init__.py")):
        print("error: no csalg sources under %s; run from the root of a "
              "checkout" % SRC, file=sys.stderr)
        return 2
    if len(names) > 1:
        return run_each(args, names)
    (name,) = names
    sys.path.insert(0, SRC)
    print("machine: %s" % json.dumps(machine_facts()))
    print("seed %d, %s s, trace %d" % (args.seed, args.seconds, args.trace))
    prewarm()
    if args.trace:
        attempted, failed, got, report, same = traced_run(name, args.seed)
    else:
        attempted, failed, got, report = timed_run(name, args.seed,
                                                   args.seconds)
        same = True
    print("\n".join(report))
    metrics = {key: {"value": value, "unit": unit}
               for key, (value, unit) in got.items()}
    print(json.dumps({"correct": same and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
