"""Child-process entry points of the benchmark; each prints one JSON line.

    python perfbench/worker.py setup WORKLOAD
        Time from the top of this script (a fresh interpreter) until the
        workload is ready to run jobs: ``import csalg``, parsing, fields,
        loops and morphisms.

    python perfbench/worker.py fixed WORKLOAD SEED TRACE
        Set up and run one cycle of jobs drawn from SEED, traced when
        TRACE is 1.  Prints the wall time, the job verdicts and digests,
        and, when traced, the tracer snapshot.

    python perfbench/worker.py cli ARGV...
        Run ``csalg.cli`` on ARGV under the tracer, as
        ``python -m csalg.cli ARGV...`` would, and print the tracer
        snapshot as the last line of stderr.

The caller puts ``src`` on ``PYTHONPATH``.
"""

from time import perf_counter

T0 = perf_counter()

import json  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def setup_main(name):
    workloads.setup(name)
    print(json.dumps({"setup_s": perf_counter() - T0}))


def fixed_main(name, seed, trace):
    tracer = None
    if trace:
        import csalg  # noqa: F401  (load every module before wrapping)
        import tracer as tracing
        tracer = tracing.install()
    state = workloads.setup(name)
    rng = random.Random(seed)
    verdicts, digests = [], []
    for label, fn in workloads.cycle(state, rng):
        ok, digest = workloads.run_job(fn)
        verdicts.append(ok)
        digests.append("%s: %s" % (label, digest))
    out = {"wall_s": perf_counter() - T0, "ok": verdicts, "digests": digests}
    if tracer is not None:
        out["trace"] = tracer.snapshot()
    print(json.dumps(out))


def cli_main(argv):
    import csalg.cli
    import tracer as tracing
    tracer = tracing.install()
    try:
        code = csalg.cli.main(argv)
    finally:
        sys.stdout.flush()
        print(json.dumps(tracer.snapshot()), file=sys.stderr)
    return code


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        setup_main(rest[0])
    elif mode == "fixed":
        fixed_main(rest[0], int(rest[1]), rest[2] == "1")
    elif mode == "cli":
        sys.exit(cli_main(rest))
    else:
        sys.exit("unknown mode %r" % mode)
