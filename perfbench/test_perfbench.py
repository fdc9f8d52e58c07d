"""Tests of the benchmark itself; run with ``python -m pytest -q perfbench``.

They check what the per-layer numbers rest on: the tracer reaches every
binding, each per-layer counter is nonzero on the workloads named for it,
traced runs reproduce the plain outputs and repeat their counts exactly,
a child's peak memory is its own, a wrong pinned value is reported as a
failure, and a checkout without ``src`` gives no result.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import run
import tracer
import workloads

sys.path.insert(0, workloads.SRC)

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 5


def _run(*args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py")]
                          + [str(a) for a in args], cwd=workloads.ROOT,
                          capture_output=True, text=True, timeout=900)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_twice():
    """Two traced runs of every workload: (stdout, result) of each."""
    runs = []
    for _ in range(2):
        proc = _run("--workload", "all", "--seed", SEED, "--trace", 1)
        runs.append((proc.stdout, _result(proc)))
    return runs


def test_tracer_wraps_every_binding():
    code = (
        "import csalg, csalg.cli, tracer\n"
        "from csalg import centroid, core, cyclotomic, loops\n"
        "t = tracer.install()\n"
        "assert not tracer.unwrapped_bindings(t), tracer.unwrapped_bindings(t)\n"
        "S = cyclotomic.CycloScalar\n"
        "assert S.__rmul__ is S.__mul__ and hasattr(S.__mul__, '__wrapped__')\n"
        "for f in (centroid.lambda_bracket, centroid.to_hat_basis,\n"
        "          centroid.apply_partial_power, centroid.det,\n"
        "          centroid.adjugate, loops.lambda_bracket,\n"
        "          csalg.cli.check_axioms, csalg.lambda_bracket):\n"
        "    assert hasattr(f, '__wrapped__'), f\n"
        "assert centroid.lambda_bracket is core.lambda_bracket\n"
    )
    env = workloads.child_env()
    env["PYTHONPATH"] = os.pathsep.join([workloads.SRC, HERE])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_every_layer_counter_is_nonzero_where_listed(traced_twice):
    (stdout, result), _ = traced_twice
    assert result["correct"] and result["failed"] == 0
    assert stdout.count("traced outputs equal untraced outputs: True") \
        == len(workloads.WORKLOADS)
    metrics = result["metrics"]
    names = [m[0] for m in tracer.LAYER_METRICS]
    for name, _, _, where in tracer.LAYER_METRICS:
        for workload in where:
            assert metrics["%s.%s" % (workload, name)]["value"] > 0, \
                (workload, name)
    for name in ("cli.interpreter_s", "cli.import_s"):
        assert metrics["cli." + name]["value"] > 0
    for workload in workloads.WORKLOADS:
        assert metrics[workload + ".trace.overhead_ratio"]["value"] > 0
        for name in names:
            assert "%s.%s" % (workload, name) in metrics


def test_traced_counts_repeat_exactly(traced_twice):
    (_, first), (_, second) = traced_twice
    counts = [k for k, v in first["metrics"].items() if v["unit"] == "count"]
    assert counts
    for key in counts:
        assert first["metrics"][key] == second["metrics"][key], key


def test_child_peak_memory_is_its_own():
    big = "x = bytearray(64 << 20); x[::4096] = b'1' * len(x[::4096])"
    peaks = []
    for code in (big, "pass"):
        _, status, _, err, peak_mb = workloads.run_child(
            [sys.executable, "-c", code])
        assert status == 0, err
        peaks.append(peak_mb)
    assert peaks[0] > 64 > peaks[1]


def test_wrong_pinned_value_is_a_failure(monkeypatch):
    state = workloads.setup("modes")
    _, loop, _ = state.loops[0]
    ok, _ = workloads._spectrum_job(loop, "odd", {Fraction(1, 3)})
    assert not ok
    ok, _ = workloads._spectrum_job(loop, "odd", {Fraction(1, 2)})
    assert ok

    monkeypatch.setattr(workloads, "CLI_COMMANDS",
                        [(["bracket", "n2.csa", "G+", "G-", "--n", "1"],
                          "L\n")])
    attempted, failed, _, report = run.timed_run("cli", SEED, 0)
    assert attempted >= 1 and failed == attempted
    assert any("FAILED" in line for line in report)


def test_bare_benchmark_directory_gives_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(workloads.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "modes", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
