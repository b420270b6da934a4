"""Smoke self-test of the benchmark harness.

Run from the repository root::

    python3 perfbench/selftest.py

It checks the span and percentile arithmetic on hand-made inputs, runs every
workload end to end for the fewest ops a phase allows (``--seconds 0``:
``run.MIN_OPS`` ops, rounded up to whole op cycles) and the traced mode on
``sweep``, checks each result line against ``BENCHMARK.json``, and checks
that the command fails cleanly where the program's sources are missing.
Takes about two minutes on a 2-CPU machine; exits non-zero on the first
failure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import HASH_SEED, Op, Verdict  # noqa: E402


def check_self_times() -> None:
    spans = [tracing.Span(1, "op", 0.0, 10.0, None, 0),
             tracing.Span(2, "execution.executor.run", 1.0, 9.0, 1, 0),
             tracing.Span(3, "simulators.kernels.k", 2.0, 4.0, 2, 0),
             # two overlapping children on other threads count once
             tracing.Span(4, "qec.decoders.decode", 3.0, 6.0, 2, 0),
             tracing.Span(5, "qec.decoders.decode", 5.0, 7.0, 2, 0)]
    own = tracing.self_times(spans)
    assert own == {1: 2.0, 2: 3.0, 3: 2.0, 4: 3.0, 5: 2.0}, own
    assert spans[1].layer == "execution.executor"


def check_trace_overhead() -> None:
    tracer = tracing.Tracer()
    tracer.spans = [None] * 1000
    tracer.counters["trace.hook_s"] = 0.5
    # 10 s traced, of which 1000 spans x 1 ms + 0.5 s of hooks is tracing.
    assert tracing.trace_overhead(tracer, 10.0, 1e-3) == 10.0 / 8.5


def check_latency_summary() -> None:
    phase = run.Phase()
    phase.elapsed = 100.0
    for i in range(40):
        status = "failed" if i == 0 else "ok"
        phase.records.append((Op("k", i, None, 1), i / 1000.0,
                              Verdict(status)))
    summary = run.latency_summary(phase)
    # 39 successes at 1..39 ms; the failure counts as the whole phase.
    assert summary["samples"] == 40
    assert summary["samples_beyond_tail"] == 10
    assert summary["tail_percentile"] == 75.0
    assert summary["op_tail_ms"] == 30.0, summary
    assert summary["op_p50_ms"] == 20.5, summary


def run_benchmark(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_result_line(stdout: str, expected: list) -> dict:
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["problems"]
    assert record["signature"]["python_hash_seed"] == HASH_SEED
    assert result["attempted"] >= 1
    names = [metric["name"] for metric in expected]
    assert list(result["metrics"]) == names, list(result["metrics"])
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"], (metric, reported)
        assert isinstance(reported["value"], (int, float))
    return result


def main() -> int:
    check_self_times()
    check_trace_overhead()
    check_latency_summary()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = sorted(spec["end_to_end"],
                        key=lambda m: list(run.END_TO_END_UNITS).index(
                            m["name"]))
    for workload in spec["workloads"]:
        done = run_benchmark(ROOT, "--workload", workload["name"],
                             "--seed", "0", "--seconds", "0", "--trace", "0")
        assert done.returncode == 0, done.stderr
        result = check_result_line(done.stdout, end_to_end)
        probes = json.loads(done.stdout.strip().splitlines()[-2])[
            "record"]["probes"]
        print(f"{workload['name']}: {result['attempted']} ops ok",
              json.dumps(probes) if probes else "")
    per_layer = sorted(spec["per_layer"],
                       key=lambda m: list(tracing.PER_LAYER_UNITS).index(
                           m["name"]))
    done = run_benchmark(ROOT, "--workload", "sweep", "--seed", "0",
                         "--seconds", "0", "--trace", "1")
    assert done.returncode == 0, done.stderr
    check_result_line(done.stdout, per_layer)
    print("sweep traced: ok")

    bare = ROOT / ".perfbench_tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run_benchmark(bare, "--workload", "sweep", "--seed", "0",
                             "--seconds", "1", "--trace", "0")
        assert done.returncode != 0 and not done.stdout.strip(), done
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("without sources: fails cleanly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
