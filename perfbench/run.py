"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 18 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
closed loop traced and prints the per-layer metrics (see README.md).  The
script first re-executes itself in place under a fixed ``PYTHONHASHSEED``
(see ``workloads.HASH_SEED``).  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the full record (machine signature, seed, sample counts, per-kind
latencies, failures), which is also written under ``.perfbench_out/``.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = Path(".perfbench_out")
#: Set-up is measured this many times per run (once here, the rest in
#: fresh child processes) and reported as the median.
SETUP_SAMPLES = 3
#: ``op_tail_ms`` is the highest percentile with this many samples beyond.
TAIL_BEYOND = 10
#: A timed phase runs at least this many ops, so its tail is not below its
#: median even when a slow machine fits one op cycle into ``--seconds``.
MIN_OPS = 2 * TAIL_BEYOND + 1

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "items_per_s": "1/s",
                    "op_p50_ms": "ms", "op_tail_ms": "ms", "cpu_s": "s",
                    "peak_rss_mb": "MB"}


def isolate_environment() -> None:
    """Clear every ``REPRO_*`` variable so no run inherits a disk cache,
    worker count, broker spool or service setting."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# signature and resources
# ---------------------------------------------------------------------------


def machine_signature() -> dict:
    import numpy as np
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
            "git_commit": git_commit(),
            "source_sha256": source_digest()}


def git_commit():
    """HEAD's commit when the checkout is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        value = head.read_text().strip()
        if value.startswith("ref: "):
            return (ROOT / ".git" / value[5:]).read_text().strip()
        return value
    except OSError:
        return None


def source_digest() -> str:
    """SHA-256 over ``src/``'s Python files: the code under measurement."""
    hasher = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        hasher.update(str(path.relative_to(ROOT)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Phase:
    """The ops of one timed phase and what they returned."""

    def __init__(self):
        self.records = []  # (op, latency_s, verdict)
        self.outputs = []
        self.elapsed = 0.0

    @property
    def attempted(self) -> int:
        return len(self.records)

    def count(self, status: str) -> int:
        return sum(verdict.status == status for _, _, verdict in self.records)

    @property
    def failed(self) -> int:
        return self.count("failed") + self.count("mismatch")


def run_op(workload, op, runner):
    """Run and check one op; an exception is a failed op, never a crash."""
    from workloads import Verdict
    start = time.perf_counter()
    try:
        output = runner(op)
    except Exception:  # noqa: BLE001 - the loop reports and keeps going
        latency = time.perf_counter() - start
        lines = traceback.format_exc().strip().splitlines()
        return latency, None, Verdict("failed", lines[-1])
    latency = time.perf_counter() - start
    return latency, output, workload.check(op, output)


def timed_phase(workload, seconds: float, runner=None) -> Phase:
    """Closed loop over whole op cycles until ``seconds`` have passed and
    at least :data:`MIN_OPS` ops have run."""
    runner = runner or workload.run
    phase = Phase()
    start = time.perf_counter()
    while True:
        for kind in workload.cycle:
            op = workload.next_op(kind)
            latency, output, verdict = run_op(workload, op, runner)
            phase.records.append((op, latency, verdict))
            phase.outputs.append(output)
        if (time.perf_counter() - start >= seconds
                and phase.attempted >= MIN_OPS):
            break
    phase.elapsed = time.perf_counter() - start
    return phase


def latency_summary(phase: Phase) -> dict:
    """Median and tail latency.

    An op that did not complete (an exception or a failed job) counts as
    lasting the whole phase; an op whose output failed its reference check
    counts with the time it took.
    """
    latencies = sorted(phase.elapsed if verdict.status == "failed"
                       else latency
                       for _, latency, verdict in phase.records)
    n = len(latencies)
    tail_index = n - TAIL_BEYOND - 1  # n >= MIN_OPS
    return {"op_p50_ms": 1e3 * statistics.median(latencies),
            "op_tail_ms": 1e3 * latencies[tail_index],
            "samples": n,
            "tail_percentile": 100.0 * (tail_index + 1) / n,
            "samples_beyond_tail": n - tail_index - 1}


def phase_rates(phase: Phase) -> dict:
    done = [(op, verdict) for op, _, verdict in phase.records
            if verdict.status in ("ok", "unverified")]
    return {"ops_per_s": len(done) / phase.elapsed,
            "items_per_s": sum(op.items for op, _ in done) / phase.elapsed}


def per_kind(phase: Phase) -> dict:
    kinds = {}
    for op, latency, verdict in phase.records:
        entry = kinds.setdefault(op.kind, {"ops": 0, "failed": 0,
                                           "latencies_ms": []})
        entry["ops"] += 1
        entry["failed"] += verdict.status in ("failed", "mismatch")
        entry["latencies_ms"].append(1e3 * latency)
    return {kind: {"ops": entry["ops"], "failed": entry["failed"],
                   "p50_ms": statistics.median(entry["latencies_ms"])}
            for kind, entry in kinds.items()}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def load_workload(name: str, seed: int):
    """Import the program and the workload; returns ``(workload, refs)``."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np
    from workloads import WORKLOADS
    if name not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r} "
                         f"(expected one of {sorted(WORKLOADS)})")
    with np.load(HERE / "references.npz") as archive:
        references = dict(archive)
    return WORKLOADS[name](seed, references), references


def set_up(workload, references):
    """Everything before the timed phase, ending with one warm-up op.

    Returns the warm-up verdict, or the first catalogue/set-up mismatch.
    """
    from workloads import Verdict
    workload.setup()
    for key, digest in workload.catalogue_digest().items():
        if str(references["digest." + key]) != digest:
            return Verdict("mismatch", f"catalogue {key} differs from the "
                                       f"one the references were recorded "
                                       f"for")
    verdict = workload.setup_verdict()
    if verdict.status != "ok":
        return verdict
    _, _, verdict = run_op(workload, workload.next_op(workload.cycle[0]),
                           workload.run)
    return verdict


def setup_samples(args) -> list:
    """Set-up times of fresh child processes running only the set-up."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(child.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def traced_phase(workload, seconds: float):
    """One traced phase: ``(phase, tracer, counters before/after, rows,
    span cost)``."""
    import itertools
    import tracing
    span_cost = tracing.span_cost_s()
    tracer = tracing.Tracer()
    op_ids = itertools.count()
    executors = workload.executors()
    patch = tracing.instrument(tracer)
    try:
        before = tracing.program_counters(executors)
        phase = timed_phase(workload, seconds, runner=lambda op: tracer.run_op(
            next(op_ids), workload.run, op))
        after = tracing.program_counters(executors)
    finally:
        patch.remove()
    rows = []
    for (op, latency, _), output in zip(phase.records, phase.outputs):
        row = workload.service_row(op, output) if output is not None else None
        if row is not None:
            rows.append(dict(row, round_trip_s=latency))
    return phase, tracer, before, after, rows, span_cost


def write_spans(path: Path, tracer) -> None:
    with path.open("w") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span.__dict__) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    isolate_environment()
    from workloads import pin_hash_seed
    pin_hash_seed()
    workload, references = load_workload(args.workload, args.seed)
    from repro.execution.sharding import shutdown_process_pool
    try:
        warmup = set_up(workload, references)
        setup_s = time.perf_counter() - _PROCESS_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        cpu_start = cpu_seconds()
        traced = (traced_phase(workload, args.seconds) if args.trace
                  else None)
        phase = traced[0] if traced else timed_phase(workload, args.seconds)
    finally:
        workload.close()
        shutdown_process_pool()
    cpu_s = cpu_seconds() - cpu_start
    rss_mb = peak_rss_mb()

    attempted, failed = phase.attempted, phase.failed
    correct = (warmup.status in ("ok", "failed", "unverified")
               and not phase.count("mismatch"))
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "signature": machine_signature(),
              "item": workload.item, "cycle": list(workload.cycle),
              "elapsed_s": phase.elapsed, "attempted": attempted,
              "failed": failed, "failed_frac": failed / attempted,
              "cpu_s_total": cpu_s,
              "verdicts": {status: phase.count(status)
                           for status in ("ok", "failed", "mismatch",
                                          "unverified")},
              "warmup": warmup.__dict__,
              "problems": sorted({verdict.detail
                                  for _, _, verdict in phase.records
                                  if verdict.status != "ok"})[:20],
              "per_kind": per_kind(phase),
              "probes": workload.probes()}
    latency = latency_summary(phase)
    record["latency"] = latency
    if traced:
        import tracing
        _, tracer, before, after, rows, span_cost = traced
        metrics, self_by_layer = tracing.layer_metrics(
            tracer, phase.attempted, before, after, rows,
            tracing.trace_overhead(tracer, phase.elapsed, span_cost))
        units = tracing.PER_LAYER_UNITS
        record["span_cost_us"] = 1e6 * span_cost
        record["layer_self_s"] = self_by_layer
        record["largest_self_layer"] = max(self_by_layer,
                                           key=self_by_layer.get,
                                           default=None)
        record["kraus_per_run_source"] = "computed from compiled programs"
    else:
        setups = [setup_s] + setup_samples(args)
        record["setup_samples_s"] = setups
        # The phase overruns ``--seconds`` to end on a whole op cycle, by
        # up to one cycle; CPU time is scaled back to ``--seconds``.
        metrics = dict(phase_rates(phase),
                       setup_s=statistics.median(setups),
                       op_p50_ms=latency["op_p50_ms"],
                       op_tail_ms=latency["op_tail_ms"],
                       cpu_s=cpu_s * args.seconds / phase.elapsed,
                       peak_rss_mb=rss_mb)
        units = END_TO_END_UNITS
    result = {"correct": bool(correct), "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    record["result"] = result
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if traced:
        write_spans(OUT_DIR / f"{stem}.spans.jsonl", traced[1])
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
