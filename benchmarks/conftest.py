"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper and prints the
paper-reported values next to the measured ones.  Set ``REPRO_FULL=1`` to run
the full-size sweeps (the defaults are trimmed so the whole harness completes
in a few minutes on a laptop); EXPERIMENTS.md records a full run.

Set ``REPRO_RECORD_FIGURES=1`` (the scheduled CI ``figures`` job does) to
write ``FIGURES_RUN.json`` — one outcome/duration record per figure, table
and ablation test — which the workflow uploads as the paper-reproduction
regression artifact.
"""

import json
import os
import sys
import time

import pytest

# The per-shot reference implementations live in tests/reference/, shared
# by the tier-1 tests and the throughput gates here.
sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, "tests"))

FIGURES_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "FIGURES_RUN.json")

_figure_records = []


def pytest_runtest_logreport(report):
    if os.environ.get("REPRO_RECORD_FIGURES") and report.when == "call":
        _figure_records.append({
            "test": report.nodeid,
            "outcome": report.outcome,
            "duration_seconds": round(report.duration, 3),
        })


def pytest_sessionfinish(session, exitstatus):
    if os.environ.get("REPRO_RECORD_FIGURES") and _figure_records:
        record = {
            "recorded_at_unix": int(time.time()),
            "full_mode": full_mode(),
            "exit_status": int(exitstatus),
            "tests": sorted(_figure_records, key=lambda r: r["test"]),
        }
        with open(FIGURES_JSON, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")


def full_mode() -> bool:
    """Whether the full paper-scale sweeps were requested."""
    return os.environ.get("REPRO_FULL", "0") not in ("0", "", "false", "False")


def print_table(title, header, rows):
    """Render a small ASCII table to stdout (captured with ``pytest -s``)."""
    print()
    print(f"== {title} ==")
    widths = [max(len(str(header[i])), *(len(str(row[i])) for row in rows))
              for i in range(len(header))]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    print()


@pytest.fixture
def table_printer():
    return print_table
