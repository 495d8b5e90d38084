"""Self-test of the end-to-end benchmark harness.

Not part of tier-1 (``pyproject.toml`` collects ``tests/`` only).  Run it
explicitly, ≈ 1 minute:

    python3 benchmarks/e2e/test_harness.py
    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q

It runs every workload at ``--smoke`` size, untraced and traced, each in
a child interpreter, and checks the contract between ``run.py`` and
``BENCHMARK.json``: every name is printed by every run of its kind,
every name is really measured by a workload, names are well formed, no
operation fails, and the child ends cleanly (``run_child`` raises on a
non-zero exit, which is what an unclean exit or the watchdog produce).
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys

import common
import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
SPEC = common.load_spec()

_reports: dict = {}


def report(workload: str, traced: bool) -> dict:
    key = (workload, traced)
    if key not in _reports:
        _reports[key] = run.run_child(
            workload, common.DEFAULT_SEED, SPEC["run_seconds"], traced, smoke=True
        )
    return _reports[key]


def test_spec_is_well_formed():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert 1 <= len(SPEC["per_layer"]) <= 128 and 1 <= len(SPEC["end_to_end"]) <= 16


def test_untraced_runs_print_every_end_to_end_metric():
    wanted = [m["name"] for m in SPEC["end_to_end"]]
    for workload in run.WORKLOADS:
        result = report(workload, traced=False)
        assert list(result["metrics"]) == wanted, workload
        assert result["failed"] == 0 and result["correct"], result["failures"]
        assert result["attempted"] >= 1
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, f"{workload} {name} is {metric['value']}"


def test_traced_runs_print_every_per_layer_metric():
    wanted = [m["name"] for m in SPEC["per_layer"]]
    measured = set()
    for workload in run.WORKLOADS:
        result = report(workload, traced=True)
        assert list(result["metrics"]) == wanted, workload
        assert result["failed"] == 0, result["failures"]
        measured |= set(result["measured"])
        assert result["measured"]["obs.self_time_coverage"] >= 0.9, workload
        trace = os.path.join(common.OUT_DIR, f"trace_{workload}.json")
        assert os.path.getsize(trace) > 0
    never = sorted(set(wanted) - measured)
    assert not never, f"no workload measures {never}"


def test_refuses_to_run_without_the_program():
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files there is nothing to measure: non-zero exit, no result."""
    with common.scratch_dir("bare_") as bare:
        shutil.copy(common.SPEC_PATH, bare)
        shutil.copytree(
            common.HERE, os.path.join(bare, "benchmarks", "e2e"),
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
        done = subprocess.run(
            SPEC["command"] + ["--workload", "service_short", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode != 0
        assert done.stdout == ""


if __name__ == "__main__":
    tests = [value for name, value in sorted(globals().items())
             if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    sys.exit(0)
