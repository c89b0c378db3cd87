"""Self-tests of the benchmark: each workload at a tiny size passes its gate
and has its negative control rejected, traced runs report every per-layer
metric, and the gate rejects forged counts and controls that pass.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import calibration
import run
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_rep(name, work, traced=False, seed=7):
    plan = workloads.make_plan(name, seed, work, size="tiny")
    workloads.write_inputs(plan)
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    return plan, run.run_rep(plan, plan_path, 1, traced, time.monotonic() + 120)


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def passing(request, tmp_path_factory):
    work = tmp_path_factory.mktemp(request.param)
    plan, rep = tiny_rep(request.param, work)
    child = json.loads((work / "rep1.json").read_text())  # with captured stdout
    return plan, rep, child


def test_workload_passes_gate_and_rejects_control(passing):
    plan, rep, _ = passing
    assert rep["problems"] == []
    assert (rep["attempted"], rep["failed"]) == (len(plan["commands"]) + 1, 0)
    assert rep["control"]["rejected"]
    assert rep["wall_s"] > 0 and rep["cpu_s"] > 0 and rep["setup_s"] > 0
    assert len(rep["calibration"]) >= calibration.MIN_SAMPLES
    assert rep["wall_rel"] > 0 and rep["cpu_rel"] > 0


def forge(command, work):
    """A passing outcome of the command with one work count off by one."""
    if command["report"] is None:
        expected = command["expect"]["strata"]
        return command, {"exit": 0, "stdout": json.dumps(
            {"strata": [{}] * (expected - 1), "parity_consistent": True,
             "matching": {"matched": expected - 1, "perfect": True}})}
    with open(command["report"]) as fh:
        report = json.load(fh)
    for check in report["checks"]:
        if "tuples_checked" in check.get("detail", {}):
            check["detail"]["tuples_checked"] += 1
        if check["id"] == "mock-pushpull":
            check["detail"]["nontrivial"] -= 1
    if command["expect"]["kind"] == "prove-signs":
        report["checks"].pop()
    forged = dict(command, report=str(work / "forged.json"))
    with open(forged["report"], "w") as fh:
        json.dump(report, fh)
    return forged, {"exit": 0}


def test_gate_rejects_forged_count(passing, tmp_path):
    plan, _, _ = passing
    for command in plan["commands"]:
        assert workloads.check_command(*forge(command, tmp_path)), command["argv"]


def test_control_that_passes_is_a_failed_operation(passing):
    plan, _, child = passing
    forged = dict(child, control={"rejected": False, "detail": "forged"})
    attempted, failed, problems = run.score(plan, forged)
    assert (attempted, failed) == (len(plan["commands"]) + 1, 1)
    assert any("negative control passed" in p for p in problems)


def test_failing_exit_code_is_a_failed_operation(passing):
    plan, _, child = passing
    forged = dict(child, outcomes=[{"exit": 1}] + child["outcomes"][1:])
    assert run.score(plan, forged)[1] == 1


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    _, rep = tiny_rep(name, tmp_path, traced=True)
    assert rep["failed"] == 0, rep["problems"]
    expected = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(rep["layers"]) | {"trace.overhead_s"} == expected
    assert all(s["end"] >= s["start"] for s in rep["spans"])
    assert rep["layers"]["span.sweeps.s"][0] > 0


def test_calibrator_samples_on_the_timer_and_restores_the_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with calibration.Calibrator() as calibrator:
        end = time.perf_counter() + 10 * calibration.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(calibrator.samples) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    wall, cpu = calibrator.spent()
    assert wall > 0 and cpu > 0


def test_self_time_subtracts_covered_children():
    spans = [
        {"name": "root", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "a", "start": 1.0, "end": 4.0, "parent": 0},
        {"name": "b", "start": 5.0, "end": 6.0, "parent": 0},
        {"name": "c", "start": 2.0, "end": 3.0, "parent": 1},
    ]
    import tracing

    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_counts_match_documented_baselines():
    # prove-signs at README flags reports 524 checks; check-dga exterior4 at
    # k_max 4 checks 5,369 words; deform-check interval2 checks 621 per candidate
    levels = workloads.spectrum_levels("0,1/2", 2)
    assert workloads.proof_obligations(7, 5, len(levels)) == 524
    assert workloads.relation_words(16, 4, 10_000, 1_000) == 5369
    assert workloads.relation_words(20, 3, 500, 200) == 621


def test_same_seed_same_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.make_plan(name, 3, tmp_path)
        assert a == workloads.make_plan(name, 3, tmp_path)
        assert a != workloads.make_plan(name, 4, tmp_path)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in run.HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "proofs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
