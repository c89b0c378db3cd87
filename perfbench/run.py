"""Benchmark of the ainfsign verifier: time to a trustworthy verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed makes the workload's inputs
(command flags and input files); each repetition runs them in a fresh
interpreter, one command at a time, until S seconds have passed (at least
three repetitions).  Every repetition is gated: each command must pass and
do exactly the work its flags determine, and a negative control must be
rejected.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics, each the median over the repetitions; the times are ratios to a
calibration task sampled while the commands run (``calibration.py``), so
the shared machine's changing speed cancels.  With ``--trace 1`` one
repetition runs under the profiler and wrappers of ``tracing.py`` and the
last line holds the per-layer metrics; the other repetitions are untraced
and give the tracing overhead.  The line before the last holds the
provenance, sample counts and raw times in seconds, and
``.perfbench/results/`` keeps every sample and span.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
MIN_REPS = 3
RUN_LIMIT_S = 170  # a run must end within 180 s


def spawn_child(plan_path: Path, result_path: Path, traced: bool, deadline: float) -> dict:
    """Run one repetition; returns the child's exit code and resource usage."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.pop("AINFSIGN_REPORT_DIR", None)
    with open(result_path.with_suffix(".stderr"), "w") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "child.py"), str(plan_path), str(result_path),
             "1" if traced else "0", repr(spawned)],
            stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=ROOT)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above; Popen must not wait
    return {"exit": proc.returncode, "peak_rss_mb": usage.ru_maxrss / 1024}


def score(plan: dict, child: dict | None) -> tuple[int, int, list[str]]:
    """Operations attempted and failed in one repetition, and the problems.
    Each command is one operation and so is the negative control; a
    control that is not rejected is a failed operation."""
    attempted = len(plan["commands"]) + 1
    if child is None:
        return attempted, attempted, ["repetition produced no result"]
    failed, problems = 0, []
    for command, outcome in zip(plan["commands"], child["outcomes"]):
        found = workloads.check_command(command, outcome)
        failed += bool(found)
        problems += found
    if not child["control"]["rejected"]:
        failed += 1
        problems.append(f"negative control passed: {child['control']['detail']}")
    return attempted, failed, problems


def run_rep(plan: dict, plan_path: Path, index: int, traced: bool, deadline: float) -> dict:
    result_path = plan_path.parent / f"rep{index}.json"
    usage = spawn_child(plan_path, result_path, traced, deadline)
    child = None
    if usage["exit"] == 0 and result_path.is_file():
        child = json.loads(result_path.read_text())
    attempted, failed, problems = score(plan, child)
    for outcome in (child or {}).get("outcomes", []):
        outcome.pop("stdout", None)  # gated already; too bulky to keep
    if child is None:
        problems.append(result_path.with_suffix(".stderr").read_text()[-2000:])
    elif child.get("calibration"):
        # Samples come at fixed wall-clock intervals, so slow stretches give
        # more of them; the harmonic mean weights each by the work done
        # between samples instead.
        wall_unit = statistics.harmonic_mean(w for w, _ in child["calibration"])
        cpu_unit = statistics.harmonic_mean(c for _, c in child["calibration"])
        child["wall_rel"] = child["wall_s"] / wall_unit
        child["cpu_rel"] = child["cpu_s"] / cpu_unit
    return {"traced": traced, "attempted": attempted, "failed": failed, "problems": problems,
            **usage, **(child or {})}


def provenance(args, plan: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "flags": plan["flags"],
        "argv": [cmd["argv"] for cmd in plan["commands"]],
    }


END_TO_END = (("wall_rel", "ratio"), ("cpu_rel", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
RAW_TIMES = (("wall_s", "s"), ("cpu_s", "s"))


def median_metrics(reps: list[dict], names=END_TO_END) -> dict:
    return {name: {"value": statistics.median(r[name] for r in reps), "unit": unit}
            for name, unit in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "ainfsign" / "cli.py").is_file():
        print(f"error: no ainfsign sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    hard_deadline = started + RUN_LIMIT_S
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    sys.path.insert(0, str(ROOT / "src"))
    plan = workloads.make_plan(args.workload, args.seed, work)
    workloads.write_inputs(plan)
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1))
    # compile the bytecode once, as an installed package would have it
    subprocess.run([sys.executable, "-S", "-c", "import ainfsign.cli"], cwd=ROOT, check=True,
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=60)

    traced = None
    deadline = time.monotonic() + args.seconds
    if args.trace:
        traced = run_rep(plan, plan_path, 0, True, hard_deadline)
    reps: list[dict] = []
    longest = 0.0
    while len(reps) < MIN_REPS or time.monotonic() < deadline:
        if time.monotonic() + 1.5 * longest > hard_deadline:
            break
        began = time.monotonic()
        reps.append(run_rep(plan, plan_path, len(reps) + 1, False, hard_deadline))
        longest = max(longest, time.monotonic() - began)

    everything = reps + ([traced] if traced else [])
    timed = [r for r in reps if "wall_s" in r]
    if not timed or (traced is not None and "layers" not in traced):
        for r in everything:
            print("\n".join(r["problems"]), file=sys.stderr)
        print("error: no repetition completed", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    if traced:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in traced["layers"].items()}
        metrics["trace.overhead_s"] = {
            "value": traced["wall_s"] - statistics.median(r["wall_s"] for r in timed), "unit": "s"}
    else:
        metrics = median_metrics(timed)

    info = {
        "provenance": provenance(args, plan),
        "samples": {"repetitions": len(timed), "traced": int(traced is not None)},
        "problems": sorted({p for r in everything for p in r["problems"]}),
        "raw_times": median_metrics(timed, RAW_TIMES),
    }
    if traced:
        info["sweeps"] = traced["sweeps"]
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{work.name}.json").write_text(json.dumps(
        {**info, "metrics": metrics, "repetitions": everything}, indent=1))
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
