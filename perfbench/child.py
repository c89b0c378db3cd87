"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/child.py PLAN.json RESULT.json TRACED(0|1) SPAWNED_AT

SPAWNED_AT is the parent's ``time.monotonic()`` just before it started this
process; the monotonic clock is shared by all processes, so the child can
report its set-up time (interpreter start plus ``import ainfsign.cli``).
The commands run through ``ainfsign.cli.main`` one after another; their
standard output is captured, as a pipe would take it.  Untraced, they run
under the calibration timer of ``calibration.py``.  The negative control
runs after the last verdict and outside the measured and traced region.
"""

import sys
import time


def main(plan_path: str, result_path: str, traced: bool, spawned: float) -> None:
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer(run_id=result_path)
        tracer.start()
    import ainfsign.cli

    imported = time.monotonic()

    import contextlib
    import io
    import json
    import traceback

    from calibration import Calibrator

    def run_command(argv: list[str]) -> dict:
        out = io.StringIO()
        span = tracer.open_span(f"command:{argv[0]}") if tracer else None
        try:
            with contextlib.redirect_stdout(out):
                code = ainfsign.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            return {"exit": exc.code, "error": "argument parser exited"}
        except Exception:  # a traceback is a failed operation, not a crashed benchmark
            return {"exit": None, "error": traceback.format_exc(limit=3)}
        finally:
            if tracer:
                tracer.close_span(span)
        return {"exit": code, "stdout": out.getvalue()}

    with open(plan_path) as fh:
        plan = json.load(fh)
    if tracer:
        tracer.stop()
        tracer.install()
        tracer.start()
        root = tracer.open_span(f"workload:{plan['workload']}")
    # Untraced, the commands run under the calibration timer; wall_s and
    # cpu_s leave out the time its samples took.
    calibrator = Calibrator()
    with contextlib.nullcontext() if tracer else calibrator:
        first, first_cpu = time.perf_counter(), time.process_time()
        outcomes = [run_command(cmd["argv"]) for cmd in plan["commands"]]
        wall, cpu = time.perf_counter() - first, time.process_time() - first_cpu
    if tracer:
        tracer.close_span(root)
        tracer.stop()
    else:
        spent_wall, spent_cpu = calibrator.spent()
        wall, cpu = wall - spent_wall, cpu - spent_cpu
        calibrator.top_up()

    import workloads

    try:
        control = workloads.run_control(plan["control"])
    except Exception:
        control = {"rejected": False, "detail": traceback.format_exc(limit=3)}
    result = {"setup_s": imported - spawned, "wall_s": wall, "cpu_s": cpu,
              "calibration": calibrator.samples, "outcomes": outcomes, "control": control}
    if tracer:
        result["layers"] = {name: list(v) for name, v in tracer.metrics().items()}
        result["sweeps"] = tracer.sweep_totals()
        result["spans"] = tracer.spans
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3] == "1", float(sys.argv[4]))
