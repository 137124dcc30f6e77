"""Fresh-interpreter half of the benchmark: set-up timing and sessions.

    python3 perfbench/child.py setup   '<json list of sofim argv lists>'
    python3 perfbench/child.py session '<json list of passes>' WARM_SECONDS

``setup`` times, from interpreter start, importing sofim, loading and
validating the first command's config and building its problem: it runs
``sofim.cli.main`` and stops it where training would begin (the first
``harness.run_experiment`` or ``harness.scaling_probe`` call).

``session`` runs passes over the workload's commands (a pass is one list of
sofim argv lists, each pass writing to its own directories).  The first pass
is the cold one, the first work of the process; its end is read on the
system-wide monotonic clock, so the caller can time it from before the
process started.  Then warm passes follow, each with a timer per training
run and a step counter, until they have taken ``WARM_SECONDS`` (at least
one, at most the passes given).

Either prints one JSON line; the CLI's own output is discarded.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


class _TrainingStarts(BaseException):
    """Raised where training would begin; ``cli.main`` only catches Exception."""


def setup(argv: list) -> dict:
    import sofim.cli as cli

    t_import = time.perf_counter()
    from sofim import harness, problems

    build_spec = problems.problem_from_spec
    marks = {}

    def build(spec):
        marks["build_start"] = time.perf_counter()
        problem = build_spec(spec)
        marks["build_end"] = time.perf_counter()
        return problem

    def run_experiment(cfg, problem=None):
        if problem is None:
            problems.problem_from_spec(cfg.problem)
        raise _TrainingStarts

    def scaling_probe(*args, **kwargs):
        raise _TrainingStarts

    problems.problem_from_spec = build
    harness.run_experiment = run_experiment
    harness.scaling_probe = scaling_probe
    t_main = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
    except _TrainingStarts:
        t_ready = time.perf_counter()
    else:
        return {"ok": False, "error": f"sofim exited with {rc} before training began"}
    build_start = marks.get("build_start", t_ready)
    return {
        "ok": True,
        "setup_s": t_ready - T0,
        "import_s": t_import - T0,
        "config_s": build_start - t_main,
        "build_s": marks.get("build_end", build_start) - build_start,
    }


def session(passes: list, warm_seconds: float) -> dict:
    import sofim.cli as cli
    from spans import Tracer, instrument, patched

    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(argv) for argv in passes[0]]
        cold_end = time.monotonic()
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        warm, spent = [], 0.0
        for argvs in passes[1:]:
            tracer = Tracer()
            with patched(instrument(tracer, layers=False)):
                t0 = time.perf_counter()
                codes += [cli.main(argv) for argv in argvs]
                wall = time.perf_counter() - t0
            warm.append({"wall_s": wall, "steps": tracer.steps,
                         "runs_s": [r.seconds for r in tracer.runs]})
            spent += wall
            if spent >= warm_seconds:
                break
    return {
        "ok": True,
        "exit_codes": codes,
        "cold_end": cold_end,
        "maxrss_kb": maxrss_kb,
        "warm": warm,
    }


def main() -> None:
    mode, argvs = sys.argv[1], json.loads(sys.argv[2])
    result = setup(argvs[0]) if mode == "setup" else session(argvs, float(sys.argv[3]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
