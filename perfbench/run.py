"""sofim's benchmark: training sweeps, a small-batch run and the step ladder.

    python3 perfbench/run.py --workload mlp_sweep --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --write-benchmark-json

Each workload runs ``sofim`` CLI commands over the shipped configs (see
``workloads.py``) one caller at a time (a closed loop): one process runs
commands at any moment, with OpenBLAS held to ``min(2, nproc)`` threads.  Outputs go to temporary
directories under ``.perfbench/`` in the checkout and are checked, then
deleted.

``--trace 0`` measures the end-to-end metrics for ``--seconds``, taking
turns between set-up and sessions, each in a fresh interpreter
(``child.py``).  A session runs the commands once cold, as the first work
of its process, then again warm.  Warm times are taken across many
processes because, on a shared host, one process's large-array steps can
keep one speed for its whole life and the next process's another.  The
only hooks in the warm commands are a timer per training run (or probe
call) and a counter per optimizer step.

``--trace 1`` measures the per-layer metrics: it takes turns between
set-up, plain and span-traced commands (``spans.py``), runs the optimizer
step ladder (``ladder.py``) and reports layer self times, counts and the
tracing overhead.  Both modes print every metric with its unit, then one
JSON line with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = str(min(2, os.cpu_count() or 1))
# Before numpy is imported here or in a child interpreter.
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

RUN_SECONDS = 40
#: Stop starting work after this long, so a run on a slow host still ends in time.
DEADLINE_S = 100
CHILD_TIMEOUT_S = 150
#: A session runs warm passes until they have taken this long (at least one).
SESSION_WARM_S = 1.5
MAX_WARM_PASSES = 8
SCRATCH = ROOT / ".perfbench"

#: (name, unit, better, bound, warm or cold, what it is)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25, "cold",
     "fresh interpreter: import sofim, load and validate the config, build the problem"),
    ("first_run_s", "s", "lower", 0.24, "cold",
     "median time from process start to the end of the workload's commands, "
     "run as the first work of a fresh interpreter"),
    ("wall_s", "s", "lower", 0.24, "warm",
     "median warm time of the workload's commands, CSV and echo output included"),
    ("run_s.p50", "s", "lower", 0.24, "warm",
     "median time of one training run (one probe call on scaling_ladder)"),
    ("iters_per_s", "1/s", "higher", 0.24, "warm",
     "median over warm passes of optimizer steps completed per second"),
    ("peak_rss_mb", "MB", "lower", 0.1, "cold",
     "peak resident memory of the fresh process running the commands"),
)

#: (name, unit, better, the end-to-end metric it should move and on which
#: workload).  BENCHMARK.json has no field for the mapping, so it lives here
#: and is printed next to each value.
#: A layer a workload never calls reads 0 on that workload.
PER_LAYER = (
    ("cli.import.s", "s", "lower", "setup_s, all workloads"),
    ("cli.config.ms", "ms", "lower", "setup_s, all workloads"),
    ("cli.echo.ms", "ms", "lower", "wall_s"),
    ("problems.build.ms", "ms", "lower", "setup_s, mlp_sweep"),
    ("problems.batch.us", "us", "lower", "iters_per_s, logistic_smallbatch"),
    ("problems.loss.us", "us", "lower", "iters_per_s and run_s.p50, mlp_sweep"),
    ("problems.grad.us", "us", "lower", "iters_per_s and run_s.p50, mlp_sweep"),
    ("problems.forward_calls_per_iter", "count", "lower", "iters_per_s, mlp_sweep"),
    ("problems.eval.us", "us", "lower", "run_s.p50, mlp_sweep (per eval point)"),
    ("problems.eval_passes_per_point", "count", "lower", "run_s.p50, mlp_sweep"),
    ("problems.cpu_util", "ratio", "lower", "CPU s over wall s in loss and grad"),
    ("core.step.us", "us", "lower",
     "iters_per_s, logistic_smallbatch; no change predicted on mlp_sweep"),
    ("core.step.us.d1e3", "us", "lower", "iters_per_s, scaling_ladder"),
    ("core.step.us.d1e4", "us", "lower", "iters_per_s, scaling_ladder"),
    ("core.step.us.d1e5", "us", "lower", "iters_per_s, scaling_ladder"),
    ("core.step.us.d1e6", "us", "lower", "iters_per_s, scaling_ladder"),
    ("core.step.alloc_peak_bytes.d1e6", "bytes", "lower",
     "iters_per_s and peak_rss_mb, scaling_ladder (tracemalloc)"),
    ("core.step.computed_bytes.d1e6", "bytes", "lower",
     "computed from array sizes, not measured"),
    ("core.step.computed_GBps.d1e6", "GB/s", "higher",
     "computed bytes over measured step time; iters_per_s, scaling_ladder"),
    ("core.step.doubling_ratio.max", "ratio", "lower", "criterion 09 gate, scaling_ladder"),
    ("core.step.sofim_over_sgd.d1e6", "ratio", "lower", "criterion 09 gate, scaling_ladder"),
    ("baselines.sgd_momentum.step.us", "us", "lower", "iters_per_s, mlp_sweep"),
    ("baselines.sgd_momentum.step.us.d1e6", "us", "lower", "run_s.p50, scaling_ladder"),
    ("baselines.adam.step.us.d1e6", "us", "lower", "run_s.p50, scaling_ladder"),
    ("baselines.sgd_momentum.step.alloc_peak_bytes.d1e6", "bytes", "lower",
     "peak_rss_mb, scaling_ladder (tracemalloc)"),
    ("baselines.adam.step.alloc_peak_bytes.d1e6", "bytes", "lower",
     "peak_rss_mb, scaling_ladder (tracemalloc)"),
    ("harness.loop.self_us_per_iter", "us", "lower", "iters_per_s, logistic_smallbatch"),
    ("harness.write_csv.ms", "ms", "lower", "wall_s"),
    ("harness.write_summary.ms", "ms", "lower", "wall_s"),
    ("harness.sweep.useful_ratio", "ratio", "higher",
     "non-diverged runs over runs attempted, mlp_sweep"),
    ("trace.overhead_ratio", "ratio", "lower", "traced wall_s over untraced wall_s"),
    ("trace.uncovered_share", "ratio", "lower",
     "share of a traced command's time in no leaf layer span"),
)

#: Spans of the layers that do the work; time outside them is unexplained.
LEAF_SPANS = {
    "problems.build", "problems.batch", "problems.loss", "problems.grad",
    "problems.test_loss", "problems.test_accuracy", "core.step",
    "baselines.sgd_momentum.step", "baselines.adam.step",
    "harness.write_csv", "harness.write_summary", "cli.echo",
}


def benchmark_json() -> dict:
    from workloads import WORKLOADS

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound, _, _ in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


class Ops:
    """Operations attempted and failed.  Every command's outputs must hash
    to ``reference``: the pinned digest for the default seed, otherwise the
    first digest this run saw."""

    def __init__(self, reference=None):
        self.attempted = 0
        self.failed = 0
        self.reference = reference
        self.digests = set()

    def record(self, what: str, errors: list, digest=None) -> None:
        if digest is not None:
            self.digests.add(digest)
            if self.reference is None:
                self.reference = digest
            elif digest != self.reference:
                errors = errors + [f"outputs digest {digest} != expected {self.reference}"]
        self.attempted += 1
        if errors:
            self.failed += 1
            for error in errors[:5]:
                print(f"FAILED {what}: {error}", file=sys.stderr)


@contextlib.contextmanager
def out_dirs(count: int):
    SCRATCH.mkdir(exist_ok=True)
    dirs = [tempfile.mkdtemp(dir=SCRATCH) for _ in range(count)]
    try:
        yield dirs
    finally:
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)


def spawn(mode: str, payload: list, *args: str) -> tuple:
    """Run child.py in a fresh interpreter; returns (start, result), with
    ``start`` read on the system-wide monotonic clock just before launch."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), mode, json.dumps(payload), *args],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return start, {"ok": False, "error": "timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return start, {"ok": False,
                       "error": f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    return start, json.loads(lines[-1])


def setup_once(wl, seed: int, smoke: bool, ops: Ops, samples: list) -> None:
    """Time set-up in a fresh interpreter (child.py setup)."""
    with out_dirs(len(wl.commands)) as outs:
        _, result = spawn("setup", wl.argvs(seed, outs, smoke))
    ops.record("set-up", [] if result["ok"] else [result["error"]])
    if result["ok"]:
        samples.append(result)


def session_once(wl, seed: int, smoke: bool, ops: Ops, samples: dict) -> None:
    """Run the commands cold, then warm, in one fresh interpreter (child.py
    session) and check every pass's outputs."""
    from workloads import check_outputs

    n = len(wl.commands)
    passes = 1 + (1 if smoke else MAX_WARM_PASSES)
    with out_dirs(n * passes) as outs:
        argvs = [wl.argvs(seed, outs[i * n:(i + 1) * n], smoke) for i in range(passes)]
        start, result = spawn("session", argvs, str(0.0 if smoke else SESSION_WARM_S))
        if not result["ok"]:
            ops.record("session", [result["error"]])
            return
        codes = result["exit_codes"]
        for i, what in enumerate(["cold run"] + ["warm run"] * len(result["warm"])):
            errors = [f"exit code {c}" for c in codes[i * n:(i + 1) * n] if c]
            digest, more = check_outputs(wl, seed, outs[i * n:(i + 1) * n], smoke)
            ops.record(what, errors + more, digest)
    samples["first_run_s"].append(result["cold_end"] - start)
    samples["peak_rss_mb"].append(result["maxrss_kb"] / 1024)
    for warm in result["warm"]:
        samples["wall_s"].append(warm["wall_s"])
        samples["run_s"] += warm["runs_s"]
        samples["iters_per_s"].append(warm["steps"] / warm["wall_s"])


def warm_op(wl, seed: int, smoke: bool, ops, tracer, layers: bool) -> float:
    """Run the workload's commands in this process; returns wall seconds."""
    from sofim import cli
    from spans import instrument, patched
    from workloads import check_outputs

    with out_dirs(len(wl.commands)) as outs:
        argvs = wl.argvs(seed, outs, smoke)
        errors = []
        with patched(instrument(tracer, layers)), \
                contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            try:
                codes = [cli.main(argv) for argv in argvs]
            except Exception as exc:  # noqa: BLE001, counted as a failed operation
                codes, errors = [], [f"{type(exc).__name__}: {exc}"]
            wall = time.perf_counter() - t0
        errors += [f"exit code {c}" for c in codes if c]
        digest, more = check_outputs(wl, seed, outs, smoke)
    if ops is not None:
        ops.record("warm run", errors + more, digest)
    return wall


def median(values, scale=1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def interleave(seconds: float, tasks: dict) -> None:
    """Run ``tasks`` ({name: (callable, share of time, minimum calls)}) in
    turns for ``seconds``.  Each turn goes to the task furthest below its
    share of the time spent so far, so every task samples the whole run
    and a slow spell of a shared host does not land on one metric.  Once
    every task has had its minimum calls, a turn that would end past
    ``seconds`` (going by its task's mean turn so far) is not started, so a
    run does not overrun by a long turn."""
    spent = dict.fromkeys(tasks, 0.0)
    calls = dict.fromkeys(tasks, 0)
    start = time.perf_counter()
    while True:
        short = [name for name, (_, _, least) in tasks.items() if calls[name] < least]
        elapsed = time.perf_counter() - start
        name = min(short or tasks, key=lambda n: spent[n] / tasks[n][1])
        if elapsed >= DEADLINE_S or (
                not short and elapsed + spent[name] / calls[name] > seconds):
            return
        t0 = time.perf_counter()
        tasks[name][0]()
        spent[name] += time.perf_counter() - t0
        calls[name] += 1


def warm_up(wl, seed: int, smoke: bool) -> None:
    """Load code, fill the page cache and start BLAS before anything is timed."""
    from spans import Tracer

    setup_once(wl, seed, smoke, Ops(), [])
    warm_op(wl, seed, True, None, Tracer(), layers=False)


def end_to_end(wl, seed: int, seconds: float, smoke: bool, ops: Ops) -> dict:
    setup_once(wl, seed, smoke, Ops(), [])  # load code and fill the page cache
    setup = []
    samples = {name: [] for name in
               ("first_run_s", "peak_rss_mb", "wall_s", "run_s", "iters_per_s")}
    interleave(seconds, {
        "setup": (lambda: setup_once(wl, seed, smoke, ops, setup), 0.1, 1 if smoke else 5),
        "session": (lambda: session_once(wl, seed, smoke, ops, samples), 0.9, 1 if smoke else 2),
    })
    return {
        "setup_s": median([s["setup_s"] for s in setup]),
        "first_run_s": median(samples["first_run_s"]),
        "wall_s": median(samples["wall_s"]),
        "run_s.p50": median(samples["run_s"]),
        "iters_per_s": median(samples["iters_per_s"]),
        "peak_rss_mb": median(samples["peak_rss_mb"]),
    }


def layer_metrics(tracer, op_walls: list, setup: list) -> dict:
    """Per-layer numbers from the spans of the traced commands."""
    spans = tracer.spans
    own = tracer.self_seconds()

    def ids(name, tag=None):
        return [i for i, s in enumerate(spans) if s.name == name and tag in (None, s.tag)]

    def seconds(index_list, self_time=False):
        return [own[i] if self_time else spans[i].seconds for i in index_list]

    def top_dim_us(name):
        steps = ids(name)
        if not steps:
            return 0.0
        top = max(spans[i].tag for i in steps)
        return median([spans[i].seconds for i in steps if spans[i].tag == top], 1e6)

    draws = ids("problems.batch")
    batch_loss, grads = ids("problems.loss", "batch"), ids("problems.grad")
    points = ids("problems.loss", "full")
    evals = points + ids("problems.test_loss") + ids("problems.test_accuracy")
    forward = batch_loss + grads
    forward_wall = sum(seconds(forward))
    training = [r for r in tracer.runs if r.training]
    covered = {}
    for s in spans:
        if s.name in LEAF_SPANS:
            covered[s.run] = covered.get(s.run, 0.0) + s.seconds
    uncovered = [1.0 - covered.get(run, 0.0) / wall for run, wall in enumerate(op_walls, 1)]
    return {
        "cli.import.s": median([s["import_s"] for s in setup]),
        "cli.config.ms": median([s["config_s"] for s in setup], 1e3),
        "cli.echo.ms": median(seconds(ids("cli.echo")), 1e3),
        "problems.build.ms": median([s["build_s"] for s in setup], 1e3),
        "problems.batch.us": median(seconds(draws, True), 1e6),
        "problems.loss.us": median(seconds(batch_loss, True), 1e6),
        "problems.grad.us": median(seconds(grads, True), 1e6),
        "problems.forward_calls_per_iter": len(forward) / len(draws) if draws else 0.0,
        "problems.eval.us": sum(seconds(evals)) / len(points) * 1e6 if points else 0.0,
        "problems.eval_passes_per_point": len(evals) / len(points) if points else 0.0,
        "problems.cpu_util": (sum(spans[i].cpu for i in forward) / forward_wall
                              if forward_wall else 0.0),
        "core.step.us": top_dim_us("core.step"),
        "baselines.sgd_momentum.step.us": top_dim_us("baselines.sgd_momentum.step"),
        "harness.loop.self_us_per_iter": (
            sum(seconds(ids("harness.run_experiment"), True)) / len(batch_loss) * 1e6
            if batch_loss else 0.0),
        "harness.write_csv.ms": median(seconds(ids("harness.write_csv")), 1e3),
        "harness.write_summary.ms": median(seconds(ids("harness.write_summary")), 1e3),
        "harness.sweep.useful_ratio": (sum(not r.diverged for r in training) / len(training)
                                       if training else 0.0),
        "trace.uncovered_share": median(uncovered),
    }


def per_layer(wl, seed: int, seconds: float, smoke: bool, ops: Ops) -> dict:
    import ladder
    from spans import Tracer

    warm_up(wl, seed, smoke)
    setup, plain, traced, plain_walls, traced_walls = [], Tracer(), Tracer(), [], []

    def traced_op():
        traced.run += 1
        traced_walls.append(warm_op(wl, seed, smoke, ops, traced, True))

    interleave(seconds, {
        "setup": (lambda: setup_once(wl, seed, smoke, ops, setup), 0.15, 1 if smoke else 5),
        "plain": (lambda: plain_walls.append(warm_op(wl, seed, smoke, ops, plain, False)),
                  0.4, 2),
        "traced": (traced_op, 0.45, 2),
    })
    metrics = layer_metrics(traced, traced_walls, setup)
    metrics["trace.overhead_ratio"] = median(traced_walls) / median(plain_walls)
    step_metrics, failures = ladder.metrics(seed, (1_000, 10_000) if smoke else ladder.DIMS)
    ops.record("step ladder", ["a ladder step went non-finite"] * failures)
    metrics.update(step_metrics)
    return metrics


def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported tree; never look at enclosing directories
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seed: int, trace: int) -> dict:
    import numpy as np

    import sofim

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    status = _git("status", "--porcelain")
    rows = END_TO_END if trace == 0 else ()
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "kernel_backend": sofim.KERNEL_BACKEND,
        "seed": seed,
        "state": {name: state for name, _, _, _, state, _ in rows} or "warm",
    }


def import_sofim() -> None:
    """Import sofim from this checkout's ``src``, or exit with an error."""
    src = ROOT / "src"
    if not (src / "sofim" / "__init__.py").is_file():
        sys.exit(f"error: no sofim sources at {src}")
    sys.path.insert(0, str(src))
    import sofim

    if Path(sofim.__file__).resolve().parent != (src / "sofim").resolve():
        sys.exit(f"error: imported sofim from {sofim.__file__}, not {src}")


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> tuple:
    """Returns (metrics {name: (value, unit)}, ops)."""
    from workloads import DEFAULT_SEED, WORKLOADS

    wl = WORKLOADS[name]
    pinned = json.loads((HERE / "digests.json").read_text())
    ops = Ops(pinned.get(name) if seed == DEFAULT_SEED and not smoke else None)
    if trace:
        values = per_layer(wl, seed, seconds, smoke, ops)
        table = [(n, u) for n, u, _, _ in PER_LAYER]
    else:
        values = end_to_end(wl, seed, seconds, smoke, ops)
        table = [(n, u) for n, u, _, _, _, _ in END_TO_END]
    return {n: (values[n], u) for n, u in table}, ops


def smoke() -> list:
    """Every workload at a tiny size in both modes, plus the output gate on a
    deliberately altered CSV; returns a list of problems found."""
    from workloads import WORKLOADS, check_outputs

    problems = []
    for name in WORKLOADS:
        for trace, table in ((0, END_TO_END), (1, PER_LAYER)):
            metrics, ops = run_workload(name, seed=1, seconds=0.0, trace=trace, smoke=True)
            if ops.failed:
                problems.append(f"{name} trace={trace}: {ops.failed} failed operations")
            for row in table:
                value, unit = metrics.get(row[0], (None, None))
                if unit != row[1] or not isinstance(value, (int, float)) \
                        or not math.isfinite(value):
                    problems.append(f"{name} trace={trace}: {row[0]} = {value} {unit}")

    from sofim import cli

    wl = WORKLOADS["logistic_smallbatch"]
    for label, edit in (("changed loss", lambda v: repr(float(v) * 1.5)),
                        ("NaN loss", lambda v: "nan")):
        ops = Ops()
        with out_dirs(1) as outs:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(wl.argvs(1, outs, True)[0])
            digest, errors = check_outputs(wl, 1, outs, True)
            ops.record("clean output", errors, digest)
            path = next(Path(outs[0]).glob("*.csv"))
            lines = path.read_text().splitlines()
            cells = lines[1].split(",")
            cells[3] = edit(cells[3])
            lines[1] = ",".join(cells)
            path.write_text("\n".join(lines) + "\n")
            digest, errors = check_outputs(wl, 1, outs, True)
            ops.record(f"{label} (expected to fail)", errors, digest)
        if (ops.attempted, ops.failed) != (2, 1):
            problems.append(f"{label}: {ops.failed} of {ops.attempted} operations failed, "
                            "expected only the altered one")
    return problems


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full result here as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at a tiny size; exit 1 on any problem")
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="regenerate BENCHMARK.json from the tables in this file")
    args = parser.parse_args()

    if args.write_benchmark_json:
        text = json.dumps(benchmark_json(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text, encoding="utf-8")
        return 0
    import_sofim()
    try:
        return measure(parser, args)
    finally:
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()


def measure(parser, args) -> int:
    if args.smoke:
        problems = smoke()
        for problem in problems:
            print(f"smoke: {problem}", file=sys.stderr)
        print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
        return 1 if problems else 0
    if args.workload is None:
        parser.error("--workload is required")

    metrics, ops = run_workload(args.workload, args.seed, args.seconds, args.trace, False)
    prov = provenance(args.seed, args.trace)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={ops.attempted} failed={ops.failed} "
          f"failed_ratio={ops.failed / ops.attempted:.4g} "
          f"outputs_digest={','.join(sorted(ops.digests))}")
    print("# provenance " + json.dumps(prov))
    notes = {row[0]: row[-1] for row in (PER_LAYER if args.trace else END_TO_END)}
    for name, (value, unit) in metrics.items():
        print(f"{name:<52} {value:>16.6g} {unit:<6} {notes[name]}")
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    if args.out:
        args.out.write_text(json.dumps(
            {**result, "workload": args.workload, "trace": args.trace, "provenance": prov},
            indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
