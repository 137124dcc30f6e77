"""In-memory spans around calls into sofim's modules, installed from outside.

Nothing under ``src/`` knows about tracing: :func:`instrument` swaps public
functions and methods of ``sofim.cli``, ``sofim.harness``,
``sofim.problems``, ``sofim.core`` and ``sofim.baselines`` for timed
wrappers and puts them back on exit.  Spans stay in memory; the benchmark
turns them into per-layer numbers when it ends.

A span records its name, start, end, the index of its parent span, the
benchmark operation (``run``) it belongs to, an optional tag (the parameter
dimension of an optimizer step, or whether a loss call was on a batch) and
the process CPU seconds spent inside it (only where asked for).
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    tag: object
    cpu: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class RunSample(NamedTuple):
    """One training run (``run_experiment``) or one scaling probe call."""

    seconds: float
    training: bool
    diverged: bool


class Tracer:
    """Collects spans, run samples and optimizer-step counts of one process."""

    def __init__(self):
        self.spans: list = []
        self.runs: list = []
        self.steps = 0
        self.run = 0
        self._stack: list = []

    def wrap(self, name, fn, tag=None, cpu=False):
        """``fn`` wrapped in a span; ``tag(args, kwargs)`` labels each call."""
        spans, stack, tracer = self.spans, self._stack, self
        clock, cpu_clock = time.perf_counter, time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            label = tag(args, kwargs) if tag is not None else None
            c0 = cpu_clock() if cpu else 0.0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                c1 = cpu_clock() if cpu else 0.0
                stack.pop()
                spans[index] = Span(name, t0, t1, parent, tracer.run, label, c1 - c0)

        return traced

    def self_seconds(self) -> list:
        """Per span: its duration minus the time its child spans cover."""
        covered = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.seconds
        return [span.seconds - covered[i] for i, span in enumerate(self.spans)]


@contextlib.contextmanager
def patched(replacements):
    """Set ``(owner, attribute, value)`` triples; restore them on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _batch_tag(args, kwargs):
    batch = args[1] if len(args) > 1 else kwargs.get("batch")
    return "full" if batch is None else "batch"


def _dim_tag(args, kwargs):
    return len(args[1])


class TracedProblem:
    """A ``Problem`` whose public calls are spanned; everything else is the
    wrapped problem's own attribute."""

    def __init__(self, problem, tracer: Tracer):
        self._problem = problem
        self.loss = tracer.wrap("problems.loss", problem.loss, tag=_batch_tag, cpu=True)
        self.grad = tracer.wrap("problems.grad", problem.grad, cpu=True)
        self.test_loss = tracer.wrap("problems.test_loss", problem.test_loss)
        self.test_accuracy = tracer.wrap("problems.test_accuracy", problem.test_accuracy)

    def __getattr__(self, name):
        return getattr(self._problem, name)


class _Batches:
    def __init__(self, draw):
        self._draw = draw

    def __iter__(self):
        return self

    def __next__(self):
        return self._draw()


STEPPERS = (
    ("core", "SofimOptimizer", "core.step"),
    ("baselines", "SgdMomentumOptimizer", "baselines.sgd_momentum.step"),
    ("baselines", "AdamOptimizer", "baselines.adam.step"),
)


def _stepper_classes():
    from sofim import baselines, core

    modules = {"core": core, "baselines": baselines}
    return [(getattr(modules[mod], cls), name) for mod, cls, name in STEPPERS]


def step_spans(tracer: Tracer) -> list:
    """Replacements that span every optimizer ``.step``, tagged with d."""
    return [
        (cls, "step", tracer.wrap(name, cls.__dict__["step"], tag=_dim_tag))
        for cls, name in _stepper_classes()
    ]


def step_counters(tracer: Tracer) -> list:
    """Replacements that only count optimizer ``.step`` calls."""
    out = []
    for cls, _ in _stepper_classes():
        step = cls.__dict__["step"]

        def counted(self, w, g, _step=step):
            tracer.steps += 1
            return _step(self, w, g)

        out.append((cls, "step", counted))
    return out


def instrument(tracer: Tracer, layers: bool) -> list:
    """Replacements for one benchmark operation.

    With ``layers`` false only a timer per training run or probe call and a
    counter per optimizer step are installed; that is what end-to-end runs
    use.  With ``layers`` true every layer boundary gets a span.
    """
    from sofim import cli, harness, problems

    run_experiment = harness.run_experiment
    scaling_probe = harness.scaling_probe

    def timed_run(cfg, problem=None):
        t0 = time.perf_counter()
        if layers:
            if problem is None:
                problem = problems.problem_from_spec(cfg.problem)
            problem = TracedProblem(problem, tracer)
        record = run_experiment(cfg, problem=problem)
        tracer.runs.append(RunSample(time.perf_counter() - t0, True, bool(record.diverged)))
        return record

    def timed_probe(*args, **kwargs):
        t0 = time.perf_counter()
        rows = scaling_probe(*args, **kwargs)
        tracer.runs.append(RunSample(time.perf_counter() - t0, False, False))
        return rows

    if not layers:
        return [
            (harness, "run_experiment", timed_run),
            (harness, "scaling_probe", timed_probe),
        ] + step_counters(tracer)

    minibatch_epochs = problems.minibatch_epochs
    draw_span = functools.partial(tracer.wrap, "problems.batch")

    def traced_batches(*args, **kwargs):
        return _Batches(draw_span(minibatch_epochs(*args, **kwargs).__next__))

    record_cls = harness.RunRecord
    out = [
        (cli, "main", tracer.wrap("cli.main", cli.main)),
        (harness, "sweep", tracer.wrap("harness.sweep", harness.sweep)),
        (harness, "run_experiment", tracer.wrap("harness.run_experiment", timed_run)),
        (harness, "scaling_probe", tracer.wrap("harness.scaling_probe", timed_probe)),
        (problems, "problem_from_spec",
         tracer.wrap("problems.build", problems.problem_from_spec)),
        (problems, "minibatch_epochs", traced_batches),
        (record_cls, "write_csv", tracer.wrap("harness.write_csv", record_cls.write_csv)),
        (record_cls, "write_summary",
         tracer.wrap("harness.write_summary", record_cls.write_summary)),
    ] + step_spans(tracer)
    # The config echo is a private helper of the CLI; its span is skipped
    # (and cli.echo.ms reads 0) if a refactor renames it.
    if "_echo_config" in vars(cli):
        out.append((cli, "_echo_config", tracer.wrap("cli.echo", cli._echo_config)))
    return out
