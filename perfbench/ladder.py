"""Optimizer-step ladder: the kernel timings of ``benchmarks/bench_backends.py``
taken through the public ``.step`` methods, plus allocation and traffic.

Each stepper runs its steps back to back at each dimension, as
``harness.scaling_probe`` and acceptance criterion 09 do, so its vectors
stay as warm in cache as they are there.  Each ``.step`` call is a span
tagged with its dimension.  The allocation
peak comes from ``tracemalloc`` around one extra step taken outside the
spans.  Bytes moved are computed from array sizes, not measured: the
update must read ``w``, the moment and ``g`` and write ``w`` and the moment,
five float64 vectors of length d.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from spans import STEPPERS, Tracer, patched, step_spans

DECADES = (1_000, 10_000, 100_000, 1_000_000)
#: criterion 09's doubling ladder
DOUBLINGS = (125_000, 250_000, 500_000, 1_000_000)
DIMS = tuple(sorted(set(DECADES) | set(DOUBLINGS)))
WARMUP_STEPS = 3
#: float64 vectors the sofim update must touch once: read w, m, g; write w, m
SOFIM_VECTORS_MOVED = 5


def _steps(d: int) -> int:
    return max(20, min(300, 10_000_000 // d))


def make_stepper(name: str, d: int):
    """A fresh stepper of the layer ``name`` for dimension ``d``."""
    from sofim import SofimConfig, SofimOptimizer
    from sofim.baselines import AdamConfig, AdamOptimizer, SgdConfig, SgdMomentumOptimizer

    if name == "core.step":
        return SofimOptimizer(d, SofimConfig(eta=0.01, rho=0.5, beta=0.9))
    if name == "baselines.sgd_momentum.step":
        return SgdMomentumOptimizer(d, SgdConfig(eta=0.01, momentum=0.9, weight_decay=1e-6))
    return AdamOptimizer(d, AdamConfig(eta=0.001))


def _vectors(d: int, rng) -> tuple:
    return rng.standard_normal(d), rng.standard_normal(d)


def alloc_peak_bytes(name: str, d: int, seed: int) -> int:
    """Peak bytes numpy allocates inside one step of ``name`` at ``d``."""
    stepper = make_stepper(name, d)
    w, g = _vectors(d, np.random.default_rng(seed))
    stepper.step(w, g)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        stepper.step(w, g)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _medians(seed: int, dims) -> tuple:
    """Median seconds per step, keyed by (span name, d); and failures."""
    tracer = Tracer()
    rng = np.random.default_rng(seed)
    failures = 0
    with patched(step_spans(tracer)):
        for d in dims:
            for _, _, name in STEPPERS:
                stepper = make_stepper(name, d)
                w, g = _vectors(d, rng)
                for steps, run in ((WARMUP_STEPS, 0), (_steps(d), d)):
                    tracer.run = run
                    for _ in range(steps):
                        stepper.step(w, g)
                failures += not np.isfinite(w).all()
    samples: dict = {}
    for span in tracer.spans:
        if span.run:
            samples.setdefault((span.name, span.run), []).append(span.seconds)
    return {key: float(np.median(v)) for key, v in samples.items()}, failures


def metrics(seed: int, dims=DIMS) -> tuple:
    """Per-layer step metrics of the ladder; returns (metrics, failures)."""
    medians, failures = _medians(seed, dims)
    top = max(dims)
    out = {}
    for d in DECADES:
        out[f"core.step.us.d1e{len(str(d)) - 1}"] = medians.get(("core.step", d), 0.0) * 1e6
    sofim_top = medians.get(("core.step", top), 0.0)
    sgd_top = medians.get(("baselines.sgd_momentum.step", top), 0.0)
    out["core.step.alloc_peak_bytes.d1e6"] = alloc_peak_bytes("core.step", top, seed)
    bytes_moved = SOFIM_VECTORS_MOVED * 8 * top
    out["core.step.computed_bytes.d1e6"] = bytes_moved
    out["core.step.computed_GBps.d1e6"] = bytes_moved / sofim_top / 1e9 if sofim_top else 0.0
    ladder = [medians.get(("core.step", d), 0.0) for d in DOUBLINGS if d in dims]
    ratios = [b / a for a, b in zip(ladder, ladder[1:]) if a > 0]
    out["core.step.doubling_ratio.max"] = max(ratios, default=0.0)
    out["core.step.sofim_over_sgd.d1e6"] = sofim_top / sgd_top if sgd_top else 0.0
    for _, _, name in STEPPERS[1:]:
        out[f"{name}.us.d1e6"] = medians.get((name, top), 0.0) * 1e6
        out[f"{name}.alloc_peak_bytes.d1e6"] = alloc_peak_bytes(name, top, seed)
    return out, failures
