"""Stochastic optimization with a regularized rank-one Fisher surrogate.

The core update keeps an exponentially decayed first moment of the
mini-batch gradients, models curvature as that moment's outer product
plus a scaled identity, and inverts the surrogate in closed form, so
each step costs O(d) time and memory like SGD with momentum.

Modules:

- :mod:`sofim.core` - the optimizer and the step checks all steppers share.
- :mod:`sofim.baselines` - SGD momentum and Adam for comparison.
- :mod:`sofim.problems` - convex and small neural test problems on
  synthetic and CSV datasets.
- :mod:`sofim.harness` - experiment runner, sweeps, scaling probe.
- :mod:`sofim.cli` - command-line front end.

The sofim, momentum-SGD and Adam steppers share one protocol,
``step(w, g)`` on a gradient of ``w``'s shape; they update in place with
numpy and allocate nothing per step.  Each stepper is the only
implementation of its update; the tests hold the formula-only references
it is checked against, the dense natural-gradient step that sofim equals
at batch size 1 among them.
"""

from sofim.core import SofimConfig, SofimOptimizer
from sofim.exceptions import ConfigError, DimensionMismatchError, NonFiniteError

__version__ = "0.1.0"

# Benchmark provenance records this, and result comparisons require it to match.
KERNEL_BACKEND = "numpy"

__all__ = [
    "KERNEL_BACKEND",
    "SofimConfig",
    "SofimOptimizer",
    "ConfigError",
    "DimensionMismatchError",
    "NonFiniteError",
    "__version__",
]
