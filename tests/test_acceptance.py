"""Acceptance suite: one test per shipped claim, one verdict line each.

Each test checks exactly one numbered criterion and prints a single
``criterion NN PASS/FAIL`` line (shown with ``pytest -s``; under plain
``pytest -v`` the per-test PASSED/FAILED report carries the same
information, one line per criterion).

  01  rank-one inverse application agrees with a dense solve
  02  update direction equals its closed form m_hat / (rho + ||m_hat||^2)
  03  bias-corrected moment of a constant gradient stream recovers it
  04  batch-size-1 damped natural-gradient step equals the beta=0 update
  05  analytic gradients pass central-difference checks on every problem
  06  full-batch convergence on a conditioned quadratic and a separable
      logistic problem
  07  desk-scale comparative speed against tuned SGD with momentum
  08  damping sweep: rho=0.5 stays within 2 accuracy points of the best
  09  per-step cost grows linearly with dimension
  10  repeated runs emit byte-identical CSVs apart from wall-clock columns

Criteria 7 and 8 share one module-scoped fixture (thirty 1000-iteration
runs) so the whole file stays in the minutes range.  Criterion 7 is a
soft comparative check: it passes on a 2-of-3 seed majority and reports
any seed that misses.
"""

import numpy as np
import pytest
import yaml

from sofim import baselines, cli, core, harness, problems
from sofim.exceptions import ConfigError


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> str:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} {status}: {name}"
    if detail:
        line += f" [{detail}]"
    print(line)
    return line


# ---------------------------------------------------------------------------
# 01 -- Sherman-Morrison exactness against a dense factorization


def test_criterion_01_rank_one_solve_matches_dense():
    """100 random (a, u, v, b) instances over d in {5, 20, 50}: the O(d)
    inverse application matches LAPACK on the explicit matrix to 1e-10."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(100):
        d = (5, 20, 50)[i % 3]
        a = float(rng.uniform(0.1, 5.0))
        u = rng.standard_normal(d)
        v = rng.standard_normal(d)
        # keep the instance well away from the singular denominator
        while abs(1.0 + float(v @ u) / a) < 0.1:
            v = rng.standard_normal(d)
        b = rng.standard_normal(d)
        fast = core.sherman_morrison_inverse_apply(a, u, v, b)
        dense = np.linalg.solve(a * np.eye(d) + np.outer(u, v), b)
        worst = max(worst, float(np.linalg.norm(fast - dense) / np.linalg.norm(dense)))
    ok = worst <= 1e-10
    assert ok, _verdict(1, "rank-one solve vs dense", ok, f"max rel err {worst:.3e} > 1e-10")
    _verdict(1, "rank-one solve vs dense", ok, f"max rel err {worst:.3e}, bound 1e-10")


# ---------------------------------------------------------------------------
# 02 -- direction closed form


def test_criterion_02_direction_closed_form():
    """1000 random (m_hat, rho) with rho in [0.01, 10]: sofim_direction
    equals m_hat / (rho + ||m_hat||^2) to 1e-12 relative."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 51))
        m_hat = rng.standard_normal(d) * 10.0 ** rng.uniform(-3.0, 3.0)
        rho = float(rng.uniform(0.01, 10.0))
        got = core.sofim_direction(m_hat, rho)
        want = m_hat / (rho + float(m_hat @ m_hat))
        worst = max(worst, float(np.linalg.norm(got - want) / np.linalg.norm(want)))
    ok = worst <= 1e-12
    assert ok, _verdict(2, "direction closed form", ok, f"max rel err {worst:.3e} > 1e-12")
    _verdict(2, "direction closed form", ok, f"max rel err {worst:.3e}, bound 1e-12")


# ---------------------------------------------------------------------------
# 03 -- bias-correction identity


def test_criterion_03_bias_correction_identity():
    """A constant gradient stream must yield m_hat_t == g at every step
    t <= 1e4 for beta in {0, 0.9, 0.999}, to 1e-12 relative."""
    rng = np.random.default_rng(303)
    g = rng.standard_normal(7)
    scale = float(np.max(np.abs(g)))
    worst = 0.0
    for beta in (0.0, 0.9, 0.999):
        state = core.SofimState.initial(7, core.SofimConfig(eta=0.1, rho=0.5, beta=beta))
        for _ in range(10_000):
            state = core.first_moment_update(state, g)
            m_hat = core.bias_correct(state)
            worst = max(worst, float(np.max(np.abs(m_hat - g))) / scale)
    ok = worst <= 1e-12
    assert ok, _verdict(3, "bias-correction identity", ok, f"max rel err {worst:.3e} > 1e-12")
    _verdict(3, "bias-correction identity", ok, f"max rel err {worst:.3e}, bound 1e-12")


# ---------------------------------------------------------------------------
# 04 -- batch-size-1 damped NGD equals the memoryless (beta=0) update


def test_criterion_04_rank_one_ngd_consistency():
    """100 random 10-dim logistic instances: the dense damped
    natural-gradient step on a single sample equals the beta=0 update to
    1e-10 relative."""
    rng = np.random.default_rng(404)
    worst = 0.0
    for k in range(100):
        ds = problems.make_blobs(60, 9, 2, 3.0, seed=1000 + k)
        prob = problems.LogisticRegressionProblem(ds)
        assert prob.dim == 10
        w = rng.standard_normal(prob.dim)
        idx = np.array([int(rng.integers(0, prob.n_train))])
        grads = prob.per_sample_grads(w, idx)
        rho = float(rng.uniform(0.05, 2.0))
        eta = float(rng.uniform(0.01, 1.0))
        dense = baselines.ngd_step(w, grads, eta, damping=rho)
        cfg = core.SofimConfig(eta=eta, rho=rho, beta=0.0)
        fast, _ = core.sofim_step(w, core.SofimState.initial(prob.dim, cfg), grads[0])
        worst = max(worst, float(np.linalg.norm(fast - dense) / np.linalg.norm(dense)))
    ok = worst <= 1e-10
    assert ok, _verdict(4, "rank-one NGD consistency", ok, f"max rel err {worst:.3e} > 1e-10")
    _verdict(4, "rank-one NGD consistency", ok, f"max rel err {worst:.3e}, bound 1e-10")


# ---------------------------------------------------------------------------
# 05 -- gradient correctness on every problem family


def test_criterion_05_gradient_checks():
    """Central-difference checks at 20 random points per problem, with
    per-family tolerances."""
    rng = np.random.default_rng(505)
    blobs2 = problems.make_blobs(300, 8, 2, 3.0, seed=6)
    blobs3 = problems.make_blobs(330, 6, 3, 3.0, seed=7)
    mlp_spec = problems.MlpSpec(widths=(6, 8, 3), activation="tanh")
    cases = (
        ("quadratic", problems.make_quadratic(12, 10.0, seed=5), 1e-8),
        ("logistic", problems.LogisticRegressionProblem(blobs2), 1e-6),
        ("softmax", problems.SoftmaxRegressionProblem(blobs3), 1e-6),
        ("mlp_tanh", problems.MlpProblem(blobs3, mlp_spec, init_seed=8), 1e-5),
    )
    ok = True
    parts = []
    for name, prob, tol in cases:
        err = problems.gradient_check(prob, rng, n_points=20)
        parts.append(f"{name} {err:.2e} (bound {tol:g})")
        ok = ok and err <= tol
    detail = ", ".join(parts)
    assert ok, _verdict(5, "gradient checks", ok, detail)
    _verdict(5, "gradient checks", ok, detail)


# ---------------------------------------------------------------------------
# 06 -- full-batch convergence on convex problems


def test_criterion_06_convex_convergence():
    """With eta=0.1, rho=0.5, beta=0.9 and full-batch gradients: a d=20
    quadratic (condition number 10) reaches gradient norm <= 1e-4 within
    5000 iterations, and a separable 2-class logistic problem reaches
    train loss <= 0.05 within 2000 iterations."""
    quad = problems.make_quadratic(20, 10.0, seed=0)
    rng = np.random.default_rng(0)
    w = quad.initial_point(rng)
    opt = core.SofimOptimizer(20, core.SofimConfig(eta=0.1, rho=0.5, beta=0.9))
    quad_hit = None
    for t in range(1, 5001):
        opt.step(w, quad.grad(w))
        if np.linalg.norm(quad.grad(w)) <= 1e-4:
            quad_hit = t
            break

    ds = problems.make_blobs(400, 10, 2, 6.0, seed=3)
    logistic = problems.LogisticRegressionProblem(ds)
    rng = np.random.default_rng(1)
    w = logistic.initial_point(rng)
    opt = core.SofimOptimizer(logistic.dim, core.SofimConfig(eta=0.1, rho=0.5, beta=0.9))
    logi_hit = None
    for t in range(1, 2001):
        opt.step(w, logistic.grad(w))
        if logistic.loss(w) <= 0.05:
            logi_hit = t
            break

    ok = quad_hit is not None and logi_hit is not None
    detail = (f"quadratic grad norm <=1e-4 at iter {quad_hit} (budget 5000), "
              f"logistic train loss <=0.05 at iter {logi_hit} (budget 2000)")
    assert ok, _verdict(6, "convex convergence", ok, detail)
    _verdict(6, "convex convergence", ok, detail)


# ---------------------------------------------------------------------------
# 07 / 08 -- desk-scale comparative runs (shared fixture)

COMPARATIVE_PROBLEM = {
    "kind": "blobs", "n": 5000, "p": 50, "classes": 5, "spread": 3.0,
    "seed": 0, "model": "mlp", "hidden": 32,
}
ETA_GRID = (1.0, 0.1, 0.01, 0.001, 0.0001)
COMPARATIVE_SEEDS = (0, 1, 2)
ITERATION_BUDGET = 1000


def _grid(optimizer: str, params_for_eta, seed: int):
    return [
        harness.ExperimentConfig(
            problem=COMPARATIVE_PROBLEM,
            optimizer=optimizer,
            optimizer_params=params_for_eta(eta),
            batch_size=512,
            total_iterations=ITERATION_BUDGET,
            eval_every=50,
            seed=seed,
        )
        for eta in ETA_GRID
    ]


@pytest.fixture(scope="module")
def comparative():
    """Per-seed learning-rate sweeps for the momentum baseline and for the
    rank-one method on the 5-class blobs MLP problem.

    For each seed: the baseline sweep is selected by the documented rule
    (accuracy first), its final train loss defines the target; the
    rank-one method's grid is then scored by iterations needed to reach
    that target.
    """
    entries = []
    for seed in COMPARATIVE_SEEDS:
        sgd = harness.sweep(_grid(
            "sgd_momentum",
            lambda eta: {"eta": eta, "momentum": 0.9, "weight_decay": 1e-6,
                         "schedule": "cosine"},
            seed,
        ))
        sgd_cfg, sgd_rec = sgd.best
        target = sgd_rec.final_train_loss
        sofim = harness.sweep(_grid(
            "sofim",
            lambda eta: {"eta": eta, "rho": 0.5, "beta": 0.9},
            seed,
        ))
        crossings = {}
        for cfg, rec in zip(sofim.configs, sofim.records):
            if rec.diverged:
                continue
            crossings[cfg.optimizer_params["eta"]] = rec.iterations_to_threshold(target)
        reached = {eta: c for eta, c in crossings.items() if c is not None}
        sel_cfg, sel_rec = sofim.best
        entries.append({
            "seed": seed,
            "target": target,
            "sgd_eta": sgd_cfg.optimizer_params["eta"],
            "sgd_accuracy": sgd_rec.final_test_accuracy,
            "fastest_eta": min(reached, key=reached.get) if reached else None,
            "fastest_crossing": min(reached.values()) if reached else None,
            "selected_eta": sel_cfg.optimizer_params["eta"],
            "selected_accuracy": sel_rec.final_test_accuracy,
            "selected_crossing": sel_rec.iterations_to_threshold(target),
        })
    return entries


def test_criterion_07_comparative_speed(comparative):
    """After per-optimizer learning-rate tuning, the rank-one method must
    reach the train loss the tuned momentum baseline attains at iteration
    1000 in at most that many iterations, on a majority of 3 seeds.

    Speed selection: each optimizer is represented by the grid point best
    at the task being measured.  The baseline's sweep-selected model sets
    the target; the rank-one method's grid point with the earliest
    crossing is its entry.  The accuracy-selected point's crossing is
    reported alongside for reference.
    """
    wins = 0
    parts = []
    for entry in comparative:
        cross = entry["fastest_crossing"]
        win = cross is not None and cross <= ITERATION_BUDGET
        wins += int(win)
        parts.append(
            f"seed {entry['seed']}: baseline eta={entry['sgd_eta']:g} "
            f"train {entry['target']:.4f}; fastest crossing {cross} "
            f"(eta={entry['fastest_eta']}); accuracy-selected "
            f"eta={entry['selected_eta']:g} crossing {entry['selected_crossing']}"
        )
    ok = wins >= 2
    detail = f"{wins}/3 seeds within {ITERATION_BUDGET} iters; " + "; ".join(parts)
    if wins == 2:
        detail += "; one missed seed tolerated by the majority rule"
    assert ok, _verdict(7, "comparative speed vs tuned momentum baseline", ok, detail)
    _verdict(7, "comparative speed vs tuned momentum baseline", ok, detail)


def test_criterion_08_rho_sensitivity(comparative):
    """In the damping sweep {1, 0.5, 0.1} on the comparative setup at the
    accuracy-selected learning rate, rho=0.5's final test accuracy is
    within 2 percentage points of the best of the three, and rho <= 0 is
    rejected when the config is built."""
    eta = comparative[0]["selected_eta"]
    base = harness.ExperimentConfig(
        problem=COMPARATIVE_PROBLEM,
        optimizer="sofim",
        optimizer_params={"eta": eta, "rho": 0.5, "beta": 0.9},
        batch_size=512,
        total_iterations=ITERATION_BUDGET,
        eval_every=50,
        seed=0,
    )
    result = harness.rho_sweep(base, rhos=(1.0, 0.5, 0.1))
    accs = {
        cfg.optimizer_params["rho"]: rec.final_test_accuracy
        for cfg, rec in zip(result.configs, result.records)
    }
    best = max(accs.values())
    within = accs[0.5] >= best - 0.02

    try:
        harness.ExperimentConfig(
            problem=COMPARATIVE_PROBLEM,
            optimizer="sofim",
            optimizer_params={"eta": eta, "rho": 0.0, "beta": 0.9},
            batch_size=512,
            total_iterations=ITERATION_BUDGET,
            eval_every=50,
            seed=0,
        )
        rejected = False
    except ConfigError:
        rejected = True

    ok = within and rejected
    detail = (f"eta={eta:g}; accuracy rho=1: {accs[1.0]:.4f}, rho=0.5: {accs[0.5]:.4f}, "
              f"rho=0.1: {accs[0.1]:.4f}; window 2pp of best {best:.4f}; "
              f"rho<=0 rejected at config time: {rejected}")
    assert ok, _verdict(8, "damping sensitivity", ok, detail)
    _verdict(8, "damping sensitivity", ok, detail)


# ---------------------------------------------------------------------------
# 09 -- linear per-step cost


def test_criterion_09_linear_scaling():
    """Median step time over a doubling ladder up to d=1e6: each doubling
    multiplies the step time by a factor in [1, 3], and the rank-one step
    costs at most 5x the momentum step at d=1e6."""
    dims = (125_000, 250_000, 500_000, 1_000_000)
    rows = harness.scaling_probe("sofim", dims, repeats=50, seed=0)
    times = [seconds for _, seconds in rows]
    ratios = [times[i + 1] / times[i] for i in range(len(times) - 1)]
    sgd = harness.scaling_probe("sgd_momentum", dims[-1:], repeats=50, seed=0)
    versus = times[-1] / sgd[0][1]
    ok = all(1.0 <= r <= 3.0 for r in ratios) and versus <= 5.0
    detail = (f"doubling ratios {[f'{r:.2f}' for r in ratios]} (bound [1, 3]); "
              f"step time at d=1e6 is {versus:.2f}x the momentum step (bound 5x)")
    assert ok, _verdict(9, "linear per-step scaling", ok, detail)
    _verdict(9, "linear per-step scaling", ok, detail)


# ---------------------------------------------------------------------------
# 10 -- determinism of emitted CSVs


def _rows_without_wall(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    wall = header.index("wall_ms")
    return [
        ",".join(cell for i, cell in enumerate(line.split(",")) if i != wall)
        for line in lines
    ]


def test_criterion_10_determinism(tmp_path):
    """Two consecutive CLI invocations of the same config produce
    byte-identical CSVs once the wall-clock column is dropped."""
    config = {
        "problem": {"kind": "blobs", "n": 400, "p": 8, "classes": 2,
                    "spread": 3.0, "seed": 2, "model": "logistic"},
        "optimizer": "sofim",
        "hyperparameters": {"eta": 0.1, "rho": 0.5, "beta": 0.9},
        "iterations": 120,
        "batch_size": 64,
        "seed": 7,
    }
    outputs = []
    for sub in ("first", "second"):
        out_dir = tmp_path / sub
        cfg_path = tmp_path / f"{sub}.yaml"
        cfg_path.write_text(yaml.safe_dump({**config, "output_dir": str(out_dir)}))
        code = cli.main(["run", str(cfg_path)])
        assert code == 0
        outputs.append(sorted(out_dir.glob("*.csv")))

    first, second = outputs
    same_names = [p.name for p in first] == [p.name for p in second]
    same_rows = same_names and all(
        _rows_without_wall(a) == _rows_without_wall(b) for a, b in zip(first, second)
    )
    ok = bool(first) and same_names and same_rows
    detail = (f"{len(first)} CSV(s); filenames match: {same_names}; "
              f"rows match without wall column: {same_rows}")
    assert ok, _verdict(10, "deterministic CSV output", ok, detail)
    _verdict(10, "deterministic CSV output", ok, detail)
