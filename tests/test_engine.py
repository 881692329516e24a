"""The batched engine against the scalar reference path, run by run."""
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import hetsgd
from hetsgd import experiments
from hetsgd.core import Dataset, ObjectiveSpec, project
from hetsgd.experiments import (ExperimentConfig, c2_sweep_details, order_experiment_details,
                                strategy_comparison_details)
from hetsgd.oracles import GradientOracle, OracleSpec
from hetsgd.sgd import PhasePlan, Row, Schedule, run_batch, run_sgd

MECHANISMS = {
    "clean": {},
    "local_dp": {"epsilon": 2.0},
    "rcn": {"sigma": 0.3},
    "gaussian": {"noise_sq": 3.0},
}


def dataset(n, d, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    X /= np.linalg.norm(X, axis=1).max()
    return Dataset(X, np.where(rng.random(n) < 0.5, 1.0, -1.0))


def reference_run(row: Row, radius: float) -> list:
    """Iterates of one row, stepped through GradientOracle.call on fresh oracles."""
    fresh = [GradientOracle(o.spec, o.objective, o.dataset) for o in row.oracles]
    if not row.noisy:
        fresh = [o.twin() for o in fresh]
    w = np.zeros(row.oracles[0].dataset.d) if row.w0 is None else row.w0.copy()
    iterates = []
    for t, slot in enumerate(row.schedule.slots, start=1):
        g = fresh[slot].call(w).gradient
        w = project(w - (row.schedule.rates[slot] / t) * g, radius)
        iterates.append(w)
    return iterates


def mixed_rows(loss, b, seed=0):
    """Every mechanism under a plan, its reverse, a one-phase plan and an interleaving, with twins."""
    lam, d = 0.1, 4
    obj = ObjectiveSpec(lam=lam, loss=loss)
    ds1, ds2 = dataset(8 * b + 1, d, seed), dataset(12 * b + 2, d, seed + 1)
    rows = []
    for m, (kind, kw) in enumerate(MECHANISMS.items()):
        first = GradientOracle(OracleSpec(kind, budget=len(ds1), batch_size=b,
                                          rng_seed=100 + m, **kw), obj, ds1)
        second = GradientOracle(OracleSpec(kind, budget=len(ds2), batch_size=b,
                                           rng_seed=200 + m, **kw), obj, ds2)
        steps = {"a": first.steps_total, "b": second.steps_total}
        slots = np.repeat([0, 1], [steps["a"], steps["b"]])
        np.random.default_rng(m).shuffle(slots)
        schedules = [PhasePlan((("a", 30.0), ("b", 12.0)), lam, 1.0).schedule(steps),
                     PhasePlan((("b", 8.0), ("a", 20.0)), lam, 1.0).schedule(steps),
                     PhasePlan((("a", 10.0),), lam, 1.0).schedule(steps),
                     Schedule(("a", "b"), (15.0, 15.0), slots)]
        oracles = {"a": first, "b": second}
        w0 = np.full(d, 0.05)
        for sched in schedules:
            pair = tuple(oracles[k] for k in sched.ids)
            rows += [Row(sched, pair), Row(sched, pair, noisy=False),
                     Row(sched, pair, w0=w0)]
    return rows


@pytest.mark.parametrize("loss", ["logistic", "hinge", "linear"])
@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("radius,active", [(0.3, True), (1e3, False)])
def test_engine_matches_scalar_reference_run_by_run(loss, b, radius, active):
    rows = mixed_rows(loss, b)
    trajectories = run_batch(rows, radius, snapshot_stride=1)
    hit = False
    for row, traj in zip(rows, trajectories):
        ref = reference_run(row, radius)
        assert traj.steps == len(ref)
        assert [t for t, _ in traj.iterates] == list(range(1, len(ref) + 1))
        np.testing.assert_allclose(np.array([w for _, w in traj.iterates]), np.array(ref),
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(traj.final_w, ref[-1], rtol=1e-12, atol=1e-15)
        hit |= any(np.linalg.norm(w) >= radius * (1 - 1e-12) for w in ref)
    assert hit == active


def test_twin_rows_differ_from_noisy_rows_only_through_noise():
    rows = mixed_rows("logistic", 2)
    trajectories = run_batch(rows, 1e3)
    for i in range(0, len(rows), 3):
        noisy, twin = trajectories[i].final_w, trajectories[i + 1].final_w
        kind = rows[i].oracles[0].spec.kind
        assert np.array_equal(noisy, twin) == (kind == "clean")


def test_rows_do_not_consume_their_oracles():
    rows = mixed_rows("logistic", 1)
    run_batch(rows, 1.0)
    assert all(o.consumed == 0 for r in rows for o in r.oracles)
    assert [t.consumed for t in run_batch(rows[:1], 1.0)] == \
        [tuple(o.steps_total for o in rows[0].oracles)]


def test_budget_overrun_rejected():
    rows = mixed_rows("logistic", 1)
    row = rows[0]
    with pytest.raises(hetsgd.BudgetExhausted):
        run_batch([Row(row.schedule, row.oracles, starts=(1, 0))], 1.0)


def test_snapshots_are_opt_in():
    obj = ObjectiveSpec(lam=1.0, loss="linear", radius=np.inf)
    ds = dataset(12, 3, 5)

    def fresh():
        return {"a": GradientOracle(OracleSpec("clean", budget=12, rng_seed=1), obj, ds)}

    plan = PhasePlan((("a", 1.0),), 1.0, np.inf)
    assert run_sgd(plan, fresh()).iterates is None
    traj = run_sgd(plan, fresh(), eval_fn=lambda w: float(w @ w))
    assert traj.iterates is None
    assert [t for t, _ in traj.objective_curve] == list(range(1, 13))


def small_config(**overrides):
    base = {
        "problem": {"loss": "logistic", "lam": 0.01},
        "data": {"kind": "synthetic", "d": 4, "n": 240, "flip_rate": 0.1},
        "oracles": {"kind": "local_dp", "epsilon_clean": 10.0, "epsilon_noisy": 2.0,
                     "batch_size": 10},
        "beta_c": 0.25,
        "trials": 3,
        "master_seed": 42,
        "c_grid": (50.0, 200.0),
        "epsilon_noisy_sweep": (2.0, 5.0),
        "c2_grid_points": 4,
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


@pytest.mark.parametrize("details", [order_experiment_details, strategy_comparison_details,
                                     c2_sweep_details])
def test_trial_values_do_not_depend_on_the_batch(details, monkeypatch):
    few = details(small_config(trials=3))[1]
    many = details(small_config(trials=8))[1]
    monkeypatch.setattr(experiments, "BATCH_BYTES", 1)     # one trial per engine call
    split = details(small_config(trials=8))[1]
    assert set(few) == set(many) == set(split)
    for key in few:
        np.testing.assert_array_equal(many[key][:3], few[key])
        np.testing.assert_array_equal(split[key], many[key])


def test_rcn_order_experiment_runs_batched():
    cfg = small_config(oracles={"kind": "rcn", "sigma_clean": 0.0, "sigma_noisy": 0.3,
                                "batch_size": 5})
    rows, tv = order_experiment_details(cfg)
    assert all(np.all(np.isfinite(v)) and np.all(v >= 0) for v in tv.values())


OPTIMIZED_CHECKS = textwrap.dedent("""
    import sys
    import numpy as np
    import hetsgd.sgd as sgd
    from hetsgd.core import Dataset, ObjectiveSpec
    from hetsgd.experiments import ExperimentConfig, strategy_comparison_details
    from hetsgd.oracles import GradientOracle, OracleSpec

    print("optimize", sys.flags.optimize)
    real_project = sgd.project
    sgd.project = lambda w, radius: w            # a projection that never projects
    obj = ObjectiveSpec(lam=1.0, loss="linear", radius=0.1)
    ds = Dataset(np.full((5, 2), 0.5), np.ones(5))
    oracle = GradientOracle(OracleSpec("clean", budget=5), obj, ds)
    try:
        sgd.run_sgd(sgd.PhasePlan((("a", 50.0),), 1.0, 0.1), {"a": oracle})
        print("feasibility unchecked")
    except sgd.InfeasibleIterate:
        print("feasibility checked")
    sgd.project = real_project

    full_schedule = sgd.PhasePlan.schedule
    def short_schedule(self, steps):             # drops each run's last step
        s = full_schedule(self, steps)
        return sgd.Schedule(s.ids, s.rates, s.slots[:-1])
    sgd.PhasePlan.schedule = short_schedule
    cfg = ExperimentConfig.from_dict({
        "data": {"kind": "synthetic", "d": 3, "n": 120},
        "oracles": {"kind": "local_dp", "batch_size": 10}, "beta_c": 0.25, "trials": 2})
    try:
        strategy_comparison_details(cfg)
        print("budget unchecked")
    except RuntimeError:
        print("budget checked")
""")


def test_invariants_hold_under_python_optimize():
    src = str(Path(hetsgd.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_CHECKS], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == ["optimize 1", "feasibility checked", "budget checked"]


def test_meta_names_the_package_commit_from_any_directory(tmp_path):
    package = Path(hetsgd.__file__).resolve().parent
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=package, capture_output=True,
                         text=True)
    expected = git.stdout.strip() if git.returncode == 0 else "unknown"
    cfg = small_config(trials=2).to_dict()
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    proc = subprocess.run([sys.executable, "-m", "hetsgd", "strategy-cmp", "--config", "cfg.json",
                           "--out-dir", "out"], cwd=tmp_path, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(package.parent)},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    meta = json.loads((tmp_path / "out" / "meta.json").read_text())
    assert meta["git_hash"] == expected
    assert meta["python"] == ".".join(map(str, sys.version_info[:3]))
    assert meta["numpy"] == np.__version__
