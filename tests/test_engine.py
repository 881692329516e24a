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
from hetsgd import experiments, sgd
from hetsgd.core import Dataset, ObjectiveSpec, project
from hetsgd.experiments import (ExperimentConfig, c2_sweep_details, order_experiment_details,
                                strategy_comparison_details)
from hetsgd.oracles import GradientOracle, OracleSpec
from hetsgd.sgd import InfeasibleIterate, PhasePlan, Row, Schedule, run_batch, run_sgd

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
    for o, start in zip(fresh, row.starts or ()):
        o.take(start)
    w = np.zeros(row.oracles[0].dataset.d) if row.w0 is None else row.w0.copy()
    iterates = []
    for t, slot in enumerate(row.schedule.slots, start=1):
        g = fresh[slot].call(w)
        w = project(w - (row.schedule.rates[slot] / t) * g, radius)
        iterates.append(w)
    return iterates


def mixed_rows(loss, b, seed=0):
    """Every mechanism under a plan, its reverse, a one-phase plan, an interleaving and a
    shorter interleaving that starts mid-budget, each noisy, as a twin and from a w0."""
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
        late = np.repeat([0, 1], [3, steps["a"] - 3])     # as long as the one-phase plan
        np.random.default_rng(m + 10).shuffle(late)
        schedules = [(PhasePlan((("a", 30.0), ("b", 12.0)), 1.0).schedule(steps), None),
                     (PhasePlan((("b", 8.0), ("a", 20.0)), 1.0).schedule(steps), None),
                     (PhasePlan((("a", 10.0),), 1.0).schedule(steps), None),
                     (Schedule(("a", "b"), (15.0, 15.0), slots), None),
                     (Schedule(("a", "b"), (25.0, 5.0), late), (4, 6))]
        oracles = {"a": first, "b": second}
        w0 = np.full(d, 0.05)
        for sched, starts in schedules:
            pair = tuple(oracles[k] for k in sched.ids)
            rows += [Row(sched, pair, starts=starts), Row(sched, pair, False, starts),
                     Row(sched, pair, starts=starts, w0=w0)]
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


@pytest.mark.parametrize("loss", ["logistic", "hinge"])
@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("radius", [0.3, 1e3])
def test_chunk_size_does_not_change_a_value(loss, b, radius, monkeypatch):
    # One-phase rows are shorter than the rest and leave mid-chunk unless a chunk is one step.
    rows = mixed_rows(loss, b)
    assert len({len(r.schedule.slots) for r in rows}) == 2
    runs = []
    for chunk_bytes in (1, 1 << 14, sgd.CHUNK_BYTES):
        monkeypatch.setattr(sgd, "CHUNK_BYTES", chunk_bytes)
        runs.append(run_batch(rows, radius, snapshot_stride=1))
    for one_step, *others in zip(*runs):
        for traj in others:
            assert traj.final_w.tobytes() == one_step.final_w.tobytes()
            assert [(t, w.tobytes()) for t, w in traj.iterates] == \
                [(t, w.tobytes()) for t, w in one_step.iterates]


def test_projection_of_rows_inside_the_ball_returns_the_input():
    W = np.array([[0.6, 0.8], [0.0, -1.0], [0.1, 0.2], [0.0, 0.0]])
    assert project(W, 1.0) is W
    np.testing.assert_array_equal(W, [[0.6, 0.8], [0.0, -1.0], [0.1, 0.2], [0.0, 0.0]])


def test_projection_scales_only_the_rows_outside_the_ball():
    W = np.array([[0.9, 1.2], [0.3, 0.4], [0.0, -1.0 - 1e-15], [0.6, 0.8]])
    P = project(W, 1.0)
    np.testing.assert_allclose(P[[0, 2]], [[0.6, 0.8], [0.0, -1.0]], rtol=1e-15)
    assert np.linalg.norm(P[2]) <= 1.0
    np.testing.assert_array_equal(P[[1, 3]], W[[1, 3]])
    np.testing.assert_array_equal(W[0], [0.9, 1.2])          # the input is not modified


@pytest.mark.parametrize("radius", [0.3, 1e3])
@pytest.mark.parametrize("chunk_bytes", [1, sgd.CHUNK_BYTES])
def test_a_nan_row_ends_in_infeasible_iterate(radius, chunk_bytes, monkeypatch):
    monkeypatch.setattr(sgd, "CHUNK_BYTES", chunk_bytes)
    rows = mixed_rows("logistic", 1)
    noisy = next(r for r in rows if r.oracles[0].noise_means is not None)
    noisy.oracles[0].noise_means[2, 0] = np.nan
    with pytest.raises(InfeasibleIterate, match="non-finite"):
        run_batch(rows, radius)


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


@pytest.mark.parametrize("start", [-1, 0.5])
def test_negative_or_fractional_start_rejected(start):
    obj = ObjectiveSpec(lam=1.0, loss="linear")
    oracle = GradientOracle(OracleSpec("gaussian", budget=12, rng_seed=1, noise_sq=1.0), obj,
                            dataset(12, 3, 5))
    schedule = Schedule(("a",), (2.0,), [0, 0])
    with pytest.raises(ValueError, match="starts"):
        run_batch([Row(schedule, (oracle,), True, (start,))], 2.0)


def test_fractional_schedule_slots_rejected():
    with pytest.raises(ValueError, match="integers"):
        Schedule(("a", "b"), (1.0, 1.0), [0.7, 0.2])


def test_w0_of_the_wrong_shape_rejected_before_the_budget_is_used():
    obj = ObjectiveSpec(lam=1.0, loss="linear")
    oracle = GradientOracle(OracleSpec("clean", budget=12, rng_seed=1), obj, dataset(12, 3, 5))
    plan = PhasePlan((("a", 1.0),), 1.0)
    with pytest.raises(ValueError, match="shape"):
        run_sgd(plan, {"a": oracle}, w0=np.array([0.3]))
    assert oracle.consumed == 0
    with pytest.raises(ValueError, match="shape"):
        run_batch([Row(plan.schedule({"a": 12}), (oracle,), w0=np.array([0.3]))], 1.0)


def test_snapshots_are_opt_in():
    obj = ObjectiveSpec(lam=1.0, loss="linear", radius=np.inf)
    ds = dataset(12, 3, 5)

    def fresh():
        return {"a": GradientOracle(OracleSpec("clean", budget=12, rng_seed=1), obj, ds)}

    plan = PhasePlan((("a", 1.0),), np.inf)
    assert run_sgd(plan, fresh()).iterates is None
    # Every stride-th step and the last one.
    assert [t for t, _ in run_sgd(plan, fresh(), snapshot_stride=5).iterates] == [5, 10, 12]


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


RCN_ORACLES = {"kind": "rcn", "sigma_clean": 0.0, "sigma_noisy": 0.3, "batch_size": 5}


@pytest.mark.parametrize("details,overrides", [
    (order_experiment_details, {}),
    (order_experiment_details, {"oracles": RCN_ORACLES}),
    (strategy_comparison_details, {}),
    (c2_sweep_details, {}),
])
def test_trial_values_do_not_depend_on_the_chunk(details, overrides, monkeypatch):
    # Interleaved (AO) rows, twins, rcn flips and shorter CleanOnly rows, one step per chunk.
    chunked = details(small_config(**overrides))[1]
    monkeypatch.setattr(sgd, "CHUNK_BYTES", 1)
    stepwise = details(small_config(**overrides))[1]
    assert set(chunked) == set(stepwise)
    for key in chunked:
        assert chunked[key].tobytes() == stepwise[key].tobytes()


def test_rcn_order_experiment_runs_batched():
    cfg = small_config(oracles=RCN_ORACLES)
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
        sgd.run_sgd(sgd.PhasePlan((("a", 50.0),), 0.1), {"a": oracle})
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
