"""The batched engine against the scalar reference path, run by run."""
import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy

import hetsgd
from hetsgd import experiments, sgd
from hetsgd.core import Dataset, ObjectiveSpec, project
from hetsgd.experiments import (ExperimentConfig, c2_sweep_details, order_experiment_details,
                                strategy_comparison_details)
from hetsgd.oracles import GradientOracle, OracleSpec
from hetsgd.sgd import InfeasibleIterate, Row, Schedule, run_batch

MECHANISMS = {
    "clean": {},
    "local_dp": {"epsilon": 2.0},
    "rcn": {"sigma": 0.3},
    "gaussian": {"noise_sq": 3.0},
}


def dataset(n, d, seed, zeros=False):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    X /= np.linalg.norm(X, axis=1).max()
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    if zeros:       # exact zeros in about a third of the entries, and one all-zero example
        X[rng.random((n, d)) < 1 / 3] = 0.0
        X[0] = 0.0
    return Dataset(X, y)


def reference_run(row: Row) -> list:
    """Iterates of one row, stepped through GradientOracle.call on fresh oracles."""
    radius = row.oracles[0].objective.radius
    fresh = [GradientOracle(o.spec, o.objective, o.dataset) for o in row.oracles]
    if not row.noisy:
        fresh = [o.twin() for o in fresh]
    batch = list(row.starts or (0,) * len(fresh))        # the next batch of each slot
    w = np.zeros(row.oracles[0].dataset.d) if row.w0 is None else row.w0.copy()
    iterates = []
    for t, slot in enumerate(row.schedule.slots, start=1):
        g = fresh[slot].call(w, batch[slot])
        batch[slot] += 1
        w = project(w - (row.schedule.rates[slot] / t) * g, radius)
        iterates.append(w)
    return iterates


def mixed_rows(loss, b, seed=0, zeros=False, radius=1.0):
    """Every mechanism under a plan, its reverse, a one-phase plan, an interleaving and a
    shorter interleaving that starts mid-budget, each noisy, as a twin and from a w0, in
    the ball of the given radius."""
    lam, d = 0.1, 4
    obj = ObjectiveSpec(lam=lam, loss=loss, radius=radius)
    ds1, ds2 = dataset(8 * b + 1, d, seed, zeros), dataset(12 * b + 2, d, seed + 1, zeros)
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
        schedules = [(Schedule.blocks((("a", 30.0), ("b", 12.0)), steps), None),
                     (Schedule.blocks((("b", 8.0), ("a", 20.0)), steps), None),
                     (Schedule.blocks((("a", 10.0),), steps), None),
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
    rows = mixed_rows(loss, b, radius=radius)
    trajectories = run_batch(rows, snapshot_stride=1)
    hit = False
    for row, traj in zip(rows, trajectories):
        ref = reference_run(row)
        assert traj.steps == len(ref)
        assert [t for t, _ in traj.iterates] == list(range(1, len(ref) + 1))
        np.testing.assert_allclose(np.array([w for _, w in traj.iterates]), np.array(ref),
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(traj.final_w, ref[-1], rtol=1e-12, atol=1e-15)
        hit |= any(np.linalg.norm(w) >= radius * (1 - 1e-12) for w in ref)
    assert hit == active


def engine_digest(rows):
    """sha256 over every row's snapshots (step and iterate bytes) and final iterate."""
    h = hashlib.sha256()
    for traj in run_batch(rows, snapshot_stride=1):
        for t, w in traj.iterates:
            h.update(t.to_bytes(4, "little") + w.tobytes())
        h.update(traj.final_w.tobytes())
    return h.hexdigest()


# Digests of the engine's bytes on mixed_rows(loss, b, zeros=zeros) at each radius: a leaner
# step must give the same bits for every loss, mechanism and batch size, also on features
# with exact zeros (where only the sign of a zero could tell two products apart).
PINNED_ENGINE_DIGESTS = {
    ("logistic", 1, 0.3, False):
        "02bead673ecda2c697bf213538d9804163e38a1a9abcb5bcecbd08f8ef4787dd",
    ("logistic", 1, 0.3, True):
        "a0dd58671c8d32b67ab329881dbaea41337bdd2dc673849273eb1254b2ceb06a",
    ("logistic", 1, 1e3, False):
        "632cab5d4d0e12c57def124f5ec6d88d17e2d1e52bca5e7796888293f12afba1",
    ("logistic", 1, 1e3, True):
        "d0e7dff06ecd0b7d482511bd439bc624adcfa18f50e2f3d425583e56ff73e70f",
    ("logistic", 3, 0.3, False):
        "446c40563a02883c1bc38ae7bbafe30b94eef065ac68e2c3e04a875e7c30ef5c",
    ("logistic", 3, 0.3, True):
        "4c43435c400fc5a9d88a186ef968202bf5d6a36a1b8d59b590440a021d0482f5",
    ("logistic", 3, 1e3, False):
        "dfc397888a0b2bf5b28385b326cc7315c6c33d870c1124ac62dd470372b4bb6b",
    ("logistic", 3, 1e3, True):
        "d950dfae98df6d86f22a69c40a4413da3f1c834f8a6e44497683c511e71e693e",
    ("hinge", 1, 0.3, False):
        "b4fc5dd622deae7c6a3e83feb8599afd500ec7e109ce64e0500ac7599993d593",
    ("hinge", 1, 0.3, True):
        "69e6644284087edbd23de60361a4657e5ee28cf314eb73364aae52cadc76cc56",
    ("hinge", 1, 1e3, False):
        "a325e0af7d764d6cbd4bf98260308b6f5efc63a9b08612f1a708051653d3710b",
    ("hinge", 1, 1e3, True):
        "2e1fdb7b18313b7fbf1097362a93ff33dcd5f57d46f94e86360ba6eb58b0b5f2",
    ("hinge", 3, 0.3, False):
        "d9a7ac68f37811b181ef268934f76ca1295fb976a53e210bc840e58f7b7c64cf",
    ("hinge", 3, 0.3, True):
        "6c2412a45c5645fd2f37764a3d2f05bf3ece7e6d18e23068022385d21c78b30b",
    ("hinge", 3, 1e3, False):
        "1980b769da063d8c211484362f5b40bf7aa8163b9136a7a7d1e62d861ff8d23d",
    ("hinge", 3, 1e3, True):
        "31a880452b407fab067369abb862e40aea5a8513528120d7137d83189490bb63",
    ("linear", 1, 0.3, False):
        "b4fc5dd622deae7c6a3e83feb8599afd500ec7e109ce64e0500ac7599993d593",
    ("linear", 1, 0.3, True):
        "69e6644284087edbd23de60361a4657e5ee28cf314eb73364aae52cadc76cc56",
    ("linear", 1, 1e3, False):
        "a95723b143c19bcb8eb5f975827fda84f15843561d49799c1ebf727335320075",
    ("linear", 1, 1e3, True):
        "4af9f9d369a653d6e6cb39848c693601632168d6c8f6f11ef95705cc84799a01",
    ("linear", 3, 0.3, False):
        "d9a7ac68f37811b181ef268934f76ca1295fb976a53e210bc840e58f7b7c64cf",
    ("linear", 3, 0.3, True):
        "6c2412a45c5645fd2f37764a3d2f05bf3ece7e6d18e23068022385d21c78b30b",
    ("linear", 3, 1e3, False):
        "9e8e7b534f1fe0ecebfbf6b6a115a85300cd1bfaa225fa46c8716c3b0ad586d4",
    ("linear", 3, 1e3, True):
        "5535352530f117f6c2563be3374f4cff8ba8c6a0b3ea3f5a24ad8de0159fa3ce",
}


@pytest.mark.parametrize("loss", ["logistic", "hinge", "linear"])
@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("radius", [0.3, 1e3])
@pytest.mark.parametrize("zeros", [False, True])
def test_engine_bytes_are_pinned(loss, b, radius, zeros):
    digest = engine_digest(mixed_rows(loss, b, zeros=zeros, radius=radius))
    assert digest == PINNED_ENGINE_DIGESTS[loss, b, radius, zeros]


@pytest.mark.parametrize("loss", ["logistic", "hinge"])
@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("radius", [0.3, 1e3])
def test_chunk_size_does_not_change_a_value(loss, b, radius, monkeypatch):
    # One-phase rows are shorter than the rest and leave mid-chunk unless a chunk is one step.
    rows = mixed_rows(loss, b, radius=radius)
    assert len({len(r.schedule.slots) for r in rows}) == 2
    runs = []
    for chunk_bytes in (1, 1 << 14, sgd.CHUNK_BYTES):
        monkeypatch.setattr(sgd, "CHUNK_BYTES", chunk_bytes)
        runs.append(run_batch(rows, snapshot_stride=1))
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
    rows = mixed_rows("logistic", 1, radius=radius)
    noisy = next(r for r in rows if r.oracles[0].noise_means is not None)
    oracle = noisy.oracles[0]
    oracle.noise_means = oracle.noise_means.copy()      # the oracle's own table is read-only
    oracle.noise_means[2, 0] = np.nan
    # That row's plan reads batch 2 of the oracle at step 3, and no row reads it sooner.
    assert noisy.schedule.slots[:3].tolist() == [0, 0, 0] and noisy.starts is None
    with pytest.raises(InfeasibleIterate, match=r"non-finite at step 3$"):
        run_batch(rows)


@pytest.mark.parametrize("kind", ["local_dp", "rcn"])
@pytest.mark.parametrize("b", [1, 3])
def test_einsum_calls_per_logistic_step(kind, b, monkeypatch):
    # Every step makes one margin einsum (plus the gradient's sum over the batch when
    # b > 1). A step the norm bound cannot place inside the ball adds one squared-row-norm
    # einsum. Each engine call adds three: the largest example and noise norms, and the
    # final feasibility check. At radius 0.3 the bound places no step inside; at 1e3 most.
    small, large = ([r for r in mixed_rows("logistic", b, radius=radius)
                     if r.oracles[0].spec.kind == kind] for radius in (0.3, 1e3))
    steps = max(len(r.schedule.slots) for r in small)
    einsum, calls = np.einsum, []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    run_batch(small)
    assert calls.count("rd,rd->r") == steps + 1
    assert len(calls) == (2 if b == 1 else 3) * steps + 3
    calls.clear()
    run_batch(large)
    assert calls.count("rbd,rd->rb") == steps
    assert calls.count("rb,rbd->rd") == (0 if b == 1 else steps)
    assert calls.count("nd,nd->n") == 2
    assert calls.count("rd,rd->r") - 1 < steps


@pytest.mark.parametrize("b", [1, 3])
def test_projected_counts_the_steps_the_reference_projects(b):
    rows = mixed_rows("logistic", b, radius=0.3)
    trajectories = run_batch(rows)
    for row, traj in zip(rows, trajectories):
        fresh = [GradientOracle(o.spec, o.objective, o.dataset) for o in row.oracles]
        fresh = fresh if row.noisy else [o.twin() for o in fresh]
        batch = list(row.starts or (0,) * len(fresh))
        w, hits = np.zeros(row.oracles[0].dataset.d) if row.w0 is None else row.w0, 0
        last = 0
        for t, slot in enumerate(row.schedule.slots, start=1):
            v = w - (row.schedule.rates[slot] / t) * fresh[slot].call(w, batch[slot])
            batch[slot] += 1
            w = project(v, 0.3)
            hits += w is not v
            last = t if w is not v else last
        assert (traj.projected, traj.last_projected) == (hits, last)
    assert any(t.projected for t in trajectories)
    assert all(t.projected == 0 for t in run_batch(mixed_rows("logistic", b, radius=1e3)))


def bound_rows(loss, b, radius):
    """mixed_rows, and for each mechanism two rows (noisy and twin) that repeat the first
    plan's first phase at another second rate."""
    rows = mixed_rows(loss, b, radius=radius)
    for first in rows[::15]:        # each mechanism's first plan, noisy
        steps = {"a": first.oracles[0].steps_total, "b": first.oracles[1].steps_total}
        other = Schedule.blocks((("a", 30.0), ("b", 4.0)), steps)
        rows += [Row(other, first.oracles), Row(other, first.oracles, False)]
    return rows


def aligned_rows(b, radius, flip_rate=0.45, plans=((1.0, 1.0), (3.0, 3.0), (3.0, 1.0))):
    """Runs over one repeated example u under the linear loss and lam = 1, so that every
    gradient is u (clean) or +-u / (1 - 2 sigma) (label flips): iterates move along u, and
    the norm bound is as tight as the flips allow. Rates 3 and 3 then 1 share their first
    phase. Without flips, runs at rate 1/2 creep towards the norm |u| = 1 from inside."""
    obj = ObjectiveSpec(lam=1.0, loss="linear", radius=radius)
    n = 40 * b
    ds = Dataset(np.tile([0.6, 0.8], (n, 1)), np.ones(n))
    rows = []
    for seed in range(4):
        flips = GradientOracle(OracleSpec("rcn", budget=n, batch_size=b, rng_seed=seed,
                                          sigma=flip_rate), obj, ds)
        clean = GradientOracle(OracleSpec("clean", budget=n, batch_size=b, rng_seed=seed),
                               obj, ds)
        for rates in plans:
            sched = Schedule(("a", "b"), rates, np.repeat([0, 1], [20, 20]))
            rows += [Row(sched, (flips, clean)), Row(sched, (clean, flips)),
                     Row(sched, (flips, clean), False)]
    return rows


BOUND_CASES = ([(loss, b, 50.0) for loss in ("logistic", "hinge", "linear") for b in (1, 3)]
               + [(case, b, radius) for case, radius in (("aligned", 3.0), ("creep", 0.9))
                  for b in (1, 3)])


@pytest.mark.parametrize("case,b,radius", BOUND_CASES)
def test_steps_the_norm_bound_passes_change_no_byte(case, b, radius, monkeypatch):
    # At lam = 0.1 the rates 30, 25 and 20 of bound_rows have c*lam >= 2, so the first
    # steps leave the ball of radius 50 and are projected; later the bound places whole
    # steps inside it. aligned_rows (rates 3 at lam = 1) do the same in a ball of radius 3.
    # Creeping runs reach the sphere of radius 0.9 late, after steps the bound passed.
    if case == "aligned":
        rows = aligned_rows(b, radius)
    elif case == "creep":
        rows = aligned_rows(b, radius, 0.0, ((0.5, 0.5), (0.5, 0.25)))
    else:
        rows = bound_rows(case, b, radius)
    bounded = run_batch(rows, snapshot_stride=1)
    monkeypatch.setattr(sgd, "_norm_bounds",
                        lambda t0, t1, *rest: (np.ones(t1 - t0), np.full(t1 - t0, np.inf)))
    exact = run_batch(rows, snapshot_stride=1)
    for got, want in zip(bounded, exact):
        assert got.final_w.tobytes() == want.final_w.tobytes()
        assert [(t, w.tobytes()) for t, w in got.iterates] == \
            [(t, w.tobytes()) for t, w in want.iterates]
        assert (got.projected, got.last_projected, got.shared) == \
            (want.projected, want.last_projected, want.shared)
        assert got.checked <= want.checked == want.steps - want.shared
    # Rows that were projected, then had steps the bound passed; and rows taken over.
    assert any(t.projected and t.checked < t.steps - t.shared for t in bounded)
    assert any(0 < t.shared < t.steps for t in bounded)


@pytest.mark.parametrize("c_lo,c_hi", [(1.0, 1.0), (0.5, 8.0), (3.0, 40.0)])
def test_norm_bounds_hold_where_the_triangle_inequality_is_tight(c_lo, c_hi):
    # The update, in the engine's operation order, of W, g and z along one direction, where
    # ||V|| meets the bound up to rounding: at both ends of the rates and between them, on
    # steps where c*lam/t is above 2, near 1 and small, with W of either orientation.
    lam, d = 0.5, 4
    eps = (1 + d + 8) * 2.0 ** -40          # the engine's eps at b=1
    a, e = sgd._norm_bounds(1, 80, c_lo, c_hi, lam, 3.0, eps)
    u = np.full(d, 0.5)
    g, z = 1.0 * u, 2.0 * u                  # ||g|| + ||z|| = 3
    for c in (c_lo, (c_lo + c_hi) / 2, c_hi):
        for t in range(1, 80):
            eta = np.full(d, c / t)
            for size in (0.0, 0.1, 1.0, 7.0, 1e3):
                for W in (size * u, -size * u):
                    V = W * lam
                    V += g
                    V += z
                    V *= eta
                    assert np.linalg.norm(W - V) <= a[t - 1] * size + e[t - 1]


def test_results_share_no_memory_with_each_other_or_the_engine():
    # Rows of two lengths, so the active rows shrink mid-run, and a radius at which the
    # projection scales rows on steps inside a chunk (one chunk ends where the short rows
    # do, at step 9, and the next at step 23).
    rows = mixed_rows("logistic", 1, radius=0.3)
    assert sorted({len(r.schedule.slots) for r in rows}) == [9, 23]
    first = run_batch(rows, snapshot_stride=1)

    def arrays(trajectories):
        return [a for t in trajectories for a in [t.final_w] + [w for _, w in t.iterates]]

    scaled = [t for traj in first for t, w in traj.iterates
              if t not in (1, 10) and np.linalg.norm(w) == pytest.approx(0.3, rel=1e-12)]
    assert scaled and any(traj.projected for traj in first)
    before = [a.copy() for a in arrays(first)]
    # Each result owns its bytes, so it shares them with no other result and no buffer.
    assert all(a.base is None and a.flags.owndata for a in arrays(first))
    assert len({a.ctypes.data for a in arrays(first)}) == len(before)
    second = run_batch(rows, snapshot_stride=1)
    assert not {a.ctypes.data for a in arrays(first)} & {a.ctypes.data for a in arrays(second)}
    assert all(a.tobytes() == b.tobytes() for a, b in zip(arrays(first), before))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(arrays(second), before))


def test_twin_rows_differ_from_noisy_rows_only_through_noise():
    rows = mixed_rows("logistic", 2, radius=1e3)
    trajectories = run_batch(rows)
    for i in range(0, len(rows), 3):
        noisy, twin = trajectories[i].final_w, trajectories[i + 1].final_w
        kind = rows[i].oracles[0].spec.kind
        assert np.array_equal(noisy, twin) == (kind == "clean")


def test_rows_do_not_consume_their_oracles():
    rows = mixed_rows("logistic", 1)
    oracles = {id(o): o for r in rows for o in r.oracles}.values()

    def table_bytes():
        return [[None if t is None else t.tobytes() for t in (o.order, o.noise_means, o.flips)]
                for o in oracles]

    before = table_bytes()
    first = run_batch(rows)
    assert table_bytes() == before
    again = run_batch(rows)
    assert [t.final_w.tobytes() for t in again] == [t.final_w.tobytes() for t in first]


def test_budget_overrun_rejected():
    rows = mixed_rows("logistic", 1)
    row = rows[0]
    with pytest.raises(hetsgd.BudgetExhausted):
        run_batch([Row(row.schedule, row.oracles, starts=(1, 0))])


def test_budget_overrun_names_the_first_slot_over_and_what_it_asks():
    # The check runs over every (row, slot) at once; a start too large for any integer
    # type still reads as the batch count it asks for.
    rows = mixed_rows("logistic", 1)
    row = rows[0]
    ids, (used_a, used_b) = row.schedule.ids, row.schedule.counts().tolist()
    budget_b = row.oracles[1].steps_total
    with pytest.raises(hetsgd.BudgetExhausted,
                       match=f"oracle {ids[1]!r} serves {budget_b} batches, "
                             f"a run asks for {used_b + 2}"):
        run_batch(rows[:2] + [Row(row.schedule, row.oracles, starts=(0, 2))])
    with pytest.raises(hetsgd.BudgetExhausted, match=f"asks for {2 ** 80 + used_a}$"):
        run_batch([Row(row.schedule, row.oracles, starts=(2 ** 80, 0))])
    with pytest.raises(ValueError, match="one oracle and one start"):
        run_batch([Row(row.schedule, row.oracles, starts=(0,))])
    with pytest.raises(ValueError, match="one oracle and one start"):
        run_batch([Row(row.schedule, row.oracles[:1])])


def test_a_schedule_keeps_a_read_only_copy_of_its_slots():
    # What a schedule derives from its slots at construction cannot go stale.
    slots = np.array([1, 0, 1, 1, 0])
    schedule = Schedule(("a", "b"), (1.0, 2.0), slots)
    slots[:] = 0
    assert schedule.slots.tolist() == [1, 0, 1, 1, 0]
    assert schedule.counts().tolist() == [2, 3]
    assert schedule._batch.tolist() == [0, 0, 1, 2, 1]
    assert schedule._firsts == ([1, 0], [0, 1])
    for derived in (schedule.slots, schedule.counts(), schedule._batch):
        with pytest.raises(ValueError, match="read-only"):
            derived[0] = 1
    with pytest.raises(ValueError, match="1-d"):
        Schedule(("a",), (1.0,), [[0, 0]])


@pytest.mark.parametrize("start", [-1, 0.5, True])
def test_negative_or_fractional_start_rejected(start):
    obj = ObjectiveSpec(lam=1.0, loss="linear")
    oracle = GradientOracle(OracleSpec("gaussian", budget=12, rng_seed=1, noise_sq=1.0), obj,
                            dataset(12, 3, 5))
    schedule = Schedule(("a",), (2.0,), [0, 0])
    with pytest.raises(ValueError, match="starts"):
        run_batch([Row(schedule, (oracle,), True, (start,))])


def test_fractional_schedule_slots_rejected():
    with pytest.raises(ValueError, match="integers"):
        Schedule(("a", "b"), (1.0, 1.0), [0.7, 0.2])


@pytest.mark.parametrize("ids,rates,match", [
    (("a", "a"), (1.0, 2.0), "each oracle id once"),
    ((), (), "at least one slot"),
    (("a", "b"), (1.0, True), r"'b' needs a real rate in \(0, inf\), got True"),
    (("a",), (np.True_,), "'a' needs a real rate"),
    (("a",), ("1.0",), "'a' needs a real rate"),
])
def test_schedule_rejects_repeated_ids_no_slots_and_rates_that_are_not_real(ids, rates, match):
    with pytest.raises(ValueError, match=match):
        Schedule(ids, rates, np.zeros(min(len(ids), 1), dtype=int))


def test_a_run_may_not_read_one_oracle_in_two_slots():
    # Reading an example twice breaks the one-pass model that local DP accounts for.
    obj = ObjectiveSpec(lam=1.0, loss="linear")
    oracle = GradientOracle(OracleSpec("local_dp", budget=20, rng_seed=1, epsilon=1.0), obj,
                            dataset(20, 3, 5))
    both = Schedule(("a", "b"), (10.0, 10.0), [0] * 20 + [1] * 20)
    with pytest.raises(RuntimeError, match="one oracle in two"):
        sgd.check_budgets([Row(both, (oracle, oracle))])
    # Disjoint slices of one oracle, through starts, are the engine's to read.
    halves = Schedule(("a", "b"), (10.0, 10.0), [0] * 10 + [1] * 10)
    traj, = run_batch([Row(halves, (oracle, oracle), starts=(0, 10))])
    assert traj.steps == 20


def test_a_batch_whose_objectives_differ_only_in_radius_is_rejected():
    ds = dataset(12, 3, 5)
    oracles = [GradientOracle(OracleSpec("clean", budget=12, rng_seed=1),
                              ObjectiveSpec(lam=1.0, loss="linear", radius=radius), ds)
               for radius in (1.0, 2.0)]
    schedule = Schedule(("a",), (1.0,), [0] * 12)
    assert all(t.steps == 12 for t in run_batch([Row(schedule, (oracles[0],))] * 2))
    with pytest.raises(ValueError, match="share objective"):
        run_batch([Row(schedule, (o,)) for o in oracles])


def test_w0_of_the_wrong_shape_rejected_before_the_budget_is_used(run_whole):
    obj = ObjectiveSpec(lam=1.0, loss="linear")
    oracle = GradientOracle(OracleSpec("clean", budget=12, rng_seed=1), obj, dataset(12, 3, 5))
    phases = (("a", 1.0),)
    with pytest.raises(ValueError, match="shape"):
        run_whole(phases, {"a": oracle}, w0=np.array([0.3]))
    with pytest.raises(ValueError, match="shape"):
        run_batch([Row(Schedule.blocks(phases, {"a": 12}), (oracle,), w0=np.array([0.3]))])


def test_snapshots_are_opt_in(run_whole):
    obj = ObjectiveSpec(lam=1.0, loss="linear", radius=np.inf)
    ds = dataset(12, 3, 5)

    def fresh():
        return {"a": GradientOracle(OracleSpec("clean", budget=12, rng_seed=1), obj, ds)}

    phases = (("a", 1.0),)
    assert run_whole(phases, fresh())[0].iterates is None
    # Every stride-th step and the last one.
    assert [t for t, _ in run_whole(phases, fresh(), snapshot_stride=5)[0].iterates] == [5, 10, 12]


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
    real_scale = sgd.scale_into_ball             # a projection that never projects:
    sgd.scale_into_ball = lambda w, sq, radius: np.zeros(len(sq), dtype=bool)
    obj = ObjectiveSpec(lam=1.0, loss="linear", radius=0.1)
    ds = Dataset(np.full((5, 2), 0.5), np.ones(5))
    oracle = GradientOracle(OracleSpec("clean", budget=5), obj, ds)
    try:
        schedule = sgd.Schedule.blocks((("a", 50.0),), {"a": 5})
        sgd.run_batch([sgd.Row(schedule, (oracle,))])
        print("feasibility unchecked")
    except sgd.InfeasibleIterate:
        print("feasibility checked")
    sgd.scale_into_ball = real_scale

    full_blocks = sgd.Schedule.blocks
    def short_blocks(phases, steps):             # drops each run's last step
        s = full_blocks(phases, steps)
        return sgd.Schedule(s.ids, s.rates, s.slots[:-1])
    sgd.Schedule.blocks = staticmethod(short_blocks)
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
    # The engine's expit is scipy's, loaded by the run's own process.
    assert meta["scipy"] == scipy.__version__
