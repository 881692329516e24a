"""The batched engine against the scalar reference path, run by run."""
import hashlib
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy

import hetsgd
from conftest import assert_pinned, prefix_iterates, prefix_rows, prefix_runs, windows
from hetsgd import experiments, sgd
from hetsgd.core import Dataset, ObjectiveSpec, project
from hetsgd.experiments import (ExperimentConfig, run_c2_sweep, run_order_experiment,
                                run_strategy_comparison)
from hetsgd.oracles import GradientOracle, OracleSpec, draw_tables
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


def reference_run(row: Row, as_row: bool = False) -> tuple:
    """(iterates, steps the projection scaled) of one row, stepped through
    GradientOracle.call on its oracles (or twins) and ``project``.

    With ``as_row`` the iterate is a (1, d) matrix and each batch index an array,
    so the oracle takes its margins and ``project`` its norms by the engine's
    einsums: the iterates then carry the engine's bytes at b = 1.
    """
    radius = row.oracles[0].objective.radius
    oracles = row.oracles if row.noisy else [o.twin() for o in row.oracles]
    batch = [0] * len(oracles)                            # the next batch of each slot
    w = np.zeros(row.oracles[0].dataset.d)
    if as_row:
        w = w[None, :]
    iterates, scaled = [], []
    for t, slot in enumerate(row.schedule.slots, start=1):
        g = oracles[slot].call(w, np.array([batch[slot]]) if as_row else batch[slot])
        batch[slot] += 1
        v = w - (row.schedule.rates[slot] / t) * g
        w = project(v, radius)
        if w is not v:
            scaled.append(t)
        iterates.append(w[0] if as_row else w)
    return iterates, scaled


def mixed_rows(loss, b, seed=0, zeros=False, radius=1.0, shared=False):
    """Every mechanism under a plan, its reverse, a one-phase plan, an interleaving and a
    shorter interleaving that reads each oracle from mid-budget on (through a view that
    starts at batch 4 of the first and 6 of the second), each noisy and as a twin, in the
    ball of the given radius. Each oracle draws its tables into a buffer of its
    own, or with ``shared`` all into one (``draw_tables``)."""
    lam, d = 0.1, 4
    obj = ObjectiveSpec(lam=lam, loss=loss, radius=radius)
    ds1, ds2 = dataset(8 * b + 1, d, seed, zeros), dataset(12 * b + 2, d, seed + 1, zeros)
    sources = [(GradientOracle(OracleSpec(kind, budget=len(ds1), batch_size=b,
                                          rng_seed=100 + m, **kw), obj, ds1),
                GradientOracle(OracleSpec(kind, budget=len(ds2), batch_size=b,
                                          rng_seed=200 + m, **kw), obj, ds2))
               for m, (kind, kw) in enumerate(MECHANISMS.items())]
    if shared:
        draw_tables([o for pair in sources for o in pair])
    rows = []
    for m, (first, second) in enumerate(sources):
        steps = {"a": first.steps_total, "b": second.steps_total}
        slots = np.repeat([0, 1], [steps["a"], steps["b"]])
        np.random.default_rng(m).shuffle(slots)
        late = np.repeat([0, 1], [3, steps["a"] - 3])     # as long as the one-phase plan
        np.random.default_rng(m + 10).shuffle(late)
        whole = (first, second)
        schedules = [(Schedule.blocks((("a", 30.0), ("b", 12.0)), steps), whole),
                     (Schedule.blocks((("b", 8.0), ("a", 20.0)), steps), whole[::-1]),
                     (Schedule.blocks((("a", 10.0),), steps), whole[:1]),
                     (Schedule(("a", "b"), (15.0, 15.0), slots), whole),
                     (Schedule(("a", "b"), (25.0, 5.0), late),
                      (windows(first, 4)[1], windows(second, 6)[1]))]
        for sched, pair in schedules:
            rows += [Row(sched, pair), Row(sched, pair, False)]
    return rows


@pytest.mark.parametrize("loss", ["logistic", "hinge", "linear"])
@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("radius,active", [(0.3, True), (1e3, False)])
def test_engine_matches_scalar_reference_run_by_run(loss, b, radius, active):
    rows = mixed_rows(loss, b, radius=radius)
    hit = False
    for row, traj, iterates in zip(rows, run_batch(rows), prefix_iterates(rows)):
        ref, _ = reference_run(row)
        assert traj.steps == len(ref)
        assert [t for t, _ in iterates] == list(range(1, len(ref) + 1))
        np.testing.assert_allclose(np.array([w for _, w in iterates]), np.array(ref),
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(traj.final_w, ref[-1], rtol=1e-12, atol=1e-15)
        hit |= any(np.linalg.norm(w) >= radius * (1 - 1e-12) for w in ref)
    assert hit == active


@pytest.mark.parametrize("T,b", [(100, 3), (300, 300)])
def test_batch_offsets_past_the_range_of_the_narrow_step_table(T, b):
    # Batch indices below T = 100 fit uint8 and below T = 300 uint16, while the offsets k*b
    # reach 297 and 89,700, past either dtype's range.
    obj = ObjectiveSpec(lam=0.1, loss="linear", radius=1e3)
    oracle = GradientOracle(OracleSpec("local_dp", budget=T * b, batch_size=b, epsilon=2.0),
                            obj, dataset(T * b, 2, 4))
    row = Row(Schedule.blocks((("a", 10.0),), {"a": T}), (oracle,))
    ref, _ = reference_run(row)
    np.testing.assert_allclose(run_batch([row])[0].final_w, ref[-1], rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("radius", [0.3, 1e3])
@pytest.mark.parametrize("zeros", [False, True])
def test_logistic_b1_rows_without_flips_step_the_reference_paths_bytes(radius, zeros):
    # Without the rcn rows, every step of a logistic b = 1 call takes the step body's
    # logistic b = 1 branches, as every order-exp step does. Row by row and step by step it
    # gives the bytes of the reference path run as a (1, d) row.
    rows = [r for r in mixed_rows("logistic", 1, zeros=zeros, radius=radius)
            if r.oracles[0].spec.kind != "rcn"]
    trajectories = run_batch(rows)
    for row, traj, iterates in zip(rows, trajectories, prefix_iterates(rows)):
        ref, scaled = reference_run(row, as_row=True)
        assert [w.tobytes() for _, w in iterates] == [w.tobytes() for w in ref]
        assert traj.final_w.tobytes() == ref[-1].tobytes()
        assert (traj.projected, traj.last_projected) == (len(scaled), max(scaled, default=0))
    assert any(t.projected for t in trajectories) == (radius < 1)


def engine_digest(rows):
    """sha256 over every row's iterates (step and iterate bytes, ``prefix_iterates``) and its
    final iterate."""
    h = hashlib.sha256()
    for traj, iterates in zip(run_batch(rows), prefix_iterates(rows)):
        for t, w in iterates:
            h.update(t.to_bytes(4, "little") + w.tobytes())
        h.update(traj.final_w.tobytes())
    return h.hexdigest()


# Digests of the engine's bytes on mixed_rows(loss, b, zeros=zeros) at each radius: a leaner
# step must give the same bits for every loss, mechanism and batch size, also on features
# with exact zeros (where only the sign of a zero could tell two products apart).
# Recorded on conftest.PINNED_BUILD.
PINNED_ENGINE_DIGESTS = {
    ("logistic", 1, 0.3, False):
        "5ecfcfd8731eb516529245f444d44d33c213bf1097271178f1fc9e669c49fb0d",
    ("logistic", 1, 0.3, True):
        "edb9c636b52773e06f3a67380402a324c0ae26e7db9656fd6b8b494f42e251df",
    ("logistic", 1, 1e3, False):
        "dbcff933c978372e71f751ba1217322069a00f5a7c43ed5da89d6b82c13bf067",
    ("logistic", 1, 1e3, True):
        "09bd63b9dc5b12ae951908514209e4feede28a24536edd4a396348f397f4b41e",
    ("logistic", 3, 0.3, False):
        "1eea0026e3c83698d5e99243a60ae00f24801e5e4b9ca71cccbb5b28e6feb65c",
    ("logistic", 3, 0.3, True):
        "1078d22fa016959cba15d75e93016cfb7a7aa3454adb818e529db5f3c1e2dd43",
    ("logistic", 3, 1e3, False):
        "a6f20d056351f5daf61a8ef836b2ed3a35add612ee967cbdfb740388a429b1d2",
    ("logistic", 3, 1e3, True):
        "01daa829c9700317caef7814afb9d50cbbf1828519a676cc9367745596691f66",
    ("hinge", 1, 0.3, False):
        "a498875c745bc072f74b3aa337faa6bcd296b2c08e3eca8dcb5ae60819448766",
    ("hinge", 1, 0.3, True):
        "728e6c155c9c8ac0db90e9faff7cd61313aacfb0983c4dd13b4cffdb619e910a",
    ("hinge", 1, 1e3, False):
        "f7d386a5e0671e8931b00a03bb7206124fb2223d759e4391c57d3812440e70fb",
    ("hinge", 1, 1e3, True):
        "3de4fc57d03f993a1a4abe3f462a5e38a5fa34e86110e11dd56cab7e91e5ad1d",
    ("hinge", 3, 0.3, False):
        "6133b7793be889bb4c472ff9f9b693606bf7bbe2d6796254af0bca56c010221b",
    ("hinge", 3, 0.3, True):
        "6582e431a3f39214ab93b78c631b887442054855950515137714ed3eec8386e1",
    ("hinge", 3, 1e3, False):
        "050f59bae391dcf3174a8d28b9f55c816b92687cc4eb8854b61fab576d17f342",
    ("hinge", 3, 1e3, True):
        "184d7c0a3869a289b533afa0dc75e01a4dfab70b496e1f8811ba4a1048e99a91",
    ("linear", 1, 0.3, False):
        "a498875c745bc072f74b3aa337faa6bcd296b2c08e3eca8dcb5ae60819448766",
    ("linear", 1, 0.3, True):
        "728e6c155c9c8ac0db90e9faff7cd61313aacfb0983c4dd13b4cffdb619e910a",
    ("linear", 1, 1e3, False):
        "39157155aec222e20d3d4ce50e80c8c5a3ac6d1b429e9de3163e7545e7177d6f",
    ("linear", 1, 1e3, True):
        "eec1435e78562f55ca17962bb9eb6b2a7367afe3e5e32b957f3bbc0cfb276d90",
    ("linear", 3, 0.3, False):
        "6133b7793be889bb4c472ff9f9b693606bf7bbe2d6796254af0bca56c010221b",
    ("linear", 3, 0.3, True):
        "6582e431a3f39214ab93b78c631b887442054855950515137714ed3eec8386e1",
    ("linear", 3, 1e3, False):
        "5023d54be280f756dbfb2afe519da7109a881b797d6fc07a7d91054ab60aca5b",
    ("linear", 3, 1e3, True):
        "dcc9f7beca34d2c6c36d8613534a5da86596d4ba41e0b97da481c057794a035b",
}


@pytest.mark.parametrize("loss", ["logistic", "hinge", "linear"])
@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("radius", [0.3, 1e3])
@pytest.mark.parametrize("zeros", [False, True])
def test_engine_bytes_are_pinned(loss, b, radius, zeros):
    digest = engine_digest(mixed_rows(loss, b, zeros=zeros, radius=radius))
    assert_pinned(digest, PINNED_ENGINE_DIGESTS[loss, b, radius, zeros])


@pytest.mark.parametrize("loss", ["logistic", "hinge"])
@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("radius", [0.3, 1e3])
def test_chunk_size_does_not_change_a_value(loss, b, radius, monkeypatch):
    # One-phase rows are shorter than the rest and leave mid-chunk unless a chunk is one step.
    # The cuts of one length run in a call of their own, so their chunks hold as many steps
    # as CHUNK_BYTES lets them; one call over all cuts has one-step spans, so at one-step
    # chunks it is the same run.
    rows = mixed_rows(loss, b, radius=radius)
    assert len({len(r.schedule.slots) for r in rows}) == 2
    runs = []
    for chunk_bytes in (1, 1 << 14, sgd.CHUNK_BYTES):
        monkeypatch.setattr(sgd, "CHUNK_BYTES", chunk_bytes)
        iterates = prefix_iterates(rows, by_length=chunk_bytes > 1)
        runs.append([(traj.final_w.tobytes(), [(t, w.tobytes()) for t, w in row_iterates])
                     for traj, row_iterates in zip(run_batch(rows), iterates)])
    assert runs[0] == runs[1] == runs[2]


def test_prefix_rows_in_one_call_match_each_prefix_row_run_alone():
    # prefix_iterates runs every cut of every row in one call, where cuts of one row share
    # their first run with the row's longest cut; a cut run alone shares nothing. The rows
    # of the first mechanism (10 rows, 174 cuts) keep each plan and twin.
    cuts = prefix_rows(mixed_rows("logistic", 1, radius=0.3)[:10])
    together = run_batch(cuts)
    assert sum(t.shared for t in together) > 0 and sum(t.projected for t in together) > 0
    for cut, traj in zip(cuts, together):
        alone, = run_batch([cut])
        assert alone.shared == 0
        assert (traj.final_w.tobytes(), traj.steps, traj.projected, traj.last_projected) == \
            (alone.final_w.tobytes(), alone.steps, alone.projected, alone.last_projected)


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
    assert noisy.schedule.slots[:3].tolist() == [0, 0, 0]
    with pytest.raises(InfeasibleIterate, match=r"non-finite at step 3$"):
        run_batch(rows)


@pytest.mark.parametrize("kind", ["local_dp", "rcn"])
@pytest.mark.parametrize("b", [1, 3])
def test_einsum_calls_per_logistic_step(kind, b, monkeypatch):
    # Every step makes one margin einsum (plus the gradient's sum over the batch when
    # b > 1). A step the norm bound cannot place inside the ball adds one squared-row-norm
    # einsum. Each engine call adds two: the largest noise norm and the final feasibility
    # check. The largest example norm is its dataset's, computed once per dataset (here
    # before counting), not once per call. At radius 0.3 the bound places no step inside;
    # at 1e3 most.
    small, large = ([r for r in mixed_rows("logistic", b, radius=radius)
                     if r.oracles[0].spec.kind == kind] for radius in (0.3, 1e3))
    steps = max(len(r.schedule.slots) for r in small)
    for r in small + large:
        for o in r.oracles:
            o.dataset.max_square_norm
    einsum, calls = np.einsum, []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    run_batch(small)
    assert calls.count("rd,rd->r") == steps + 1
    assert len(calls) == (2 if b == 1 else 3) * steps + 2
    calls.clear()
    run_batch(large)
    assert calls.count("rbd,rd->rb") == steps
    assert calls.count("rb,rbd->rd") == (0 if b == 1 else steps)
    assert calls.count("nd,nd->n") == 1
    assert calls.count("rd,rd->r") - 1 < steps


@pytest.mark.parametrize("b", [1, 3])
def test_projected_counts_the_steps_the_reference_projects(b):
    rows = mixed_rows("logistic", b, radius=0.3)
    trajectories = run_batch(rows)
    for row, traj in zip(rows, trajectories):
        _, scaled = reference_run(row)
        assert (traj.projected, traj.last_projected) == (len(scaled), max(scaled, default=0))
    assert any(t.projected for t in trajectories)
    assert all(t.projected == 0 for t in run_batch(mixed_rows("logistic", b, radius=1e3)))


def bound_rows(loss, b, radius):
    """mixed_rows, and for each mechanism two rows (noisy and twin) that repeat the first
    plan's first phase at another second rate."""
    rows = mixed_rows(loss, b, radius=radius)
    for first in rows[::10]:        # each mechanism's first plan, noisy
        steps = {"a": first.oracles[0].steps_total, "b": first.oracles[1].steps_total}
        other = Schedule.blocks((("a", 30.0), ("b", 4.0)), steps)
        rows += [Row(other, first.oracles), Row(other, first.oracles, False)]
    return rows


def aligned_rows(b, radius, flip_rate=0.45, plans=((1.0, 1.0), (3.0, 3.0), (3.0, 1.0))):
    """Runs over one repeated example u under the linear loss and lam = 1, so that every
    gradient is u (clean) or +-u / (1 - 2 sigma) (label flips): iterates move along u, and
    the norm bound is as tight as the flips allow. Rates 3 and 3 then 1 share their first
    phase. Without flips, runs at rate 1/2 creep towards the norm |u| = 1 from inside.
    Each source has its own copies of u, so that no run reads one example twice."""
    obj = ObjectiveSpec(lam=1.0, loss="linear", radius=radius)
    n = 40 * b
    ds_flips, ds_clean = (Dataset(np.tile([0.6, 0.8], (n, 1)), np.ones(n)) for _ in range(2))
    rows = []
    for seed in range(4):
        flips = GradientOracle(OracleSpec("rcn", budget=n, batch_size=b, rng_seed=seed,
                                          sigma=flip_rate), obj, ds_flips)
        clean = GradientOracle(OracleSpec("clean", budget=n, batch_size=b, rng_seed=seed),
                               obj, ds_clean)
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

    def runs():
        # The rows, then each row's cuts run alone (one span each, so the bound can pass
        # steps inside a cut as it does inside the row).
        return run_batch(rows) + [traj for cuts in prefix_runs(rows, by_length=True)
                                  for _, traj in cuts]

    bounded = runs()
    monkeypatch.setattr(sgd, "_norm_bounds",
                        lambda t0, t1, *rest: (np.ones(t1 - t0), np.full(t1 - t0, np.inf)))
    exact = runs()
    for got, want in zip(bounded, exact, strict=True):
        assert got.final_w.tobytes() == want.final_w.tobytes()
        assert (got.projected, got.last_projected, got.shared) == \
            (want.projected, want.last_projected, want.shared)
        assert got.checked <= want.checked == want.steps - want.shared
    # Rows and cuts that were projected, then had steps the bound passed; rows taken over.
    rows_bounded, cuts_bounded = bounded[:len(rows)], bounded[len(rows):]
    for trajectories in (rows_bounded, cuts_bounded):
        assert any(t.projected and t.checked < t.steps - t.shared for t in trajectories)
    assert any(0 < t.shared < t.steps for t in rows_bounded)


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
    first = run_batch(rows)

    def arrays(trajectories):
        return [t.final_w for t in trajectories]

    scaled = [t for iterates in prefix_iterates(rows) for t, w in iterates
              if t not in (1, 10) and np.linalg.norm(w) == pytest.approx(0.3, rel=1e-12)]
    assert scaled and any(traj.projected for traj in first)
    before = [a.copy() for a in arrays(first)]
    # Each result owns its bytes, so it shares them with no other result and no buffer.
    assert all(a.base is None and a.flags.owndata for a in arrays(first))
    assert len({a.ctypes.data for a in arrays(first)}) == len(before)
    second = run_batch(rows)
    assert not {a.ctypes.data for a in arrays(first)} & {a.ctypes.data for a in arrays(second)}
    assert all(a.tobytes() == b.tobytes() for a, b in zip(arrays(first), before))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(arrays(second), before))


def test_twin_rows_differ_from_noisy_rows_only_through_noise():
    rows = mixed_rows("logistic", 2, radius=1e3)
    trajectories = run_batch(rows)
    for i in range(0, len(rows), 2):
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


def table_buffers(rows, names=("noise_means", "flips")) -> list:
    """The distinct buffers behind the tables ``names`` that ``rows`` read."""
    tables = [t for r in rows for o in r.oracles for t in (getattr(o, n) for n in names)
              if t is not None]
    return list({id(b): b for b in (t if t.base is None else t.base for t in tables)}.values())


@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("radius", [0.3, 1e3])
def test_tables_drawn_together_or_apart_give_the_same_bytes(b, radius):
    # Noisy, twin, noiseless and rcn rows, and views from mid-budget on: read in place
    # from one buffer of each kind, or stacked from a buffer per oracle.
    apart, together = (mixed_rows("logistic", b, radius=radius, shared=shared)
                       for shared in (False, True))
    assert len(table_buffers(apart)) == 6 and len(table_buffers(together)) == 2
    assert len(table_buffers(apart, ["order"])) == 8
    assert len(table_buffers(together, ["order"])) == 1
    for x, y in zip(run_batch(apart), run_batch(together)):
        assert x.final_w.tobytes() == y.final_w.tobytes()
        assert (x.projected, x.shared, x.checked, x.last_projected) == \
            (y.projected, y.shared, y.checked, y.last_projected)


def test_an_engine_call_holds_no_second_copy_of_its_noise_tables():
    # b = 1, d = 50 and a long budget: a call's noise tables and its stacked examples are
    # T x d floats each, and everything else it holds about 1 float per step. So the call
    # adds about 1.25 times the tables at its peak; a copy of the tables would add 2.25.
    obj = ObjectiveSpec(lam=0.01)
    ds = dataset(10_000, 50, 3)
    oracles = [GradientOracle(OracleSpec("local_dp", budget=5_000, rng_seed=s, epsilon=3.0),
                              obj, ds.subset(part))
               for s, part in enumerate((slice(0, 5_000), slice(5_000, None)))]
    draw_tables(oracles)
    table_bytes = sum(o.noise_means.nbytes for o in oracles)
    schedule = Schedule.blocks((("a", 50.0), ("b", 50.0)), {"a": 5_000, "b": 5_000})
    rows = [Row(schedule, tuple(oracles), noisy) for noisy in (True, False)]
    first = run_batch(rows)        # and scipy's import, which a call makes only once
    tracemalloc.start()
    try:
        again = run_batch(rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * table_bytes
    assert [t.final_w.tobytes() for t in again] == [t.final_w.tobytes() for t in first]


def test_an_engine_call_holds_one_chunk_of_gathers_at_a_time():
    # b = 50 and 600 rows over 200 examples: one step's gathers (each row's examples,
    # their indices, noise and step size) outweigh the stacked examples U 200 times, so
    # a chunk is one step. The call adds U, its step buffers (about 0.15 of one step's
    # gathers here) and one chunk's gathers at a time; a chunk still held while the next
    # one gathers adds a second.
    b, d, n = 50, 10, 200
    ds = dataset(n, d, 4)
    oracle = GradientOracle(OracleSpec("local_dp", budget=n, batch_size=b, rng_seed=1,
                                       epsilon=3.0), ObjectiveSpec(lam=0.01), ds)
    # Distinct rates, so that no row takes over another's first run.
    rows = [Row(Schedule(("a",), (c,), np.zeros(n // b, dtype=np.intp)), (oracle,))
            for c in 10.0 + np.arange(600)]
    step_bytes = len(rows) * 8 * (b * (d + 3) + 2 * d + 4)
    assert sgd.CHUNK_BYTES < step_bytes
    first = run_batch(rows)
    tracemalloc.start()
    try:
        again = run_batch(rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ds.X.nbytes + 1.5 * step_bytes
    assert [t.final_w.tobytes() for t in again] == [t.final_w.tobytes() for t in first]


def test_a_driver_block_draws_its_tables_into_one_buffer_of_each_kind(monkeypatch):
    calls = []
    monkeypatch.setattr(experiments, "run_batch", lambda rows: calls.append(rows) or
                        run_batch(rows))
    for oracles in ({}, {"oracles": RCN_ORACLES}):
        run_order_experiment(small_config(**OWN_KEYS[run_order_experiment], **oracles))
    assert len(calls) == 2
    assert all(len(table_buffers(rows)) == len(table_buffers(rows, ["order"])) == 1
               for rows in calls)


def test_permutations_drawn_at_another_batch_size_give_the_same_bytes():
    # Permutations drawn with oracles of another batch size lie in rows of one entry; a
    # call at b = 3 copies them, with the same values as when they were drawn alone.
    obj = ObjectiveSpec(lam=0.1, radius=0.5)
    ds = dataset(40, 3, 5)
    def build():
        return [GradientOracle(OracleSpec("clean", budget=20, batch_size=b, rng_seed=b), obj,
                               ds.subset(np.arange(20 * i, 20 * i + 20)))
                for i, b in enumerate((3, 1))]
    alone, mixed = build(), build()
    draw_tables(mixed)
    assert mixed[0].order.base.shape[1] == 1
    rows = [Row(Schedule.blocks((("a", 2.0),), {"a": 6}), (o[0],)) for o in (alone, mixed)]
    assert [t.final_w.tobytes() for t in run_batch(rows[:1])] == \
        [t.final_w.tobytes() for t in run_batch(rows[1:])]


def test_an_engine_call_copies_only_the_tables_drawn_apart(monkeypatch):
    # Drawn together, a call's permutations, noise and flip tables are read in place, and
    # only the datasets' features and labels are stacked; drawn apart, each kind is copied.
    stacked, stack = [], sgd._stack_tables
    monkeypatch.setattr(sgd, "_stack_tables",
                        lambda tables, lead: stacked.append(lead.dtype.name) or stack(tables, lead))
    for shared, copied in ((True, []), (False, ["bool", "float64", np.dtype(np.intp).name])):
        stacked.clear()
        run_batch(mixed_rows("logistic", 1, shared=shared))
        assert sorted(stacked) == sorted(["float64", "float64", *copied])


def test_a_driver_holds_one_blocks_tables_at_a_time(monkeypatch):
    # Once a block is scored, no name still holds its rows, whose oracles hold its tables.
    earlier, alive = [], []

    def spy(rows):
        alive.append(sum(ref() is not None for ref in earlier))
        earlier.extend(weakref.ref(b) for b in table_buffers(rows, ["order", "noise_means"]))
        return run_batch(rows)

    monkeypatch.setattr(experiments, "run_batch", spy)
    monkeypatch.setattr(experiments, "BATCH_BYTES", 1)     # one trial per engine call
    run_order_experiment(small_config(**OWN_KEYS[run_order_experiment]))
    assert alive == [0, 0, 0]


def longer(schedule: Schedule, slot: int, extra: int) -> Schedule:
    """``schedule`` with ``extra`` more steps of ``slot`` at its end."""
    return Schedule(schedule.ids, schedule.rates,
                    np.concatenate([schedule.slots, np.full(extra, slot)]))


def test_budget_overrun_rejected():
    rows = mixed_rows("logistic", 1)
    row = rows[0]
    with pytest.raises(hetsgd.BudgetExhausted):
        run_batch([Row(longer(row.schedule, 0, 1), row.oracles)])


def test_budget_overrun_names_the_first_slot_over_and_what_it_asks():
    # The check runs over every (row, slot) at once.
    rows = mixed_rows("logistic", 1)
    row = rows[0]
    ids, (used_a, used_b) = row.schedule.ids, row.schedule.counts().tolist()
    budget_a, budget_b = (o.steps_total for o in row.oracles)
    assert (used_a, used_b) == (budget_a, budget_b)
    with pytest.raises(hetsgd.BudgetExhausted,
                       match=f"oracle {ids[1]!r} serves {budget_b} batches, "
                             f"a run asks for {used_b + 2}$"):
        run_batch(rows[:2] + [Row(longer(row.schedule, 1, 2), row.oracles)])
    with pytest.raises(hetsgd.BudgetExhausted,
                       match=f"oracle {ids[0]!r} serves {budget_a} batches, "
                             f"a run asks for {used_a + 3}$"):
        run_batch([Row(longer(longer(row.schedule, 1, 1), 0, 3), row.oracles)])
    with pytest.raises(ValueError, match="one oracle per schedule slot"):
        run_batch([Row(row.schedule, row.oracles[:1])])


def test_a_schedule_keeps_a_read_only_copy_of_its_slots():
    # What a schedule derives from its slots at construction cannot go stale.
    slots = np.array([1, 0, 1, 1, 0])
    schedule = Schedule(("a", "b"), (1.0, 2.0), slots)
    slots[:] = 0
    assert schedule.slots.tolist() == [1, 0, 1, 1, 0]
    assert schedule.counts().tolist() == [2, 3]
    assert schedule._batch.tolist() == [0, 0, 1, 2, 1]
    assert schedule._key == np.array([1, 0, 1, 1, 0], dtype=np.intp).tobytes()
    for derived in (schedule.slots, schedule.counts(), schedule._batch):
        with pytest.raises(ValueError, match="read-only"):
            derived[0] = 1
    with pytest.raises(ValueError, match="1-d"):
        Schedule(("a",), (1.0,), [[0, 0]])


def test_fractional_schedule_slots_rejected():
    with pytest.raises(ValueError, match="integers"):
        Schedule(("a", "b"), (1.0, 1.0), [0.7, 0.2])


@pytest.mark.parametrize("ids,rates,match", [
    (("a", "a"), (1.0, 2.0), "each oracle id once"),
    ((), (), "at least one slot"),
    (("a", "b"), (1.0, True), "^the rate of oracle 'b' must be a number, not a bool, got True"),
    (("a",), (np.True_,), "^the rate of oracle 'a' must be a number, not a bool"),
    (("a",), ("1.0",), r"^the rate of oracle 'a' must be a number in \(0, inf\), got '1.0'"),
])
def test_schedule_rejects_repeated_ids_no_slots_and_rates_that_are_not_real(ids, rates, match):
    with pytest.raises(ValueError, match=match):
        Schedule(ids, rates, np.zeros(min(len(ids), 1), dtype=int))


def test_a_run_may_not_read_one_oracle_in_two_slots():
    # Reading an example twice breaks the one-pass model that local DP accounts for, and
    # run_batch itself refuses it, before any step and whatever else the call holds.
    obj = ObjectiveSpec(lam=1.0, loss="linear")
    oracle = GradientOracle(OracleSpec("local_dp", budget=20, rng_seed=1, epsilon=1.0), obj,
                            dataset(20, 3, 5))
    other = GradientOracle(OracleSpec("clean", budget=20, rng_seed=2), obj, dataset(20, 3, 6))
    both = Schedule(("a", "b"), (10.0, 10.0), [0] * 20 + [1] * 20)
    three = Schedule(("c", "a", "b"), (1.0, 10.0, 10.0), [0] * 20 + [1] * 20 + [2] * 20)
    for rows in ([Row(both, (oracle, oracle))],
                 [Row(both, (other, oracle)), Row(three, (other, oracle, oracle), False)]):
        with pytest.raises(hetsgd.BudgetExhausted,
                           match="one oracle in two slots, 'a' and 'b'"):
            run_batch(rows)
    # The rule is keyed on the examples a slot reads, not on the oracle object: an oracle's
    # twin and an oracle rebuilt from its spec and dataset read the same examples, and so
    # does, in another order, an oracle over the same dataset with another seed.
    once_each = Schedule(("a", "b"), (1.0, 1.0), [0] * 20 + [1] * 20)
    for again, what in ((oracle.twin(), "one oracle"),
                        (GradientOracle(oracle.spec, oracle.objective, oracle.dataset),
                         "one oracle"),
                        (GradientOracle(OracleSpec("local_dp", budget=20, rng_seed=9, epsilon=1.0),
                                        obj, oracle.dataset), "one dataset")):
        with pytest.raises(hetsgd.BudgetExhausted, match=f"{what} in two slots, 'a' and 'b'"):
            run_batch([Row(once_each, (oracle, again))])
    # A slot may not read past its oracle's budget either: 21 steps of 20 batches.
    with pytest.raises(hetsgd.BudgetExhausted, match="serves 20 batches, a run asks for 21"):
        run_batch([Row(Schedule(("a",), (10.0,), [0] * 21), (oracle,))])
    # A row has no per-slot start batch, so it cannot read from mid-budget on.
    halves = Schedule(("a", "b"), (10.0, 10.0), [0] * 15 + [1] * 15)
    with pytest.raises(TypeError, match="starts"):
        Row(halves, (oracle, oracle), starts=(0, 5))
    # Disjoint views of one oracle are disjoint whole budgets, each read once.
    traj, = run_batch([Row(Schedule(("a", "b"), (10.0, 10.0), [0] * 10 + [1] * 10),
                           tuple(windows(oracle, 10)))])
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


def test_a_row_of_no_steps_ends_at_zero_beside_rows_that_step():
    # Every run starts at w = 0, noisy or as the twin, whatever its neighbours do.
    obj = ObjectiveSpec(lam=0.1, loss="logistic", radius=0.3)
    oracle = GradientOracle(OracleSpec("local_dp", budget=6, rng_seed=3, epsilon=2.0), obj,
                            dataset(6, 4, 1))
    empty, full = (Schedule(("a",), (5.0,), np.zeros(n, dtype=int)) for n in (0, 6))
    batch = run_batch([Row(empty, (oracle,)), Row(full, (oracle,)),
                       Row(empty, (oracle,), False)])
    assert batch[1].steps == 6 and np.any(batch[1].final_w != 0.0)
    for traj in batch[::2]:
        assert (traj.steps, traj.projected, traj.shared, traj.last_projected) == (0, 0, 0, 0)
        assert traj.final_w.tobytes() == np.zeros(4).tobytes()


def small_config(**overrides):
    base = {
        "problem": {"loss": "logistic", "lam": 0.01},
        "data": {"kind": "synthetic", "d": 4, "n": 240, "flip_rate": 0.1},
        "oracles": {"kind": "local_dp", "epsilon_clean": 10.0, "epsilon_noisy": 2.0,
                     "batch_size": 10},
        "beta_c": 0.25,
        "trials": 3,
        "master_seed": 42,
        "c2_grid_points": 4,
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


# The list keys each driver reads; a driver rejects a list key it does not read.
OWN_KEYS = {run_order_experiment: {"c_grid": (50.0, 200.0)},
            run_strategy_comparison: {"epsilon_noisy_sweep": (2.0, 5.0)},
            run_c2_sweep: {}}
# Test ids stay as they were before the three drivers shared one runner, so that results
# of these cases stay comparable across commits.
CASE_IDS = {run_order_experiment: "order_experiment_details",
            run_strategy_comparison: "strategy_comparison_details",
            run_c2_sweep: "c2_sweep_details"}


@pytest.mark.parametrize("run", [pytest.param(run, id=name) for run, name in CASE_IDS.items()])
def test_trial_values_do_not_depend_on_the_batch(run, monkeypatch):
    few = run(small_config(trials=3, **OWN_KEYS[run])).values
    many = run(small_config(trials=8, **OWN_KEYS[run])).values
    monkeypatch.setattr(experiments, "BATCH_BYTES", 1)     # one trial per engine call
    split = run(small_config(trials=8, **OWN_KEYS[run])).values
    assert set(few) == set(many) == set(split)
    for key in few:
        np.testing.assert_array_equal(many[key][:3], few[key])
        np.testing.assert_array_equal(split[key], many[key])


RCN_ORACLES = {"kind": "rcn", "sigma_clean": 0.0, "sigma_noisy": 0.3, "batch_size": 5}


@pytest.mark.parametrize("run,overrides", [
    pytest.param(run, overrides, id=f"{CASE_IDS[run]}-overrides{i}") for i, (run, overrides) in
    enumerate([(run_order_experiment, {}), (run_order_experiment, {"oracles": RCN_ORACLES}),
               (run_strategy_comparison, {}), (run_c2_sweep, {})])])
def test_trial_values_do_not_depend_on_the_chunk(run, overrides, monkeypatch):
    # Interleaved (AO) rows, twins, rcn flips and shorter CleanOnly rows, one step per chunk.
    chunked = run(small_config(**OWN_KEYS[run], **overrides)).values
    monkeypatch.setattr(sgd, "CHUNK_BYTES", 1)
    stepwise = run(small_config(**OWN_KEYS[run], **overrides)).values
    assert set(chunked) == set(stepwise)
    for key in chunked:
        assert chunked[key].tobytes() == stepwise[key].tobytes()


def test_an_order_experiment_trial_steps_the_reference_paths_bytes(monkeypatch):
    # One order-exp trial at b = 1, logistic and without label flips: CF, NF and AO rows,
    # noisy and twin, below and above c = 1/lam = 100, with
    # the projection active. At this seed both AO rows open with the clean source, so each
    # takes over the first run of the CF row at its rate.
    calls = []
    monkeypatch.setattr(experiments, "run_batch", lambda rows: calls.append(rows) or
                        run_batch(rows))
    run_order_experiment(small_config(trials=1, master_seed=7, c_grid=(50.0, 200.0), oracles={
        "kind": "local_dp", "epsilon_clean": 10.0, "epsilon_noisy": 2.0, "batch_size": 1}))
    rows, = calls
    trajectories = run_batch(rows)
    assert len(rows) == 12 and {r.oracles[0].spec.batch_size for r in rows} == {1}
    assert [t.shared > 0 for t in trajectories] == [False] * 4 + [True] * 2 + \
        [False] * 4 + [True] * 2
    assert sum(t.projected for t in trajectories) > 0
    for row, traj in zip(rows, trajectories):
        iterates, scaled = reference_run(row, as_row=True)
        assert traj.final_w.tobytes() == iterates[-1].tobytes()
        assert (traj.projected, traj.last_projected) == (len(scaled), max(scaled, default=0))


def test_rcn_order_experiment_runs_batched():
    cfg = small_config(oracles=RCN_ORACLES, **OWN_KEYS[run_order_experiment])
    rows, tv, _ = run_order_experiment(cfg)
    assert all(np.all(np.isfinite(v)) and np.all(v >= 0) for v in tv.values())


OPTIMIZED_CHECKS = textwrap.dedent("""
    import sys
    import numpy as np
    import hetsgd.sgd as sgd
    from hetsgd.core import Dataset, ObjectiveSpec
    from hetsgd.experiments import ExperimentConfig, run_strategy_comparison
    from hetsgd.oracles import GradientOracle, OracleSpec, draw_tables

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
    try:                                         # one oracle in two slots of a run
        both = sgd.Schedule(("a", "b"), (1.0, 1.0), [0] * 5 + [1] * 5)
        sgd.run_batch([sgd.Row(both, (oracle, oracle))])
        print("one pass unchecked")
    except sgd.BudgetExhausted:
        print("one pass checked")

    full_blocks = sgd.Schedule.blocks
    def short_blocks(phases, steps):             # drops each run's last step
        s = full_blocks(phases, steps)
        return sgd.Schedule(s.ids, s.rates, s.slots[:-1])
    sgd.Schedule.blocks = staticmethod(short_blocks)
    cfg = ExperimentConfig.from_dict({
        "data": {"kind": "synthetic", "d": 3, "n": 120},
        "oracles": {"kind": "local_dp", "batch_size": 10}, "beta_c": 0.25, "trials": 2})
    try:
        run_strategy_comparison(cfg)
        print("budget unchecked")
    except RuntimeError:
        print("budget checked")
""")


def test_invariants_hold_under_python_optimize():
    src = str(Path(hetsgd.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_CHECKS], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:4] == ["optimize 1", "feasibility checked", "one pass checked",
                                           "budget checked"]


def test_meta_names_the_package_commit_from_any_directory(tmp_path):
    package = Path(hetsgd.__file__).resolve().parent
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=package, capture_output=True,
                         text=True)
    expected = git.stdout.strip() if git.returncode == 0 else "unknown"
    cfg = small_config(trials=2, **OWN_KEYS[run_strategy_comparison]).to_dict()
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
