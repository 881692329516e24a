"""Rows whose first steps are an earlier row's: each against the same row run alone."""
import numpy as np
import pytest

from hetsgd import sgd
from hetsgd.core import Dataset, ObjectiveSpec
from hetsgd.oracles import GradientOracle, OracleSpec
from hetsgd.sgd import InfeasibleIterate, Row, Schedule, run_batch

RADIUS = 0.3
LAM = 0.1
N_NOISY, N_CLEAN = 8, 5          # batches of the noisy and the clean source


def dataset(n, d, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    X /= np.linalg.norm(X, axis=1).max()
    return Dataset(X, np.where(rng.random(n) < 0.5, 1.0, -1.0))


def sources(b=2, d=4):
    """A noisy (local-DP) source, a clean source, an rcn source and a larger noisy one."""
    obj = ObjectiveSpec(lam=LAM, loss="logistic", radius=RADIUS)
    ds_n, ds_c = dataset(N_NOISY * b, d, 1), dataset(N_CLEAN * b, d, 2)

    def oracle(kind, ds, seed, **kw):
        return GradientOracle(OracleSpec(kind, budget=len(ds), batch_size=b, rng_seed=seed, **kw),
                              obj, ds)

    return {"n": oracle("local_dp", ds_n, 10, epsilon=2.0),
            "c": oracle("local_dp", ds_c, 11, epsilon=10.0),
            "rcn": oracle("rcn", ds_n, 12, sigma=0.3),
            "big": oracle("local_dp", dataset(2 * N_NOISY * b, d, 3), 13, epsilon=2.0)}


def row(src, ids, rates, slots, noisy=True, starts=None, w0=None):
    return Row(Schedule(tuple(ids), tuple(rates), np.array(slots)),
               tuple(src[k] for k in ids), noisy, starts, w0)


def noisy_first(src, c2, c1=30.0, **kw):
    return row(src, ("n", "c"), (c1, c2), [0] * N_NOISY + [1] * N_CLEAN, **kw)


# Each case: its rows and the steps each row takes over from an earlier one.
def cases(src):
    both = N_NOISY + N_CLEAN
    ao = [0, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 0, 1]        # the noisy slot first, three times
    one_phase = row(src, ("n",), (30.0,), [0] * N_NOISY)
    w0 = np.full(4, 0.05)
    return {
        # One schedule, the phase-2 rate varied (a c2 sweep), and a clean-only row.
        "c2_group": ([noisy_first(src, c2) for c2 in (1.0, 4.0, 16.0, 64.0)]
                     + [row(src, ("c",), (10.0,), [0] * N_CLEAN)], [0] + [N_NOISY] * 3 + [0]),
        # A one-phase row is a prefix of the two-phase row at the same first rate.
        "prefix_first": ([one_phase, noisy_first(src, 5.0)], [0, N_NOISY]),
        "prefix_covered": ([noisy_first(src, 5.0), one_phase], [0, N_NOISY]),
        "identical": ([noisy_first(src, 5.0)] * 3, [0, both, both]),
        # Slots are matched by number: the last row reads what the second does, under the
        # drivers' clean-first slot numbers, and shares nothing.
        "ao_next_to_nf": ([noisy_first(src, 30.0), row(src, ("n", "c"), (30.0, 30.0), ao),
                           row(src, ("c", "n"), (30.0, 30.0), [1 - s for s in ao])], [0, 3, 0]),
        # Starts that differ only in the clean slot leave the noisy phase shared.
        "late_starts": ([row(src, ("big", "c"), (30.0, 5.0), [0] * N_NOISY + [1] * 2, starts=s)
                         for s in ((0, 0), (0, 3), (1, 0))], [0, N_NOISY, 0]),
        "no_share": ([noisy_first(src, 5.0), noisy_first(src, 5.0, w0=w0),
                      noisy_first(src, 5.0, noisy=False)], [0, 0, 0]),
        "rcn": ([row(src, ("rcn",), (30.0,), [0] * N_NOISY, noisy=noisy)
                 for noisy in (True, False, True, False)], [0, 0, N_NOISY, N_NOISY]),
    }


def stepped_row_steps(rows, snapshot_stride, monkeypatch):
    """Trajectories of one engine call, and how many row-steps the engine computed."""
    einsum, stepped = np.einsum, []

    def counted(spec, *operands, **kwargs):
        if spec == "rbd,rd->rb":                  # one margin einsum per step over its rows
            stepped.append(len(operands[1]))
        return einsum(spec, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    trajectories = run_batch(rows, snapshot_stride)
    monkeypatch.setattr(np, "einsum", einsum)
    return trajectories, sum(stepped)


def as_bytes(traj):
    return (traj.final_w.tobytes(), traj.steps, traj.projected,
            [(t, w.tobytes()) for t, w in traj.iterates])


@pytest.mark.parametrize("case", ["c2_group", "prefix_first", "prefix_covered", "identical",
                                  "ao_next_to_nf", "late_starts", "no_share", "rcn"])
@pytest.mark.parametrize("snapshot_stride", [1, 3])
@pytest.mark.parametrize("chunk_bytes", [1, sgd.CHUNK_BYTES])
def test_each_row_matches_the_row_run_alone(case, snapshot_stride, chunk_bytes, monkeypatch):
    monkeypatch.setattr(sgd, "CHUNK_BYTES", chunk_bytes)
    rows, expected = cases(sources())[case]
    batch, computed = stepped_row_steps(rows, snapshot_stride, monkeypatch)
    assert [t.shared for t in batch] == expected
    # The engine steps each row on its own steps only.
    assert computed == sum(t.steps - t.shared for t in batch)
    for r, traj in zip(rows, batch):
        alone, = run_batch([r], snapshot_stride)
        assert alone.shared == 0
        assert as_bytes(traj) == as_bytes(alone)


def test_projection_is_active_inside_the_shared_prefix():
    rows, _ = cases(sources())["c2_group"]
    child = run_batch(rows, snapshot_stride=1)[1]
    assert child.shared == N_NOISY and child.projected > 0
    assert any(np.linalg.norm(w) == pytest.approx(RADIUS, rel=1e-12)
               for t, w in child.iterates if t <= child.shared)


def test_forked_rows_report_the_steps_they_took_over():
    # Every row of one c2-sweep-shaped group after the first, and nothing else.
    src = sources()
    group = [noisy_first(src, c2) for c2 in (1.0, 2.0, 3.0)]
    others = [noisy_first(src, 2.0, noisy=False), row(src, ("c",), (10.0,), [0] * N_CLEAN)]
    batch = run_batch(others[:1] + group + others[1:])
    assert [t.shared for t in batch] == [0, 0, N_NOISY, N_NOISY, 0]
    assert all(t.steps == N_NOISY + N_CLEAN for t in batch[:4])


@pytest.mark.parametrize("chunk_bytes", [1, sgd.CHUNK_BYTES])
def test_a_nan_in_a_shared_prefix_names_its_step(chunk_bytes, monkeypatch):
    monkeypatch.setattr(sgd, "CHUNK_BYTES", chunk_bytes)
    src = sources()
    noisy = src["n"]
    noisy.noise_means = noisy.noise_means.copy()      # the oracle's own table is read-only
    noisy.noise_means[4, 0] = np.nan                  # batch 4, read at step 5 by every row
    rows = [noisy_first(src, c2) for c2 in (1.0, 4.0, 16.0)]
    with pytest.raises(InfeasibleIterate, match=r"non-finite at step 5$"):
        run_batch(rows)


@pytest.mark.parametrize("stride", [0, -1, True, 1.5])
def test_snapshot_stride_must_be_a_positive_integer(stride):
    rows, _ = cases(sources())["c2_group"]
    with pytest.raises(ValueError, match="snapshot_stride must be an integer >= 1"):
        run_batch(rows, snapshot_stride=stride)
    assert [t for t, _ in run_batch(rows[:1], np.int64(5))[0].iterates] == [5, 10, 13]
