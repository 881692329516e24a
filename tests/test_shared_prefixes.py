"""Rows whose first steps are an earlier row's: each against the same row run alone."""
import numpy as np
import pytest

from conftest import prefix_iterates, windows
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


def row(src, ids, rates, slots, noisy=True, w0=None):
    return Row(Schedule(tuple(ids), tuple(rates), np.array(slots)),
               tuple(src[k] for k in ids), noisy, w0)


def noisy_first(src, c2, c1=30.0, **kw):
    return row(src, ("n", "c"), (c1, c2), [0] * N_NOISY + [1] * N_CLEAN, **kw)


# Each case: its rows and the steps each row takes over from an earlier one.
def cases(src):
    ao = [0, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 0, 1]        # the noisy slot first, three times
    one_phase = row(src, ("n",), (30.0,), [0] * N_NOISY)
    w0 = np.full(4, 0.05)
    big, clean = windows(src["big"], N_NOISY), windows(src["c"], 2)
    return {
        # One schedule, the phase-2 rate varied (a c2 sweep), and a clean-only row.
        "c2_group": ([noisy_first(src, c2) for c2 in (1.0, 4.0, 16.0, 64.0)]
                     + [row(src, ("c",), (10.0,), [0] * N_CLEAN)], [0] + [N_NOISY] * 3 + [0]),
        # A one-phase row is a prefix of the two-phase row at the same first rate.
        "prefix_first": ([one_phase, noisy_first(src, 5.0)], [0, N_NOISY]),
        "prefix_covered": ([noisy_first(src, 5.0), one_phase], [0, N_NOISY]),
        # Rows share their first run only, not the steps after it.
        "identical": ([noisy_first(src, 5.0)] * 3, [0, N_NOISY, N_NOISY]),
        # Slots are matched by number: the last row reads what the second does, under the
        # drivers' clean-first slot numbers, and shares nothing.
        "ao_next_to_nf": ([noisy_first(src, 30.0), row(src, ("n", "c"), (30.0, 30.0), ao),
                           row(src, ("c", "n"), (30.0, 30.0), [1 - s for s in ao])], [0, 3, 0]),
        # The root is the row with the longest first run, here the later one.
        "parent_after_child": ([row(src, ("n", "c"), (30.0, 30.0), ao), noisy_first(src, 30.0)],
                               [3, 0]),
        # Rows that read later batches of an oracle, through views of it: views that
        # differ only in the clean slot leave the noisy phase shared.
        "late_starts": ([row({"big": big[i], "c": clean[j]}, ("big", "c"), (30.0, 5.0),
                             [0] * N_NOISY + [1] * 2)
                         for i, j in ((0, 0), (0, 1), (1, 0))], [0, N_NOISY, 0]),
        "no_share": ([noisy_first(src, 5.0), noisy_first(src, 5.0, w0=w0),
                      noisy_first(src, 5.0, noisy=False)], [0, 0, 0]),
        "rcn": ([row(src, ("rcn",), (30.0,), [0] * N_NOISY, noisy=noisy)
                 for noisy in (True, False, True, False)], [0, 0, N_NOISY, N_NOISY]),
    }


def stepped_row_steps(rows, monkeypatch):
    """Trajectories of one engine call, and how many row-steps the engine computed."""
    einsum, stepped = np.einsum, []

    def counted(spec, *operands, **kwargs):
        if spec == "rbd,rd->rb":                  # one margin einsum per step over its rows
            stepped.append(len(operands[1]))
        return einsum(spec, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    trajectories = run_batch(rows)
    monkeypatch.setattr(np, "einsum", einsum)
    return trajectories, sum(stepped)


def as_bytes(traj, iterates):
    return (traj.final_w.tobytes(), traj.steps, traj.projected, traj.last_projected,
            [(t, w.tobytes()) for t, w in iterates])


@pytest.mark.parametrize("case", ["c2_group", "prefix_first", "prefix_covered", "identical",
                                  "ao_next_to_nf", "parent_after_child", "late_starts",
                                  "no_share", "rcn"])
@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("chunk_bytes", [1, sgd.CHUNK_BYTES])
def test_each_row_matches_the_row_run_alone(case, b, chunk_bytes, monkeypatch):
    monkeypatch.setattr(sgd, "CHUNK_BYTES", chunk_bytes)
    rows, expected = cases(sources(b))[case]
    batch, computed = stepped_row_steps(rows, monkeypatch)
    assert [t.shared for t in batch] == expected
    # The engine steps each row on its own steps only.
    assert computed == sum(t.steps - t.shared for t in batch)
    # Every row's iterates come from one call over the cuts of all rows, which share first
    # runs as the rows do; those of the row run alone, from each of its cuts run alone.
    for r, traj, iterates in zip(rows, batch, prefix_iterates(rows)):
        alone, = run_batch([r])
        assert alone.shared == 0
        assert as_bytes(traj, iterates) == \
            as_bytes(alone, prefix_iterates([r], by_length=True)[0])


def test_projection_is_active_inside_the_shared_prefix():
    rows, _ = cases(sources())["c2_group"]
    child = run_batch(rows)[1]
    assert child.shared == N_NOISY and child.projected > 0
    assert any(np.linalg.norm(w) == pytest.approx(RADIUS, rel=1e-12)
               for t, w in prefix_iterates(rows)[1] if t <= child.shared)


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
