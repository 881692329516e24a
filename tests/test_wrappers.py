"""The four single-run wrappers, kept only for perfbench's tracer, agree with run_whole.

This is the one test that calls them; everything else runs rows through the
``run_whole`` helper in conftest.py, which builds them for run_batch.
"""
import numpy as np
import pytest

from hetsgd import sgd
from hetsgd.core import Dataset, ObjectiveSpec
from hetsgd.oracles import GradientOracle, OracleSpec

RADIUS = 0.5
W0 = np.array([0.1, -0.2, 0.05])
PHASES = (("clean", 3.0), ("noisy", 1.5))
SLOTS = np.repeat([0, 1], [6, 9])
np.random.default_rng(2).shuffle(SLOTS)
SCHEDULE = sgd.Schedule(("clean", "noisy"), (3.0, 1.5), SLOTS)


def oracles() -> dict:
    """Two batch-2 oracles over one dataset: 6 gaussian batches and 9 local-DP batches."""
    rng = np.random.default_rng(1)
    ds = Dataset(rng.standard_normal((30, 3)) / np.sqrt(3), np.where(rng.random(30) < 0.5, 1.0, -1.0))
    obj = ObjectiveSpec(lam=0.1, loss="logistic", radius=RADIUS)
    return {"clean": GradientOracle(OracleSpec("gaussian", budget=12, batch_size=2, rng_seed=3,
                                               noise_sq=4.0), obj, ds),
            "noisy": GradientOracle(OracleSpec("local_dp", budget=18, batch_size=2, rng_seed=4,
                                               epsilon=1.0), obj, ds)}


@pytest.mark.parametrize("name", ["run_sgd", "run_sgd_interleaved", "run_paired",
                                  "run_paired_interleaved"])
def test_wrapper_matches_run_whole(name, run_whole):
    wrapper = getattr(sgd, name)
    interleaved, paired = name.endswith("_interleaved"), name.startswith("run_paired")
    snapshots = {} if paired else {"snapshot_stride": 4}
    shared = oracles()
    if interleaved:
        got = wrapper(SCHEDULE, shared, w0=W0, **snapshots)
        want = run_whole(SCHEDULE, shared, w0=W0, paired=paired, **snapshots)
    else:
        got = wrapper(PHASES, shared, w0=W0, **snapshots)
        want = run_whole(PHASES, shared, w0=W0, paired=paired, **snapshots)
    got = list(got) if paired else [got]
    assert len(got) == len(want) == 1 + paired
    assert sum(t.projected for t in want) > 0          # the projection is compared too
    for g, w in zip(got, want):
        assert g.final_w.tobytes() == w.final_w.tobytes()
        assert (g.steps, g.projected) == (w.steps, w.projected) and g.steps == 15
        if paired:
            assert g.iterates is None and w.iterates is None
        else:
            assert [(t, x.tobytes()) for t, x in g.iterates] == \
                [(t, x.tobytes()) for t, x in w.iterates]
    if interleaved:     # a schedule that leaves a batch unread fails the shared budget check
        with pytest.raises(RuntimeError, match="batches"):
            wrapper(sgd.Schedule(SCHEDULE.ids, SCHEDULE.rates, SLOTS[:-1]), shared)
