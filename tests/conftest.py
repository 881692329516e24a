"""Shared fixtures: whole-budget runs and Monte Carlo paired runs on the batched engine."""
import numpy as np
import pytest

from hetsgd.core import Dataset, ObjectiveSpec
from hetsgd.oracles import GradientOracle, OracleSpec
from hetsgd.sgd import Row, Schedule, check_budgets, run_batch

# Trials per engine call. Each call holds one oracle per source with every
# trial's data and noise, and 2 rows per trial; at 1,000 trials of 200 steps
# in d=5 (acceptance criterion 3) the test process peaks near 120 MiB.
TRIALS_PER_CALL = 1000


def _run_whole(plan, oracles, w0=None, snapshot_stride=None, paired=False) -> list:
    """Trajectories of one run that reads each oracle it names over its whole budget.

    ``plan`` is a Schedule, or ordered (oracle id, rate constant) phases that
    each run their oracle's whole budget (``Schedule.blocks``). ``oracles``
    maps each id the schedule names to its oracle; the run stays in their
    objective's ball. Every oracle is read from batch 0; with ``paired`` the
    noiseless twin's trajectory follows the run's. The rows keep the drivers'
    rule (sgd.check_budgets).
    """
    schedule = plan if isinstance(plan, Schedule) else \
        Schedule.blocks(plan, {k: o.steps_total for k, o in oracles.items()})
    row_oracles = tuple(oracles[k] for k in schedule.ids)
    rows = [Row(schedule, row_oracles, noisy, None, w0)
            for noisy in ((True, False) if paired else (True,))]
    check_budgets(rows)
    return run_batch(rows, snapshot_stride)


def _source(n: int, noise_sq: float, d: int, obj: ObjectiveSpec, data_seed: int,
            oracle_seed: int) -> GradientOracle:
    """A gaussian oracle at second moment noise_sq over n fresh examples yx ~ N(0, I/d)."""
    rng = np.random.default_rng(data_seed)
    ds = Dataset(rng.standard_normal((n, d)) / np.sqrt(d), np.where(rng.random(n) < 0.5, 1.0, -1.0))
    return GradientOracle(OracleSpec("gaussian", budget=n, rng_seed=oracle_seed,
                                     noise_sq=noise_sq), obj, ds)


def _paired_gaps(mask, v_c: float, v_n: float, c: float, lam: float, d: int,
                 n_trials: int, seed: int) -> np.ndarray:
    """Squared final gaps ||v - w||^2 of n_trials noisy runs and their noiseless twins.

    Step t reads the noisy source when mask[t-1] is True and the clean one
    otherwise, at rate c/t, on the linear loss with b=1 and no projection;
    the sources are gaussian oracles with second moments v_n and v_c, so the
    mean gap is ordering.expected_deviation of the step-noise schedule. Both
    sources must serve at least one step. Each engine call shares one oracle
    per source among its trials, and trial i reads that oracle from batch
    i*T_c (clean) and i*T_n (noisy) on. ``seed`` is the root SeedSequence.
    """
    mask = np.asarray(mask, dtype=bool)
    T_n = int(mask.sum())
    T_c = len(mask) - T_n
    obj = ObjectiveSpec(lam=lam, loss="linear", radius=np.inf)
    schedule = Schedule(("c", "n"), (c, c), mask.astype(int))
    sizes = [min(TRIALS_PER_CALL, n_trials - i) for i in range(0, n_trials, TRIALS_PER_CALL)]
    gaps = []
    for k, call_ss in zip(sizes, np.random.SeedSequence(seed).spawn(len(sizes))):
        data_c, data_n, oracle_c, oracle_n = (int(v) for v in call_ss.generate_state(4, np.uint64))
        oracles = (_source(k * T_c, v_c, d, obj, data_c, oracle_c),
                   _source(k * T_n, v_n, d, obj, data_n, oracle_n))
        rows = []
        for i in range(k):
            starts = (i * T_c, i * T_n)
            rows += [Row(schedule, oracles, True, starts), Row(schedule, oracles, False, starts)]
        W = np.array([traj.final_w for traj in run_batch(rows)])
        gaps.append(np.sum((W[1::2] - W[::2]) ** 2, axis=1))
    return np.concatenate(gaps)


@pytest.fixture
def run_whole():
    """_run_whole(plan, oracles, w0=None, snapshot_stride=None, paired=False)."""
    return _run_whole


@pytest.fixture
def paired_gaps():
    """_paired_gaps(mask, v_c, v_n, c, lam, d, n_trials, seed) -> squared gaps per trial."""
    return _paired_gaps
