"""Shared fixtures: whole-budget runs, step-by-step iterates and Monte Carlo paired runs on
the batched engine."""
import copy
import dataclasses
import functools
from importlib.metadata import version

import numpy as np
import pytest

from hetsgd.core import Dataset, ObjectiveSpec
from hetsgd.oracles import GradientOracle, OracleSpec
from hetsgd.sgd import Row, Schedule, check_budgets, run_batch

# Trials per engine call. Each call holds one oracle per source with every
# trial's data and noise, and 2 rows per trial; at 1,000 trials of 200 steps
# in d=5 (acceptance criterion 3) the test process peaks near 120 MiB.
TRIALS_PER_CALL = 1000

# The build the pinned digests and counts (test_engine, test_experiments, test_rates) were
# recorded on. Their bytes rest on numpy's and scipy's kernels and on numpy's Generator
# streams, so another build may change them with no change to the package.
PINNED_BUILD = {"numpy": "2.4.6", "scipy": "1.17.1"}


def assert_pinned(got, pinned) -> None:
    """Assert ``got == pinned``; a mismatch names the build the pins were recorded on and the
    running one, which may be the cause."""
    running = {name: version(name) for name in PINNED_BUILD}
    assert got == pinned, (
        f"outputs differ from their pins, recorded on {PINNED_BUILD}; this build is {running}"
        + ("" if running == PINNED_BUILD else ", a different one"))


def windows(oracle: GradientOracle, steps: int) -> list:
    """Views of ``oracle`` that serve its batches, ``steps`` each, as disjoint whole budgets.

    View i serves the oracle's batches i*steps .. (i+1)*steps - 1 as its own
    batches 0 .. steps-1, for each i that fits in the oracle's budget. A view
    is a ``copy.copy`` of the oracle (as ``twin()`` is) with its order, noise
    and flip tables sliced, so the engine reads the same bytes from a view as
    from the oracle itself. The views share one ``OracleSpec``.
    """
    b = oracle.spec.batch_size
    spec = dataclasses.replace(oracle.spec, budget=steps * b)
    views = []
    for k in range(0, oracle.steps_total - steps + 1, steps):
        view = copy.copy(oracle)
        view.spec, view.order = spec, oracle.order[k * b:(k + steps) * b]
        if oracle.noise_means is not None:
            view.noise_means = oracle.noise_means[k:k + steps]
        if oracle.flips is not None:
            view.flips = oracle.flips[k:k + steps]
        views.append(view)
    return views


def whole_rows(plan, oracles, w0=None, paired=False) -> list:
    """The rows of one run that reads each oracle it names over its whole budget.

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
    rows = [Row(schedule, row_oracles, noisy, w0=w0)
            for noisy in ((True, False) if paired else (True,))]
    check_budgets(rows)
    return rows


def _run_whole(plan, oracles, w0=None, paired=False) -> list:
    """Trajectories of ``whole_rows(plan, oracles, w0, paired)``, from one run_batch call."""
    return run_batch(whole_rows(plan, oracles, w0, paired))


def prefix_rows(rows, every: int = 1) -> list:
    """Each row cut to its first t steps, for t = every, 2*every, ... up to its length, in order.

    Rows that hold one Schedule object share its cuts, so many trials of one
    schedule make its cuts once.
    """
    @functools.cache
    def cut(schedule: Schedule, t: int) -> Schedule:
        return Schedule(schedule.ids, schedule.rates, schedule.slots[:t])

    return [Row(cut(r.schedule, t), r.oracles, r.noisy, r.w0)
            for r in rows for t in range(every, len(r.schedule.slots) + 1, every)]


def prefix_runs(rows, every: int = 1, by_length: bool = False) -> list:
    """Per row, [(t, trajectory of the row cut to its first t steps) ...] (``prefix_rows``).

    By default every cut of every row runs in one run_batch call. Each cut's end
    then splits every row's spans there, so no span is longer than ``every``
    steps. With ``by_length`` one call runs the cuts of one length t, so its spans
    end only at t and where a cut takes over a shared first run, as in a call over
    the uncut rows: chunks hold several steps and the norm bound passes steps.
    """
    cuts = prefix_rows(rows, every)
    if by_length:
        calls = {t: iter(run_batch([c for c in cuts if len(c.schedule.slots) == t]))
                 for t in {len(c.schedule.slots) for c in cuts}}
        runs = iter([next(calls[len(c.schedule.slots)]) for c in cuts])
    else:
        runs = iter(run_batch(cuts))
    return [[(t, next(runs)) for t in range(every, len(r.schedule.slots) + 1, every)]
            for r in rows]


def prefix_iterates(rows, every: int = 1, by_length: bool = False) -> list:
    """Per row, [(t, w_{t+1}) ...]: its iterate after step t, for t = every, 2*every, ...,
    the final iterate of its cut of t steps (``prefix_runs``)."""
    return [[(t, traj.final_w) for t, traj in runs]
            for runs in prefix_runs(rows, every, by_length)]


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
    per source among its trials, and trial i reads that oracle's batches from
    i*T_c (clean) and i*T_n (noisy) on, through its i-th view (``windows``).
    ``seed`` is the root SeedSequence.
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
        views = zip(windows(_source(k * T_c, v_c, d, obj, data_c, oracle_c), T_c),
                    windows(_source(k * T_n, v_n, d, obj, data_n, oracle_n), T_n))
        rows = [Row(schedule, pair, noisy) for pair in views for noisy in (True, False)]
        W = np.array([traj.final_w for traj in run_batch(rows)])
        gaps.append(np.sum((W[1::2] - W[::2]) ** 2, axis=1))
    return np.concatenate(gaps)


@pytest.fixture
def run_whole():
    """_run_whole(plan, oracles, w0=None, paired=False)."""
    return _run_whole


@pytest.fixture
def paired_gaps():
    """_paired_gaps(mask, v_c, v_n, c, lam, d, n_trials, seed) -> squared gaps per trial."""
    return _paired_gaps
