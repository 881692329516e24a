"""Projected SGD over ordered oracle phases, with paired noisy/noiseless runs.

The update at global step t is

    w_{t+1} = project(w_t - (c_phase / t) * G_phase(w_t), radius)

where the step index t runs continuously across phases and never resets.
Mini-batched oracle calls count as a single t increment.

One engine, ``run_batch``, advances any number of runs ("rows") together.
Its state is a matrix W with one row per run. What the steps read that does
not depend on W (every row's examples, labels, pre-drawn batch-mean noise and
step size) is gathered for a chunk of steps at a time, so each step does
only one vectorised gradient evaluation, the update and one row-wise
projection. A row names a ``Schedule`` (the oracle slot serving each step and
each slot's rate constant), the oracles behind its slots, and whether it is
the noisy run or its noiseless twin. Rows read their oracles' permutations
and noise tables without consuming them, so every run over one seed shares
one table, and ``Row.starts`` lets runs read disjoint slices of one oracle.
``PhasePlan`` and ``InterleavePattern`` build schedules; ``run_sgd`` and its
siblings are single-run calls into the engine that also advance the cursors
of the oracles they are given.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import gradient_scales, project
from .oracles import BudgetExhausted, GradientOracle


# A chunk of steps gathers its examples, labels, noise and step sizes in one
# pass each, holding at most about this many bytes (and at least one step).
CHUNK_BYTES = 1 << 18


class NonpositiveRate(ValueError):
    """A phase was configured with a rate constant c that is not in (0, inf)."""


class PatternMismatch(ValueError):
    """An interleave pattern does not match the oracles' step budgets."""


class InfeasibleIterate(RuntimeError):
    """A run ended outside its feasible ball, or with a non-finite iterate."""


@dataclass(frozen=True, eq=False)
class Schedule:
    """Which oracle slot serves each step of one run, and each slot's rate constant.

    Step t (1-based) calls the oracle of slot ``slots[t-1]`` at rate
    ``rates[slots[t-1]] / t``; ``ids`` names the slots.
    """

    ids: tuple
    rates: tuple
    slots: np.ndarray

    def __post_init__(self):
        slots = np.asarray(self.slots)
        if slots.size and slots.dtype.kind not in "iu":
            raise ValueError(f"schedule slots must be integers, got dtype {slots.dtype}")
        object.__setattr__(self, "slots", slots.astype(np.intp, copy=False))
        if len(self.ids) != len(self.rates):
            raise ValueError("need one rate per oracle slot")
        for oracle_id, c in zip(self.ids, self.rates):
            if not 0 < c < np.inf:
                raise NonpositiveRate(f"oracle {oracle_id!r} needs a rate in (0, inf), got {c}")
        if self.slots.size and not 0 <= self.slots.min() <= self.slots.max() < len(self.ids):
            raise ValueError("schedule refers to a slot it does not name")

    def counts(self) -> np.ndarray:
        """Steps per slot."""
        return np.bincount(self.slots, minlength=len(self.ids))


@dataclass(frozen=True)
class PhasePlan:
    """Ordered (oracle_id, rate constant) phases sharing one global step clock."""

    phases: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "phases", tuple((str(k), float(c)) for k, c in self.phases))
        if len(self.phases) == 0:
            raise ValueError("need at least one phase")
        ids = [k for k, _ in self.phases]
        if len(set(ids)) != len(ids):
            raise ValueError("each oracle may be referenced by exactly one phase")
        if not self.radius > 0:
            raise ValueError("radius must be positive")

    def schedule(self, steps: Mapping[str, int]) -> Schedule:
        """The block schedule: each phase runs its oracle for ``steps[id]`` steps, in order."""
        ids = tuple(k for k, _ in self.phases)
        return Schedule(ids, tuple(c for _, c in self.phases),
                        np.repeat(np.arange(len(ids)), [steps[k] for k in ids]))


@dataclass(frozen=True)
class InterleavePattern:
    """Per-step oracle choice for arbitrary-order runs."""

    sequence: tuple

    def __post_init__(self):
        object.__setattr__(self, "sequence", tuple(str(s) for s in self.sequence))
        if len(self.sequence) == 0:
            raise ValueError("empty pattern")

    def schedule(self, c: float, steps: Mapping[str, int]) -> Schedule:
        """One rate c throughout; every oracle must be used exactly ``steps[id]`` times."""
        ids = tuple(steps)
        extra = set(self.sequence) - set(ids)
        if extra:
            raise PatternMismatch(f"pattern references unknown oracles {sorted(extra)}")
        slot_of = {k: i for i, k in enumerate(ids)}
        schedule = Schedule(ids, (float(c),) * len(ids), [slot_of[s] for s in self.sequence])
        for oracle_id, used in zip(ids, schedule.counts()):
            if used != steps[oracle_id]:
                raise PatternMismatch(
                    f"pattern uses oracle {oracle_id!r} {used} times, "
                    f"budget allows {steps[oracle_id]} steps")
        return schedule


@dataclass(frozen=True, eq=False)
class Row:
    """One run of a batch: a schedule over its oracles, noisy or as the noiseless twin.

    The twin (``noisy=False``) replays the same examples with the injected
    noise set to zero and, for label-flip oracles, the true labels.
    ``starts`` gives the first batch each slot reads, a non-negative integer
    per slot (default 0).
    """

    schedule: Schedule
    oracles: tuple
    noisy: bool = True
    starts: Optional[tuple] = None
    w0: Optional[np.ndarray] = None


@dataclass
class Trajectory:
    final_w: np.ndarray
    steps: int
    iterates: Optional[list] = None          # [(t, w_{t+1}) ...] at the snapshot stride
    consumed: tuple = ()                     # examples read per schedule slot


def _within_slot_steps(slots: np.ndarray) -> np.ndarray:
    """k[t] = how often slots[t] occurs before t, i.e. the batch index within its oracle."""
    counts = np.bincount(slots)
    first = np.cumsum(counts) - counts
    k = np.empty_like(slots)
    k[np.argsort(slots, kind="stable")] = np.arange(len(slots)) - np.repeat(first, counts)
    return k


def _start(w0, d: int, radius: float) -> np.ndarray:
    """w0 as a float vector, checked to have shape (d,) and to be finite and in the ball."""
    w0 = np.asarray(w0, dtype=np.float64)
    if w0.shape != (d,):
        raise ValueError(f"w0 must have shape ({d},), got {w0.shape}")
    if not np.sqrt(w0 @ w0) <= radius * (1.0 + 1e-12):
        raise ValueError("w0 lies outside the feasible ball or is not finite")
    return w0


def _stack_tables(tables: dict, zeros: np.ndarray) -> tuple:
    """Concatenate keyed tables after a leading block; return (stacked, offset per key)."""
    base, parts, n = {}, [zeros], len(zeros)
    for key, table in tables.items():
        base[key] = n
        parts.append(table)
        n += len(table)
    return np.concatenate(parts), base


def run_batch(rows: Sequence[Row], radius: float,
              snapshot_stride: Optional[int] = None) -> list:
    """Advance every row's run together; return one Trajectory per row, in order.

    All oracles of a batch share lam, loss, batch size and dimension.
    ``snapshot_stride`` keeps iterates every that many steps and at each
    row's last step.
    """
    rows = list(rows)
    if not radius > 0:
        raise ValueError("radius must be positive")
    if not rows:
        return []
    oracles = list({id(o): o for r in rows for o in r.oracles}.values())
    first = oracles[0]
    objective, b, d = first.objective, first.spec.batch_size, first.dataset.d
    lam = objective.lam
    for o in oracles:
        if (o.objective.lam, o.objective.loss, o.spec.batch_size, o.dataset.d) != \
                (lam, objective.loss, b, d):
            raise ValueError("the oracles of one batch must share lam, loss, batch size and d")

    lengths = np.array([len(r.schedule.slots) for r in rows])
    order = np.argsort(-lengths, kind="stable")     # longest first: active rows are a prefix
    rows = [rows[i] for i in order]
    lengths = lengths[order]
    n_rows, T = len(rows), int(lengths[0])
    n_active = np.searchsorted(-lengths, -np.arange(T + 2), side="right")

    # Examples: the distinct datasets stacked once, and each oracle's permutation into them.
    datasets = {id(o.dataset): o.dataset for o in oracles}
    X, ds_base = _stack_tables({k: ds.X for k, ds in datasets.items()}, np.zeros((0, d)))
    y, _ = _stack_tables({k: ds.y for k, ds in datasets.items()}, np.zeros(0))
    examples, ex_base = _stack_tables(
        {id(o): o.order[:o.steps_total * b] + ds_base[id(o.dataset)] for o in oracles},
        np.zeros(0, dtype=np.intp))
    # Noise: twin rows and noiseless oracles read the leading zero block.
    noise, noise_base = _stack_tables(
        {id(o): o.noise_means for o in oracles if o.noise_means is not None}, np.zeros((T, d)))
    flip_tables = {id(o): o.flips for o in oracles if o.flips is not None}
    rcn = any(r.noisy and id(o) in flip_tables for r in rows for o in r.oracles)
    if rcn:
        flips, flip_base = _stack_tables(flip_tables, np.zeros((T, b), dtype=bool))

    # Per (row, slot): base offsets into those tables, rate constant and flip rate.
    S = max(len(r.schedule.ids) for r in rows)
    ex_at = np.zeros((n_rows, S), dtype=np.intp)
    noise_at = np.zeros((n_rows, S), dtype=np.intp)
    flip_at = np.zeros((n_rows, S), dtype=np.intp)
    rate_at = np.ones((n_rows, S))
    sigma_at = np.zeros((n_rows, S))
    consumed = []
    patterns: dict = {}
    pattern_of = np.empty(n_rows, dtype=np.intp)
    for i, r in enumerate(rows):
        sched = r.schedule
        starts = r.starts if r.starts is not None else (0,) * len(sched.ids)
        if not len(r.oracles) == len(starts) == len(sched.ids):
            raise ValueError("need one oracle and one start per schedule slot")
        if not all(isinstance(k, (int, np.integer)) and k >= 0 for k in starts):
            raise ValueError(f"starts must be non-negative integers, got {starts}")
        counts = sched.counts()
        for s, (o, c, start, used) in enumerate(zip(r.oracles, sched.rates, starts, counts)):
            if start + used > o.steps_total:
                raise BudgetExhausted(f"oracle {sched.ids[s]!r} serves {o.steps_total} batches, "
                                      f"a run asks for {start + used}")
            ex_at[i, s] = ex_base[id(o)] + start * b
            rate_at[i, s] = c
            if r.noisy and id(o) in noise_base:
                noise_at[i, s] = noise_base[id(o)] + start
            if rcn and r.noisy and id(o) in flip_base:
                flip_at[i, s] = flip_base[id(o)] + start
                sigma_at[i, s] = o.spec.sigma
        consumed.append(tuple(int(u) * b for u in counts))
        pattern_of[i] = patterns.setdefault(sched.slots.tobytes(), (len(patterns), sched.slots))[0]
    slot_tab = np.zeros((T, len(patterns)), dtype=np.intp)
    step_tab = np.zeros((T, len(patterns)), dtype=np.intp)
    for p, slots in patterns.values():
        slot_tab[:len(slots), p] = slots
        step_tab[:len(slots), p] = _within_slot_steps(slots)
    ex_at, noise_at, flip_at = ex_at.ravel(), noise_at.ravel(), flip_at.ravel()
    rate_at, sigma_at = rate_at.ravel(), sigma_at.ravel()

    W = np.zeros((n_rows, d))
    for i, r in enumerate(rows):
        if r.w0 is not None:
            W[i] = _start(r.w0, d, radius)

    iterates = [[] for _ in rows] if snapshot_stride is not None else None

    active = n_active.tolist()
    row_bytes = 8 * (b * (d + 3) + d + 4)       # one row's gathers for one step
    offsets = np.arange(b)
    step_no = np.arange(1, T + 1)[:, None]
    t0, R0 = 1, -1
    while t0 <= T:
        # Everything steps t0 .. t0+C-1 read that does not depend on W, gathered at once.
        if active[t0] != R0:
            R0 = active[t0]
            pats, row_base = pattern_of[:R0], np.arange(R0) * S
        C = min(T + 1 - t0, max(1, CHUNK_BYTES // (R0 * row_bytes)))
        steps = slice(t0 - 1, t0 - 1 + C)
        k = step_tab[steps, pats]
        rs = row_base + slot_tab[steps, pats]
        idx = examples[(ex_at[rs] + k * b)[..., None] + offsets]
        Xc, yc = X[idx], y[idx]
        if rcn:
            yc = np.where(flips[flip_at[rs] + k], -yc, yc)
            sigma_c = sigma_at[rs]
        noise_c = noise[noise_at[rs] + k]
        eta_c = rate_at[rs] / step_no[steps]
        for j, t in enumerate(range(t0, t0 + C)):
            R = active[t]
            Wa = W[:R]
            Xb, yb = Xc[j, :R], yc[j, :R]
            if rcn:
                sigma = sigma_c[j, :R, None]
                s = ((1.0 - sigma) * gradient_scales(objective, Wa, Xb, yb)
                     - sigma * gradient_scales(objective, Wa, Xb, -yb)) / (1.0 - 2.0 * sigma)
            else:
                s = gradient_scales(objective, Wa, Xb, yb)
            G = lam * Wa + np.einsum("rb,rbd->rd", s, Xb) / b + noise_c[j, :R]
            Wa = project(Wa - eta_c[j, :R, None] * G, radius)
            if R == n_rows:
                W = Wa
            else:
                W[:R] = Wa
            if iterates is not None:
                due = range(R) if t % snapshot_stride == 0 else range(active[t + 1], R)
                for i in due:
                    iterates[i].append((t, W[i].copy()))
        t0 += C

    norms = np.sqrt(np.einsum("rd,rd->r", W, W))
    bad = ~(norms <= radius * (1.0 + 1e-9))
    if bad.any():
        raise InfeasibleIterate(f"{int(bad.sum())} of {n_rows} runs ended outside the ball "
                                f"of radius {radius} or non-finite")

    out = [None] * n_rows
    for i, j in enumerate(order):
        out[j] = Trajectory(final_w=W[i].copy(), steps=int(lengths[i]),
                            iterates=iterates[i] if iterates is not None else None,
                            consumed=consumed[i])
    return out


def _run_single(schedule: Schedule, oracles: Mapping[str, GradientOracle], radius: float,
                w0: Optional[np.ndarray], snapshot_stride: Optional[int] = None,
                paired: bool = False) -> list:
    """Reserve the schedule's batches on the given oracles, then run it (and its twin)."""
    row_oracles = tuple(oracles[k] for k in schedule.ids)
    if w0 is not None:
        w0 = _start(w0, row_oracles[0].dataset.d, radius)
    starts = tuple(o.take(int(n)) for o, n in zip(row_oracles, schedule.counts()))
    rows = [Row(schedule, row_oracles, True, starts, w0)]
    if paired:
        rows.append(Row(schedule, row_oracles, False, starts, w0))
    return run_batch(rows, radius, snapshot_stride)


def _remaining(oracles: Mapping[str, GradientOracle]) -> dict:
    return {k: o.steps_remaining for k, o in oracles.items()}


def run_sgd(plan: PhasePlan, oracles: Mapping[str, GradientOracle],
            w0: Optional[np.ndarray] = None,
            snapshot_stride: Optional[int] = None) -> Trajectory:
    """Run each phase's oracle to exhaustion in order, then return the result.

    The regularisation lam comes from the oracles' objective.
    """
    schedule = plan.schedule(_remaining(oracles))
    return _run_single(schedule, oracles, plan.radius, w0, snapshot_stride)[0]


def run_sgd_interleaved(pattern: InterleavePattern, c: float, radius: float,
                        oracles: Mapping[str, GradientOracle],
                        w0: Optional[np.ndarray] = None,
                        snapshot_stride: Optional[int] = None) -> Trajectory:
    """Same update rule with the oracle chosen per pattern entry at each step.

    The regularisation lam comes from the oracles' objective.
    """
    schedule = pattern.schedule(c, _remaining(oracles))
    return _run_single(schedule, oracles, radius, w0, snapshot_stride)[0]


def run_paired(plan: PhasePlan, oracles: Mapping[str, GradientOracle],
               w0: Optional[np.ndarray] = None) -> tuple:
    """Noisy trajectory plus its noiseless twin over the identical data order.

    The twin replays the same permutations with injected noise forced to
    zero, so in expectation the squared gap isolates the noise effect.
    """
    for oracle in oracles.values():
        oracle.reset()
    return tuple(_run_single(plan.schedule(_remaining(oracles)), oracles, plan.radius, w0,
                             paired=True))


def run_paired_interleaved(pattern: InterleavePattern, c: float, radius: float,
                           oracles: Mapping[str, GradientOracle],
                           w0: Optional[np.ndarray] = None) -> tuple:
    for oracle in oracles.values():
        oracle.reset()
    return tuple(_run_single(pattern.schedule(c, _remaining(oracles)), oracles, radius, w0,
                             paired=True))

