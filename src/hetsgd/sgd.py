"""Projected SGD over ordered oracle phases, with paired noisy/noiseless runs.

The update at global step t is

    w_{t+1} = project(w_t - (c_phase / t) * G_phase(w_t), radius)

where the step index t runs continuously across phases and never resets.
Mini-batched oracle calls count as a single t increment.

One engine, ``run_batch``, advances any number of runs ("rows") together.
Its state is a matrix W with one row per run. Each example enters as its
signed form u = -y*x, made once per engine call, since every margin loss
sees x and its label only through u (see ``core.gradient_scales``). What the
steps read that does not depend on W (every row's signed examples, label-flip
signs, pre-drawn batch-mean noise and step size) is gathered for a chunk of
steps at a time, already shaped for the step, and a chunk ends where a row's
run does, so each step takes its inputs by one index. The step buffers are
made once per engine call, and a step writes into the first R rows of each
(R rows are still running): the margins, then the scales, into one (rows, b)
buffer; the gradient into a (rows, d) buffer; the update into the spare
(rows, d) iterate buffer, which then swaps roles with the iterate's; and the
squared row norms into a (rows,) buffer. A logistic step at batch size 1 is
10 array calls (the margin einsum, expit, the gradient product, five for the
update, the squared-norm einsum and its max) and allocates nothing. The
inside-ball test and the scaling share those squared norms: a step whose
largest row norm is within the radius leaves the update as it is, and only a
step that fails the test scales rows (``core.scale_into_ball``), counts them
in ``Trajectory.projected`` and checks that no row became non-finite, naming
the step if one did. A row
names a ``Schedule`` (the oracle slot serving each step and each slot's rate
constant), the oracles behind its slots, and whether it is the noisy run or
its noiseless twin. Oracles are read-only tables, so every run over one seed
shares one table, and ``Row.starts`` lets runs read disjoint slices of one
oracle. ``PhasePlan`` builds block schedules, and an interleaving is a
``Schedule`` over shuffled slots. ``check_budgets`` is the rule every run
keeps: it reads each of its oracles' whole budget. ``run_sgd``,
``run_sgd_interleaved``, ``run_paired`` and ``run_paired_interleaved`` exist
only because perfbench's tracer wraps them by name. Each is one ``run_batch``
call over whole budgets from batch 0; the package calls none of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np
from scipy.special import expit

from .core import margin_scales, norms, scale_into_ball
from .oracles import BudgetExhausted, GradientOracle, rcn_scales


# A chunk of steps gathers its signed examples, flip signs, noise and step sizes in one
# pass each, holding at most about this many bytes (and at least one step).
CHUNK_BYTES = 1 << 18


class NonpositiveRate(ValueError):
    """A phase was configured with a rate constant c that is not in (0, inf)."""


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
    projected: int = 0                       # steps on which the projection scaled this run
    iterates: Optional[list] = None          # [(t, w_{t+1}) ...] at the snapshot stride


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
    if not norms(w0) <= radius * (1.0 + 1e-12):
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

    # Examples: the distinct datasets stacked once, each example signed by its label in
    # place (u = -y*x), and each oracle's permutation into them.
    datasets = {id(o.dataset): o.dataset for o in oracles}
    U, ds_base = _stack_tables({k: ds.X for k, ds in datasets.items()}, np.zeros((0, d)))
    y, _ = _stack_tables({k: ds.y for k, ds in datasets.items()}, np.zeros(0))
    U *= -y[:, None]
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
    projected = np.zeros(n_rows, dtype=np.intp)

    # Step buffers, made once: a step writes into their first R rows. The update goes into
    # the spare iterate buffer, which then swaps roles with the iterate's.
    loss, bounded = objective.loss, math.isfinite(radius)
    scales_buf = np.ones((n_rows, b))       # linear loss: the scales stay 1.0
    grad_buf, spare = np.empty((n_rows, d)), np.empty((n_rows, d))
    sq_buf = np.empty(n_rows)

    active = n_active.tolist()
    row_bytes = 8 * (b * (d + 3) + 2 * d + 4)   # one row's gathers for one step
    offsets = np.arange(b)
    step_no = np.arange(1, T + 1)[:, None]
    t0, R = 1, -1
    while t0 <= T:
        # Steps t0 .. t0+C-1 advance the same R rows (a chunk ends where a row does), and
        # everything they read that does not depend on W is gathered at once.
        if active[t0] != R:
            R = active[t0]
            pats, row_base = pattern_of[:R], np.arange(R) * S
            M, G, sq, hits = scales_buf[:R], grad_buf[:R], sq_buf[:R], projected[:R]
        C = min(int(lengths[R - 1]) + 1 - t0, max(1, CHUNK_BYTES // (R * row_bytes)))
        steps = slice(t0 - 1, t0 - 1 + C)
        k = step_tab[steps, pats]
        rs = row_base + slot_tab[steps, pats]
        # np.take copies the same bytes as fancy indexing, in about half the time.
        Uc = np.take(U, np.take(examples, (ex_at[rs] + k * b)[..., None] + offsets), axis=0)
        U1c = Uc[:, :, 0]
        if rcn:
            f_c = np.where(np.take(flips, flip_at[rs] + k, axis=0), -1.0, 1.0)
            sigma_c = sigma_at[rs][..., None]
            keep_c, denom_c = 1.0 - sigma_c, 1.0 - 2.0 * sigma_c
        noise_c = np.take(noise, noise_at[rs] + k, axis=0)
        # Each row's step size repeated along d, so that the step multiplies equal shapes.
        eta_c = np.repeat((rate_at[rs] / step_no[steps])[..., None], d, axis=2)
        Wa = home = W[:R]
        V = spare[:R]
        for j, t in enumerate(range(t0, t0 + C)):
            Ub = Uc[j]
            if rcn:
                s = rcn_scales(objective, np.einsum("rbd,rd->rb", Ub, Wa, out=M), f_c[j],
                               keep_c[j], sigma_c[j], denom_c[j])
            elif loss == "logistic":
                s = expit(np.einsum("rbd,rd->rb", Ub, Wa, out=M), out=M)
            elif loss == "hinge":
                s = margin_scales(objective, np.einsum("rbd,rd->rb", Ub, Wa, out=M))
            else:
                s = M
            # At b=1 the product differs from einsum's sum only in the sign of an exact
            # zero, which the noise term (+0.0 where there is none) erases.
            if b == 1:
                np.multiply(s, U1c[j], out=G)
            else:
                np.divide(np.einsum("rb,rbd->rd", s, Ub, out=G), b, out=G)
            # V = Wa - eta * ((lam * Wa + g) + noise), one operation at a time.
            np.multiply(Wa, lam, out=V)
            V += G
            V += noise_c[j]
            V *= eta_c[j]
            np.subtract(Wa, V, out=V)
            if bounded:
                # A correctly rounded sqrt is monotone, so this is "every row inside";
                # NaN fails it. Rows inside would be scaled by exactly 1.0, so a step that
                # passes leaves V as it is; one that fails scales it and checks it.
                np.einsum("rd,rd->r", V, V, out=sq)
                if not math.sqrt(np.maximum.reduce(sq)) <= radius:
                    hits += scale_into_ball(V, sq, radius)
                    if np.isnan(V).any():
                        raise InfeasibleIterate(f"a run's iterate became non-finite at step {t}")
            if iterates is not None:
                due = range(R) if t % snapshot_stride == 0 else range(active[t + 1], R)
                for i in due:
                    iterates[i].append((t, V[i].copy()))
            Wa, V = V, Wa
        if Wa is not home:
            home[...] = Wa
        t0 += C

    bad = ~(norms(W) <= radius * (1.0 + 1e-9))
    if bad.any():
        raise InfeasibleIterate(f"{int(bad.sum())} of {n_rows} runs ended outside the ball "
                                f"of radius {radius} or non-finite")

    out = [None] * n_rows
    for i, j in enumerate(order):
        out[j] = Trajectory(final_w=W[i].copy(), steps=int(lengths[i]),
                            projected=int(projected[i]),
                            iterates=iterates[i] if iterates is not None else None)
    return out


def check_budgets(rows: Sequence[Row]) -> None:
    """Every run must read each of its oracles' whole budget (in whole batches).

    A RuntimeError, not an assert, so that the rule holds under ``python -O``.
    """
    for row in rows:
        steps, full = row.schedule.counts().tolist(), [o.steps_total for o in row.oracles]
        if steps != full:
            raise RuntimeError(f"a run would read {steps} batches of oracles "
                               f"{list(row.schedule.ids)} with budgets {full}")


# The four single-run calls below exist only as the names perfbench's tracer wraps;
# the drivers and the tests build their rows for run_batch themselves.

def _whole_runs(schedule: Schedule, oracles: Mapping[str, GradientOracle],
                w0: Optional[np.ndarray], paired: bool) -> list:
    """One run of ``schedule`` over the oracles it names, from batch 0, and its twin if paired."""
    row_oracles = tuple(oracles[k] for k in schedule.ids)
    rows = [Row(schedule, row_oracles, noisy, None, w0)
            for noisy in ((True, False) if paired else (True,))]
    check_budgets(rows)
    return rows


def run_sgd(plan: PhasePlan, oracles: Mapping[str, GradientOracle],
            w0: Optional[np.ndarray] = None,
            snapshot_stride: Optional[int] = None) -> Trajectory:
    """Run each phase's oracle over its whole budget, in order."""
    schedule = plan.schedule({k: o.steps_total for k, o in oracles.items()})
    return run_batch(_whole_runs(schedule, oracles, w0, False), plan.radius, snapshot_stride)[0]


def run_sgd_interleaved(schedule: Schedule, radius: float,
                        oracles: Mapping[str, GradientOracle],
                        w0: Optional[np.ndarray] = None,
                        snapshot_stride: Optional[int] = None) -> Trajectory:
    """Run ``schedule`` over the oracles it names, each over its whole budget."""
    return run_batch(_whole_runs(schedule, oracles, w0, False), radius, snapshot_stride)[0]


def run_paired(plan: PhasePlan, oracles: Mapping[str, GradientOracle],
               w0: Optional[np.ndarray] = None) -> tuple:
    """``run_sgd``'s run and its noiseless twin (see ``Row``) over the same data order."""
    schedule = plan.schedule({k: o.steps_total for k, o in oracles.items()})
    return tuple(run_batch(_whole_runs(schedule, oracles, w0, True), plan.radius))


def run_paired_interleaved(schedule: Schedule, radius: float,
                           oracles: Mapping[str, GradientOracle],
                           w0: Optional[np.ndarray] = None) -> tuple:
    """``run_sgd_interleaved``'s run and its noiseless twin over the same data order."""
    return tuple(run_batch(_whole_runs(schedule, oracles, w0, True), radius))
