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
steps at a time, already shaped for the step, and a chunk ends where a span
(below) does, so each step takes its inputs by one index.

A row whose first L steps read the same examples, noise and flip signs, at the
same rates and from the same w0, as an earlier row's has bit-identical
iterates through step L, so the engine does not step it there. At step L+1 it
takes over a copy of the state, projection count and snapshots of the
earliest earlier row that shares the longest such prefix, and
``Trajectory.shared`` reports L; a row that shares all of its steps takes none
of its own. Rows thus start or end only at a few steps, and between two of
them the rows being stepped are a fixed index set, a span. Their iterates are
copied out of W at the start of the span and back at its end.

The step buffers are made once per engine call, and a step writes into the
first R rows of each (the span's R rows): the margins, then the scales, into
one (rows, b) buffer; the gradient into a (rows, d) buffer; the update into
the spare (rows, d) iterate buffer, which then swaps roles with the
iterate's; and the squared row norms into a (rows,) buffer. A logistic step at
batch size 1 is 8 array calls (the margin einsum, expit, the gradient product
and five for the update) and allocates nothing; a step that runs the exact
inside-ball test adds 2 (the squared-norm einsum and its max). The test and
the scaling share those squared norms: a step whose largest row norm is within
the radius leaves the update as it is, and only a step that fails the test
scales rows (``core.scale_into_ball``), counts them in
``Trajectory.projected`` and ``Trajectory.last_projected`` and checks that no
row became non-finite, naming the step if one did.

Most steps need no test, because a running bound n on the span's largest row
norm already places every row inside the ball. The update is
V = (1 - eta*lam) W - eta (g + z) with eta = c/t, so
||V|| <= max |1 - eta*lam| * n + max eta * (||g|| + ||z||) over the span's
rows. |1 - c*lam/t| is convex in c, so its largest value is at the span's
least or largest rate; ||g|| is at most the largest signed-example norm times
the largest scale (1, or 1/(1 - 2 sigma) under label flips); and ||z|| is at
most the largest norm in the noise table. These are scalars per span, padded
to dominate rounding (``_norm_bounds``), so a step costs one float
multiply-add and one compare. When n is within radius * (1 - 1e-9) (and
1e150), the exact test would leave V as it is, so skipping it changes no byte
and no ``projected`` count. The first step of a span and each step the bound
cannot place inside run the test, and n restarts from the norms it computes.
A NaN or infinite table norm gives a bound that never passes, so a non-finite
row still raises ``InfeasibleIterate`` naming its step. ``Trajectory.checked``
counts a row's own steps on which the test ran.

A row names a ``Schedule`` (the oracle slot serving each step and each slot's
rate constant), the oracles behind its slots, each read from batch 0, and
whether it is the noisy run or its noiseless twin. Oracles are read-only tables,
so every run over one seed shares one table. ``Schedule.blocks`` builds block
schedules from ordered phases, and an interleaving is a ``Schedule`` over shuffled
slots. A ``Schedule`` derives what the engine reads from its slots once, at
construction, and ``run_batch`` builds its (row, slot) tables from per-oracle
arrays, so the setup of a call costs array time, not Python time per row. A run's
radius is its objective's: a call's oracles share one ``ObjectiveSpec``.
``run_batch`` refuses a run that would read an oracle's examples twice (the
one-pass rule of local DP), and ``check_budgets`` adds the drivers' rule: every
run reads each of its oracles' whole budget. ``run_sgd``, ``run_sgd_interleaved``,
``run_paired`` and ``run_paired_interleaved`` exist only because perfbench's
tracer wraps them by name. Each is one ``run_batch`` call over whole budgets; the
package calls none of them.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import load_expit, margin_scales, norms, scale_into_ball
from .oracles import BudgetExhausted, GradientOracle, rcn_scales


# A chunk of steps gathers its signed examples, flip signs, noise and step sizes in one
# pass each, holding at most about this many bytes (and at least one step).
CHUNK_BYTES = 1 << 18


class NonpositiveRate(ValueError):
    """A slot was given a rate constant c that is not a real number in (0, inf)."""


class InfeasibleIterate(RuntimeError):
    """A run ended outside its feasible ball, or with a non-finite iterate."""


@dataclass(frozen=True, eq=False)
class Schedule:
    """Which oracle slot serves each step of one run, and each slot's rate constant.

    Step t (1-based) calls the oracle of slot ``slots[t-1]`` at rate
    ``rates[slots[t-1]] / t``; ``ids`` names the slots. ``slots`` is kept as
    a read-only copy, so what is derived from it once, at construction (the
    steps per slot, each step's batch index within its slot, the steps at
    which the slots are first used and the sequence as one bytes value),
    cannot go stale.
    """

    ids: tuple
    rates: tuple
    slots: np.ndarray
    # Derived at construction: steps per slot; each step's batch index within its slot;
    # (the slots in order of first use, the step of each first use); slots as bytes.
    _counts: np.ndarray = field(init=False, repr=False)
    _batch: np.ndarray = field(init=False, repr=False)
    _firsts: tuple = field(init=False, repr=False)
    _key: bytes = field(init=False, repr=False)

    def __post_init__(self):
        slots = np.asarray(self.slots)
        if slots.size and slots.dtype.kind not in "iu":
            raise ValueError(f"schedule slots must be integers, got dtype {slots.dtype}")
        if slots.ndim != 1:
            raise ValueError(f"schedule slots must be 1-d, got shape {slots.shape}")
        slots = slots.astype(np.intp)
        slots.flags.writeable = False
        object.__setattr__(self, "slots", slots)
        if len(self.ids) != len(self.rates):
            raise ValueError("need one rate per oracle slot")
        if not self.ids or len(set(self.ids)) != len(self.ids):
            raise ValueError(f"need at least one slot, and each oracle id once, got {self.ids}")
        for oracle_id, c in zip(self.ids, self.rates):
            if isinstance(c, bool) or not (isinstance(c, numbers.Real) and 0 < c < np.inf):
                raise NonpositiveRate(f"oracle {oracle_id!r} needs a real rate in (0, inf), "
                                      f"got {c!r}")
        if slots.size and not 0 <= slots.min() <= slots.max() < len(self.ids):
            raise ValueError("schedule refers to a slot it does not name")
        # One pass per slot: its steps, numbered within the slot, and the first of them.
        counts, batch, firsts = np.zeros(len(self.ids), dtype=np.intp), np.empty_like(slots), []
        for s in range(len(self.ids)):
            at = np.flatnonzero(slots == s)
            counts[s] = len(at)
            batch[at] = np.arange(len(at))
            if len(at):
                firsts.append(int(at[0]))
        firsts.sort()
        counts.flags.writeable = batch.flags.writeable = False
        object.__setattr__(self, "_counts", counts)
        object.__setattr__(self, "_batch", batch)
        object.__setattr__(self, "_firsts", (slots[firsts].tolist(), firsts))
        object.__setattr__(self, "_key", slots.tobytes())

    @classmethod
    def blocks(cls, phases: Sequence, steps: Mapping[str, int]) -> Schedule:
        """Ordered (oracle id, rate constant) phases, each running its oracle ``steps[id]`` steps."""
        ids = tuple(k for k, _ in phases)
        return cls(ids, tuple(c for _, c in phases),
                   np.repeat(np.arange(len(ids)), [steps[k] for k in ids]))

    def counts(self) -> np.ndarray:
        """Steps per slot."""
        return self._counts


@dataclass(frozen=True, eq=False)
class Row:
    """One run of a batch: a schedule over its oracles, noisy or as the noiseless twin.

    Each slot reads its oracle's batches 0, 1, ... in order. The twin
    (``noisy=False``) replays the same examples with the injected noise set to
    zero and, for label-flip oracles, the true labels.
    """

    schedule: Schedule
    oracles: tuple
    noisy: bool = True
    w0: Optional[np.ndarray] = None


@dataclass
class Trajectory:
    final_w: np.ndarray
    steps: int
    projected: int = 0                       # steps on which the projection scaled this run
    shared: int = 0                          # leading steps taken over from another row's run
    checked: int = 0                         # own steps on which the exact inside-ball test ran
    last_projected: int = 0                  # last step the projection scaled this run (0: none)
    iterates: Optional[list] = None          # [(t, w_{t+1}) ...] at every step, if kept


def _as_values(a: np.ndarray) -> np.ndarray:
    """Each vector along the last axis of a C-contiguous array as one bytes value."""
    return a.view(np.dtype((np.void, a.shape[-1] * a.itemsize)))[..., 0]


def _common_prefix(a: np.ndarray, b: np.ndarray) -> int:
    """Length of the longest common prefix of two 1-d arrays."""
    n = min(len(a), len(b))
    differ = np.flatnonzero(a[:n] != b[:n])
    return int(differ[0]) if differ.size else n


def _start(w0, d: int, radius: float) -> np.ndarray:
    """w0 as a float vector, checked to have shape (d,) and to be finite and in the ball."""
    w0 = np.asarray(w0, dtype=np.float64)
    if w0.shape != (d,):
        raise ValueError(f"w0 must have shape ({d},), got {w0.shape}")
    if not norms(w0) <= radius * (1.0 + 1e-12):
        raise ValueError("w0 lies outside the feasible ball or is not finite")
    return w0


def _stack_tables(tables: Sequence, lead: np.ndarray) -> tuple:
    """Concatenate tables (None: none) after a leading block; return (stacked, offsets).

    tables[j] starts at offsets[j]; a None entry gets offset 0, the leading block.
    """
    present = np.array([t is not None for t in tables], dtype=bool)
    sizes = [len(t) for t in tables if t is not None]
    starts = np.zeros(len(tables), dtype=np.intp)
    starts[present] = len(lead) + np.cumsum(sizes) - sizes
    return np.concatenate([lead, *(t for t in tables if t is not None)]), starts


def _norm_bounds(t0: int, t1: int, c_lo: float, c_hi: float, lam: float, reach: float,
                 eps: float) -> tuple:
    """(a, e), arrays over steps t0 .. t1-1: each step's update of a row keeps ||V|| <= a*||W|| + e.

    The update is V = W - eta*((lam*W + g) + z) = (1 - eta*lam) W - eta (g + z) with
    eta = c/t, c in [c_lo, c_hi] and ||g|| + ||z|| <= reach. |1 - c*lam/t| is convex in c,
    so its largest value is at c_lo or c_hi. ``eps`` bounds the relative rounding of one
    step and of the norms it starts from; the absolute 1e-300 covers subnormal results.
    Overflow gives inf and a NaN reach gives NaN, and neither lets a bound pass a test.
    """
    t = np.arange(t0, t1, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = c_lo * lam / t, c_hi * lam / t
        a = np.maximum(np.abs(1.0 - lo), np.abs(1.0 - hi)) + eps * (1.0 + hi)
        e = c_hi / t * reach * (1.0 + eps) + 1e-300
    return a, e


def _shared_prefixes(W: np.ndarray, reads: np.ndarray, patterns: list,
                     pattern_of: np.ndarray, ranked: list) -> tuple:
    """(parent, shared) per row: the earliest earlier row with the longest run of equal steps.

    Two rows take the same steps 1..L when they start from the same iterate, follow the
    same slot sequence through step L, and each slot first used by then has the same
    reads (``reads[row, slot]``: tables, offsets and rate). ``ranked[pattern]`` lists a
    pattern's slots and the steps at which each is first used. Rows whose w0 or first
    read differ share nothing, so only rows alike in both are looked at together. Within
    such a group each row registers, per pattern, the reads of its first r slots, and a
    later row walks those entries, so no two rows are compared. ``shared`` is the
    prefix length (0, with parent -1, for a row that shares nothing).
    """
    n_rows = len(W)
    parent, shared = np.full(n_rows, -1), np.zeros(n_rows, dtype=np.intp)
    lead = np.array([used[0] if used else -1 for used, _ in ranked])[pattern_of]
    groups: dict = {}
    for i, key in enumerate(zip(lead.tolist(), reads[np.arange(n_rows), lead].tolist(),
                                _as_values(W).tolist())):
        groups.setdefault(key, []).append(i)
    common: dict = {}       # (pattern, pattern) -> common prefix of their slot sequences
    for (first_slot, _, _), members in groups.items():
        if len(members) < 2 or first_slot < 0:
            continue
        seen: dict = {}     # (pattern, reads of its first r slots) -> earliest such row
        met = []            # the patterns of the group's rows so far
        for j, q, row_reads in zip(members, pattern_of[members].tolist(),
                                   reads[members].tolist()):
            used, at = ranked[q]
            mine = tuple(row_reads[s] for s in used)
            best = (0, 0)   # (prefix, -row): the longest prefix, then the earliest row
            for p in met:
                if (p, q) not in common:
                    common[p, q] = _common_prefix(patterns[p], patterns[q])
                end = common[p, q]
                # The slots first used before the sequences part are the same for both.
                usable, depth = sum(t < end for t in at), 1
                while depth < usable and (p, mine[:depth + 1]) in seen:
                    depth += 1
                best = max(best, (end if depth == usable else at[depth], -seen[p, mine[:depth]]))
            if best[0]:
                shared[j], parent[j] = best[0], -best[1]
            if q not in met:
                met.append(q)
            for depth in range(1, len(mine) + 1):
                seen.setdefault((q, mine[:depth]), j)
    return parent, shared


def run_batch(rows: Sequence[Row], snapshots: bool = False) -> list:
    """Advance every row's run together; return one Trajectory per row, in order.

    All oracles of a batch share one objective (lam, loss and radius), batch
    size and dimension; every run stays in the ball of that objective's radius.
    A run that names one oracle in two slots, or asks an oracle for more batches
    than it serves, raises ``BudgetExhausted``. ``snapshots=True`` keeps every step.
    """
    rows = list(rows)
    if not isinstance(snapshots, bool):
        raise ValueError(f"snapshots must be a bool, got {snapshots!r}")
    if not rows:
        return []
    oracles = list({id(o): o for r in rows for o in r.oracles}.values())
    first = oracles[0]
    objective, b, d = first.objective, first.spec.batch_size, first.dataset.d
    lam, radius = objective.lam, objective.radius
    for o in oracles:
        if (o.objective, o.spec.batch_size, o.dataset.d) != (objective, b, d):
            raise ValueError("the oracles of one batch must share objective, batch size and d")

    n_rows = len(rows)
    schedules = [r.schedule for r in rows]
    widths = [len(sched.ids) for sched in schedules]
    lengths = np.array([len(sched.slots) for sched in schedules])
    T, S = int(lengths.max()), max(widths)

    # Examples: the distinct datasets stacked once, each example signed by its label
    # (u = -y*x), and each oracle's permutation into them.
    datasets = list({id(o.dataset): o.dataset for o in oracles}.values())
    U, ds_base = _stack_tables([ds.X for ds in datasets], np.zeros((0, d)))
    y, _ = _stack_tables([ds.y for ds in datasets], np.zeros(0))
    U *= -y[:, None]
    ds_of = {id(ds): j for j, ds in enumerate(datasets)}
    examples, ex_base = _stack_tables(
        [o.order[:o.steps_total * b] + ds_base[ds_of[id(o.dataset)]] for o in oracles],
        np.zeros(0, dtype=np.intp))
    # Noise: twin rows and noiseless oracles read the leading zero block.
    noise, noise_base = _stack_tables([o.noise_means for o in oracles], np.zeros((T, d)))
    has_noise = np.array([o.noise_means is not None for o in oracles], dtype=bool)
    has_flips = np.array([o.flips is not None for o in oracles], dtype=bool)
    sigmas = np.array([o.spec.sigma if o.flips is not None else 0.0 for o in oracles])
    budgets = np.array([o.steps_total for o in oracles])

    # Every (row, slot) pair, flat and in row order: its oracle and steps.
    if any(len(r.oracles) != width for r, width in zip(rows, widths)):
        raise ValueError("need one oracle per schedule slot")
    at = {id(o): j for j, o in enumerate(oracles)}
    pair_row = np.repeat(np.arange(n_rows), widths)
    pair_slot = np.arange(len(pair_row)) - (np.cumsum(widths) - widths)[pair_row]
    oracle_of = np.array([at[id(o)] for r in rows for o in r.oracles], dtype=np.intp)
    # One pass: no oracle serves two slots of a run (sorted by row and oracle, such pairs
    # are adjacent), and no slot asks its oracle for more batches than it serves.
    key = pair_row * len(oracles) + oracle_of
    order = np.argsort(key, kind="stable")
    later = order[1:][key[order[1:]] == key[order[:-1]]]      # each repeat's later slot
    if later.size:
        r, s = rows[pair_row[later[0]]], pair_slot[later[0]]
        s0, ids = r.oracles.index(r.oracles[s]), r.schedule.ids
        raise BudgetExhausted(f"a run names one oracle in two slots, {ids[s0]!r} and "
                              f"{ids[s]!r}, and would read its examples twice")
    used = np.concatenate([sched.counts() for sched in schedules])
    over = np.flatnonzero(used > budgets[oracle_of])
    if over.size:
        r, s = rows[pair_row[over[0]]], pair_slot[over[0]]
        raise BudgetExhausted(f"oracle {r.schedule.ids[s]!r} serves {r.oracles[s].steps_total} "
                              f"batches, a run asks for {used[over[0]]}")

    # Per (row, slot): base offsets into those tables, rate constant and flip rate; twin
    # rows read no noise and no flips. A padding slot is never read.
    noisy = np.repeat(np.array([r.noisy for r in rows], dtype=bool), widths)
    reads_noise, reads_flips = noisy & has_noise[oracle_of], noisy & has_flips[oracle_of]
    rcn = bool(reads_flips.any())
    if rcn:
        flips, flip_base = _stack_tables([o.flips for o in oracles], np.zeros((T, b), dtype=bool))
    else:
        flip_base = np.zeros(len(oracles), dtype=np.intp)

    def per_slot(flat: np.ndarray, pad) -> np.ndarray:
        table = np.full((n_rows, S), pad, dtype=flat.dtype)
        table[pair_row, pair_slot] = flat
        return table

    ex_at = per_slot(ex_base[oracle_of], 0)
    noise_at = per_slot(np.where(reads_noise, noise_base[oracle_of], 0), 0)
    flip_at = per_slot(np.where(reads_flips, flip_base[oracle_of], 0), 0)
    rate_at = per_slot(np.array([c for sched in schedules for c in sched.rates], dtype=float),
                       np.nan)
    sigma_at = per_slot(np.where(reads_flips, sigmas[oracle_of], 0.0), 0.0)
    # Each row's extreme rate constants (fmin and fmax pass over the padding's NaN).
    c_lo, c_hi = np.fmin.reduce(rate_at, axis=1), np.fmax.reduce(rate_at, axis=1)

    # The distinct slot sequences ("patterns") and, per step, each one's slot and batch
    # index within that slot.
    distinct: dict = {}
    pattern_of = np.array([distinct.setdefault(sched._key, (len(distinct), sched))[0]
                           for sched in schedules], dtype=np.intp)
    distinct = [sched for _, sched in distinct.values()]
    slot_tab = np.zeros((T, len(distinct)), dtype=np.intp)
    step_tab = np.zeros((T, len(distinct)), dtype=np.intp)
    for p, sched in enumerate(distinct):
        slot_tab[:len(sched.slots), p] = sched.slots
        step_tab[:len(sched.slots), p] = sched._batch
    patterns = [sched.slots for sched in distinct]
    ranked = [sched._firsts for sched in distinct]

    W = np.zeros((n_rows, d))
    for i, r in enumerate(rows):
        if r.w0 is not None:
            W[i] = _start(r.w0, d, radius)

    # A row whose first steps are an earlier row's takes over that row's state there and
    # steps from its own first step on (none, if it shares all of its steps). What a slot
    # reads is its tables' offsets and its rate, as one value (a flip offset names the
    # oracle, so its sigma too).
    reads = _as_values(np.stack([ex_at, noise_at, flip_at, rate_at.view(np.intp)], axis=2))
    parent, shared = _shared_prefixes(W, reads, patterns, pattern_of, ranked)
    own = shared + 1
    ex_at, noise_at, flip_at = ex_at.ravel(), noise_at.ravel(), flip_at.ravel()
    # What bounds one step's move (see _norm_bounds): a row's loss gradient is at most
    # s_max * u_max, its scales being at most 1, or 1 / (1 - 2 sigma) under label flips,
    # and its noise at most z_max; u_max and z_max are the largest table norms.
    s_max = 1.0 / (1.0 - 2.0 * sigma_at.max(axis=1))
    with np.errstate(over="ignore", invalid="ignore"):
        u_max, z_max = (math.sqrt(np.einsum("nd,nd->n", a, a).max()) for a in (U, noise))
    rate_at, sigma_at = rate_at.ravel(), sigma_at.ravel()

    iterates = [[] for _ in rows] if snapshots else None
    projected, last_projected, checked = (np.zeros(n_rows, dtype=np.intp) for _ in range(3))

    # Step buffers, made once: a span's R active rows are copied into the first R rows of
    # the iterate buffer, and a step writes into the first R rows of each. The update goes
    # into the spare iterate buffer, which then swaps roles with the iterate's.
    loss, bounded = objective.loss, math.isfinite(radius)
    expit = load_expit() if loss == "logistic" else None
    scales_buf = np.ones((n_rows, b))       # linear loss: the scales stay 1.0
    grad_buf, spare = np.empty((n_rows, d)), np.empty((n_rows, d))
    iterate_buf, sq_buf = np.empty((n_rows, d)), np.empty(n_rows)
    # A bound n >= a span's largest row norm passes a step when its rows must all be inside
    # the ball, also as the test computes their norms. One step rounds by at most about
    # b + 8 units of 2**-53 (relative), a computed norm by d + 3, and eps is 2**13 times
    # their sum; a norm up to 1e150 cannot overflow its square. n restarts from the norms
    # each test computes.
    eps = (b + d + 8) * 2.0 ** -40
    grow = 1.0 + eps
    inside = min(radius * (1.0 - 1e-9) / grow, 1e150)

    row_bytes = 8 * (b * (d + 3) + 2 * d + 4)   # one row's gathers for one step
    offsets = np.arange(b)
    step_no = np.arange(1, T + 1)[:, None]
    # Rows start or end only at these steps, so between two of them the active rows
    # (those whose own steps include that span) are a fixed set.
    bounds = np.unique(np.concatenate([own, lengths + 1, [1, T + 1]])).tolist()
    for t0, t1 in zip(bounds, bounds[1:] + [None]):
        for i in np.flatnonzero((own == t0) & (parent >= 0)).tolist():
            p = int(parent[i])
            W[i], projected[i], last_projected[i] = W[p], projected[p], last_projected[p]
            if snapshots:
                # The parent has taken exactly the shared steps 1 .. t0 - 1 by now.
                iterates[i] = [(t, w.copy()) for t, w in iterates[p]]
        if t1 is None:
            break
        idx = np.flatnonzero((own <= t0) & (t0 <= lengths))
        R, rows_at = len(idx), idx.tolist()
        pats, row_base = pattern_of[idx], idx * S
        M, G, sq, hits = scales_buf[:R], grad_buf[:R], sq_buf[:R], projected[idx]
        Wa, V = np.take(W, idx, axis=0, out=iterate_buf[:R]), spare[:R]
        if bounded:
            a_span, e_span = _norm_bounds(t0, t1, c_lo[idx].min(), c_hi[idx].max(), lam,
                                          s_max[idx].max() * u_max + z_max, eps)
            n, checks, last = math.inf, 0, last_projected[idx]
        C = max(1, CHUNK_BYTES // (R * row_bytes))
        for c0 in range(t0, t1, C):
            # Everything steps c0 .. c1-1 read that does not depend on W is gathered at once.
            c1 = min(c0 + C, t1)
            steps = slice(c0 - 1, c1 - 1)
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
            if bounded:
                a_c, e_c = a_span[c0 - t0:c1 - t0].tolist(), e_span[c0 - t0:c1 - t0].tolist()
            for j, t in enumerate(range(c0, c1)):
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
                    n = a_c[j] * n + e_c[j]
                    if not n <= inside:
                        # The exact test. A correctly rounded sqrt is monotone, so this is
                        # "every row inside"; NaN fails it. Rows inside would be scaled by
                        # exactly 1.0, so a step that passes leaves V as it is (as does one
                        # the bound passes); one that fails scales it and checks it.
                        np.einsum("rd,rd->r", V, V, out=sq)
                        top, checks = math.sqrt(np.maximum.reduce(sq)), checks + 1
                        if not top <= radius:
                            scaled = scale_into_ball(V, sq, radius)
                            hits += scaled
                            last[scaled] = t
                            if np.isnan(V).any():
                                raise InfeasibleIterate(
                                    f"a run's iterate became non-finite at step {t}")
                            top = radius
                        # Squares below 1e-300 may have lost all accuracy: floor the norm.
                        n = max(top, 1e-140) * grow
                if snapshots:
                    for i, v in zip(rows_at, V):
                        iterates[i].append((t, v.copy()))
                Wa, V = V, Wa
        W[idx], projected[idx] = Wa, hits
        if bounded:
            last_projected[idx], checked[idx] = last, checked[idx] + checks

    bad = ~(norms(W) <= radius * (1.0 + 1e-9))
    if bad.any():
        raise InfeasibleIterate(f"{int(bad.sum())} of {n_rows} runs ended outside the ball "
                                f"of radius {radius} or non-finite")

    return [Trajectory(final_w=W[i].copy(), steps=int(lengths[i]), projected=int(projected[i]),
                       shared=int(shared[i]), checked=int(checked[i]),
                       last_projected=int(last_projected[i]),
                       iterates=iterates[i] if iterates is not None else None)
            for i in range(n_rows)]


def check_budgets(rows: Sequence[Row]) -> None:
    """The drivers' rule: every run reads each of its oracles' whole budget, in whole batches.

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
    rows = [Row(schedule, row_oracles, noisy, w0=w0)
            for noisy in ((True, False) if paired else (True,))]
    check_budgets(rows)
    return rows


def run_sgd(phases: Sequence, oracles: Mapping[str, GradientOracle],
            w0: Optional[np.ndarray] = None, snapshots: bool = False) -> Trajectory:
    """Run each (oracle id, rate constant) phase's oracle over its whole budget, in order."""
    schedule = Schedule.blocks(phases, {k: o.steps_total for k, o in oracles.items()})
    return run_batch(_whole_runs(schedule, oracles, w0, False), snapshots)[0]


def run_sgd_interleaved(schedule: Schedule, oracles: Mapping[str, GradientOracle],
                        w0: Optional[np.ndarray] = None, snapshots: bool = False) -> Trajectory:
    """Run ``schedule`` over the oracles it names, each over its whole budget."""
    return run_batch(_whole_runs(schedule, oracles, w0, False), snapshots)[0]


def run_paired(phases: Sequence, oracles: Mapping[str, GradientOracle],
               w0: Optional[np.ndarray] = None) -> tuple:
    """``run_sgd``'s run and its noiseless twin (see ``Row``) over the same data order."""
    schedule = Schedule.blocks(phases, {k: o.steps_total for k, o in oracles.items()})
    return tuple(run_batch(_whole_runs(schedule, oracles, w0, True)))


def run_paired_interleaved(schedule: Schedule, oracles: Mapping[str, GradientOracle],
                           w0: Optional[np.ndarray] = None) -> tuple:
    """``run_sgd_interleaved``'s run and its noiseless twin over the same data order."""
    return tuple(run_batch(_whole_runs(schedule, oracles, w0, True)))
