"""Projected SGD over ordered oracle phases, with paired noisy/noiseless runs.

The update at global step t is

    w_{t+1} = project(w_t - (c_phase / t) * G_phase(w_t), radius)

where the step index t runs continuously across phases and never resets.
Mini-batched oracle calls count as a single t increment.

One engine, ``run_batch``, advances any number of runs ("rows") together.
Its state is a matrix W with one row per run. Each example enters as its
signed form u = -y*x, made once per engine call, since every margin loss
sees x and its label only through u (see ``core.gradient_scales``); negation
is exact and rounding sign-symmetric, so u gives the bits of the label form.
What the steps read that does not depend on W (every row's signed examples,
label-flip signs, pre-drawn batch-mean noise and step size) is gathered for a
chunk of steps at a time, already shaped for the step, and a chunk ends where
a span (below) does, so each step takes its inputs by one index. A chunk holds
about ``CHUNK_BYTES`` and at least one step; one step's gathers take
8*(b*(d + 3) + 2d + 4) bytes a row, 5,392 at b = 50 and d = 10, so at that
batch size most chunks hold one step.

Every run starts at w = 0. Rows may share their first run, the steps before
their slot first changes: a ``c2-sweep`` trial's TwoRate rows all run one
first phase at c1 = 1/lam, a CleanOnly row runs the clean phase of a
clean-first row, and an ``order-exp`` AO row that opens with the clean source
runs the first steps of the CF row at its rate. Nothing past a first run is
shared: three identical two-phase rows share their first phase, not all of
their steps. Rows alike in their first slot's number and what that slot reads
(examples, noise and flip signs, and its rate) form a group. Its root, the
earliest row with the longest first run, steps on its own. Every other member
of length L and first run L1 <= L has the root's iterates through step L1, so
the engine does not step it there: at step L1 + 1 it takes over a copy of the
root's state and projection counts, and ``Trajectory.shared`` reports L1. A
member that is only its first run takes no step of its own. Rows thus start or
end only at a few steps, and between two of them the rows being stepped are a
fixed index set, a span. Their iterates are copied out of W at the start of
the span and back at its end, so a root may come after its members in row
order.

The step buffers are made once per engine call, and a step writes into the
first R rows of each (the span's R rows): the margins, then the scales, into
one (rows, b) buffer; the gradient into a (rows, d) buffer; the update into
the spare (rows, d) iterate buffer, which then swaps roles with the
iterate's; and the squared row norms into a (rows,) buffer. A chunk's gathers,
and the step loop's views of them, are dropped after the chunk's last step,
before the next chunk gathers, so a call holds its signed examples, its tables,
the step buffers and one chunk's gathers at a time, never two chunks'.

One step body serves every shape. It zips over a chunk's gathered arrays and
the bound's coefficients, passes ``out`` positionally and branches each step on
label flips, the loss, b and the radius. A logistic step at batch size 1 is 8
array calls (the margin einsum, expit, the gradient product and five for the
update) and allocates nothing; at b > 1 the gradient is an einsum and a
division, 9 calls. A step that runs the exact inside-ball test adds 2 (the
squared-norm einsum and its max). The test and the scaling share those squared
norms: a step whose largest row norm is within the radius leaves the update as
it is, and only a step that fails the test scales rows
(``core.scale_into_ball``), counts them in ``Trajectory.projected`` and
``Trajectory.last_projected`` and checks that no row became non-finite, naming
the step if one did. BENCH_order_step.json holds the measured runs, and why a
second body for logistic rows at b = 1 was not kept.

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

A driver's ``meta.json`` sums ``shared`` and ``checked`` over its rows in its
``engine`` block (``shared_row_steps`` and ``checked_row_steps``, of
``row_steps``). At the shipped configs it reads 83% of ``c2-sweep``'s
row-steps shared, 0.41% of ``strategy-cmp``'s and 0.002% of ``order-exp``'s;
the exact test runs on 21% of ``order-exp``'s stepped row-steps, 53-55% of
``strategy-cmp``'s and all of ``c2-sweep``'s, whose first steps at c1 = 1/lam
keep its iterates near the sphere.

A row names a ``Schedule`` (the oracle slot serving each step and each slot's
rate constant), the oracles behind its slots, each read from batch 0, and
whether it is the noisy run or its noiseless twin. Oracles are read-only
tables, so every run over one seed shares one table. A call signs the examples
of each distinct dataset its oracles serve rows of once (a driver's oracles all
serve rows of its one loaded dataset, so its calls sign that dataset's n
examples, not its clean and noisy splits apart), and holds each permutation,
noise and flip table once: ``run_batch`` first draws the tables of every oracle
that holds none yet into one buffer of each kind (``oracles.draw_tables``,
which a driver calls per block of trials), and reads a buffer that holds all of
a call's tables of one kind in place. It reads the permutation buffer as one
batch per row, as ``draw_tables`` lays it out, so a step's batch index picks
one row: its b examples. A permutation's entries are row indices of its
oracle's dataset, so each chunk adds its (row, slot)'s dataset offset to the
example indices it gathers, before it takes the signed examples. Row 0 of the
noise and flip buffers holds zeros, which twin rows and noiseless oracles read
at every step. Tables drawn apart (oracles read before they met, or a table
replaced by hand) are copied instead, the noise and flip tables below a zero
row, with the same values. ``Schedule.blocks`` builds block schedules from
ordered phases, and an interleaving is a ``Schedule`` over shuffled slots. A
``Schedule`` derives what the engine reads from its slots once, at
construction, and ``run_batch`` builds its (row, slot) tables from per-oracle
arrays, so the setup of a call costs array time, not Python time per row. A
run's radius is its objective's: a call's oracles share one ``ObjectiveSpec``.
``run_batch`` refuses a run two of whose slots would read one example of one
dataset (the one-pass rule of local DP), comparing the reads once per distinct
set of slots over one dataset, by one count per row of that dataset; and
``check_budgets`` adds the drivers' rule: every run reads each of its oracles'
whole budget. ``run_sgd``, ``run_sgd_interleaved``, ``run_paired`` and
``run_paired_interleaved`` exist only because perfbench's tracer wraps them by
name. Each is one ``run_batch`` call over whole budgets; the package calls none
of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import POSITIVE_FINITE, check_reals, load_expit, margin_scales, norms, scale_into_ball
from .oracles import BudgetExhausted, GradientOracle, draw_tables, rcn_scales


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
    steps per slot, each step's batch index within its slot and the sequence
    as one bytes value), cannot go stale. A schedule names each oracle id once,
    has at least one slot and takes only real rate constants in (0, inf).
    """

    ids: tuple
    rates: tuple
    slots: np.ndarray
    # Derived at construction: steps per slot; each step's batch index within its slot;
    # slots as bytes.
    _counts: np.ndarray = field(init=False, repr=False)
    _batch: np.ndarray = field(init=False, repr=False)
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
            check_reals({f"the rate of oracle {oracle_id!r}": c}, POSITIVE_FINITE, NonpositiveRate)
        if slots.size and not 0 <= slots.min() <= slots.max() < len(self.ids):
            raise ValueError("schedule refers to a slot it does not name")
        # One pass per slot: its steps, numbered within the slot.
        counts, batch = np.zeros(len(self.ids), dtype=np.intp), np.empty_like(slots)
        for s in range(len(self.ids)):
            at = np.flatnonzero(slots == s)
            counts[s] = len(at)
            batch[at] = np.arange(len(at))
        counts.flags.writeable = batch.flags.writeable = False
        object.__setattr__(self, "_counts", counts)
        object.__setattr__(self, "_batch", batch)
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

    The run starts at w = 0, and each slot reads its oracle's batches 0, 1, ...
    in order. The twin (``noisy=False``) replays the same examples with the
    injected noise set to zero and, for label-flip oracles, the true labels.
    """

    schedule: Schedule
    oracles: tuple
    noisy: bool = True


@dataclass
class Trajectory:
    final_w: np.ndarray
    steps: int
    projected: int = 0                       # steps on which the projection scaled this run
    shared: int = 0                          # first-run steps taken over from its group's root
    checked: int = 0                         # own steps on which the exact inside-ball test ran
    last_projected: int = 0                  # last step the projection scaled this run (0: none)


def _stack_tables(tables: Sequence, lead: np.ndarray) -> tuple:
    """Concatenate tables (None: none) after a leading block; return (stacked, offsets).

    tables[j] starts at offsets[j]; a None entry gets offset 0, the leading block.
    """
    present = np.array([t is not None for t in tables], dtype=bool)
    sizes = [len(t) for t in tables if t is not None]
    starts = np.zeros(len(tables), dtype=np.intp)
    starts[present] = len(lead) + np.cumsum(sizes) - sizes
    return np.concatenate([lead, *(t for t in tables if t is not None)]), starts


def _one_table(tables: Sequence, lead: np.ndarray) -> tuple:
    """(table, offsets): one table holding every entry of ``tables`` (None: none) after ``lead``.

    Tables that ``draw_tables`` drew together are blocks of one buffer that starts with
    ``lead``'s bytes (a zero row, or nothing); that buffer is the table, read in place.
    Any other tables are copied after ``lead`` (``_stack_tables``). tables[j] starts at
    offsets[j].
    """
    present = [t for t in tables if t is not None]
    buffer = present[0].base if present else None
    if buffer is not None and buffer.dtype == lead.dtype and buffer.flags.c_contiguous \
            and buffer.shape[1:] == lead.shape[1:] \
            and buffer[:len(lead)].tobytes() == lead.tobytes() \
            and all(t.base is buffer and t.strides == buffer.strides
                    and t.shape[1:] == buffer.shape[1:] for t in present):
        start, row = buffer.__array_interface__["data"][0], buffer.strides[0]
        at = [0 if t is None else t.__array_interface__["data"][0] - start for t in tables]
        if not any(a % row for a in at):
            return buffer, np.array(at, dtype=np.intp) // row
    return _stack_tables(tables, lead)


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


def _check_one_pass(row: Row, slots: list, used: list, b: int) -> None:
    """Raise ``BudgetExhausted`` if two of ``row``'s ``slots``, over one dataset, read one example.

    A slot that takes n steps (``used``) reads its oracle's examples ``order[:n*b]``, row
    indices of the dataset, so one count per row of the dataset finds an example read twice.
    """
    reads = [row.oracles[s].order[:n * b] for s, n in zip(slots, used)]
    counts = np.bincount(np.concatenate(reads), minlength=len(row.oracles[slots[0]].dataset))
    example = int(counts.argmax())
    if counts[example] > 1:
        s0, s1 = [s for s, r in zip(slots, reads) if (r == example).any()][:2]
        o0, o1 = row.oracles[s0], row.oracles[s1]
        same = o0.spec == o1.spec and np.array_equal(o0.rows, o1.rows)
        ids = row.schedule.ids
        raise BudgetExhausted(f"a run reads {'one oracle' if same else 'one dataset'} in two "
                              f"slots, {ids[s0]!r} and {ids[s1]!r}, and would read its example "
                              f"{example} twice")


def run_batch(rows: Sequence[Row]) -> list:
    """Advance every row's run together; return one Trajectory per row, in order.

    All oracles of a batch share one objective (lam, loss and radius), batch
    size and dimension; every run stays in the ball of that objective's radius.
    A run two of whose slots read one example of one dataset (one oracle in two
    slots, an oracle and its ``twin()``, an oracle rebuilt from one spec and dataset, or
    two oracles whose permutations or row sets overlap), or that asks an oracle for more
    batches than it serves, raises ``BudgetExhausted``; disjoint windows of one
    permutation, and disjoint row sets of one dataset, run.
    """
    rows = list(rows)
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

    # Every oracle's permutation in one table of one batch per row, its batch-mean noise
    # tables in one table below a zero row and its flip tables likewise, each read in place
    # where the oracles' tables were drawn together (the drivers' case).
    draw_tables(oracles)
    examples, ex_base = _one_table([o.order[:o.steps_total * b].reshape(-1, b)
                                    for o in oracles], np.zeros((0, b), dtype=np.intp))
    # Examples: the distinct datasets stacked once, each example signed by its label
    # (u = -y*x); a permutation's entries are row indices of its oracle's dataset, which
    # starts at ds_base, so oracles over rows of one dataset read one copy of it.
    datasets = list({id(o.dataset): o.dataset for o in oracles}.values())
    U, ds_base = _stack_tables([ds.X for ds in datasets], np.zeros((0, d)))
    y, _ = _stack_tables([ds.y for ds in datasets], np.zeros(0))
    U *= -y[:, None]
    ds_of = {id(ds): j for j, ds in enumerate(datasets)}
    dataset_of = np.array([ds_of[id(o.dataset)] for o in oracles], dtype=np.intp)
    noise_tables = [o.noise_means for o in oracles]
    noise, noise_base = _one_table(noise_tables, np.zeros((1, d)))
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
    # One pass: no slot asks its oracle for more batches than it serves, and no two slots
    # of a run read one example. Only slots over one dataset can share one (oracles over
    # rows of one dataset, such as a driver's splits, count as one): sorted by row and
    # dataset such pairs are adjacent, and only their reads are compared.
    used = np.concatenate([sched.counts() for sched in schedules])
    over = np.flatnonzero(used > budgets[oracle_of])
    if over.size:
        r, s = rows[pair_row[over[0]]], pair_slot[over[0]]
        raise BudgetExhausted(f"oracle {r.schedule.ids[s]!r} serves {r.oracles[s].steps_total} "
                              f"batches, a run asks for {used[over[0]]}")
    key = pair_row * len(datasets) + dataset_of[oracle_of]
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1], [True]]))
    several = np.flatnonzero(np.diff(starts) > 1)
    # Rows whose slots over one dataset hold the same oracles for the same steps (a run and
    # its twin, a trial's strategies) read the same examples: each such set is compared once.
    by_oracle, by_used = oracle_of[order].tolist(), used[order].tolist()
    compared = set()
    for lo, hi in zip(starts[several].tolist(), starts[several + 1].tolist()):
        reads = tuple(sorted(zip(by_oracle[lo:hi], by_used[lo:hi])))
        if reads not in compared:
            compared.add(reads)
            pairs = order[lo:hi]
            _check_one_pass(rows[pair_row[pairs[0]]], pair_slot[pairs].tolist(),
                            by_used[lo:hi], b)

    # Per (row, slot): its offsets into U (its dataset's start) and, in batches, into the
    # example, noise and flip tables, side by side so that a chunk takes them at once and
    # adds its batch indices to the last three in one call; its rate constant; its flip
    # rate. A pair that reads no noise or no flips (a twin row, a noiseless oracle) starts
    # at -T there, below any batch index, and the gathers' mode="clip" takes each negative
    # index to the zero row 0. A padding slot is never read.
    noisy = np.repeat(np.array([r.noisy for r in rows], dtype=bool), widths)
    reads_noise, reads_flips = noisy & has_noise[oracle_of], noisy & has_flips[oracle_of]
    rcn = bool(reads_flips.any())
    if rcn:
        flips, flip_base = _one_table([o.flips for o in oracles], np.zeros((1, b), dtype=bool))
    else:
        flip_base = np.zeros(len(oracles), dtype=np.intp)

    def per_slot(flat: np.ndarray, pad) -> np.ndarray:
        table = np.full((n_rows, S, *flat.shape[1:]), pad, dtype=flat.dtype)
        table[pair_row, pair_slot] = flat
        return table

    offsets_at = per_slot(np.stack([ds_base[dataset_of[oracle_of]], ex_base[oracle_of],
                                    np.where(reads_noise, noise_base[oracle_of], -T),
                                    np.where(reads_flips, flip_base[oracle_of], -T)], axis=1),
                          -T)
    rate_at = per_slot(np.array([c for sched in schedules for c in sched.rates], dtype=float),
                       np.nan)
    sigma_at = per_slot(np.where(reads_flips, sigmas[oracle_of], 0.0), 0.0)
    # Each row's extreme rate constants (fmin and fmax pass over the padding's NaN).
    c_lo, c_hi = np.fmin.reduce(rate_at, axis=1), np.fmax.reduce(rate_at, axis=1)

    # The distinct slot sequences ("patterns"): per step, each one's slot and batch index
    # within that slot; and each one's first slot and first run, the steps before its slot
    # first changes.
    distinct: dict = {}
    pattern_of = np.array([distinct.setdefault(sched._key, (len(distinct), sched))[0]
                           for sched in schedules], dtype=np.intp)
    distinct = [sched for _, sched in distinct.values()]
    # In the narrowest dtype of their values (slot numbers below S, batch indices below T):
    # each sum they enter has an np.intp operand, which holds it.
    slot_tab = np.zeros((T, len(distinct)), dtype=np.min_scalar_type(S - 1))
    step_tab = np.zeros((T, len(distinct)), dtype=np.min_scalar_type(T - 1))
    first_of, run_of = (np.zeros(len(distinct), dtype=np.intp) for _ in range(2))
    for p, sched in enumerate(distinct):
        L = len(sched.slots)
        slot_tab[:L, p], step_tab[:L, p] = sched.slots, sched._batch
        if L:
            change = np.flatnonzero(sched.slots != sched.slots[0])
            first_of[p], run_of[p] = sched.slots[0], change[0] if change.size else L

    W = np.zeros((n_rows, d))

    # Every row starts at w = 0, so rows alike in their first slot and what it reads (its
    # offsets and its rate; a flip offset names the oracle, so its sigma too) take the
    # same steps while each stays in that slot. A group's root, its earliest row with the
    # longest first run, shares nothing; every other member takes over the root's state
    # after its own first run.
    first, run = first_of[pattern_of], run_of[pattern_of]
    on_first = (np.arange(n_rows), first)
    groups: dict = {}
    for i, key in enumerate(zip(first.tolist(), map(tuple, offsets_at[on_first].tolist()),
                                rate_at[on_first].tolist())):
        if lengths[i]:
            groups.setdefault(key, []).append(i)
    parent, shared = np.full(n_rows, -1), np.zeros(n_rows, dtype=np.intp)
    for members in groups.values():
        root = max(members, key=lambda i: (run[i], -i))
        for j in members:
            if j != root:
                parent[j], shared[j] = root, run[j]
    own = shared + 1
    # One row per kind of offset, so that a chunk's gather gives each kind as one
    # contiguous (steps, rows) plane.
    offsets_at = np.ascontiguousarray(offsets_at.reshape(n_rows * S, 4).T)
    # What bounds one step's move (see _norm_bounds): a row's loss gradient is at most
    # s_max * u_max, its scales being at most 1, or 1 / (1 - 2 sigma) under label flips,
    # and its noise at most z_max. u_max is the largest example norm of the call's
    # datasets, which each dataset computes once (|u| = |-y*x| = |x|); z_max is the
    # largest norm in the call's noise tables (not in rows of a shared buffer that the
    # call's oracles do not hold), NaN if one is NaN.
    s_max = 1.0 / (1.0 - 2.0 * sigma_at.max(axis=1))
    u_max = math.sqrt(max(ds.max_square_norm for ds in datasets))
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("nd,nd->n", noise, noise)
        z_sq = [sq[at:at + len(t)].max(initial=0.0)
                for at, t in zip(noise_base.tolist(), noise_tables) if t is not None]
        z_max = math.sqrt(np.max(z_sq, initial=0.0))
    rate_at, sigma_at = rate_at.ravel(), sigma_at.ravel()

    projected, last_projected, checked = (np.zeros(n_rows, dtype=np.intp) for _ in range(3))

    # Step buffers, made once: a span's R active rows are copied into the first R rows of
    # the iterate buffer, and a step writes into the first R rows of each. The update goes
    # into the spare iterate buffer, which then swaps roles with the iterate's.
    loss, bounded = objective.loss, math.isfinite(radius)
    logistic = loss == "logistic"
    expit = load_expit() if logistic else None
    einsum, multiply, divide = np.einsum, np.multiply, np.divide
    add, subtract = np.add, np.subtract
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
    step_no = np.arange(1, T + 1)[:, None]
    # Rows start or end only at these steps, so between two of them the active rows
    # (those whose own steps include that span) are a fixed set.
    bounds = np.unique(np.concatenate([own, lengths + 1, [1, T + 1]])).tolist()
    for t0, t1 in zip(bounds, bounds[1:] + [None]):
        for i in np.flatnonzero((own == t0) & (parent >= 0)).tolist():
            # The parent, earlier or later in row order, has taken exactly the shared steps
            # 1 .. t0 - 1 by now: W holds every row's state at a span's start.
            p = int(parent[i])
            W[i], projected[i], last_projected[i] = W[p], projected[p], last_projected[p]
        if t1 is None:
            break
        idx = np.flatnonzero((own <= t0) & (t0 <= lengths))
        R = len(idx)
        pats, row_base = pattern_of[idx], idx * S
        M, G, sq, hits = scales_buf[:R], grad_buf[:R], sq_buf[:R], projected[idx]
        Wa, V = np.take(W, idx, axis=0, out=iterate_buf[:R]), spare[:R]
        if bounded:
            a_span, e_span = _norm_bounds(t0, t1, c_lo[idx].min(), c_hi[idx].max(), lam,
                                          s_max[idx].max() * u_max + z_max, eps)
            n, checks, last = math.inf, 0, last_projected[idx]
        C = max(1, CHUNK_BYTES // (R * row_bytes))
        for c0 in range(t0, t1, C):
            # Everything steps c0 .. c1-1 read that does not depend on W is gathered at once,
            # by np.take on flat tables: the same bytes as fancy indexing, in less time.
            c1 = min(c0 + C, t1)
            steps = slice(c0 - 1, c1 - 1)
            k = np.take(step_tab[steps], pats, axis=1)
            rs = row_base + np.take(slot_tab[steps], pats, axis=1)
            at = np.take(offsets_at, rs, axis=1)
            at[1:] += k
            local = np.take(examples, at[1], axis=0)
            local += at[0][..., None]
            Uc = np.take(U, local, axis=0)
            U1c = Uc[:, :, 0]
            if rcn:
                f_c = np.where(np.take(flips, at[3], axis=0, mode="clip"), -1.0, 1.0)
                sigma_c = np.take(sigma_at, rs)[..., None]
                keep_c, denom_c = 1.0 - sigma_c, 1.0 - 2.0 * sigma_c
            noise_c = np.take(noise, at[2], axis=0, mode="clip")
            # Each row's step size repeated along d, so that the step multiplies equal shapes.
            eta_c = np.repeat((np.take(rate_at, rs) / step_no[steps])[..., None], d, axis=2)
            if bounded:
                a_c, e_c = a_span[c0 - t0:c1 - t0].tolist(), e_span[c0 - t0:c1 - t0].tolist()
            else:
                a_c = e_c = [None] * (c1 - c0)
            # At b = 1 a step's array calls are small, so its Python dispatch is much of its
            # cost: the loop zips over the chunk, calls numpy through local names and passes
            # ``out`` positionally (BENCH_order_step.json).
            for t, Ub, u1, z, eta, a, e in zip(range(c0, c1), Uc, U1c, noise_c, eta_c, a_c, e_c):
                if rcn:
                    j = t - c0
                    s = rcn_scales(objective, einsum("rbd,rd->rb", Ub, Wa, out=M), f_c[j],
                                   keep_c[j], sigma_c[j], denom_c[j])
                elif logistic:
                    s = expit(einsum("rbd,rd->rb", Ub, Wa, out=M), M)
                elif loss == "hinge":
                    s = margin_scales(objective, einsum("rbd,rd->rb", Ub, Wa, out=M))
                else:
                    s = M
                # At b=1 the product differs from einsum's sum only in the sign of an exact
                # zero, which the noise term (+0.0 where there is none) erases.
                if b == 1:
                    multiply(s, u1, G)
                else:
                    divide(einsum("rb,rbd->rd", s, Ub, out=G), b, G)
                # V = Wa - eta * ((lam * Wa + g) + noise), one operation at a time.
                multiply(Wa, lam, V)
                add(V, G, V)
                add(V, z, V)
                multiply(V, eta, V)
                subtract(Wa, V, V)
                if bounded:
                    n = a * n + e
                    if not n <= inside:
                        # The exact test. A correctly rounded sqrt is monotone, so this is
                        # "every row inside"; NaN fails it. Rows inside would be scaled by
                        # exactly 1.0, so a step that passes leaves V as it is (as does one
                        # the bound passes); one that fails scales it and checks it.
                        einsum("rd,rd->r", V, V, out=sq)
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
                Wa, V = V, Wa
            # The chunk's gathers go before the next chunk gathers, so that only one chunk's
            # are ever held: the loop's views would otherwise keep them alive.
            k = rs = at = local = Uc = U1c = noise_c = eta_c = Ub = u1 = z = eta = None
            f_c = sigma_c = keep_c = denom_c = None
        W[idx], projected[idx] = Wa, hits
        if bounded:
            last_projected[idx], checked[idx] = last, checked[idx] + checks

    bad = ~(norms(W) <= radius * (1.0 + 1e-9))
    if bad.any():
        raise InfeasibleIterate(f"{int(bad.sum())} of {n_rows} runs ended outside the ball "
                                f"of radius {radius} or non-finite")

    return [Trajectory(final_w=W[i].copy(), steps=int(lengths[i]), projected=int(projected[i]),
                       shared=int(shared[i]), checked=int(checked[i]),
                       last_projected=int(last_projected[i]))
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

def _whole_runs(schedule: Schedule, oracles: Mapping[str, GradientOracle], paired: bool) -> list:
    """One run of ``schedule`` over the oracles it names, from batch 0, and its twin if paired."""
    row_oracles = tuple(oracles[k] for k in schedule.ids)
    rows = [Row(schedule, row_oracles, noisy)
            for noisy in ((True, False) if paired else (True,))]
    check_budgets(rows)
    return rows


def run_sgd(phases: Sequence, oracles: Mapping[str, GradientOracle]) -> Trajectory:
    """Run each (oracle id, rate constant) phase's oracle over its whole budget, in order."""
    schedule = Schedule.blocks(phases, {k: o.steps_total for k, o in oracles.items()})
    return run_batch(_whole_runs(schedule, oracles, False))[0]


def run_sgd_interleaved(schedule: Schedule, oracles: Mapping[str, GradientOracle]) -> Trajectory:
    """Run ``schedule`` over the oracles it names, each over its whole budget."""
    return run_batch(_whole_runs(schedule, oracles, False))[0]


def run_paired(phases: Sequence, oracles: Mapping[str, GradientOracle]) -> tuple:
    """``run_sgd``'s run and its noiseless twin (see ``Row``) over the same data order."""
    schedule = Schedule.blocks(phases, {k: o.steps_total for k, o in oracles.items()})
    return tuple(run_batch(_whole_runs(schedule, oracles, True)))


def run_paired_interleaved(schedule: Schedule, oracles: Mapping[str, GradientOracle]) -> tuple:
    """``run_sgd_interleaved``'s run and its noiseless twin over the same data order."""
    return tuple(run_batch(_whole_runs(schedule, oracles, True)))
