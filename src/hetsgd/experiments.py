"""Experiment orchestration: strategy sweeps, order comparisons, CSV output.

Experiments are fully deterministic given the config's ``master_seed``: the
dataset, the clean/noisy split, and every trial's oracle seeds derive from it
through a splittable seed tree, and trials aggregate by index. The emitted
results.csv and trials.csv (every key's per-trial values) are byte-identical
across reruns; wall-clock timing goes to ``meta.json`` only (the ``seconds``
column in result rows is reserved and written as 0). Values that share a sweep
value and a trial ran on that trial's oracle seeds, so their difference is paired;
in strategy-cmp and order-exp different sweep points do not share seeds.

Each driver is a plan function (``_order_plan``, ``_strategy_plan``, ``_c2_plan``): it
checks its inputs, sets up data and seeds, makes its schedules and returns a ``_Plan``.
``_run`` runs every plan: it makes the output directory first, and removes what it made
of it if the run stops before emission; it rejects a list config key the plan does not
read, runs the trials, makes one row per (strategy, sweep value) key and then the marker
rows, emits, and returns a ``Run`` of the rows, the per-trial values and the meta.json
blocks.
"""
from __future__ import annotations

import contextlib
import csv
import json
import logging
import platform
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .core import (FLIP_RATE, FRACTION, LOSSES, POSITIVE, POSITIVE_FINITE, Dataset, ObjectiveSpec,
                   check_counts, check_reals, is_integer, load_expit)
from .datasets import SyntheticSpec, generate_synthetic, ingest_csv, ingest_libsvm, random_projection
from .oracles import GradientOracle, NoiseLevel, OracleSpec, draw_tables
from .rates import BoundInputs, c2_bracket, minimize_single_rate, select_rates
from .sgd import Row, Schedule, Trajectory, check_budgets, run_batch

STRATEGIES = ("Optimal", "CleanOnly", "SameClean", "SameNoisy", "Algorithm2")
ORDER_STRATEGIES = ("CF", "NF", "AO")

CSV_HEADER = ("strategy", "sweep_param", "mean", "stderr", "trials", "seconds")

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Result rows and emission


@dataclass(frozen=True)
class ResultRow:
    strategy: str
    sweep_param: float
    mean: float
    stderr: float
    trials: int
    seconds: float = 0.0


def _write_csv(path, header: tuple, records) -> None:
    """Write ``header`` and then ``records``, each a list of strings, as one CSV file."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(records)


def emit_csv(rows: Sequence[ResultRow], path) -> None:
    """Write rows under the fixed header; floats via repr so re-parsing is exact."""
    if not rows:
        raise ValueError("no rows to emit")
    _write_csv(path, CSV_HEADER, ([r.strategy, repr(float(r.sweep_param)), repr(float(r.mean)),
                                   repr(float(r.stderr)), str(int(r.trials)),
                                   repr(float(r.seconds))] for r in rows))


def _emit_trials(values: dict, path) -> None:
    """trials.csv: one line per (strategy, sweep value) key, in ``values`` order, and trial."""
    _write_csv(path, ("strategy", "sweep_param", "trial", "value"),
               ([strategy, repr(float(param)), str(i), repr(float(v))]
                for (strategy, param), vals in values.items() for i, v in enumerate(vals.tolist())))


def read_csv_rows(path) -> list:
    """The rows of a results.csv; a malformed file raises ValueError naming it and the line."""
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != CSV_HEADER:
            raise ValueError(f"{path} line 1: expected the header {CSV_HEADER}, got {header}")
        rows = []
        for rec in reader:
            try:
                strategy, sweep_param, mean, stderr, trials, seconds = rec
                rows.append(ResultRow(strategy, float(sweep_param), float(mean), float(stderr),
                                      int(trials), float(seconds)))
            except ValueError as err:
                raise ValueError(f"{path} line {reader.line_num}: {err}") from None
        return rows


def _git_dir(root: Path) -> Optional[Path]:
    """The git directory of a repository rooted at ``root``, or None.

    A worktree or a submodule has a ``.git`` file reading ``gitdir: <path>`` (relative to
    ``root`` or absolute) in place of the directory.
    """
    git = root / ".git"
    if git.is_file():
        text = git.read_text(encoding="utf-8").strip()
        if not text.startswith("gitdir:"):
            return None
        git = root / text.split(":", 1)[1].strip()
    return git if (git / "HEAD").exists() else None


def _git_hash(start: Path) -> str:
    """Commit checked out in the repository holding ``start``, or 'unknown'.

    A worktree's git directory names, in its ``commondir`` file, the directory
    that holds the branches and ``packed-refs``.
    """
    for root in (start, *start.parents):
        try:
            git = _git_dir(root)
            if git is None:
                continue
            text = (git / "HEAD").read_text(encoding="utf-8").strip()
            if not text.startswith("ref:"):
                return text
            ref = text.split(":", 1)[1].strip()
            common = git
            if (git / "commondir").exists():
                common = git / (git / "commondir").read_text(encoding="utf-8").strip()
            for base in (git, common):
                if (base / ref).exists():
                    return (base / ref).read_text(encoding="utf-8").strip()
            packed = common / "packed-refs"
            if packed.exists():
                for line in packed.read_text(encoding="utf-8").splitlines():
                    if line.endswith(" " + ref):
                        return line.split()[0]
        except OSError:
            pass
        return "unknown"
    return "unknown"


def write_meta(out_dir: Path, config_dict: dict, runtime_seconds: float, blocks: dict) -> None:
    """meta.json: the config, what ran (commit, Python, numpy, scipy), wall time and ``blocks``.

    scipy's version is read from the loaded module, the one whose ``expit`` the engine
    ran; it is null in a process that never loaded scipy.
    """
    meta = {
        "config": config_dict,
        "git_hash": _git_hash(Path(__file__).resolve().parent),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": getattr(sys.modules.get("scipy"), "__version__", None),
        "runtime_seconds": runtime_seconds,
        **blocks,
    }
    (out_dir / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n",
                                       encoding="utf-8")


# ---------------------------------------------------------------------------
# Configuration


def _checked(d: dict, cls, section: str) -> dict:
    """``d``, once checked to be a dict whose keys each name a field of the dataclass ``cls``."""
    if not isinstance(d, dict):
        raise ValueError(f"{section} must be an object, got {d!r}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown config keys in {section}: {unknown}")
    return d


# Config keys that hold a non-empty list of numbers, kept as a tuple, and the range of each
# entry: rate constants, privacy levels and flip rates.
_SEQUENCE_KEYS = {"c_grid": POSITIVE_FINITE, "epsilon_noisy_sweep": POSITIVE,
                  "sigma_noisy_sweep": FLIP_RATE}


@dataclass(frozen=True)
class ProblemConfig:
    loss: str = "logistic"
    lam: float = 1e-3
    radius: Optional[float] = None


DATA_KINDS = ("synthetic", "csv", "libsvm")


@dataclass(frozen=True)
class DataConfig:
    kind: str = "synthetic"          # one of DATA_KINDS
    d: int = 10
    n: int = 5000
    flip_rate: float = 0.05
    path: Optional[str] = None
    project_to: Optional[int] = None


@dataclass(frozen=True)
class OracleSetupConfig:
    kind: str = "local_dp"           # local_dp | rcn
    epsilon_clean: float = 10.0
    epsilon_noisy: float = 2.0
    sigma_clean: float = 0.0
    sigma_noisy: float = 0.2
    batch_size: int = 50


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    data: DataConfig = field(default_factory=DataConfig)
    oracles: OracleSetupConfig = field(default_factory=OracleSetupConfig)
    beta_c: float = 0.1
    trials: int = 100
    master_seed: int = 0
    out_dir: Optional[str] = None
    c_grid: Optional[tuple] = None
    epsilon_noisy_sweep: Optional[tuple] = None
    sigma_noisy_sweep: Optional[tuple] = None
    c2_grid_points: int = 12

    def __post_init__(self):
        for what, key, value, allowed in (
                ("loss", "problem.loss", self.problem.loss, LOSSES),
                ("data kind", "data.kind", self.data.kind, DATA_KINDS),
                ("oracle kind", "oracles.kind", self.oracles.kind, tuple(_LEVEL_FIELDS))):
            if value not in allowed:
                raise ValueError(f"unknown {what} {value!r} in {key}, expected one of {allowed}")
        if self.data.kind != "synthetic" and not self.data.path:
            raise ValueError(f"data.path must name the file of a {self.data.kind} dataset")
        # Both mechanisms' levels are checked, whichever oracles.kind runs.
        o = self.oracles
        check_reals({"beta_c": self.beta_c}, FRACTION)
        check_reals({"problem.lam": self.problem.lam}, POSITIVE_FINITE)
        check_reals({"data.flip_rate": self.data.flip_rate, "oracles.sigma_clean": o.sigma_clean,
                     "oracles.sigma_noisy": o.sigma_noisy}, FLIP_RATE)
        check_reals({"oracles.epsilon_clean": o.epsilon_clean,
                     "oracles.epsilon_noisy": o.epsilon_noisy}, POSITIVE)
        if self.problem.radius is not None:
            check_reals({"problem.radius": self.problem.radius}, POSITIVE)
        counts = {"trials": self.trials, "data.n": self.data.n, "data.d": self.data.d,
                  "oracles.batch_size": self.oracles.batch_size,
                  "c2_grid_points": self.c2_grid_points}
        if self.data.project_to is not None:
            counts["data.project_to"] = self.data.project_to
        check_counts(counts)
        if not is_integer(self.master_seed) or self.master_seed < 0:
            raise ValueError(f"master_seed must be an integer >= 0, got {self.master_seed!r}")
        for key, entry_range in _SEQUENCE_KEYS.items():
            values = getattr(self, key)
            if values is None:
                continue
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(f"{key} must be a non-empty list of numbers, got {values!r}")
            object.__setattr__(self, key, tuple(values))
            check_reals({f"{key}[{i}]": v for i, v in enumerate(values)}, entry_range)
            # Trials are keyed by strategy and sweep value, so a repeat would merge two rows' runs.
            if len(set(values)) != len(values):
                raise ValueError(f"{key} repeats a value: {values}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        kw = dict(_checked(d, cls, "config"))
        for key, section in (("problem", ProblemConfig), ("data", DataConfig),
                             ("oracles", OracleSetupConfig)):
            kw[key] = section(**_checked(kw.get(key, {}), section, key))
        return cls(**kw)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# The experiment skeleton: plan -> _run_trials -> one row per key -> emit


def _seed_int(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1, np.uint64)[0])


def load_dataset(cfg: ExperimentConfig, data_ss: np.random.SeedSequence) -> Dataset:
    data_seed_ss, proj_ss = data_ss.spawn(2)
    dc = cfg.data
    if dc.kind == "synthetic":
        ds = generate_synthetic(SyntheticSpec(dc.d, dc.n, dc.flip_rate), _seed_int(data_seed_ss))
    elif dc.kind == "csv":
        ds = ingest_csv(dc.path)
    else:
        ds = ingest_libsvm(dc.path)
    if dc.project_to is not None and dc.project_to != ds.d:
        ds = random_projection(ds, dc.project_to, _seed_int(proj_ss))
    return ds


def split_dataset(ds: Dataset, beta_c: float, split_ss: np.random.SeedSequence) -> tuple:
    """The clean and the noisy source's rows of ``ds``, not copies of its examples.

    A seeded permutation of the rows, cut after round(beta_c * n) of them (at least one
    on each side). Each part is an array of row indices that ``ds`` has checked
    (``Dataset.checked_rows``), so that no oracle over it checks it again.
    """
    n = len(ds)
    n_c = min(max(int(round(beta_c * n)), 1), n - 1)
    perm = np.random.default_rng(split_ss).permutation(n)
    return ds.checked_rows(perm[:n_c]), ds.checked_rows(perm[n_c:])


class _Setup(NamedTuple):
    """What every driver derives from its config before its first trial.

    The loaded dataset is held once: the clean and noisy sources are row indices into
    it, which their oracles serve and the engine reads from its one signed copy.
    """

    ds: Dataset
    rows_c: np.ndarray       # the clean source's rows of ds
    rows_n: np.ndarray       # the noisy source's rows of ds
    beta_c: float            # the clean share after the split rounds it
    obj: ObjectiveSpec
    steps: dict              # oracle id -> batches in its source
    seeds: list              # [sweep point][trial] -> seeds (clean, noisy, pattern, full oracle)

    def objective(self, t: Trajectory) -> float:
        """The full objective at a run's final iterate."""
        return self.ds.objective(self.obj, t.final_w)


def _setup(cfg: ExperimentConfig, n_sweep: int) -> _Setup:
    # The engine's first logistic step would import scipy.special; do it here, so that a
    # fresh process's import is charged to the setup stage, not to the engine's.
    load_expit()
    data_ss, split_ss, sweep_ss = np.random.SeedSequence(cfg.master_seed).spawn(3)
    ds = load_dataset(cfg, data_ss)
    rows_c, rows_n = split_dataset(ds, cfg.beta_c, split_ss)
    b = cfg.oracles.batch_size
    steps = {"clean_data": len(rows_c) // b, "noisy_data": len(rows_n) // b,
             "all_data": len(ds) // b}
    seeds = [[tuple(int(v) for v in trial.generate_state(4, np.uint64))
              for trial in point.spawn(cfg.trials)] for point in sweep_ss.spawn(n_sweep)]
    obj = ObjectiveSpec(cfg.problem.lam, cfg.problem.loss, cfg.problem.radius)
    return _Setup(ds, rows_c, rows_n, len(rows_c) / len(ds), obj, steps, seeds)


# Trials are batched into one engine call until the batch holds about this many
# bytes: each oracle's noise table and permutation once (a block's tables share one
# buffer of each kind, which the engine reads in place; see oracles.draw_tables) and
# one step's example gathers per row. That is 1.24 MB per shipped order-exp trial,
# 0.94 MB per strategy-cmp trial and 1.06 MB per c2-sweep trial, so 8 MiB holds 7, 9
# and 8 of them, and all 4 trials of perfbench's strategy-cmp and c2-sweep runs.
# Trials are independent, so the grouping changes no byte. At the shipped order-exp
# config with 16 trials (seed 777), on a shared 2-core VM (Python 3.11.7, numpy
# 2.4.6) where timings drift by about 30%, in process, 9 to 12 driver calls per
# grouping, with the noise tables and permutations then held twice (the RSS column
# is from that time):
#   trials per call   engine calls   trials/s median (range)   peak RSS (3 calls)
#    1                16             17.0 (13.9-19.2)           63 MiB
#    2                 8             19.4 (18.5-24.8)           64 MiB
#    4                 4             21.6 (19.0-28.8)           70 MiB
#    7                 3             23.8 (21.7-28.9)           79 MiB
#   14                 2             24.3 (19.7-34.8)          100 MiB
# The budget stays at 8 MiB until a benchmark workload with many trials per
# call decides it.
BATCH_BYTES = 8 << 20


def _batch_bytes(rows: Sequence[Row]) -> int:
    """What ``rows`` add to an engine call, in the terms of ``BATCH_BYTES``."""
    oracles = {id(o): o for r in rows for o in r.oracles}.values()
    tables = sum(o.steps_total * (o.dataset.d + o.spec.batch_size) for o in oracles)
    gathered = sum(r.oracles[0].spec.batch_size * r.oracles[0].dataset.d for r in rows)
    return 8 * (tables + 3 * gathered)


class RunReport:
    """What one driver call records about itself for meta.json, never for the CSVs.

    ``timing`` holds the wall seconds of each stage: setup (data, split, seeds
    and rate planning), oracles (building each trial's oracles and rows),
    engine, scoring and emission. ``lap(stage)`` charges the time since the
    previous lap to a stage and returns it. ``projection`` holds, per
    (strategy, sweep value), the row-steps on which the projection scaled a
    run, all its row-steps and the last step on which it scaled one (0:
    none). ``engine`` counts the engine calls, their rows, the rows' steps,
    the steps a row took over from another row's run (``Trajectory.shared``)
    and the row-steps on which the exact inside-ball test ran
    (``Trajectory.checked``), and keeps the most trials one engine call held
    (``max_trials_per_call``).
    ``assumes_inactive`` says that the driver's verdict assumes runs the
    projection never touches.
    """

    STAGES = ("setup", "oracles", "engine", "scoring", "emission")

    def __init__(self, assumes_inactive: bool = False):
        self.assumes_inactive = assumes_inactive
        self.timing = dict.fromkeys(self.STAGES, 0.0)
        self.projection: dict = {}
        self.engine = dict.fromkeys(("calls", "rows", "row_steps", "shared_row_steps",
                                     "checked_row_steps", "max_trials_per_call"), 0)
        self.started = self._last = time.perf_counter()

    def lap(self, stage: str) -> float:
        now = time.perf_counter()
        seconds, self._last = now - self._last, now
        self.timing[stage] += seconds
        return seconds

    def meta(self) -> dict:
        """The ``timing``, ``engine`` and ``projection`` blocks of meta.json.

        Activity where the verdict assumes none sets ``violated`` and logs a warning.
        """
        points = [{"strategy": key[0], "sweep_param": float(key[1]),
                   "active_frac": hit / steps if steps else 0.0, "last_active_step": last}
                  for key, (hit, steps, last) in self.projection.items()]
        active = any(p["active_frac"] > 0 for p in points)
        if self.assumes_inactive and active:
            hit, steps, _ = (sum(v) for v in zip(*self.projection.values()))
            logger.warning("the projection scaled runs on %d of %d row-steps, the last at step "
                           "%d; the verdict assumes it never does", hit, steps,
                           max(p["last_active_step"] for p in points))
        return {"timing": {f"{stage}_s": t for stage, t in self.timing.items()},
                "engine": dict(self.engine),
                "projection": {"points": points, "active": active,
                               "assumes_inactive": self.assumes_inactive,
                               "violated": self.assumes_inactive and active}}


def _run_trials(trials: int, make_trial: Callable[[int], list],
                score: Callable[[list], float], report: RunReport) -> dict:
    """Per-trial scores of every keyed group of runs, through as few engine calls as fit.

    ``make_trial(i)`` lists trial i's (key, rows); ``score`` turns one
    group's trajectories into that trial's value for the key. Trials are
    independent, so how they are batched does not change any value. The time
    up to here is charged to setup in ``report``, which also gets the stage
    times, the engine counts and the projection activity of the trials.
    """
    report.lap("setup")
    values: dict = {}
    block, size, first = [], 0, 0
    for i in range(trials):
        entries = make_trial(i)
        trial_rows = [r for _, rows in entries for r in rows]
        check_budgets(trial_rows)
        block += entries
        size += _batch_bytes(trial_rows)
        full = size >= BATCH_BYTES or i == trials - 1
        if full:
            # The block's noise and flip tables, drawn into one buffer each that the engine
            # call reads in place.
            block_rows = [r for _, rows in block for r in rows]
            draw_tables([o for r in block_rows for o in r.oracles])
        report.lap("oracles")
        if not full:
            continue
        trajectories = run_batch(block_rows)
        seconds = report.lap("engine")
        engine = report.engine
        row_steps = sum(t.steps for t in trajectories)
        logger.info("engine call %d: %d trials (%d-%d), %d rows, %d row-steps, %.3f s",
                    engine["calls"], i + 1 - first, first, i, len(trajectories), row_steps,
                    seconds)
        engine["calls"] += 1
        engine["rows"] += len(trajectories)
        engine["row_steps"] += row_steps
        engine["shared_row_steps"] += sum(t.shared for t in trajectories)
        engine["checked_row_steps"] += sum(t.checked for t in trajectories)
        engine["max_trials_per_call"] = max(engine["max_trials_per_call"], i + 1 - first)
        trajectories = iter(trajectories)
        for key, rows in block:
            group = [next(trajectories) for _ in rows]
            values.setdefault(key, []).append(score(group))
            counts = report.projection.setdefault(key, [0, 0, 0])
            counts[0] += sum(t.projected for t in group)
            counts[1] += sum(t.steps for t in group)
            counts[2] = max(counts[2], *(t.last_projected for t in group))
        report.lap("scoring")
        # Every name still bound to the block's rows holds, through their oracles, the
        # block's table buffer: drop them before the next block is built.
        del entries, trial_rows, block_rows, rows
        block, size, first = [], 0, i + 1
    return {key: np.array(v) for key, v in values.items()}


def _result_row(strategy: str, sweep_param: float, values: np.ndarray) -> ResultRow:
    stderr = float(values.std(ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
    return ResultRow(strategy=strategy, sweep_param=float(sweep_param),
                     mean=float(values.mean()), stderr=stderr, trials=len(values))


def _emit(cfg: ExperimentConfig, rows: Sequence[ResultRow], values: dict, report: RunReport,
          driver_meta: dict) -> dict:
    """The report's meta.json blocks (see ``RunReport.meta``) and then the driver's.

    With out_dir, which ``_run`` made, it writes results.csv, trials.csv (the per-trial
    ``values``) and meta.json.
    """
    if cfg.out_dir:
        out = Path(cfg.out_dir)
        emit_csv(rows, out / "results.csv")
        _emit_trials(values, out / "trials.csv")
        report.lap("emission")
    meta = {**report.meta(), **driver_meta}
    if cfg.out_dir:
        write_meta(out, cfg.to_dict(), time.perf_counter() - report.started, meta)
    return meta


class _Plan(NamedTuple):
    """What a driver gives ``_run``, once its inputs are checked and its schedules made."""

    command: str             # the subcommand, named in errors
    reads: tuple             # the list keys (_SEQUENCE_KEYS) it reads; any other must be unset
    make_trial: Callable[[int], list]    # trial i -> its [(key, rows)] (see _run_trials)
    score: Callable[[list], float]       # one key's trajectories -> its value for the trial
    markers: tuple = ()      # (row name, key): an extra row repeating that key's values
    meta: dict = {}          # the driver's own meta.json blocks (never mutated)


class Run(NamedTuple):
    """What a driver call returns."""

    rows: list               # the rows of results.csv
    values: dict             # (strategy, sweep value) -> its trial values, in row order (trials.csv)
    meta: dict               # the blocks of meta.json besides the config and what ran


def _make_out_dir(out_dir: Optional[str]) -> list:
    """Make ``out_dir`` (None: none) and its missing parents; return those made, deepest first."""
    if not out_dir:
        return []
    path = Path(out_dir)
    made = [d for d in (path, *path.parents) if not d.exists()]
    path.mkdir(parents=True, exist_ok=True)
    return made


def _run(cfg: ExperimentConfig, plan: Callable[[ExperimentConfig], _Plan],
         assumes_inactive: bool = False) -> Run:
    """A driver's plan, trials, a row per key in key order, its marker rows, and emission."""
    report = RunReport(assumes_inactive)
    # Made before the plan, so that an out_dir naming a file fails before any work; a run
    # that stops before emission removes the directories it made, which are still empty.
    made = _make_out_dir(cfg.out_dir)
    try:
        p = plan(cfg)
        for key in _SEQUENCE_KEYS:
            if getattr(cfg, key) is not None and key not in p.reads:
                raise ValueError(f"{key} is set, but {p.command} with oracles.kind "
                                 f"{cfg.oracles.kind!r} does not read it")
        values = _run_trials(cfg.trials, p.make_trial, p.score, report)
    except BaseException:
        for path in made:       # deepest first
            with contextlib.suppress(OSError):
                path.rmdir()
        raise
    rows = [_result_row(*key, v) for key, v in values.items()]
    rows += [_result_row(name, key[1], values[key]) for name, key in p.markers]
    return Run(rows, values, _emit(cfg, rows, values, report, p.meta))


# ---------------------------------------------------------------------------
# Oracles and plans


# Mechanism -> the OracleSpec field holding its noise level, which also
# prefixes the config keys of that level (epsilon_clean, sigma_noisy_sweep, ...).
_LEVEL_FIELDS = {"local_dp": "epsilon", "rcn": "sigma"}


def _levels(cfg: ExperimentConfig) -> tuple:
    """(clean level, default noisy level, noisy sweep) of the config's mechanism."""
    field_name = _LEVEL_FIELDS[cfg.oracles.kind]
    noisy = getattr(cfg.oracles, f"{field_name}_noisy")
    return (getattr(cfg.oracles, f"{field_name}_clean"), noisy,
            tuple(getattr(cfg, f"{field_name}_noisy_sweep") or (noisy,)))


def _oracle_spec(cfg: ExperimentConfig, budget: int, seed: int,
                 level: Optional[float]) -> OracleSpec:
    """The config's mechanism at noise ``level`` (see _levels); None: noiseless."""
    b = cfg.oracles.batch_size
    if level is None:
        return OracleSpec("clean", budget=budget, batch_size=b, rng_seed=seed)
    return OracleSpec(cfg.oracles.kind, budget=budget, batch_size=b, rng_seed=seed,
                      **{_LEVEL_FIELDS[cfg.oracles.kind]: level})


def _noise_level(cfg: ExperimentConfig, d: int, level: float) -> NoiseLevel:
    """The mechanism's noise level at ``level``; an oracle's budget and seed do not enter it."""
    return _oracle_spec(cfg, 1, 0, level).noise_level(d)


def _split_oracles(cfg: ExperimentConfig, s: _Setup, seeds: tuple, noisy_level: float) -> dict:
    """One trial's clean-side and noisy-side oracles, from its seeds, over the split's rows."""
    clean_level = _levels(cfg)[0]
    return {"clean_data": GradientOracle(_oracle_spec(cfg, len(s.rows_c), seeds[0], clean_level),
                                         s.obj, s.ds, s.rows_c),
            "noisy_data": GradientOracle(_oracle_spec(cfg, len(s.rows_n), seeds[1], noisy_level),
                                         s.obj, s.ds, s.rows_n)}


def _row(schedule: Schedule, oracles: dict, noisy: bool = True) -> Row:
    return Row(schedule, tuple(oracles[k] for k in schedule.ids), noisy)


def _two_phase(order: str, c1: float, c2: float, steps: dict) -> Schedule:
    """Both sources, ``order`` 'clean_first' or 'noisy_first', at rate constants c1 then c2."""
    sources = ("clean_data", "noisy_data") if order == "clean_first" else ("noisy_data", "clean_data")
    return Schedule.blocks(tuple(zip(sources, (c1, c2))), steps)


# ---------------------------------------------------------------------------
# Strategy comparison


def _strategy_plan(cfg: ExperimentConfig) -> _Plan:
    """Every strategy at every noisy level of the sweep, scored by the final full objective.

    Within a trial all strategies share the dataset and the oracle seeds (common random
    numbers), so per-trial differences between strategies are directly comparable.
    """
    clean_level, _, sweep = _levels(cfg)
    s = _setup(cfg, len(sweep))
    beta_c, lam, steps = s.beta_c, s.obj.lam, s.steps
    schedules = []
    for level in sweep:
        gc, gn = (_noise_level(cfg, s.ds.d, v).gamma_sq for v in (clean_level, level))
        sel = select_rates(gc, gn, beta_c, lam)
        same_clean_c, _ = minimize_single_rate(BoundInputs(gc, gn, beta_c, lam, T=1))
        same_noisy_c, _ = minimize_single_rate(BoundInputs(gn, gc, 1.0 - beta_c, lam, T=1))
        schedules.append({
            "Optimal": Schedule.blocks((("all_data", 1.0 / lam),), steps),
            "CleanOnly": Schedule.blocks((("clean_data", 1.0 / lam),), steps),
            "SameClean": _two_phase("clean_first", same_clean_c, same_clean_c, steps),
            "SameNoisy": _two_phase("noisy_first", same_noisy_c, same_noisy_c, steps),
            "Algorithm2": _two_phase(sel.order, sel.c1, sel.c2, steps)})

    def make_trial(i: int) -> list:
        entries = []
        for j, level in enumerate(sweep):
            seeds = s.seeds[j][i]
            oracles = _split_oracles(cfg, s, seeds, level)
            oracles["all_data"] = GradientOracle(_oracle_spec(cfg, len(s.ds), seeds[3], None),
                                                 s.obj, s.ds)
            entries += [((name, level), (_row(schedules[j][name], oracles),))
                        for name in STRATEGIES]
        return entries

    reads = (_LEVEL_FIELDS[cfg.oracles.kind] + "_noisy_sweep",)
    return _Plan("strategy-cmp", reads, make_trial, lambda group: s.objective(group[0]))


def run_strategy_comparison(cfg: ExperimentConfig) -> Run:
    return _run(cfg, _strategy_plan)


# ---------------------------------------------------------------------------
# Order experiment: |f(w) - f(v)| for clean-first / noisy-first / arbitrary


def _order_plan(cfg: ExperimentConfig) -> _Plan:
    """Every order at every c of the grid, scored by the gap |f(w) - f(v)| to the noiseless twin."""
    if not cfg.c_grid:
        raise ValueError("order experiment needs c_grid")
    c_grid = tuple(float(c) for c in cfg.c_grid)
    _, noisy_level, _ = _levels(cfg)
    s = _setup(cfg, len(c_grid))

    # Clean first and noisy first depend only on c, so every trial shares their schedules.
    blocks = {(name, c): _two_phase("clean_first" if name == "CF" else "noisy_first", c, c, s.steps)
              for name in ORDER_STRATEGIES if name != "AO" for c in c_grid}

    def schedule(name: str, c: float, seed_ao: int) -> Schedule:
        if name != "AO":
            return blocks[name, c]
        # Arbitrary order: the clean and noisy steps shuffled by the trial's pattern seed.
        slots = np.repeat([0, 1], [s.steps["clean_data"], s.steps["noisy_data"]])
        np.random.default_rng(seed_ao).shuffle(slots)
        return Schedule(("clean_data", "noisy_data"), (c, c), slots)

    def make_trial(i: int) -> list:
        entries = []
        for j, c in enumerate(c_grid):
            seeds = s.seeds[j][i]
            oracles = _split_oracles(cfg, s, seeds, noisy_level)
            for name in ORDER_STRATEGIES:
                sched = schedule(name, c, seeds[2])
                entries.append(((name, c), (_row(sched, oracles), _row(sched, oracles, noisy=False))))
        return entries

    return _Plan("order-exp", ("c_grid",), make_trial,
                 lambda group: abs(s.objective(group[0]) - s.objective(group[1])))


def run_order_experiment(cfg: ExperimentConfig) -> Run:
    # The order verdict rests on the delta_t closed form of a run without projection.
    return _run(cfg, _order_plan, assumes_inactive=True)


# ---------------------------------------------------------------------------
# Second-rate sweep against the clean-only reference


def _c2_plan(cfg: ExperimentConfig) -> _Plan:
    """Final objective vs the second-phase rate at c1 = 1/lam, and the clean-only reference.

    The data order is fixed once, by the rate selection on the upper-bound
    noise levels; c2(U) is that selection's rate and c2(L) re-minimizes the
    same order's bound curve with the lower-bound noise levels, so both
    bracket rates live on the curve actually being swept. Marker rows repeat
    the grid rows at the bracketing and selected rates, named in ``c2_markers``.
    """
    clean_level, noisy_level, _ = _levels(cfg)
    s = _setup(cfg, 1)
    noise_c, noise_n = (_noise_level(cfg, s.ds.d, v) for v in (clean_level, noisy_level))
    bracket = c2_bracket(noise_c, noise_n, s.beta_c, s.obj.lam)
    c2_lower, c2_upper = bracket.c2_lower, bracket.c2_upper
    lo, hi = sorted((c2_lower, c2_upper))
    # Label noise has no separate lower noise level (rcn_noise_level), so its bracket is one
    # point and the sweep would measure one rate, whatever c2_grid_points asks for.
    if not hi > lo:
        raise ValueError(f"c2-sweep needs c2(L) < c2(U) to sweep, but oracles.kind "
                         f"{cfg.oracles.kind!r} gives the one-point bracket [{lo!r}, {hi!r}]")
    span = np.geomspace(0.5 * lo, 2.0 * hi, cfg.c2_grid_points)
    # The bracketing rates are always measured so the marker rows carry data.
    grid = sorted({float(c) for c in span} | {float(c2_lower), float(c2_upper)})

    schedules = {("TwoRate", c2): _two_phase(bracket.order, 1.0 / s.obj.lam, c2, s.steps)
                 for c2 in grid}
    schedules[("CleanOnly", 0.0)] = Schedule.blocks((("clean_data", 1.0 / s.obj.lam),), s.steps)

    def make_trial(i: int) -> list:
        oracles = _split_oracles(cfg, s, s.seeds[0][i], noisy_level)
        return [(key, (_row(sched, oracles),)) for key, sched in schedules.items()]

    rates = {"c2_lower": c2_lower, "c2_upper": c2_upper, "c2_selected": c2_upper}
    markers = tuple((f"marker_{name}", ("TwoRate", float(c2))) for name, c2 in rates.items())
    return _Plan("c2-sweep", (), make_trial, lambda group: s.objective(group[0]),
                 markers, {"c2_markers": {**rates, "order": bracket.order}})


def run_c2_sweep(cfg: ExperimentConfig) -> Run:
    return _run(cfg, _c2_plan)
