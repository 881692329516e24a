"""Experiment orchestration: strategy sweeps, order comparisons, CSV output.

Experiments are fully deterministic given the config's ``master_seed``: the
dataset, the clean/noisy split, and every trial's oracle seeds derive from it
through a splittable seed tree, and trials aggregate by index. Emitted CSVs
are byte-identical across reruns; wall-clock timing goes to ``meta.json``
only (the ``seconds`` column in result rows is reserved and written as 0).
"""
from __future__ import annotations

import csv
import json
import logging
import platform
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .core import Dataset, ObjectiveSpec, full_objective
from .datasets import SyntheticSpec, generate_synthetic, ingest_csv, ingest_libsvm, random_projection
from .oracles import GradientOracle, NoiseLevel, OracleSpec
from .rates import BoundInputs, c2_bracket, minimize_single_rate, select_rates
from .sgd import PhasePlan, Row, Schedule, check_budgets, run_batch

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


def emit_csv(rows: Sequence[ResultRow], path) -> None:
    """Write rows under the fixed header; floats via repr so re-parsing is exact."""
    if not rows:
        raise ValueError("no rows to emit")
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow([r.strategy, repr(float(r.sweep_param)), repr(float(r.mean)),
                             repr(float(r.stderr)), str(int(r.trials)), repr(float(r.seconds))])


def read_csv_rows(path) -> list:
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != CSV_HEADER:
            raise ValueError(f"unexpected header {header}")
        return [ResultRow(strategy=rec[0], sweep_param=float(rec[1]), mean=float(rec[2]),
                          stderr=float(rec[3]), trials=int(rec[4]), seconds=float(rec[5]))
                for rec in reader]


def emit_plotdata(rows: Sequence[ResultRow], out_dir, prefix: str = "plot") -> list:
    """One CSV per strategy series, same schema, for external plotting."""
    if not rows:
        raise ValueError("no rows to emit")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    by_strategy: dict = {}
    for r in rows:
        by_strategy.setdefault(r.strategy, []).append(r)
    for name in sorted(by_strategy):
        safe = "".join(ch if ch.isalnum() or ch in "-_" else "_" for ch in name)
        path = out_dir / f"{prefix}_{safe}.csv"
        emit_csv(by_strategy[name], path)
        paths.append(path)
    return paths


def _git_hash(start: Path) -> str:
    """Commit checked out in the repository holding ``start``, or 'unknown'."""
    for root in (start, *start.parents):
        git = root / ".git"
        if not (git / "HEAD").exists():
            continue
        try:
            text = (git / "HEAD").read_text(encoding="utf-8").strip()
            if not text.startswith("ref:"):
                return text
            ref = text.split(":", 1)[1].strip()
            if (git / ref).exists():
                return (git / ref).read_text(encoding="utf-8").strip()
            packed = git / "packed-refs"
            if packed.exists():
                for line in packed.read_text(encoding="utf-8").splitlines():
                    if line.endswith(" " + ref):
                        return line.split()[0]
        except OSError:
            pass
        return "unknown"
    return "unknown"


def write_meta(out_dir, config_dict: dict, runtime_seconds: float, extras: Optional[dict] = None) -> None:
    """meta.json: the config, what ran (package commit, Python, numpy) and the wall time."""
    out_dir = Path(out_dir)
    meta = {
        "config": config_dict,
        "git_hash": _git_hash(Path(__file__).resolve().parent),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "runtime_seconds": runtime_seconds,
    }
    if extras:
        meta.update(extras)
    (out_dir / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n",
                                       encoding="utf-8")


# ---------------------------------------------------------------------------
# Configuration


def _checked(d: dict, cls, section: str) -> dict:
    """``d``, once each of its keys is checked to name a field of the dataclass ``cls``."""
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown config keys in {section}: {unknown}")
    return d


# Config keys that hold a sequence, kept as a tuple.
_SEQUENCE_KEYS = ("strategies", "c_grid", "epsilon_noisy_sweep", "sigma_noisy_sweep", "c2_grid")


@dataclass(frozen=True)
class ProblemConfig:
    loss: str = "logistic"
    lam: float = 1e-3
    radius: Optional[float] = None


@dataclass(frozen=True)
class DataConfig:
    kind: str = "synthetic"          # synthetic | csv | libsvm
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
    strategies: Optional[tuple] = None
    trials: int = 100
    master_seed: int = 0
    out_dir: Optional[str] = None
    c_grid: Optional[tuple] = None
    epsilon_noisy_sweep: Optional[tuple] = None
    sigma_noisy_sweep: Optional[tuple] = None
    c2_grid: Optional[tuple] = None
    c2_grid_points: int = 12

    def __post_init__(self):
        if not 0.0 < self.beta_c < 1.0:
            raise ValueError("beta_c must be in (0, 1)")
        counts = [("trials", self.trials), ("data.n", self.data.n), ("data.d", self.data.d),
                  ("oracles.batch_size", self.oracles.batch_size),
                  ("c2_grid_points", self.c2_grid_points)]
        if self.data.project_to is not None:
            counts.append(("data.project_to", self.data.project_to))
        for key, value in counts:
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{key} must be an integer >= 1, got {value!r}")
        if self.strategies is not None and len(self.strategies) == 0:
            raise ValueError("strategies must name at least one strategy; omit it to run all")
        # Trials are keyed by strategy and sweep value, so a repeat would merge two rows' runs.
        for key in _SEQUENCE_KEYS:
            values = getattr(self, key)
            if values is not None and len(set(values)) != len(values):
                raise ValueError(f"{key} repeats a value: {values}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        kw = dict(_checked(d, cls, "config"))
        for key, section in (("problem", ProblemConfig), ("data", DataConfig),
                             ("oracles", OracleSetupConfig)):
            kw[key] = section(**_checked(kw.get(key, {}), section, key))
        for key in _SEQUENCE_KEYS:
            if kw.get(key) is not None:
                kw[key] = tuple(kw[key])
        return cls(**kw)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# The experiment skeleton: setup -> per-trial rows -> _run_trials -> aggregate -> emit


def _seed_int(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1, np.uint64)[0])


def load_dataset(cfg: ExperimentConfig, data_ss: np.random.SeedSequence) -> Dataset:
    data_seed_ss, proj_ss = data_ss.spawn(2)
    dc = cfg.data
    if dc.kind == "synthetic":
        ds = generate_synthetic(SyntheticSpec(dc.d, dc.n, dc.flip_rate), _seed_int(data_seed_ss))
    elif dc.kind == "csv":
        ds = ingest_csv(dc.path)
    elif dc.kind == "libsvm":
        ds = ingest_libsvm(dc.path)
    else:
        raise ValueError(f"unknown data kind {dc.kind!r}")
    if dc.project_to is not None and dc.project_to != ds.d:
        ds = random_projection(ds, dc.project_to, _seed_int(proj_ss))
    return ds


def split_dataset(ds: Dataset, beta_c: float, split_ss: np.random.SeedSequence):
    n = len(ds)
    n_c = min(max(int(round(beta_c * n)), 1), n - 1)
    perm = np.random.default_rng(split_ss).permutation(n)
    return ds.subset(perm[:n_c]), ds.subset(perm[n_c:])


class _Setup(NamedTuple):
    """What every driver derives from its config before its first trial."""

    ds: Dataset
    ds_c: Dataset
    ds_n: Dataset
    beta_c: float            # the clean share after the split rounds it
    obj: ObjectiveSpec
    steps: dict              # oracle id -> batches in its source
    seeds: list              # [sweep point][trial] -> seeds (clean, noisy, pattern, full oracle)


def _setup(cfg: ExperimentConfig, n_sweep: int) -> _Setup:
    data_ss, split_ss, sweep_ss = np.random.SeedSequence(cfg.master_seed).spawn(3)
    ds = load_dataset(cfg, data_ss)
    ds_c, ds_n = split_dataset(ds, cfg.beta_c, split_ss)
    b = cfg.oracles.batch_size
    steps = {"clean_data": len(ds_c) // b, "noisy_data": len(ds_n) // b, "all_data": len(ds) // b}
    seeds = [[tuple(int(v) for v in trial.generate_state(4, np.uint64))
              for trial in point.spawn(cfg.trials)] for point in sweep_ss.spawn(n_sweep)]
    obj = ObjectiveSpec(cfg.problem.lam, cfg.problem.loss, cfg.problem.radius)
    return _Setup(ds, ds_c, ds_n, len(ds_c) / len(ds), obj, steps, seeds)


# Trials are batched into one engine call until the batch holds about this
# many bytes of noise tables and permutations (each kept twice: per oracle
# and stacked by the engine) plus one step's example gathers.
BATCH_BYTES = 2 << 20


def _batch_bytes(rows: Sequence[Row]) -> int:
    oracles = {id(o): o for r in rows for o in r.oracles}.values()
    tables = sum(o.steps_total * (o.dataset.d + o.spec.batch_size) for o in oracles)
    gathered = sum(r.oracles[0].spec.batch_size * r.oracles[0].dataset.d for r in rows)
    return 8 * (2 * tables + 3 * gathered)


class RunReport:
    """What one driver call records about itself for meta.json, never for the CSVs.

    ``timing`` holds the wall seconds of each stage: setup (data, split, seeds
    and rate planning), oracles (building each trial's oracles and rows),
    engine, scoring and emission. ``lap(stage)`` charges the time since the
    previous lap to a stage. ``projection`` holds, per (strategy, sweep value),
    the row-steps on which the projection scaled a run and all its row-steps.
    ``assumes_inactive`` says that the driver's verdict assumes runs the
    projection never touches.
    """

    STAGES = ("setup", "oracles", "engine", "scoring", "emission")

    def __init__(self, assumes_inactive: bool = False):
        self.assumes_inactive = assumes_inactive
        self.timing = dict.fromkeys(self.STAGES, 0.0)
        self.projection: dict = {}
        self.started = self._last = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.timing[stage] += now - self._last
        self._last = now

    def meta(self) -> dict:
        """The ``timing`` and ``projection`` blocks of meta.json.

        Activity where the verdict assumes none sets ``violated`` and logs a warning.
        """
        points = [{"strategy": key[0], "sweep_param": float(key[1]),
                   "active_frac": hit / steps if steps else 0.0}
                  for key, (hit, steps) in self.projection.items()]
        active = any(p["active_frac"] > 0 for p in points)
        if self.assumes_inactive and active:
            hit, steps = (sum(v) for v in zip(*self.projection.values()))
            logger.warning("the projection scaled runs on %d of %d row-steps; the verdict "
                           "assumes it never does", hit, steps)
        return {"timing": {f"{stage}_s": t for stage, t in self.timing.items()},
                "projection": {"points": points, "active": active,
                               "assumes_inactive": self.assumes_inactive,
                               "violated": self.assumes_inactive and active}}


def _run_trials(trials: int, radius: float, make_trial: Callable[[int], list],
                score: Callable[[list], float], report: Optional[RunReport]) -> dict:
    """Per-trial scores of every keyed group of runs, through as few engine calls as fit.

    ``make_trial(i)`` lists trial i's (key, rows); ``score`` turns one
    group's trajectories into that trial's value for the key. Trials are
    independent, so how they are batched does not change any value. The time
    up to here is charged to setup in ``report``, which also gets the stage
    times and the projection activity of the trials.
    """
    report = report or RunReport()
    report.lap("setup")
    values: dict = {}
    block, size = [], 0
    for i in range(trials):
        entries = make_trial(i)
        trial_rows = [r for _, rows in entries for r in rows]
        check_budgets(trial_rows)
        block += entries
        size += _batch_bytes(trial_rows)
        report.lap("oracles")
        if size < BATCH_BYTES and i < trials - 1:
            continue
        trajectories = iter(run_batch([r for _, rows in block for r in rows], radius))
        report.lap("engine")
        for key, rows in block:
            group = [next(trajectories) for _ in rows]
            values.setdefault(key, []).append(score(group))
            counts = report.projection.setdefault(key, [0, 0])
            counts[0] += sum(t.projected for t in group)
            counts[1] += sum(t.steps for t in group)
        report.lap("scoring")
        block, size = [], 0
    return {key: np.array(v) for key, v in values.items()}


def _result_row(strategy: str, sweep_param: float, values: np.ndarray) -> ResultRow:
    stderr = float(values.std(ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
    return ResultRow(strategy=strategy, sweep_param=float(sweep_param),
                     mean=float(values.mean()), stderr=stderr, trials=len(values))


def _emit(cfg: ExperimentConfig, rows: Sequence[ResultRow], report: RunReport,
          extras: Optional[dict] = None) -> None:
    """results.csv, one plot_*.csv per strategy and meta.json, when the config names out_dir.

    meta.json also gets the report's blocks (see ``RunReport.meta``).
    """
    if cfg.out_dir:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        emit_csv(rows, out / "results.csv")
        emit_plotdata(rows, out)
        report.lap("emission")
        write_meta(out, cfg.to_dict(), time.perf_counter() - report.started,
                   {**report.meta(), **(extras or {})})


def _strategies(cfg: ExperimentConfig, allowed: tuple) -> tuple:
    strategies = allowed if cfg.strategies is None else tuple(cfg.strategies)
    for s in strategies:
        if s not in allowed:
            raise ValueError(f"unknown strategy {s!r}, expected one of {allowed}")
    return strategies


# ---------------------------------------------------------------------------
# Oracles and plans


# Mechanism -> the OracleSpec field holding its noise level, which also
# prefixes the config keys of that level (epsilon_clean, sigma_noisy_sweep, ...).
_LEVEL_FIELDS = {"local_dp": "epsilon", "rcn": "sigma"}


def _levels(cfg: ExperimentConfig) -> tuple:
    """(clean level, default noisy level, noisy sweep) of the config's mechanism."""
    kind = cfg.oracles.kind
    if kind not in _LEVEL_FIELDS:
        raise ValueError(f"unknown oracle kind {kind!r}")
    field_name = _LEVEL_FIELDS[kind]
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
    """One trial's clean-side and noisy-side oracles, from its seeds."""
    clean_level = _levels(cfg)[0]
    return {"clean_data": GradientOracle(_oracle_spec(cfg, len(s.ds_c), seeds[0], clean_level),
                                         s.obj, s.ds_c),
            "noisy_data": GradientOracle(_oracle_spec(cfg, len(s.ds_n), seeds[1], noisy_level),
                                         s.obj, s.ds_n)}


def _row(schedule: Schedule, oracles: dict, noisy: bool = True) -> Row:
    return Row(schedule, tuple(oracles[k] for k in schedule.ids), noisy)


def _two_phase(order: str, c1: float, c2: float, obj: ObjectiveSpec) -> PhasePlan:
    """Both sources, ``order`` 'clean_first' or 'noisy_first', at rate constants c1 then c2."""
    sources = ("clean_data", "noisy_data") if order == "clean_first" else ("noisy_data", "clean_data")
    return PhasePlan(tuple(zip(sources, (c1, c2))), obj.radius)


# ---------------------------------------------------------------------------
# Strategy comparison


def _strategy_plans(noise_c: NoiseLevel, noise_n: NoiseLevel, beta_c: float,
                    obj: ObjectiveSpec) -> dict:
    """Every strategy's plan at one pair of noise levels."""
    lam, gc, gn = obj.lam, noise_c.gamma_sq, noise_n.gamma_sq
    sel = select_rates(gc, gn, beta_c, lam)
    same_clean_c, _ = minimize_single_rate(BoundInputs(gc, gn, beta_c, lam, T=1))
    same_noisy_c, _ = minimize_single_rate(BoundInputs(gn, gc, 1.0 - beta_c, lam, T=1))
    return {"Optimal": PhasePlan((("all_data", 1.0 / lam),), obj.radius),
            "CleanOnly": PhasePlan((("clean_data", 1.0 / lam),), obj.radius),
            "SameClean": _two_phase("clean_first", same_clean_c, same_clean_c, obj),
            "SameNoisy": _two_phase("noisy_first", same_noisy_c, same_noisy_c, obj),
            "Algorithm2": _two_phase(sel.order, sel.c1, sel.c2, obj)}


def strategy_comparison_details(cfg: ExperimentConfig, report: Optional[RunReport] = None):
    """Run the sweep and return (rows, {(strategy, sweep_value): per-trial objectives}).

    Within a trial all strategies share the dataset and the oracle seeds
    (common random numbers), so per-trial differences between strategies are
    directly comparable. ``report``, if given, records the run (see RunReport).
    """
    strategies = _strategies(cfg, STRATEGIES)
    clean_level, _, sweep = _levels(cfg)
    s = _setup(cfg, len(sweep))
    schedules = []
    for level in sweep:
        noise_c, noise_n = (_noise_level(cfg, s.ds.d, v) for v in (clean_level, level))
        plans = _strategy_plans(noise_c, noise_n, s.beta_c, s.obj)
        schedules.append({name: plans[name].schedule(s.steps) for name in strategies})

    def make_trial(i: int) -> list:
        entries = []
        for j, level in enumerate(sweep):
            seeds = s.seeds[j][i]
            oracles = _split_oracles(cfg, s, seeds, level)
            oracles["all_data"] = GradientOracle(_oracle_spec(cfg, len(s.ds), seeds[3], None),
                                                 s.obj, s.ds)
            entries += [((name, level), (_row(schedules[j][name], oracles),))
                        for name in strategies]
        return entries

    trial_values = _run_trials(cfg.trials, s.obj.radius, make_trial,
                               lambda group: full_objective(s.obj, group[0].final_w, s.ds.X, s.ds.y),
                               report)
    rows = [_result_row(name, level, trial_values[(name, level)])
            for level in sweep for name in strategies]
    return rows, trial_values


def run_strategy_comparison(cfg: ExperimentConfig) -> list:
    report = RunReport()
    rows, _ = strategy_comparison_details(cfg, report)
    _emit(cfg, rows, report)
    return rows


# ---------------------------------------------------------------------------
# Order experiment: |f(w) - f(v)| for clean-first / noisy-first / arbitrary


def order_experiment_details(cfg: ExperimentConfig, report: Optional[RunReport] = None):
    """Run the c grid and return (rows, {(strategy, c): per-trial gaps |f(w) - f(v)|}).

    ``report``, if given, records the run (see RunReport).
    """
    strategies = _strategies(cfg, ORDER_STRATEGIES)
    if not cfg.c_grid:
        raise ValueError("order experiment needs c_grid")
    c_grid = tuple(float(c) for c in cfg.c_grid)
    _, noisy_level, _ = _levels(cfg)
    s = _setup(cfg, len(c_grid))

    def schedule(name: str, c: float, seed_ao: int) -> Schedule:
        if name != "AO":
            return _two_phase("clean_first" if name == "CF" else "noisy_first", c, c,
                              s.obj).schedule(s.steps)
        # Arbitrary order: the clean and noisy steps shuffled by the trial's pattern seed.
        slots = np.repeat([0, 1], [s.steps["clean_data"], s.steps["noisy_data"]])
        np.random.default_rng(seed_ao).shuffle(slots)
        return Schedule(("clean_data", "noisy_data"), (c, c), slots)

    def make_trial(i: int) -> list:
        entries = []
        for j, c in enumerate(c_grid):
            seeds = s.seeds[j][i]
            oracles = _split_oracles(cfg, s, seeds, noisy_level)
            for name in strategies:
                sched = schedule(name, c, seeds[2])
                entries.append(((name, c), (_row(sched, oracles), _row(sched, oracles, noisy=False))))
        return entries

    def gap(group: list) -> float:
        noisy, twin = (full_objective(s.obj, t.final_w, s.ds.X, s.ds.y) for t in group)
        return abs(noisy - twin)

    trial_values = _run_trials(cfg.trials, s.obj.radius, make_trial, gap, report)
    rows = [_result_row(name, c, trial_values[(name, c)]) for c in c_grid for name in strategies]
    return rows, trial_values


def run_order_experiment(cfg: ExperimentConfig) -> list:
    # The order verdict rests on the delta_t closed form of a run without projection.
    report = RunReport(assumes_inactive=True)
    rows, _ = order_experiment_details(cfg, report)
    _emit(cfg, rows, report)
    return rows


# ---------------------------------------------------------------------------
# Second-rate sweep against the clean-only reference


def c2_sweep_details(cfg: ExperimentConfig, report: Optional[RunReport] = None):
    """Final objective vs the second-phase rate at c1 = 1/lam.

    The data order is fixed once, by the rate selection on the upper-bound
    noise levels; c2(U) is that selection's rate and c2(L) re-minimizes the
    same order's bound curve with the lower-bound noise levels, so both
    bracket rates live on the curve actually being swept. ``report``, if
    given, records the run (see RunReport).
    """
    clean_level, noisy_level, _ = _levels(cfg)
    s = _setup(cfg, 1)
    noise_c, noise_n = (_noise_level(cfg, s.ds.d, v) for v in (clean_level, noisy_level))
    bracket = c2_bracket(noise_c, noise_n, s.beta_c, s.obj.lam)
    c2_lower, c2_upper = bracket.c2_lower, bracket.c2_upper
    lo, hi = sorted((c2_lower, c2_upper))

    if cfg.c2_grid:
        span = [float(c) for c in cfg.c2_grid]
    else:
        span = list(np.geomspace(0.5 * lo, 2.0 * hi, cfg.c2_grid_points)) if hi > lo \
            else [lo]
    # The bracketing rates are always measured so the marker rows carry data.
    grid = sorted(set(float(c) for c in span) | {float(c2_lower), float(c2_upper)})

    schedules = {("TwoRate", c2): _two_phase(bracket.order, 1.0 / s.obj.lam, c2,
                                             s.obj).schedule(s.steps) for c2 in grid}
    schedules[("CleanOnly", 0.0)] = PhasePlan((("clean_data", 1.0 / s.obj.lam),),
                                              s.obj.radius).schedule(s.steps)

    def make_trial(i: int) -> list:
        oracles = _split_oracles(cfg, s, s.seeds[0][i], noisy_level)
        return [(key, (_row(sched, oracles),)) for key, sched in schedules.items()]

    trial_values = _run_trials(cfg.trials, s.obj.radius, make_trial,
                               lambda group: full_objective(s.obj, group[0].final_w, s.ds.X, s.ds.y),
                               report)
    rows = [_result_row(name, param, trial_values[(name, param)]) for name, param in schedules]
    # Marker rows duplicate the grid rows at the bracketing and selected rates.
    markers = {"marker_c2_lower": c2_lower, "marker_c2_upper": c2_upper,
               "marker_c2_selected": c2_upper}
    rows += [_result_row(name, c2, trial_values[("TwoRate", float(c2))])
             for name, c2 in markers.items()]

    info = {"c2_lower": c2_lower, "c2_upper": c2_upper, "c2_selected": c2_upper,
            "order": bracket.order, "grid": grid}
    return rows, trial_values, info


def run_c2_sweep(cfg: ExperimentConfig) -> list:
    report = RunReport()
    rows, _, info = c2_sweep_details(cfg, report)
    _emit(cfg, rows, report,
          extras={"c2_markers": {k: info[k] for k in ("c2_lower", "c2_upper", "c2_selected", "order")}})
    return rows
