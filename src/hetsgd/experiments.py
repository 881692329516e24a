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
import platform
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .core import Dataset, ObjectiveSpec, full_objective
from .datasets import SyntheticSpec, generate_synthetic, ingest_csv, ingest_libsvm, random_projection
from .oracles import GradientOracle, NoiseLevel, OracleSpec, dp_noise_level, rcn_noise_level
from .rates import BoundInputs, c2_bracket, minimize_single_rate, select_rates
from .sgd import PhasePlan, Row, Schedule, run_batch

STRATEGIES = ("Optimal", "CleanOnly", "SameClean", "SameNoisy", "Algorithm2")
ORDER_STRATEGIES = ("CF", "NF", "AO")

CSV_HEADER = ("strategy", "sweep_param", "mean", "stderr", "trials", "seconds")


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


def _check_keys(d: dict, allowed: set, section: str) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ValueError(f"unknown config keys in {section}: {unknown}")


@dataclass(frozen=True)
class ProblemConfig:
    loss: str = "logistic"
    lam: float = 1e-3
    radius: Optional[float] = None

    @classmethod
    def from_dict(cls, d: dict) -> "ProblemConfig":
        _check_keys(d, {"loss", "lam", "radius"}, "problem")
        return cls(**d)


@dataclass(frozen=True)
class DataConfig:
    kind: str = "synthetic"          # synthetic | csv | libsvm
    d: int = 10
    n: int = 5000
    flip_rate: float = 0.05
    path: Optional[str] = None
    project_to: Optional[int] = None

    @classmethod
    def from_dict(cls, d: dict) -> "DataConfig":
        _check_keys(d, {"kind", "d", "n", "flip_rate", "path", "project_to"}, "data")
        return cls(**d)


@dataclass(frozen=True)
class OracleSetupConfig:
    kind: str = "local_dp"           # local_dp | rcn
    epsilon_clean: float = 10.0
    epsilon_noisy: float = 2.0
    sigma_clean: float = 0.0
    sigma_noisy: float = 0.2
    batch_size: int = 50

    @classmethod
    def from_dict(cls, d: dict) -> "OracleSetupConfig":
        _check_keys(d, {"kind", "epsilon_clean", "epsilon_noisy",
                        "sigma_clean", "sigma_noisy", "batch_size"}, "oracles")
        return cls(**d)


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
        if self.trials < 1:
            raise ValueError("trials must be >= 1")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        _check_keys(d, {"problem", "data", "oracles", "beta_c", "strategies", "trials",
                        "master_seed", "out_dir", "c_grid",
                        "epsilon_noisy_sweep", "sigma_noisy_sweep",
                        "c2_grid", "c2_grid_points"}, "config")
        kw = dict(d)
        kw["problem"] = ProblemConfig.from_dict(kw.get("problem", {}))
        kw["data"] = DataConfig.from_dict(kw.get("data", {}))
        kw["oracles"] = OracleSetupConfig.from_dict(kw.get("oracles", {}))
        for key in ("strategies", "c_grid", "epsilon_noisy_sweep", "sigma_noisy_sweep", "c2_grid"):
            if kw.get(key) is not None:
                kw[key] = tuple(kw[key])
        return cls(**kw)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Deterministic seed plumbing


def _seed_int(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1, np.uint64)[0])


def _experiment_tree(master_seed: int):
    data_ss, split_ss, sweep_ss = np.random.SeedSequence(master_seed).spawn(3)
    return data_ss, split_ss, sweep_ss


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


def _trial_seed_table(sweep_ss: np.random.SeedSequence, n_sweep: int, trials: int):
    """[sweep][trial] -> four uint64 seeds (clean oracle, noisy oracle, pattern, full oracle)."""
    table = []
    for sweep_child in sweep_ss.spawn(n_sweep):
        rows = [tuple(int(v) for v in t.generate_state(4, np.uint64))
                for t in sweep_child.spawn(trials)]
        table.append(rows)
    return table


# Trials are batched into one engine call until the batch holds about this
# many bytes of noise tables and permutations (each kept twice: per oracle
# and stacked by the engine) plus one step's example gathers.
BATCH_BYTES = 2 << 20


def _batch_bytes(rows: Sequence[Row]) -> int:
    oracles = {id(o): o for r in rows for o in r.oracles}.values()
    tables = sum(o.steps_total * (o.dataset.d + o.spec.batch_size) for o in oracles)
    gathered = sum(r.oracles[0].spec.batch_size * r.oracles[0].dataset.d for r in rows)
    return 8 * (2 * tables + 3 * gathered)


def _check_budgets(rows: Sequence[Row], trajectories: Sequence) -> None:
    """Every run must have read each of its oracles' whole budget (in whole batches)."""
    for row, traj in zip(rows, trajectories):
        full = tuple(o.steps_total * o.spec.batch_size for o in row.oracles)
        if traj.consumed != full:
            raise RuntimeError(f"a run read {traj.consumed} examples of oracle budgets {full}")


def _run_trials(trials: int, radius: float, make_trial: Callable[[int], list],
                score: Callable[[list], float]) -> dict:
    """Per-trial scores of every keyed group of runs, through as few engine calls as fit.

    ``make_trial(i)`` lists trial i's (key, rows); ``score`` turns one
    group's trajectories into that trial's value for the key. Trials are
    independent, so how they are batched does not change any value.
    """
    values: dict = {}
    block, size = [], 0
    for i in range(trials):
        entries = make_trial(i)
        block += entries
        size += _batch_bytes([r for _, rows in entries for r in rows])
        if size < BATCH_BYTES and i < trials - 1:
            continue
        trajectories = iter(run_batch([r for _, rows in block for r in rows], radius))
        for key, rows in block:
            group = [next(trajectories) for _ in rows]
            _check_budgets(rows, group)
            values.setdefault(key, []).append(score(group))
        block, size = [], 0
    return {key: np.array(v) for key, v in values.items()}


def _result_row(strategy: str, sweep_param: float, values: np.ndarray) -> ResultRow:
    stderr = float(values.std(ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
    return ResultRow(strategy=strategy, sweep_param=float(sweep_param),
                     mean=float(values.mean()), stderr=stderr, trials=len(values))


def _row(schedule: Schedule, oracles: dict, noisy: bool = True) -> Row:
    return Row(schedule, tuple(oracles[k] for k in schedule.ids), noisy)


def _noise_levels(cfg: ExperimentConfig, d: int, epsilon_noisy: Optional[float] = None,
                  sigma_noisy: Optional[float] = None):
    oc = cfg.oracles
    b = oc.batch_size
    if oc.kind == "local_dp":
        return (dp_noise_level(oc.epsilon_clean, d, b),
                dp_noise_level(epsilon_noisy if epsilon_noisy is not None else oc.epsilon_noisy, d, b))
    if oc.kind == "rcn":
        return (rcn_noise_level(oc.sigma_clean),
                rcn_noise_level(sigma_noisy if sigma_noisy is not None else oc.sigma_noisy))
    raise ValueError(f"unknown oracle kind {oc.kind!r}")


def _oracle_spec(cfg: ExperimentConfig, budget: int, seed: int,
                 level: Optional[float]) -> OracleSpec:
    """The config's mechanism at privacy epsilon or flip rate ``level``; None: noiseless."""
    b = cfg.oracles.batch_size
    if level is None:
        return OracleSpec("clean", budget=budget, batch_size=b, rng_seed=seed)
    if cfg.oracles.kind == "local_dp":
        return OracleSpec("local_dp", budget=budget, batch_size=b, rng_seed=seed, epsilon=level)
    return OracleSpec("rcn", budget=budget, batch_size=b, rng_seed=seed, sigma=level)


def _split_oracles(cfg: ExperimentConfig, obj: ObjectiveSpec, ds_c: Dataset, ds_n: Dataset,
                   seed_c: int, seed_n: int, noisy_level: Optional[float] = None) -> dict:
    """One trial's clean-side and noisy-side oracles; noisy_level overrides the config's."""
    oc = cfg.oracles
    dp = oc.kind == "local_dp"
    if noisy_level is None:
        noisy_level = oc.epsilon_noisy if dp else oc.sigma_noisy
    clean_level = oc.epsilon_clean if dp else oc.sigma_clean
    return {"clean_data": GradientOracle(_oracle_spec(cfg, len(ds_c), seed_c, clean_level),
                                         obj, ds_c),
            "noisy_data": GradientOracle(_oracle_spec(cfg, len(ds_n), seed_n, noisy_level),
                                         obj, ds_n)}


# ---------------------------------------------------------------------------
# Strategy comparison


def _strategy_rates(noise_c: NoiseLevel, noise_n: NoiseLevel, beta_c: float, lam: float) -> dict:
    beta_n = 1.0 - beta_c
    sel = select_rates(noise_c.gamma_sq, noise_n.gamma_sq, beta_c, lam)
    same_clean_c, _ = minimize_single_rate(
        BoundInputs(noise_c.gamma_sq, noise_n.gamma_sq, beta_c, lam, T=1))
    same_noisy_c, _ = minimize_single_rate(
        BoundInputs(noise_n.gamma_sq, noise_c.gamma_sq, beta_n, lam, T=1))
    return {"selection": sel, "same_clean_c": same_clean_c, "same_noisy_c": same_noisy_c}


def _strategy_plan(strategy: str, rates: dict, lam: float, radius: float) -> PhasePlan:
    inv = 1.0 / lam
    if strategy == "Optimal":
        phases = (("all_data", inv),)
    elif strategy == "CleanOnly":
        phases = (("clean_data", inv),)
    elif strategy == "SameClean":
        c = rates["same_clean_c"]
        phases = (("clean_data", c), ("noisy_data", c))
    elif strategy == "SameNoisy":
        c = rates["same_noisy_c"]
        phases = (("noisy_data", c), ("clean_data", c))
    elif strategy == "Algorithm2":
        sel = rates["selection"]
        if sel.order == "clean_first":
            phases = (("clean_data", sel.c1), ("noisy_data", sel.c2))
        else:
            phases = (("noisy_data", sel.c1), ("clean_data", sel.c2))
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return PhasePlan(phases, lam, radius)


def strategy_comparison_details(cfg: ExperimentConfig):
    """Run the sweep and return (rows, {(strategy, sweep_value): per-trial objectives}).

    Within a trial all strategies share the dataset and the oracle seeds
    (common random numbers), so per-trial differences between strategies are
    directly comparable.
    """
    strategies = tuple(cfg.strategies) if cfg.strategies else STRATEGIES
    for s in strategies:
        if s not in STRATEGIES:
            raise ValueError(f"unknown strategy {s!r}")
    if cfg.oracles.kind == "local_dp":
        sweep = tuple(cfg.epsilon_noisy_sweep or (cfg.oracles.epsilon_noisy,))
    else:
        sweep = tuple(cfg.sigma_noisy_sweep or (cfg.oracles.sigma_noisy,))

    data_ss, split_ss, sweep_ss = _experiment_tree(cfg.master_seed)
    ds = load_dataset(cfg, data_ss)
    ds_c, ds_n = split_dataset(ds, cfg.beta_c, split_ss)
    beta_c = len(ds_c) / len(ds)
    obj = ObjectiveSpec(cfg.problem.lam, cfg.problem.loss, cfg.problem.radius)
    lam, radius = obj.lam, obj.radius
    seed_table = _trial_seed_table(sweep_ss, len(sweep), cfg.trials)
    b = cfg.oracles.batch_size
    steps = {"clean_data": len(ds_c) // b, "noisy_data": len(ds_n) // b, "all_data": len(ds) // b}
    schedules = []
    for sweep_value in sweep:
        kwargs = ({"epsilon_noisy": sweep_value} if cfg.oracles.kind == "local_dp"
                  else {"sigma_noisy": sweep_value})
        noise_c, noise_n = _noise_levels(cfg, ds.d, **kwargs)
        rates = _strategy_rates(noise_c, noise_n, beta_c, lam)
        schedules.append({s: _strategy_plan(s, rates, lam, radius).schedule(steps)
                          for s in strategies})

    def make_trial(i: int) -> list:
        entries = []
        for j, sweep_value in enumerate(sweep):
            seed_c, seed_n, _seed_ao, seed_all = seed_table[j][i]
            oracles = _split_oracles(cfg, obj, ds_c, ds_n, seed_c, seed_n, sweep_value)
            oracles["all_data"] = GradientOracle(_oracle_spec(cfg, len(ds), seed_all, None),
                                                 obj, ds)
            entries += [((s, sweep_value), (_row(schedules[j][s], oracles),)) for s in strategies]
        return entries

    trial_values = _run_trials(cfg.trials, radius, make_trial,
                               lambda group: full_objective(obj, group[0].final_w, ds.X, ds.y))
    rows = [_result_row(s, sweep_value, trial_values[(s, sweep_value)])
            for sweep_value in sweep for s in strategies]
    return rows, trial_values


def run_strategy_comparison(cfg: ExperimentConfig) -> list:
    started = time.perf_counter()
    rows, _ = strategy_comparison_details(cfg)
    if cfg.out_dir:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        emit_csv(rows, out / "results.csv")
        emit_plotdata(rows, out)
        write_meta(out, cfg.to_dict(), time.perf_counter() - started)
    return rows


# ---------------------------------------------------------------------------
# Order experiment: |f(w) - f(v)| for clean-first / noisy-first / arbitrary


def order_experiment_details(cfg: ExperimentConfig):
    strategies = tuple(cfg.strategies) if cfg.strategies else ORDER_STRATEGIES
    for s in strategies:
        if s not in ORDER_STRATEGIES:
            raise ValueError(f"unknown order strategy {s!r}")
    if not cfg.c_grid:
        raise ValueError("order experiment needs c_grid")
    c_grid = tuple(float(c) for c in cfg.c_grid)

    data_ss, split_ss, sweep_ss = _experiment_tree(cfg.master_seed)
    ds = load_dataset(cfg, data_ss)
    ds_c, ds_n = split_dataset(ds, cfg.beta_c, split_ss)
    obj = ObjectiveSpec(cfg.problem.lam, cfg.problem.loss, cfg.problem.radius)
    lam, radius = obj.lam, obj.radius
    b = cfg.oracles.batch_size
    steps = {"clean_data": len(ds_c) // b, "noisy_data": len(ds_n) // b}
    seed_table = _trial_seed_table(sweep_ss, len(c_grid), cfg.trials)

    def schedule(s: str, c: float, seed_ao: int) -> Schedule:
        if s == "CF":
            return PhasePlan((("clean_data", c), ("noisy_data", c)), lam, radius).schedule(steps)
        if s == "NF":
            return PhasePlan((("noisy_data", c), ("clean_data", c)), lam, radius).schedule(steps)
        # Arbitrary order: the clean and noisy steps shuffled by the trial's pattern seed.
        slots = np.repeat([0, 1], [steps["clean_data"], steps["noisy_data"]])
        np.random.default_rng(seed_ao).shuffle(slots)
        return Schedule(("clean_data", "noisy_data"), (c, c), slots)

    def make_trial(i: int) -> list:
        entries = []
        for j, c in enumerate(c_grid):
            seed_c, seed_n, seed_ao, _ = seed_table[j][i]
            oracles = _split_oracles(cfg, obj, ds_c, ds_n, seed_c, seed_n)
            for s in strategies:
                sched = schedule(s, c, seed_ao)
                entries.append(((s, c), (_row(sched, oracles), _row(sched, oracles, noisy=False))))
        return entries

    def gap(group: list) -> float:
        noisy, twin = (full_objective(obj, t.final_w, ds.X, ds.y) for t in group)
        return abs(noisy - twin)

    trial_values = _run_trials(cfg.trials, radius, make_trial, gap)
    rows = [_result_row(s, c, trial_values[(s, c)]) for c in c_grid for s in strategies]
    return rows, trial_values


def run_order_experiment(cfg: ExperimentConfig) -> list:
    started = time.perf_counter()
    rows, _ = order_experiment_details(cfg)
    if cfg.out_dir:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        emit_csv(rows, out / "results.csv")
        emit_plotdata(rows, out)
        write_meta(out, cfg.to_dict(), time.perf_counter() - started)
    return rows


# ---------------------------------------------------------------------------
# Second-rate sweep against the clean-only reference


def c2_sweep_details(cfg: ExperimentConfig):
    """Final objective vs the second-phase rate at c1 = 1/lam.

    The data order is fixed once, by the rate selection on the upper-bound
    noise levels; c2(U) is that selection's rate and c2(L) re-minimizes the
    same order's bound curve with the lower-bound noise levels, so both
    bracket rates live on the curve actually being swept.
    """
    data_ss, split_ss, sweep_ss = _experiment_tree(cfg.master_seed)
    ds = load_dataset(cfg, data_ss)
    ds_c, ds_n = split_dataset(ds, cfg.beta_c, split_ss)
    beta_c = len(ds_c) / len(ds)
    obj = ObjectiveSpec(cfg.problem.lam, cfg.problem.loss, cfg.problem.radius)
    lam, radius = obj.lam, obj.radius

    noise_c, noise_n = _noise_levels(cfg, ds.d)
    bracket = c2_bracket(noise_c, noise_n, beta_c, lam)
    c2_lower, c2_upper = bracket.c2_lower, bracket.c2_upper
    lo, hi = sorted((c2_lower, c2_upper))

    if cfg.c2_grid:
        span = [float(c) for c in cfg.c2_grid]
    else:
        span = list(np.geomspace(0.5 * lo, 2.0 * hi, cfg.c2_grid_points)) if hi > lo \
            else [lo]
    # The bracketing rates are always measured so the marker rows carry data.
    grid = sorted(set(float(c) for c in span) | {float(c2_lower), float(c2_upper)})

    b = cfg.oracles.batch_size
    steps = {"clean_data": len(ds_c) // b, "noisy_data": len(ds_n) // b}
    first, second = ("clean_data", "noisy_data") if bracket.order == "clean_first" \
        else ("noisy_data", "clean_data")
    schedules = {("TwoRate", c2): PhasePlan(((first, 1.0 / lam), (second, c2)), lam,
                                            radius).schedule(steps) for c2 in grid}
    schedules[("CleanOnly", 0.0)] = PhasePlan((("clean_data", 1.0 / lam),), lam,
                                              radius).schedule(steps)
    seed_table = _trial_seed_table(sweep_ss, 1, cfg.trials)[0]

    def make_trial(i: int) -> list:
        seed_c, seed_n, _seed_ao, _seed_all = seed_table[i]
        oracles = _split_oracles(cfg, obj, ds_c, ds_n, seed_c, seed_n)
        return [(key, (_row(sched, oracles),)) for key, sched in schedules.items()]

    trial_values = _run_trials(cfg.trials, radius, make_trial,
                               lambda group: full_objective(obj, group[0].final_w, ds.X, ds.y))
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
    started = time.perf_counter()
    rows, _, info = c2_sweep_details(cfg)
    if cfg.out_dir:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        emit_csv(rows, out / "results.csv")
        emit_plotdata(rows, out)
        write_meta(out, cfg.to_dict(), time.perf_counter() - started,
                   extras={"c2_markers": {k: info[k] for k in ("c2_lower", "c2_upper", "c2_selected", "order")}})
    return rows
