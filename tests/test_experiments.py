import csv
import hashlib
import json
import logging
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_pinned
from hetsgd import experiments
from hetsgd.cli import EXPERIMENTS, main as cli_main
from hetsgd.experiments import (CSV_HEADER, ExperimentConfig, ResultRow, _result_row, _setup,
                                emit_csv, load_dataset, read_csv_rows, run_c2_sweep,
                                run_order_experiment, run_strategy_comparison)
from hetsgd.sgd import InfeasibleIterate

FIXTURE_ROWS = [
    ResultRow("Algorithm2", 2.0, 1.25, 0.03125, 100, 1.5),
    ResultRow("CleanOnly", 0.0, 2.5, 0.0625, 100, 0.75),
]

GOLDEN_BYTES = (b"strategy,sweep_param,mean,stderr,trials,seconds\n"
                b"Algorithm2,2.0,1.25,0.03125,100,1.5\n"
                b"CleanOnly,0.0,2.5,0.0625,100,0.75\n")


def small_config(tmp_path=None, **overrides):
    base = {
        "problem": {"loss": "logistic", "lam": 0.01},
        "data": {"kind": "synthetic", "d": 4, "n": 240, "flip_rate": 0.1},
        "oracles": {"kind": "local_dp", "epsilon_clean": 10.0, "epsilon_noisy": 2.0,
                     "batch_size": 10},
        "beta_c": 0.25,
        "trials": 4,
        "master_seed": 42,
    }
    base.update(overrides)
    if tmp_path is not None:
        base["out_dir"] = str(tmp_path / "out")
    return ExperimentConfig.from_dict(base)


class TestCsvEmission:
    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "results.csv"
        emit_csv(FIXTURE_ROWS, path)
        assert path.read_bytes() == GOLDEN_BYTES

    def test_round_trip(self, tmp_path):
        path = tmp_path / "results.csv"
        rows = FIXTURE_ROWS + [ResultRow("SameClean", 0.1234567890123456, 3.00000000001e-7,
                                         1.9999999999e-12, 7, 0.0)]
        emit_csv(rows, path)
        assert read_csv_rows(path) == rows

    def test_header_pinned(self):
        assert CSV_HEADER == ("strategy", "sweep_param", "mean", "stderr", "trials", "seconds")

    @pytest.mark.parametrize("text,line", [
        # An empty file raised a bare StopIteration, a short record an IndexError, and a
        # long one was cut to its first 6 fields.
        ("", 1),
        ("Algorithm2,2.0,1.25\n", 2),
        ("Algorithm2,2.0,1.25,0.03125,100,1.5,7\n", 2),
        ("CleanOnly,0.0,2.5,0.0625,100,0.75\nAlgorithm2,two,1.25,0.03125,100,1.5\n", 3)])
    def test_a_malformed_file_names_itself_and_the_line(self, tmp_path, text, line):
        path = tmp_path / "results.csv"
        path.write_text(("strategy,sweep_param,mean,stderr,trials,seconds\n" if text else "")
                        + text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} line {line}: [^\n]+$"):
            read_csv_rows(path)

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], tmp_path / "x.csv")


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"trails": 3})
        with pytest.raises(ValueError, match="problem"):
            ExperimentConfig.from_dict({"problem": {"lambda": 0.1}})
        with pytest.raises(ValueError, match="oracles"):
            ExperimentConfig.from_dict({"oracles": {"epsilon": 1.0}})

    def test_json_round_trip(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        again = ExperimentConfig.from_json(path)
        assert again == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"beta_c": 1.5})
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"trials": 0})
        with pytest.raises(ValueError, match="trials"):
            ExperimentConfig.from_dict({"trials": 2.5})
        with pytest.raises(ValueError, match="batch_size"):
            ExperimentConfig.from_dict({"oracles": {"batch_size": 0}})
        with pytest.raises(ValueError, match="c2_grid_points"):
            ExperimentConfig.from_dict({"c2_grid_points": 0})
        for data in ({"n": 300.5}, {"n": 0}, {"d": 2.0}, {"d": 0},
                     {"project_to": 2.5}, {"project_to": 0}):
            key = "data." + next(iter(data))
            with pytest.raises(ValueError, match=key):
                ExperimentConfig.from_dict({"data": data})
        ExperimentConfig.from_dict({"data": {"project_to": None}})

    @pytest.mark.parametrize("overrides,key", [
        ({"problem": {"loss": "squared"}}, "problem.loss"),
        ({"data": {"kind": "parquet"}}, "data.kind"),
        ({"oracles": {"kind": "gaussian"}}, "oracles.kind"),
        ({"data": {"kind": "csv"}}, "data.path"),
        ({"data": {"kind": "libsvm", "path": ""}}, "data.path"),
        ({"c_grid": "35"}, "c_grid"),
        ({"epsilon_noisy_sweep": {"eps": 2.0}}, "epsilon_noisy_sweep"),
        ({"sigma_noisy_sweep": [0.1, True]}, "sigma_noisy_sweep"),
        ({"c_grid": [100.0, "200"]}, "c_grid"),
        ({"problem": None}, "problem"),
        ({"data": [["n", 300]]}, "data"),
        ({"oracles": "rcn"}, "oracles"),
        ({"c_grid": []}, "c_grid must be a non-empty list"),
        ({"epsilon_noisy_sweep": []}, "epsilon_noisy_sweep must be a non-empty list"),
        ({"sigma_noisy_sweep": []}, "sigma_noisy_sweep must be a non-empty list")])
    def test_unknown_kinds_and_missing_paths_rejected_at_load(self, overrides, key):
        # Each used to load and fail only in setup, a missing path or a null section as a bare
        # TypeError; a string c_grid loaded as its characters, and an empty noisy sweep ran
        # at oracles.*_noisy.
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_dict(overrides)

    @pytest.mark.parametrize("overrides,key", [
        ({"c_grid": [math.nan, 300.0]}, "c_grid"),
        ({"c_grid": [-5.0]}, "c_grid"),
        ({"c_grid": [math.inf]}, "c_grid"),
        ({"problem": {"lam": -1.0}}, "problem.lam"),
        ({"problem": {"lam": math.nan}}, "problem.lam"),
        ({"problem": {"lam": "0.01"}}, "problem.lam"),
        ({"problem": {"radius": 0.0}}, "problem.radius"),
        ({"oracles": {"epsilon_clean": -1.0}}, "oracles.epsilon_clean"),
        ({"oracles": {"epsilon_noisy": math.nan}}, "oracles.epsilon_noisy"),
        ({"oracles": {"kind": "rcn", "sigma_noisy": 0.7}}, "oracles.sigma_noisy"),
        ({"oracles": {"kind": "rcn", "sigma_clean": math.nan}}, "oracles.sigma_clean"),
        ({"data": {"flip_rate": 0.7}}, "data.flip_rate"),
        ({"data": {"flip_rate": math.nan}}, "data.flip_rate"),
        ({"epsilon_noisy_sweep": [0.0]}, "epsilon_noisy_sweep"),
        ({"oracles": {"kind": "rcn"}, "sigma_noisy_sweep": [0.6]}, "sigma_noisy_sweep")])
    def test_values_out_of_range_rejected_at_load(self, overrides, key):
        # Each used to load and fail only after the data was made and split, most of them
        # naming no key (a bad rate as NonpositiveRate of oracle 'clean_data').
        with pytest.raises(ValueError, match=re.escape(key)):
            small_config(**overrides)

    def test_edges_of_the_ranges_load(self):
        cfg = small_config(problem={"lam": 0.01, "radius": math.inf},
                           data={"flip_rate": 0.0},
                           oracles={"kind": "rcn", "sigma_clean": 0.0, "epsilon_noisy": math.inf},
                           c_grid=[1e-300, 1e300], sigma_noisy_sweep=[0.0, 0.49])
        assert cfg.problem.radius == math.inf and cfg.c_grid == (1e-300, 1e300)

    @pytest.mark.parametrize("overrides,key", [({"trials": True}, "trials"),
                                               ({"c2_grid_points": True}, "c2_grid_points"),
                                               ({"data": {"n": True}}, "data.n"),
                                               ({"oracles": {"batch_size": True}}, "batch_size")])
    def test_bool_counts_rejected(self, overrides, key):
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_dict(overrides)

    @pytest.mark.parametrize("seed", [1.5, -3, "x", True, None])
    def test_master_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="master_seed"):
            ExperimentConfig.from_dict({"master_seed": seed})
        assert ExperimentConfig.from_dict({"master_seed": np.int64(7)}).master_seed == 7

    @pytest.mark.parametrize("key, values", [("c_grid", (100.0, 100.0)),
                                             ("epsilon_noisy_sweep", (2.0, 5.0, 2.0)),
                                             ("sigma_noisy_sweep", (0.1, 0.1))])
    def test_repeated_sweep_value_rejected(self, key, values):
        # Runs are keyed by sweep value: a repeat would emit two rows over one pooled array.
        with pytest.raises(ValueError, match=key):
            small_config(**{key: values})

    @pytest.mark.parametrize("key,value", [("strategies", ["CF", "NF"]), ("c2_grid", [80.0])])
    def test_a_removed_key_is_rejected_at_load(self, key, value, tmp_path, capsys):
        # Each driver runs every one of its strategies, and c2-sweep its derived grid.
        message = f"unknown config keys in config: ['{key}']"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.from_dict({key: value})
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"c_grid": [100.0], key: value}))
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["order-exp", "--config", str(config), "--out-dir", str(tmp_path / "o")])
        assert exit_info.value.code == message
        assert capsys.readouterr().out == ""


class TestStrategyComparison:
    def test_rows_and_trial_values(self):
        cfg = small_config(epsilon_noisy_sweep=(2.0, 10.0))
        rows, tv, _ = run_strategy_comparison(cfg)
        strategies = {"Optimal", "CleanOnly", "SameClean", "SameNoisy", "Algorithm2"}
        assert {r.strategy for r in rows} == strategies
        assert {r.sweep_param for r in rows} == {2.0, 10.0}
        for r in rows:
            vals = tv[(r.strategy, r.sweep_param)]
            assert len(vals) == cfg.trials
            assert r.mean == pytest.approx(vals.mean())
            assert r.stderr == pytest.approx(vals.std(ddof=1) / np.sqrt(cfg.trials))
            assert r.seconds == 0.0
            assert np.isfinite(vals).all()

    def test_emits_deterministic_artifacts(self, tmp_path):
        cfg_a = small_config(tmp_path / "a", epsilon_noisy_sweep=(2.0,))
        cfg_b = small_config(tmp_path / "b", epsilon_noisy_sweep=(2.0,))
        run_strategy_comparison(cfg_a)
        run_strategy_comparison(cfg_b)
        a_dir, b_dir = tmp_path / "a" / "out", tmp_path / "b" / "out"
        for name in ("results.csv", "trials.csv"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()
        meta = json.loads((a_dir / "meta.json").read_text())
        assert meta["config"]["master_seed"] == 42
        assert "runtime_seconds" in meta

    def test_rcn_sweep(self):
        cfg = small_config(oracles={"kind": "rcn", "sigma_clean": 0.0, "sigma_noisy": 0.3,
                                    "batch_size": 10},
                           sigma_noisy_sweep=(0.1, 0.4))
        rows = run_strategy_comparison(cfg).rows
        assert {r.sweep_param for r in rows} == {0.1, 0.4}

    @pytest.mark.parametrize("oracles,sweep", [
        ({"kind": "rcn", "sigma_noisy": 0.2, "batch_size": 10}, "epsilon_noisy_sweep"),
        ({"kind": "local_dp", "batch_size": 10}, "sigma_noisy_sweep")])
    def test_a_sweep_of_the_other_mechanism_is_rejected(self, oracles, sweep):
        # It used to run only the default noisy level, here sigma_noisy = 0.2.
        cfg = small_config(oracles=oracles, **{sweep: (0.1, 0.3)})
        with pytest.raises(ValueError, match=sweep):
            run_strategy_comparison(cfg)


class TestOrderExperiment:
    def test_rows_cover_grid_and_strategies(self):
        cfg = small_config(c_grid=(50.0, 100.0, 200.0))
        rows, tv, _ = run_order_experiment(cfg)
        assert {r.strategy for r in rows} == {"CF", "NF", "AO"}
        assert {r.sweep_param for r in rows} == {50.0, 100.0, 200.0}
        for vals in tv.values():
            assert np.all(vals >= 0)  # |f(w) - f(v)|

    def test_requires_grid(self):
        with pytest.raises(ValueError, match="c_grid"):
            run_order_experiment(small_config())

    def test_run_writes_outputs(self, tmp_path):
        cfg = small_config(tmp_path, c_grid=(100.0,), trials=3)
        run_order_experiment(cfg)
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == ["meta.json", "results.csv", "trials.csv"]

    def test_meta_reports_the_last_active_step_and_the_checked_row_steps(self, tmp_path,
                                                                         monkeypatch):
        # At c >= 100 = 1/lam the first steps leave the ball of radius 1/lam. Each trial's
        # engine rows are, per c and strategy, a run and its twin.
        cfg = small_config(tmp_path, c_grid=(25.0, 100.0, 400.0), trials=3)
        calls, run_batch = [], experiments.run_batch

        def recorded(rows):
            calls.append(run_batch(rows))
            return calls[-1]

        monkeypatch.setattr(experiments, "run_batch", recorded)
        run_order_experiment(cfg)
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        trajectories = [t for call in calls for t in call]
        keys = [(name, c) for c in cfg.c_grid for name in ("CF", "NF", "AO")]
        last = dict.fromkeys(keys, 0)
        for i, key in enumerate(keys * cfg.trials):
            last[key] = max(last[key], *(t.last_projected for t in trajectories[2 * i:2 * i + 2]))
        points = meta["projection"]["points"]
        assert {(p["strategy"], p["sweep_param"]): p["last_active_step"] for p in points} == last
        assert all((p["last_active_step"] > 0) == (p["active_frac"] > 0) for p in points)
        steps = _setup(cfg, 1).steps
        assert 0 < max(last.values()) <= steps["clean_data"] + steps["noisy_data"]
        engine = meta["engine"]
        assert engine["checked_row_steps"] == sum(t.checked for t in trajectories)
        assert 0 < engine["checked_row_steps"] <= engine["row_steps"] - engine["shared_row_steps"]

    def test_the_norm_bound_spares_most_exact_tests_at_the_shipped_config(self, tmp_path):
        # The inside-ball test runs on at most 30% of the row-steps the engine takes.
        shipped = Path(__file__).resolve().parent.parent / "configs" / "order_exp.json"
        cfg = ExperimentConfig.from_dict({**json.loads(shipped.read_text()), "trials": 1,
                                          "out_dir": str(tmp_path / "out")})
        run_order_experiment(cfg)
        engine = json.loads((tmp_path / "out" / "meta.json").read_text())["engine"]
        assert 0 < engine["checked_row_steps"] <= \
            0.3 * (engine["row_steps"] - engine["shared_row_steps"])


def c2_results(run):
    """(rows, values, info) of a c2-sweep run; info holds its c2_markers and its rate grid."""
    grid = [c2 for name, c2 in run.values if name == "TwoRate"]
    return run.rows, run.values, {**run.meta["c2_markers"], "grid": grid}


class TestC2Sweep:
    def test_grid_brackets_and_markers(self, tmp_path):
        cfg = small_config(tmp_path, c2_grid_points=6)
        rows, tv, info = c2_results(run_c2_sweep(cfg))
        lo, hi = sorted((info["c2_lower"], info["c2_upper"]))
        assert any(abs(c - info["c2_lower"]) < 1e-9 for c in info["grid"])
        assert any(abs(c - info["c2_upper"]) < 1e-9 for c in info["grid"])
        strategies = {r.strategy for r in rows}
        assert {"TwoRate", "CleanOnly", "marker_c2_lower", "marker_c2_upper",
                "marker_c2_selected"} <= strategies
        clean_rows = [r for r in rows if r.strategy == "CleanOnly"]
        assert len(clean_rows) == 1 and clean_rows[0].sweep_param == 0.0
        marker = next(r for r in rows if r.strategy == "marker_c2_upper")
        twin = next(r for r in rows if r.strategy == "TwoRate"
                    and r.sweep_param == marker.sweep_param)
        assert marker.mean == twin.mean

    def test_bracket_is_the_upper_selection_and_its_order_at_the_lower_bounds(self):
        from hetsgd.oracles import dp_noise_level
        from hetsgd.rates import BoundInputs, minimize_phase2_rate, select_rates
        cfg = small_config(trials=2)
        _, _, info = c2_results(run_c2_sweep(cfg))
        n_c = round(cfg.beta_c * cfg.data.n)
        beta_c, lam, d, b = n_c / cfg.data.n, cfg.problem.lam, cfg.data.d, cfg.oracles.batch_size
        gc = dp_noise_level(cfg.oracles.epsilon_clean, d, b)
        gn = dp_noise_level(cfg.oracles.epsilon_noisy, d, b)
        upper = select_rates(gc.gamma_sq, gn.gamma_sq, beta_c, lam)
        if upper.order == "clean_first":
            lower = BoundInputs(gc.gamma_sq_lower, gn.gamma_sq_lower, beta_c, lam, 1)
        else:
            lower = BoundInputs(gn.gamma_sq_lower, gc.gamma_sq_lower, 1 - beta_c, lam, 1)
        assert (info["order"], info["c2_upper"], info["c2_lower"]) == \
            (upper.order, upper.c2, minimize_phase2_rate(lower)[0])

    def test_run_writes_marker_metadata(self, tmp_path):
        cfg = small_config(tmp_path, c2_grid_points=4, trials=2)
        run_c2_sweep(cfg)
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert set(meta["c2_markers"]) == {"c2_lower", "c2_upper", "c2_selected", "order"}

    def test_meta_reports_projection_activity(self, tmp_path):
        # At c1 = 1/lam = 100 the first steps leave the ball of radius 1/lam, so the
        # projection scales some runs; the CSVs carry none of it.
        cfg = small_config(tmp_path, c2_grid_points=4, trials=2)
        run_c2_sweep(cfg)
        projection = json.loads((tmp_path / "out" / "meta.json").read_text())["projection"]
        fractions = {(p["strategy"], p["sweep_param"]): p["active_frac"]
                     for p in projection["points"]}
        assert ("CleanOnly", 0.0) in fractions
        assert {name for name, _ in fractions} == {"TwoRate", "CleanOnly"}
        assert all(0.0 <= f < 1.0 for f in fractions.values())
        assert any(f > 0.0 for f in fractions.values())
        assert projection["active"] and not projection["assumes_inactive"]
        assert not projection["violated"]

    def test_meta_counts_the_row_steps_taken_over(self, tmp_path):
        # Noisy first, every TwoRate row of a trial after the first takes over the noisy
        # phase (c1 = 1/lam whatever c2 is); CleanOnly starts on the other source.
        cfg = small_config(tmp_path, c2_grid_points=4, trials=3)
        rows = run_c2_sweep(cfg).rows
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert meta["c2_markers"]["order"] == "noisy_first"
        steps = _setup(cfg, 1).steps
        clean, noisy = steps["clean_data"], steps["noisy_data"]
        two_rate = sum(1 for r in rows if r.strategy == "TwoRate")
        engine = meta["engine"]
        # The default block budget holds all of this small config's trials in one call.
        assert engine["calls"] == 1 and engine["max_trials_per_call"] == cfg.trials
        assert engine["rows"] == cfg.trials * (two_rate + 1)
        assert engine["row_steps"] == cfg.trials * (two_rate * (noisy + clean) + clean)
        assert engine["shared_row_steps"] == cfg.trials * (two_rate - 1) * noisy > 0


# Test ids stay as they were before the three drivers shared one runner, so that results
# of these cases stay comparable across commits.
@pytest.mark.parametrize("run", [pytest.param(run_order_experiment, id="order_experiment_details"),
                                 pytest.param(run_strategy_comparison,
                                              id="strategy_comparison_details"),
                                 pytest.param(run_c2_sweep, id="c2_sweep_details")])
def test_unknown_oracle_kind_rejected(run):
    with pytest.raises(ValueError, match="oracle kind"):
        run(small_config(c_grid=(100.0,), oracles={"kind": "gaussian"}))


# The list keys each driver reads, at small values.
OWN_KEYS = {run_order_experiment: {"c_grid": (50.0, 200.0)},
            run_strategy_comparison: {"epsilon_noisy_sweep": (2.0,)},
            run_c2_sweep: {"c2_grid_points": 4}}


def write_config(tmp_path, command, **overrides) -> Path:
    """A small config of ``command`` at 2 trials and without out_dir, as a JSON file."""
    run = getattr(experiments, EXPERIMENTS[command])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_config(trials=2, **{**OWN_KEYS[run], **overrides}).to_dict()))
    return path


@pytest.fixture
def no_trial(monkeypatch):
    """Fails the test if a driver reaches an engine call."""
    def run_batch(rows):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiments, "run_batch", run_batch)


@pytest.mark.parametrize("run", [run_order_experiment, run_strategy_comparison, run_c2_sweep])
def test_a_library_run_without_out_dir_writes_no_file(run, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(small_config(trials=2, **OWN_KEYS[run])).rows
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("run,command,key,value", [
    (run_c2_sweep, "c2-sweep", "epsilon_noisy_sweep", (1.0,)),
    (run_order_experiment, "order-exp", "epsilon_noisy_sweep", (1.0,)),
    (run_strategy_comparison, "strategy-cmp", "c_grid", (100.0,))])
def test_a_list_key_the_driver_does_not_read_is_rejected(run, command, key, value):
    # Each used to run as if the key were unset: order-exp ignored its noisy sweep.
    cfg = small_config(trials=2, **OWN_KEYS[run], **{key: value})
    with pytest.raises(ValueError, match=f"^{key} is set, but {command} "):
        run(cfg)


@pytest.mark.parametrize("run", [run_order_experiment, run_strategy_comparison, run_c2_sweep])
def test_a_run_returns_the_rows_and_meta_blocks_it_writes(run, tmp_path):
    result = run(small_config(tmp_path, trials=2, **OWN_KEYS[run]))
    out = tmp_path / "out"
    assert result.rows == read_csv_rows(out / "results.csv")
    assert [(r.strategy, r.sweep_param) for r in result.rows][:len(result.values)] == \
        list(result.values)
    blocks = {"timing", "engine", "projection"} | ({"c2_markers"} if run is run_c2_sweep else set())
    assert set(result.meta) == blocks
    meta = json.loads((out / "meta.json").read_text())
    assert json.loads(json.dumps(result.meta)) == {name: meta[name] for name in blocks}


class TestOrderExperimentDeskScale:
    def test_order_depends_on_rate_constant(self):
        # Desk-scale shape: clean-first wins below 1/lam, noisy-first above,
        # and the curves meet near 1/lam; gaps measured in row-level stderr.
        cfg = ExperimentConfig.from_dict({
            "problem": {"loss": "logistic", "lam": 1e-3},
            "data": {"kind": "synthetic", "d": 10, "n": 2000, "flip_rate": 0.05},
            "oracles": {"kind": "local_dp", "epsilon_clean": 10.0, "epsilon_noisy": 3.0,
                         "batch_size": 1},
            "beta_c": 0.1,
            "trials": 100,
            "master_seed": 777,
            "c_grid": (500.0, 1000.0, 2000.0),
        })
        rows, tv, _ = run_order_experiment(cfg)
        mean = {(r.strategy, r.sweep_param): r.mean for r in rows}
        se = {(r.strategy, r.sweep_param): r.stderr for r in rows}

        def sep(c):
            return np.hypot(se[("CF", c)], se[("NF", c)])

        assert mean[("CF", 500.0)] <= mean[("NF", 500.0)] - 3 * sep(500.0)
        assert mean[("NF", 2000.0)] <= mean[("CF", 2000.0)] - 3 * sep(2000.0)
        assert abs(mean[("CF", 1000.0)] - mean[("NF", 1000.0)]) <= 3 * sep(1000.0)


class TestDataBackedConfigs:
    def test_csv_backed_experiment(self, tmp_path):
        path = tmp_path / "train.csv"
        rng = np.random.default_rng(0)
        lines = []
        for _ in range(120):
            x = rng.standard_normal(3) * 0.4
            label = 1 if x[0] > 0 else 0
            lines.append(f"{label}, {x[0]:.5f}, {x[1]:.5f}, {x[2]:.5f}")
        path.write_text("\n".join(lines) + "\n")
        cfg = small_config(data={"kind": "csv", "path": str(path)},
                           oracles={"kind": "local_dp", "epsilon_clean": 10.0,
                                    "epsilon_noisy": 2.0, "batch_size": 5},
                           epsilon_noisy_sweep=(2.0,), trials=2)
        rows = run_strategy_comparison(cfg).rows
        assert rows

    def test_projection_in_pipeline(self):
        cfg = small_config(data={"kind": "synthetic", "d": 20, "n": 200,
                                 "flip_rate": 0.0, "project_to": 6},
                           epsilon_noisy_sweep=(2.0,), trials=2)
        rows = run_strategy_comparison(cfg).rows
        assert rows

    def test_projection_to_the_input_dimension_is_skipped(self):
        data = {"kind": "synthetic", "d": 4, "n": 50}
        plain = load_dataset(small_config(data=data), np.random.SeedSequence(3))
        same = load_dataset(small_config(data={**data, "project_to": 4}), np.random.SeedSequence(3))
        np.testing.assert_array_equal(same.X, plain.X)


class TestBudgetConservation:
    def test_each_trial_consumes_whole_budgets(self):
        # Before each engine call the drivers check that every run's schedule reads
        # floor(budget/b) batches of each of its oracles; this exercises that check
        # across all strategies.
        cfg = small_config(epsilon_noisy_sweep=(2.0,), trials=2)
        rows = run_strategy_comparison(cfg).rows
        assert rows  # reaching here means the internal accounting held


class TestCli:
    def test_noise_level_dp(self, capsys):
        assert cli_main(["noise-level", "--kind", "dp", "--epsilon", "1.0",
                         "--dim", "25", "--batch-size", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["gamma_sq"] == pytest.approx(2604.0)
        assert out["gamma_sq_lower"] == pytest.approx(2600.0)

    def test_noise_level_rcn(self, capsys):
        assert cli_main(["noise-level", "--kind", "rcn", "--sigma", "0.25"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["gamma_sq"] == pytest.approx(7.0)

    def test_select_rates_from_epsilons(self, capsys):
        assert cli_main(["select-rates", "--lam", "0.001", "--beta-c", "0.1",
                         "--epsilon-clean", "10", "--epsilon-noisy", "2",
                         "--dim", "25", "--batch-size", "50"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["order"] in ("clean_first", "noisy_first")
        assert out["c1"] == pytest.approx(1000.0)

    def test_select_rates_from_gammas(self, capsys):
        assert cli_main(["select-rates", "--lam", "0.1", "--beta-c", "0.5",
                         "--gamma-c-sq", "10", "--gamma-n-sq", "10"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["order"] == "clean_first"

    @pytest.mark.parametrize("argv,flag", [
        (["select-rates", "--lam", "0.1", "--beta-c", "0.5", "--gamma-c-sq", "8",
          "--gamma-n-sq", "50", "--epsilon-noisy", "2", "--dim", "10", "--batch-size", "7"],
         "--epsilon-noisy"),
        (["select-rates", "--lam", "0.1", "--beta-c", "0.5", "--gamma-c-sq", "8",
          "--gamma-n-sq", "50", "--batch-size", "1"], "--batch-size"),
        (["select-rates", "--lam", "0.1", "--beta-c", "0.5", "--epsilon-clean", "8",
          "--epsilon-noisy", "2", "--dim", "10", "--gamma-n-sq", "50"], "--gamma-n-sq"),
        (["noise-level", "--kind", "rcn", "--sigma", "0.2", "--epsilon", "3", "--dim", "4"],
         "--epsilon"),
        (["noise-level", "--kind", "rcn", "--sigma", "0.2", "--batch-size", "1"], "--batch-size"),
        (["noise-level", "--kind", "dp", "--epsilon", "2", "--dim", "10", "--sigma", "0.3"],
         "--sigma"),
    ])
    def test_a_flag_the_input_mode_does_not_read_is_rejected(self, argv, flag, capsys):
        with pytest.raises(SystemExit, match=f"^{flag} does not apply"):
            cli_main(argv)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv,message", [
        (["select-rates", "--lam", "0.01", "--beta-c", "0.3", "--gamma-c-sq", "3",
          "--gamma-n-sq", "nan"], "gamma_n_sq must be a number in (0, inf), got nan"),
        (["order-exp", "--config", "{config}"], "beta_c must be a number in (0, 1), got 1.5"),
    ], ids=["select-rates", "order-exp"])
    def test_a_value_the_library_refuses_ends_in_its_one_line_message(self, argv, message,
                                                                      tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"beta_c": 1.5}))
        with pytest.raises(SystemExit) as exit_info:
            cli_main([a.format(config=config) for a in argv])
        assert exit_info.value.code == message
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["order-exp", "strategy-cmp", "c2-sweep"])
    @pytest.mark.parametrize("content,message", [
        (None, "cannot read config {config}: No such file or directory"),
        ('{"beta_c": 0.3,', "config {config} is not valid JSON: Expecting property name"),
        (b"\xff\xfe", "config {config} is not valid JSON: 'utf-8' codec can't decode"),
    ], ids=["missing", "truncated", "not_utf8"])
    def test_a_config_file_that_cannot_be_read_ends_in_one_line_naming_it(
            self, command, content, message, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        if isinstance(content, str):
            config.write_text(content)
        elif content is not None:
            config.write_bytes(content)
        with pytest.raises(SystemExit) as exit_info:
            cli_main([command, "--config", str(config)])
        text = exit_info.value.code
        assert isinstance(text, str) and "\n" not in text
        assert text.startswith(message.format(config=config))
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["order-exp", "strategy-cmp", "c2-sweep"])
    def test_a_driver_run_with_nowhere_to_write_is_refused(self, command, tmp_path, capsys,
                                                           no_trial):
        # It used to run every trial, write nothing and exit 0.
        with pytest.raises(SystemExit) as exit_info:
            cli_main([command, "--config", str(write_config(tmp_path, command))])
        assert exit_info.value.code == (f"{command} has nowhere to write its results: "
                                        "set out_dir in the config or pass --out-dir")
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["order-exp", "strategy-cmp", "c2-sweep"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
    def test_an_out_dir_naming_a_file_ends_in_one_line_before_any_trial(
            self, command, below, tmp_path, capsys, no_trial):
        # It used to run every trial and then end in a FileExistsError traceback.
        target = tmp_path / "results"
        target.write_text("")
        out = target / "sub" if below else target
        with pytest.raises(SystemExit) as exit_info:
            cli_main([command, "--config", str(write_config(tmp_path, command)),
                      "--out-dir", str(out)])
        text = exit_info.value.code
        assert isinstance(text, str) and "\n" not in text and str(out) in text
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command,overrides,message", [
        ("order-exp", {"c_grid": None}, "order experiment needs c_grid"),
        ("c2-sweep", {"epsilon_noisy_sweep": [1.0]}, "epsilon_noisy_sweep is set, but c2-sweep"),
    ], ids=["refused_plan", "unread_key"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_a_refused_run_removes_only_the_directories_it_made(
            self, command, overrides, message, existing, tmp_path, capsys, no_trial):
        # A refused run leaves no directory it made, and keeps one that was there before.
        out = tmp_path / "made" / "out"         # two levels the run may have to make
        if existing:
            out.mkdir(parents=True)
        config = write_config(tmp_path, command, **overrides)
        with pytest.raises(SystemExit) as exit_info:
            cli_main([command, "--config", str(config), "--out-dir", str(out)])
        assert exit_info.value.code.startswith(message)
        assert out.is_dir() if existing else not (tmp_path / "made").exists()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("run", [run_order_experiment, run_strategy_comparison, run_c2_sweep])
    def test_a_run_whose_trial_fails_removes_the_directory_it_made(self, run, tmp_path,
                                                                   monkeypatch):
        def run_batch(rows):
            raise InfeasibleIterate("a run's iterate became non-finite at step 1")

        monkeypatch.setattr(experiments, "run_batch", run_batch)
        with pytest.raises(InfeasibleIterate):
            run(small_config(tmp_path, trials=2, **OWN_KEYS[run]))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["csv", "libsvm"])
    def test_a_missing_dataset_file_ends_in_one_line_naming_it(self, kind, tmp_path, capsys,
                                                               no_trial):
        # It used to end in a FileNotFoundError traceback.
        missing = tmp_path / f"missing.{kind}"
        config = write_config(tmp_path, "strategy-cmp", data={"kind": kind, "path": str(missing)})
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["strategy-cmp", "--config", str(config), "--out-dir", str(tmp_path / "o")])
        text = exit_info.value.code
        assert isinstance(text, str) and "\n" not in text
        assert "No such file or directory" in text and str(missing) in text
        assert capsys.readouterr().out == ""

    def test_a_refused_value_logs_its_traceback_at_debug(self, caplog):
        caplog.set_level(logging.DEBUG, logger="hetsgd")
        with pytest.raises(SystemExit, match="^gamma_n_sq must be"):
            cli_main(["select-rates", "--lam", "0.01", "--beta-c", "0.3", "--gamma-c-sq", "3",
                      "--gamma-n-sq", "nan"])
        record, = [r for r in caplog.records if r.name == "hetsgd.cli"]
        assert record.levelno == logging.DEBUG and record.exc_info[0] is ValueError

    def test_experiment_with_config_and_overrides(self, tmp_path, capsys):
        cfg = small_config(epsilon_noisy_sweep=(2.0,), trials=2)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        out_dir = tmp_path / "cli_out"
        assert cli_main(["strategy-cmp", "--config", str(cfg_path),
                         "--out-dir", str(out_dir), "--trials", "3"]) == 0
        rows = read_csv_rows(out_dir / "results.csv")
        assert all(r.trials == 3 for r in rows)

    def test_overrides_do_not_carry_over_to_the_next_call(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(epsilon_noisy_sweep=(2.0,), trials=2).to_dict()))
        for out, extra, trials in (("a", ["--trials", "3"], 3), ("b", [], 2)):
            assert cli_main(["strategy-cmp", "--config", str(cfg_path),
                             "--out-dir", str(tmp_path / out), *extra]) == 0
            assert {r.trials for r in read_csv_rows(tmp_path / out / "results.csv")} == {trials}

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run([sys.executable, "-m", "hetsgd", "noise-level",
                               "--kind", "rcn", "--sigma", "0.0"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["gamma_sq"] == pytest.approx(4.0)


# SHA-256 of every CSV each driver writes at a small config. Same seeds must
# give the same CSV bytes across commits, not only across reruns of one.
# The digests and engine counts were recorded on conftest.PINNED_BUILD.
PINNED_CASES = {
    "order-exp": ("order-exp", {"c_grid": [50.0, 200.0]}),
    "strategy-cmp": ("strategy-cmp", {"epsilon_noisy_sweep": [2.0, 10.0]}),
    "strategy-cmp-rcn": ("strategy-cmp", {
        "oracles": {"kind": "rcn", "sigma_clean": 0.0, "sigma_noisy": 0.3, "batch_size": 10},
        "sigma_noisy_sweep": [0.1, 0.3]}),
    "c2-sweep": ("c2-sweep", {"c2_grid_points": 4}),
}

PINNED_DIGESTS = {
    "order-exp": {
        "results.csv": "fdb028e2242a5c99cc09ec4f2c7dc06d431590ff19f1c81714ee818fa203dadd",
        "trials.csv": "66947061d94e666ef81789aa8de8d27153624da3f93b5476bab78c34d1cebbba",
    },
    "strategy-cmp": {
        "results.csv": "cc21485e50cc53453375659a5d9db1e546e4f863771e02c8b44d4ce9c724b47a",
        "trials.csv": "37ab7c99b7b04e8de208465cd8f044a21e581f8dce02f3a699507575a938e56a",
    },
    "strategy-cmp-rcn": {
        "results.csv": "0511514727907e5ffb9db206cad7f8f38dd6ed814d96961eab09c542e7d25c35",
        "trials.csv": "a13dac12c3f7a5ee8ab0006a205dc61a593a5170b04ed34dd6a7fb9624f51ff2",
    },
    "c2-sweep": {
        "results.csv": "4a564d4094536d888066503d85f1de8d1b97c3359830b4d3a7b230d532febf96",
        "trials.csv": "f6c778ebe4c041ae54c44de19346a4b0c05f3c0c0f3c2044263e68dcfceae336",
    },
}

# meta.json's engine counts of each case: how many calls, rows and row-steps, and how many
# of those steps were taken over from another row or ran the exact inside-ball test.
PINNED_ENGINE_COUNTS = {
    "order-exp": {"calls": 1, "rows": 36, "row_steps": 864, "shared_row_steps": 2,
                  "checked_row_steps": 718, "max_trials_per_call": 3},
    "strategy-cmp": {"calls": 1, "rows": 30, "row_steps": 612, "shared_row_steps": 18,
                     "checked_row_steps": 354, "max_trials_per_call": 3},
    "strategy-cmp-rcn": {"calls": 1, "rows": 30, "row_steps": 612, "shared_row_steps": 0,
                         "checked_row_steps": 294, "max_trials_per_call": 3},
    "c2-sweep": {"calls": 1, "rows": 21, "row_steps": 450, "shared_row_steps": 270,
                 "checked_row_steps": 159, "max_trials_per_call": 3},
}


def test_driver_outputs_are_pinned(tmp_path):
    digests, engines = {}, {}
    for case, (command, overrides) in PINNED_CASES.items():
        cfg_path = tmp_path / f"{case}.json"
        cfg_path.write_text(json.dumps(small_config(trials=3, **overrides).to_dict()))
        out = tmp_path / case
        assert cli_main([command, "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        digests[case] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                         for p in sorted(out.glob("*.csv"))}
        # The run reports go to meta.json only: a time per stage and projection activity.
        meta = json.loads((out / "meta.json").read_text())
        engines[case] = meta["engine"]
        assert set(meta["timing"]) == {"setup_s", "oracles_s", "engine_s", "scoring_s",
                                       "emission_s"}
        assert all(t >= 0.0 for t in meta["timing"].values())
        assert sum(meta["timing"].values()) <= meta["runtime_seconds"]
        projection = meta["projection"]
        assert projection["assumes_inactive"] == (command == "order-exp")
        assert projection["violated"] == (projection["assumes_inactive"] and projection["active"])
    assert_pinned(digests, PINNED_DIGESTS)
    assert_pinned(engines, PINNED_ENGINE_COUNTS)


def test_a_pin_mismatch_names_both_builds(monkeypatch):
    import conftest
    monkeypatch.setitem(conftest.PINNED_BUILD, "numpy", "0.0")
    running = re.escape(f"this build is {{'numpy': '{np.__version__}', ")
    with pytest.raises(AssertionError, match=r"recorded on \{'numpy': '0\.0', .*" + running
                       + r".*, a different one"):
        assert_pinned("got", "pinned")


def read_trials(path) -> dict:
    """trials.csv's values per (strategy, sweep value), in file order; trials count from 0."""
    values = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["strategy", "sweep_param", "trial", "value"]
        for strategy, sweep_param, trial, value in reader:
            trials = values.setdefault((strategy, float(sweep_param)), [])
            assert int(trial) == len(trials)
            trials.append(float(value))
    return {key: np.array(v) for key, v in values.items()}


@pytest.mark.parametrize("case", sorted(PINNED_CASES))
def test_results_csv_is_rebuilt_from_trials_csv_and_meta_json(case, tmp_path):
    command, overrides = PINNED_CASES[case]
    run = getattr(experiments, EXPERIMENTS[command])(small_config(tmp_path, trials=3, **overrides))
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == ["meta.json", "results.csv", "trials.csv"]
    values = read_trials(out / "trials.csv")
    assert list(values) == list(run.values)
    assert all(values[key].tobytes() == run.values[key].tobytes() for key in run.values)
    # c2-sweep's marker rows repeat the TwoRate rows that c2_markers names, in this order.
    markers = json.loads((out / "meta.json").read_text()).get("c2_markers")
    names = ("c2_lower", "c2_upper", "c2_selected") if command == "c2-sweep" else ()
    rows = [_result_row(*key, v) for key, v in values.items()]
    rows += [_result_row(f"marker_{n}", markers[n], values["TwoRate", markers[n]]) for n in names]
    assert rows == read_csv_rows(out / "results.csv")


@pytest.mark.parametrize("case", sorted(PINNED_CASES))
def test_grouping_trials_into_engine_calls_changes_no_byte(case, tmp_path, monkeypatch):
    # One trial per engine call, then every trial in one call: the same CSV bytes.
    command, overrides = PINNED_CASES[case]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(trials=3, **overrides).to_dict()))
    outputs = {}
    for budget, calls, per_call in ((1, 3, 1), (1 << 40, 1, 3)):
        monkeypatch.setattr(experiments, "BATCH_BYTES", budget)
        out = tmp_path / str(budget)
        assert cli_main([command, "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        engine = json.loads((out / "meta.json").read_text())["engine"]
        assert (engine["calls"], engine["max_trials_per_call"]) == (calls, per_call)
        outputs[budget] = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
    assert "results.csv" in outputs[1] and len(outputs[1]) > 1
    assert outputs[1] == outputs[1 << 40]


@pytest.fixture
def package_log_level():
    """Restores the level of the package's logger, which --log-level sets."""
    logger = logging.getLogger("hetsgd")
    level = logger.level
    yield logger
    logger.setLevel(level)


class TestLogLevel:
    def test_each_engine_call_is_logged_at_info(self, tmp_path, caplog, monkeypatch,
                                                 package_log_level):
        monkeypatch.setattr(experiments, "BATCH_BYTES", 1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(trials=2, c2_grid_points=3).to_dict()))
        assert cli_main(["c2-sweep", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o"),
                         "--log-level", "info"]) == 0
        assert package_log_level.level == logging.INFO
        lines = [r.getMessage() for r in caplog.records if r.name == "hetsgd.experiments"]
        engine = [line for line in lines if line.startswith("engine call")]
        assert len(engine) == 2
        assert engine[1].startswith("engine call 1: 1 trials (1-1), ")
        assert "row-steps" in engine[1] and engine[1].endswith(" s")

    def test_without_the_flag_logging_is_left_alone(self, tmp_path, caplog, package_log_level):
        package_log_level.setLevel(logging.NOTSET)
        assert cli_main(["noise-level", "--kind", "rcn", "--sigma", "0.1"]) == 0
        assert package_log_level.level == logging.NOTSET
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(trials=2, c2_grid_points=3).to_dict()))
        assert cli_main(["c2-sweep", "--config", str(cfg_path),
                         "--out-dir", str(tmp_path / "o")]) == 0
        assert not [r for r in caplog.records if r.levelno < logging.WARNING]

    def test_every_subcommand_takes_the_flag(self, capsys, package_log_level):
        assert cli_main(["noise-level", "--kind", "rcn", "--sigma", "0.1",
                         "--log-level", "warning"]) == 0
        assert package_log_level.level == logging.WARNING
        assert cli_main(["select-rates", "--lam", "0.1", "--beta-c", "0.5", "--gamma-c-sq", "10",
                         "--gamma-n-sq", "10", "--log-level", "error"]) == 0
        assert package_log_level.level == logging.ERROR
        with pytest.raises(SystemExit):
            cli_main(["noise-level", "--kind", "rcn", "--sigma", "0.1", "--log-level", "loud"])


class TestGitHash:
    HASH = "0123456789abcdef0123456789abcdef01234567"

    def test_a_worktree_resolves_its_branch_in_the_common_directory(self, tmp_path):
        main_git = tmp_path / "main" / ".git"
        gitdir = main_git / "worktrees" / "wt"
        gitdir.mkdir(parents=True)
        (gitdir / "HEAD").write_text("ref: refs/heads/feature\n")
        (gitdir / "commondir").write_text("../..\n")
        (main_git / "refs" / "heads").mkdir(parents=True)
        (main_git / "refs" / "heads" / "feature").write_text(self.HASH + "\n")
        package = tmp_path / "wt" / "src" / "pkg"
        package.mkdir(parents=True)
        (tmp_path / "wt" / ".git").write_text(f"gitdir: {gitdir}\n")
        assert experiments._git_hash(package) == self.HASH
        # A branch only in packed-refs of the common directory.
        (main_git / "refs" / "heads" / "feature").unlink()
        (main_git / "packed-refs").write_text(f"# pack-refs\n{self.HASH} refs/heads/feature\n")
        assert experiments._git_hash(package) == self.HASH

    def test_a_submodule_follows_a_relative_gitdir(self, tmp_path):
        gitdir = tmp_path / "super" / ".git" / "modules" / "sub"
        gitdir.mkdir(parents=True)
        (gitdir / "HEAD").write_text(self.HASH + "\n")          # detached
        sub = tmp_path / "super" / "sub"
        sub.mkdir()
        (sub / ".git").write_text("gitdir: ../.git/modules/sub\n")
        assert experiments._git_hash(sub) == self.HASH

    def test_an_unresolvable_head_is_unknown(self, tmp_path):
        gitdir = tmp_path / "gitdir"
        gitdir.mkdir()
        (gitdir / "HEAD").write_text("ref: refs/heads/gone\n")
        (tmp_path / "repo").mkdir()
        (tmp_path / "repo" / ".git").write_text(f"gitdir: {gitdir}\n")
        assert experiments._git_hash(tmp_path / "repo") == "unknown"
