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

from hetsgd import experiments
from hetsgd.cli import main as cli_main
from hetsgd.experiments import (CSV_HEADER, ExperimentConfig, ResultRow, _setup, c2_sweep_details,
                                emit_csv, emit_plotdata, load_dataset, order_experiment_details,
                                read_csv_rows, run_c2_sweep, run_order_experiment,
                                run_strategy_comparison, strategy_comparison_details)

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

    def test_plotdata_one_file_per_strategy(self, tmp_path):
        paths = emit_plotdata(FIXTURE_ROWS, tmp_path)
        names = sorted(p.name for p in paths)
        assert names == ["plot_Algorithm2.csv", "plot_CleanOnly.csv"]
        rows = read_csv_rows(tmp_path / "plot_Algorithm2.csv")
        assert rows == [FIXTURE_ROWS[0]]

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
        ({"c2_grid": 80.0}, "c2_grid"),
        ({"epsilon_noisy_sweep": {"eps": 2.0}}, "epsilon_noisy_sweep"),
        ({"sigma_noisy_sweep": [0.1, True]}, "sigma_noisy_sweep"),
        ({"c_grid": [100.0, "200"]}, "c_grid"),
        ({"c2_grid": [None]}, "c2_grid"),
        ({"strategies": "CleanOnly"}, "strategies"),
        ({"strategies": ["CleanOnly", 3]}, "strategies"),
        ({"problem": None}, "problem"),
        ({"data": [["n", 300]]}, "data"),
        ({"oracles": "rcn"}, "oracles")])
    def test_unknown_kinds_and_missing_paths_rejected_at_load(self, overrides, key):
        # Each used to load and fail only in setup, a missing path or a null section as a bare
        # TypeError; a string c_grid loaded as its characters.
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_dict(overrides)

    @pytest.mark.parametrize("overrides,key", [
        ({"c_grid": [math.nan, 300.0]}, "c_grid"),
        ({"c_grid": [-5.0]}, "c_grid"),
        ({"c2_grid": [math.inf]}, "c2_grid"),
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

    @pytest.mark.parametrize("strategies", [(), ("CleanOnly", "CleanOnly")])
    def test_empty_or_repeated_strategies_rejected(self, strategies):
        # Runs are keyed by strategy: a repeat would emit two rows over one pooled array.
        with pytest.raises(ValueError, match="strategies"):
            small_config(strategies=strategies)

    @pytest.mark.parametrize("key, values", [("c_grid", (100.0, 100.0)),
                                             ("epsilon_noisy_sweep", (2.0, 5.0, 2.0)),
                                             ("sigma_noisy_sweep", (0.1, 0.1)),
                                             ("c2_grid", (50.0, 80.0, 50.0))])
    def test_repeated_sweep_value_rejected(self, key, values):
        # Runs are keyed by sweep value: a repeat would emit two rows over one pooled array.
        with pytest.raises(ValueError, match=key):
            small_config(**{key: values})


class TestStrategyComparison:
    def test_rows_and_trial_values(self):
        cfg = small_config(epsilon_noisy_sweep=(2.0, 10.0))
        rows, tv = strategy_comparison_details(cfg)
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

    def test_strategy_subset(self):
        cfg = small_config(strategies=("CleanOnly", "Algorithm2"),
                           epsilon_noisy_sweep=(2.0,))
        rows, _ = strategy_comparison_details(cfg)
        assert {r.strategy for r in rows} == {"CleanOnly", "Algorithm2"}
        with pytest.raises(ValueError):
            strategy_comparison_details(small_config(strategies=("Nope",)))

    def test_emits_deterministic_artifacts(self, tmp_path):
        cfg_a = small_config(tmp_path / "a", epsilon_noisy_sweep=(2.0,))
        cfg_b = small_config(tmp_path / "b", epsilon_noisy_sweep=(2.0,))
        run_strategy_comparison(cfg_a)
        run_strategy_comparison(cfg_b)
        a_dir, b_dir = tmp_path / "a" / "out", tmp_path / "b" / "out"
        for name in ["results.csv"] + sorted(p.name for p in a_dir.glob("plot_*.csv")):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()
        meta = json.loads((a_dir / "meta.json").read_text())
        assert meta["config"]["master_seed"] == 42
        assert "runtime_seconds" in meta

    def test_rcn_sweep(self):
        cfg = small_config(oracles={"kind": "rcn", "sigma_clean": 0.0, "sigma_noisy": 0.3,
                                    "batch_size": 10},
                           sigma_noisy_sweep=(0.1, 0.4))
        rows, _ = strategy_comparison_details(cfg)
        assert {r.sweep_param for r in rows} == {0.1, 0.4}

    @pytest.mark.parametrize("oracles,sweep", [
        ({"kind": "rcn", "sigma_noisy": 0.2, "batch_size": 10}, "epsilon_noisy_sweep"),
        ({"kind": "local_dp", "batch_size": 10}, "sigma_noisy_sweep")])
    def test_a_sweep_of_the_other_mechanism_is_rejected(self, oracles, sweep):
        # It used to run only the default noisy level, here sigma_noisy = 0.2.
        cfg = small_config(oracles=oracles, **{sweep: (0.1, 0.3)})
        with pytest.raises(ValueError, match=sweep):
            strategy_comparison_details(cfg)


class TestOrderExperiment:
    def test_rows_cover_grid_and_strategies(self):
        cfg = small_config(c_grid=(50.0, 100.0, 200.0))
        rows, tv = order_experiment_details(cfg)
        assert {r.strategy for r in rows} == {"CF", "NF", "AO"}
        assert {r.sweep_param for r in rows} == {50.0, 100.0, 200.0}
        for vals in tv.values():
            assert np.all(vals >= 0)  # |f(w) - f(v)|

    def test_requires_grid(self):
        with pytest.raises(ValueError, match="c_grid"):
            order_experiment_details(small_config())

    def test_run_writes_outputs(self, tmp_path):
        cfg = small_config(tmp_path, c_grid=(100.0,), trials=3)
        run_order_experiment(cfg)
        out = tmp_path / "out"
        assert (out / "results.csv").exists()
        assert (out / "meta.json").exists()
        assert sorted(p.name for p in out.glob("plot_*.csv")) == \
            ["plot_AO.csv", "plot_CF.csv", "plot_NF.csv"]

    def test_meta_reports_the_last_active_step_and_the_checked_row_steps(self, tmp_path,
                                                                         monkeypatch):
        # At c >= 100 = 1/lam the first steps leave the ball of radius 1/lam. Each trial's
        # engine rows are, per c and strategy, a run and its twin.
        cfg = small_config(tmp_path, c_grid=(25.0, 100.0, 400.0), trials=3)
        calls, run_batch = [], experiments.run_batch

        def recorded(rows, snapshot_stride=None):
            calls.append(run_batch(rows, snapshot_stride))
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


class TestC2Sweep:
    def test_grid_brackets_and_markers(self, tmp_path):
        cfg = small_config(tmp_path, c2_grid_points=6)
        rows, tv, info = c2_sweep_details(cfg)
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

    def test_explicit_grid_keeps_markers(self):
        cfg = small_config(c2_grid=(80.0, 120.0))
        rows, tv, info = c2_sweep_details(cfg)
        assert {80.0, 120.0} <= set(info["grid"])
        assert {info["c2_lower"], info["c2_upper"]} <= set(info["grid"])
        assert sum(1 for r in rows if r.strategy == "TwoRate") == len(info["grid"])

    def test_bracket_is_the_upper_selection_and_its_order_at_the_lower_bounds(self):
        from hetsgd.oracles import dp_noise_level
        from hetsgd.rates import BoundInputs, minimize_phase2_rate, select_rates
        cfg = small_config(trials=2)
        _, _, info = c2_sweep_details(cfg)
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
        rows = run_c2_sweep(cfg)
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


@pytest.mark.parametrize("details", [order_experiment_details, strategy_comparison_details,
                                     c2_sweep_details])
def test_unknown_oracle_kind_rejected(details):
    with pytest.raises(ValueError, match="oracle kind"):
        details(small_config(c_grid=(100.0,), oracles={"kind": "gaussian"}))


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
            "strategies": ("CF", "NF"),
            "c_grid": (500.0, 1000.0, 2000.0),
        })
        rows, tv = order_experiment_details(cfg)
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
        rows, _ = strategy_comparison_details(cfg)
        assert rows

    def test_projection_in_pipeline(self):
        cfg = small_config(data={"kind": "synthetic", "d": 20, "n": 200,
                                 "flip_rate": 0.0, "project_to": 6},
                           epsilon_noisy_sweep=(2.0,), trials=2)
        rows, _ = strategy_comparison_details(cfg)
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
        rows, _ = strategy_comparison_details(cfg)
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
        "plot_AO.csv": "a5d559f1eddf4712d8a16d583cdb1a93bb7b2f22bb624ea6557c9805ba49903d",
        "plot_CF.csv": "4d055278ba0f04c1b9e110a18ddabe1a4dfa9830c8ea8b0acd0ea1d6c0435c93",
        "plot_NF.csv": "d000629e102c3b1cdb2babc3c23b37b7584f600324c0335c46004a291f0936ca",
        "results.csv": "fdb028e2242a5c99cc09ec4f2c7dc06d431590ff19f1c81714ee818fa203dadd",
    },
    "strategy-cmp": {
        "plot_Algorithm2.csv": "bb9bfffab18df564fd486c9324cacce1b52d7836bd8ffea8ffe31726d6bac805",
        "plot_CleanOnly.csv": "350ea89a084eb300af45a2b025abc3f00f1fb5b0cf7c81efd82a9af7ee08b2d1",
        "plot_Optimal.csv": "48ca967664b0f9ee62237839569da6b5f1f8ec633c14bfaff0ed538b1e1e6d5c",
        "plot_SameClean.csv": "aadbf0ac6f82a0d39c9f7390e5feebe1ec84a8195240b154de199f54bb1fd21d",
        "plot_SameNoisy.csv": "ad1c7c3950617677bd765dd6f8b51ab47971e0698a58b604c1e5d94c30a105cb",
        "results.csv": "cc21485e50cc53453375659a5d9db1e546e4f863771e02c8b44d4ce9c724b47a",
    },
    "strategy-cmp-rcn": {
        "plot_Algorithm2.csv": "bc349a33778f63e5a70dfad9ef4e82daad7819c74a644d96e757f20cb233d7da",
        "plot_CleanOnly.csv": "5f498aa2e3efa2408cac7af800327f081367e94ff2be1955907027f777390da3",
        "plot_Optimal.csv": "6a2c2becf0aafcb4061769b8bd71144e9bbd10a3bdefdb6ca91da44f9e25eb63",
        "plot_SameClean.csv": "ce701bc56b48273f18c54529f4d52721c9cbbea8392d922c9648467a62a1ff65",
        "plot_SameNoisy.csv": "849e21d8d13456e92d4644367add4665d575f7ee4fc83ed9ee4aec895a12f208",
        "results.csv": "0511514727907e5ffb9db206cad7f8f38dd6ed814d96961eab09c542e7d25c35",
    },
    "c2-sweep": {
        "plot_CleanOnly.csv": "259d441741d5cefafc8f4a9b362833b332c44f09b8fa5105b57c40cd0bb84f7e",
        "plot_TwoRate.csv": "ab7a8239e7ea83d3a063fc28a94da6f2a32a98f3de1f368cedf066676f539cd6",
        "plot_marker_c2_lower.csv": "945404e1bbc441b394db312af1a365b25bd79c2fac773e19f94344b0a5ff2609",
        "plot_marker_c2_selected.csv": "0ed62ba7a30a8091e288c5c060835646103fd265d9de6ef56d87170825a4438c",
        "plot_marker_c2_upper.csv": "dc5a6a87a58fc0051ee6279f19b09211e93d8bda063a98ed361e6f32e18d94a5",
        "results.csv": "4a564d4094536d888066503d85f1de8d1b97c3359830b4d3a7b230d532febf96",
    },
}


def test_driver_outputs_are_pinned(tmp_path):
    digests = {}
    for case, (command, overrides) in PINNED_CASES.items():
        cfg_path = tmp_path / f"{case}.json"
        cfg_path.write_text(json.dumps(small_config(trials=3, **overrides).to_dict()))
        out = tmp_path / case
        assert cli_main([command, "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        digests[case] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                         for p in sorted(out.glob("*.csv"))}
        # The run reports go to meta.json only: a time per stage and projection activity.
        meta = json.loads((out / "meta.json").read_text())
        assert set(meta["timing"]) == {"setup_s", "oracles_s", "engine_s", "scoring_s",
                                       "emission_s"}
        assert all(t >= 0.0 for t in meta["timing"].values())
        assert sum(meta["timing"].values()) <= meta["runtime_seconds"]
        projection = meta["projection"]
        assert projection["assumes_inactive"] == (command == "order-exp")
        assert projection["violated"] == (projection["assumes_inactive"] and projection["active"])
    assert digests == PINNED_DIGESTS


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
