"""The benchmark's workloads and the calls each one times.

Every workload drives hetsgd only through stable public surfaces: the three
experiment drivers through ``hetsgd.cli.main`` (the path of the ``hetsgd``
console script) and planning through names exported from ``hetsgd``. Names
are looked up on the package at call time, so a traced run sees its wrappers.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hetsgd
import hetsgd.cli

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class DriverWorkload:
    """One experiment driver at its shipped config, with the trial count reduced."""

    name: str
    config: str          # shipped config, relative to the repository root
    trials: int          # trials per timed driver call

    def load_config(self, tiny: bool):
        """Parse the shipped config; tiny mode shrinks it for the smoke test."""
        config = hetsgd.ExperimentConfig.from_json(ROOT / self.config)
        if tiny:
            d = config.to_dict()
            d["data"]["n"] = 400
            for key in ("c_grid", "epsilon_noisy_sweep"):
                if d[key] is not None:
                    d[key] = list(d[key])[:2]
            d["c2_grid_points"] = 3
            config = hetsgd.ExperimentConfig.from_dict(d)
        return config

    def argv(self, config_path: Path, seed: int, out_dir: Path) -> list:
        return [self.name, "--config", str(config_path), "--seed", str(seed),
                "--trials", str(self.trials), "--out-dir", str(out_dir)]

    @staticmethod
    def call(argv: list) -> None:
        rc = hetsgd.cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"hetsgd {' '.join(argv)} returned {rc}")


# Planning settings of the rate-plan workload.
PLAN_DIMS = (10, 25, 54)
PLAN_BATCHES = (1, 50)
PLAN_EPSILON_CLEAN = 10.0
PLAN_N = 5000
PLAN_SETTINGS_PER_CALL = 16
PLAN_TINY_SETTINGS = 2
# compare_orders is asked at these multiples of 1/lam: below, at and above it.
PLAN_C_FACTORS = (0.5, 1.0, 2.0)


def plan_settings(seed: int, count: int) -> list:
    """Planning settings drawn from the workload seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7261]))
    settings = []
    for _ in range(count):
        d = int(rng.choice(PLAN_DIMS))
        b = int(rng.choice(PLAN_BATCHES))
        lam = float(10.0 ** rng.uniform(-4.0, -2.0))
        beta_c = float(rng.uniform(0.05, 0.5))
        eps_noisy = float(10.0 ** rng.uniform(math.log10(0.5), math.log10(5.0)))
        steps = PLAN_N // b
        t_clean = int(round(beta_c * steps))
        pattern = np.zeros(steps, dtype=bool)
        pattern[rng.choice(steps, size=steps - t_clean, replace=False)] = True
        settings.append({"d": d, "b": b, "lam": lam, "beta_c": beta_c,
                         "epsilon_clean": PLAN_EPSILON_CLEAN, "epsilon_noisy": eps_noisy,
                         "T_clean": t_clean, "T_noisy": steps - t_clean,
                         "pattern": pattern, "c_values": [f / lam for f in PLAN_C_FACTORS]})
    return settings


def plan_one(s: dict) -> dict:
    """Everything the planning layer says about one setting."""
    lam, beta_c = s["lam"], s["beta_c"]
    noise_c = hetsgd.dp_noise_level(s["epsilon_clean"], s["d"], s["b"])
    noise_n = hetsgd.dp_noise_level(s["epsilon_noisy"], s["d"], s["b"])
    gc, gn = noise_c.gamma_sq, noise_n.gamma_sq
    sel = hetsgd.select_rates(gc, gn, beta_c, lam)
    single_cf = hetsgd.minimize_single_rate(hetsgd.BoundInputs(gc, gn, beta_c, lam, T=1))
    single_nf = hetsgd.minimize_single_rate(hetsgd.BoundInputs(gn, gc, 1.0 - beta_c, lam, T=1))
    if sel.order == "noisy_first":
        interval = hetsgd.noisy_first_rate_interval(gc, gn, 1.0 - beta_c, lam)
    else:
        interval = hetsgd.clean_first_rate_interval(gc, gn, beta_c)
    verdicts = []
    for c in s["c_values"]:
        v = hetsgd.compare_orders(c, lam, s["T_clean"], s["T_noisy"],
                                  noise_c.gamma_sq_lower, noise_n.gamma_sq_lower,
                                  arbitrary_pattern=s["pattern"])
        verdicts.append({"best": v.best, "cf": v.deviation_clean_first,
                         "nf": v.deviation_noisy_first, "ao": v.deviation_arbitrary})
    return {"gamma_c_sq": gc, "gamma_n_sq": gn,
            "gamma_c_sq_lower": noise_c.gamma_sq_lower, "gamma_n_sq_lower": noise_n.gamma_sq_lower,
            "selection": sel.to_dict(),
            "single_clean_first": list(single_cf), "single_noisy_first": list(single_nf),
            "interval": [interval.lo, interval.hi, interval.regime],
            "compare": verdicts}


def canonical(outputs) -> bytes:
    """Byte form of planning outputs; floats by repr, so equal bytes mean equal values."""
    return json.dumps(outputs, sort_keys=True, default=repr).encode()


DRIVERS = {
    "order-exp": DriverWorkload("order-exp", "configs/order_exp.json", 1),
    "c2-sweep": DriverWorkload("c2-sweep", "configs/c2_sweep.json", 4),
    "strategy-cmp": DriverWorkload("strategy-cmp", "configs/strategy_cmp.json", 4),
}
