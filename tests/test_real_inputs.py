"""Every entry point that takes a scalar real number rejects what is not one, naming it.

A bool, a numeric string, None and NaN each once ran as a plausible number at some of
these sites (True as 1.0, a string through float()), or failed with a TypeError that
named no argument.
"""
import math
import re

import numpy as np
import pytest

from hetsgd import (BoundInputs, DomainError, ExperimentConfig, NoiseLevel, NonpositiveRate,
                    ObjectiveSpec, OracleSpec, Schedule, SyntheticSpec, clean_first_rate_interval,
                    compare_orders, dp_noise_level, noise_weights, noisy_first_rate_interval,
                    project, rcn_noise_level, rcn_surrogate_gradient, sample_privacy_noise,
                    select_rates)

BAD = [True, np.True_, "0.25", None, math.nan]
BAD_IDS = ["True", "np.True_", "string", "None", "nan"]

PATTERN = np.array([True, False, True, False])

# (site, the argument it names, the error it raises, a call taking the bad value, and
# whether None is that argument's default).
SITES = [
    ("ObjectiveSpec", "lam", ValueError, lambda v: ObjectiveSpec(v), False),
    ("ObjectiveSpec", "radius", ValueError, lambda v: ObjectiveSpec(0.1, radius=v), True),
    ("project", "radius", ValueError, lambda v: project(np.array([3.0, 4.0]), v), False),
    ("NoiseLevel", "gamma_sq", ValueError, lambda v: NoiseLevel(v, 0.0), False),
    ("NoiseLevel", "gamma_sq_lower", ValueError, lambda v: NoiseLevel(5.0, v), False),
    ("dp_noise_level", "epsilon", ValueError, lambda v: dp_noise_level(v, 10), False),
    ("rcn_noise_level", "sigma", ValueError, lambda v: rcn_noise_level(v), False),
    ("sample_privacy_noise", "epsilon", ValueError,
     lambda v: sample_privacy_noise(v, 3, np.random.default_rng(0), 4), False),
    ("rcn_surrogate_gradient", "sigma", ValueError,
     lambda v: rcn_surrogate_gradient(ObjectiveSpec(1.0), np.zeros(2), np.ones(2), 1.0, v), False),
    ("OracleSpec", "epsilon", ValueError,
     lambda v: OracleSpec("local_dp", budget=10, epsilon=v), False),
    ("OracleSpec", "sigma", ValueError, lambda v: OracleSpec("rcn", budget=10, sigma=v), False),
    ("OracleSpec", "noise_sq", ValueError,
     lambda v: OracleSpec("gaussian", budget=10, noise_sq=v), False),
    ("SyntheticSpec", "flip_rate", ValueError, lambda v: SyntheticSpec(3, 10, v), False),
    ("noise_weights", "c", ValueError, lambda v: noise_weights(v, 1.0, 5), False),
    ("noise_weights", "lam", ValueError, lambda v: noise_weights(1.0, v, 5), False),
    ("compare_orders", "v_clean_sq", ValueError,
     lambda v: compare_orders(0.5, 1.0, 2, 2, v, 4.0, PATTERN), False),
    ("compare_orders", "v_noisy_sq", ValueError,
     lambda v: compare_orders(0.5, 1.0, 2, 2, 1.0, v, PATTERN), False),
    ("Schedule", "the rate of oracle 'a'", NonpositiveRate,
     lambda v: Schedule(("a",), (v,), np.zeros(3, dtype=int)), False),
    ("BoundInputs", "gamma1_sq", ValueError, lambda v: BoundInputs(v, 50.0, 0.1, 1e-3, 1), False),
    ("BoundInputs", "beta1", ValueError, lambda v: BoundInputs(5.0, 50.0, v, 1e-3, 1), False),
    ("BoundInputs", "lam", ValueError, lambda v: BoundInputs(5.0, 50.0, 0.1, v, 1), False),
    ("noisy_first_rate_interval", "lam", ValueError,
     lambda v: noisy_first_rate_interval(1.0, 4.0, 0.3, v), False),
    ("noisy_first_rate_interval", "gamma_n_sq", ValueError,
     lambda v: noisy_first_rate_interval(1.0, v, 0.3, 1.0), False),
    ("noisy_first_rate_interval", "beta_n", DomainError,
     lambda v: noisy_first_rate_interval(1.0, 4.0, v, 1.0), False),
    ("clean_first_rate_interval", "gamma_c_sq", ValueError,
     lambda v: clean_first_rate_interval(v, 4.0, 0.3), False),
    ("clean_first_rate_interval", "beta_c", DomainError,
     lambda v: clean_first_rate_interval(1.0, 4.0, v), False),
    ("select_rates", "gamma_c_sq", ValueError, lambda v: select_rates(v, 50.0, 0.1, 1e-3), False),
    ("select_rates", "gamma_n_sq", ValueError, lambda v: select_rates(5.0, v, 0.1, 1e-3), False),
    ("select_rates", "beta_c", ValueError, lambda v: select_rates(5.0, 50.0, v, 1e-3), False),
    ("select_rates", "lam", ValueError, lambda v: select_rates(5.0, 50.0, 0.1, v), False),
    ("ExperimentConfig", "beta_c", ValueError,
     lambda v: ExperimentConfig.from_dict({"beta_c": v}), False),
    ("ExperimentConfig", "problem.lam", ValueError,
     lambda v: ExperimentConfig.from_dict({"problem": {"lam": v}}), False),
    ("ExperimentConfig", "problem.radius", ValueError,
     lambda v: ExperimentConfig.from_dict({"problem": {"radius": v}}), True),
    ("ExperimentConfig", "c_grid[1]", ValueError,
     lambda v: ExperimentConfig.from_dict({"c_grid": [100.0, v]}), False),
]


# None means "the default" for these two; every other bad value applies to every site.
CASES = [pytest.param(name, error, call, value, id=f"{site}-{name}-{value_id}")
         for site, name, error, call, none_is_default in SITES
         for value, value_id in zip(BAD, BAD_IDS) if not (value is None and none_is_default)]


@pytest.mark.parametrize("name, error, call, value", CASES)
def test_a_value_that_is_not_a_real_number_in_range_is_rejected_by_name(name, error, call, value):
    with pytest.raises(error, match="^" + re.escape(f"{name} must be a number")) as raised:
        call(value)
    assert type(raised.value) is error
