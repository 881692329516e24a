"""SGD for learning from data observed through heterogeneous gradient noise."""

from .core import (Dataset, ObjectiveSpec, full_objective, loss_gradient, mean_loss_gradient,
                   project)
from .oracles import (BudgetExhausted, GradientOracle, NoiseLevel, OracleSpec,
                      dp_noise_level, rcn_noise_level,
                      rcn_surrogate_gradient, sample_privacy_noise)
from .ordering import (NoiseWeights, OrderingVerdict, compare_orders, expected_deviation,
                       noise_weights, two_level_schedule)
from .rates import (BoundInputs, C2Bracket, DomainError, PreconditionViolated, RateInterval,
                    RateSelection, c2_bracket, clean_first_constant, clean_first_rate_interval,
                    minimize_phase2_rate, minimize_single_rate, noisy_first_constant,
                    noisy_first_rate_interval, select_rates, two_phase_bound)
from .sgd import InfeasibleIterate, NonpositiveRate, Row, Schedule, Trajectory, run_batch
from .datasets import (EmptyFileError, InconsistentDimensionError, ParseError,
                       SyntheticSpec, generate_synthetic, ingest_csv, ingest_libsvm,
                       random_projection, sign_projection_matrix)
from .experiments import (ExperimentConfig, ResultRow, emit_csv, emit_plotdata,
                          read_csv_rows, run_c2_sweep, run_order_experiment,
                          run_strategy_comparison)

__version__ = "0.1.0"
