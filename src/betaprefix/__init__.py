"""Enumeration, generation and growth bounds for binary expansions in
non-integer bases beta in (1,2)."""

from .bernoulli import (LocalDimEstimate, MeasureEstimate, local_dimension,
                        measure_interval, measure_monte_carlo)
from .bounds import (BoundReport, LocalDimBound, bound_report, delta_search,
                     kappa_lower_bound, local_dim_upper, separation_holds,
                     upper_rate_bound, upper_rate_bounds)
from .errors import (BetaPrefixError, CapExceeded, ContainmentViolation,
                     DepthExceeded, InputError, InvalidPoint, InvariantError,
                     MemoryGuard, NoRootFound, NoSteeringWord, OracleMismatch,
                     OutOfDomain, Unreachable)
from .generators import (BlockSteeringInterval, GeneratorRun,
                         PairSteeringInterval, block_steering_interval,
                         entry_word_m, entry_word_s3, pair_steering_interval,
                         run_generator_m, run_generator_s3)
from .numeric import (BetaContext, PolynomialFamily, PolynomialSpec,
                      apply_word, evaluate_polynomial, golden_ratio,
                      lambda_threshold, omega_threshold, polynomial_spec,
                      polynomial_string, smallest_root_above_one)
from .prefixes import (GrowthEstimate, PrefixSet, count_prefixes_window,
                       enumerate_prefixes_branching, enumerate_prefixes_direct,
                       growth_estimate)

__version__ = "0.1.0"
