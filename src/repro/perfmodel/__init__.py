"""Structure-aware SpMV performance simulator."""
from .instance import MatrixInstance
from .simulator import (
    BOTTLENECKS,
    BestFormatOutcome,
    FormatSkip,
    SpmvMeasurement,
    simulate_best,
    simulate_best_detailed,
    simulate_spmv,
)
from .batch import GridResult, GridSkip, simulate_grid
from .record import RecordSource, SpecRecord
from .noise import measurement_noise, noise_factors, NOISE_SIGMA
