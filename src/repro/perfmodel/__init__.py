"""Structure-aware SpMV performance simulator."""
from .instance import MatrixInstance
from .simulator import (
    BOTTLENECKS,
    BestFormatOutcome,
    FormatSkip,
    SpmvMeasurement,
    simulate_best,
    simulate_best_detailed,
    simulate_grid,
    simulate_spmv,
)
from .batch import GridResult, GridSkip
from .record import SpecRecord
from .noise import noise_factors, NOISE_SIGMA
