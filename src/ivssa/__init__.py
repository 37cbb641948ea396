"""Singular spectrum analysis for interval-valued time series.

Decomposes interval series into trend, cycle and noise parts through a
symbolic covariance of the endpoint pair channels, picks the number of
components with a residual-whiteness test, and forecasts by a linear
recurrence on the selected eigenspace.  Several series can be analysed
jointly by stacking their trajectory matrices.
"""

from .core import (
    CsvError,
    DegenerateSpectrumError,
    IntervalSeries,
    InvalidValueError,
    IvssaError,
    OutputError,
    PairMatrix,
    ParameterError,
    ShapeError,
    VerticalityError,
    phi_arrays,
)
from .decomposition import (
    DEFAULT_RANK_EPS,
    Decomposition,
    EigenPairs,
    decompose,
    decompose_stacked,
    eigen_sym,
    pair_cross_covariance,
    stacked_covariance,
    symbolic_covariance,
)
from .embedding import StackingMode, default_window, stack, trajectory
from .forecasting import (
    ForecastResult,
    OosResult,
    RecurrenceCoefficients,
    default_l_grid,
    forecast_recurrent,
    recurrence_coefficients,
    select_params_oos,
)
from .io import json_dumps, read_csv, write_json, write_series_csv, write_table_csv
from .reconstruction import ErcSet, Grouping, reconstruct_ercs, trendline
from .simulation import (
    METHODS,
    McReport,
    McRow,
    McSelectionRow,
    ScenarioConfig,
    ScenarioData,
    hausdorff_residual_mean,
    run_monte_carlo,
    simulate_scenario,
)
from .spectral import (
    PeriodogramResult,
    SelectionResult,
    ks_critical_value,
    periodogram,
    select_from_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    "CsvError",
    "DEFAULT_RANK_EPS",
    "Decomposition",
    "DegenerateSpectrumError",
    "EigenPairs",
    "ErcSet",
    "ForecastResult",
    "Grouping",
    "IntervalSeries",
    "InvalidValueError",
    "IvssaError",
    "METHODS",
    "McReport",
    "McRow",
    "McSelectionRow",
    "OosResult",
    "OutputError",
    "PairMatrix",
    "ParameterError",
    "PeriodogramResult",
    "RecurrenceCoefficients",
    "ScenarioConfig",
    "ScenarioData",
    "SelectionResult",
    "ShapeError",
    "StackingMode",
    "VerticalityError",
    "decompose",
    "decompose_stacked",
    "default_l_grid",
    "default_window",
    "eigen_sym",
    "forecast_recurrent",
    "hausdorff_residual_mean",
    "json_dumps",
    "ks_critical_value",
    "pair_cross_covariance",
    "periodogram",
    "phi_arrays",
    "read_csv",
    "reconstruct_ercs",
    "recurrence_coefficients",
    "run_monte_carlo",
    "select_from_decomposition",
    "select_params_oos",
    "simulate_scenario",
    "stack",
    "stacked_covariance",
    "symbolic_covariance",
    "trajectory",
    "trendline",
    "write_json",
    "write_series_csv",
    "write_table_csv",
]
