"""Difference-in-differences for outcomes in geodesic metric spaces.

Three backends are provided: univariate distributions under the Wasserstein
metric, compositional data on the positive orthant of the unit sphere, and
graph Laplacians / covariance matrices under the Frobenius metric.
"""

from .did import GattEstimate, estimate_gatt, placebo_pretrend
from .geometry import (
    FrechetResult,
    Geodesic,
    concatenate,
    distance,
    frechet_mean,
    geodesic_difference,
    quotient_distance,
    reverse,
    transport,
)
from .panel import NEVER_TREATED, PanelDataset
from .spaces.matrix import SymmetricMatrixPoint, laplacian_from_adjacency
from .spaces.sphere import UnitCompositionPoint, embed_composition, unembed
from .spaces.wasserstein import QuantileCurve, quantile_from_samples
from .staggered import (
    GroupTimeCell,
    GroupTimeGatt,
    enumerate_cells,
    estimate_all_cells,
    estimate_group_time_gatt,
)

__version__ = "0.1.0"

__all__ = [
    "GattEstimate",
    "Geodesic",
    "GroupTimeCell",
    "GroupTimeGatt",
    "FrechetResult",
    "NEVER_TREATED",
    "PanelDataset",
    "QuantileCurve",
    "SymmetricMatrixPoint",
    "UnitCompositionPoint",
    "concatenate",
    "distance",
    "embed_composition",
    "enumerate_cells",
    "estimate_all_cells",
    "estimate_gatt",
    "estimate_group_time_gatt",
    "frechet_mean",
    "geodesic_difference",
    "laplacian_from_adjacency",
    "placebo_pretrend",
    "quantile_from_samples",
    "quotient_distance",
    "reverse",
    "transport",
    "unembed",
]
