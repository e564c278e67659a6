"""Motion detection in fixed-camera video via randomized low-rank spectral decomposition.

The pieces compose left to right: a randomized SVD sketches the snapshot
matrix, the reduced one-step operator's eigendecomposition separates slowly
evolving background modes from everything else, and thresholding the residual
against the reconstructed background yields per-frame foreground masks.
"""

from .background import (
    ForegroundMaskSequence,
    ResidualSequence,
    filter_masks,
    fourier_modes,
    partition_modes,
)
from .dmd import (
    FIRST_FRAME,
    MEDIAN_FRAME,
    DmdDecomposition,
    SnapshotMatrix,
    rdmd,
)
from .errors import DegenerateDataError
from .evaluation import (
    ConfusionCounts,
    RocCurve,
    confusion,
    rates,
    sweep_counts,
)
from .linalg import (
    SketchConfig,
    SvdFactors,
    rsvd,
)
from .pipeline import RunConfig, RunReport, run_bgsub
from .synthetic import (
    MovingRect,
    SyntheticSpec,
    decaying_spectrum_matrix,
    generate_synthetic,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateDataError",
    "SvdFactors",
    "SketchConfig",
    "rsvd",
    "SnapshotMatrix",
    "DmdDecomposition",
    "FIRST_FRAME",
    "MEDIAN_FRAME",
    "rdmd",
    "ResidualSequence",
    "ForegroundMaskSequence",
    "fourier_modes",
    "partition_modes",
    "filter_masks",
    "ConfusionCounts",
    "RocCurve",
    "confusion",
    "rates",
    "sweep_counts",
    "MovingRect",
    "SyntheticSpec",
    "generate_synthetic",
    "decaying_spectrum_matrix",
    "RunConfig",
    "RunReport",
    "run_bgsub",
    "__version__",
]
