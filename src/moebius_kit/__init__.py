"""Moebius knot energies on closed curves and equilateral polygons.

Library layout: ``curves`` (smooth curve catalog and arc-length
reparametrization), ``polygon`` (closed polygons and curve distances),
``energies`` (discrete, minimum-distance, and smooth energies),
``inscription`` (inscribed and equilateral polygons), ``optimize``
(Sobolev-metric descent over the equilateral class), ``experiments``
(convergence, recovery, and minimality studies), ``cli`` (command line).
"""

from .curves import (
    ArcLengthCurve,
    ParametricCurve,
    arclength_reparametrize,
    bilipschitz_estimate,
    circle,
    ellipse,
    from_samples,
    intrinsic_distance,
    load_curve,
    parametric_from_descriptor,
    rounded_polygon,
    torus_knot,
    unit_circle,
)
from .energies import (
    EnergyReport,
    discrete_moebius_energy,
    minimum_distance_energy,
    moebius_inversion,
    regular_ngon_energy,
    segment_distance,
    smooth_moebius_energy,
)
from .errors import (
    ConvergenceError,
    DoublePointError,
    InputError,
    MoebiusKitError,
    NotEmbeddedError,
    SingularityError,
)
from .experiments import (
    StudyReport,
    convergence_study,
    gamma_recovery_study,
    liminf_spotcheck,
    minimizer_study,
    reference_energy,
)
from .inscription import (
    inscribe_equilateral,
    inscribe_uniform,
    recovery_sequence,
)
from .optimize import (
    DescentTrace,
    OptimizerConfig,
    align_rigid,
    energy_gradient,
    minimize_discrete_energy,
    project_equilateral_closed,
    sobolev_direction,
)
from .polygon import (
    ClosedPolygon,
    EquilateralityCertificate,
    chord_length_regular,
    curve_distance,
    random_equilateral_polygon,
    regular_ngon,
)

__version__ = "0.1.0"
