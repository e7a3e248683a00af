"""hypervol: volumes and volume-growth bounds of regular hyperbolic simplices.

The simplex family tau[n, t] (dimension n >= 2, parameter t in
[0, pi/2], circumradius atanh(sin t)) is measured three independent
ways -- projective-model quadrature, orthoscheme dissection, and the
half-space vertical integral -- and the measured facet-volume growth
ratio is compared against closed-form lower/upper bounds.
"""

from .errors import (
    ConvergenceError,
    DegenerateGeometryError,
    DomainError,
    HypervolError,
)
from .geometry import (
    HalfspaceEmbedding,
    OrthoschemeLadder,
    SimplexParams,
    halfspace_embedding,
    ladder,
    unit_simplex_vertices,
)
from .quadrature import (
    QuadratureConfig,
    VolumeEstimate,
    integrate_nested,
    integrate_simplex_radialpow,
)
from .volume_forms import (
    QuasiRegularParams,
    cosh_power_antiderivative,
    facet_volume_projective,
    richardson_limit,
    volume_halfspace,
    volume_halfspace_general,
    volume_orthoscheme,
    volume_projective,
    zn_bounds,
)
from .bounds import (
    GrowthBounds,
    LimitAudit,
    euclidean_limit_ratio,
    growth_bounds,
    growth_ratio,
    hm_bounds,
    limit_audit,
    lower_bound,
    upper_bound,
)

__version__ = "0.1.0"

__all__ = [
    "SimplexParams", "OrthoschemeLadder", "HalfspaceEmbedding",
    "unit_simplex_vertices",
    "ladder", "halfspace_embedding",
    "QuadratureConfig", "VolumeEstimate",
    "integrate_nested", "integrate_simplex_radialpow",
    "QuasiRegularParams", "cosh_power_antiderivative",
    "volume_orthoscheme", "volume_projective",
    "facet_volume_projective", "zn_bounds", "volume_halfspace",
    "volume_halfspace_general", "richardson_limit",
    "GrowthBounds", "LimitAudit", "lower_bound", "upper_bound", "hm_bounds",
    "growth_bounds", "growth_ratio", "euclidean_limit_ratio", "limit_audit",
    "HypervolError", "DomainError", "DegenerateGeometryError",
    "ConvergenceError",
    "__version__",
]
