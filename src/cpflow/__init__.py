"""Hyperbolic circle packings on weighted triangulated closed surfaces.

Curvature and discrete (p-th) Laplacians for circle packing metrics,
Calabi-type flow integration in u = ln tanh(r/2) coordinates, and
property-based certification sweeps for the explicit coefficient bounds.
"""

from .errors import (
    CpflowError,
    DegenerateFaceError,
    MeshFormatError,
    MeshValidationError,
    NumericalConsistencyError,
    RadiusOverflowError,
    StarConditionError,
    StepFailureError,
)
from .mesh import (
    WeightedTriangulation,
    builtin_mesh,
    check_star_condition,
    load_mesh,
    save_mesh,
    simplicial_from_faces,
)
from .hypgeom import (
    TriangleGeometry,
    TrianglePacking,
    angle_jacobian,
    glickenstein_residual,
    triangle_geometry,
)
from .laplacian import (
    LaplacianAssembly,
    apply_p_delta,
    assemble,
    calabi_energy,
    curvature,
    r_of_u,
    spd_check,
    u_of_r,
)
from .flow import (
    FlowConfig,
    FlowTrace,
    flow_rhs,
    r_lower_bound_curve,
    run_flow,
    step,
    velocity_bound,
)

__version__ = "0.1.0"
