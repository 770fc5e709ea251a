"""Numerics for Cayley 4-planes in Hermitian R^8 and submanifold patches.

The package splits into a linear-algebra layer (multilinear, hermitian,
planes) working on single oriented 4-planes, an ambient layer (ambient)
providing Kaehler charts from potentials, and a finite-difference layer
(patches) verifying submanifold identities on parametrized patches.  The
cli module wraps everything behind JSON-reporting subcommands.
"""

from .multilinear import (
    Blade4,
    KForm,
    OrientedPlane4,
    blade_distance,
    evaluate,
    hodge_star_plane,
    interior_product,
    pfaffian4,
    wedge,
)
from .hermitian import (
    HermitianStructure,
    cayley_calibration,
    comass,
    comass_detail,
    complexify,
    haar_frames,
    realify,
    standard_structure,
)
from .planes import (
    AngleReport,
    NearComplexError,
    NotCayleyError,
    PartiallyComplexError,
    batch_kahler_cosines,
    b_operator,
    build_plane,
    canonical_form,
    cayley_basis,
    is_cayley,
    normalize_angle_pair,
    omega_xi,
    random_unitary_basis,
    unitary_from_cayley,
)
from .ambient import (
    ChartDomainError,
    EinsteinReport,
    KahlerChart,
    einstein_report,
    flat_chart,
    fubini_study_chart,
)
from .patches import (
    ConvergenceReport,
    Patch,
    PointReport,
    UnitaryFrameField,
    builtin_patch,
    coclosure_residual,
    gamma_form,
    l2_lambda_invariant,
    lambda_square_field,
    patch_from_spec,
    point_report,
    tangent_plane_at,
    verify_h_symmetry,
    verify_theorem_i,
    verify_theorem_ii,
    verify_theorem_iii,
)

__version__ = "0.1.0"
