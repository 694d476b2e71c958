"""High-precision 1-Laplacian solvers for well-shaped tetrahedral complexes.

The package couples a structured mesh generator, region-based partitions
("hollowings") of a complex, incomplete nested dissection with rank-aware
sparse Cholesky factors, and preconditioned conjugate gradients into a
solver for systems in the 1-Laplacian, plus a dense oracle that makes every
component verifiable at desk scale.
"""

from .complexes import (
    Complex3,
    aspect_ratio,
    boundary_operator,
    build_complex,
    down_laplacian,
    load_complex,
    one_laplacian,
    save_complex,
    up_laplacian,
    validate,
)
from .dissection import (
    BlockFactor,
    CholeskyFactor,
    nd_cholesky,
    nd_ordering,
    solve_with_factor,
)
from .downlap import (
    down_lap_solve,
    down_projection,
)
from .errors import NumericalError, TetlapError, UnsupportedGeometryError
from .hollowing import (
    Hollowing,
    HollowingConfig,
    find_hollowing,
    load_hollowing,
    save_hollowing,
    sphere_hollowing,
    surface_hollowing,
    validate_hollowing,
)
from .meshgen import GridSpec, HoleSpec, gen_grid, mesh_stats
from .onelap import (
    UnionComplex,
    betti_numbers,
    build_one_lap_solver,
    build_union_solver,
    glue,
    hodge_decompose,
    one_lap_solve,
    union_one_lap_solve,
)
from .pcg import LinearOperator, estimate_rel_condition, pcg
from .reports import SolveReport
from .uplap import (
    build_sphere_fast_solver,
    build_up_solver,
    schur_apply,
    schur_solve,
    up_lap_solve,
    up_lap_solve_fast,
)
from .upproj import build_up_projection, up_project

__all__ = [name for name in dir() if not name.startswith("_")]
