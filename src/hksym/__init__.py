"""Exact-arithmetic engine for hyper-Kahler symmetric Lie algebras built from
quartic tensors on complex symplectic vector spaces."""

__version__ = "0.1.0"

from .exactnum import ContractError, GaussRat, Matrix, ScalarError, TheoremViolationError
from .symplectic import (
    QuaternionicStructure,
    Subspace,
    SymplecticSpace,
    extend_to_lagrangian,
    is_isotropic,
    omega_flat,
    omega_pair,
    span,
    standard_split_j,
)
from .symtensor import (
    SymTensor,
    contract,
    double_contraction_endo,
    double_contractions,
    endo_of_quadratic,
    sp_action,
    support,
    tau,
)
from .hkalgebra import (
    AnalysisReport,
    HolonomyData,
    InvariantQuartic,
    LieAlgebraModel,
    NotHyperKahlerError,
    analyze_quartic,
    build_complex_algebra,
    certify_invariance,
    check_invariance,
    compute_aut,
    curvature_ricci,
    find_lagrangian,
    flat_decomposition,
    holonomy,
    verify_jacobi,
)
from .realform import (
    RealityError,
    RealityReport,
    build_real_algebra,
    check_reality,
    real_holonomy,
    symmetrize_real,
)
from .dim8 import (
    BinaryQuartic,
    PetrovClass,
    RealOrbitClass,
    TracelessSym3,
    classify_complex8,
    classify_real8,
    isomorphic8,
    quartic_to_matrix,
)
