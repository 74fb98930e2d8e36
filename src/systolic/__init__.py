"""Exact-arithmetic lattice geometry with systolic and topological reporting.

Four capability areas, one per submodule:

- :mod:`systolic.lattice` / :mod:`systolic.minima` — exact lattices, Gram
  matrices, duals, reduction, successive minima with witnesses, Hermite-type
  invariants, and the rank <= 4 sharp-constant catalog;
- :mod:`systolic.torus` — flat-torus systoles and exact verdicts for the
  sharp inequalities they satisfy;
- :mod:`systolic.filling` — closed-form filling radii, circle diameter
  extrema, and certified subset upper bounds for finite metric spaces;
- :mod:`systolic.bundles` — Smith normal form, circle bundles over the
  two-torus, free-abelian-cover homology, fiber linking, and the
  Casson-type applicability predicate.

All comparisons that can be exact are exact (`fractions.Fraction`, or scaled
integers in LLL and enumeration); binary64 appears only in reporting fields.
"""

from .bundles import (
    AbelianGroupDecomposition,
    BundleInvariants,
    CircleBundle,
    CoverHomology,
    FiberLinking,
    LaurentModulePresentation,
    LaurentPoly,
    SmithNormalForm,
    abelian_quotient,
    augmentation_quotient,
    bundle_h1,
    bundle_invariants,
    casson_lambda,
    corollary93_applicability,
    cover_h1,
    cover_presentation,
    eliminate_unit_generators,
    fiber_linking,
    smith_normal_form,
)
from .errors import (
    DimensionTooSmall,
    InvalidParameters,
    InvalidSubsetSize,
    NoUnitPivot,
    NonPositiveCurvature,
    NonPositiveImaginaryPart,
    NotEssential,
    NotPositiveDefinite,
    SchemaError,
    SingularBasis,
    SubsetBudgetExceeded,
    SystolicError,
    TrivialBundle,
    UnknownConstant,
    UnsupportedDimension,
    WrongDimension,
)
from .filling import (
    CatalogSpace,
    FillRadius,
    FillingBound,
    FiniteMetricSpace,
    HomotopyWindow,
    check_91b,
    circle,
    circle_neighborhood_windows,
    circle_points,
    complex_projective2,
    complex_projective3,
    diameter_extrema_circle,
    fillrad_catalog,
    fillrad_upper_bound,
    real_projective,
    sphere,
)
from .lattice import (
    MAX_DIM,
    GramMatrix,
    LatticeBasis,
    Tau,
    apply_mobius,
    covolume_squared,
    dual_basis,
    dual_gram,
    gram,
    lll_reduce,
    lll_reduce_gram,
    reduce_rank2,
)
from .minima import (
    CONSTANTS,
    FCC_GRAM,
    HEXAGONAL_GRAM,
    ConstantCatalogEntry,
    Criticality,
    HermiteInvariant,
    MinimaReport,
    berge_martinet_invariant_sq,
    gamma_power,
    gamma_prime_sq,
    hermite_invariant_sq,
    is_critical,
    shortest_vector_sq,
    successive_minima,
)
from .torus import (
    ConformalSystole,
    FlatTorus,
    InequalityReport,
    conformal_systole,
    pu_round_check,
    torus_codim1_systole_sq,
    torus_systole_sq,
    verify_conformal_52,
    verify_gromov_torus,
    verify_loewner,
)

__version__ = "0.1.0"
