"""wildmckay: exact p-adic measures, stringy point counts and mass formulas.

An exact-arithmetic toolkit around one circle of ideas: brute-force p-adic
measures over residue rings, stringy point counts of SNC log pairs, tame
local-field enumeration, and the Serre/Bhargava mass formulas tied together
by the wild McKay correspondence for symmetric groups.
"""

from .qexpr import INFINITE, InfiniteType, PoleError, QExpr, QFrac, is_infinite, monomial
from .series import ConstantTermError, TruncatedSeries
from .partitions import hilb_point_count, partition_count, partitions_into_parts
from .localfields import (
    EtaleAlgebra,
    FieldFixture,
    PartialEnumerationError,
    TameFieldClass,
    algebra_mass_sum,
    crossvalidate_fixtures,
    enumerate_tame_etale_algebras,
    enumerate_tame_field_classes,
    load_fixtures,
    skipped_wild_strata,
    tame_enumeration_is_complete,
)
from .massformulas import bhargava_mass, mass_series_via_exp, recover_N_from_M, serre_mass
from .mckay import McKayWeights, verify_wild_mckay, weights_for_algebra
from .padic import (
    BudgetExceededError,
    HenselMismatchError,
    PolySystem,
    ResidueCount,
    SmoothnessError,
    count_points_mod,
    monomial_integral,
    null_set_fraction,
    smooth_measure_check,
)
from .stringy import (
    MalformedSubsetError,
    SncLogPairData,
    VerticalComponent,
    stringy_count_snc,
    stringy_point_contribution,
)

__version__ = "0.1.0"

__all__ = [
    "INFINITE",
    "InfiniteType",
    "PoleError",
    "QExpr",
    "QFrac",
    "is_infinite",
    "monomial",
    "ConstantTermError",
    "TruncatedSeries",
    "hilb_point_count",
    "partition_count",
    "partitions_into_parts",
    "EtaleAlgebra",
    "FieldFixture",
    "PartialEnumerationError",
    "TameFieldClass",
    "algebra_mass_sum",
    "crossvalidate_fixtures",
    "enumerate_tame_etale_algebras",
    "enumerate_tame_field_classes",
    "load_fixtures",
    "skipped_wild_strata",
    "tame_enumeration_is_complete",
    "bhargava_mass",
    "mass_series_via_exp",
    "recover_N_from_M",
    "serre_mass",
    "McKayWeights",
    "verify_wild_mckay",
    "weights_for_algebra",
    "BudgetExceededError",
    "HenselMismatchError",
    "PolySystem",
    "ResidueCount",
    "SmoothnessError",
    "count_points_mod",
    "monomial_integral",
    "null_set_fraction",
    "smooth_measure_check",
    "MalformedSubsetError",
    "SncLogPairData",
    "VerticalComponent",
    "stringy_count_snc",
    "stringy_point_contribution",
    "__version__",
]
