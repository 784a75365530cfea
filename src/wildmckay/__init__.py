"""wildmckay: exact p-adic measures, stringy point counts and mass formulas.

An exact-arithmetic toolkit around one circle of ideas: brute-force p-adic
measures over residue rings, stringy point counts of SNC log pairs, tame
local-field enumeration, and the Serre/Bhargava mass formulas tied together
by the wild McKay correspondence for symmetric groups.

Importing the package loads none of its modules: each public name is
imported from its module when it is first used (PEP 562), and a module that
calls another only from its functions binds it with _lazy_module, so a
command pays only for the modules it runs.
"""

import importlib.util
import sys
from importlib import import_module

__version__ = "0.1.0"

# The public names, by the module that defines them.
_EXPORTS = {
    "qexpr": ["INFINITE", "InfiniteType", "QExpr", "QFrac", "is_infinite"],
    "series": ["ConstantTermError", "TruncatedSeries"],
    "partitions": ["hilb_point_count", "partition_count", "partitions_into_parts"],
    "localfields": [
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
    ],
    "massformulas": ["bhargava_mass", "bhargava_series", "mass_series_via_exp", "recover_N_from_M", "serre_mass"],
    "mckay": ["verify_wild_mckay"],
    "numutil": ["BudgetExceededError", "HenselMismatchError", "PoleError", "SmoothnessError"],
    "padic": [
        "PolySystem",
        "ResidueCount",
        "count_points_mod",
        "monomial_integral",
        "null_set_fraction",
        "smooth_measure_check",
    ],
    "stringy": [
        "MalformedSubsetError",
        "SncLogPairData",
        "VerticalComponent",
        "stringy_count_snc",
        "stringy_point_contribution",
    ],
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    """The public name from its home module, read there on every access (nothing is cached
    here, so that a name rebound in its module is seen through the package too)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def _lazy_module(name: str):
    """The package's module `name`, in sys.modules and on the package like any imported module,
    whose code runs on its first attribute access (importlib.util.LazyLoader)."""
    full = f"{__name__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[full] = globals()[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[full])
    return sys.modules[full]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
