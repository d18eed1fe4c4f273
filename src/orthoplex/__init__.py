"""orthoplex: construction, analysis and classification of orthocentric
simplices in any dimension d >= 2.

The package parametrizes non-rectangular orthocentric simplices by the
barycentric coordinates of the orthocenter together with the obtuseness
(the constant pairwise inner product about the orthocenter), builds them
from Gram matrices, provides the special families (regular, kite,
rectangular, generalized-kite equiradial), and ships numerical
verification suites for the center-coincidence theorems.
"""

from .errors import (
    AdmissibilityError,
    DegenerateKiteError,
    DegenerateSimplexError,
    InputError,
    NotLiftableError,
    NotOrthocentricError,
    NotPSDError,
    NumericError,
    OrthoplexError,
    ParametrizationError,
    RectangularParamsError,
)
from .numerics import DEFAULT_POLICY, SymMatrix, TolerancePolicy, gram_embed, sym_eigen
from .simplex import (
    ShapeFlags,
    Simplex,
    face,
    from_vertices,
    shape_predicates,
    volume,
)
from .centers import (
    CenterReport,
    EulerLineData,
    FeuerbachSphere,
    center_report,
    centroid,
    circumcenter,
    euler_line,
    feuerbach_sphere,
    feuerbach_spheres,
    incenter,
    monge_point,
    orthocenter,
)
from .orthocentric import (
    ACUTE,
    OBTUSE,
    RECTANGULAR,
    LambdaParams,
    OrthoParams,
    circum_data,
    construct,
    edge_and_altitude_data,
    is_orthocentric,
    lambda_params,
    orthocentric_system_check,
    params_of,
    restrict_to_face,
    sample_params,
)

# families and verify load on first use (PEP 562): `import orthoplex` and
# `orthoplex analyze` need neither.  A lookup stores nothing here, so a
# rebinding of a module's name shows through the package.
_LAZY = {**dict.fromkeys([
    "families", "EquiradialSolution", "EquiradialSpec", "KiteMetrics", "KiteSpec",
    "RectMetrics", "RectSpec", "RegularMetrics", "equiradial_admissible",
    "equiradial_general", "equiradial_kite", "kite", "kite_metrics",
    "lift_to_rectangular", "rect_metrics", "rectangular", "regular", "regular_metrics",
], "families"), **dict.fromkeys(
    ["verify", "SuiteConfig", "SuiteResult", "VerificationReport", "run_all"], "verify")}
__all__ = [name for name in globals() if not name.startswith("_")] + list(_LAZY)


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f"{__name__}.{_LAZY[name]}")
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
