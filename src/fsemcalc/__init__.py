"""fsemcalc: seminorm-structured spaces with a derivative verification engine.

Three concrete spaces (a Gaussian-polynomial model of rapidly decreasing
functions, the rho-power sequence space for 0 < rho < 1, and the space of
all real sequences) carry explicit F-seminorm families.  An operator
catalogue supplies closed-form Gateaux/Frechet derivatives, and the
verification engine checks on N samples epsilon-delta continuity and the
(DZ)/(DR) differentiability conditions at desk scale, including the
constructive delta recipes and ordered-extremum analysis.
"""

from .gausspoly import GaussPolyFn, SparsePoly, leibniz_expand
from .multiindex import join as mi_join, leq as mi_leq, meet as mi_meet
from .operators import (
    Diagonal,
    IdentityScaled,
    LinearMap,
    MultiplyBy,
    Operator,
    analytic_frechet,
    analytic_gateaux,
    bound_monomial,
    bound_power,
    bound_product,
    linear_bound_check,
)
from .differentiation import (
    ContinuityWitness,
    FrechetWitness,
    GateauxWitness,
    continuity_verify,
    delta_constructor,
    dr_ratio,
    fnorm_translate_backward,
    fnorm_translate_forward,
    gateaux_residual,
    uniqueness_probe,
    verify_frechet,
    verify_gateaux,
)
from .ordering import (
    Cone,
    OrderRelation,
    check_absolute_extremum,
    check_directional_extremum,
    check_order_increasing,
    credit_necessity_suite,
    is_credit_point,
    nonneg_cone,
)
from .seminorms import (
    CheckReport,
    FSeminorm,
    IndexSet,
    Neighborhood,
    axiom_report,
    f_norm,
    family_max,
    index_set,
    nbhd_algebra_check,
    separating_check,
)
from .spaces import (
    SchwartzSpace,
    SeqElement,
    SigmaRhoSpace,
    SSpace,
    scaling_property_check,
    sigma_inclusion_check,
    space_from_json,
)

__version__ = "0.1.0"
