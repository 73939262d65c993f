"""Exact formal-series toolkit for singular second-order linear ODEs with
real structure, their Segre families, nonminimal real hypersurfaces, and the
divergent formal equivalences and automorphisms between them.

All identities are verified order-by-order in truncated formal power series
over the Gaussian rationals; floating point only enters the monodromy
integration and the growth diagnostics.
"""

from .coefficients import QI, coeff_str, parse_coeff
from .series import (
    PoleOverflow,
    SeriesError,
    TruncationStarvation,
    TruncSeries1,
    TruncSeries2,
    compose,
    divide,
)
from .ode import (
    AdmissibleOde,
    GaugeMap,
    RealData,
    RealStructure,
    beta_family,
    check_real_structure,
    conjugate_ode,
    ode_from_real_data,
    pullback_under_gauge,
)
from .segre import (
    Hypersurface,
    NormalForm,
    RealityError,
    RealityTest,
    SegreFamily,
    build_rho,
    conjugated_family,
    dual_family,
    extract_pq,
    real_normal_form,
    real_structure_test,
    realty_identity_check,
    solve_psi,
)
from .equiv import (
    FormalSolutionPair,
    ProbeReport,
    build_chi_tau,
    coupled_map_g,
    coupled_pairing_residual,
    formal_f,
    formal_solutions,
    self_map_probe,
    verify_map_on_hypersurface,
)
from .monodromy import (
    MonodromyReport,
    NumericMonodromy,
    numeric_monodromy,
    residue_analysis,
)
from .autovec import (
    StraighteningCheck,
    VectorFieldRep,
    build_vector_field,
    explicit_model,
    model_rho,
    straightening_check,
    tangency_check,
)
from .growth import (
    GrowthReport,
    TerminationReport,
    diagnose,
    expected_termination,
    gevrey_estimate,
    termination_detect,
    termination_order,
)

__version__ = "0.1.0"
