"""Exact diameters of Berger metrics on SU(2), with numeric cross-checks.

The closed-form layer (`diameter_closed_form`, `tau3`, `t_cut`) computes
the diameter and cut-time profile from root solves of two transcendental
equations.  The numeric layer (`exp_map`, `conjugate_time_numeric`,
`shorter_path_search`, `diameter_numeric`) re-derives the same
quantities from the geodesic flow and profile maximization, so the two
can be played against each other; `verify.run_checks` does exactly that.
"""

from .cutprofile import (
    CutProfile,
    ProfileRow,
    sample_profile,
    t_cut,
    t_cut_derivative,
    tau_cut,
)
from .diameter import (
    DiameterReport,
    diameter_closed_form,
    diameter_numeric,
    diameter_report,
)
from .errors import (
    DomainError,
    NoConjugatePoint,
    NormalizationError,
)
from .geodesic import (
    GeodesicState,
    ShorterPath,
    UnitQuaternion,
    conjugate_time_numeric,
    endpoint_state,
    exp_map,
    initial_momentum,
    shorter_path_search,
)
from .model import (
    BergerMetric,
    Momentum,
    Regime,
    classify_regime,
    momentum_norm,
)
from .roots import tau3, tau3_derivative, tau_conj
from .verify import CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "BergerMetric",
    "CheckResult",
    "CutProfile",
    "DiameterReport",
    "DomainError",
    "GeodesicState",
    "Momentum",
    "NoConjugatePoint",
    "NormalizationError",
    "ProfileRow",
    "Regime",
    "ShorterPath",
    "UnitQuaternion",
    "classify_regime",
    "conjugate_time_numeric",
    "diameter_closed_form",
    "diameter_numeric",
    "diameter_report",
    "endpoint_state",
    "exp_map",
    "initial_momentum",
    "momentum_norm",
    "run_checks",
    "sample_profile",
    "shorter_path_search",
    "t_cut",
    "t_cut_derivative",
    "tau3",
    "tau3_derivative",
    "tau_conj",
    "tau_cut",
    "__version__",
]
