"""Gonosomal algebra dynamics: realization, iteration, fixed points, scenarios."""

from .algebra import (
    AlgebraSpec,
    BasisChange,
    Element,
    State,
    change_basis,
    multiply,
    omega,
    opposite,
    random_stochastic,
    swap_map,
    validate,
)
from .dynamics import (
    IterationOptions,
    Trajectory,
    apply_V,
    apply_W,
    iterate,
    support_orbit,
    verify_conjugacy,
    verify_coordinate_bounds,
    verify_omega_bounds,
)
from .fixed_points import (
    FamilyDescriptor,
    FixedPointRecord,
    TransferReport,
    classify_spectrum,
    closed_form_fixed_points_hemophilia,
    closed_form_fixed_points_type11,
    closed_form_fixed_points_type21,
    idempotent_correspondence,
    jacobian_V,
    jacobian_W,
    make_record,
    normalize_fixed_point,
    solve_fixed_points_numeric,
    stability_transfer_check,
)
from .identities import associator, check_identities, principal_power
from .scenarios import (
    EsetClassification,
    Scenario,
    build_algebra,
    classify_eset,
    closed_form_trajectory_type11,
    hemophilia_degenerate_limits,
    hemophilia_lyapunov,
    predict_limit_type21,
)

__version__ = "0.1.0"
