"""The public names of the gonosim package, pinned so that they change only on purpose."""

import types

import gonosim

PUBLIC_NAMES = {
    # algebra
    "AlgebraSpec",
    "BasisChange",
    "Element",
    "State",
    "change_basis",
    "multiply",
    "omega",
    "opposite",
    "random_stochastic",
    "swap_map",
    "validate",
    # dynamics
    "IterationOptions",
    "Trajectory",
    "apply_V",
    "apply_W",
    "iterate",
    "support_orbit",
    "verify_conjugacy",
    "verify_coordinate_bounds",
    "verify_omega_bounds",
    # fixed_points
    "FamilyDescriptor",
    "FixedPointRecord",
    "TransferReport",
    "classify_spectrum",
    "closed_form_fixed_points_hemophilia",
    "closed_form_fixed_points_type11",
    "closed_form_fixed_points_type21",
    "idempotent_correspondence",
    "jacobian_V",
    "jacobian_W",
    "make_record",
    "normalize_fixed_point",
    "solve_fixed_points_numeric",
    "stability_transfer_check",
    # identities
    "associator",
    "check_identities",
    "principal_power",
    # scenarios
    "EsetClassification",
    "Scenario",
    "build_algebra",
    "classify_eset",
    "closed_form_trajectory_type11",
    "hemophilia_degenerate_limits",
    "hemophilia_lyapunov",
    "predict_limit_type21",
}


def test_exported_names_are_pinned():
    # submodules become attributes of the package when imported, so they are not names it exports
    exported = {
        name
        for name, value in vars(gonosim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES

