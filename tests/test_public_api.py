"""The public names of the gonosim package, pinned so that they change only on purpose."""

import ast
import inspect
import types

import gonosim
from gonosim import fixed_points, scenarios

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


def _imports(module) -> list[tuple[str, list[str]]]:
    """(module, names) of every import statement in the source of module."""
    found = []
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom):
            found.append((node.module or "", [a.name for a in node.names]))
        elif isinstance(node, ast.Import):
            found += [(a.name, []) for a in node.names]
    return found


def test_scenarios_does_not_import_fixed_points():
    # fixed_points imports scenarios, so the reverse import would be a cycle
    for module, names in _imports(scenarios):
        assert "fixed_points" not in module.split(".") and "fixed_points" not in names, (module, names)


def test_fixed_points_takes_only_builders_and_point_formulas_from_scenarios():
    # and PARAM_TOL, so the eigen search of a one-sex algebra drops the
    # degenerate eigenpairs the point formulas drop
    taken = {name for module, names in _imports(fixed_points) if module == "scenarios" for name in names}
    assert taken == {
        "PARAM_TOL",
        "hemophilia_fixed_points",
        "hemophilia_spec",
        "type11_fixed_points",
        "type11_spec",
        "type21_fixed_points",
        "type21_spec",
    }
