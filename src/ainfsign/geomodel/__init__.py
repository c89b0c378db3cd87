"""Exact de Rham model on interval-circle products: forms with rational
polynomial coefficients, integration along fibers of coordinate
projections, smooth-map pullback, correspondences (spans with one output
projection and k input legs) and their slot-j gluing, plus randomized exact
verifiers and mock moduli spans."""

from .core import (
    CIRCLE,
    INTERVAL,
    CorrespondenceModel,
    CubeTorusSpace,
    Form,
    Poly,
    ProjectionMap,
    SmoothMapModel,
    apply_correspondence,
    boundary_pushforward,
    bundle_orientation_sign,
    compose_projection,
    compose_smooth,
    exterior_derivative,
    fiber_product,
    integrate,
    projection,
    pullback,
    pullback_bundle,
    pushforward,
    smooth_map,
    space,
    wedge,
    wedge_all,
)
from .checks import (
    ALL_CHECKS,
    CheckResult,
    PushPullReport,
    check_pushpull_identities,
    derived_node_parity,
    mock_operation,
    random_form,
    random_mock_instance,
    run_all_checks,
    verify_base_change,
    verify_composition,
    verify_corr_stokes,
    verify_defining_property,
    verify_functoriality,
    verify_projection_formula,
    verify_pushpull,
    verify_stokes,
)
