"""Exact-arithmetic dynamics of PL interval homeomorphisms and arc continua.

Public surface: the PL map algebra (``plmap``), the alternating ternary
construction with its chain property, conjugacies and explosions
(``cantor``), pseudo-orbit shadowing and quasi-attractor certificates
(``shadowing``), the truncated plane arc model (``continuum``), SVG
rendering (``svg``), and the command-line front end (``cli``).
"""

from .plmap import (
    DomainError,
    Orientation,
    OrientedInterval,
    PLHomeo,
    c0_distance,
    canonical_l,
    canonical_r,
    compose,
    evaluate,
    fixed_set,
    identity,
    invert,
    iterate,
    max_slope,
    rescale,
    wandering_intervals,
)
from .cantor import (
    ChainWitness,
    ConjugacyReport,
    ExplosionSiteError,
    InsufficientIntervals,
    TernaryIndex,
    all_indices,
    best_chain_quality,
    build_conjugacy,
    build_ternary_map,
    chain_property_threshold,
    check_chain_property,
    densify_chain_property,
    explode_fixed_point,
    minimal_indices,
)
from .continuum import (
    Arc,
    ModelError,
    YHomeo,
    YModel,
    YPoint,
    apply_map,
    build_arc_model,
    build_arcwise_map,
    check_arc_decomposition,
    identity_homeo,
)
from .shadowing import (
    CertificateError,
    CoverFailure,
    InwardNeighborhood,
    NoInwardStub,
    PseudoOrbit,
    QuasiAttractorCertificate,
    ShadowingSet,
    Stub,
    estimate_shadowing_modulus,
    find_inward_neighborhood,
    generate_pseudo_orbit,
    generate_pseudo_orbit_y,
    global_shadowing_delta,
    orbit_from_csv,
    orbit_to_csv,
    quasi_attractor_certificate,
    sample_certificate_soundness,
    sample_global_soundness,
    shadow_on_arc,
    shadow_on_model,
    shadowing_set,
    true_orbit,
    verify_pseudo_orbit,
    verify_pseudo_orbit_y_sq,
)
from .rational import format_rational, parse_integer, parse_rational

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
