"""mfkit: exact graded matrix factorisations over Weierstrass cone potentials.

Polynomial arithmetic is exact over QQ or a prime field; all homological
operations (resolutions, stable Hom, cones, twist functors) are symbolic.
"""

from .errors import InputError, MFKitError, ParseError, ValidationError
from .fields import QQ, Field
from .poly import (
    GradedMatrix,
    Poly,
    PolyRing,
    format_poly,
    grevlex_key,
    validate_graded_matrix,
)
from .groebner import (
    ColumnSpan,
    GroebnerBasis,
    groebner_basis,
    minimal_generators,
    normal_form,
    syzygy_basis,
)
from .resolutions import (
    Presentation,
    Resolution,
    free_hilbert_function,
    hilbert_function,
    hom_presentation,
    minimal_resolution,
    minimize_presentation,
    present_subquotient,
    truncate_geq,
)
from .mf import (
    MatrixFactorization,
    assert_valid_mf,
    cokernel_module,
    detect_periodicity,
    direct_sum_mf,
    extract_mf,
    mf_from_pair,
    reduce_mf,
    shift_mf,
    transpose_mf,
    trivial_mf,
    twist_mf,
    verify_mf,
)
from .homs import (
    IsoResult,
    MFMorphism,
    StableHom,
    add_morphisms,
    compose_morphisms,
    cone_mf,
    hom_space,
    identity_morphism,
    inverse_twist_functor,
    is_null_homotopic,
    is_stably_isomorphic,
    scale_morphism,
    stable_hom_dim,
    twist_functor,
    verify_morphism,
    zero_morphism,
)
from .catalog import (
    CATALOG_KINDS,
    POINT_KINDS,
    CurvePoint,
    SizeBoundReport,
    WeierstrassCurve,
    ar_middle,
    catalog_mf,
    curve_from_potential,
    curve_new,
    default_curve,
    default_points,
    duality_image,
    fundamental_module_mf,
    pe_poly,
    picard_tensor,
    point_on,
    rational_points,
    size_bound_check,
)
from .io import (
    catalog_entry_dict,
    mf_from_dict,
    mf_to_dict,
    morphism_from_dict,
    morphism_to_dict,
    parse_field_token,
    presentation_from_dict,
    presentation_to_dict,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
