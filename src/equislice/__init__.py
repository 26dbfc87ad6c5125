"""Exact-arithmetic normal forms for graded Poisson algebras carrying a
contracting torus action.

The package computes and certifies product decompositions of a graded
Poisson algebra along a symplectic leaf direction: an invertible conic
coordinate, its conjugate, Darboux pairs spanning the leaf, and a
transverse slice, together with the residual vertical vector field that
obstructs a full product.  Instantiations cover hypertoric cones, finite
linear quotients, and filtered quantizations.
"""

from .scalars import CycloField, CycloNumber, Q
from .series import GradedContext, TruncatedElement, parse_element
from .intmat import IntMatrix
from .poisson import PoissonPresentation, VectorFieldRep, standard_presentation
from .darboux import (
    CoordinateChange,
    DecompositionCertificate,
    StageError,
    certification_horizon,
    extract_slice,
    normalize_full,
    scramble_presentation,
)
from .hypertoric import (
    DecompositionReport,
    LeafDescriptor,
    TorusActionMatrix,
    check_unimodular,
    cotangent_context,
    cotangent_presentation,
    decompose_at,
    enumerate_leaves,
    moment_map,
    verify_decomposition,
)
from .quotient import (
    GroupData,
    ParabolicRecord,
    SRAData,
    close_group,
    leaf_slice_data,
    parabolic_subgroups,
    sra_relation,
    symplectic_reflections,
)
from .quantize import (
    ConicRelationError,
    HbarPresentation,
    QuantSliceResult,
    RewriteLimitError,
    centrality_check,
    differential_family,
    enveloping_family,
    exp_ad_conjugate,
    quantization_axiom_check,
    quantized_slice,
    sl2_casimir_element,
    sl2_enveloping,
    verify_sl2_localization,
    weyl_family,
)
from .cli import JobSpec, run

__all__ = [
    "CycloField",
    "CycloNumber",
    "Q",
    "GradedContext",
    "TruncatedElement",
    "parse_element",
    "IntMatrix",
    "PoissonPresentation",
    "VectorFieldRep",
    "standard_presentation",
    "CoordinateChange",
    "DecompositionCertificate",
    "StageError",
    "certification_horizon",
    "extract_slice",
    "normalize_full",
    "scramble_presentation",
    "DecompositionReport",
    "LeafDescriptor",
    "TorusActionMatrix",
    "check_unimodular",
    "cotangent_context",
    "cotangent_presentation",
    "decompose_at",
    "enumerate_leaves",
    "moment_map",
    "verify_decomposition",
    "GroupData",
    "ParabolicRecord",
    "SRAData",
    "close_group",
    "leaf_slice_data",
    "parabolic_subgroups",
    "sra_relation",
    "symplectic_reflections",
    "ConicRelationError",
    "HbarPresentation",
    "QuantSliceResult",
    "RewriteLimitError",
    "centrality_check",
    "differential_family",
    "enveloping_family",
    "exp_ad_conjugate",
    "quantization_axiom_check",
    "quantized_slice",
    "sl2_casimir_element",
    "sl2_enveloping",
    "verify_sl2_localization",
    "weyl_family",
    "JobSpec",
    "run",
]

__version__ = "0.1.0"
