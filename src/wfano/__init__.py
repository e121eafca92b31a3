"""Exact arithmetic for the 95 families of anticanonically embedded
weighted hypersurface threefolds: enumeration, singular-point baskets,
blow-up towers with intersection theory, and Halphen pencil counts.
"""
from .blowup import (
    BlowupCenter,
    DivisorClass,
    GramProblem,
    Restriction,
    Tower,
    anticanonical_class,
    exceptional_strict,
    is_negative_definite,
    neg_k_cube,
    solve_gram,
    triple,
)
from .classifier import (
    INFINITE,
    FamilyRecord,
    HalphenAnswer,
    PencilDescriptor,
    PencilKind,
    family,
    halphen_pencils,
    load_families,
    parse_table,
    serialize_table,
    type_iii_point_count,
    unique_index_j,
    verify_family,
)
from .core import (
    QuotientSingularityType,
    Rational,
    Weights,
    anticanonical_cube,
    is_representable,
    normalize_singularity,
)
from .enumerator import enumerate_families, is_quasismooth_general
from .singularities import Basket, BasketEntry, basket, coordinate_point_type
from .towers import TowerSpec, evaluate, parse_tower_file, parse_tower_text

__version__ = "0.1.0"

__all__ = [
    "BlowupCenter",
    "DivisorClass",
    "GramProblem",
    "Restriction",
    "Tower",
    "anticanonical_class",
    "exceptional_strict",
    "is_negative_definite",
    "neg_k_cube",
    "solve_gram",
    "triple",
    "INFINITE",
    "FamilyRecord",
    "HalphenAnswer",
    "PencilDescriptor",
    "PencilKind",
    "family",
    "halphen_pencils",
    "load_families",
    "parse_table",
    "serialize_table",
    "type_iii_point_count",
    "unique_index_j",
    "verify_family",
    "QuotientSingularityType",
    "Rational",
    "Weights",
    "anticanonical_cube",
    "is_representable",
    "normalize_singularity",
    "enumerate_families",
    "is_quasismooth_general",
    "Basket",
    "BasketEntry",
    "basket",
    "coordinate_point_type",
    "TowerSpec",
    "evaluate",
    "parse_tower_file",
    "parse_tower_text",
    "__version__",
]
