"""Exact-arithmetic engine for free graded differential Lie algebra cell models.

The package splits into three layers plus a CLI:

- :mod:`dgla.algebra`: the free graded Lie algebra engine (contexts,
  elements as truncated tensor-algebra series, morphisms, canonical
  JSON serialization);
- :mod:`dgla.calculus`: Bernoulli numbers, truncated exp/log and the
  multi-argument BCH element, operator series in ``ad``, edge
  differentials, derivation extension, flatness defects, twisted
  differentials, and flows;
- :mod:`dgla.models`: cell-model builders (point, 1-complexes, the
  one-vertex disc, based and symmetric bigons), symmetry morphisms,
  and verification reports;
- :mod:`dgla.cli`: the ``dgla`` command-line tool.
"""

from .algebra import (
    AlgebraContext,
    AlgebraElement,
    ContextMismatchError,
    Generator,
    GeneratorMorphism,
    GradingError,
    SeriesParseError,
    apply_morphism,
    as_fraction,
    bracket,
    decode,
    encode,
    format_element,
    format_element_latex,
    is_primitive,
    terms_to_json,
    weight_component,
)
from .calculus import (
    FlatnessError,
    ModelError,
    apply_operator_series,
    bch,
    bernoulli,
    edge_differential,
    edge_differential_bernoulli,
    exp_assoc,
    extend_differential,
    flow,
    log_assoc,
    maurer_cartan_defect,
    twisted_differential,
)
from .models import (
    MODEL_NAMES,
    CellModel,
    ModelCheck,
    OneComplex,
    SymmetricBigonData,
    VerificationReport,
    build_named_model,
    build_one_complex,
    check_equivariance,
    circle_complex,
    compare_reference_second_order,
    compute_symmetric_data,
    decode_model,
    disc_reflection_morphism,
    encode_model,
    interval_complex,
    model_from_json_dict,
    model_to_json_dict,
    point_complex,
    reflection_morphism,
    rotation_morphism,
    symmetry_morphism,
    verify_model,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraContext",
    "AlgebraElement",
    "CellModel",
    "ContextMismatchError",
    "FlatnessError",
    "Generator",
    "GeneratorMorphism",
    "GradingError",
    "MODEL_NAMES",
    "ModelCheck",
    "ModelError",
    "OneComplex",
    "SeriesParseError",
    "SymmetricBigonData",
    "VerificationReport",
    "apply_morphism",
    "apply_operator_series",
    "as_fraction",
    "bch",
    "bernoulli",
    "bracket",
    "build_named_model",
    "build_one_complex",
    "check_equivariance",
    "circle_complex",
    "compare_reference_second_order",
    "compute_symmetric_data",
    "decode",
    "decode_model",
    "disc_reflection_morphism",
    "edge_differential",
    "edge_differential_bernoulli",
    "encode",
    "encode_model",
    "exp_assoc",
    "extend_differential",
    "flow",
    "format_element",
    "format_element_latex",
    "interval_complex",
    "is_primitive",
    "log_assoc",
    "maurer_cartan_defect",
    "model_from_json_dict",
    "model_to_json_dict",
    "point_complex",
    "reflection_morphism",
    "rotation_morphism",
    "symmetry_morphism",
    "terms_to_json",
    "twisted_differential",
    "verify_model",
    "weight_component",
]
