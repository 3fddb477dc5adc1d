"""Exact field, polynomial, power-series, and linear-algebra kernel."""

from .fields import (
    ExtElement,
    ExtField,
    FieldError,
    FpElement,
    PrimeField,
    coerce,
    common_field,
    field_from_json,
)
from .linalg import MatrixExact, plucker
from .poly import (
    ExtensionCapError,
    Poly,
    discriminant,
    factor_finite,
    poly_gcd,
    powmod,
    resultant,
    roots_in_field,
    roots_in_splitting_extension,
)
from .series import SingularSeedError, TruncatedSeries, series_solve

__all__ = [
    "ExtElement", "ExtField", "FieldError", "FpElement", "PrimeField",
    "coerce", "common_field", "field_from_json",
    "MatrixExact", "plucker",
    "ExtensionCapError", "Poly", "discriminant", "factor_finite",
    "poly_gcd", "powmod", "resultant",
    "roots_in_field", "roots_in_splitting_extension",
    "SingularSeedError", "TruncatedSeries", "series_solve",
]
