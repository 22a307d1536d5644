"""Exception types shared across the package."""

__all__ = [
    "LambertQError",
    "NotAUnit",
    "OrderTooSmall",
    "InvalidExponent",
    "DivergentSpec",
    "ZeroFactor",
    "ParameterOutOfRange",
    "UnsupportedSeries",
    "NoConsistentSign",
]


class LambertQError(Exception):
    """Base class for all errors raised by this package."""


class NotAUnit(LambertQError):
    """Constant coefficient is not +1 or -1, so the series has no integer inverse."""


class OrderTooSmall(LambertQError):
    """A requested comparison or truncation order exceeds what a series holds."""


class InvalidExponent(LambertQError):
    """A geometric-term exponent parameter is out of range (a < 0 or b < 1)."""


class DivergentSpec(LambertQError):
    """Lambert sum parameters would produce a denominator exponent below 1."""


class ZeroFactor(LambertQError):
    """A Pochhammer factor would be 1 - q^0 = 0, so the product degenerates."""


class ParameterOutOfRange(LambertQError):
    """Bilateral sum parameters violate the exponent bounds."""


class UnsupportedSeries(LambertQError):
    """No builder or lattice oracle exists for the requested series."""


class NoConsistentSign(LambertQError):
    """Neither LHS = RHS nor LHS = -RHS holds; indicates a constructor bug."""
