"""Exception types shared across the package, and the field-rule checker.

A dataclass field declares its value rule once, as ``metadata``: a bound
under ``">="``, ``">"`` or ``"<="``, or the allowed values under
``"choices"``.  ``check_fields`` applies every field's rule and is what
each config dataclass's ``__post_init__`` calls; the config parser calls
``check_value`` once per key, so its errors name the key.
"""

import math
import operator
from dataclasses import fields


class CltaError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(CltaError):
    """Operand shapes do not conform to the operation's algebra."""


class NumericError(CltaError):
    """A value became NaN or infinite."""


class ParameterError(CltaError):
    """An argument value is outside its legal range."""


class ContractError(CltaError):
    """The caller violated an API precondition."""


class DataError(CltaError):
    """A dataset or stream is empty or internally inconsistent."""


class DegenerateBatchError(DataError):
    """A batch is too small for batch-statistics normalization."""


class FormatError(CltaError):
    """A file does not match its declared format."""


class ConsistencyError(FormatError):
    """Two related files disagree (e.g. image/label counts)."""


class TruncatedFileError(FormatError):
    """A file ended before its declared payload was complete."""


class StateError(CltaError):
    """Internal state is invalid (e.g. non-positive running variance)."""


_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le}


def check_value(name: str, value, rule) -> None:
    """Raise ``ParameterError`` naming ``name`` if ``value`` breaks ``rule``.

    Every float must be finite; None passes the bounds (an optional field
    left unset) but not a choice list.
    """
    if isinstance(value, float) and not math.isfinite(value):
        raise ParameterError(f"{name}: must be finite, got {value}")
    for op, bound in rule.items():
        if op == "choices":
            if value not in bound:
                raise ParameterError(f"{name}: '{value}' is not one of {bound}")
        elif value is not None and not _COMPARE[op](value, bound):
            raise ParameterError(f"{name}: must be {op} {bound}, got {value}")


def check_fields(obj) -> None:
    """Apply each dataclass field's rule to its value on ``obj``."""
    for f in fields(obj):
        check_value(f.name, getattr(obj, f.name), f.metadata)
