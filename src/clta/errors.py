"""Exception types shared across the package, and the field-rule checker.

A config dataclass declares its key prefix once, as the ``SECTION`` class
attribute, and each field declares its value rule once, as ``metadata``: a
bound under ``">="``, ``">"`` or ``"<="``, or the allowed values under
``"choices"``.  A field's key is ``<SECTION>.<field>`` unless its metadata
spells it out under ``"key"`` (``key_of``).  ``check_fields`` is the one
rule checker: each config dataclass's ``__post_init__`` calls it, so a
config built in Python and one parsed from text fail with one message,
naming the key.
"""

import math
import operator
from dataclasses import Field, fields


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


class OutputError(CltaError):
    """A result file could not be written."""


_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le}


def key_of(cls, f: Field) -> str:
    """The config key of field ``f`` of the config dataclass ``cls``."""
    return f.metadata.get("key", f"{cls.SECTION}.{f.name}")


def check_fields(obj) -> None:
    """Raise ``ParameterError`` naming the key of the first field of ``obj``
    whose value breaks the field's rule.

    Every float must be finite; None passes the bounds (an optional field
    left unset) but not a choice list; a tuple's rule applies to each item.
    """
    for f in fields(obj):
        key, value = key_of(type(obj), f), getattr(obj, f.name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, float) and not math.isfinite(item):
                raise ParameterError(f"{key}: must be finite, got {item}")
            for op, bound in f.metadata.items():
                if op == "choices" and item not in bound:
                    raise ParameterError(f"{key}: '{item}' is not one of {bound}")
                if op in _COMPARE and item is not None and not _COMPARE[op](item, bound):
                    raise ParameterError(f"{key}: must be {op} {bound}, got {item}")
