"""Column data types used throughout the HYDRA reproduction.

The original HYDRA system works on PostgreSQL relations; the regeneration
algorithms only need a small, well-defined type lattice: integers, floats,
dates (represented as ordinal integers) and (dictionary-encoded) strings.
Every type knows how to map between its *external* Python representation and
the *internal* numeric domain the region-partitioning / LP machinery operates
on.  Keeping all columns numeric internally means that every predicate can be
normalised to interval conditions over a totally ordered domain, which is the
assumption the paper's region-partitioning algorithm relies on.
"""

from __future__ import annotations

import datetime
import functools
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "TypeKind",
    "DataType",
    "IntegerType",
    "FloatType",
    "DateType",
    "StringType",
    "INTEGER",
    "FLOAT",
    "DATE",
    "type_from_name",
]


class TypeKind(Enum):
    """Enumeration of the supported logical type kinds."""

    INTEGER = "integer"
    FLOAT = "float"
    DATE = "date"
    STRING = "string"


_DATE_EPOCH = datetime.date(1990, 1, 1)


@dataclass(frozen=True)
class DataType:
    """Base class for column types.

    A :class:`DataType` provides the bridge between external (user-facing)
    values and the internal numeric encoding used by storage, statistics and
    the summary/LP machinery.
    """

    kind: TypeKind

    @property
    def numpy_dtype(self) -> np.dtype:
        """NumPy dtype used by the column-store for this type."""
        raise NotImplementedError

    @property
    def is_discrete(self) -> bool:
        """Whether the internal domain is integer-valued."""
        raise NotImplementedError

    def encode(self, value: Any) -> float:
        """Map an external value to its internal numeric representation."""
        raise NotImplementedError

    def decode(self, value: float) -> Any:
        """Map an internal numeric value back to an external value."""
        raise NotImplementedError

    def encode_many(self, values: Iterable[Any]) -> NDArray[Any]:
        """Vectorised :meth:`encode`."""
        return np.array([self.encode(v) for v in values], dtype=self.numpy_dtype)

    def name(self) -> str:
        """Short name used in serialised schemas."""
        return self.kind.value

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable description of the type."""
        return {"kind": self.kind.value}


@dataclass(frozen=True)
class IntegerType(DataType):
    """64-bit integer column."""

    kind: TypeKind = TypeKind.INTEGER

    @property
    def numpy_dtype(self) -> np.dtype:
        return np.dtype(np.int64)

    @property
    def is_discrete(self) -> bool:
        return True

    def encode(self, value: Any) -> float:
        return int(value)

    def decode(self, value: float) -> Any:
        return int(round(float(value)))


@dataclass(frozen=True)
class FloatType(DataType):
    """Double-precision floating point column."""

    kind: TypeKind = TypeKind.FLOAT

    @property
    def numpy_dtype(self) -> np.dtype:
        return np.dtype(np.float64)

    @property
    def is_discrete(self) -> bool:
        return False

    def encode(self, value: Any) -> float:
        return float(value)

    def decode(self, value: float) -> Any:
        return float(value)


@dataclass(frozen=True)
class DateType(DataType):
    """Date column, internally stored as days since an epoch.

    The ordinal encoding keeps dates totally ordered, so range predicates on
    dates (``d_date between ...``) become ordinary interval conditions.
    """

    kind: TypeKind = TypeKind.DATE

    @property
    def numpy_dtype(self) -> np.dtype:
        return np.dtype(np.int64)

    @property
    def is_discrete(self) -> bool:
        return True

    def encode(self, value: Any) -> float:
        if isinstance(value, datetime.date) and not isinstance(value, datetime.datetime):
            return (value - _DATE_EPOCH).days
        if isinstance(value, datetime.datetime):
            return (value.date() - _DATE_EPOCH).days
        if isinstance(value, str):
            parsed = datetime.date.fromisoformat(value)
            return (parsed - _DATE_EPOCH).days
        return int(value)

    def decode(self, value: float) -> Any:
        return _DATE_EPOCH + datetime.timedelta(days=int(round(float(value))))


@dataclass(frozen=True)
class StringType(DataType):
    """Dictionary-encoded string column.

    The dictionary maps each distinct string to a dense integer code; codes
    follow the lexicographic order of the dictionary, so range predicates on
    strings remain order-preserving.  The dictionary travels with the type so
    that the vendor site can decode regenerated values back into readable
    strings (as in the paper's ITEM example: ``pop``, ``Music`` ...).
    """

    kind: TypeKind = TypeKind.STRING
    dictionary: tuple[str, ...] = ()

    @property
    def numpy_dtype(self) -> np.dtype:
        return np.dtype(np.int64)

    @property
    def is_discrete(self) -> bool:
        return True

    @functools.cached_property
    def _code_map(self) -> dict[str, int]:
        """``string -> code``, built once per instance (not a field: it takes
        no part in equality, hashing, ``to_dict`` or pickling)."""
        return {value: code for code, value in enumerate(self.dictionary)}

    def __getstate__(self) -> dict[str, Any]:
        """Pickle the fields only, never the cached code map."""
        return {name: value for name, value in vars(self).items() if name != "_code_map"}

    def encode(self, value: Any) -> float:
        if isinstance(value, (int, np.integer)):
            return int(value)
        codes = self._code_map
        if value not in codes:
            raise KeyError(f"string value {value!r} not present in dictionary")
        return codes[value]

    def decode(self, value: float) -> Any:
        code = int(round(float(value)))
        if 0 <= code < len(self.dictionary):
            return self.dictionary[code]
        return f"value_{code}"

    @classmethod
    def from_values(cls, values: Iterable[str]) -> "StringType":
        """Build a dictionary-encoded type from observed values."""
        return cls(dictionary=tuple(sorted(set(values))))

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind.value, "dictionary": list(self.dictionary)}


INTEGER = IntegerType()
FLOAT = FloatType()
DATE = DateType()


def type_from_name(name: str, dictionary: Sequence[str] | None = None) -> DataType:
    """Instantiate a :class:`DataType` from its serialised name."""
    kind = TypeKind(name)
    if kind is TypeKind.INTEGER:
        return INTEGER
    if kind is TypeKind.FLOAT:
        return FLOAT
    if kind is TypeKind.DATE:
        return DATE
    if kind is TypeKind.STRING:
        return StringType(dictionary=tuple(dictionary or ()))
    raise ValueError(f"unknown type name: {name}")


def type_from_dict(payload: dict[str, Any]) -> DataType:
    """Inverse of :meth:`DataType.to_dict`."""
    return type_from_name(payload["kind"], payload.get("dictionary"))
