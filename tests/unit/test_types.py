"""Unit tests for repro.catalog.types."""

from __future__ import annotations

import datetime
import pickle

import numpy as np
import pytest

from repro.catalog.types import (
    DATE,
    FLOAT,
    INTEGER,
    DateType,
    StringType,
    TypeKind,
    type_from_name,
)


class TestIntegerType:
    def test_encode_decode_roundtrip(self):
        assert INTEGER.encode(42) == 42
        assert INTEGER.decode(42.0) == 42

    def test_decode_rounds_floats(self):
        assert INTEGER.decode(41.6) == 42

    def test_is_discrete(self):
        assert INTEGER.is_discrete is True

    def test_numpy_dtype(self):
        assert INTEGER.numpy_dtype == np.dtype(np.int64)

    def test_encode_many(self):
        values = INTEGER.encode_many([1, 2, 3])
        assert values.dtype == np.int64
        assert list(values) == [1, 2, 3]


class TestFloatType:
    def test_roundtrip(self):
        assert FLOAT.decode(FLOAT.encode(3.25)) == pytest.approx(3.25)

    def test_is_not_discrete(self):
        assert FLOAT.is_discrete is False


class TestDateType:
    def test_encode_date_object(self):
        epoch_plus_one = datetime.date(1990, 1, 2)
        assert DATE.encode(epoch_plus_one) == 1

    def test_encode_iso_string(self):
        assert DATE.encode("1990-01-11") == 10

    def test_encode_datetime(self):
        assert DATE.encode(datetime.datetime(1990, 1, 3, 12, 0)) == 2

    def test_decode_returns_date(self):
        assert DATE.decode(1) == datetime.date(1990, 1, 2)

    def test_roundtrip(self):
        day = datetime.date(2001, 7, 15)
        assert DATE.decode(DATE.encode(day)) == day

    def test_is_discrete(self):
        assert DateType().is_discrete is True


class TestStringType:
    def test_from_values_sorts_and_dedups(self):
        dtype = StringType.from_values(["pop", "rock", "pop", "classical"])
        assert dtype.dictionary == ("classical", "pop", "rock")

    def test_encode_known_value(self):
        dtype = StringType(dictionary=("a", "b", "c"))
        assert dtype.encode("b") == 1

    def test_encode_unknown_value_raises(self):
        dtype = StringType(dictionary=("a",))
        with pytest.raises(KeyError):
            dtype.encode("zzz")

    def test_encode_integer_passthrough(self):
        dtype = StringType(dictionary=("a", "b"))
        assert dtype.encode(1) == 1

    def test_decode_in_range(self):
        dtype = StringType(dictionary=("a", "b"))
        assert dtype.decode(0) == "a"

    def test_decode_out_of_range_is_synthetic(self):
        dtype = StringType(dictionary=("a",))
        assert dtype.decode(7) == "value_7"

    def test_code_map_is_cached_outside_the_value_identity(self):
        """encode builds its string -> code map once per instance; the cache
        is not a field, so equality, hash, to_dict and pickles ignore it."""
        dtype = StringType(dictionary=("a", "b", "c"))
        fresh = StringType(dictionary=("a", "b", "c"))
        pickled, described = pickle.dumps(dtype), dtype.to_dict()
        assert dtype.encode("b") == 1 and dtype.encode("c") == 2
        assert dtype._code_map is dtype._code_map  # one map, reused
        assert dtype == fresh and hash(dtype) == hash(fresh)
        assert dtype.to_dict() == described == fresh.to_dict()
        assert pickle.dumps(dtype) == pickled == pickle.dumps(fresh)
        clone = pickle.loads(pickle.dumps(dtype))
        assert clone == dtype and "_code_map" not in vars(clone)
        assert clone.encode("c") == 2

    def test_order_preserving_codes(self):
        dtype = StringType.from_values(["dresses", "accessories", "pop"])
        codes = [dtype.encode(v) for v in sorted(dtype.dictionary)]
        assert codes == sorted(codes)


class TestTypeFactory:
    def test_type_from_name_integer(self):
        assert type_from_name("integer").kind is TypeKind.INTEGER

    def test_type_from_name_string_with_dictionary(self):
        dtype = type_from_name("string", ["x", "y"])
        assert isinstance(dtype, StringType)
        assert dtype.dictionary == ("x", "y")

    def test_type_from_name_unknown_raises(self):
        with pytest.raises(ValueError):
            type_from_name("decimal")

    def test_serialisation_roundtrip(self):
        from repro.catalog.types import type_from_dict

        dtype = StringType(dictionary=("p", "q"))
        assert type_from_dict(dtype.to_dict()) == dtype
