"""Tests for repro.storage.table_data."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.config import DEFAULT_CONFIG
from repro.errors import StorageError
from repro.stats.builder import build_statistic
from repro.stats.statistic import StatKey
from repro.storage.table_data import TableData

from tests.util import simple_schema


def _emp_data(n=4):
    data = TableData(simple_schema().table("emp"))
    data.load_columns(
        {
            "id": np.arange(1, n + 1),
            "age": np.full(n, 30),
            "salary": np.full(n, 50_000.0),
            "dept_id": np.ones(n, dtype=np.int64),
            "name": [f"e{i}" for i in range(n)],
            "hired": np.zeros(n, dtype=np.int64),
        }
    )
    return data


class TestLoad:
    def test_row_count(self):
        assert _emp_data(4).row_count == 4

    def test_missing_column_rejected(self):
        data = TableData(simple_schema().table("emp"))
        with pytest.raises(StorageError):
            data.load_columns({"id": [1]})

    def test_length_mismatch_rejected(self):
        data = TableData(simple_schema().table("emp"))
        with pytest.raises(StorageError):
            data.load_columns(
                {
                    "id": [1, 2],
                    "age": [30],
                    "salary": [1.0, 2.0],
                    "dept_id": [1, 1],
                    "name": ["a", "b"],
                    "hired": [0, 0],
                }
            )

    def test_string_columns_encoded(self):
        data = _emp_data(2)
        arr = data.column_array("name")
        assert arr.dtype == np.int64
        assert data.string_dictionary("name").decode(int(arr[0])) == "e0"

    @pytest.mark.parametrize("dtype", [str, "S", object])
    def test_string_arrays_encoded_like_sequences(self, dtype):
        names = ["e1", "e0", "e1", "e2"]
        data = _emp_data(4)
        columns = {
            name: data.column_array(name)
            for name in data.schema.column_names()
        }
        columns["name"] = np.asarray(names, dtype=dtype)
        fresh = TableData(simple_schema().table("emp"))
        fresh.load_columns(columns)
        assert fresh.column_array("name").tolist() == [0, 1, 0, 2]
        assert fresh.decoded_column("name") == names
        assert all(type(v) is str for v in fresh.decoded_column("name"))

    def test_integer_arrays_are_codes_of_an_attached_dictionary(self):
        data = _emp_data(2)
        columns = {
            name: data.column_array(name)
            for name in data.schema.column_names()
        }
        columns["name"] = np.asarray([1, 1], dtype=np.int32)
        fresh = TableData(simple_schema().table("emp"))
        fresh.attach_dictionary("name", data.string_dictionary("name"))
        fresh.load_columns(columns)
        assert fresh.column_array("name").dtype == np.int64
        assert fresh.decoded_column("name") == ["e1", "e1"]

    def test_float_array_for_a_string_column_rejected(self):
        data = _emp_data(2)
        columns = {
            name: data.column_array(name)
            for name in data.schema.column_names()
        }
        columns["name"] = np.asarray([1.0, 2.0])
        with pytest.raises(StorageError, match="'name' is STRING"):
            data.load_columns(columns)
        assert data.decoded_column("name") == ["e0", "e1"]

    def test_load_resets_modification_counter(self):
        data = _emp_data()
        data.insert_rows(
            [
                {
                    "id": 99,
                    "age": 44,
                    "salary": 1.0,
                    "dept_id": 1,
                    "name": "x",
                    "hired": 0,
                }
            ]
        )
        assert data.rows_modified_since_stats == 1
        data.load_columns(
            {
                "id": [1],
                "age": [2],
                "salary": [3.0],
                "dept_id": [1],
                "name": ["a"],
                "hired": [0],
            }
        )
        assert data.rows_modified_since_stats == 0

    def test_size_bytes_scales_with_rows(self):
        assert _emp_data(8).size_bytes == 2 * _emp_data(4).size_bytes

    def test_unknown_column_raises(self):
        with pytest.raises(StorageError):
            _emp_data().column_array("nope")

    def test_string_dictionary_requires_string_column(self):
        with pytest.raises(StorageError):
            _emp_data().string_dictionary("age")


class TestEncodeValue:
    def test_string_column_encodes(self):
        data = _emp_data()
        code = data.encode_value("name", "e0")
        assert data.string_dictionary("name").decode(code) == "e0"

    def test_new_string_gets_fresh_code(self):
        data = _emp_data(2)
        code = data.encode_value("name", "unseen")
        assert code == 2

    def test_string_value_for_numeric_rejected(self):
        with pytest.raises(StorageError):
            _emp_data().encode_value("age", "thirty")

    def test_non_string_for_string_rejected(self):
        with pytest.raises(StorageError):
            _emp_data().encode_value("name", 7)


class TestDml:
    def test_insert_appends(self):
        data = _emp_data(2)
        n = data.insert_rows(
            [
                {
                    "id": 3,
                    "age": 25,
                    "salary": 10.0,
                    "dept_id": 1,
                    "name": "new",
                    "hired": 5,
                }
            ]
        )
        assert n == 1
        assert data.row_count == 3
        assert data.rows_modified_since_stats == 1

    def test_insert_missing_column_rejected(self):
        data = _emp_data(1)
        with pytest.raises(StorageError):
            data.insert_rows([{"id": 9}])

    def test_insert_empty_is_noop(self):
        data = _emp_data(2)
        assert data.insert_rows([]) == 0
        assert data.rows_modified_since_stats == 0

    def test_delete_by_mask(self):
        data = _emp_data(4)
        mask = data.column_array("id") <= 2
        assert data.delete_rows(mask) == 2
        assert data.row_count == 2
        assert data.rows_modified_since_stats == 2

    def test_delete_mask_length_checked(self):
        data = _emp_data(4)
        with pytest.raises(StorageError):
            data.delete_rows(np.ones(3, dtype=bool))

    def test_update_by_mask(self):
        data = _emp_data(4)
        mask = data.column_array("id") == 1
        assert data.update_rows(mask, {"age": 99}) == 1
        assert data.column_array("age")[0] == 99
        assert data.rows_modified_since_stats == 1

    def test_update_string_column(self):
        data = _emp_data(2)
        mask = data.column_array("id") == 2
        data.update_rows(mask, {"name": "renamed"})
        decoded = data.decoded_column("name")
        assert decoded[1] == "renamed"

    def test_update_mask_length_checked(self):
        data = _emp_data(2)
        with pytest.raises(StorageError):
            data.update_rows(np.ones(5, dtype=bool), {"age": 1})

    def test_update_leaves_earlier_readers_array_untouched(self):
        """Lock-free readers hold the array they were handed: UPDATE
        replaces the column, like INSERT and DELETE, never writes into
        it."""
        data = _emp_data(4)
        held = data.column_array("age")
        untouched = data.column_array("salary")
        data.update_rows(data.column_array("id") <= 2, {"age": 99})
        assert held.tolist() == [30, 30, 30, 30]
        assert data.column_array("age").tolist() == [99, 99, 30, 30]
        assert data.column_array("age") is not held
        assert data.column_array("salary") is untouched

    def test_failed_update_changes_no_column(self):
        data = _emp_data(2)
        with pytest.raises(StorageError):
            data.update_rows(
                np.ones(2, dtype=bool), {"age": 41, "salary": "oops"}
            )
        assert data.column_array("age").tolist() == [30, 30]

    def test_build_racing_updates_sees_one_version_of_the_column(self):
        """Every UPDATE below rewrites the whole column to one value, so
        a statistic built at any moment must see a single distinct
        value; a write into the live array would let a build see two."""
        rows = 50_000
        data = _emp_data(rows)
        everything = np.ones(rows, dtype=bool)
        key = StatKey("emp", ("age",))
        stop = threading.Event()
        mixed = []

        def build():
            while not stop.is_set():
                stat = build_statistic(data, key, DEFAULT_CONFIG)
                if stat.histogram.distinct_count != 1:
                    mixed.append(stat.histogram.distinct_count)

        builders = [threading.Thread(target=build) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in builders:
                thread.start()
            deadline = time.monotonic() + 1.0
            value = 0
            while time.monotonic() < deadline:
                value += 1
                data.update_rows(everything, {"age": value})
        finally:
            stop.set()
            for thread in builders:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in builders)
        assert value > 1
        assert mixed == []

    def test_reset_modification_counter(self):
        data = _emp_data(2)
        data.update_rows(np.ones(2, dtype=bool), {"age": 40})
        data.reset_modification_counter()
        assert data.rows_modified_since_stats == 0


class TestVersion:
    """``version`` moves with every array replacement and only then: the
    advisor's verdict ledger keys on it."""

    ROW = {
        "id": 9,
        "age": 44,
        "salary": 1.0,
        "dept_id": 1,
        "name": "x",
        "hired": 0,
    }

    def test_load_columns_bumps(self):
        data = TableData(simple_schema().table("emp"))
        assert data.version == 0
        data.load_columns({name: [v] for name, v in self.ROW.items()})
        assert data.version == 1

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda data: data.insert_rows([TestVersion.ROW]),
            lambda data: data.delete_rows(data.column_array("id") == 1),
            lambda data: data.update_rows(
                data.column_array("id") == 1, {"age": 99}
            ),
        ],
        ids=["insert", "delete", "update"],
    )
    def test_dml_bumps(self, mutate):
        data = _emp_data(4)
        version = data.version
        mutate(data)
        assert data.version == version + 1

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda data: data.insert_rows([]),
            lambda data: data.delete_rows(np.zeros(4, dtype=bool)),
            lambda data: data.update_rows(np.zeros(4, dtype=bool), {"age": 1}),
            lambda data: data.reset_modification_counter(),
        ],
        ids=["empty-insert", "empty-delete", "empty-update", "counter-reset"],
    )
    def test_changing_nothing_does_not_bump(self, mutate):
        data = _emp_data(4)
        version = data.version
        mutate(data)
        assert data.version == version

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda data: data.update_rows(
                np.ones(4, dtype=bool), {"age": 41, "salary": "oops"}
            ),
            lambda data: data.insert_rows([{"id": 9}]),
            lambda data: data.delete_rows(np.ones(3, dtype=bool)),
        ],
        ids=["update", "insert", "delete"],
    )
    def test_dml_that_raises_does_not_bump(self, mutate):
        data = _emp_data(4)
        version = data.version
        with pytest.raises(StorageError):
            mutate(data)
        assert data.version == version


class TestSampling:
    def test_sample_smaller_than_table(self):
        data = _emp_data(50)
        sample = data.sample_rows(10)
        assert sample["id"].shape[0] == 10

    def test_sample_larger_returns_all(self):
        data = _emp_data(5)
        sample = data.sample_rows(100)
        assert sample["id"].shape[0] == 5

    def test_sample_of_named_columns_is_the_same_rows(self):
        data = _emp_data(50)
        full = data.sample_rows(10)
        some = data.sample_rows(10, columns=["salary", "id"])
        assert list(some) == ["salary", "id"]
        assert (some["id"] == full["id"]).all()
        with pytest.raises(StorageError):
            data.sample_rows(10, columns=["nope"])

    def test_sample_deterministic_with_rng(self):
        data = _emp_data(50)
        rng_a = np.random.default_rng(1)
        rng_b = np.random.default_rng(1)
        a = data.sample_rows(10, rng=rng_a)
        b = data.sample_rows(10, rng=rng_b)
        assert (a["id"] == b["id"]).all()

    def test_decoded_column_types(self):
        data = _emp_data(2)
        assert data.decoded_column("age") == [30, 30]
        assert isinstance(data.decoded_column("salary")[0], float)
        assert data.decoded_column("name") == ["e0", "e1"]
