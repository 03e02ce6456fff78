"""Tests for repro.storage.strings."""

import numpy as np
import pytest

from repro.storage import StringDictionary


class TestEncodeDecode:
    def test_first_seen_order(self):
        d = StringDictionary()
        assert d.encode("b") == 0
        assert d.encode("a") == 1

    def test_encode_is_idempotent(self):
        d = StringDictionary()
        assert d.encode("x") == d.encode("x")

    def test_decode_round_trip(self):
        d = StringDictionary(["alpha", "beta"])
        assert d.decode(d.encode("beta")) == "beta"

    def test_decode_unknown_code_raises(self):
        d = StringDictionary(["a"])
        try:
            d.decode(5)
            assert False, "expected KeyError"
        except KeyError:
            pass

    def test_lookup_returns_none_for_unknown(self):
        d = StringDictionary(["a"])
        assert d.lookup("zz") is None

    def test_contains(self):
        d = StringDictionary(["a"])
        assert "a" in d
        assert "b" not in d

    def test_len(self):
        d = StringDictionary(["a", "b", "a"])
        assert len(d) == 2

    def test_encode_many(self):
        d = StringDictionary()
        codes = d.encode_many(["x", "y", "x"])
        assert codes.tolist() == [0, 1, 0]
        assert codes.dtype == np.int64

    def test_encode_many_assigns_the_codes_of_one_encode_per_row(self):
        rows = ["c", "a", "c", "b", "a", "d", "b"]
        bulk = StringDictionary(["b", "z"])
        one_by_one = StringDictionary(["b", "z"])
        codes = bulk.encode_many(rows)
        assert codes.tolist() == [one_by_one.encode(v) for v in rows]
        assert bulk.values() == one_by_one.values() == [
            "b", "z", "c", "a", "d",
        ]

    def test_encode_many_takes_iterators_and_object_arrays(self):
        d = StringDictionary()
        assert d.encode_many(iter(["p", "q", "p"])).tolist() == [0, 1, 0]
        objects = np.asarray(["q", "r"], dtype=object)
        assert d.encode_many(objects).tolist() == [1, 2]
        assert d.encode_many([]).tolist() == []

    def test_decode_many(self):
        d = StringDictionary(["x", "y"])
        assert d.decode_many([1, 0]) == ["y", "x"]
        assert d.decode_many(np.asarray([0, 0, 1])) == ["x", "x", "y"]
        assert d.decode_many([]) == []

    @pytest.mark.parametrize("code", [-1, -2, 2, 99])
    def test_decode_many_unknown_code_raises(self, code):
        # numpy would wrap a negative index around silently
        d = StringDictionary(["x", "y"])
        with pytest.raises(KeyError, match=f"unknown string code {code}"):
            d.decode_many([0, code, 1])

    def test_values_in_code_order(self):
        d = StringDictionary(["b", "a"])
        assert d.values() == ["b", "a"]


class TestLikeMatching:
    def test_percent_wildcard(self):
        d = StringDictionary(["apple", "apricot", "banana"])
        codes = d.codes_matching_like("ap%")
        assert set(d.decode_many(codes)) == {"apple", "apricot"}

    def test_underscore_wildcard(self):
        d = StringDictionary(["cat", "cut", "coat"])
        codes = d.codes_matching_like("c_t")
        assert set(d.decode_many(codes)) == {"cat", "cut"}

    def test_literal_match_only(self):
        d = StringDictionary(["abc", "abcd"])
        codes = d.codes_matching_like("abc")
        assert d.decode_many(codes) == ["abc"]

    def test_contains_pattern(self):
        d = StringDictionary(["xyz", "axyzb", "nope"])
        codes = d.codes_matching_like("%xyz%")
        assert set(d.decode_many(codes)) == {"xyz", "axyzb"}

    def test_regex_chars_are_literal(self):
        d = StringDictionary(["a.b", "axb"])
        codes = d.codes_matching_like("a.b")
        assert d.decode_many(codes) == ["a.b"]

    def test_no_match_empty(self):
        d = StringDictionary(["a"])
        assert d.codes_matching_like("zz%").shape[0] == 0


class TestDerivedArrays:
    """``sort_ranks`` / ``codes_in``: cached per dictionary, recomputed
    when a dictionary has grown."""

    def test_ranks_order_codes_like_their_strings(self):
        d = StringDictionary(["pear", "apple", "fig", "Apple", ""])
        ranks = d.sort_ranks()
        codes = np.arange(len(d))
        by_rank = codes[np.argsort(ranks, kind="stable")]
        assert d.decode_many(by_rank) == sorted(d.values())

    def test_ranks_give_the_lexsort_permutation_of_decoded_rows(self):
        rng = np.random.default_rng(2)
        d = StringDictionary([f"s{n:02d}" for n in rng.permutation(40)])
        codes = rng.integers(0, 40, size=200)
        decoded = np.asarray(d.decode_many(codes))
        assert np.array_equal(
            np.lexsort([d.sort_ranks()[codes]]), np.lexsort([decoded])
        )

    def test_ranks_are_cached_until_the_dictionary_grows(self):
        d = StringDictionary(["m", "z"])
        first = d.sort_ranks()
        assert d.sort_ranks() is first
        d.encode("a")
        assert d.sort_ranks().tolist() == [1, 2, 0]

    def test_codes_in_maps_by_value_with_minus_one_for_absent(self):
        left = StringDictionary(["a", "b", "c"])
        right = StringDictionary(["c", "zz", "a"])
        assert right.codes_in(left).tolist() == [2, -1, 0]
        assert StringDictionary().codes_in(left).tolist() == [-1]

    def test_codes_in_is_cached_per_pair_until_either_side_grows(self):
        left = StringDictionary(["a"])
        right = StringDictionary(["b", "a"])
        first = right.codes_in(left)
        assert right.codes_in(left) is first
        assert first.tolist() == [-1, 0]
        left.encode("b")  # the target grew: "b" now translates
        assert right.codes_in(left).tolist() == [1, 0]
        right.encode("c")  # the source grew: one more slot
        assert right.codes_in(left).tolist() == [1, 0, -1]
        other = StringDictionary(["b"])
        assert right.codes_in(other).tolist() == [0, -1, -1]
        assert right.codes_in(left).tolist() == [1, 0, -1]
