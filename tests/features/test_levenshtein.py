"""Tests for Levenshtein distance."""

import string

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.features.extractor as extractor_module
from repro.features import extract_feature_matrix, levenshtein, normalized_levenshtein
from repro.features.levenshtein import _MAX_LEN

words = st.text(alphabet="abcd", max_size=15)


def naive_levenshtein(a, b):
    """Full-matrix reference DP, no fast paths — the oracle for properties."""
    n, m = len(a), len(b)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        dp[i][0] = i
    for j in range(m + 1):
        dp[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            dp[i][j] = min(dp[i - 1][j] + 1, dp[i][j - 1] + 1, dp[i - 1][j - 1] + cost)
    return dp[n][m]


class TestKnownDistances:
    def test_kitten_sitting(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_identical(self):
        assert levenshtein("abc", "abc") == 0

    def test_empty_vs_word(self):
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3

    def test_both_empty(self):
        assert levenshtein("", "") == 0

    def test_single_substitution(self):
        assert levenshtein("cat", "bat") == 1

    def test_token_sequences(self):
        a = ["if", "(", "VAR", ")"]
        b = ["if", "(", "VAR", "&&", "VAR", ")"]
        assert levenshtein(a, b) == 2

    def test_truncation_bound(self):
        # Distances are capped by the truncation length.
        assert levenshtein("a" * 5000, "b" * 5000, max_len=100) == 100


class TestNormalized:
    def test_range(self):
        assert normalized_levenshtein("abc", "xyz") == 1.0
        assert normalized_levenshtein("abc", "abc") == 0.0

    def test_empty(self):
        assert normalized_levenshtein("", "") == 0.0


class TestProperties:
    @given(a=words, b=words)
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(a=words, b=words)
    @settings(max_examples=200, deadline=None)
    def test_bounds(self, a, b):
        d = levenshtein(a, b)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))

    @given(a=words)
    @settings(max_examples=100, deadline=None)
    def test_identity(self, a):
        assert levenshtein(a, a) == 0

    @given(a=words, b=words, c=words)
    @settings(max_examples=150, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(a=words, b=words)
    @settings(max_examples=100, deadline=None)
    def test_zero_iff_equal(self, a, b):
        assert (levenshtein(a, b) == 0) == (a == b)

    @given(a=words, b=words)
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_dp(self, a, b):
        # The equal-input and prefix/suffix fast paths must not change any
        # distance; check against the full-matrix reference.
        assert levenshtein(a, b) == naive_levenshtein(a, b)

    @given(pre=words, a=words, b=words, suf=words)
    @settings(max_examples=200, deadline=None)
    def test_shared_affixes_preserved(self, pre, a, b, suf):
        # Explicitly exercise the stripping path with forced common affixes.
        assert levenshtein(pre + a + suf, pre + b + suf) == naive_levenshtein(
            pre + a + suf, pre + b + suf
        )

    @given(a=st.lists(st.sampled_from(["if", "(", "VAR", ")", "NUM"]), max_size=10),
           b=st.lists(st.sampled_from(["if", "(", "VAR", ")", "NUM"]), max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_matches_naive_dp_on_token_lists(self, a, b):
        assert levenshtein(a, b) == naive_levenshtein(a, b)


def _alphabet_pairs(max_size):
    """Pairs of strings over one shared alphabet of 2-26 symbols."""
    return st.integers(2, 26).flatmap(
        lambda k: st.tuples(
            st.text(alphabet=string.ascii_lowercase[:k], max_size=max_size),
            st.text(alphabet=string.ascii_lowercase[:k], max_size=max_size),
        )
    )


#: Multi-character tokens: a shared pool plus tokens only one side draws.
_SHARED = ["if", "(", ")", "VAR", "NUM", "return", "->", "==", "{", "}"]
_ONLY_A = ["memcpy", "<<=", "STR"]
_ONLY_B = ["free", "!=", "goto"]

#: A shared prefix or suffix long enough for truncation to cut into it.
affix = st.text(alphabet="abcd", min_size=2, max_size=80)


class TestBitParallelExactness:
    """The bit-parallel recurrence agrees with the full-matrix DP."""

    @given(pair=_alphabet_pairs(200))
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_dp_long_inputs(self, pair):
        a, b = pair
        assert levenshtein(a, b) == naive_levenshtein(a, b)

    @given(a=st.lists(st.sampled_from(_SHARED + _ONLY_A), max_size=120),
           b=st.lists(st.sampled_from(_SHARED + _ONLY_B), max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_multichar_tokens_one_sided_items(self, a, b):
        assert levenshtein(a, b) == naive_levenshtein(a, b)
        assert levenshtein(b, a) == naive_levenshtein(b, a)

    @given(pair=_alphabet_pairs(200))
    @settings(max_examples=200, deadline=None)
    def test_unequal_lengths_both_orders(self, pair):
        a, b = pair
        assume(len(a) != len(b))
        expected = naive_levenshtein(a, b)
        assert levenshtein(a, b) == expected
        assert levenshtein(b, a) == expected

    @given(pair=_alphabet_pairs(60), pre=affix, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_truncation_before_prefix_stripping(self, pair, pre, data):
        # The bound falls inside or just past the shared prefix.
        a, b = pre + pair[0], pre + pair[1]
        limit = data.draw(st.integers(1, len(pre) + 10))
        assert levenshtein(a, b, max_len=limit) == naive_levenshtein(a[:limit], b[:limit])

    @given(pair=_alphabet_pairs(60), suf=affix, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_truncation_before_suffix_stripping(self, pair, suf, data):
        # Truncation cuts the shared suffix off (part of) the longer side,
        # so it must not be stripped as common.
        a, b = pair[0] + suf, pair[1] + suf
        limit = data.draw(st.integers(1, max(len(a), len(b)) - 1))
        assert levenshtein(a, b, max_len=limit) == naive_levenshtein(a[:limit], b[:limit])

    def test_shared_suffix_cut_by_truncation(self):
        a, b = "ab" + "z" * 10, "abc" + "z" * 10
        assert levenshtein(a, b, max_len=5) == naive_levenshtein(a[:5], b[:5]) == 1

    def test_default_bound_on_long_inputs(self):
        rng = np.random.default_rng(0)
        a = "".join(rng.choice(list("abc"), _MAX_LEN + 300))
        b = a[:1500] + "".join(rng.choice(list("abc"), _MAX_LEN - 1100))
        assert levenshtein(a, b) == naive_levenshtein(a[:_MAX_LEN], b[:_MAX_LEN])


class TestFeatureMatrixParity:
    def test_table1_matrix_matches_naive_oracle(self, experiment_world, monkeypatch):
        world = experiment_world.world
        patches = world.patches_for(world.all_shas())
        fast = extract_feature_matrix(patches)
        monkeypatch.setattr(
            extractor_module,
            "levenshtein",
            lambda a, b, max_len=_MAX_LEN: naive_levenshtein(a[:max_len], b[:max_len]),
        )
        assert np.array_equal(extract_feature_matrix(patches), fast)
