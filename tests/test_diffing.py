import hashlib
import itertools
import math
import random
from difflib import SequenceMatcher

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GOLDEN_CORRECTED, GOLDEN_ORIGINAL
from histocr.diffing import (
    _SHORT_WINDOW,
    ChangeHunk,
    diff_words,
    format_hunk,
    reconstruct_words,
    similarity_below,
    similarity_ratio,
    tokenize_words,
)

WORDS = st.lists(st.text(alphabet="abcó", min_size=1, max_size=4), max_size=12)


def brute_force_matches(a: str, b: str) -> int:
    """Independent oracle: exhaustive longest-common-block recursion.

    Scans every (i, j) start pair so the longest block is found by brute
    force; ties go to the earliest start in ``a``, then in ``b``.
    """
    best = (0, 0, 0)
    for i in range(len(a)):
        for j in range(len(b)):
            k = 0
            while i + k < len(a) and j + k < len(b) and a[i + k] == b[j + k]:
                k += 1
            if k > best[0]:
                best = (k, i, j)
    size, i, j = best
    if size == 0:
        return 0
    return (
        size
        + brute_force_matches(a[:i], b[:j])
        + brute_force_matches(a[i + size :], b[j + size :])
    )


def brute_force_ratio(a: str, b: str) -> float:
    total = len(a) + len(b)
    if total == 0:
        return 1.0
    return 2.0 * brute_force_matches(a, b) / total


def difflib_ratio(a: str, b: str) -> float:
    """Reference ratio: difflib's block search, junk heuristics off."""
    if not a and not b:
        return 1.0
    return SequenceMatcher(None, a, b, autojunk=False).ratio()


SPANISH_WORDS = sorted(set(tokenize_words(GOLDEN_ORIGINAL + " " + GOLDEN_CORRECTED)))
WORD_EDITS = st.lists(
    st.tuples(
        st.sampled_from(("insert", "delete", "replace", "swap")),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(SPANISH_WORDS),
    ),
    max_size=40,
)


@st.composite
def spanish_pairs(draw) -> tuple[str, str]:
    """A text of up to ~3k chars from the golden fragment's words, and an edit of it."""
    size = draw(st.integers(min_value=0, max_value=450))
    words = draw(st.lists(st.sampled_from(SPANISH_WORDS), min_size=size, max_size=size))
    edited = list(words)
    for op, pos, word in draw(WORD_EDITS):
        if op == "insert":
            edited.insert(pos % (len(edited) + 1), word)
        elif not edited:
            continue
        elif op == "delete":
            del edited[pos % len(edited)]
        elif op == "replace":
            edited[pos % len(edited)] = word
        else:
            k = pos % len(edited)
            edited[k : k + 2] = edited[k : k + 2][::-1]
    return " ".join(words), " ".join(edited)


def _random_words(seed: int, count: int) -> str:
    return " ".join(random.Random(seed).choices(SPANISH_WORDS, k=count))


def _shuffled_words(text: str, seed: int) -> str:
    words = tokenize_words(text)
    random.Random(seed).shuffle(words)
    return " ".join(words)


# window lengths on both sides of the one-pass search's limit, for either string
AROUND_SHORT_WINDOW = [
    (m, n)
    for m in (_SHORT_WINDOW - 1, _SHORT_WINDOW, _SHORT_WINDOW + 1)
    for n in (_SHORT_WINDOW - 1, _SHORT_WINDOW, _SHORT_WINDOW + 1)
]


def _tiny_alphabet_pairs(m: int, n: int) -> list[tuple[str, str]]:
    rng = random.Random(m * 1000 + n)
    return [
        ("".join(rng.choices(alphabet, k=m)), "".join(rng.choices(alphabet, k=n)))
        for alphabet in ("ab", "abc")
        for _ in range(10)
    ]


# a window with one character on a side, that character two to four times on
# the other: the whole pair, between short anchors, and after a long anchor
# (a first window over _SHORT_WINDOW, so the seed search hands the flank on)
_LONG_ANCHOR = "".join(chr(0x100 + k) for k in range(_SHORT_WINDOW + 6))
ONE_CHAR_WINDOW_PAIRS = [
    pair
    for n in range(2, 7)
    for other in map("".join, itertools.product("ab", repeat=n))
    if 2 <= other.count("a") <= 4
    for one, many in (("a", other), ("a", "x" + other), ("a", other + "x"))
    for forward in (
        (one, many),
        ("XY" + one + "ZW", "XY" + many + "ZW"),
        ("X" + one + "a", "X" + many + "a"),
        (_LONG_ANCHOR + one, _LONG_ANCHOR + many),
        (one + _LONG_ANCHOR + one, many + _LONG_ANCHOR + many),
    )
    for pair in (forward, forward[::-1])
]


_LONG_SPANISH = " ".join([GOLDEN_ORIGINAL] * 2)
ADVERSARIAL_PAIRS = {
    "alternating_shifted": ("ab" * 1500, "ba" * 1500),
    "single_letter_run": ("a" * 1500, "a" * 1499 + "b"),
    "two_letter_random": (
        "".join(random.Random(3).choices("ab", k=1000)),
        "".join(random.Random(4).choices("ab", k=1000)),
    ),
    "unrelated_texts": (_random_words(1, 250), _random_words(2, 250)),
    "word_shuffled_rewrite": (_LONG_SPANISH, _shuffled_words(_LONG_SPANISH, 2)),
    "golden_correction": (GOLDEN_ORIGINAL, GOLDEN_CORRECTED),
    "empty_both": ("", ""),
    "empty_first": ("", GOLDEN_ORIGINAL),
    "empty_second": (GOLDEN_CORRECTED, ""),
    "single_char_in_text": ("x", "taxi"),
    # equally long longest blocks whose choice changes M: only the smallest
    # i, then the smallest j, gives difflib's ratio
    "tie_in_j": ("aaab", "abab"),  # "ab" at (2, 0) and (2, 2)
    "tie_in_i": ("aaac", "aaba"),  # "aa" at (0, 0) and (1, 0)
    "tie_in_i_and_j": ("aaaa", "acaa"),  # "aa" at (0, 2), (1, 2) and (2, 2)
}


class TestTokenizeWords:
    def test_plain_split(self):
        assert tokenize_words("La publicacion del") == ["La", "publicacion", "del"]

    def test_punctuation_stays_attached(self):
        assert tokenize_words("noche , 25") == ["noche", ",", "25"]
        assert tokenize_words("noche, 25") == ["noche,", "25"]

    def test_empty(self):
        assert tokenize_words("") == []
        assert tokenize_words("  \t\n ") == []


class TestDiffWords:
    def test_identical_sequences(self):
        words = tokenize_words("se leyó y aprobó la acta")
        assert diff_words(words, words) == []

    def test_single_word_replace(self):
        hunks = diff_words(
            tokenize_words("se harà dos veces"), tokenize_words("se hará dos veces")
        )
        assert hunks == [
            ChangeHunk("harà", "hará", (1, 2), (1, 2), "replace")
        ]

    def test_adjacent_changes_merge_into_one_hunk(self):
        hunks = diff_words(
            tokenize_words("cada se mana y"), tokenize_words("cada semana y")
        )
        assert len(hunks) == 1
        assert hunks[0].original_segment == "se mana"
        assert hunks[0].corrected_segment == "semana"
        assert hunks[0].kind == "replace"

    def test_insert_and_delete_kinds(self):
        hunks = diff_words(["a", "b"], ["a", "x", "b"])
        assert [h.kind for h in hunks] == ["insert"]
        assert hunks[0].original_span == (1, 1)
        hunks = diff_words(["a", "x", "b"], ["a", "b"])
        assert [h.kind for h in hunks] == ["delete"]
        assert hunks[0].corrected_segment == ""

    def test_whitespace_only_difference_yields_no_hunks(self):
        a = tokenize_words("un  pliego\nen cuarto")
        b = tokenize_words("un pliego en cuarto")
        assert diff_words(a, b) == []

    def test_earliest_match_tie_break(self):
        # both "a" tokens could anchor; the earliest original match wins
        hunks = diff_words(["a", "b", "a"], ["a"])
        assert hunks == [ChangeHunk("b a", "", (1, 3), (1, 1), "delete")]

    @given(WORDS, WORDS)
    def test_a_side_is_empty_exactly_where_the_kind_says(self, a, b):
        # (original side empty, corrected side empty), in span and in segment alike
        empty = {"insert": (True, False), "delete": (False, True), "replace": (False, False)}
        for hunk in diff_words(a, b):
            (i, bi), (j, bj) = hunk.original_span, hunk.corrected_span
            assert (i == bi, j == bj) == empty[hunk.kind], hunk
            assert (hunk.original_segment == "", hunk.corrected_segment == "") == empty[hunk.kind], hunk

    def test_reconstruct_rejects_overlapping_hunks(self):
        hunks = [ChangeHunk("a b", "x", (0, 2), (0, 1), "replace"), ChangeHunk("b", "y", (1, 2), (1, 2), "replace")]
        with pytest.raises(ValueError, match=r"overlapping hunk at \(1, 2\)"):
            reconstruct_words(["a", "b", "c"], hunks)

    def test_deterministic(self):
        a = tokenize_words("uno dos tres cuatro cinco")
        b = tokenize_words("uno tres dos cinco seis")
        assert diff_words(a, b) == diff_words(a, b)

    @given(WORDS, WORDS)
    @settings(max_examples=200)
    def test_reconstruction_invariant(self, original, corrected):
        hunks = diff_words(original, corrected)
        assert reconstruct_words(original, hunks) == corrected

    @given(WORDS, WORDS)
    @settings(max_examples=200)
    def test_hunks_ordered_and_non_overlapping(self, original, corrected):
        hunks = diff_words(original, corrected)
        cursor = -1
        for hunk in hunks:
            start, end = hunk.original_span
            assert start >= cursor
            assert start <= end
            cursor = end


def difflib_hunks(original: list[str], corrected: list[str]) -> list[ChangeHunk]:
    """Reference hunks: difflib's non-equal opcodes, junk heuristics off."""
    opcodes = SequenceMatcher(None, original, corrected, autojunk=False).get_opcodes()
    return [
        ChangeHunk(" ".join(original[i1:i2]), " ".join(corrected[j1:j2]), (i1, i2), (j1, j2), tag)
        for tag, i1, i2, j1, j2 in opcodes
        if tag != "equal"
    ]


_DOTS = ["."] * 1500
_WORDS_60K = [f"w{k}" for k in range(60_000)]
# (original, corrected, hunk count, sha256 of the format_hunk lines), both
# figures computed once from difflib_hunks; difflib takes seconds to minutes here
WORD_REPEAT_CASES = {
    "dot_leaders": (
        _DOTS,
        ["," if k % 10 == 9 else w for k, w in enumerate(_DOTS)],
        150,
        "02397575843d7922bea41314c3dec69d807173b36a9f3420b2714bae3931a71f",
    ),
    "table_rows": (
        "Id. $ 1.00".split() * 500,
        "Id. $1.00".split() * 500,
        500,
        "36fbb4724100e67d117364197861b6a707116ff738fdb36c21632385baa384cd",
    ),
    "de_la_500": (
        ["de"] * 1000,
        ["de", "la"] * 500,
        500,
        "aa4f3b297e9d8e0dbf588729c7ad6e910df69e7d7bd29e32aaf02065ffca82c3",
    ),
    "de_la_1000": (
        ["de"] * 2000,
        ["de", "la"] * 1000,
        1000,
        "b6294bfa9c38a4c887812489a5ee7a6ee5ccc04091f2e1d110c70e47c2322d47",
    ),
    # more distinct words than code points below the surrogates (55,296)
    "distinct_60000": (
        _WORDS_60K,
        [w + "x" if k % 97 == 0 else w for k, w in enumerate(_WORDS_60K) if k % 89],
        1273,
        "c5611bb8812831d351c95a02e767b22a57b13f19bda2741a94ebfed0c5c70823",
    ),
}


class TestDiffWordsMatchesDifflib:
    """Exact (``==``) agreement with difflib's opcodes: segments, spans and kind."""

    def test_exhaustive_three_word_vocabulary(self):
        lists = [list(p) for n in range(5) for p in itertools.product(("x", "y", "z"), repeat=n)]
        assert len(lists) ** 2 == 14_641
        for original in lists:
            for corrected in lists:
                assert diff_words(original, corrected) == difflib_hunks(original, corrected)

    def test_random_small_vocabularies(self):
        rng = random.Random(7)
        for _ in range(5_000):
            vocabulary = [f"w{k}" for k in range(rng.randint(1, 5))]
            original = rng.choices(vocabulary, k=rng.randint(0, 30))
            corrected = rng.choices(vocabulary, k=rng.randint(0, 30))
            assert diff_words(original, corrected) == difflib_hunks(original, corrected)

    @pytest.mark.parametrize("m, n", AROUND_SHORT_WINDOW)
    def test_windows_around_the_short_limit(self, m, n):
        for a, b in _tiny_alphabet_pairs(m, n):
            original, corrected = list(a), list(b)  # one-letter words
            assert diff_words(original, corrected) == difflib_hunks(original, corrected)

    def test_one_character_windows(self):
        # the one-character side's block is the first occurrence in the other side
        for a, b in ONE_CHAR_WINDOW_PAIRS:
            original, corrected = list(a), list(b)  # one-letter words
            assert diff_words(original, corrected) == difflib_hunks(original, corrected), (a, b)

    def test_short_window_ties(self):
        # "x y" at (2, 0) and (2, 2): the earlier corrected match anchors
        original, corrected = ["x", "x", "x", "y"], ["x", "y", "x", "y"]
        expected = [ChangeHunk("x x", "", (0, 2), (0, 0), "delete"), ChangeHunk("", "x y", (4, 4), (2, 4), "insert")]
        assert diff_words(original, corrected) == difflib_hunks(original, corrected) == expected

    @pytest.mark.parametrize("name", sorted(WORD_REPEAT_CASES))
    def test_word_repeat_cases_pinned(self, name):
        original, corrected, count, digest = WORD_REPEAT_CASES[name]
        hunks = diff_words(original, corrected)
        assert len(hunks) == count
        lines = "\n".join(format_hunk(h) for h in hunks)
        assert hashlib.sha256(lines.encode()).hexdigest() == digest


class TestSimilarityRatio:
    def test_known_anchor_pairs(self):
        assert similarity_ratio("ascripeión", "suscripción") == pytest.approx(0.76, abs=0.005)
        assert similarity_ratio("que", "como") == 0.0

    def test_identity(self):
        assert similarity_ratio("doce", "doce") == 1.0

    def test_empty_conventions(self):
        assert similarity_ratio("", "") == 1.0
        assert similarity_ratio("", "doce") == 0.0
        assert similarity_ratio("doce", "") == 0.0

    def test_frozen_derived_values(self):
        # checked against brute_force_ratio: blocks "do" + "e" -> 6/8
        assert similarity_ratio("doze", "doce") == pytest.approx(0.75, abs=1e-9)
        assert brute_force_ratio("doze", "doce") == pytest.approx(0.75, abs=1e-9)
        # blocks "abcd " -> 10/18
        assert similarity_ratio("abcd efgh", "abcd zzzz") == pytest.approx(5 / 9, abs=1e-9)

    def test_two_decimal_symmetry_on_anchor_pairs(self):
        for a, b in [("ascripeión", "suscripción"), ("que", "como"), ("doze", "doce")]:
            assert round(similarity_ratio(a, b), 2) == round(similarity_ratio(b, a), 2)

    @given(st.text(alphabet="abc", max_size=10), st.text(alphabet="abc", max_size=10))
    @settings(max_examples=300)
    def test_bounds_and_oracle_agreement(self, a, b):
        ratio = similarity_ratio(a, b)
        assert 0.0 <= ratio <= 1.0
        assert ratio == pytest.approx(brute_force_ratio(a, b), abs=1e-9)

    @given(st.text(alphabet="abcd", min_size=1, max_size=12))
    @settings(max_examples=100)
    def test_self_similarity_is_one(self, text):
        assert similarity_ratio(text, text) == 1.0

    def test_disjoint_alphabets_are_zero(self):
        assert similarity_ratio("aaa", "bbb") == 0.0


class TestSimilarityRatioMatchesDifflib:
    """Exact (``==``) agreement with difflib's ratio, well beyond the oracle's sizes."""

    @given(spanish_pairs(), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_spanish_word_edits(self, pair, swap):
        a, b = pair[::-1] if swap else pair
        assert similarity_ratio(a, b) == difflib_ratio(a, b)

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_PAIRS))
    def test_adversarial_pairs(self, name):
        a, b = ADVERSARIAL_PAIRS[name]
        assert similarity_ratio(a, b) == difflib_ratio(a, b)

    @pytest.mark.parametrize("m, n", AROUND_SHORT_WINDOW)
    def test_windows_around_the_short_limit(self, m, n):
        for a, b in _tiny_alphabet_pairs(m, n):
            assert similarity_ratio(a, b) == difflib_ratio(a, b), (a, b)

    def test_one_character_windows(self):
        for a, b in ONE_CHAR_WINDOW_PAIRS:
            assert similarity_ratio(a, b) == difflib_ratio(a, b), (a, b)

    @given(st.text(alphabet="ab", max_size=40), st.text(alphabet="ab", max_size=40))
    @settings(max_examples=300)
    def test_two_letter_ties(self, a, b):
        # a small alphabet makes many equally long blocks: the tie-break decides M
        assert similarity_ratio(a, b) == difflib_ratio(a, b)


class TestSimilarityBelow:
    """The early-exit check answers exactly ``similarity_ratio(a, b) < t``."""

    @given(
        st.one_of(
            st.tuples(st.text(alphabet="abc", max_size=12), st.text(alphabet="abc", max_size=12)),
            spanish_pairs(),
        ),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_pairs_and_thresholds(self, pair, threshold):
        a, b = pair
        assert similarity_below(a, b, threshold) == (similarity_ratio(a, b) < threshold)

    @given(st.text(alphabet="abcó", max_size=20), st.text(alphabet="abcó", max_size=20))
    @settings(max_examples=200)
    def test_threshold_at_the_exact_ratio_and_the_ends(self, a, b):
        ratio = similarity_ratio(a, b)
        just_above = math.nextafter(ratio, math.inf)
        for threshold in (0.0, 1.0, ratio, just_above, math.nextafter(ratio, -math.inf)):
            assert similarity_below(a, b, threshold) == (ratio < threshold), threshold
        assert not similarity_below(a, b, ratio)
        assert similarity_below(a, b, just_above)

    @pytest.mark.parametrize("a, b", [("", ""), ("", "doce"), ("doce", ""), ("doce", "doce")])
    @pytest.mark.parametrize("threshold", [0.0, 0.5, 1.0])
    def test_empty_and_equal_sides(self, a, b, threshold):
        assert similarity_below(a, b, threshold) == (similarity_ratio(a, b) < threshold)

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_PAIRS))
    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.9])
    def test_adversarial_pairs(self, name, threshold):
        a, b = ADVERSARIAL_PAIRS[name]
        assert similarity_below(a, b, threshold) == (similarity_ratio(a, b) < threshold)

    @pytest.mark.parametrize("m, n", AROUND_SHORT_WINDOW)
    def test_windows_around_the_short_limit(self, m, n):
        for a, b in _tiny_alphabet_pairs(m, n):
            ratio = difflib_ratio(a, b)
            for threshold in (ratio, math.nextafter(ratio, math.inf), 0.5, 0.7):
                assert similarity_below(a, b, threshold) == (ratio < threshold), (a, b, threshold)

    def test_one_character_windows(self):
        for a, b in ONE_CHAR_WINDOW_PAIRS:
            ratio = difflib_ratio(a, b)
            for threshold in (ratio, math.nextafter(ratio, math.inf), 0.5):
                assert similarity_below(a, b, threshold) == (ratio < threshold), (a, b, threshold)


class TestFormatHunk:
    def test_stable_rendering(self):
        hunk = ChangeHunk("se mana", "semana", (9, 11), (9, 10), "replace")
        assert format_hunk(hunk) == "[9,11) replace 'se mana' -> 'semana'"
