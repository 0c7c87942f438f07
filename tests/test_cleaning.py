import re
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TOKEN_ALPHABET, build_cleaning_fixture
from histocr.cleaning import (
    REASON_DUPLICATE_OR_EMPTY,
    REASON_NON_ALPHABETIC,
    REASON_TOO_SHORT,
    TOKENIZERS,
    clean_corpus,
    count_split_tokens,
    count_tokens,
    non_alpha_ratio,
    word_tokens,
)
from histocr.records import CorpusRecord


def recs(*texts):
    return [CorpusRecord(id=f"t{i}", text=t) for i, t in enumerate(texts)]


# with these, a filter removes nothing: a ratio is never over 1, and only a
# text with no token at all has at most 0 tokens
NO_ALPHA_LIMIT = {"max_nonalpha": 1.0}
NO_LENGTH_LIMIT = {"min_tokens": 0}


class TestWordTokens:
    def test_letters_and_digits_runs(self):
        assert word_tokens("uno dos, tres; 45") == ["uno", "dos", "tres", "45"]

    def test_accented_letters_count(self):
        assert word_tokens("harà ménos ocasión") == ["harà", "ménos", "ocasión"]

    def test_empty(self):
        assert word_tokens("") == []


class TestDuplicatesAndEmpty:
    def test_duplicate_removed_first_kept(self):
        a, b, c = recs("textA", "textA", "textB")
        kept, removed, _ = clean_corpus([a, b, c], **NO_LENGTH_LIMIT)
        assert kept == [a, c]
        assert removed == [(b, REASON_DUPLICATE_OR_EMPTY)]

    def test_empty_and_whitespace_removed(self):
        e1, e2, a = recs("", "  ", "textA")
        kept, removed, _ = clean_corpus([e1, e2, a], **NO_LENGTH_LIMIT)
        assert kept == [a]
        assert removed == [(e1, REASON_DUPLICATE_OR_EMPTY), (e2, REASON_DUPLICATE_OR_EMPTY)]

    def test_all_unique_nothing_removed(self):
        records = recs("uno", "dos", "tres")
        kept, removed, _ = clean_corpus(records, **NO_LENGTH_LIMIT)
        assert kept == records
        assert removed == []

    def test_duplicate_matching_ignores_edge_whitespace(self):
        a, b = recs("textA", "  textA \n")
        kept, removed, _ = clean_corpus([a, b], **NO_LENGTH_LIMIT)
        assert kept == [a]
        assert removed == [(b, REASON_DUPLICATE_OR_EMPTY)]


class TestNonAlphabetic:
    def test_exact_half_is_kept(self):
        # 5 letters of 10 non-whitespace chars: not strictly over 50%
        (record,) = recs("12345 abcde")
        assert non_alpha_ratio(record.text) == 0.5
        kept, removed, _ = clean_corpus([record], **NO_LENGTH_LIMIT)
        assert kept == [record]

    def test_over_half_is_removed(self):
        # 6 non-letters of 10 non-whitespace chars, counted by hand
        (record,) = recs("123456 abcd")
        assert non_alpha_ratio(record.text) == 0.6
        kept, removed, _ = clean_corpus([record], **NO_LENGTH_LIMIT)
        assert removed == [(record, REASON_NON_ALPHABETIC)]

    def test_only_letters_kept(self):
        (record,) = recs("puro texto alfabético")
        assert clean_corpus([record], **NO_LENGTH_LIMIT)[0] == [record]

    def test_accents_and_enye_are_alphabetic(self):
        assert non_alpha_ratio("ñandú ménos") == 0.0

    def test_whitespace_in_denominator_flag(self):
        # "12345 abcde": 11 chars with the space, 6 non-alpha -> over 50%
        (record,) = recs("12345 abcde")
        kept, removed, _ = clean_corpus([record], count_whitespace=True, **NO_LENGTH_LIMIT)
        assert removed == [(record, REASON_NON_ALPHABETIC)]

    @settings(max_examples=300, deadline=None)
    @given(
        st.text(st.one_of(st.sampled_from("a ñ1.\x1c\xa0\u2028\t½²\u0301\u0327\u200b\n"), st.characters())),
        st.booleans(),
    )
    @example("", False)
    @example("", True)
    @example(" \x1c\xa0\u2028", False)
    @example("a\u0301½²", True)
    def test_matches_the_per_character_definition(self, text, count_whitespace):
        # the ratio counts each distinct character once; the definition walks every character
        chars = text if count_whitespace else [c for c in text if not c.isspace()]
        expected = sum(1 for c in chars if not c.isalpha()) / len(chars) if chars else 0.0
        assert non_alpha_ratio(text, count_whitespace) == expected


class TestShortRows:
    def test_four_tokens_removed(self):
        (record,) = recs("uno dos tres cuatro")
        kept, removed, _ = clean_corpus([record])
        assert removed == [(record, REASON_TOO_SHORT)]

    def test_five_tokens_kept(self):
        (record,) = recs("uno dos tres cuatro cinco")
        kept, removed, _ = clean_corpus([record])
        assert kept == [record]

    def test_empty_text_removed(self):
        # an empty text takes the first reason; a text with no token left for
        # the short filter is removed even when no token count is too few
        empty, tokenless = recs("", "¡... ;!")
        kept, removed, _ = clean_corpus([empty, tokenless], **NO_ALPHA_LIMIT, **NO_LENGTH_LIMIT)
        assert kept == []
        assert removed == [(empty, REASON_DUPLICATE_OR_EMPTY), (tokenless, REASON_TOO_SHORT)]

    def test_custom_tokenizer(self):
        (record,) = recs("a-b-c-d-e")
        kept, _, _ = clean_corpus([record], tokenizer=lambda t: t.split("-"))
        assert kept == [record]
        # one whitespace token
        assert clean_corpus([record], tokenizer=str.split)[1] == [(record, REASON_TOO_SHORT)]

    def test_min_tokens_validation(self):
        for records in (recs("x"), []):
            with pytest.raises(ValueError):
                clean_corpus(records, min_tokens=-1)


class TestCountTokens:
    @given(st.text(TOKEN_ALPHABET, max_size=40), st.integers(0, 6))
    @settings(max_examples=400, deadline=None)
    @example("a b c d e\u3000", 4)
    @example("\x1ca\x1db\x1ec\x1fd\x85e\xa0", 4)
    @example("a_b\u0301c\u2028d\u200be", 4)
    @example("aZ ñ7", 0)
    def test_the_short_verdict_is_the_token_list_length(self, text, min_tokens):
        # one @given test over both tokenizers: see conftest.pytest_pycollect_makeitem
        (record,) = recs(text)
        for name, tokenizer in TOKENIZERS.items():
            count = len(tokenizer(text))
            assert count_tokens(text, tokenizer) == count, name
            assert count_tokens(text, tokenizer, min_tokens + 1) == min(count, min_tokens + 1), name
            kept, removed, _ = clean_corpus([record], min_tokens=min_tokens, tokenizer=tokenizer, **NO_ALPHA_LIMIT)
            # a text with no token at all may go first as empty; any other is short exactly when counted so
            assert (kept == []) == (count <= min_tokens), name
            if text.strip():
                assert [reason for _, reason in removed] == [REASON_TOO_SHORT] * (count <= min_tokens), name

    def test_a_long_record_builds_no_token_list(self):
        # 1,000,000 ASCII characters in 166,667 tokens: the token list alone would take several MB.
        # Only the default tokenizer has a counting path; whitespace builds its list.
        (record,) = recs("abcde " * 166_666 + "abcd")
        tracemalloc.start()
        try:
            kept, _, _ = clean_corpus([record], tokenizer=TOKENIZERS["unicode_words"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kept == [record]
        assert peak < 2_000_000, peak



class TestCountSplitTokens:
    """The three facts that let a token count read only the whitespace words, over every code point."""

    CODE_POINTS = "".join(map(chr, range(sys.maxunicode + 1)))

    def test_isalnum_is_exactly_the_token_class(self):
        assert re.findall(r"[^\W_]", self.CODE_POINTS) == [c for c in self.CODE_POINTS if c.isalnum()]

    def test_no_whitespace_character_is_alphanumeric(self):
        assert not [c for c in self.CODE_POINTS if c.isspace() and c.isalnum()]

    def test_split_splits_at_exactly_the_whitespace_characters(self):
        # each code point stands alone between two letters, so each whitespace one is a cut of its own
        text = "a".join(self.CODE_POINTS)
        spaces = sum(map(str.isspace, self.CODE_POINTS))
        words = text.split()
        assert len(words) == spaces + 1
        assert "".join(words) == "".join(c for c in text if not c.isspace())

    @given(st.text(TOKEN_ALPHABET, max_size=40))
    @settings(max_examples=200, deadline=None)
    @example("a,b c_d \u0301e")
    def test_equals_count_tokens(self, text):
        for name, tokenizer in TOKENIZERS.items():
            assert count_split_tokens(text, text.split(), tokenizer) == count_tokens(text, tokenizer), name
        # any other tokenizer reads the text itself
        assert count_split_tokens(text, [], list) == len(text)

class TestCleanCorpus:
    def test_fixture_composition(self):
        records, expected = build_cleaning_fixture()
        kept, removed, report = clean_corpus(records)
        assert report["total_rows"] == expected["total_rows"]
        assert report["removed_duplicate_or_empty"] == expected["removed_duplicate_or_empty"]
        assert report["removed_non_alpha"] == expected["removed_non_alpha"]
        assert report["removed_short"] == expected["removed_short"]
        assert report["surviving"] == expected["surviving"]
        assert len(kept) == expected["surviving"]
        # the 50% boundary row survived
        assert any(r.text == "1234 abc 567 de fg" for r in kept)

    def test_partition_invariant(self):
        records, _ = build_cleaning_fixture()
        kept, removed, report = clean_corpus(records)
        assert len(kept) + len(removed) == len(records)
        assert report["surviving"] + report["removed_duplicate_or_empty"] + \
            report["removed_non_alpha"] + report["removed_short"] == report["total_rows"]

    def test_percentages(self):
        records, _ = build_cleaning_fixture()
        _, _, report = clean_corpus(records)
        assert report["pct_duplicate_or_empty"] == pytest.approx(15.0)
        assert report["pct_non_alpha"] == pytest.approx(8.0)
        assert report["pct_short"] == pytest.approx(6.0)
        for name in ("pct_duplicate_or_empty", "pct_non_alpha", "pct_short"):
            assert 0.0 <= report[name] <= 100.0

    def test_removal_reasons(self):
        records, _ = build_cleaning_fixture()
        _, removed, _ = clean_corpus(records)
        reasons = {reason for _, reason in removed}
        assert reasons == {"duplicate_or_empty", "non_alphabetic", "too_short"}

    def test_empty_input(self):
        kept, removed, report = clean_corpus([])
        assert (kept, removed) == ([], [])
        assert report["total_rows"] == 0
        assert report["pct_short"] == 0.0

    @given(st.lists(st.text(alphabet="ab1 ", max_size=12), max_size=20), st.integers(0, 4))
    @settings(max_examples=100)
    def test_filters_idempotent(self, texts, min_tokens):
        kept_once, _, _ = clean_corpus(recs(*texts), min_tokens=min_tokens)
        kept_twice, removed_second, _ = clean_corpus(kept_once, min_tokens=min_tokens)
        assert kept_twice == kept_once
        assert removed_second == []


def sequential_filters(records, min_tokens, max_nonalpha, count_whitespace, tokenizer):
    """The three filters one after another, each over the survivors of the
    one before, as :func:`clean_corpus` ran them before it took one pass."""
    seen, kept, dup = set(), [], []
    for record in records:
        trimmed = record.text.strip()
        if not trimmed or trimmed in seen:
            dup.append(record)
        else:
            seen.add(trimmed)
            kept.append(record)
    alpha = [r for r in kept if non_alpha_ratio(r.text, count_whitespace) > max_nonalpha]
    kept = [r for r in kept if r not in alpha]
    short = [r for r in kept if len(tokenizer(r.text)) <= min_tokens]
    kept = [r for r in kept if r not in short]
    removed = (
        [(r, REASON_DUPLICATE_OR_EMPTY) for r in dup]
        + [(r, REASON_NON_ALPHABETIC) for r in alpha]
        + [(r, REASON_TOO_SHORT) for r in short]
    )
    total = len(records)
    pct = [100.0 * len(rows) / total if total else 0.0 for rows in (dup, alpha, short)]
    report = {
        "total_rows": total,
        "removed_duplicate_or_empty": len(dup),
        "pct_duplicate_or_empty": pct[0],
        "removed_non_alpha": len(alpha),
        "pct_non_alpha": pct[1],
        "removed_short": len(short),
        "pct_short": pct[2],
        "surviving": len(kept),
    }
    return kept, removed, report


BASE_TEXTS = [
    "", " ", "\t\n", "uno", "uno dos tres cuatro", "uno dos tres cuatro cinco", "12345 abcde",
    "123456 abcd", "1234 abc 567 de fg", "¡... ;!", "a-b-c-d-e", "ñandú ménos ocasión harà",
    "111 222 333 444 555 aa", "cinco palabras bien formadas aquí",
]
EDGE = st.sampled_from(["", " ", "\n", " \t"])
CORPUS_TEXT = st.builds(
    lambda lead, text, trail: lead + text + trail,
    EDGE, st.one_of(st.sampled_from(BASE_TEXTS), st.text(alphabet="ab ñ1.,\t\xa0", max_size=16)), EDGE,
)


class TestOnePassMatchesSequentialFilters:
    @given(
        st.lists(CORPUS_TEXT, max_size=25),
        st.integers(0, 6),
        st.sampled_from([0.0, 0.25, 0.4, 0.5, 0.6, 0.75, 1.0]),
        st.booleans(),
        st.sampled_from(sorted(TOKENIZERS)),
    )
    @settings(max_examples=400, deadline=None)
    def test_same_survivors_removals_and_report(self, texts, min_tokens, max_nonalpha, count_whitespace, tokenizer):
        records = recs(*texts)
        args = min_tokens, max_nonalpha, count_whitespace, TOKENIZERS[tokenizer]
        assert clean_corpus(records, *args) == sequential_filters(records, *args)

    def test_fixture_matches(self):
        records, _ = build_cleaning_fixture()
        args = 4, 0.5, False, TOKENIZERS["unicode_words"]
        assert clean_corpus(records, *args) == sequential_filters(records, *args)
