import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import build_cleaning_fixture
from histocr.cleaning import (
    clean_corpus,
    filter_duplicates_and_empty,
    filter_non_alphabetic,
    filter_short,
    non_alpha_ratio,
    word_tokens,
)
from histocr.records import CorpusRecord


def recs(*texts):
    return [CorpusRecord(id=f"t{i}", text=t) for i, t in enumerate(texts)]


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
        kept, removed = filter_duplicates_and_empty([a, b, c])
        assert kept == [a, c]
        assert removed == [b]

    def test_empty_and_whitespace_removed(self):
        e1, e2, a = recs("", "  ", "textA")
        kept, removed = filter_duplicates_and_empty([e1, e2, a])
        assert kept == [a]
        assert removed == [e1, e2]

    def test_all_unique_nothing_removed(self):
        records = recs("uno", "dos", "tres")
        kept, removed = filter_duplicates_and_empty(records)
        assert kept == records
        assert removed == []

    def test_duplicate_matching_ignores_edge_whitespace(self):
        a, b = recs("textA", "  textA \n")
        kept, removed = filter_duplicates_and_empty([a, b])
        assert kept == [a]
        assert removed == [b]


class TestNonAlphabetic:
    def test_exact_half_is_kept(self):
        # 5 letters of 10 non-whitespace chars: not strictly over 50%
        (record,) = recs("12345 abcde")
        assert non_alpha_ratio(record.text) == 0.5
        kept, removed = filter_non_alphabetic([record])
        assert kept == [record]

    def test_over_half_is_removed(self):
        # 6 non-letters of 10 non-whitespace chars, counted by hand
        (record,) = recs("123456 abcd")
        assert non_alpha_ratio(record.text) == 0.6
        kept, removed = filter_non_alphabetic([record])
        assert removed == [record]

    def test_only_letters_kept(self):
        (record,) = recs("puro texto alfabético")
        assert filter_non_alphabetic([record])[0] == [record]

    def test_accents_and_enye_are_alphabetic(self):
        assert non_alpha_ratio("ñandú ménos") == 0.0

    def test_whitespace_in_denominator_flag(self):
        # "12345 abcde": 11 chars with the space, 6 non-alpha -> over 50%
        (record,) = recs("12345 abcde")
        kept, removed = filter_non_alphabetic([record], count_whitespace=True)
        assert removed == [record]

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
        kept, removed = filter_short([record])
        assert removed == [record]

    def test_five_tokens_kept(self):
        (record,) = recs("uno dos tres cuatro cinco")
        kept, removed = filter_short([record])
        assert kept == [record]

    def test_empty_text_removed(self):
        (record,) = recs("")
        assert filter_short([record])[1] == [record]

    def test_custom_tokenizer(self):
        (record,) = recs("a-b-c-d-e")
        kept, _ = filter_short([record], tokenizer=lambda t: t.split("-"))
        assert kept == [record]

    def test_min_tokens_validation(self):
        with pytest.raises(ValueError):
            filter_short(recs("x"), min_tokens=-1)


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

    @given(st.lists(st.text(alphabet="ab1 ", max_size=12), max_size=20))
    @settings(max_examples=100)
    def test_filters_idempotent(self, texts):
        records = recs(*texts)
        for filt in (
            filter_duplicates_and_empty,
            filter_non_alphabetic,
            filter_short,
        ):
            kept_once, _ = filt(records)
            kept_twice, removed_second = filt(kept_once)
            assert kept_twice == kept_once
            assert removed_second == []
