import hashlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GOLDEN_CORRECTED, GOLDEN_ORIGINAL
from histocr import classify
from histocr.classify import (
    HALLUCINATION,
    OCR_ERROR,
    SURFACE_FORM,
    ClassifierConfig,
    aggregate_frequencies,
    apply_frequency_promotion,
    classify_hunks,
    classify_pair,
    default_rules,
    load_rules,
    normalize_segment,
    strip_accents,
)
from histocr.classify import (
    _MAX_DP_CELLS,
    _MAX_GROUP,
    RuleTable,
    SubstitutionRule,
    _align_groups,
    _letters_fit,
    _match_enclitic,
    _match_substitutions,
)
from histocr.diffing import ChangeHunk, diff_words, similarity_ratio, tokenize_words


@pytest.fixture(scope="module")
def rules():
    return default_rules()


@pytest.fixture(scope="module")
def config():
    return ClassifierConfig()


class TestStripAccents:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("ménos", "menos"),
            ("harà", "hara"),
            ("señor", "señor"),  # ñ is a distinct letter, not an accent
            ("güero", "güero"),  # ü likewise
            ("ÁRBOL à", "ARBOL a"),
            ("decia", "decia"),
        ],
    )
    def test_examples(self, text, expected):
        assert strip_accents(text) == expected


class TestNormalize:
    def test_lowercases_and_strips_edge_punctuation(self):
        assert normalize_segment("Periodico.") == "periodico"
        assert normalize_segment("Periódico.") == "periódico"

    def test_uppercase(self):
        assert normalize_segment("MUI") == "mui"

    def test_already_normalized(self):
        assert normalize_segment("hará") == "hará"

    def test_interior_punctuation_preserved(self):
        assert normalize_segment("¡«D'Artagnan!»") == "d'artagnan"

    def test_pure_punctuation_words_dropped(self):
        assert normalize_segment("cuarto ;") == "cuarto"

    def test_every_alphanumeric_code_point_only_lowercases(self):
        # the plain-word path returns ``lower()`` on this fact, checked
        # against the running interpreter's Unicode tables
        changed = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isalnum() and slow_normalize(c) != c.lower()]
        assert changed == []

    @given(st.text(st.one_of(st.sampled_from("ΣσςİıIi0٣²"), st.characters().filter(str.isalnum)), min_size=1))
    @settings(max_examples=300, deadline=None)
    def test_plain_words_keep_the_slow_form(self, word):
        # a final sigma depends on its neighbours, so whole words are drawn too
        assert word.isalnum()
        assert normalize_segment(word) == slow_normalize(word) == word.lower()


def slow_normalize(segment):
    """``normalize_segment`` without its plain-word path: split, then strip each word's edges."""
    words = [classify._strip_edge_punctuation(w) for w in segment.lower().split()]
    return " ".join(w for w in words if w)


CASCADE_CASES = [
    # (original, corrected, label, rule)
    ("hara", "hará", SURFACE_FORM, "accent_only"),
    ("mui", "muy", SURFACE_FORM, "table_i_y"),
    ("jeneral", "general", SURFACE_FORM, "table_j_g"),
    ("in", "la", OCR_ERROR, "equal_length"),
    ("sefor", "señor", OCR_ERROR, "equal_length"),
    ("senor", "señor", SURFACE_FORM, "table_n_ñ"),
    ("ascripeión", "suscripción", OCR_ERROR, "ratio_threshold"),
    ("que", "como", HALLUCINATION, "ratio_threshold"),
    ("cambiólo", "lo cambió", SURFACE_FORM, "enclitic_lo"),
    ("acercóse", "se acercó", SURFACE_FORM, "enclitic_se"),
    ("se mana", "semana", OCR_ERROR, "ratio_threshold"),
    ("urjía", "urgía", SURFACE_FORM, "table_j_g"),
    ("6rden", "órden", OCR_ERROR, "ocr_confusion_table"),
    ("1nforme", "informe", OCR_ERROR, "ocr_confusion_table"),
    ("cuarto ;", "cuarto;", OCR_ERROR, "punctuation_spacing"),
]


class TestCascade:
    @pytest.mark.parametrize("original,corrected,label,rule", CASCADE_CASES)
    def test_examples(self, rules, config, original, corrected, label, rule):
        got = classify_pair(original, corrected, rules, config)
        assert got.label == label
        assert got.rule == rule

    def test_cascade_order_substitution_before_equal_length(self, rules, config):
        # same letter count, but the substitution table must fire first
        got = classify_pair("senor", "señor", rules, config)
        assert got.rule == "table_n_ñ"
        assert got.rule != "equal_length"

    def test_enclitic_shape_with_another_stem_is_no_enclitic(self, rules, config):
        # "se" moved in front, but "acercó" became "acerca": the ratio decides
        assert _match_enclitic("acercóse", "se acerca", rules.enclitic_pronouns) is None
        got = classify_pair("acercóse", "se acerca", rules, config)
        assert (got.label, got.rule) == (OCR_ERROR, "ratio_threshold")

    def test_accent_only_flag_implies_surface_form(self, rules, config):
        got = classify_pair("ocasion", "ocasión", rules, config)
        assert got.accent_only is True
        assert got.label == SURFACE_FORM
        assert got.rule == "accent_only"

    def test_non_accent_pairs_do_not_carry_flag(self, rules, config):
        got = classify_pair("mui", "muy", rules, config)
        assert got.accent_only is False

    def test_insert_is_hallucination(self, rules, config):
        hunk = ChangeHunk("", "nueva", (3, 3), (3, 4), "insert")
        (got,) = classify_hunks([hunk], rules, config)
        assert got.label == HALLUCINATION
        assert got.rule == "insert_delete"

    def test_delete_is_hallucination(self, rules, config):
        hunk = ChangeHunk("vieja", "", (3, 4), (3, 3), "delete")
        (got,) = classify_hunks([hunk], rules, config)
        assert got.label == HALLUCINATION
        assert got.rule == "insert_delete"

    def test_ratio_stage_strips_accents_first(self, rules, config):
        # raw ratio of "à mas"/"además" is 0.36; stripped it is 0.727
        got = classify_pair("à mas", "además", rules, config)
        assert got.label == OCR_ERROR
        assert got.ratio == pytest.approx(8 / 11, abs=1e-9)

    def test_ratio_above_threshold_but_too_many_words(self, rules, config):
        # a close match whose corrected side exceeds the word budget
        got = classify_pair(
            "campanario de la torre vieja", "el campanario de la torre vieja", rules, config
        )
        assert len(got.corrected.split()) > config.max_corrected_words
        assert got.label == HALLUCINATION

    def test_multiple_rule_applications_of_one_rule(self, rules, config):
        # two independent i->y substitutions in one word
        got = classify_pair("misterioso", "mysteryoso", rules, config)
        assert got.label == SURFACE_FORM
        assert got.rule == "table_i_y"

    def test_combined_distinct_rules_join_ids(self, rules, config):
        got = classify_pair("suscriciones", "subscripciones", rules, config)
        assert got.label == SURFACE_FORM
        assert set(got.rule.split("+")) == {"table_s_bs", "table_c_pc"}

    def test_accent_plus_substitution_combo(self, rules, config):
        # gravàdo -> grabado: accent change plus v->b in one word
        got = classify_pair("gravàdo", "grabado", rules, config)
        assert got.label == SURFACE_FORM
        assert got.rule == "table_v_b"

    def test_every_pair_gets_exactly_one_label(self, rules, config):
        for original, corrected, _, _ in CASCADE_CASES:
            got = classify_pair(original, corrected, rules, config)
            assert got.label in (SURFACE_FORM, OCR_ERROR, HALLUCINATION)

    @given(
        st.text(alphabet="abcdeíóñ ", min_size=1, max_size=12),
        st.text(alphabet="abcdeíóñ ", min_size=1, max_size=12),
    )
    @settings(max_examples=300)
    def test_totality_on_random_pairs(self, original, corrected):
        got = classify_pair(original, corrected, default_rules(), ClassifierConfig())
        assert got.label in (SURFACE_FORM, OCR_ERROR, HALLUCINATION)


class TestRuleTableSelfTest:
    def test_all_example_rows_classify_with_their_rule(self, rules, config):
        assert len(rules.surface_rows) == 27
        for row in rules.example_rows:
            got = classify_pair(row.example[0], row.example[1], rules, config)
            assert got.label == row.label, f"{row.rule_id}: {row.example} got {got.label}"
            fired = set(got.rule.split("+"))
            assert row.rule_id in fired, f"{row.rule_id}: {row.example} fired {got.rule}"

    def test_loader_round_trip(self, tmp_path, rules):
        path = tmp_path / "rules.tsv"
        lines = ["# test copy"]
        for row in rules.example_rows:
            lines.append(
                "\t".join(
                    [row.rule_id, row.historical, row.modern, row.direction,
                     row.example[0], row.example[1], row.label]
                )
            )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        reloaded = load_rules(path)
        assert reloaded.surface_rows == rules.surface_rows
        assert reloaded.confusion_rows == rules.confusion_rows

    def test_loader_rejects_malformed_rows(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("only_three\tfields\there\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected 7"):
            load_rules(path)

    @pytest.mark.parametrize(
        "direction, label, message",
        [
            ("both_ways", "surface_form", "rules.tsv:2: unknown direction 'both_ways'"),
            ("two_way", "modern_form", "rules.tsv:2: unknown label 'modern_form'"),
        ],
    )
    def test_loader_rejects_unknown_direction_and_label(self, tmp_path, direction, label, message):
        path = tmp_path / "rules.tsv"
        path.write_text(f"# rules\nr1\tj\tg\t{direction}\tjeneral\tgeneral\t{label}\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            load_rules(path)
        assert str(exc.value) == f"{tmp_path}/{message}"


class TestDecomposition:
    def classify_texts(self, original, corrected, rules, config):
        hunks = diff_words(tokenize_words(original), tokenize_words(corrected))
        return classify_hunks(hunks, rules, config)

    def test_equal_count_hunk_splits_word_by_word(self, rules, config):
        got = self.classify_texts("la sesion á las", "la sesión a las", rules, config)
        assert [(c.original, c.corrected, c.rule) for c in got] == [
            ("sesion", "sesión", "accent_only"),
            ("á", "a", "accent_only"),
        ]

    def test_punctuation_token_folds_into_preceding_group(self, rules, config):
        got = self.classify_texts(
            "la Asamblea anterior , ménos en lo", "la Asamblea anterior, menos en lo",
            rules, config,
        )
        assert [(c.original_raw, c.corrected_raw, c.label, c.rule) for c in got] == [
            ("anterior ,", "anterior,", OCR_ERROR, "punctuation_spacing"),
            ("ménos", "menos", SURFACE_FORM, "accent_only"),
        ]

    def test_mixed_labels_inside_one_merged_hunk(self, rules, config):
        got = self.classify_texts(
            "en mejor ocasion. En seguida se dió", "en mejor ocasión. Enseguida se dio",
            rules, config,
        )
        by_pair = {(c.original, c.corrected): c.label for c in got}
        assert by_pair[("ocasion", "ocasión")] == SURFACE_FORM
        assert by_pair[("en seguida", "enseguida")] == OCR_ERROR
        assert by_pair[("dió", "dio")] == SURFACE_FORM

    def test_space_merge_stays_whole(self, rules, config):
        got = self.classify_texts("cada se mana, y", "cada semana, y", rules, config)
        assert len(got) == 1
        assert got[0].original == "se mana"
        assert got[0].label == OCR_ERROR

    def test_sub_corrections_carry_absolute_spans(self, rules, config):
        original = "uno dos tres sesion á seis"
        got = self.classify_texts(original, "uno dos tres sesión a seis", rules, config)
        words = tokenize_words(original)
        for corr in got:
            start, end = corr.original_span
            assert " ".join(words[start:end]) == corr.original_raw


def reference_align_groups(o_words, c_words):
    """The decomposition DP without pruning: every candidate gets its ratio.

    It normalizes each group string itself, from the raw words, rather than
    sharing the per-word forms the classifier builds.
    """
    o_core = [i for i, w in enumerate(o_words) if normalize_segment(w)]
    c_core = [i for i, w in enumerate(c_words) if normalize_segment(w)]
    n, m = len(o_core), len(c_core)
    if n == 0 or m == 0 or n * m > _MAX_DP_CELLS:
        return None
    best = {(0, 0): (0.0, 0, None)}
    for i in range(n + 1):
        for j in range(m + 1):
            here = best.get((i, j))
            if here is None:
                continue
            score, groups, _ = here
            for di in range(1, min(_MAX_GROUP, n - i) + 1):
                o_text = strip_accents(normalize_segment(" ".join(o_words[k] for k in o_core[i : i + di])))
                for dj in range(1, min(_MAX_GROUP, m - j) + 1):
                    c_text = strip_accents(normalize_segment(" ".join(c_words[k] for k in c_core[j : j + dj])))
                    cand = (score + similarity_ratio(o_text, c_text), groups + 1, (i, j))
                    prev = best.get((i + di, j + dj))
                    if prev is None or cand[:2] > prev[:2]:
                        best[(i + di, j + dj)] = cand
    if (n, m) not in best:
        return None
    bounds = []
    state = (n, m)
    while state is not None and state != (0, 0):
        bounds.append(state)
        state = best[state][2]
    bounds.append((0, 0))
    bounds.reverse()
    if len(bounds) <= 2:
        return None
    spans = []
    for idx in range(len(bounds) - 1):
        ci, cj = bounds[idx]
        ni, nj = bounds[idx + 1]
        o_start = 0 if idx == 0 else o_core[ci]
        o_end = o_core[ni] if ni < n else len(o_words)
        c_start = 0 if idx == 0 else c_core[cj]
        c_end = c_core[nj] if nj < m else len(c_words)
        spans.append(((o_start, o_end), (c_start, c_end)))
    return spans


GOLDEN_WORDS = sorted(set(GOLDEN_ORIGINAL.split()) | set(GOLDEN_CORRECTED.split()))
PUNCTUATION_TOKENS = [",", ".", ";", "-", "¿", "\"."]
# few short words, drawn again and again, give groups of equal score
REPEATED_WORDS = ["a", "b", "ab", "ba", "aa", "à", "de", "la"]
DP_TOKEN = st.one_of(
    st.sampled_from(GOLDEN_WORDS), st.sampled_from(PUNCTUATION_TOKENS), st.sampled_from(REPEATED_WORDS)
)
DP_SIDE = st.lists(DP_TOKEN, min_size=1, max_size=24)
TIE_SIDE = st.lists(st.sampled_from(REPEATED_WORDS[:6] + [","]), min_size=1, max_size=8)


# content-heavy sides of 17-21 tokens reach the 20 x 20 cell cap and pass it
LARGE_SIDE = st.lists(st.sampled_from(GOLDEN_WORDS + REPEATED_WORDS), min_size=17, max_size=21)


@st.composite
def damaged_copy(draw, side=DP_SIDE, edits=("keep", "accents", "merge", "split", "drop", "insert")):
    """An original side and a corrected side made from it by word edits."""
    original = draw(side)
    corrected = []
    for word in original:
        edit = draw(st.sampled_from(edits))
        if edit == "accents":
            corrected.append(strip_accents(word))
        elif edit == "merge" and corrected:
            corrected[-1] += word
        elif edit == "split" and len(word) > 1:
            cut = draw(st.integers(1, len(word) - 1))
            corrected += [word[:cut], word[cut:]]
        elif edit == "insert":
            corrected += [draw(DP_TOKEN), word]
        elif edit != "drop":
            corrected.append(word)
    return original, corrected or [draw(DP_TOKEN)]


class TestAlignGroupsDP:
    """The pruned DP returns exactly the groups of the unpruned one."""

    @given(st.one_of(st.tuples(DP_SIDE, DP_SIDE), damaged_copy(), st.tuples(TIE_SIDE, TIE_SIDE)))
    @settings(max_examples=150, deadline=None)
    def test_matches_unpruned_reference(self, sides):
        o_words, c_words = sides
        assert _align_groups(o_words, c_words) == reference_align_groups(o_words, c_words)

    @given(st.one_of(st.tuples(LARGE_SIDE, LARGE_SIDE), damaged_copy(LARGE_SIDE)))
    @settings(max_examples=12, deadline=None)
    def test_matches_unpruned_reference_near_cell_cap(self, sides):
        o_words, c_words = sides
        assert _align_groups(o_words, c_words) == reference_align_groups(o_words, c_words)

    # most words merged or split: the greedy floor's walk and the optimum part ways
    @given(damaged_copy(LARGE_SIDE, edits=("merge", "split", "merge", "split", "accents", "keep")))
    @settings(max_examples=12, deadline=None)
    def test_matches_unpruned_reference_on_densely_damaged_runs(self, sides):
        o_words, c_words = sides
        assert _align_groups(o_words, c_words) == reference_align_groups(o_words, c_words)

    @pytest.mark.parametrize(
        "o_words, c_words",
        [
            (["sesion"], ["se", "sion", ","]),
            (["cada", "se", "mana", ",", "y"], ["cadasemanay"]),
            (["la", "sesion", "á", "las", "dore"], ["la"]),
            ([",", "."], ["la", "sesión"]),
            (["la", "sesion"], ["-", ";"]),
            ([",", "."], [";"]),
        ],
        ids=["1x2", "1x5", "5x1", "punct-original", "punct-corrected", "punct-both"],
    )
    def test_one_sided_shapes_do_not_decompose(self, o_words, c_words):
        assert _align_groups(o_words, c_words) is None
        assert reference_align_groups(o_words, c_words) is None

    def test_tie_goes_to_more_groups(self):
        # "aa ab b" -> "b a" as one group scores 0.4; "aa" -> "b" then
        # "ab b" -> "a" scores 0 + 0.4 in two groups. The second candidate's
        # bound equals the stored score, so it still gets its ratio and wins
        o_words, c_words = ["aa", "ab", "b"], ["b", "a"]
        expected = [((0, 1), (0, 1)), ((1, 3), (1, 2))]
        assert reference_align_groups(o_words, c_words) == expected
        assert _align_groups(o_words, c_words) == expected

    def test_path_scoring_the_floor_wins_on_more_groups(self):
        # the greedy walk takes "aa b" -> "ab", "ba" -> "ba", "ab" -> "aa b"
        # and "ba" -> "ba": 4 groups scoring 2/3 + 1 + 2/3 + 1. Word by word
        # scores 1/2 + 2/3 + 1/2 + 2/3 + 1, the same float, in 5 groups, so it
        # wins; its cells' bounds meet the floor exactly and must not be cut
        o_words, c_words = ["aa", "b", "ba", "ab", "ba"], ["ab", "ba", "aa", "b", "ba"]
        into = [classify._groups_into(words, list(range(5))) for words in (o_words, c_words)]
        assert classify._greedy_floor(*into) + classify._FLOOR_SLACK == sum(map(similarity_ratio, o_words, c_words))
        expected = [((k, k + 1), (k, k + 1)) for k in range(5)]
        assert reference_align_groups(o_words, c_words) == expected
        assert _align_groups(o_words, c_words) == expected

    def test_greedy_walk_that_cannot_finish_leaves_no_floor(self):
        # steps of at most two words per side leave 6 corrected words for the
        # last original one; groups of up to four words still decompose it
        o_words = ["ocasion", "enseguida", "leyose"]
        c_words = ["o", "ca", "sion", "en", "se", "gui", "da", "le", "yo", "se"]
        into = [classify._groups_into(words, list(range(len(words)))) for words in (o_words, c_words)]
        assert classify._greedy_floor(*into) == float("-inf")
        expected = [((0, 1), (0, 3)), ((1, 2), (3, 7)), ((2, 3), (7, 10))]
        assert reference_align_groups(o_words, c_words) == expected
        assert _align_groups(o_words, c_words) == expected

    def test_ratio_calls_pinned(self, monkeypatch):
        # which ratios the pruning computes, and in what order, is bookkeeping
        # that no result shows; pin both on one hunk of 19 x 16 words
        o_words = "ocasion. En seguida se leyó y aprobó la acta de la se sion anterior , y el Sr. Presidente".split()
        c_words = "ocasión. Enseguida se leyo y aprobo el acta de la sesión anterior, y el señor Presidente".split()
        calls = []
        monkeypatch.setattr(classify, "similarity_ratio", lambda a, b: calls.append((a, b)) or similarity_ratio(a, b))
        assert _align_groups(o_words, c_words) == reference_align_groups(o_words, c_words)
        assert len(calls) == 51
        assert hashlib.sha256(repr(calls).encode()).hexdigest() == "a345ce1603eb0005e903d95172845200adb7043852ba934c9682a1ea494e1aee"

    def test_cell_cap_edge(self):
        o_words = [w for w in GOLDEN_ORIGINAL.split() if normalize_segment(w)][:21]
        c_words = [w for w in GOLDEN_CORRECTED.split() if normalize_segment(w)][:20]
        assert 20 * 20 == _MAX_DP_CELLS
        got = _align_groups(o_words[:20], c_words)
        assert got is not None
        assert got == reference_align_groups(o_words[:20], c_words)
        # 21 x 20 content words is over the cap: the hunk classifies whole
        assert _align_groups(o_words, c_words) is None

    def test_tie_goes_to_earliest_source(self):
        # into cell (3, 2), "cc" -> "a" then "a cb" -> "a" (source (1, 1))
        # and "cc a" -> "a" then "cb" -> "a" (source (2, 1)) both score
        # 0.4 in two groups. Source (2, 1) has the higher bound (0.4 + 2/3),
        # so it is tried first; source (1, 1)'s bound only equals the tied
        # score, so it still gets its ratio, and as the earlier source it wins
        o_words, c_words = ["cc", "a", "cb"], ["a", "a"]
        expected = [((0, 1), (0, 1)), ((1, 3), (1, 2))]
        assert reference_align_groups(o_words, c_words) == expected
        assert _align_groups(o_words, c_words) == expected

    def test_best_bound_first_skips_most_ratios(self, monkeypatch):
        # the 20 x 20 hunk of test_cell_cap_edge; visiting the sources in
        # row-major order and skipping only the candidates whose bound falls
        # below the score already at their target took 1,730 ratios
        o_words = [w for w in GOLDEN_ORIGINAL.split() if normalize_segment(w)][:20]
        c_words = [w for w in GOLDEN_CORRECTED.split() if normalize_segment(w)][:20]
        calls = []

        def counting_ratio(a, b):
            calls.append((a, b))
            return similarity_ratio(a, b)

        monkeypatch.setattr(classify, "similarity_ratio", counting_ratio)
        assert _align_groups(o_words, c_words) == reference_align_groups(o_words, c_words)
        assert len(calls) < 1730

    @pytest.mark.parametrize(
        "o_words, c_words",
        [
            (["sesion"], ["se", "sion", ","]),
            (["sesion", ","], ["la", "se", "sion", "á", "las"]),
            (["cada", "se", "mana", ",", "y"], ["cadasemanay"]),
            (["la", ",", "sesion"], [".", "la"]),
        ],
    )
    def test_single_content_word_side_computes_no_ratio(self, monkeypatch, o_words, c_words):
        # one content word on a side admits only the whole hunk as a grouping
        calls = []
        monkeypatch.setattr(classify, "similarity_ratio", lambda a, b: calls.append((a, b)) or 0.0)
        assert _align_groups(o_words, c_words) is None
        assert calls == []
        monkeypatch.undo()
        assert reference_align_groups(o_words, c_words) is None


# upper-case Greek: lower-casing writes a final sigma at a word's end only
GREEK_WORDS = ["ΟΔΟΣ", "ΟΔΟΣ.", "Σ", "ΑΣ'", "«ΟΣ»"]
CASED_SIDE = st.lists(st.one_of(DP_TOKEN, st.sampled_from(GREEK_WORDS)), min_size=1, max_size=12)


class TestHunkNormalization:
    """``classify_hunks`` normalizes each word once; every correction it
    returns is the one ``classify_pair`` gives for the same raw pair."""

    @given(damaged_copy(CASED_SIDE))
    @settings(max_examples=150, deadline=None)
    def test_corrections_match_classify_pair(self, rules, config, sides):
        o_words, c_words = sides
        got = classify_hunks(diff_words(o_words, c_words), rules, config)
        for corr in got:
            if corr.rule != "insert_delete":
                again = classify_pair(
                    corr.original_raw, corr.corrected_raw, rules, config, corr.original_span, corr.corrected_span
                )
                assert again == corr

    def test_whole_hunk_keeps_its_spans(self, rules, config):
        hunk = ChangeHunk("Se Mana,", "semana,", (4, 6), (4, 5), "replace")
        (got,) = classify_hunks([hunk], rules, config)
        assert got == classify_pair(
            hunk.original_segment, hunk.corrected_segment, rules, config, hunk.original_span, hunk.corrected_span
        )
        assert (got.original, got.corrected) == ("se mana", "semana")


def linear_match_substitutions(original, corrected, rules):
    """The substitution matcher as it was before the rule table was indexed:
    every rule's expansions are scanned, in table order, at every step."""
    if original == corrected:
        return None
    expansions = [(o, c, r.rule_id) for r in rules for o, c in r.expansions()]
    dead = set()

    def walk(i, j):
        if (i, j) in dead:
            return None
        if i == len(original) and j == len(corrected):
            return ()
        if i < len(original) and j < len(corrected) and original[i] == corrected[j]:
            found = walk(i + 1, j + 1)
            if found is not None:
                return found
        for pat_o, pat_c, rule_id in expansions:
            if original.startswith(pat_o, i) and corrected.startswith(pat_c, j):
                found = walk(i + len(pat_o), j + len(pat_c))
                if found is not None:
                    return found if rule_id in found else (rule_id,) + found
        dead.add((i, j))
        return None

    used = walk(0, 0)
    if not used:
        return None
    return tuple(sorted(set(used)))


def _row(rule_id, historical, modern, direction="one_way"):
    return SubstitutionRule(rule_id, historical, modern, direction, ("", ""), SURFACE_FORM)


# multi-character, overlapping and backtracking patterns, and one with an
# empty original side
CUSTOM_ROWS = (
    _row("r_rr", "r", "rr", "two_way"),
    _row("n_ñ", "n", "ñ"),
    _row("ni_ñ", "ni", "ñ"),
    _row("rn_m", "rn", "m", "two_way"),
    _row("insert_h", "", "h"),
    _row("ou_u", "ou", "u"),
)
CUSTOM_TABLE = RuleTable(CUSTOM_ROWS, CUSTOM_ROWS)
SHIPPED_TABLE = default_rules()


@st.composite
def rule_pairs(draw, rows):
    """A pair that the rows explain, or nearly: pattern pairs between
    literal characters, sometimes with one stray edit."""
    expansions = [(o, c) for r in rows for o, c in r.expansions()]
    letters = sorted({ch for o, c in expansions for ch in o + c} | set("aeo"))
    original, corrected = "", ""
    for _ in range(draw(st.integers(0, 8))):
        if expansions and draw(st.booleans()):
            pat_o, pat_c = draw(st.sampled_from(expansions))
            original, corrected = original + pat_o, corrected + pat_c
        else:
            ch = draw(st.sampled_from(letters))
            original, corrected = original + ch, corrected + ch
    if draw(st.integers(0, 3)) == 0:
        corrected += draw(st.sampled_from(letters))
    return original, corrected


def letter_pairs(letters):
    return st.tuples(st.text(letters, max_size=8), st.text(letters, max_size=8))


class TestIndexedMatcher:
    """The matcher over the first-character index returns what the linear
    scan over the table returns, ``None`` included."""

    @given(st.one_of(rule_pairs(SHIPPED_TABLE.substitutions), letter_pairs("aeinsyjgvbxcktpqu")))
    @settings(max_examples=200, deadline=None)
    def test_shipped_substitutions(self, pair):
        original, corrected = pair
        expected = linear_match_substitutions(original, corrected, SHIPPED_TABLE.substitutions)
        assert _match_substitutions(original, corrected, SHIPPED_TABLE.substitution_expansions) == expected

    @given(st.one_of(rule_pairs(SHIPPED_TABLE.confusion_rows), letter_pairs("rnm6ó1i0o")))
    @settings(max_examples=200, deadline=None)
    def test_shipped_confusions(self, pair):
        original, corrected = pair
        expected = linear_match_substitutions(original, corrected, SHIPPED_TABLE.confusion_rows)
        assert _match_substitutions(original, corrected, SHIPPED_TABLE.confusion_expansions) == expected

    @given(st.one_of(rule_pairs(CUSTOM_ROWS), letter_pairs("rnmñihou")))
    @settings(max_examples=300, deadline=None)
    def test_custom_table(self, pair):
        original, corrected = pair
        for rows, expansions in (
            (CUSTOM_TABLE.substitutions, CUSTOM_TABLE.substitution_expansions),
            (CUSTOM_TABLE.confusion_rows, CUSTOM_TABLE.confusion_expansions),
        ):
            assert _match_substitutions(original, corrected, expansions) == linear_match_substitutions(
                original, corrected, rows
            )

    @pytest.mark.parametrize(
        "original, corrected, expected",
        [
            ("vireinato", "virreinato", ("r_rr",)),  # "r" matches literally first, then must backtrack
            ("senior", "señor", ("ni_ñ",)),
            ("senor", "señor", ("n_ñ",)),
            ("inforrne", "informe", ("rn_m",)),
            ("inforre", "informe", None),
            ("oa", "hoa", ("insert_h",)),  # empty original side, at the start
            ("oa", "oah", ("insert_h",)),  # and at the end of the original
            ("bou", "bu", ("ou_u",)),
            ("abc", "abd", None),
        ],
    )
    def test_custom_examples(self, original, corrected, expected):
        got = _match_substitutions(original, corrected, CUSTOM_TABLE.substitution_expansions)
        assert got == expected == linear_match_substitutions(original, corrected, CUSTOM_ROWS)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_pair_the_letter_check_rejects_has_no_match(self, data):
        for rows, letters in (
            (SHIPPED_TABLE.substitutions, SHIPPED_TABLE.substitution_letters),
            (SHIPPED_TABLE.confusion_rows, SHIPPED_TABLE.confusion_letters),
            (CUSTOM_TABLE.substitutions, CUSTOM_TABLE.substitution_letters),
            (CUSTOM_TABLE.confusion_rows, CUSTOM_TABLE.confusion_letters),
        ):
            alphabet = "".join(sorted(letters[0] | letters[1] | set("aeldfhm")))
            original, corrected = data.draw(st.one_of(rule_pairs(rows), letter_pairs(alphabet)))
            if not _letters_fit(original, corrected, letters):
                assert linear_match_substitutions(original, corrected, rows) is None

    def test_pattern_letters(self):
        assert CUSTOM_TABLE.substitution_letters == (frozenset("rnimou"), frozenset("rñmnhu"))
        assert not _letters_fit("abc", "abd", CUSTOM_TABLE.substitution_letters)  # "c" is in no original side
        assert not _letters_fit("ab", "abñd", CUSTOM_TABLE.substitution_letters)  # nor "d" in a corrected one
        assert _letters_fit("senior", "señor", CUSTOM_TABLE.substitution_letters)
        # a character on both sides may match literally, so it needs no pattern
        assert _letters_fit("xyz", "zyx", (frozenset(), frozenset()))

    def test_empty_original_side_sits_in_every_bucket(self):
        index = CUSTOM_TABLE.substitution_expansions
        assert all(("", "h", "insert_h") in bucket for bucket in index.values())
        assert index[""] == (("", "h", "insert_h"),)
        assert index["r"] == (("r", "rr", "r_rr"), ("rr", "r", "r_rr"), ("rn", "m", "rn_m"), ("", "h", "insert_h"))

    def test_derived_tables_built_once(self):
        assert SHIPPED_TABLE.substitutions is SHIPPED_TABLE.substitutions
        assert SHIPPED_TABLE.enclitic_pronouns == ("lo", "se")
        assert RuleTable(SHIPPED_TABLE.surface_rows, SHIPPED_TABLE.confusion_rows) == SHIPPED_TABLE


class TestAggregation:
    def make(self, original, corrected, label=SURFACE_FORM, rule="accent_only", ratio=None):
        return classify_pair(original, corrected, default_rules(), ClassifierConfig())

    def test_counts_and_backfill(self):
        corrections = [
            self.make("hara", "hará"),
            self.make("hara", "hará"),
            self.make("hara", "hará"),
            self.make("mui", "muy"),
        ]
        assert aggregate_frequencies(corrections) is None
        assert all(c.frequency == 3 for c in corrections[:3])
        assert corrections[3].frequency == 1

    def test_all_distinct_pairs(self):
        corrections = [self.make("hara", "hará"), self.make("mui", "muy")]
        aggregate_frequencies(corrections)
        assert all(c.frequency == 1 for c in corrections)

    def test_shard_merge_equals_single_pass(self):
        pairs = [("hara", "hará"), ("mui", "muy"), ("hara", "hará"), ("dió", "dio")]
        corrections = [self.make(a, b) for a, b in pairs]

        def counts(part):
            aggregate_frequencies(part)
            return {(c.original, c.corrected): c.frequency for c in part}

        whole = counts(corrections)
        shard_a, shard_b = counts(corrections[:2]), counts(corrections[2:])
        merged: dict = {}
        for shard in (shard_a, shard_b):
            for key, count in shard.items():
                merged[key] = merged.get(key, 0) + count
        assert merged == whole


class TestFrequencyPromotion:
    def build(self, rules, config, n_copies):
        # ratio("abcdef","abczz") = 6/11 = 0.545, inside [0.45, 0.55)
        corrections = [
            classify_pair("abcdef", "abczz", rules, config) for _ in range(n_copies)
        ]
        aggregate_frequencies(corrections)
        return corrections

    def test_disabled_by_default(self, rules):
        config = ClassifierConfig()
        corrections = self.build(rules, config, 5)
        assert corrections[0].label == HALLUCINATION
        assert 0.45 <= corrections[0].ratio < 0.55  # inside the would-be window
        assert apply_frequency_promotion(corrections, config) == 0
        assert all(c.label == HALLUCINATION for c in corrections)

    def test_enabled_promotes_frequent_near_threshold_pairs(self, rules):
        config = ClassifierConfig(promote_min_frequency=3)
        corrections = self.build(rules, config, 3)
        assert apply_frequency_promotion(corrections, config) == 3
        assert all(c.label == OCR_ERROR for c in corrections)
        assert all(c.rule == "frequency_promotion" for c in corrections)

    def test_enabled_but_rare_pairs_stay(self, rules):
        config = ClassifierConfig(promote_min_frequency=3)
        corrections = self.build(rules, config, 2)
        assert apply_frequency_promotion(corrections, config) == 0
        assert all(c.label == HALLUCINATION for c in corrections)


class TestAccentOnlyExactness:
    # accent-only must be exactly the set of pairs whose stripped forms
    # coincide (and that differ), checked by brute force over a small lexicon
    LEXICON = [
        "hara", "hará", "harà", "menos", "ménos", "señor", "senor", "sesion",
        "sesión", "mui", "muy", "a", "á", "à", "dio", "dió", "urjia", "urjía",
    ]

    def test_brute_force_over_lexicon(self, rules, config):
        for original in self.LEXICON:
            for corrected in self.LEXICON:
                if original == corrected:
                    continue
                got = classify_pair(original, corrected, rules, config)
                expected = strip_accents(original) == strip_accents(corrected)
                assert (got.rule == "accent_only") == expected, (original, corrected)
                if expected:
                    assert got.label == SURFACE_FORM
                    assert got.accent_only


class TestConfigValidation:
    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            ClassifierConfig(ratio_threshold=1.5)

    def test_rejects_bad_word_budget(self):
        with pytest.raises(ValueError):
            ClassifierConfig(max_corrected_words=0)


class TestDegenerateInputs:
    def test_very_long_segments_complete_quickly(self, rules, config):
        # the substitution matcher is skipped beyond plausible word lengths
        got = classify_pair("x" * 200, "y" * 200 + "z", rules, config)
        assert got.label == HALLUCINATION
        got = classify_pair("x" * 200, "y" * 200, rules, config)
        assert got.rule == "equal_length"

    def test_aggregation_is_order_independent(self, rules, config):
        import random

        pairs = [("hara", "hará"), ("mui", "muy"), ("hara", "hará"),
                 ("dies", "diez"), ("mui", "muy"), ("hara", "hará")]
        corrections = [classify_pair(a, b, rules, config) for a, b in pairs]
        shuffled = [classify_pair(a, b, rules, config) for a, b in pairs]
        random.Random(7).shuffle(shuffled)
        aggregate_frequencies(corrections)
        aggregate_frequencies(shuffled)
        counted = sorted((c.original, c.corrected, c.frequency) for c in corrections)
        assert sorted((c.original, c.corrected, c.frequency) for c in shuffled) == counted
