"""Classification of diff hunks into surface forms, OCR errors and hallucinations.

Every replace hunk runs through a fixed rule cascade; the first matching
stage wins:

1.  insert/delete hunks are hallucinations (additions and deletions by the
    language model are never trusted);
2.  pairs whose normalized forms coincide differ only in punctuation,
    spacing or casing -> OCR error (``punctuation_spacing``);
3.  pairs identical after accent stripping -> surface form (``accent_only``);
4.  word-final enclitic pronoun reordering ("cambiólo" -> "lo cambió")
    -> surface form (``enclitic_lo`` / ``enclitic_se``);
5.  pairs explained by letter-group substitution rules from the rules table
    -> surface form (rule named for the substitution, e.g. ``table_i_y``);
6.  pairs explained by symbol/shape confusions ("6" for "ó", "1" for "i")
    -> OCR error (``ocr_confusion_table``);
7.  single-word pairs of equal character length -> OCR error
    (``equal_length``);
8.  everything else is decided by the Gestalt similarity ratio of the
    accent-stripped forms: at or above the threshold, and with few enough
    corrected words, it's an OCR error, otherwise a hallucination
    (``ratio_threshold``).

Multi-word hunks are decomposed into word-level sub-corrections whenever a
monotone grouping of their content words scores better than classifying the
hunk whole, so "ocasion. En seguida" -> "ocasión. Enseguida" yields one
accent-only surface form plus one OCR error instead of a single blurred
label. Punctuation-only tokens attach to the preceding content word.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .diffing import ChangeHunk, similarity_ratio

SURFACE_FORM = "surface_form"
OCR_ERROR = "ocr_error"
HALLUCINATION = "hallucination"

# acute and grave vowel diacritics only; ñ and ü are distinct letters with
# their own substitution rules and must survive stripping
_ACCENT_MAP = str.maketrans(
    "áéíóúàèìòùÁÉÍÓÚÀÈÌÒÙ",
    "aeiouaeiouAEIOUAEIOU",
)

# maximum words per aligned group when decomposing a multi-word hunk
_MAX_GROUP = 4
# hunks larger than this (content words, original x corrected) skip
# decomposition and classify whole
_MAX_DP_CELLS = 400
# decomposition tables of at least this many cells (content words, original
# x corrected) first walk one greedy path for a floor on the optimum
_FLOOR_MIN_CELLS = 20
# margin under the floor, far above the rounding in sums of at most 20
# ratios; a wider margin only skips fewer cells
_FLOOR_SLACK = 1e-9
# segments longer than any plausible word skip the substitution matcher;
# bounds the backtracking search on degenerate hunks
_MAX_SUBSTITUTION_LEN = 60
# frequency promotion reaches this far below the ratio threshold
_PROMOTION_WINDOW = 0.1


def strip_accents(text: str) -> str:
    """Remove acute/grave diacritics from vowels; ñ and ü are preserved."""
    return text.translate(_ACCENT_MAP)


def _strip_edge_punctuation(word: str) -> str:
    start, end = 0, len(word)
    while start < end and unicodedata.category(word[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(word[end - 1]).startswith("P"):
        end -= 1
    return word[start:end]


def normalize_segment(segment: str) -> str:
    """Lowercase and strip leading/trailing punctuation per word.

    Interior punctuation is preserved; words reduced to nothing (pure
    punctuation tokens) are dropped. A plain word (``segment.isalnum()``)
    is only lowercased: no alphanumeric code point is punctuation or
    whitespace, none lowercases to either, and a final sigma lowercases to
    a letter too, so the split and the edge stripping would change nothing.
    """
    if segment.isalnum():
        return segment.lower()
    words = [_strip_edge_punctuation(w) for w in segment.lower().split()]
    return " ".join(w for w in words if w)


class SubstitutionRule(NamedTuple):
    rule_id: str
    historical: str
    modern: str
    direction: str  # two_way | one_way | enclitic
    example: tuple[str, str]
    label: str

    def expansions(self) -> list[tuple[str, str]]:
        """(original-side, corrected-side) pattern pairs this rule allows."""
        pairs = [(self.historical, self.modern)]
        if self.direction == "two_way":
            pairs.append((self.modern, self.historical))
        return [(a, b) for a, b in pairs if a != b]


# (original-side pattern, corrected-side pattern, rule id) by the first
# character of the original side, each bucket in table order; key "" holds
# the patterns with an empty original side, which every bucket also holds
Expansions = dict[str, tuple[tuple[str, str, str], ...]]


def _index_expansions(rows: tuple[SubstitutionRule, ...]) -> Expansions:
    flat = [(o, c, r.rule_id) for r in rows for o, c in r.expansions()]
    return {key: tuple(e for e in flat if e[0][:1] in ("", key)) for key in {e[0][:1] for e in flat} | {""}}


# the characters of a table's original-side patterns, and of its corrected-side ones
Letters = tuple[frozenset[str], frozenset[str]]


def _pattern_letters(rows: tuple[SubstitutionRule, ...]) -> Letters:
    pairs = [p for r in rows for p in r.expansions()]
    return frozenset("".join(o for o, _ in pairs)), frozenset("".join(c for _, c in pairs))


def _letters_fit(original: str, corrected: str, letters: Letters) -> bool:
    """False when :func:`_match_substitutions` must return None for the pair.

    A character found on one side only cannot be matched literally, so only
    a pattern holding it on that side can consume it.
    """
    o, c = set(original), set(corrected)
    return o - c <= letters[0] and c - o <= letters[1]


class _RuleTableFields(NamedTuple):
    surface_rows: tuple[SubstitutionRule, ...]
    confusion_rows: tuple[SubstitutionRule, ...]
    # derived in __new__, first the letter-group rows usable by the substitution matcher (stage 5)
    substitutions: tuple[SubstitutionRule, ...]
    enclitic_pronouns: tuple[str, ...]
    substitution_expansions: Expansions
    confusion_expansions: Expansions
    substitution_letters: Letters
    confusion_letters: Letters


class RuleTable(_RuleTableFields):
    """Parsed rules file: surface-form substitutions, enclitics, confusions.

    The tables the cascade reads are derived once, when the table is built,
    so an edit to the rules file takes effect on the next load.
    """

    __slots__ = ()

    def __new__(cls, surface_rows: tuple[SubstitutionRule, ...], confusion_rows: tuple[SubstitutionRule, ...]):
        subs = tuple(
            r for r in surface_rows
            if r.direction != "enclitic" and strip_accents(r.historical) != strip_accents(r.modern)
        )
        enclitics = tuple(r.historical for r in surface_rows if r.direction == "enclitic")
        return super().__new__(
            cls, surface_rows, confusion_rows, subs, enclitics, _index_expansions(subs),
            _index_expansions(confusion_rows), _pattern_letters(subs), _pattern_letters(confusion_rows),
        )

    @property
    def example_rows(self) -> tuple[SubstitutionRule, ...]:
        return self.surface_rows + self.confusion_rows


def load_rules(path: str | Path) -> RuleTable:
    """Load a tab-separated rules file (one rule per line, # comments); a UTF-8 byte order mark may open it."""
    surface: list[SubstitutionRule] = []
    confusion: list[SubstitutionRule] = []
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 7:
            raise ValueError(f"{path}:{lineno}: expected 7 tab-separated fields, got {len(parts)}")
        rule_id, historical, modern, direction, ex_orig, ex_corr, label = parts
        if direction not in ("two_way", "one_way", "enclitic"):
            raise ValueError(f"{path}:{lineno}: unknown direction {direction!r}")
        if label not in (SURFACE_FORM, OCR_ERROR):
            raise ValueError(f"{path}:{lineno}: unknown label {label!r}")
        rule = SubstitutionRule(rule_id, historical, modern, direction, (ex_orig, ex_corr), label)
        (surface if label == SURFACE_FORM else confusion).append(rule)
    return RuleTable(tuple(surface), tuple(confusion))


def default_rules() -> RuleTable:
    """The shipped rules table."""
    with resources.as_file(resources.files("histocr.data") / "rules.tsv") as path:
        return load_rules(path)


class _ClassifierConfigFields(NamedTuple):
    ratio_threshold: float = 0.55
    max_corrected_words: int = 3
    promote_min_frequency: int | None = None  # None disables promotion


class ClassifierConfig(_ClassifierConfigFields):
    """Thresholds for the ratio stage and the optional frequency promotion.

    ``ratio_threshold`` must sit between the known hallucination and OCR
    anchor ratios (0.0 vs 0.57-0.76 on the calibration pairs); 0.55 keeps a
    margin below the lowest known genuine OCR correction.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        if errors := self.range_errors(self.ratio_threshold, self.max_corrected_words):
            raise ValueError("; ".join(errors))

    @staticmethod
    def range_errors(ratio_threshold: float, max_corrected_words: int) -> list[str]:
        """Every out-of-range value, each message naming its key and value."""
        errors = []
        if not 0.0 <= ratio_threshold <= 1.0:
            errors.append(f"ratio_threshold must be in [0, 1], got {ratio_threshold}")
        if max_corrected_words < 1:
            errors.append(f"max_corrected_words must be >= 1, got {max_corrected_words}")
        return errors


@dataclass(slots=True)
class ClassifiedCorrection:
    """One labeled correction, normalized for grouping, raw for application."""

    original: str
    corrected: str
    label: str
    rule: str
    ratio: float | None
    accent_only: bool
    original_span: tuple[int, int]
    corrected_span: tuple[int, int]
    original_raw: str
    corrected_raw: str
    frequency: int = 1


def _match_substitutions(original: str, corrected: str, expansions: Expansions) -> tuple[str, ...] | None:
    """Check whether the rules jointly explain every difference.

    Walks both strings left to right; equal characters advance, otherwise a
    rule pattern pair must consume the mismatch. Backtracks (a rule may start
    on characters that also match literally, as in "vireinato" ->
    "virreinato"). Returns the ids of the rules used, or None.
    """
    if original == corrected:
        return None
    dead: set[tuple[int, int]] = set()

    def walk(i: int, j: int) -> tuple[str, ...] | None:
        if (i, j) in dead:
            return None
        if i == len(original) and j == len(corrected):
            return ()
        if i < len(original) and j < len(corrected) and original[i] == corrected[j]:
            found = walk(i + 1, j + 1)
            if found is not None:
                return found
        for pat_o, pat_c, rule_id in expansions.get(original[i : i + 1], expansions[""]):
            if original.startswith(pat_o, i) and corrected.startswith(pat_c, j):
                found = walk(i + len(pat_o), j + len(pat_c))
                if found is not None:
                    return found if rule_id in found else (rule_id,) + found
        dead.add((i, j))
        return None

    used = walk(0, 0)
    if not used:  # at least one rule must fire
        return None
    return tuple(sorted(set(used)))


def _match_enclitic(original: str, corrected: str, pronouns: tuple[str, ...]) -> str | None:
    """Word-final pronoun moved in front: "acercóse" -> "se acercó"."""
    if " " in original:
        return None
    parts = corrected.split(" ")
    if len(parts) != 2:
        return None
    pronoun, stem = parts
    if pronoun not in pronouns:
        return None
    if not original.endswith(pronoun) or len(original) <= len(pronoun):
        return None
    if strip_accents(original[: -len(pronoun)]) != strip_accents(stem):
        return None
    return f"enclitic_{pronoun}"


def classify_pair(
    original_raw: str, corrected_raw: str, rules: RuleTable, config: ClassifierConfig,
    original_span: tuple[int, int] = (0, 0), corrected_span: tuple[int, int] = (0, 0),
) -> ClassifiedCorrection:
    """Run the replace-pair cascade (stages 2-8) on one raw segment pair."""
    return _cascade(
        original_raw, corrected_raw, normalize_segment(original_raw), normalize_segment(corrected_raw),
        rules, config, original_span, corrected_span,
    )


def _cascade(
    original_raw: str, corrected_raw: str, norm_o: str, norm_c: str, rules: RuleTable,
    config: ClassifierConfig, original_span: tuple[int, int], corrected_span: tuple[int, int],
) -> ClassifiedCorrection:
    """:func:`classify_pair` given the pair's normalized forms."""

    def result(label: str, rule: str, ratio: float | None = None, accent_only: bool = False):
        return ClassifiedCorrection(
            norm_o, norm_c, label, rule, ratio, accent_only, original_span, corrected_span, original_raw, corrected_raw
        )

    if norm_o == norm_c:
        return result(OCR_ERROR, "punctuation_spacing")

    stripped_o = strip_accents(norm_o)
    stripped_c = strip_accents(norm_c)
    if stripped_o == stripped_c:
        return result(SURFACE_FORM, "accent_only", accent_only=True)

    enclitic = _match_enclitic(norm_o, norm_c, rules.enclitic_pronouns)
    if enclitic is not None:
        return result(SURFACE_FORM, enclitic)

    if len(norm_o) <= _MAX_SUBSTITUTION_LEN and len(norm_c) <= _MAX_SUBSTITUTION_LEN:
        if _letters_fit(stripped_o, stripped_c, rules.substitution_letters):
            used = _match_substitutions(stripped_o, stripped_c, rules.substitution_expansions)
            if used is not None:
                return result(SURFACE_FORM, "+".join(used))

        if _letters_fit(norm_o, norm_c, rules.confusion_letters):
            confused = _match_substitutions(norm_o, norm_c, rules.confusion_expansions)
            if confused is not None:
                return result(OCR_ERROR, "ocr_confusion_table")

    if " " not in norm_o and " " not in norm_c and len(norm_o) == len(norm_c):
        return result(OCR_ERROR, "equal_length")

    ratio = similarity_ratio(stripped_o, stripped_c)
    if ratio >= config.ratio_threshold and len(norm_c.split()) <= config.max_corrected_words:
        return result(OCR_ERROR, "ratio_threshold", ratio=ratio)
    return result(HALLUCINATION, "ratio_threshold", ratio=ratio)


def _joined(norm: list[str]) -> str:
    """``normalize_segment`` of a segment from its words' forms: a space ends
    the lower-casing context (final sigma), and stripping acts per token."""
    return " ".join(w for w in norm if w)


def _groups_into(stripped: list[str], core: list[int]) -> list[list[tuple[int, str, int]]]:
    """``into[t][d - 1]`` is ``(t - d, key, len(key))`` for the group of the
    ``d`` (at most ``_MAX_GROUP``) content words ending before content index
    ``t``; ``key`` joins the words of ``core[t - d:t]``."""
    words = [stripped[k] for k in core]
    into: list[list[tuple[int, str, int]]] = [[] for _ in range(len(core) + 1)]
    for t in range(1, len(core) + 1):
        for s in range(t - 1, max(0, t - _MAX_GROUP) - 1, -1):
            key = " ".join(words[s:t])
            into[t].append((s, key, len(key)))
    return into


def _greedy_floor(o_into: list[list[tuple[int, str, int]]], c_into: list[list[tuple[int, str, int]]]) -> float:
    """The score of one legal grouping, summed in path order as the DP sums
    it, less ``_FLOOR_SLACK``; ``-inf`` when the walk cannot reach the end.

    Each step takes the best-ratio group of shape 1:1, 2:1 or 1:2 (first
    listed on a tie), a two-word side only while a word would remain on it.
    Once a side has one content word left, one group closes the path.
    """
    n, m = len(o_into) - 1, len(c_into) - 1
    i = j = 0
    score = 0.0
    while n - i > 1 and m - j > 1:
        _, o1, o1_len = o_into[i + 1][0]
        _, c1, c1_len = c_into[j + 1][0]
        ratio, di, dj = similarity_ratio(o1, c1), 1, 1
        # a two-word group replaces the step only with a strictly higher
        # ratio, so one whose bound (as in the DP) cannot beat it gets none
        if n - i > 2:
            _, o2, o2_len = o_into[i + 2][1]
            if 2.0 * min(o2_len, c1_len) / (o2_len + c1_len) > ratio and (r := similarity_ratio(o2, c1)) > ratio:
                ratio, di, dj = r, 2, 1
        if m - j > 2:
            _, c2, c2_len = c_into[j + 2][1]
            if 2.0 * min(o1_len, c2_len) / (o1_len + c2_len) > ratio and (r := similarity_ratio(o1, c2)) > ratio:
                ratio, di, dj = r, 1, 2
        score += ratio
        i, j = i + di, j + dj
    if n - i > _MAX_GROUP or m - j > _MAX_GROUP:
        return float("-inf")
    return score + similarity_ratio(o_into[n][n - i - 1][1], c_into[m][m - j - 1][1]) - _FLOOR_SLACK


def _align_groups(o_words: list[str], c_words: list[str]) -> list[tuple[tuple[int, int], tuple[int, int]]] | None:
    """:func:`_align_normalized` on raw word lists."""
    return _align_normalized([normalize_segment(w) for w in o_words], [normalize_segment(w) for w in c_words])


def _align_normalized(
    o_norm: list[str], c_norm: list[str]
) -> list[tuple[tuple[int, int], tuple[int, int]]] | None:
    """Monotone grouping of the two word lists maximizing similarity.

    Takes each word's ``normalize_segment`` form. Dynamic program over
    content words (groups of up to a few words per side), scored by the
    Gestalt ratio of the accent-stripped group strings; ties prefer more,
    finer groups, then the lexicographically smallest source cell. Returns
    raw-index ranges per group, or None when no decomposition is possible:
    with fewer than two content words on a side, every grouping is the
    whole hunk, so that case returns None before any ratio. Punctuation-only
    tokens attach to the group of the preceding content word.

    Each group string is built once, and none is empty. Each cell, in
    row-major order, pulls from its reachable predecessors, best bound
    first. A predecessor's bound is ``score + 2.0*min(len(o), len(c)) /
    (len(o) + len(c))``: the ratio is ``2.0*M / total`` with M at most
    ``min(len(o), len(c))``, and float division by the same total and
    addition of the same score keep that order, so the bound's float is
    never below the candidate's score. Once a bound falls strictly below
    the best score found so far, neither it nor any later predecessor can
    win, and the rest skip the ratio. A predecessor whose bound only equals
    that score still gets its ratio, because it may tie. The winner is the
    maximum ``(score, groups)``, ties going to the smallest source ``(i,
    j)``: the first maximum a row-major scan of the sources would meet.
    Only the predecessors that can be scored are listed: the cut that stops
    the scan starts at the floor less ``rest`` (below) and only rises, so a
    predecessor whose bound is under that start would never get a ratio.
    The listed ones are a prefix of the full sorted list, scanned alike.

    A floor skips whole cells, as Ukkonen's cutoff does in edit-distance
    tables. On tables of at least ``_FLOOR_MIN_CELLS`` cells,
    :func:`_greedy_floor` first walks one legal path and sums its ratios in
    path order, as the DP does. Float addition is monotone, so the DP's
    score is the largest of all paths' scores, and the walk's score L is at
    most that. A group takes at least one content word per side and scores
    at most 1, so a path through ``(ti, tj)`` scores at most its prefix's
    score plus ``rest = min(n - ti, m - tj)``; the prefix scores at most
    ``min(ti, tj)``, and at most the bound of the predecessor it comes from.
    A cell whose ``min(ti, tj) + rest``, or a predecessor whose ``bound +
    rest``, falls strictly below L less ``_FLOOR_SLACK`` lies on no path that
    reaches L, so it gets no ratio; a cell left with no candidate stays None.

    Why the result cannot change: a cell's value differs from the unpruned
    DP's only where every path through its unpruned value misses L, and every
    value built on such a cell misses L too. The winning path reaches L, so
    each of its cells keeps its value, and no candidate built on a changed
    cell can reach or tie it there: the same path wins, with the same group
    count and the same earliest-source tie-break. A path that scores exactly
    L still counts, so the comparison stays strict. On every table, cells
    from which ``(n, m)`` is out of reach in groups of at most ``_MAX_GROUP``
    words lie on no path at all and are skipped.
    """
    o_core = [i for i, w in enumerate(o_norm) if w]
    c_core = [i for i, w in enumerate(c_norm) if w]
    n, m = len(o_core), len(c_core)
    if n < 2 or m < 2 or n * m > _MAX_DP_CELLS:
        return None

    o_into = _groups_into([strip_accents(w) for w in o_norm], o_core)
    c_into = _groups_into([strip_accents(w) for w in c_norm], c_core)
    floor = _greedy_floor(o_into, c_into) if n * m >= _FLOOR_MIN_CELLS else float("-inf")
    # best[i][j] = (score, groups, -si, -sj) of source cell (si, sj): the largest wins; None while unreachable
    best: list[list[tuple[float, int, int, int] | None]] = [[None] * (m + 1) for _ in range(n + 1)]
    best[0][0] = (0.0, 0, 0, 0)
    for ti in range(1, n + 1):
        ri = n - ti
        for tj in range(1, m + 1):
            rj = m - tj
            if ri > _MAX_GROUP * rj or rj > _MAX_GROUP * ri:
                continue  # (n, m) is out of reach
            rest = ri if ri < rj else rj
            # a bound below ``cut`` reaches neither the floor nor, once one is found, the best score here
            cut = floor - rest
            if (ti if ti < tj else tj) < cut:
                continue
            # (si, sj) is unique, so the sort never compares the stored ``here`` tuples
            preds = [
                (bound, si, sj, o_text, c_text, here)
                for si, o_text, o_len in o_into[ti]
                for sj, c_text, c_len in c_into[tj]
                if (here := best[si][sj]) is not None
                and (bound := here[0] + 2.0 * (o_len if o_len < c_len else c_len) / (o_len + c_len)) >= cut
            ]
            preds.sort(reverse=True)
            win = None
            for bound, si, sj, o_text, c_text, (score, groups, _, _) in preds:
                if bound < cut:
                    break
                cand = (score + similarity_ratio(o_text, c_text), groups + 1, -si, -sj)
                if win is None or cand > win:
                    win = cand
                    if cand[0] > cut:
                        cut = cand[0]
            best[ti][tj] = win

    if best[n][m] is None:
        return None
    # walk back through the DP to recover group boundaries in core indices
    bounds: list[tuple[int, int]] = []
    state = (n, m)
    while state != (0, 0):
        bounds.append(state)
        _, _, si, sj = best[state[0]][state[1]]
        state = (-si, -sj)
    bounds.append((0, 0))
    bounds.reverse()
    if len(bounds) <= 2:  # a single group is the whole hunk
        return None

    spans: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for idx in range(len(bounds) - 1):
        ci, cj = bounds[idx]
        ni, nj = bounds[idx + 1]
        o_start = 0 if idx == 0 else o_core[ci]
        o_end = o_core[ni] if ni < n else len(o_norm)
        c_start = 0 if idx == 0 else c_core[cj]
        c_end = c_core[nj] if nj < m else len(c_norm)
        spans.append(((o_start, o_end), (c_start, c_end)))
    return spans


def classify_hunks(
    hunks: list[ChangeHunk], rules: RuleTable, config: ClassifierConfig
) -> list[ClassifiedCorrection]:
    """Classify all hunks of one record, decomposing multi-word replaces.

    Each word of a replace hunk is normalized once; the decomposition and
    every pair of the cascade read those forms.
    """
    corrections: list[ClassifiedCorrection] = []
    for hunk in hunks:
        if hunk.kind in ("insert", "delete"):  # stage 1
            corrections.append(ClassifiedCorrection(
                normalize_segment(hunk.original_segment), normalize_segment(hunk.corrected_segment),
                HALLUCINATION, "insert_delete", None, False,
                hunk.original_span, hunk.corrected_span, hunk.original_segment, hunk.corrected_segment,
            ))
            continue
        o_words = hunk.original_segment.split(" ")
        c_words = hunk.corrected_segment.split(" ")
        o_norm = [normalize_segment(w) for w in o_words]
        c_norm = [normalize_segment(w) for w in c_words]
        groups = None
        if len(o_words) > 1 and len(c_words) > 1:  # a one-word side admits only the whole hunk
            groups = _align_normalized(o_norm, c_norm)
        if groups is None:
            whole = hunk.original_segment, hunk.corrected_segment, _joined(o_norm), _joined(c_norm)
            corrections.append(_cascade(*whole, rules, config, hunk.original_span, hunk.corrected_span))
            continue
        base_o, base_c = hunk.original_span[0], hunk.corrected_span[0]
        for (o_start, o_end), (c_start, c_end) in groups:
            raw_o = " ".join(o_words[o_start:o_end])
            raw_c = " ".join(c_words[c_start:c_end])
            if raw_o == raw_c:
                continue
            norm_o, norm_c = _joined(o_norm[o_start:o_end]), _joined(c_norm[c_start:c_end])
            spans = (base_o + o_start, base_o + o_end), (base_c + c_start, base_c + c_end)
            corrections.append(_cascade(raw_o, raw_c, norm_o, norm_c, rules, config, *spans))
    return corrections


def aggregate_frequencies(corrections: list[ClassifiedCorrection]) -> None:
    """Set each correction's ``frequency`` to the count of its normalized pair among ``corrections``."""
    counts: dict[tuple[str, str], int] = {}
    for corr in corrections:
        key = (corr.original, corr.corrected)
        counts[key] = counts.get(key, 0) + 1
    for corr in corrections:
        corr.frequency = counts[(corr.original, corr.corrected)]


def apply_frequency_promotion(
    corrections: list[ClassifiedCorrection], config: ClassifierConfig
) -> int:
    """Optional post-pass: frequent near-threshold hallucinations become OCR errors.

    Disabled unless ``promote_min_frequency`` is set; the promotion window is
    ratios in [threshold - 0.1, threshold). Returns the number promoted.
    """
    if config.promote_min_frequency is None:
        return 0
    lo = config.ratio_threshold - _PROMOTION_WINDOW
    promoted = 0
    for corr in corrections:
        if (
            corr.label == HALLUCINATION
            and corr.rule == "ratio_threshold"
            and corr.ratio is not None
            and lo <= corr.ratio < config.ratio_threshold
            and corr.frequency >= config.promote_min_frequency
        ):
            corr.label = OCR_ERROR
            corr.rule = "frequency_promotion"
            promoted += 1
    return promoted
