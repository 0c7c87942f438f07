"""Word-aligned diffing between an original text and its corrected candidate.

The aligner works on whitespace-separated words (punctuation stays attached
to its word; the classifier strips it later). Contiguous changed regions with
no unchanged word between them surface as a single hunk, so a space-merge
such as "se mana" -> "semana" arrives as one replace hunk with a two-word
original segment.

Both the word diff and the character similarity run on one block engine,
the Gestalt (Ratcliff-Obershelp) recursion (Ratcliff and Metzener, "Pattern
Matching: The Gestalt Approach", 1988): take the longest common contiguous
block, then recurse on both flanks. Ties between equally long blocks go to
the earliest start in the first string, then the second. With no junk,
``difflib.SequenceMatcher(autojunk=False)`` finds its matching blocks by
this recursion with this tie order, so :func:`similarity_ratio` returns
exactly difflib's ratio. The word diff maps each distinct word to one code
point and makes one hunk of each gap between consecutive blocks; difflib
merges adjacent blocks, but they leave no gap, so its opcodes give the same
hunks. The longest block is not found by difflib's walk over every pair of
equal elements, which costs roughly the cube of the length. A pair of short
windows runs its whole sub-recursion in one loop of substring tests
(:func:`_short_blocks`); longer windows extend sampled seeds to maximal
blocks (:func:`_longest_block`). Both find the same blocks with the same tie
order, so the path taken never changes a result, only its cost.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Literal, NamedTuple

HunkKind = Literal["replace", "insert", "delete"]

# longest window, on both sides, that _short_blocks searches in one pass
_SHORT_WINDOW = 64


class ChangeHunk(NamedTuple):
    """One aligned difference between the original and corrected word streams.

    ``original_segment``/``corrected_segment`` are the affected words joined
    with single spaces; an insert has an empty original segment and a delete
    an empty corrected segment. Spans are half-open ``[start, end)`` indices
    into the respective word sequences.
    """

    original_segment: str
    corrected_segment: str
    original_span: tuple[int, int]
    corrected_span: tuple[int, int]
    kind: HunkKind


def tokenize_words(text: str) -> list[str]:
    """Split on Unicode whitespace; punctuation stays attached to its word."""
    return text.split()


def diff_words(original: list[str], corrected: list[str]) -> list[ChangeHunk]:
    """Align two word sequences and return the changed regions as hunks.

    Hunks are non-overlapping and ordered by original span, and directly
    adjacent changes form a single hunk. Each distinct word becomes one code
    point, and the block engine aligns the two code strings; the hunks are
    exactly the non-equal opcodes of ``difflib.SequenceMatcher(None,
    original, corrected, autojunk=False)``, whose matching blocks are the
    same recursion with the same tie order. One call takes at most 1,114,112
    distinct words, the number of code points.
    """
    codes: dict[str, str] = {}
    a = "".join([codes.setdefault(w, chr(len(codes))) for w in original])
    b = "".join([codes.setdefault(w, chr(len(codes))) for w in corrected])
    hunks: list[ChangeHunk] = []
    i = j = 0
    for bi, bj, size in sorted(_blocks(a, b)) + [(len(a), len(b), 0)]:
        if i < bi or j < bj:
            kind: HunkKind = "replace" if i < bi and j < bj else "delete" if i < bi else "insert"
            hunks.append(ChangeHunk(" ".join(original[i:bi]), " ".join(corrected[j:bj]), (i, bi), (j, bj), kind))
        i, j = bi + size, bj + size
    return hunks


def reconstruct_words(original: list[str], hunks: list[ChangeHunk]) -> list[str]:
    """Apply every hunk over the original word sequence.

    Splicing all corrected segments back in reproduces the corrected word
    sequence exactly; this is the reconstruction invariant the diff must
    satisfy for any input pair.
    """
    out: list[str] = []
    cursor = 0
    for hunk in hunks:
        start, end = hunk.original_span
        if start < cursor:
            raise ValueError(f"overlapping hunk at {hunk.original_span}")
        out.extend(original[cursor:start])
        if hunk.corrected_segment:
            out.extend(hunk.corrected_segment.split(" "))
        cursor = end
    out.extend(original[cursor:])
    return out


def similarity_ratio(a: str, b: str) -> float:
    """Gestalt similarity in [0, 1]; 1.0 for two empty strings.

    Equals ``2*M / (len(a) + len(b))`` with M the character total of the
    recursively found longest common blocks, exactly (``==``) the float that
    ``difflib.SequenceMatcher(None, a, b, autojunk=False).ratio()`` returns.
    A pair of sides of at most ``_SHORT_WINDOW`` sums the sizes of its
    :func:`_short_blocks` list at once, with no dispatch or generator loop.
    """
    total = len(a) + len(b)
    if not total:
        return 1.0
    if len(a) <= _SHORT_WINDOW and len(b) <= _SHORT_WINDOW:
        return 2.0 * sum([size for _, _, size in _short_blocks(a, b, 0, len(a), 0, len(b))]) / total
    return 2.0 * _matches(a, b, total) / total


def similarity_below(a: str, b: str, threshold: float) -> bool:
    """Whether ``similarity_ratio(a, b) < threshold``, often without the full ratio.

    The ratio is ``2.0*M / total``, and that float only grows with M. So the
    answer is yes at once when even ``M = min(len(a), len(b))`` falls short,
    and no as soon as the blocks matched so far reach the threshold; both
    shortcuts give the answer the full ratio gives. Otherwise the blocks are
    found exactly as :func:`similarity_ratio` finds them; a pair of short windows
    gets all its blocks in one loop, so the early stop falls between such pairs.
    """
    total = len(a) + len(b)
    if not total:
        return 1.0 < threshold
    if 2.0 * min(len(a), len(b)) / total < threshold:
        return True
    return 2.0 * _matches(a, b, total, threshold) / total < threshold


def _matches(a: str, b: str, total: int, stop_at: float | None = None) -> int:
    """M of the Gestalt ratio: the characters of the recursively found longest blocks.

    With ``stop_at``, stops as soon as ``2.0*M / total`` reaches it; the
    count returned then gives that ratio or more.
    """
    matches = 0
    for _, _, size in _blocks(a, b):
        matches += size
        if stop_at is not None and 2.0 * matches / total >= stop_at:
            break
    return matches


def _blocks(a: str, b: str) -> Iterable[tuple[int, int, int]]:
    """The Gestalt recursion's blocks ``(i, j, size)``, in no set order."""
    if len(a) <= _SHORT_WINDOW and len(b) <= _SHORT_WINDOW:
        return _short_blocks(a, b, 0, len(a), 0, len(b))  # a list: no generator to make
    return _long_blocks(a, b)


def _long_blocks(a: str, b: str) -> Iterator[tuple[int, int, int]]:
    """Yield the blocks: two short windows take :func:`_short_blocks`, others :func:`_longest_block`.
    A flank's blocks are blocks of its enclosing window too, so ``size`` bounds them."""
    stack = [(0, len(a), 0, len(b), min(len(a), len(b)))]
    while stack:
        alo, ahi, blo, bhi, limit = stack.pop()
        if ahi - alo <= _SHORT_WINDOW and bhi - blo <= _SHORT_WINDOW:
            yield from _short_blocks(a, b, alo, ahi, blo, bhi)
            continue
        i, j, size = _longest_block(a, b, alo, ahi, blo, bhi, limit)
        if size:
            yield i, j, size
            if alo < i and blo < j:
                stack.append((alo, i, blo, j, size))
            if i + size < ahi and j + size < bhi:
                stack.append((i + size, ahi, j + size, bhi, size))


def _short_blocks(a: str, b: str, alo: int, ahi: int, blo: int, bhi: int) -> list[tuple[int, int, int]]:
    """The Gestalt recursion's blocks on two windows of at most ``_SHORT_WINDOW``, in one loop.

    Per window pair, one pass over ``a`` grows ``size`` while ``a[start:start+size+1]`` occurs
    in the ``b`` window (each test scans it), else moves ``start`` on. Only a longer block
    replaces the best, and ``j`` is its first occurrence: ties go to the smallest ``i``, then ``j``.
    """
    blocks, stack = [], [(alo, ahi, blo, bhi)]
    while stack:
        alo, ahi, blo, bhi = stack.pop()
        window = b[blo:bhi]
        i = start = alo
        size = 0
        while start + size < ahi:
            if a[start : start + size + 1] in window:
                i = start
                size += 1
            else:
                start += 1
        if size:
            j = blo + window.find(a[i : i + size])
            blocks.append((i, j, size))
            if alo < i and blo < j:
                stack.append((alo, i, blo, j))
            if i + size < ahi and j + size < bhi:
                stack.append((i + size, ahi, j + size, bhi))
    return blocks


def _longest_block(a: str, b: str, alo: int, ahi: int, blo: int, bhi: int, limit: int) -> tuple[int, int, int]:
    """Longest common block ``(i, j, size)`` of ``a[alo:ahi]`` and ``b[blo:bhi]``.

    The caller guarantees that no common block is longer than ``limit``.
    Ties go to the smallest ``i``, then the smallest ``j``; ``size`` is 0
    when the windows share no character.

    This is the seed search, which :func:`_long_blocks` runs on window pairs with
    a side longer than ``_SHORT_WINDOW``. Seed lemma: let ``s + q = K + 1``.
    A common block of length at least K starting at ``x`` in the ``a``
    window ``[alo, ahi)`` has some ``p = alo + t*s`` among ``x .. x+s-1``,
    and ``p + q <= x + K``, so it contains the seed ``a[p:p+q]``. Extending
    every occurrence (``str.find``) of every seed in the ``b`` window to its
    maximal block therefore finds every block of length at least K, tied
    ones included. K starts at the smallest of ``limit`` and the window
    lengths, and halves (or drops to the longest block found so far) until a
    found block reaches it.
    """
    k = cap = min(limit, ahi - alo, bhi - blo)
    best_i, best_j, best = alo, blo, 0
    find = b.find
    while k:
        q = (k + 1) // 2
        step = k + 1 - q
        for p in range(alo, ahi - q + 1, step):
            seed = a[p : p + q]
            j = find(seed, blo, bhi)
            while j >= 0:
                # room on the hit's diagonal; min() spelled out in this hot loop
                before = p - alo if p - alo < j - blo else j - blo
                after = ahi - p if ahi - p < bhi - j else bhi - j
                if before + after >= best:  # else no block here reaches the best
                    # most hits stop at the first character: test it before calling
                    left = 0
                    if before and a[p - 1] == b[j - 1]:
                        left = _common_suffix(a, p, b, j, before)
                    size = left + q
                    if after > q and a[p + q] == b[j + q]:
                        size += _common_prefix(a, p + q, b, j + q, after - q)
                    i0, j0 = p - left, j - left
                    if size > best or (size == best and (i0, j0) < (best_i, best_j)):
                        best_i, best_j, best = i0, j0, size
                # blocks from later hits are no longer and start no earlier in a
                if best == cap and best_i <= p + q - cap:
                    return best_i, best_j, best
                j = find(seed, j + 1, bhi)
        if best >= k:
            break
        # no block reaches k; one of length ``best`` exists but may hold no seed
        cap = k - 1
        k = max(k // 2, best)
    return best_i, best_j, best


def _common_prefix(a: str, i: int, b: str, j: int, n: int) -> int:
    """Length of the common prefix of ``a[i:i+n]`` and ``b[j:j+n]``.

    Gallops over doubling chunks, then bisects the first unequal chunk, so a
    long run costs O(log n) slice comparisons, not n bytecode steps.
    """
    done, width = 0, 1
    while width <= n - done and (
        a[i + done : i + done + width] == b[j + done : j + done + width]
    ):
        done += width
        width *= 2
    width = min(width, n - done + 1)
    while width > 1:
        half = width // 2
        if a[i + done : i + done + half] == b[j + done : j + done + half]:
            done += half
            width -= half
        else:
            width = half
    return done


def _common_suffix(a: str, i: int, b: str, j: int, n: int) -> int:
    """Length of the common suffix of ``a[i-n:i]`` and ``b[j-n:j]``, as above."""
    done, width = 0, 1
    while width <= n - done and (
        a[i - done - width : i - done] == b[j - done - width : j - done]
    ):
        done += width
        width *= 2
    width = min(width, n - done + 1)
    while width > 1:
        half = width // 2
        if a[i - done - half : i - done] == b[j - done - half : j - done]:
            done += half
            width -= half
        else:
            width = half
    return done


def format_hunk(hunk: ChangeHunk) -> str:
    """Stable one-line rendering: span, kind, segments."""
    i1, i2 = hunk.original_span
    return f"[{i1},{i2}) {hunk.kind} {hunk.original_segment!r} -> {hunk.corrected_segment!r}"
