"""Seeded synthetic corpora with known ground truth.

For each workload and seed the generator writes three files:

- ``corpus.jsonl``: the input records, in the pipeline's input schema;
- ``mock_fixtures.jsonl``: the model's answer per record, in the mock
  backend's ``{"input_hash", "output"}`` format (sentinels for refusals and
  transport errors, no entry for records the mock should echo);
- ``truth.jsonl``: per record, the status the pipeline should give it, the
  injected perturbations (class and original word span) and, for records
  that should be corrected, the expected final text.

The same workload and seed give the same bytes. Record lengths, sentence
lengths, perturbation positions, run lengths and outcome counts follow a
fixed schedule per workload; the words, the perturbation kinds and the
record order depend on the seed. Run time is therefore nearly
seed-independent while the text differs from seed to seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import vocab

SURFACE = "surface_form"
OCR = "ocr_error"
INSERTION = "hallucination"

CORRECTED = "corrected"
CLEANED_OUT = "cleaned_out"
REFUSED = "excluded_content_policy"
LLM_FAILURE = "excluded_llm_failure"

# Outputs the mock backend turns into a refusal or a transport error.
REFUSAL_SENTINEL = "__CONTENT_POLICY_REFUSAL__"
TRANSPORT_ERROR_SENTINEL = "__TRANSPORT_ERROR__"

# Per-record character budget of the pipeline (PipelineConfig.max_chars).
MAX_CHARS = 12000

# Records that reach the model but should not be corrected from a fixture:
# the status the pipeline should give each, and the mock's answer (None:
# no fixture entry, so the mock echoes; a rewrite's answer is generated).
MODEL_FODDER = {
    "refusal": (REFUSED, REFUSAL_SENTINEL),
    "transport_error": (LLM_FAILURE, TRANSPORT_ERROR_SENTINEL),
    "echo": (CORRECTED, None),
    "rewrite": (LLM_FAILURE, None),
}


@dataclass(frozen=True)
class Workload:
    """Corpus shape and run settings of one benchmark workload."""

    name: str
    why: str
    # records with model text, before cleaning fodder is added
    records: int
    # character length range, filled on a log-spaced schedule
    chars: tuple[int, int]
    # chance that an eligible word starts a sparse perturbation, and that a
    # perturbation is followed at once by another
    density: float
    paired: float = 0.0
    sentence_words: tuple[int, int] = (6, 16)
    # records just over the per-record character budget
    over_budget: int = 0
    # words per damaged run (min, max); None means no runs
    run_words: tuple[int, int] | None = None
    # count of each fodder kind, as a share of ``records``
    fodder: dict[str, float] = field(default_factory=dict)
    # run settings: fixed delay per backend call, retry backoff base, and
    # request concurrency (0 = one request thread per available CPU)
    call_delay_s: float = 0.0
    backoff_base: float = 0.0
    concurrency: int = 1


# Sparse perturbations follow the golden fragment of the test suite
# (GOLDEN_ORIGINAL and GOLDEN_CORRECTED in tests/conftest.py): 28 edits in
# 145 words, 16 surface forms, 6 word-level OCR repairs (3 splits, 2 merges,
# 1 misread) and 6 spacing repairs before "," or ";", in 24 diff hunks, 4 of
# which hold two adjacent edits (1.17 edits per hunk). The two chances below,
# that an eligible word starts a perturbation and that a perturbation is
# followed at once by another, give about 28 edits in 24 hunks per 145 words
# under the generator's spacing rules (tests/test_perfbench_corpus.py checks
# it).
GOLDEN_DENSITY = 0.44
GOLDEN_PAIRED = 0.35

# Cleaning fodder per clean row, from the cleaning fixture of the test suite
# (build_cleaning_fixture in tests/conftest.py: 10 duplicates, 5 empty,
# 8 mostly non-alphabetic and 6 short rows next to 71 clean ones).
CLEANING_FODDER = {"duplicate": 10 / 71, "empty": 5 / 71, "non_alpha": 8 / 71, "short": 6 / 71}
# Model outcomes per record that reaches the model, from the pipeline fixture
# (PIPELINE_ROWS in tests/conftest.py: one refusal, one transport error, one
# wholesale rewrite and one record without a fixture entry, which the mock
# echoes, among the 16 rows that survive cleaning). Its one over-budget row
# is left out: newsprint's records are short, and long_records holds the
# over-budget records.
MODEL_OUTCOMES = {"refusal": 1 / 16, "transport_error": 1 / 16, "rewrite": 1 / 16, "echo": 1 / 16}
NEWSPRINT_FODDER = {**CLEANING_FODDER, **MODEL_OUTCOMES}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="newsprint",
            why="500 short records (100-1,000 chars) with the golden fragment's edit density "
            "and the test fixtures' cleaning and outcome mix; records I/O, cleaning, applier "
            "and reporting do a real share",
            records=500,
            chars=(100, 1000),
            density=GOLDEN_DENSITY,
            paired=GOLDEN_PAIRED,
            fodder=NEWSPRINT_FODDER,
        ),
        Workload(
            name="long_records",
            why="10 records of 600-11,500 chars plus 3 over the 12,000-char budget; the "
            "whole-text Gestalt ratio is nearly all of the time",
            records=10,
            chars=(600, 11500),
            density=0.03,
            over_budget=3,
        ),
        Workload(
            name="garbled_runs",
            why="40 records of 400-1,200 chars with runs of 5-20 damaged words; the "
            "multi-word decomposition DP and the rule cascade dominate",
            records=40,
            chars=(400, 1200),
            density=0.02,
            sentence_words=(22, 28),
            run_words=(5, 20),
        ),
        Workload(
            name="slow_backend",
            why="200 newsprint-like records, 20 ms per backend call, retries with backoff, "
            "one request thread per CPU; time goes to waiting, not to CPU",
            records=200,
            chars=(100, 1000),
            density=GOLDEN_DENSITY,
            paired=GOLDEN_PAIRED,
            fodder=NEWSPRINT_FODDER,
            call_delay_s=0.02,
            backoff_base=0.01,
            concurrency=0,
        ),
    )
}

# Not a benchmark workload: the shape of the 200-record, ~950-char baseline
# in ROADMAP.md, for checking the harness against it (see README.md).
ROADMAP_BASELINE = Workload(
    name="roadmap_baseline",
    why="200 records of about 950 chars at the golden fragment's perturbation density",
    records=200,
    chars=(900, 1000),
    density=GOLDEN_DENSITY,
    paired=GOLDEN_PAIRED,
)


def log_schedule(n: int, lo: int, hi: int) -> list[int]:
    """``n`` lengths spread evenly in log space over ``[lo, hi]``."""
    if n == 1:
        return [hi]
    return [round(lo * (hi / lo) ** (k / (n - 1))) for k in range(n)]


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _Record:
    """The original, the model's answer and the expected final text of one
    record, built word by word."""

    def __init__(self) -> None:
        self.original: list[str] = []
        self.model: list[str] = []
        self.expected: list[str] = []
        self.perturbations: list[dict] = []

    def keep(self, word: str) -> None:
        self.original.append(word)
        self.model.append(word)
        self.expected.append(word)

    def perturb(self, cls: str, original: list[str], model: list[str]) -> None:
        start = len(self.original)
        self.original += original
        self.model += model
        # OCR repairs are applied; surface forms stay as printed
        self.expected += model if cls == OCR else original
        self.perturbations.append({"class": cls, "span": [start, start + len(original)], "model": model})

    def insert(self, word: str) -> None:
        """The model adds a word the original lacks; it must not be applied."""
        at = len(self.original)
        self.model.append(word)
        self.perturbations.append({"class": INSERTION, "span": [at, at], "model": [word]})


def _shape_damage(word: str, rng: random.Random) -> str | None:
    options = [
        (i, misread)
        for i, ch in enumerate(word)
        for clean, misread in vocab.SHAPE_CONFUSIONS
        if ch == clean
    ]
    if not options:
        return None
    i, misread = rng.choice(options)
    return word[:i] + misread + word[i + 1 :]


_BY_LENGTH: dict[int, list[str]] = {}
for _word in vocab.MODERN_WORDS:
    _BY_LENGTH.setdefault(len(_word), []).append(_word)

# Damaged words never spell a vocabulary word: the word diff would align a
# damaged word with an unchanged copy elsewhere and split a damaged run.
_VOCABULARY = frozenset(vocab.MODERN_WORDS)


def _ocr_damage(
    words: list[str], eligible: list[bool], i: int, kinds: list[str], rng: random.Random
) -> tuple[list[str], list[str], int] | None:
    """Damage the word at ``i`` by the first of ``kinds`` that applies;
    return (original words, model words, words consumed)."""
    word = words[i]
    for kind in kinds:
        if kind == "merge" and i + 1 < len(words) and eligible[i + 1]:
            if word + words[i + 1] not in _VOCABULARY:
                return [word + words[i + 1]], [word, words[i + 1]], 2
        if kind == "split":
            cuts = [c for c in range(2, len(word) - 1) if {word[:c], word[c:]}.isdisjoint(_VOCABULARY)]
            if cuts:
                cut = rng.choice(cuts)
                return [word[:cut], word[cut:]], [word], 1
        if kind == "shape":
            damaged = _shape_damage(word, rng)
            if damaged is not None and damaged not in _VOCABULARY:
                return [damaged], [word], 1
    return None


# weights per 30 sparse perturbations: the golden fragment's 28 edits (16
# surface forms; 6 word-level OCR repairs; 6 spacing repairs) plus 2
# hallucinated insertions, an assumed share (the golden fragment has none;
# the pipeline fixture has one, in p19)
SPARSE_KINDS = ("surface", "ocr_pair", "split", "merge", "shape", "spacing", "insertion")
SPARSE_WEIGHTS = (16, 1, 2, 2, 1, 6, 2)
RUN_KINDS = ["shape", "shape", "shape", "merge", "split"]
# unchanged words kept between perturbations, so each reaches the
# classifier as its own hunk
GAP = 1
# words on either side of a perturbation that must not repeat its words,
# about a sentence
NEAR = 8


class Generator:
    """Draws sentences and perturbations for one workload from one seed."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.rng = random.Random(f"{workload.name}:{seed}")
        self.sentences: set[tuple[str, ...]] = set()

    def _layout(self, *key) -> random.Random:
        """A stream for one part of a record's layout (sentence lengths,
        perturbation positions and kinds). It is the same for every seed,
        because the whole-text ratio's cost depends on the gaps between
        perturbations; the words come from the seed."""
        return random.Random(":".join(map(str, (self.workload.name, *key))))

    def _sentence(self, layout: random.Random) -> list[str]:
        lo, hi = self.workload.sentence_words
        while True:
            size = layout.randint(lo, hi)
            # the layout fixes each word's length and the seed picks a word of
            # that length: the whole-text ratio's cost depends on the text's
            # letter mix, and with free word choice it moved by a sixth from
            # seed to seed on long records. No word repeats within a
            # sentence while its length offers another: the word diff would
            # align a repaired word with an unchanged copy of it nearby, and
            # the edit would land elsewhere than injected.
            lengths = [len(layout.choice(vocab.MODERN_WORDS)) for _ in range(size)]
            chosen: list[str] = []
            for n in lengths:
                options = [w for w in _BY_LENGTH[n] if w not in chosen] or _BY_LENGTH[n]
                chosen.append(self.rng.choice(options))
            words = tuple(chosen)
            if words not in self.sentences:  # never repeat a sentence verbatim
                self.sentences.add(words)
                return list(words)

    def _base(self, chars: int, layout: random.Random) -> tuple[list[str], list[bool], list[int]]:
        """Modern words of at least ``chars`` characters, whether each may be
        perturbed (not capitalised, not punctuated), and sentence starts."""
        words: list[str] = []
        eligible: list[bool] = []
        starts: list[int] = []
        length = -1
        while length < chars:
            sentence = self._sentence(layout)
            sentence[0] = sentence[0].capitalize()
            sentence[-1] += "."
            starts.append(len(words))
            words += sentence
            eligible += [False] + [True] * (len(sentence) - 2) + [False]
            length += sum(len(w) + 1 for w in sentence)
        return words, eligible, starts

    def plain(self, chars: int) -> str:
        return " ".join(self._base(chars, self._layout("plain", chars))[0])

    def record(self, chars: int, run_words: int = 0) -> _Record:
        """One record of about ``chars`` characters with sparse perturbations.

        ``run_words`` > 0 adds runs of adjacent OCR damage holding up to that
        many words on either side, one run per started 800 characters, each
        from a sentence's second word.
        """
        rng = self.rng
        words, eligible, starts = self._base(chars, self._layout(chars, run_words, "sentences"))
        # a fixed number of draws per word index, so index k gets the same
        # plan whatever the words before it
        plan = self._layout(chars, run_words, "words")
        chosen = [plan.random() < self.workload.density for _ in words]
        kinds = [plan.choices(SPARSE_KINDS, weights=SPARSE_WEIGHTS)[0] for _ in words]
        orders = [plan.sample(RUN_KINDS, len(RUN_KINDS)) for _ in words]
        paired = [plan.random() < self.workload.paired for _ in words]
        # which historical spelling or OCR pair: with the pair fixed by the
        # layout, the few pairs the classifier gets wrong next to another
        # edit come up equally often for every seed
        pair_picks = [plan.random() for _ in words]
        runs: set[int] = set()
        if run_words:
            fits = [s + 1 for s in starts if all(eligible[s + 1 : s + 1 + run_words])]
            picks = self._layout(chars, run_words, "runs")
            runs = set(picks.sample(fits, min(len(fits), 1 + chars // 800)))
        rec = _Record()
        i = 0
        cooldown = 0
        follow = False  # the previous word's perturbation asks for a neighbour
        while i < len(words):
            if i in runs:
                i = self._run(rec, words, eligible, i, run_words, orders)
                cooldown = GAP
                follow = False
                continue
            if not eligible[i] or not (follow or (chosen[i] and not cooldown)):
                rec.keep(words[i])
                cooldown = max(0, cooldown - 1)
                follow = False
                i += 1
                continue
            cooldown = GAP
            kind = kinds[i]
            if kind == "insertion":
                word = rng.choice(vocab.INSERTED_WORDS)
                # an insertion next to another edit would join its hunk
                if not follow and self._clear(rec, words, i, 0, [word]):
                    rec.insert(word)
                rec.keep(words[i])
                follow = False
                i += 1
                continue
            if kind in ("surface", "ocr_pair"):
                pairs, cls = (vocab.SURFACE_PAIRS, SURFACE) if kind == "surface" else (vocab.OCR_PAIRS, OCR)
                original, model = (x.split() for x in pairs[int(pair_picks[i] * len(pairs))])
                used = 1
            elif kind == "spacing":
                # OCR puts a space before the mark; the model removes it
                mark = rng.choice(vocab.SPACED_MARKS)
                cls, original, model, used = OCR, [words[i], mark], [words[i] + mark], 1
            else:
                damage = _ocr_damage(words, eligible, i, [kind], rng)
                if damage is None:
                    damage = [], [], 0
                cls, (original, model, used) = OCR, damage
            if not used or not self._clear(rec, words, i, used, original + model):
                rec.keep(words[i])
                follow = False
                i += 1
                continue
            rec.perturb(cls, original, model)
            # pairs only, as in the golden fragment: longer chains of edits
            # let the word diff align them in more than one way
            follow = paired[i] and not follow
            i += used
        return rec

    @staticmethod
    def _clear(rec: _Record, words: list[str], i: int, used: int, new: list[str]) -> bool:
        """Whether none of ``new`` occurs among the words on either side of
        the perturbation. A repeated word lets the word diff align the
        model's word with its neighbour instead, and the edit lands
        elsewhere than injected; real text rarely repeats a word that close."""
        near = rec.original[-NEAR:] + rec.model[-NEAR:] + words[i + used : i + used + NEAR]
        return set(near).isdisjoint(new)

    def _run(self, rec: _Record, words, eligible, i: int, limit: int, orders) -> int:
        """Damage adjacent words from ``i`` until either side would exceed
        ``limit`` words; return the index after the run."""
        o_count = m_count = 0
        while i < len(words) and eligible[i]:
            damage = _ocr_damage(words, eligible, i, orders[i], self.rng)
            if damage is None:
                break
            original, model, used = damage
            if o_count + len(original) > limit or m_count + len(model) > limit:
                break
            rec.perturb(OCR, original, model)
            o_count += len(original)
            m_count += len(model)
            i += used
        return i


def _meta(rng: random.Random) -> dict:
    newspaper, country, city = rng.choice(vocab.NEWSPAPERS)
    return {"newspaper": newspaper, "country": country, "city": city, "year": rng.randint(1800, 1899)}


def _truth(status: str, final: str | None = None, perturbations: list[dict] | None = None) -> dict:
    return {"status": status, "final": final, "perturbations": perturbations or []}


def _rewrite(gen: Generator, chars: int) -> str:
    """A different text at most a quarter as long: its whole-text ratio with
    the original is at most 2 * (1/4) / (5/4) = 0.4, under the 0.5 threshold."""
    words: list[str] = []
    for word in gen.plain(chars).split():
        if len(" ".join(words + [word])) > chars // 4:
            break
        words.append(word)
    return " ".join(words) or "x"


def generate(workload: Workload, seed: int) -> tuple[list[dict], list[dict], list[dict]]:
    """Return (corpus rows, mock fixture rows, truth rows) for one seed."""
    gen = Generator(workload, seed)
    rng = gen.rng
    n = workload.records
    counts = {kind: round(share * n) for kind, share in workload.fodder.items()}
    kinds = [k for k in MODEL_FODDER for _ in range(counts.get(k, 0))]
    kinds += ["ok"] * (n - len(kinds))
    # outcomes and run lengths are paired with record lengths by the layout,
    # and only the order of the records comes from the seed: a record of
    # 800 chars or more holds two runs, the DP's cost grows with the square
    # of a run's length, and a record's perturbation plan depends on its
    # length, so a seed-dependent pairing would make run time and quality
    # seed-dependent
    runs = [0] * n
    if workload.run_words:
        lo, hi = workload.run_words
        runs = [lo + k % (hi - lo + 1) for k in range(n)]
    gen._layout("outcomes").shuffle(kinds)
    slots = list(zip(kinds, log_schedule(n, *workload.chars), runs))
    rng.shuffle(slots)

    # (record fields without id, fixture output or None, truth without id)
    entries: list[tuple[dict, str | None, dict]] = []
    for kind, chars, run in slots:
        meta = _meta(rng)
        if kind == "ok":
            rec = gen.record(chars, run)
            truth = _truth(CORRECTED, " ".join(rec.expected), rec.perturbations)
            entries.append(({**meta, "text": " ".join(rec.original)}, " ".join(rec.model), truth))
            continue
        text = gen.plain(chars)
        status, output = MODEL_FODDER[kind]
        if kind == "rewrite":
            output = _rewrite(gen, len(text))
        entries.append(({**meta, "text": text}, output, _truth(status, text if kind == "echo" else None)))

    def scatter(fields: dict, output: str | None, truth: dict, lowest: int = 0) -> None:
        entries.insert(rng.randint(lowest, len(entries)), (fields, output, truth))

    if workload.over_budget:
        for chars in log_schedule(workload.over_budget, MAX_CHARS + 100, MAX_CHARS + 600):
            scatter({**_meta(rng), "text": gen.plain(chars)}, None, _truth(LLM_FAILURE))
    cleaned_out = {
        "empty": lambda: rng.choice(["", " ", "\t", "  \n"]),
        "non_alpha": lambda: " ".join(str(rng.randint(10, 9999)) for _ in range(rng.randint(5, 12))) + " !!",
        "short": lambda: " ".join(rng.choice(vocab.MODERN_WORDS) for _ in range(rng.randint(1, 4))),
    }
    for kind, make in cleaned_out.items():
        for _ in range(counts.get(kind, 0)):
            scatter({**_meta(rng), "text": make()}, None, _truth(CLEANED_OUT))
    sources = [e for e in entries if e[2]["status"] == CORRECTED and e[1] is not None]
    for _ in range(counts.get("duplicate", 0)):
        source = rng.choice(sources)
        # the copy comes after its source, so cleaning drops the copy
        scatter({**_meta(rng), "text": source[0]["text"]}, None, _truth(CLEANED_OUT), entries.index(source) + 1)

    rows, fixtures, truth = [], [], []
    for k, (fields, output, expect) in enumerate(entries):
        rid = f"{workload.name[:2]}{k:05d}"
        rows.append({"id": rid, **fields})
        truth.append({"id": rid, **expect})
        if output is not None:
            fixtures.append({"input_hash": sha256_hex(fields["text"]), "output": output})
    return rows, fixtures, truth


def write_corpus(workload: Workload, seed: int, directory: Path) -> dict[str, Path]:
    """Generate and write the three files; return their paths by kind."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for kind, items in zip(("corpus", "fixtures", "truth"), generate(workload, seed)):
        paths[kind] = directory / f"{kind}.jsonl"
        with open(paths[kind], "w", encoding="utf-8", newline="\n") as fh:
            for item in items:
                fh.write(json.dumps(item, ensure_ascii=False) + "\n")
    return paths
