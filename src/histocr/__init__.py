"""histocr: post-OCR correction and surface-form extraction for historical Spanish corpora.

The pipeline takes OCR-digitized newspaper text, obtains candidate
corrections from a pluggable model backend, extracts word-aligned
differences, and classifies each difference as a historical surface form, a
genuine OCR error, or a hallucination. OCR errors are applied to the final
text, surface forms are preserved and collected into a frequency-ranked
lexicon, and hallucinations are discarded.
"""

from .applier import SurfaceFormEntry, apply_corrections, emit_lexicon, write_lexicon
from .classify import (
    HALLUCINATION,
    OCR_ERROR,
    SURFACE_FORM,
    ClassifiedCorrection,
    ClassifierConfig,
    RuleTable,
    aggregate_frequencies,
    classify_hunk,
    classify_hunks,
    classify_pair,
    default_rules,
    load_rules,
    normalize_segment,
    strip_accents,
)
from .cleaning import (
    clean_corpus,
    filter_duplicates_and_empty,
    filter_non_alphabetic,
    filter_short,
    word_tokens,
)
from .client import (
    BackendResult,
    HttpChatBackend,
    MockBackend,
    PromptTemplate,
    RetryPolicy,
    correct_text,
)
from .config import PipelineConfig, load_config
from .diffing import (
    ChangeHunk,
    diff_words,
    reconstruct_words,
    similarity_ratio,
    tokenize_words,
)
from .pipeline import run_pipeline
from .records import (
    CorpusRecord,
    ProcessedRecord,
    load_corpus,
    load_processed,
    write_corpus,
    write_processed,
)
from .reporting import build_report

__version__ = "0.1.0"
