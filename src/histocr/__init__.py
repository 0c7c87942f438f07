"""histocr: post-OCR correction and surface-form extraction for historical Spanish corpora.

The pipeline takes OCR-digitized newspaper text, obtains candidate
corrections from a pluggable model backend, extracts word-aligned
differences, and classifies each difference as a historical surface form, a
genuine OCR error, or a hallucination. OCR errors are applied to the final
text, surface forms are preserved and collected into a frequency-ranked
lexicon, and hallucinations are discarded. Nothing is re-exported here:
import each name from the module that defines it.
"""

__version__ = "0.1.0"
