"""Walkthrough: word-level diffing and correction labeling.

Takes one 19th-century sentence and its model-corrected candidate, shows the
aligned change hunks, then classifies each change as a historical surface
form, an OCR error, or a hallucination.

Run from the repository root:  python demos/01_diff_and_classify.py
"""

from histocr.classify import ClassifierConfig, classify_hunks, default_rules
from histocr.diffing import diff_words, format_hunk, similarity_ratio, tokenize_words

ORIGINAL = (
    "La publicacion del Oso se harà dos veces cada se mana, "
    "y el jeneral leyó la acta anterior , ménos en lo tocante à la torre."
)
CANDIDATE = (
    "La publicación del Oso se hará dos veces cada semana, "
    "y el general leyó la acta anterior, menos en lo tocante a la torre."
)

print("original :", ORIGINAL)
print("candidate:", CANDIDATE)
print()

# 1. Align the two texts word by word. Adjacent changed words merge into one
#    hunk, which is how the space-merge "se mana" -> "semana" stays together.
hunks = diff_words(tokenize_words(ORIGINAL), tokenize_words(CANDIDATE))
print(f"{len(hunks)} change hunks:")
for hunk in hunks:
    print(" ", format_hunk(hunk))
print()

# 2. Classify every change. The cascade tries, in order: punctuation/spacing,
#    accent-only changes, enclitic pronoun reordering, the letter-group
#    substitution table, OCR symbol confusions, equal-length misreads, and
#    finally the similarity-ratio decision.
rules = default_rules()
config = ClassifierConfig()
print("classified corrections:")
for corr in classify_hunks(hunks, rules, config):
    ratio = f" ratio={corr.ratio:.2f}" if corr.ratio is not None else ""
    print(f"  {corr.label:13s} via {corr.rule:20s} {corr.original!r} -> {corr.corrected!r}{ratio}")
print()

# 3. The character-level similarity ratio that decides the last stage: the
#    recursive longest-common-block match, 2*M / (len(a) + len(b)).
for a, b in [("ascripeión", "suscripción"), ("que", "como"), ("se mana", "semana")]:
    print(f"similarity_ratio({a!r}, {b!r}) = {similarity_ratio(a, b):.2f}")
