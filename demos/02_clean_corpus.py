"""Walkthrough: the three cleaning filters and their report.

Builds a small corpus with known defects, runs the filters in their fixed
order (duplicates/empty, then mostly-non-alphabetic, then short rows) and
prints the per-filter removal percentages.

Run from the repository root:  python demos/02_clean_corpus.py
"""

from histocr.cleaning import clean_corpus
from histocr.records import CorpusRecord

ROWS = [
    ("c01", "El correo llegó ayer con noticias de la capital y del puerto."),
    ("c02", "La sesion del cabildo duró hasta entrada la noche de febrero."),
    ("c03", "El correo llegó ayer con noticias de la capital y del puerto."),  # duplicate
    ("c04", ""),                                                               # empty
    ("c05", "   \t "),                                                         # whitespace only
    ("c06", "III IV V 12 34 56 :: !! 99 00"),                                  # mostly symbols
    ("c07", "1234 abc 567 de fg"),                                             # exactly 50%: kept
    ("c08", "uno dos tres cuatro"),                                            # 4 tokens: removed
    ("c09", "uno dos tres cuatro cinco"),                                      # 5 tokens: kept
    ("c10", "Avisos judiciales y remates de la semana en la villa."),
]

records = [CorpusRecord(id=rid, newspaper="El Diario", country="Mexico", year=1850, text=text)
           for rid, text in ROWS]

kept, removed, report = clean_corpus(records)

print("kept rows:")
for record in kept:
    print(f"  {record.id}: {record.text[:60]!r}")
print()
print("removed rows:")
for record, reason in removed:
    print(f"  {record.id}: {reason}")
print()
print("cleaning report:")
for key, value in report.items():
    if isinstance(value, float):
        print(f"  {key}: {value:.2f}")
    else:
        print(f"  {key}: {value}")
