"""Word material for the synthetic corpora.

Every word comes from two sources the project already ships: the golden
newspaper fragment used by the test suite (its corrected, modern spelling)
and the example columns of the rules table. The lists are copied here
rather than read at run time, so the generated bytes depend on the seed
alone and not on the code under test.

Each pair below is ``(as printed in the original, as the model returns it)``.
A pair classifies to its class on its own, as a single diff hunk; the
generator keeps perturbations apart so that each one reaches the classifier
as its own hunk.
"""

from __future__ import annotations

# Modern words of the golden fragment plus the modern example column of the
# rules table. Sentences are random recombinations of these.
MODERN_WORDS = (
    "la publicación del oso se hará dos veces cada semana y constará de un "
    "pliego en cuarto ofreciendo además sus redactores dar los grabados "
    "oportunos siempre que lo exija el asunto trate redactado por tema "
    "periódico política militar octava sesión abierta a las minuto noche "
    "febrero con asistencia todos señores representantes leyó aprobó acta "
    "asamblea anterior menos tocante torre convento santo domingo punto quedó "
    "para ventilarse mejor ocasión enseguida dio cuenta una nota ejecutivo "
    "referente urgía necesidad organizar ejército pues decía decano poder sin "
    "bayonetas vale tanto como cero puesto izquierda fue ningún muy gente "
    "grabado expiró méxico fases diez doce cuatro señor níquel quiosco "
    "bulevar subscripciones transportar septiembre liberar virreinato informe "
    "cosa cambió acercó"
).split()

# Historical spellings the model modernises; the classifier must keep them.
SURFACE_PAIRS = (
    ("publicacion", "publicación"),
    ("harà", "hará"),
    ("gravados", "grabados"),
    ("periodico", "periódico"),
    ("politica", "política"),
    ("sesion", "sesión"),
    ("á", "a"),
    ("ménos", "menos"),
    ("à", "a"),
    ("ocasion", "ocasión"),
    ("dió", "dio"),
    ("urjía", "urgía"),
    ("decia", "decía"),
    ("hara", "hará"),
    ("fué", "fue"),
    ("ningun", "ningún"),
    ("mui", "muy"),
    ("jente", "gente"),
    ("gravado", "grabado"),
    ("espiró", "expiró"),
    ("méjico", "méxico"),
    ("faces", "fases"),
    ("dies", "diez"),
    ("doze", "doce"),
    ("quatro", "cuatro"),
    ("senor", "señor"),
    ("senior", "señor"),
    ("nikel", "níquel"),
    ("kiosko", "quiosco"),
    ("boulevar", "bulevar"),
    ("suscriciones", "subscripciones"),
    ("trasportar", "transportar"),
    ("setiembre", "septiembre"),
    ("libertar", "liberar"),
    ("vireinato", "virreinato"),
    ("cambiólo", "lo cambió"),
    ("acercóse", "se acercó"),
)

# OCR damage the model repairs; the classifier must apply the repair.
OCR_PAIRS = (
    ("6rden", "órden"),
    ("1nforme", "informe"),
    ("c0sa", "cosa"),
    ("inforrne", "informe"),
    ("loexija", "lo exija"),
    ("asuntode", "asunto de"),
    ("se mana", "semana"),
    ("en seguida", "enseguida"),
)

# Letter-shape confusions for generated OCR damage: (modern, as misread).
# None of them is a substitution the rules table explains as a surface form,
# so a damaged single word classifies as an OCR error.
SHAPE_CONFUSIONS = (
    ("e", "c"),
    ("n", "u"),
    ("u", "n"),
    ("h", "b"),
    ("l", "i"),
    ("o", "0"),
    ("i", "1"),
    ("m", "rn"),
)

# Marks OCR detaches from the word before them, as in the golden fragment's
# "cuarto ;" and "noche ,".
SPACED_MARKS = (",", ";")

# Words a hallucinating model slips into the text.
INSERTED_WORDS = ("añadida", "también", "luego", "entonces", "aquí", "ahora")

NEWSPAPERS = (
    ("El Oso", "Peru", "Lima"),
    ("La Gaceta", "Mexico", "Mexico"),
    ("El Faro", "Colombia", "Bogota"),
    ("El Comercio", "Chile", "Valparaiso"),
    ("La Nación", "Argentina", None),
)
