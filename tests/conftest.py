"""Shared fixtures: the worked example texts, a pipeline corpus, cleaning fixtures."""

from __future__ import annotations

import json
import logging
from pathlib import Path

import pytest

from histocr.client import REFUSAL_SENTINEL, TRANSPORT_ERROR_SENTINEL, MockBackend
from histocr.records import CorpusRecord

# A newspaper fragment with its corrected candidate, as produced by the
# correction model. Blue/red expectations below mirror the known-good manual
# labeling: surface forms keep historical spelling in the final text, OCR
# errors get fixed.
GOLDEN_ORIGINAL = (
    "La publicacion del Oso se harà dos veces cada se mana, y constará de un pliego en "
    "cuarto ; ofreciendo à mas sus redactores, dar los gravados oportunos, siempre que "
    "loexija el asuntode que trate. Redactado por un Num. 8. TEMA del Periodico. POLITICA "
    "MILITAR. OCTAVA SESION. Abierta la sesion á las dore y un minuto de la noche , 25 de "
    "Febrero de 1845 , con asistencia de todos los Señores Representantes, se leyó y aprobó "
    "la acta de la Asamblea anterior , ménos en lo tocante à la torre del Convento de Santo "
    "Domingo, punto que quedó para ventilarse en mejor ocasion. En seguida se dió cuenta de "
    "una nota del Ejecutivo , referente à que urjía la necesidad de organizar un Ejército ; "
    "pues decia el Excmo. Decano: - \"Un poder sin bayonetas vale tanto como un cero puesto "
    "á la izquierda.\""
)
GOLDEN_CORRECTED = (
    "La publicación del Oso se hará dos veces cada semana, y constará de un pliego en "
    "cuarto; ofreciendo además sus redactores, dar los grabados oportunos, siempre que "
    "lo exija el asunto de que trate. Redactado por un Num. 8. TEMA del Periódico. POLÍTICA "
    "MILITAR. OCTAVA SESIÓN. Abierta la sesión a las dos y un minuto de la noche, 25 de "
    "Febrero de 1845, con asistencia de todos los Señores Representantes, se leyó y aprobó "
    "la acta de la Asamblea anterior, menos en lo tocante a la torre del Convento de Santo "
    "Domingo, punto que quedó para ventilarse en mejor ocasión. Enseguida se dio cuenta de "
    "una nota del Ejecutivo, referente a que urgía la necesidad de organizar un Ejército; "
    "pues decía el Excmo. Decano: - \"Un poder sin bayonetas vale tanto como un cero puesto "
    "a la izquierda.\""
)

# normalized (original, corrected) pairs that must classify as surface forms
GOLDEN_SURFACE_PAIRS = {
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
}
# normalized pairs that must classify as OCR errors
GOLDEN_OCR_PAIRS = {
    ("se mana", "semana"),
    ("à mas", "además"),
    ("loexija", "lo exija"),
    ("asuntode", "asunto de"),
    ("dore", "dos"),
    ("en seguida", "enseguida"),
}


def build_cleaning_fixture() -> tuple[list[CorpusRecord], dict[str, int]]:
    """A 100-record corpus with a known cleaning composition.

    10 duplicates, 5 empty, 8 over-50%-non-alphabetic, 6 with <= 4 tokens and
    71 clean rows, one of which sits exactly on the 50% boundary (and must be
    kept).
    """
    clean_texts = [
        f"texto limpio de prueba numero {i} con varias palabras adicionales y contenido propio"
        for i in range(70)
    ]
    # 14 non-whitespace chars: 7 digits, 7 letters -> exactly 50% non-alphabetic
    boundary = "1234 abc 567 de fg"
    clean_texts.append(boundary)
    assert len(clean_texts) == 71

    duplicates = list(clean_texts[:10])
    empties = ["", " ", "  ", "\t", " \n"]
    non_alpha = [
        f"111 222 333 444 {i}{i}{i} aa" for i in range(8)  # 17+ non-ws chars, only 2 letters
    ]
    short = [
        "uno dos tres cuatro",
        "uno",
        "dos palabras nada",
        "cuatro palabras justas aqui",
        "tres palabras sueltas",
        "una sola",
    ]
    texts = clean_texts + duplicates + empties + non_alpha + short
    assert len(texts) == 100
    records = [
        CorpusRecord(id=f"r{i:03d}", newspaper="El Diario", country="Mexico", year=1850, text=t)
        for i, t in enumerate(texts)
    ]
    expected = {
        "total_rows": 100,
        "removed_duplicate_or_empty": 15,
        "removed_non_alpha": 8,
        "removed_short": 6,
        "surviving": 71,
    }
    return records, expected


# Every character kind on which the built-in tokenizers could disagree with a
# count of their tokens: letters, a digit, "_" (no word character for
# ``unicode_words``), combining marks, punctuation, a zero-width space (no
# whitespace) and each whitespace kind that ``str.split`` splits on.
TOKEN_ALPHABET = "aZñ7_\u0301\u0327.-\u200b \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u2029\u3000"


# --- pipeline fixture: 20 records plus a deterministic mock response table ---

_HALLUCINATED_REWRITE = (
    "Noticias frescas del puerto dicen que los barcos llegaron ayer con mercancías nuevas "
    "para el comercio de ultramar y el mercado central."
)

PIPELINE_ROWS: list[tuple[dict, str | None]] = [
    # (record fields, mock output or None for no fixture entry)
    (
        dict(id="p01", newspaper="El Oso", country="Peru", city="Lima", year=1845,
             text="La publicacion se harà cada se mana, sin falta alguna."),
        "La publicación se hará cada semana, sin falta alguna.",
    ),
    (
        dict(id="p02", newspaper="La Gaceta", country="Mexico", city="Mexico", year=1861,
             text="El jeneral dijo que la villa era mui vieja y pobre."),
        "El general dijo que la villa era muy vieja y pobre.",
    ),
    (
        dict(id="p03", newspaper="La Gaceta", country="Mexico", city="Mexico", year=1862,
             text="Se leyó la acta de la reunión anterior , sin observaciones."),
        "Se leyó la acta de la reunión anterior, sin observaciones.",
    ),
    (
        dict(id="p04", newspaper="El Faro", country="Colombia", city="Bogota", year=1871,
             text="Relato de los hechos violentos ocurridos en la plaza mayor."),
        REFUSAL_SENTINEL,
    ),
    (
        dict(id="p05", newspaper="El Faro", country="Colombia", city="Bogota", year=1872,
             text="Aviso oficial sobre el remate de los terrenos comunales."),
        TRANSPORT_ERROR_SENTINEL,
    ),
    (
        dict(id="p06", newspaper="El Oso", country="Peru", city="Lima", year=1846,
             text="Cronica de la visita del prefecto a las escuelas del distrito."),
        _HALLUCINATED_REWRITE,
    ),
    (
        dict(id="p07", newspaper="La Gaceta", country="Mexico", city="Mexico", year=1863,
             text="Parte oficial del ministerio sin novedades que reportar."),
        None,  # no fixture entry: mock echoes the input
    ),
    (
        dict(id="p08", newspaper="El Faro", country="Colombia", city="Bogota", year=1873,
             text="En 6rden al asunto pendiente se resolvió aplazar la vista."),
        "En órden al asunto pendiente se resolvió aplazar la vista.",
    ),
    (
        dict(id="p09", newspaper="El Oso", country="Peru", city="Lima", year=1847,
             text="El alcalde cambiólo por otro reglamento mas claro."),
        "El alcalde lo cambió por otro reglamento mas claro.",
    ),
    (
        dict(id="p10", newspaper="El Oso", country="Peru", year=1848,
             text="El viajero acercóse al fuego para secar su ropa."),
        "El viajero se acercó al fuego para secar su ropa.",
    ),
    (
        dict(id="p11", newspaper="El Oso", country="Peru", city="Lima", year=1845,
             text="La publicacion se harà cada se mana, sin falta alguna."),
        None,  # duplicate of p01: removed by cleaning
    ),
    (
        dict(id="p12", newspaper="La Gaceta", country="Mexico", year=1864, text="   "),
        None,  # empty: removed by cleaning
    ),
    (
        dict(id="p13", newspaper="La Gaceta", country="Mexico", year=1865,
             text="7 8 9 10 11 12 13 14 15 16 !!!"),
        None,  # mostly non-alphabetic: removed by cleaning
    ),
    (
        dict(id="p14", newspaper="El Faro", country="Colombia", year=1874,
             text="solo tres palabras"),
        None,  # four or fewer tokens: removed by cleaning
    ),
    (
        dict(id="p15", newspaper="El Faro", country="Colombia", city="Bogota", year=1875,
             text="Llegó una nota del Ejecutivo , referente à que urjía organizar la guardia."),
        "Llegó una nota del Ejecutivo, referente a que urgía organizar la guardia.",
    ),
    (
        dict(id="p16", newspaper="La Gaceta", country="Mexico", city="Puebla", year=1866,
             text="El dia fué caluroso en Méjico segun los diarios."),
        "El día fue caluroso en México segun los diarios.",
    ),
    (
        dict(id="p17", newspaper="El Oso", country="Peru", city="Cusco", year=1849,
             text="Los vecinos admiraban la torre del convento cada tarde."),
        "Los vecinos admiraban la iglesia del convento cada tarde.",
    ),
    (
        dict(id="p18", newspaper="La Gaceta", country="Mexico", city="Mexico", year=1867,
             text="La sesion abrió á las dore y un minuto de la noche."),
        "La sesión abrió a las dos y un minuto de la noche.",
    ),
    (
        dict(id="p19", newspaper="El Faro", country="Colombia", year=1876,
             text="Un texto con una palabra extra al final."),
        "Un texto con una palabra añadida extra al final.",
    ),
    (
        dict(id="p20", newspaper="Sin Cabecera", country="", year=None,
             text="relato interminable de la feria " * 20),
        None,  # exceeds the character budget used in pipeline tests
    ),
]


def write_pipeline_fixture(directory: Path) -> tuple[Path, Path]:
    """Write the 20-record corpus and its mock response table; return both paths."""
    directory.mkdir(parents=True, exist_ok=True)
    corpus_path = directory / "corpus.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for fields, _output in PIPELINE_ROWS:
            row = {
                "id": fields["id"],
                "newspaper": fields.get("newspaper", ""),
                "country": fields.get("country", ""),
                "city": fields.get("city"),
                "year": fields.get("year"),
                "text": fields["text"],
            }
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    fixtures_path = directory / "mock_fixtures.jsonl"
    with open(fixtures_path, "w", encoding="utf-8") as fh:
        for fields, output in PIPELINE_ROWS:
            if output is None:
                continue
            entry = {"input_hash": MockBackend.hash_text(fields["text"]), "output": output}
            fh.write(json.dumps(entry, ensure_ascii=False) + "\n")
    return corpus_path, fixtures_path


@pytest.fixture
def pipeline_fixture(tmp_path: Path) -> tuple[Path, Path]:
    return write_pipeline_fixture(tmp_path / "fixture")


@pytest.fixture(autouse=True)
def _package_log_level():
    """An in-process ``cli.main`` sets the ``histocr`` logger's level; each test starts from the same one."""
    logger = logging.getLogger("histocr")
    level = logger.level
    yield
    logger.setLevel(level)


def pytest_pycollect_makeitem(collector, name, obj):
    """Fail the collection of a test-class method that is both ``@given`` and parametrized.

    Hypothesis runs such a test with one class instance per parameter set, and
    from Python 3.12 on that fails its ``differing_executors`` health check,
    while under 3.11 the same test passes; so the mix is refused here, on every
    interpreter. Loop over the cases inside one ``@given`` test instead.
    """
    if not isinstance(collector, pytest.Class) or not getattr(obj, "is_hypothesis_test", False):
        return None
    marks = [*getattr(obj, "pytestmark", []), *collector.iter_markers()]
    if any(mark.name == "parametrize" for mark in marks):
        raise collector.CollectError(
            f"{collector.nodeid}::{name} is both @given and parametrized; on Python 3.12 and later "
            "hypothesis fails it with FailedHealthCheck (differing_executors). "
            "Loop over the cases inside the @given test instead."
        )
    return None


def pytest_runtest_logreport(report):
    """One visible PASS/FAIL line per acceptance criterion."""
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        print(f"\n[acceptance] {name}: {'PASS' if report.passed else 'FAIL'}")
