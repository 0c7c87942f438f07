"""Walkthrough: the full pipeline against a deterministic mock backend.

Writes a tiny corpus and a fixture table of canned model responses into a
temporary directory, runs clean -> correct -> classify -> apply -> report,
and shows the final texts (OCR errors fixed, surface forms preserved), the
surface-form lexicon, and the run report.

Run from the repository root:  python demos/03_full_pipeline.py
"""

import json
import tempfile
from pathlib import Path

from histocr.client import MockBackend
from histocr.config import PipelineConfig
from histocr.pipeline import run_pipeline
from histocr.records import load_processed

ROWS = [
    # (id, newspaper, country, year, original text, mock model response)
    ("d01", "El Oso", "Peru", 1845,
     "La publicacion se harà cada se mana sin falta.",
     "La publicación se hará cada semana sin falta."),
    ("d02", "La Gaceta", "Mexico", 1861,
     "El jeneral era mui estricto con la tropa.",
     "El general era muy estricto con la tropa."),
    ("d03", "La Gaceta", "Mexico", 1862,
     "El escribano cambiólo por otro libro de actas.",
     "El escribano lo cambió por otro libro de actas."),
    ("d04", "El Faro", "Colombia", 1871,
     "En 6rden al reclamo se aplazó la vista de la causa.",
     "En órden al reclamo se aplazó la vista de la causa."),
    ("d05", "El Faro", "Colombia", 1872,
     "El vecindario pedia faroles que alumbraran la calle.",
     "El vecindario pedía faroles que alumbraran la calle."),
]

with tempfile.TemporaryDirectory() as tmp:
    tmp_path = Path(tmp)
    corpus = tmp_path / "corpus.jsonl"
    fixtures = tmp_path / "responses.jsonl"
    out = tmp_path / "out"

    with open(corpus, "w", encoding="utf-8") as fh:
        for rid, paper, country, year, text, _ in ROWS:
            fh.write(json.dumps({"id": rid, "newspaper": paper, "country": country,
                                 "city": None, "year": year, "text": text},
                                ensure_ascii=False) + "\n")
    with open(fixtures, "w", encoding="utf-8") as fh:
        for _, _, _, _, text, response in ROWS:
            fh.write(json.dumps({"input_hash": MockBackend.hash_text(text),
                                 "output": response}, ensure_ascii=False) + "\n")

    config = PipelineConfig(
        input=str(corpus),
        output_dir=str(out),
        backend="mock",
        mock_fixtures=str(fixtures),
    )
    code = run_pipeline(config)
    print(f"pipeline exit code: {code}")
    print(f"artifacts: {sorted(p.name for p in out.iterdir())}")
    print()

    print("final texts (OCR errors fixed, surface forms kept as written):")
    for item in load_processed(out / "final.jsonl").records:
        print(f"  {item.record.id} [{item.status}]")
        print(f"    in : {item.record.text}")
        print(f"    out: {item.text_final}")
    print()

    print("surface-form lexicon:")
    print((out / "lexicon.tsv").read_text(encoding="utf-8"))
    print("run report:")
    print((out / "report.txt").read_text(encoding="utf-8"))
