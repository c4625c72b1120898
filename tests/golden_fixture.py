"""The fixed history used by the golden prompt files.

Regenerate the files with:  python tests/golden_fixture.py
Any regeneration must be followed by a manual re-inspection of every file.
"""
from __future__ import annotations

import os

from tkgrag.kg import Quadruple, TemporalKG
from tkgrag.prompts import FORMATS, ORDERS, PromptConfig, build_prompt
from tkgrag.retrieval import Provenance, Query, RetrievedHistory

from conftest import history_of

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def golden_kg() -> TemporalKG:
    entities = ["Abdul", "France", "Germany", "New Entity"]
    relations = ["Make an appeal or request", "Consult", "Sign agreement"]
    quads = [
        (0, 1, 1, 330),  # Abdul Consult France
        (0, 2, 2, 331),  # Abdul Sign agreement Germany
        (0, 1, 1, 333),  # Abdul Consult France (repeat object)
        (0, 0, 3, 334),  # the query event itself (never rendered)
    ]
    return TemporalKG(entities, relations, quads)


def golden_history() -> RetrievedHistory:
    query = Query(subject=0, relation=0, t=334, gold_object=3)
    facts = (
        Quadruple(0, 1, 1, 330),
        Quadruple(0, 2, 2, 331),
        Quadruple(0, 1, 1, 333),
    )
    provenance = (
        Provenance(rank=1, body_relation=1, confidence=0.9),
        Provenance(rank=2, body_relation=2, confidence=0.4),
        Provenance(rank=1, body_relation=1, confidence=0.9),
    )
    return history_of(query, facts, provenance)


def golden_name(fmt: str, order: str) -> str:
    return f"{fmt}-{order}.txt"


def render_all() -> dict[str, str]:
    kg = golden_kg()
    history = golden_history()
    out = {}
    for fmt in FORMATS:
        for order in ORDERS:
            cfg = PromptConfig(format=fmt, order=order, order_seed=0)
            out[golden_name(fmt, order)] = build_prompt(history, cfg, kg).text
    return out


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, text in render_all().items():
        with open(os.path.join(GOLDEN_DIR, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {name}")
