"""The typed JSON codec of `tkgrag.files`: `typed`, `fields_of` and
`json_fields`."""
import json
import re
from typing import Optional

import pytest

from tkgrag.client import PredictionList
from tkgrag.evaluation import EvalRecord
from tkgrag.files import fields_of, json_fields, typed
from tkgrag.prompts import Prompt
from tkgrag.retrieval import Query
from tkgrag.rules import Provenance, TemporalRule


@pytest.mark.parametrize("obj", [
    Query(3, 1, 7, gold_object=4),
    Query(3, 1, 7),
    Provenance(rank=0),
    Provenance(rank=2, body_relation=5, confidence=0.25),
    TemporalRule(0, 3, body_support=4, rule_support=1, confidence=0.25),
    EvalRecord(Query(3, 1, 7, 4), (9, 4, 2), rank=2, n_skipped=1, fingerprint="ab"),
    EvalRecord(Query(3, 1, 7, 4), (9,), rank=None),
    Prompt("0:[a, r, 0.b]\n1:[a, r,", {12: 0}, "1:[a, r,", "index"),
    Prompt("0:[a, r, b]\n1:[a, r,", {}, "1:[a, r,", "lexical"),
    PredictionList((4, 2), ("4.x]", "2.y]"), n_skipped=1),
], ids=["query-gold", "query-no-gold", "provenance-head", "provenance-body", "rule",
        "record-ranked", "record-unranked", "prompt-index", "prompt-lexical", "predictions"])
def test_round_trip(obj):
    assert fields_of(type(obj), json.loads(json.dumps(json_fields(obj)))) == obj


def test_json_keys_and_left_out_fields():
    def written(obj):
        return json.loads(json.dumps(json_fields(obj)))

    assert written(Query(3, 1, 7)) == {"s": 3, "r": 1, "t": 7}
    assert written(Query(3, 1, 7, 0)) == {"s": 3, "r": 1, "t": 7, "gold": 0}
    assert written(Provenance(0)) == {"rank": 0}
    # a None without a None default is written
    assert written(EvalRecord(Query(0, 0, 1, 2), (), None)) == \
        {"query": {"s": 0, "r": 0, "t": 1, "gold": 2}, "predictions": [], "rank": None,
         "n_skipped": 0, "fingerprint": ""}
    assert written(PredictionList((1,), ("1.x]",))) == \
        {"ranked": [1], "raw": ["1.x]"], "n_skipped": 0}
    assert written(Prompt("t", {3: 0})) == \
        {"text": "t", "index_map": {"3": 0}, "query_prefix": "", "format": "index"}


@pytest.mark.parametrize("kind, value", [
    (int, 3), (int, -2**63), (int, 2**63 - 1), (float, 0.5), (float, 2), (bool, False),
    (str, ""), (Optional[int], None), (Optional[int], 4), (tuple[int, ...], []),
    (tuple[str, ...], ["a"]), (dict[int, int], {}), (dict[int, int], {"-3": 1, "0": 2}),
])
def test_values_that_fit(kind, value):
    got = typed(kind, value, "f")
    assert got == (tuple(value) if isinstance(value, list) else
                   {int(k): v for k, v in value.items()} if isinstance(value, dict) else value)


@pytest.mark.parametrize("kind, value, message", [
    (int, True, "f: expected int, got True"),
    (int, 1.0, "f: expected int, got 1.0"),
    (int, 2**63, f"f: expected int, got {2**63}"),
    (int, -2**63 - 1, f"f: expected int, got {-2**63 - 1}"),
    (float, False, "f: expected float, got False"),
    (float, "1", "f: expected float, got '1'"),
    (bool, 0, "f: expected bool, got 0"),
    (Optional[int], "1", "f: expected int or None, got '1'"),
    (tuple[int, ...], (1,), "f: expected tuple[int, ...], got (1,)"),
    (tuple[int, ...], [1, None], "f[1]: expected int, got None"),
    (dict[int, int], {"01": 1}, "f: expected dict[int, int], got {'01': 1}"),
    (dict[int, int], {"a": 1}, "f: expected dict[int, int], got {'a': 1}"),
    (dict[int, int], {"2": "x"}, "f.2: expected int, got 'x'"),
    (Query, [1], "f: expected Query, got [1]"),
    (Query, {"s": 1, "r": True, "t": 0}, "f.r: expected int, got True"),
    (Query, {"s": 1, "r": 0, "t": -1}, "f: t must be >= 0"),
])
def test_values_that_do_not_fit(kind, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        typed(kind, value, "f")


def test_missing_field_raises_its_json_key():
    with pytest.raises(KeyError, match="'s'"):
        fields_of(Query, {"r": 0, "t": 1})
    assert fields_of(Prompt, {"text": "t"}) == Prompt("t", {}, "", "index")


def test_closed_object_rejects_other_keys():
    assert fields_of(Query, {"s": 1, "r": 0, "t": 2, "x": 0}) == Query(1, 0, 2)
    with pytest.raises(ValueError, match="^q: .*unexpected keyword argument 'x'$"):
        fields_of(Query, {"s": 1, "r": 0, "t": 2, "x": 0}, "q", closed=True)
