"""Hodge layers and `compare` reports of small jobs over Z/4, Z/6, Z/8,
Z/9 and Q against tests/layer_goldens.json (written by
tests/make_layer_goldens.py)."""

import importlib.util
import json
from pathlib import Path

import pytest

from shukla.cli import parse, run

HERE = Path(__file__).resolve().parent
GOLDENS = json.loads((HERE / "layer_goldens.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_layers_match_golden(name):
    golden = GOLDENS[name]
    report, ok = run(parse(golden["text"]), "layers")
    assert ok
    got = json.loads(json.dumps({"hh": report["hh"], "hc": report["hc"]}))
    assert got == {"hh": golden["hh"], "hc": golden["hc"]}


@pytest.mark.parametrize("name", sorted(n for n in GOLDENS if "compare" in GOLDENS[n]))
def test_compare_matches_golden(name):
    golden = GOLDENS[name]
    report, ok = run(parse(golden["text"]), "compare")
    assert ok
    got = json.loads(json.dumps({f: report[f] for f in golden["compare"]}))
    assert got == golden["compare"]


def test_goldens_match_their_generator():
    # the file and the fixtures that write it must not drift apart
    spec = importlib.util.spec_from_file_location("make_layer_goldens",
                                                  HERE / "make_layer_goldens.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    assert sorted(gen.FIXTURES) == sorted(GOLDENS)
    for name, (ring, variables, relations, nmax) in gen.FIXTURES.items():
        golden = GOLDENS[name]
        assert golden["text"] == gen.job_text(ring, variables, relations, nmax), name
        assert ("compare" in golden) == gen.is_flat(ring, relations), name
