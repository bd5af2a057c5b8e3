import json

import numpy as np
import pytest

from ncstat.algebra import AlgebraSpec, State
from ncstat.errors import ShapeError
from ncstat.generators import GeneratorConfig, gen_element, gen_morphism, rng_for
from ncstat.serialize import (
    algebra_from_json,
    algebra_to_json,
    cpu_from_json,
    cpu_to_json,
    element_from_json,
    element_to_json,
    hom_from_json,
    hom_to_json,
    load_any,
    matrix_from_json,
    matrix_to_json,
    morphism_from_json,
    morphism_to_json,
    read_json,
    sniff_kind,
    state_from_json,
    state_to_json,
    write_json,
)

CFG = GeneratorConfig(seed=9, trials=4)


def through_json(doc):
    # real json round trip, not just dict identity
    return json.loads(json.dumps(doc))


def test_matrix_roundtrip_bit_exact():
    rng = rng_for(CFG, 0)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    back = matrix_from_json(through_json(matrix_to_json(m)))
    assert np.array_equal(back, m)


def test_matrix_real_only_accepted():
    m = matrix_from_json({"re": [[1.0, 2.0], [3.0, 4.0]]})
    assert np.array_equal(m, np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex))


def test_matrix_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        matrix_from_json({"re": [[1.0]], "im": [[1.0, 2.0]]})


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
def test_matrix_non_finite_rejected(text):
    # the json module reads these spellings as float nan and +-inf
    with pytest.raises(ShapeError, match="non-finite"):
        matrix_from_json(json.loads(f'{{"re": [[1.0, 0.0], [0.0, {text}]]}}'))
    with pytest.raises(ShapeError, match="non-finite"):
        matrix_from_json(json.loads(f'{{"re": [[1.0]], "im": [[{text}]]}}'))


def test_algebra_roundtrip():
    a = AlgebraSpec((2, 3, 1))
    assert algebra_from_json(through_json(algebra_to_json(a))) == a


def test_element_roundtrip():
    e = gen_element(rng_for(CFG, 1), AlgebraSpec((2, 1)))
    back = element_from_json(through_json(element_to_json(e)))
    assert back.algebra == e.algebra
    for b1, b2 in zip(back.blocks, e.blocks):
        assert np.array_equal(b1, b2)


def test_state_roundtrip():
    s = State(AlgebraSpec((2, 1)), (np.eye(2) / 4, np.array([[0.5]])))
    back = state_from_json(through_json(state_to_json(s)))
    assert back.algebra == s.algebra
    for b1, b2 in zip(back.densities, s.densities):
        assert np.array_equal(b1, b2)


def test_morphism_roundtrip_preserves_everything():
    m = gen_morphism(CFG, rng_for(CFG, 2))
    back = morphism_from_json(through_json(morphism_to_json(m)))
    assert back.hom.mult == m.hom.mult
    for u1, u2 in zip(back.hom.conjugators, m.hom.conjugators):
        assert np.array_equal(u1, u2)
    for r1, r2 in zip(back.cpu.components, m.cpu.components):
        for c1, c2 in zip(r1, r2):
            assert np.array_equal(c1, c2)
    for d1, d2 in zip(back.source.state.densities, m.source.state.densities):
        assert np.array_equal(d1, d2)


def test_hom_and_cpu_standalone_roundtrip():
    m = gen_morphism(CFG, rng_for(CFG, 3))
    f = hom_from_json(through_json(hom_to_json(m.hom)))
    assert f.mult == m.hom.mult
    q = cpu_from_json(through_json(cpu_to_json(m.cpu)))
    assert q.source == m.cpu.source and q.target == m.cpu.target


def test_cpu_missing_component_rejected():
    m = gen_morphism(CFG, rng_for(CFG, 3))
    doc = cpu_to_json(m.cpu)
    doc["components"] = doc["components"][1:]
    with pytest.raises(ShapeError):
        cpu_from_json(doc)


def test_sniffing():
    m = gen_morphism(CFG, rng_for(CFG, 2))
    assert sniff_kind(morphism_to_json(m)) == "morphism"
    assert sniff_kind(state_to_json(m.source.state)) == "state"
    assert sniff_kind(hom_to_json(m.hom)) == "hom"
    assert sniff_kind(cpu_to_json(m.cpu)) == "cpu"
    assert sniff_kind(matrix_to_json(np.eye(2))) == "matrix"
    assert sniff_kind({"blocks": [2, 1]}) == "algebra"
    assert sniff_kind(element_to_json(gen_element(rng_for(CFG, 1), AlgebraSpec((2,))))) == "element"
    with pytest.raises(ShapeError):
        sniff_kind({"what": 1})


def test_load_any_dispatch():
    m = gen_morphism(CFG, rng_for(CFG, 2))
    assert load_any(state_to_json(m.source.state)).algebra == m.source.algebra


def test_file_io(tmp_path):
    path = str(tmp_path / "m.json")
    m = gen_morphism(CFG, rng_for(CFG, 2))
    write_json(path, morphism_to_json(m))
    back = load_any(read_json(path))
    assert back.hom.mult == m.hom.mult


def _cpu_with_entry(y):
    doc = cpu_to_json(gen_morphism(CFG, rng_for(CFG, 3)).cpu)
    doc["components"][0]["y"] = y
    return doc


def _cpu_with_last_row_at(y):
    """A CPU document whose last target row is renumbered y."""
    doc = cpu_to_json(gen_morphism(CFG, rng_for(CFG, 0)).cpu)
    last = len(doc["target"]["blocks"]) - 1
    for entry in doc["components"]:
        if entry["y"] == last:
            entry["y"] = y
    return doc


def _cpu_with_repeated_entry():
    doc = cpu_to_json(gen_morphism(CFG, rng_for(CFG, 0)).cpu)
    doc["components"].append(doc["components"][0])
    return doc


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"algebra": {}, "densities": []}, "lacks the key 'blocks'"),
        ({"algebra": {"blocks": 2}, "densities": []}, "not iterable"),
        ({"re": [[{"x": 1.0}]]}, "malformed matrix"),
        ({"blocks": [float("inf")]}, "malformed algebra"),
        (_cpu_with_entry(7), "index out of range"),
        (_cpu_with_last_row_at(-1), "index out of range"),
        (_cpu_with_repeated_entry(), "repeated CPU component y=0 x=0"),
    ],
)
def test_load_any_turns_malformed_documents_into_shape_errors(doc, message):
    with pytest.raises(ShapeError, match=message):
        load_any(through_json(doc))


def test_matrix_roundtrip_keeps_signed_zeros():
    m = np.array([[complex(-0.0, 1.0), complex(1.0, -0.0)], [complex(-0.0, -0.0), 2.0]])
    back = matrix_from_json(through_json(matrix_to_json(m)))
    assert np.array_equal(back.view(np.uint64), m.view(np.uint64))
