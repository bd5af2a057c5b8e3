"""Property tests: serialize round trips bit for bit, and no input file crashes the CLI.

Every command that reads files (all but ``check``) gets documents made by
mutating one well-formed input: a value replaced by arbitrary JSON, a key or
an entry dropped, the whole document replaced, or text that is not JSON.
It must return 0, 1 or 2 and raise nothing; exit 2 comes with one
``ncstat: error:`` line on stderr.  The examples are derandomized, so a run
is reproducible.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ncstat.cli import main
from ncstat.generators import (
    GeneratorConfig,
    gen_algebra,
    gen_composable_pair,
    gen_morphism,
    gen_optimal_morphism,
    gen_star_hom,
    gen_state,
    rng_for,
)
from ncstat.serialize import (
    hom_from_json,
    hom_to_json,
    matrix_from_json,
    matrix_to_json,
    morphism_to_json,
    state_from_json,
    state_to_json,
)

FUZZ = settings(
    max_examples=40,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def through_json(doc):
    return json.loads(json.dumps(doc))


def bits(m: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(m, dtype=np.complex128).view(np.uint64)


def assert_bit_exact(ms, ns):
    assert len(ms) == len(ns)
    for m, n in zip(ms, ns):
        assert m.shape == n.shape
        assert np.array_equal(bits(m), bits(n))


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    parts = draw(st.lists(finite, min_size=2 * rows * cols, max_size=2 * rows * cols))
    re = np.array(parts[: rows * cols]).reshape(rows, cols)
    im = np.array(parts[rows * cols :]).reshape(rows, cols)
    out = re.astype(np.complex128)
    out.imag = im
    return out


@FUZZ
@given(matrices())
def test_matrix_roundtrip_is_bit_exact(m):
    # any finite doubles, signed zeros and subnormals included
    assert_bit_exact([matrix_from_json(through_json(matrix_to_json(m)))], [m])


@FUZZ
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4))
def test_seeded_matrix_roundtrip_is_bit_exact(seed, rows, cols):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    assert_bit_exact([matrix_from_json(through_json(matrix_to_json(m)))], [m])


@FUZZ
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_seeded_state_roundtrip_is_bit_exact(seed, faithful):
    cfg = GeneratorConfig(seed=seed, trials=1)
    rng = rng_for(cfg, 0)
    s = gen_state(gen_algebra(rng, cfg), cfg, rng, faithful=faithful)
    back = state_from_json(through_json(state_to_json(s)))
    assert back.algebra == s.algebra
    assert_bit_exact(back.densities, s.densities)


@FUZZ
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_seeded_hom_roundtrip_is_bit_exact(seed, standard):
    cfg = GeneratorConfig(seed=seed, trials=1)
    rng = rng_for(cfg, 0)
    f = gen_star_hom(rng, gen_algebra(rng, cfg), cfg, standard=standard)
    back = hom_from_json(through_json(hom_to_json(f)))
    assert (back.source, back.target, back.mult) == (f.source, f.target, f.mult)
    assert_bit_exact(back.conjugators, f.conjugators)


# Small well-formed inputs, one per role a command's file can play.
CFG = GeneratorConfig(seed=3, trials=4, max_blocks=2, max_block_dim=2)
_m = gen_morphism(CFG, rng_for(CFG, 0), faithful=True)
_inner, _outer = gen_composable_pair(CFG, rng_for(CFG, 1))
_opt = gen_optimal_morphism(CFG, rng_for(CFG, 2))
_rng = rng_for(CFG, 3)
_g = _rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))
DOCS = {
    "m": morphism_to_json(_m),
    "inner": morphism_to_json(_inner),
    "outer": morphism_to_json(_outer),
    "hom": hom_to_json(_opt.hom),
    "omega": state_to_json(_opt.target.state),
    "s1": state_to_json(_m.target.state),
    "s2": state_to_json(gen_state(_m.target.state.algebra, CFG, _rng)),
    "rho": matrix_to_json(_g @ _g.conj().T / np.trace(_g @ _g.conj().T).real),
}
# command name, the documents it reads, trailing arguments
COMMANDS = [
    ("validate", ["m"], []),
    ("validate", ["omega"], []),
    ("rel-entropy", ["s1", "s2"], []),
    ("re", ["m"], []),
    ("rectify", ["m"], []),
    ("compose", ["inner", "outer"], []),
    ("disintegrate", ["hom", "omega"], []),
    ("chain-rule", ["rho"], ["--dims", "2,2,2"]),
]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 5)
    | st.floats(-2.0, 2.0)
    | st.sampled_from([float("nan"), float("inf"), -float("inf")])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["re", "im", "blocks", "mult", "x"]), inner, max_size=3),
    max_leaves=6,
)


def _paths(doc, prefix=()):
    """Every (path to a container, key or index) inside doc."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix, key
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


@st.composite
def malformed(draw, doc):
    """Text of a document made by one mutation of doc."""
    how = draw(st.sampled_from(["replace", "replace", "drop", "whole", "text"]))
    if how == "text":
        return draw(st.text(max_size=20))
    if how == "whole":
        return json.dumps(draw(json_values))
    doc = json.loads(json.dumps(doc))
    path, key = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for step in path:
        parent = parent[step]
    if how == "drop":
        del parent[key]
    else:
        parent[key] = draw(json_values)
    return json.dumps(doc)


@st.composite
def cli_cases(draw):
    name, roles, extra = draw(st.sampled_from(COMMANDS))
    bad = draw(st.integers(0, len(roles) - 1))
    texts = [
        draw(malformed(DOCS[role])) if i == bad else json.dumps(DOCS[role])
        for i, role in enumerate(roles)
    ]
    return name, texts, extra


@FUZZ
@given(cli_cases())
def test_cli_survives_malformed_documents(case):
    name, texts, extra = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, text in enumerate(texts):
            paths.append(os.path.join(tmp, f"in{i}.json"))
            with open(paths[-1], "w") as fh:
                fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([name, *paths, *extra])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("ncstat: error: ")
        assert err.getvalue().count("\n") == 1
