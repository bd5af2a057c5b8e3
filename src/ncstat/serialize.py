"""JSON encoding for every object the command line handles.

Complex matrices are stored as {"re": [[...]], "im": [[...]]} row-major so the
files stay diffable; floats go through Python's repr and round-trip exactly.
Loaders sniff the kind of a document from its keys, so one entry point can
accept a state, a homomorphism, a CPU map, or a full morphism.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .algebra import AlgebraElement, AlgebraSpec, State
from .errors import ShapeError
from .hypotheses import NCMorphism, NCObject
from .maps import CPUMap, StarHom


def matrix_to_json(m: np.ndarray) -> dict:
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2:
        raise ShapeError(f"expected a matrix, got ndim {arr.ndim}")
    return {"re": arr.real.tolist(), "im": arr.imag.tolist()}


def matrix_from_json(doc: dict) -> np.ndarray:
    re = np.asarray(doc["re"], dtype=float)
    im = np.asarray(doc.get("im", np.zeros_like(re)), dtype=float)
    if re.shape != im.shape or re.ndim != 2:
        raise ShapeError("re/im parts disagree or are not matrices")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ShapeError("matrix has non-finite entries")
    out = re.astype(np.complex128)
    out.imag = im  # re + 1j * im would turn a -0.0 in either part into +0.0
    return out


def algebra_to_json(a: AlgebraSpec) -> dict:
    return {"blocks": list(a.block_dims)}


def algebra_from_json(doc: dict) -> AlgebraSpec:
    return AlgebraSpec(tuple(int(d) for d in doc["blocks"]))


def element_to_json(e: AlgebraElement) -> dict:
    return {
        "algebra": algebra_to_json(e.algebra),
        "blocks": [matrix_to_json(b) for b in e.blocks],
    }


def element_from_json(doc: dict) -> AlgebraElement:
    alg = algebra_from_json(doc["algebra"])
    return AlgebraElement(alg, tuple(matrix_from_json(b) for b in doc["blocks"]))


def state_to_json(s: State) -> dict:
    return {
        "algebra": algebra_to_json(s.algebra),
        "densities": [matrix_to_json(d) for d in s.densities],
    }


def state_from_json(doc: dict) -> State:
    alg = algebra_from_json(doc["algebra"])
    return State(alg, tuple(matrix_from_json(d) for d in doc["densities"]))


def hom_to_json(f: StarHom) -> dict:
    return {
        "source": algebra_to_json(f.source),
        "target": algebra_to_json(f.target),
        "mult": [list(row) for row in f.mult],
        "conjugators": [matrix_to_json(u) for u in f.conjugators],
    }


def hom_from_json(doc: dict) -> StarHom:
    return StarHom(
        source=algebra_from_json(doc["source"]),
        target=algebra_from_json(doc["target"]),
        mult=tuple(tuple(int(c) for c in row) for row in doc["mult"]),
        conjugators=tuple(matrix_from_json(u) for u in doc["conjugators"]),
    )


def cpu_to_json(q: CPUMap) -> dict:
    comps = []
    for y in range(q.target.num_blocks):
        for x in range(q.source.num_blocks):
            comps.append({"y": y, "x": x, "choi": matrix_to_json(q.components[y][x])})
    return {
        "source": algebra_to_json(q.source),
        "target": algebra_to_json(q.target),
        "components": comps,
    }


def cpu_from_json(doc: dict) -> CPUMap:
    source = algebra_from_json(doc["source"])
    target = algebra_from_json(doc["target"])
    grid: list[list[np.ndarray | None]] = [
        [None] * source.num_blocks for _ in range(target.num_blocks)
    ]
    for entry in doc["components"]:
        y, x = int(entry["y"]), int(entry["x"])
        if not (0 <= y < target.num_blocks and 0 <= x < source.num_blocks):
            raise ShapeError(f"CPU component index out of range: y={y} x={x}")
        if grid[y][x] is not None:
            raise ShapeError(f"repeated CPU component y={y} x={x}")
        grid[y][x] = matrix_from_json(entry["choi"])
    for y, row in enumerate(grid):
        for x, c in enumerate(row):
            if c is None:
                raise ShapeError(f"missing CPU component y={y} x={x}")
    return CPUMap(source, target, tuple(tuple(row) for row in grid))


def morphism_to_json(m: NCMorphism) -> dict:
    return {
        "source": state_to_json(m.source.state),
        "target": state_to_json(m.target.state),
        "hom": hom_to_json(m.hom),
        "cpu": cpu_to_json(m.cpu),
    }


def morphism_from_json(doc: dict) -> NCMorphism:
    return NCMorphism(
        source=NCObject.from_state(state_from_json(doc["source"])),
        target=NCObject.from_state(state_from_json(doc["target"])),
        hom=hom_from_json(doc["hom"]),
        cpu=cpu_from_json(doc["cpu"]),
    )


def sniff_kind(doc: dict) -> str:
    """Classify a JSON document by its keys."""
    if not isinstance(doc, dict):
        raise ShapeError("expected a JSON object at the top level")
    if "hom" in doc and "cpu" in doc:
        return "morphism"
    if "densities" in doc:
        return "state"
    if "mult" in doc:
        return "hom"
    if "components" in doc:
        return "cpu"
    if "blocks" in doc and "algebra" in doc:
        return "element"
    if "re" in doc:
        return "matrix"
    if "blocks" in doc:
        return "algebra"
    raise ShapeError(f"cannot classify document with keys {sorted(doc)}")


_LOADERS = {
    "morphism": morphism_from_json,
    "state": state_from_json,
    "hom": hom_from_json,
    "cpu": cpu_from_json,
    "element": element_from_json,
    "matrix": matrix_from_json,
    "algebra": algebra_from_json,
}


def load_any(doc: dict) -> Any:
    """Load a document of any kind; a malformed one raises ShapeError."""
    kind = sniff_kind(doc)
    try:
        return _LOADERS[kind](doc)
    except KeyError as exc:
        raise ShapeError(f"{kind} document lacks the key {exc}") from exc
    except (TypeError, IndexError, OverflowError) as exc:
        raise ShapeError(f"malformed {kind} document: {exc}") from exc


def read_json(path: str) -> Any:
    with open(path) as fh:
        return json.load(fh)


def write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
