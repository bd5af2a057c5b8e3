"""The shared matrix checks: a wrong shape raises a ShapeError naming the
matrix, and the PSD reports match the per-type validator loops they replaced.
"""

import re

import numpy as np
import pytest

from ncstat.algebra import AlgebraElement, AlgebraSpec, State, validate_state
from ncstat.errors import ShapeError
from ncstat.generators import (
    GeneratorConfig,
    gen_algebra,
    gen_alpha_family,
    gen_morphism,
    gen_state,
    rng_for,
)
from ncstat.hypotheses import AlphaFamily
from ncstat.maps import CPUMap, RawLinearMap, StarHom, apply_cpu, validate_cpu

CFG = GeneratorConfig(seed=17, trials=6)
ATOL = 1e-9
ONE, TWO = AlgebraSpec((1,)), AlgebraSpec((2,))


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: AlgebraElement(AlgebraSpec((2, 3)), (np.eye(2), np.eye(2))), "block 1"),
        (lambda: State(AlgebraSpec((2, 3)), (np.eye(2) / 2, np.eye(2))), "density 1"),
        (lambda: StarHom(ONE, TWO, ((2,),), (np.eye(3),)), "conjugator 0"),
        (lambda: RawLinearMap(ONE, TWO, np.zeros((4, 2))), "raw matrix"),
        (
            lambda: CPUMap(AlgebraSpec((1, 1)), TWO, ((np.eye(2), np.eye(3)),)),
            "component (0,1)",
        ),
        (lambda: AlphaFamily(((np.ones((2, 3)),),)), "entry (0,0)"),
    ],
    ids=["element", "state", "hom", "raw", "cpu", "alpha"],
)
def test_wrong_shape_names_the_matrix(build, name):
    with pytest.raises(ShapeError, match=re.escape(f"{name} must be ")):
        build()


# Reference: the validator loops as they were written out per type, each
# returning its (kind, where, residual) list and faithful flag.


def _ref_state(s, atol):
    violations = []
    total = 0.0
    min_eig = np.inf
    for x, d in enumerate(s.densities):
        herm = np.linalg.norm(d - d.conj().T)
        if herm > atol:
            violations.append(("hermiticity", f"block {x}", float(herm)))
        vals = np.linalg.eigvalsh((d + d.conj().T) / 2)
        if vals.size:
            min_eig = min(min_eig, float(vals[0]))
            if vals[0] < -atol:
                violations.append(("positivity", f"block {x}", float(-vals[0])))
        total += float(np.trace(d).real)
    if abs(total - 1.0) > atol:
        violations.append(("normalization", "total trace", abs(total - 1.0)))
    return violations, bool(min_eig > atol)


def _ref_alphas(fam, atol):
    violations = []
    min_eig = np.inf
    for y, row in enumerate(fam.blocks):
        for x, a in enumerate(row):
            if a is None:
                continue
            herm = np.linalg.norm(a - a.conj().T)
            if herm > atol:
                violations.append(("hermiticity", f"alpha ({y},{x})", float(herm)))
            vals = np.linalg.eigvalsh((a + a.conj().T) / 2)
            min_eig = min(min_eig, float(vals[0]))
            if vals[0] < -atol:
                violations.append(("positivity", f"alpha ({y},{x})", float(-vals[0])))
    for y, tr in enumerate(fam.row_traces()):
        if abs(tr - 1.0) > atol:
            violations.append(("normalization", f"source block {y}", abs(tr - 1.0)))
    return violations, bool(min_eig > atol)


def _ref_cpu(q, atol):
    violations = []
    for y, n in enumerate(q.target.block_dims):
        for x, m in enumerate(q.source.block_dims):
            c = q.components[y][x]
            herm = np.linalg.norm(c - c.conj().T)
            if herm > atol:
                violations.append(("choi-hermiticity", f"component ({y},{x})", float(herm)))
            vals = np.linalg.eigvalsh((c + c.conj().T) / 2)
            if vals.size and vals[0] < -atol:
                violations.append(("cp", f"component ({y},{x})", float(-vals[0])))
    one = apply_cpu(q, q.source.identity())
    for y, n in enumerate(q.target.block_dims):
        defect = np.linalg.norm(one.blocks[y] - np.eye(n))
        if defect > atol:
            violations.append(("unitality", f"target block {y}", float(defect)))
    return violations, None


def _spoil(m, case):
    """m as it is, with an anti-Hermitian part, or shifted below zero."""
    side = m.shape[0]
    return {
        "valid": m,
        "non-hermitian": m + 1e-3j * np.eye(side),
        "non-psd": m - 0.3 * np.eye(side),
    }[case]


CASES = ["valid", "non-hermitian", "non-psd"]


def _listed(report):
    return [(v.kind, v.where, v.residual) for v in report.violations], report.faithful


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("trial", range(CFG.trials))
def test_validators_match_the_reference_loops(case, trial):
    rng = rng_for(CFG, trial)
    s = gen_state(gen_algebra(rng, CFG), CFG, rng)
    s = State(s.algebra, tuple(_spoil(d, case) for d in s.densities))
    assert _listed(validate_state(s, ATOL)) == _ref_state(s, ATOL)

    m = gen_morphism(CFG, rng)
    fam = gen_alpha_family(rng, m.hom.mult)
    fam = AlphaFamily(
        tuple(tuple(None if a is None else _spoil(a, case) for a in row) for row in fam.blocks),
    )
    assert _listed(fam.validate(ATOL)) == _ref_alphas(fam, ATOL)

    q = m.cpu
    q = CPUMap(
        q.source, q.target, tuple(tuple(_spoil(c, case) for c in row) for row in q.components)
    )
    assert _listed(validate_cpu(q, ATOL)) == _ref_cpu(q, ATOL)
    if case == "valid":
        assert validate_state(s, ATOL).ok and fam.validate(ATOL).ok and validate_cpu(q).ok
