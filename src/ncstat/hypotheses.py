"""Probability-space objects, hypothesis morphisms, rectification, disintegration.

An object is a block algebra with a state.  A morphism from (B, xi) to (A, omega)
is a pair: a unital *-homomorphism F: B -> A with omega after F equal to xi, and
a CPU map Q: A -> B with Q after F the identity.  A morphism is optimal when xi
after Q equals omega; the disintegration machinery below produces and recognizes
such hypotheses through segmentwise tensor factorizations of densities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (
    DEFAULT_ATOL,
    AlgebraElement,
    AlgebraSpec,
    State,
    ValidationReport,
    Violation,
    check_tolerance,
    frozen_matrix,
    hermitian_pinv,
    psd_violations,
    state_distance,
    validate_state,
)
from .errors import (
    AlgebraMismatchError,
    FactorizationError,
    ObjectMismatchError,
    ShapeError,
)
from .maps import (
    CPUMap,
    StarHom,
    _conjugation,
    _fold_conjugation,
    choi_from_function,
    compose_cpu,
    compose_homs,
    conjugate_state,
    cpu_pushforward_state,
    hom_to_cpu,
    identity_cpu,
    pushforward_state,
    strip_conjugators,
    validate_cpu,
)

# Two morphisms compose only if they agree on the shared boundary object.
OBJECT_STATE_ATOL = 1e-8


@dataclass(frozen=True, eq=False)
class NCObject:
    """A block algebra together with a state on it."""

    state: State

    @property
    def algebra(self) -> AlgebraSpec:
        return self.state.algebra


@dataclass(frozen=True, eq=False)
class NCMorphism:
    """A hypothesis: a state-preserving homomorphism with a CPU one-sided inverse."""

    source: NCObject
    target: NCObject
    hom: StarHom
    cpu: CPUMap

    def __post_init__(self):
        if self.hom.source != self.source.algebra:
            raise AlgebraMismatchError("homomorphism source mismatch")
        if self.hom.target != self.target.algebra:
            raise AlgebraMismatchError("homomorphism target mismatch")
        if self.cpu.source != self.target.algebra:
            raise AlgebraMismatchError("CPU map source mismatch")
        if self.cpu.target != self.source.algebra:
            raise AlgebraMismatchError("CPU map target mismatch")

    @cached_property
    def pushback(self) -> State:
        """The source state after the CPU map, xi after Q, built once per morphism."""
        return cpu_pushforward_state(self.source.state, self.cpu)


@dataclass(frozen=True, eq=False)
class AlphaFamily:
    """Strictly positive segment weights of a disintegration-form CPU map.

    blocks[y][x] is a Hermitian PSD matrix, or None where the multiplicity
    vanishes; the multiplicities are read off the block sides.  Validity
    requires sum_x trace(blocks[y][x]) == 1 for every source block y.
    """

    blocks: tuple[tuple[np.ndarray | None, ...], ...]

    def __post_init__(self):
        rows = tuple(
            tuple(
                a if a is None else frozen_matrix(a, (len(a),) * 2, f"entry ({y},{x})")
                for x, a in enumerate(row)
            )
            for y, row in enumerate(self.blocks)
        )
        object.__setattr__(self, "blocks", rows)

    @property
    def mult(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(0 if a is None else a.shape[0] for a in row) for row in self.blocks
        )

    def assemble(self, hom: StarHom, densities) -> tuple[np.ndarray, ...]:
        """Per target block x of hom, blockdiag_y(alpha_yx kron densities[y])."""
        out = []
        for x, (m, segs) in enumerate(zip(hom.target.block_dims, hom.segments)):
            d = np.zeros((m, m), dtype=np.complex128)
            for y, (row, s) in enumerate(zip(self.blocks, segs)):
                if row[x] is not None:
                    d[s, s] = np.kron(row[x], densities[y])
            out.append(d)
        return tuple(out)

    def row_traces(self) -> np.ndarray:
        return np.array(
            [
                sum(np.trace(a).real for a in row if a is not None)
                for row in self.blocks
            ]
        )

    def validate(self, atol: float = DEFAULT_ATOL) -> ValidationReport:
        violations, faithful = psd_violations(
            (
                (f"alpha ({y},{x})", a)
                for y, row in enumerate(self.blocks)
                for x, a in enumerate(row)
                if a is not None
            ),
            atol,
            ("hermiticity", "positivity"),
            atol,
        )
        for y, tr in enumerate(self.row_traces()):
            if abs(tr - 1.0) > atol:
                violations.append(
                    Violation("normalization", f"source block {y}", abs(tr - 1.0))
                )
        return ValidationReport(tuple(violations), faithful)


@dataclass(frozen=True, eq=False)
class RectificationResult:
    """Unitaries stripped off a morphism (or pair) plus the standard-form result."""

    u: AlgebraElement
    morphisms: tuple[NCMorphism, ...]
    v: AlgebraElement | None = None

    @property
    def morphism(self) -> NCMorphism:
        return self.morphisms[0]


@dataclass(frozen=True)
class NoDisintegration:
    """Negative result of a disintegration attempt, with the obstruction size."""

    residual: float
    detail: str = ""


def validate_morphism(m: NCMorphism, atol: float = DEFAULT_ATOL) -> ValidationReport:
    """Check the two morphism axioms and the CPU-map validity of the hypothesis.

    Reports the pushforward defect (target state through the homomorphism versus
    the source state), the worst section defect (CPU after homomorphism versus
    the identity, on matrix units), any CP/unitality violations, and the
    violations of the source and target states, their where prefixed by
    "source state " or "target state ".

    The section defect comes from one Choi composition of Q with the Choi grid
    of the homomorphism (one matrix product per block triple) instead of
    applying both maps to every matrix unit: the defect of E_ij is the
    Frobenius norm of (Q after F minus the identity) at E_ij, over all blocks.
    """
    violations = []
    push = pushforward_state(m.target.state, m.hom)
    push_defect = state_distance(push, m.source.state)
    if push_defect > atol:
        violations.append(Violation("pushforward", "source state", push_defect))
    back = compose_cpu(m.cpu, hom_to_cpu(m.hom))
    ident = identity_cpu(m.source.algebra)
    section = 0.0
    for y, n in enumerate(m.source.algebra.block_dims):
        sq = np.zeros((n, n))  # squared defect of E_ij, one entry per (i, j)
        for yp, n2 in enumerate(m.source.algebra.block_dims):
            r = back.components[yp][y] - ident.components[yp][y]
            sq += np.einsum("ikjl->ij", np.abs(r.reshape(n, n2, n, n2)) ** 2)
        section = max(section, float(np.sqrt(sq.max())))
    if section > atol:
        violations.append(Violation("section", "CPU after hom", section))
    cpu_report = validate_cpu(m.cpu, atol)
    violations.extend(cpu_report.violations)
    for side, obj in (("source", m.source), ("target", m.target)):
        for v in validate_state(obj.state, atol).violations:
            violations.append(Violation(v.kind, f"{side} state {v.where}", v.residual))
    return ValidationReport(tuple(violations))


def is_optimal(m: NCMorphism, atol: float = DEFAULT_ATOL) -> tuple[bool, float]:
    """Whether the source state through the CPU map reproduces the target state.

    Returns the flag and the Frobenius residual between the two states.
    """
    check_tolerance("atol", atol)
    residual = state_distance(m.pushback, m.target.state)
    return residual <= atol, residual


def rectify_morphism(m: NCMorphism) -> RectificationResult:
    """Strip the conjugators off the homomorphism without changing any value.

    The stripped unitary u is folded into the CPU map, as Q after Ad_u, and
    into the target state, so the rectified morphism has a standard-form hom,
    the same source object, and the same validity, optimality, and relative
    entropy.  No Choi grid of Ad_u is built: see _fold_conjugation.
    """
    u = AlgebraElement(m.target.algebra, m.hom.conjugators)
    folded = [
        [_fold_conjugation(c, b.T, True) for c, b in zip(row, u.blocks)]
        for row in m.cpu.components
    ]
    cpu_r = CPUMap._trusted(m.cpu.source, m.cpu.target, folded)
    target_r = NCObject(conjugate_state(m.target.state, u))
    rectified = NCMorphism(m.source, target_r, strip_conjugators(m.hom), cpu_r)
    return RectificationResult(u=u, morphisms=(rectified,))


def rectify_pair(g: NCMorphism, f: NCMorphism) -> RectificationResult:
    """Rectify a composable pair so both homomorphisms are standard form.

    First the inner morphism is rectified; the unitary v stripped from it is
    pushed through the outer morphism (its CPU map becomes Ad_{v^H} after Q_f,
    folded in like rectify_morphism's, and its source object changes to match)
    before the outer morphism is rectified in turn.  Returns v and the
    outer-target unitary u, with the rectified pair in composition order.
    """
    _check_composable(g, f)
    rg = rectify_morphism(g)
    v = rg.u
    folded = [
        [_fold_conjugation(c, b.conj().T, False) for c in row]
        for row, b in zip(f.cpu.components, v.blocks)
    ]
    ad_v = _conjugation(g.hom.target, g.hom.conjugators)
    f_mid = NCMorphism(
        source=rg.morphism.target,
        target=f.target,
        hom=compose_homs(f.hom, ad_v),
        cpu=CPUMap._trusted(f.cpu.source, f.cpu.target, folded),
    )
    rf = rectify_morphism(f_mid)
    return RectificationResult(u=rf.u, v=v, morphisms=(rg.morphism, rf.morphism))


def _check_composable(g: NCMorphism, f: NCMorphism):
    if f.source.algebra != g.target.algebra:
        raise ObjectMismatchError("middle algebras differ")
    d = state_distance(f.source.state, g.target.state)
    if not d <= OBJECT_STATE_ATOL:
        raise ObjectMismatchError(
            f"middle states differ by {d:.3e} (tolerance {OBJECT_STATE_ATOL:.1e})"
        )


def compose_morphisms(g: NCMorphism, f: NCMorphism) -> NCMorphism:
    """Composite of g then f: homomorphisms compose forward, CPU maps backward."""
    _check_composable(g, f)
    return NCMorphism(
        source=g.source,
        target=f.target,
        hom=compose_homs(f.hom, g.hom),
        cpu=compose_cpu(g.cpu, f.cpu),
    )


# ---------------------------------------------------------------------------
# Disintegration: segmentwise tensor factorization of densities


def _factor_state(
    s: State,
    hom: StarHom,
    refs: tuple[np.ndarray, ...],
    atol: float,
) -> AlphaFamily | NoDisintegration:
    """Factor every block of s as blockdiag_y(alpha_yx kron refs[y]).

    Only the segment layout of hom (multiplicities and block sides) is read,
    so s must already be in the standard frame; the conjugators are ignored.
    Returns the alpha family, or a NoDisintegration carrying the Frobenius norm
    of all segment residuals.  Off-diagonal segments are compared against zero
    at absolute atol; diagonal segments must factor within relative atol; a
    NaN residual fails.  A weightless reference leaves its alpha row
    unconstrained, and the uniform choice is written there.
    """
    check_tolerance("atol", atol)
    # one pseudo-inverse and its normalizer per weighted source block with a copy
    inverses = {}
    for y, ref in enumerate(refs):
        if any(hom.mult[y]) and np.trace(ref).real > atol:
            p = hermitian_pinv(ref)
            inverses[y] = p, np.trace(ref @ p).real
    rows = [[None] * hom.target.num_blocks for _ in refs]
    sq_residual = 0.0
    ok = True
    for x, (density, segs) in enumerate(zip(s.densities, hom.segments)):
        for y, sy in enumerate(segs):
            for yp, sp in enumerate(segs):
                if y != yp:
                    off = np.linalg.norm(density[sy, sp])
                    sq_residual += off**2
                    if not off <= atol:
                        ok = False
        for y, (sy, ref) in enumerate(zip(segs, refs)):
            c = hom.mult[y][x]
            if c == 0:
                continue
            seg = density[sy, sy]
            if y not in inverses:
                # weightless reference: the segment must vanish with it
                rows[y][x] = np.eye(c) / sum(hom.mult[y])
                leak = float(np.linalg.norm(seg))
                sq_residual += leak**2
                if not leak <= 10 * atol:
                    ok = False
                continue
            ref_pinv, denom = inverses[y]
            n = ref.shape[0]
            alpha = np.einsum("kaKb,ba->kK", seg.reshape(c, n, c, n), ref_pinv) / denom
            alpha = (alpha + alpha.conj().T) / 2
            r = np.linalg.norm(seg - np.kron(alpha, ref))
            sq_residual += r**2
            if not r <= atol * max(np.linalg.norm(seg), atol):
                ok = False
            rows[y][x] = alpha
    if not ok:
        r = float(np.sqrt(sq_residual))
        detail = f"state does not factor through the segment layout (residual {r:.3e})"
        return NoDisintegration(r, detail)
    return AlphaFamily(rows)


def extract_alphas(m: NCMorphism) -> AlphaFamily:
    """Recover the segment weights of a disintegration-form hypothesis.

    The source state pushed through the CPU map must decompose, per target
    block, as a direct sum over source blocks of alpha_yx kron (source block
    density).  Raises FactorizationError when any off-diagonal segment or
    factorization residual exceeds tolerance or is NaN, which signals the CPU
    map is not in disintegration form.  Source blocks with weight below
    DEFAULT_ATOL are unconstrained and get the uniform choice.
    """
    if not m.hom.is_standard():
        raise ShapeError("extract_alphas expects a standard-form homomorphism")
    family = _factor_state(m.pushback, m.hom, m.source.state.densities, DEFAULT_ATOL)
    if isinstance(family, NoDisintegration):
        raise FactorizationError(family.residual, family.detail)
    row_defect = float(np.max(np.abs(family.row_traces() - 1.0)))
    if not row_defect <= 10 * DEFAULT_ATOL:
        raise FactorizationError(
            row_defect, f"alpha rows are not normalized (defect {row_defect:.3e})"
        )
    return family


def build_hypothesis_from_alphas(
    hom: StarHom,
    source_state: State,
    alphas: AlphaFamily,
    target_state: State | None = None,
    atol: float = DEFAULT_ATOL,
) -> NCMorphism:
    """Assemble the disintegration-form hypothesis for a homomorphism.

    In the standard frame, the CPU component into source block y from target
    block x compresses to the (y, y) diagonal segment S, weights by alpha_yx on
    the copy factor, and takes the partial trace over the copies; its Choi
    matrix on S alone is C_S = alpha_yx^T kron (the identity map's Choi matrix
    on side n_y), and the conjugator is folded in as
    (conj(U_S) kron 1) C_S (conj(U_S) kron 1)^H, U_S = U_x[:, S], so the section
    axiom holds for hom itself (an identity U_x just places C_S at the rows and
    columns of S).  When no target state is given, the one that makes the
    morphism optimal is used: per target block, U_x (direct sum over y of
    alpha_yx kron (source density y)) U_x^H.  A supplied target state must
    still push forward to the source state for the result to be valid.
    """
    if source_state.algebra != hom.source:
        raise AlgebraMismatchError("source state does not live on the hom source")
    if alphas.mult != hom.mult:
        raise ShapeError("alpha multiplicities do not match the homomorphism")
    rep = alphas.validate(atol)
    if not rep.ok:
        raise ValueError(f"invalid alpha family: {rep.describe()}")

    def component(y: int, x: int) -> np.ndarray:
        c, n, m = hom.mult[y][x], hom.source.block_dims[y], hom.target.block_dims[x]
        if c == 0:
            return np.zeros((m * n, m * n), dtype=np.complex128)
        alpha, seg = alphas.blocks[y][x], hom.segments[x][y]
        ident = choi_from_function(lambda e: e, n, n)
        choi = alpha.T[:, None, :, None] * ident[None, :, None, :]  # alpha.T kron ident
        choi = choi.reshape(c * n * n, c * n * n)
        return _fold_conjugation(choi, hom.conjugators[x][:, seg].conj(), True)

    grid = [
        [component(y, x) for x in range(hom.target.num_blocks)]
        for y in range(hom.source.num_blocks)
    ]
    cpu = CPUMap._trusted(hom.target, hom.source, grid)

    if target_state is None:
        densities = alphas.assemble(hom, source_state.densities)
        densities = [b @ d @ b.conj().T for d, b in zip(densities, hom.conjugators)]
        target_state = State(hom.target, densities)

    return NCMorphism(NCObject(source_state), NCObject(target_state), hom, cpu)


def construct_optimal_hypothesis(
    hom: StarHom,
    target_state: State,
    atol: float = DEFAULT_ATOL,
) -> NCMorphism | NoDisintegration:
    """Disintegrate a state along a homomorphism, if possible.

    Pushes the target state back to the source, conjugates it into the standard
    segment layout, and tries the segmentwise tensor factorization there.  On
    success build_hypothesis_from_alphas assembles the morphism, which is
    optimal by construction; obstruction is reported as a NoDisintegration
    value, not an exception.  A hom that drops a source block y has no CPU left
    inverse: Q after F sends the unit of block y to 0, a defect of 1.
    """
    if target_state.algebra != hom.target:
        raise AlgebraMismatchError("state does not live on the hom target")
    for y, row in enumerate(hom.mult):
        if not any(row):
            return NoDisintegration(
                1.0, f"source block {y} has multiplicity 0 in every target block"
            )
    omega_std = conjugate_state(
        target_state, AlgebraElement(hom.target, hom.conjugators)
    )
    xi = pushforward_state(target_state, hom)
    family = _factor_state(omega_std, hom, xi.densities, atol)
    if isinstance(family, NoDisintegration):
        return family
    return build_hypothesis_from_alphas(
        hom, xi, family, target_state=target_state, atol=atol
    )
