"""Probability-space objects, hypothesis morphisms, rectification, disintegration.

An object is a block algebra with a state.  A morphism from (B, xi) to (A, omega)
is a pair: a unital *-homomorphism F: B -> A with omega after F equal to xi, and
a CPU map Q: A -> B with Q after F the identity.  A morphism is optimal when xi
after Q equals omega; the disintegration machinery below produces and recognizes
such hypotheses through segmentwise tensor factorizations of densities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    DEFAULT_ATOL,
    AlgebraElement,
    AlgebraSpec,
    State,
    ValidationReport,
    Violation,
    frozen_matrix,
    hermitian_pinv,
    psd_violations,
    state_distance,
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
    ad_cpu,
    ad_hom,
    choi_from_function,
    compose_cpu,
    compose_homs,
    conjugate_state,
    cpu_pushforward_state,
    hom_to_cpu,
    identity_cpu,
    identity_hom,
    pushforward_state,
    strip_conjugators,
    validate_cpu,
)

# Two morphisms compose only if they agree on the shared boundary object.
OBJECT_STATE_ATOL = 1e-8


@dataclass(frozen=True, eq=False)
class NCObject:
    """A block algebra together with a state on it."""

    algebra: AlgebraSpec
    state: State

    def __post_init__(self):
        if self.state.algebra != self.algebra:
            raise AlgebraMismatchError("state does not live on the declared algebra")

    @classmethod
    def from_state(cls, s: State) -> "NCObject":
        return cls(s.algebra, s)


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


@dataclass(frozen=True, eq=False)
class AlphaFamily:
    """Strictly positive segment weights of a disintegration-form CPU map.

    blocks[y][x] is a Hermitian PSD matrix of side mult[y][x], or None where the
    multiplicity vanishes.  Validity requires sum_x trace(blocks[y][x]) == 1 for
    every source block y.
    """

    mult: tuple[tuple[int, ...], ...]
    blocks: tuple[tuple[np.ndarray | None, ...], ...]

    def __post_init__(self):
        mult = tuple(tuple(int(c) for c in row) for row in self.mult)
        if len(self.blocks) != len(mult):
            raise ShapeError("alpha rows do not match the multiplicity rows")
        rows = []
        for y, (mrow, brow) in enumerate(zip(mult, self.blocks)):
            if len(brow) != len(mrow):
                raise ShapeError("alpha columns do not match the multiplicity columns")
            row = []
            for x, (c, a) in enumerate(zip(mrow, brow)):
                if c == 0:
                    if a is not None:
                        raise ShapeError(f"entry ({y},{x}) must be None, multiplicity 0")
                    row.append(None)
                    continue
                if a is None:
                    raise ShapeError(f"entry ({y},{x}) missing, multiplicity {c}")
                row.append(frozen_matrix(a, (c, c), f"entry ({y},{x})"))
            rows.append(tuple(row))
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "blocks", tuple(rows))

    def get(self, y: int, x: int) -> np.ndarray | None:
        return self.blocks[y][x]

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
        violations, least = psd_violations(
            (
                (f"alpha ({y},{x})", a)
                for y, row in enumerate(self.blocks)
                for x, a in enumerate(row)
                if a is not None
            ),
            atol,
            ("hermiticity", "positivity"),
        )
        for y, tr in enumerate(self.row_traces()):
            if abs(tr - 1.0) > atol:
                violations.append(
                    Violation("normalization", f"source block {y}", abs(tr - 1.0))
                )
        return ValidationReport(tuple(violations), faithful=bool(least > atol))


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
    the identity, on matrix units), and any CP/unitality violations.

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
    return ValidationReport(tuple(violations))


def is_optimal(m: NCMorphism, atol: float = DEFAULT_ATOL) -> tuple[bool, float]:
    """Whether the source state through the CPU map reproduces the target state.

    Returns the flag and the Frobenius residual between the two states.
    """
    back = cpu_pushforward_state(m.source.state, m.cpu)
    residual = state_distance(back, m.target.state)
    return residual <= atol, residual


def identity_morphism(obj: NCObject) -> NCMorphism:
    return NCMorphism(
        obj, obj, identity_hom(obj.algebra), identity_cpu(obj.algebra)
    )


def rectify_morphism(m: NCMorphism) -> RectificationResult:
    """Strip the conjugators off the homomorphism without changing any value.

    The stripped unitary is absorbed into the CPU map and the target state, so
    the rectified morphism has a standard-form homomorphism, the same source
    object, and the same validity, optimality, and relative entropy.
    """
    u = AlgebraElement(m.target.algebra, m.hom.conjugators)
    hom_r = strip_conjugators(m.hom)
    cpu_r = compose_cpu(m.cpu, ad_cpu(u))
    target_r = NCObject.from_state(conjugate_state(m.target.state, u))
    rectified = NCMorphism(m.source, target_r, hom_r, cpu_r)
    return RectificationResult(u=u, morphisms=(rectified,))


def rectify_pair(g: NCMorphism, f: NCMorphism) -> RectificationResult:
    """Rectify a composable pair so both homomorphisms are standard form.

    First the inner morphism is rectified; the unitary stripped from it is
    pushed through the outer morphism (which changes its source object to
    match) before the outer morphism is rectified in turn.  Returns the
    middle-algebra unitary as v and the outer-target unitary as u, with the
    rectified pair in composition order.
    """
    _check_composable(g, f)
    rg = rectify_morphism(g)
    v = rg.u
    f_mid = NCMorphism(
        source=rg.morphism.target,
        target=f.target,
        hom=compose_homs(f.hom, ad_hom(v)),
        cpu=compose_cpu(ad_cpu(v.adjoint()), f.cpu),
    )
    rf = rectify_morphism(f_mid)
    return RectificationResult(u=rf.u, v=v, morphisms=(rg.morphism, rf.morphism))


def _check_composable(g: NCMorphism, f: NCMorphism):
    if f.source.algebra != g.target.algebra:
        raise ObjectMismatchError("middle algebras differ")
    d = state_distance(f.source.state, g.target.state)
    if d > OBJECT_STATE_ATOL:
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


def _factor_block(
    density: np.ndarray,
    segs: tuple[slice, ...],
    mult_col: tuple[int, ...],
    refs: tuple[np.ndarray, ...],
    atol: float,
):
    """Factor one target-block density as blockdiag_y(alpha_yx kron ref_y).

    segs and mult_col are the segments and multiplicities of the target block,
    one per source block.  Returns (alpha column dict y -> matrix or None for
    unconstrained rows, squared residual, ok flag).  Off-diagonal segments are
    compared against zero at absolute atol; diagonal segments must factor
    within relative atol.
    """
    sq_residual = 0.0
    ok = True
    alphas: dict[int, np.ndarray | None] = {}
    for y, s in enumerate(segs):
        for yp, sp in enumerate(segs):
            if y != yp:
                off = np.linalg.norm(density[s, sp])
                sq_residual += off**2
                if off > atol:
                    ok = False
    for y, (s, c, ref) in enumerate(zip(segs, mult_col, refs)):
        if c == 0:
            continue
        n = ref.shape[0]
        seg = density[s, s]
        q = np.trace(ref).real
        if q <= atol:
            # weightless reference: the segment must vanish with it
            alphas[y] = None
            leak = float(np.linalg.norm(seg))
            sq_residual += leak**2
            if leak > 10 * atol:
                ok = False
            continue
        ref_pinv = hermitian_pinv(ref)
        denom = np.trace(ref @ ref_pinv).real
        seg4 = seg.reshape(c, n, c, n)
        alpha = np.einsum("kaKb,ba->kK", seg4, ref_pinv) / denom
        alpha = (alpha + alpha.conj().T) / 2
        recon = np.kron(alpha, ref)
        r = np.linalg.norm(seg - recon)
        sq_residual += r**2
        if r > atol * max(np.linalg.norm(seg), atol):
            ok = False
        alphas[y] = alpha
    return alphas, sq_residual, ok


def _factor_state(
    s: State,
    hom: StarHom,
    refs: tuple[np.ndarray, ...],
    atol: float,
):
    """Factor every block of s through the segment layout of hom.

    Only the layout (multiplicities and block sides) is read, so s must
    already be in the standard frame; the conjugators are ignored.
    """
    per_block: list[dict[int, np.ndarray | None]] = []
    sq_residual = 0.0
    ok = True
    for d, segs, col in zip(s.densities, hom.segments, zip(*hom.mult)):
        a, sq, good = _factor_block(d, segs, col, refs, atol)
        per_block.append(a)
        sq_residual += sq
        ok = ok and good
    # assemble the family; unconstrained entries get the uniform choice
    rows = tuple(
        tuple(
            np.eye(c) / sum(mrow) if c and col.get(y) is None else col.get(y)
            for c, col in zip(mrow, per_block)
        )
        for y, mrow in enumerate(hom.mult)
    )
    family = AlphaFamily(hom.mult, rows)
    return family, float(np.sqrt(sq_residual)), ok


def extract_alphas(m: NCMorphism) -> AlphaFamily:
    """Recover the segment weights of a disintegration-form hypothesis.

    The source state pushed through the CPU map must decompose, per target
    block, as a direct sum over source blocks of alpha_yx kron (source block
    density).  Raises FactorizationError when any off-diagonal segment or
    factorization residual exceeds tolerance, which signals the CPU map is not
    in disintegration form.  Source blocks with weight below DEFAULT_ATOL are
    unconstrained and get the uniform choice.
    """
    if not m.hom.is_standard():
        raise ShapeError("extract_alphas expects a standard-form homomorphism")
    back = cpu_pushforward_state(m.source.state, m.cpu)
    family, residual, ok = _factor_state(
        back, m.hom, m.source.state.densities, DEFAULT_ATOL
    )
    if not ok:
        raise FactorizationError(
            residual,
            f"pushed-back state does not factor segmentwise (residual {residual:.3e})",
        )
    row_defect = float(np.max(np.abs(family.row_traces() - 1.0)))
    if row_defect > 10 * DEFAULT_ATOL:
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
    matrix C_S is built on S alone and, when every conjugator is exactly the
    identity, placed at the rows and columns of S.  Otherwise the conjugators U
    are folded in as (conj(U_S) kron 1) C_S (conj(U_S) kron 1)^H, U_S = U_x[:, S],
    so the section axiom holds for hom itself.  When
    no target state is given, the one that makes the morphism optimal is used:
    per target block, U_x (direct sum over y of alpha_yx kron (source density
    y)) U_x^H.  A supplied target state must still push forward to the source
    state for the result to be valid.
    """
    if source_state.algebra != hom.source:
        raise AlgebraMismatchError("source state does not live on the hom source")
    if tuple(alphas.mult) != tuple(hom.mult):
        raise ShapeError("alpha multiplicities do not match the homomorphism")
    rep = alphas.validate(atol)
    if not rep.ok:
        raise ValueError(f"invalid alpha family: {rep.describe()}")

    standard = hom.is_standard(atol=0.0)

    def component(y: int, x: int) -> np.ndarray:
        c, n, m = hom.mult[y][x], hom.source.block_dims[y], hom.target.block_dims[x]
        if c == 0:
            return np.zeros((m * n, m * n), dtype=np.complex128)
        alpha, s, lo = alphas.get(y, x), c * n, hom.segments[x][y].start
        choi = choi_from_function(
            lambda e: np.einsum("kl,ljkJ->jJ", alpha, e.reshape(c, n, c, n)), s, n
        )
        if standard:
            out = np.zeros((m * n, m * n), dtype=np.complex128)
            # the input index is major, so S spans rows and columns lo*n..(lo+s)*n
            out[lo * n : (lo + s) * n, lo * n : (lo + s) * n] = choi
            return out
        ub = hom.conjugators[x][:, lo : lo + s].conj()
        # conj(U_S) on the rows' input index, then on the columns' through ^H
        half = (ub @ choi.reshape(s, n * s * n)).reshape(m * n, s * n)
        full = ub @ half.conj().T.reshape(s, n * m * n)
        return full.reshape(m * n, m * n).conj().T

    grid = [
        [component(y, x) for x in range(hom.target.num_blocks)]
        for y in range(hom.source.num_blocks)
    ]
    cpu = CPUMap(hom.target, hom.source, grid)

    if target_state is None:
        densities = alphas.assemble(hom, source_state.densities)
        if not standard:
            densities = [b @ d @ b.conj().T for d, b in zip(densities, hom.conjugators)]
        target_state = State(hom.target, densities)

    return NCMorphism(
        source=NCObject.from_state(source_state),
        target=NCObject.from_state(target_state),
        hom=hom,
        cpu=cpu,
    )


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
    value, not an exception.
    """
    if target_state.algebra != hom.target:
        raise AlgebraMismatchError("state does not live on the hom target")
    omega_std = conjugate_state(
        target_state, AlgebraElement(hom.target, hom.conjugators)
    )
    xi = pushforward_state(target_state, hom)
    family, residual, ok = _factor_state(omega_std, hom, xi.densities, atol)
    if not ok:
        return NoDisintegration(
            residual,
            "target state does not factor through the segment layout "
            f"(residual {residual:.3e})",
        )
    return build_hypothesis_from_alphas(
        hom, xi, family, target_state=target_state, atol=atol
    )
