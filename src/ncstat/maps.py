"""Unital *-homomorphisms in multiplicity form and completely positive unital maps.

Conventions fixed project-wide:

- vec is column-major: vec(A)[i + m*j] = A[i, j].
- The Choi matrix of a linear map f: M_m -> M_n is the (m*n) x (m*n) matrix
  with C[(i,k), (j,l)] = f(E_ij)[k, l], input index major.  f is completely
  positive iff C is positive semidefinite, and f(A) is recovered by pairing A
  against the input index.
- A homomorphism from blocks (n_1..n_t) to blocks (m_1..m_s) is stored as a
  nonnegative integer multiplicity matrix mult[y][x] plus one unitary per
  target block.  Inside target block x the source blocks occupy consecutive
  diagonal segments, ordered by y, and StarHom.segments[x][y] is the slice of
  the segment for y; within it the copy index is the outer tensor factor and
  the internal index the inner one, matching kron(identity_c, B_y).
  Unitality forces sum_y mult[y][x] * n_y == m_x exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    DEFAULT_ATOL,
    AlgebraElement,
    AlgebraSpec,
    State,
    ValidationReport,
    Violation,
    direct_sum_algebras,
    frozen_matrix,
    partial_trace_left,
    psd_violations,
)
from .errors import (
    AlgebraMismatchError,
    NonIntegralMultiplicityError,
    NotAHomomorphismError,
    ShapeError,
)

UNITARY_ATOL = 1e-8


@dataclass(frozen=True, eq=False)
class StarHom:
    """A unital *-homomorphism between block algebras in standard form.

    The action on an element B is, per target block x,
    conjugators[x] @ blockdiag_y(kron(eye(mult[y][x]), B_y)) @ conjugators[x]^H.
    segments[x][y] is the slice of rows (and columns) of target block x that
    holds the mult[y][x] copies of source block y; it is empty where the
    multiplicity vanishes, and the segments of a block partition [0, m_x).
    """

    source: AlgebraSpec
    target: AlgebraSpec
    mult: tuple[tuple[int, ...], ...]
    conjugators: tuple[np.ndarray, ...]
    segments: tuple[tuple[slice, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        t, s = self.source.num_blocks, self.target.num_blocks
        mult = tuple(tuple(int(c) for c in row) for row in self.mult)
        if len(mult) != t or any(len(row) != s for row in mult):
            raise ShapeError(f"multiplicity matrix must be {t}x{s}")
        if any(c < 0 for row in mult for c in row):
            raise ShapeError("multiplicities must be nonnegative")
        segments = []
        for x, m in enumerate(self.target.block_dims):
            row, off = [], 0
            for y, n in enumerate(self.source.block_dims):
                row.append(slice(off, off + mult[y][x] * n))
                off += mult[y][x] * n
            if off != m:
                raise ShapeError(
                    f"unitality fails at target block {x}: "
                    f"sum of mult * source dims is {off}, block dim is {m}"
                )
            segments.append(tuple(row))
        if len(self.conjugators) != s:
            raise ShapeError(f"expected {s} conjugators, got {len(self.conjugators)}")
        conj = []
        for x, (u, m) in enumerate(zip(self.conjugators, self.target.block_dims)):
            u = frozen_matrix(u, (m, m), f"conjugator {x}")
            defect = np.linalg.norm(u.conj().T @ u - np.eye(m))
            if defect > UNITARY_ATOL:
                raise ShapeError(
                    f"conjugator {x} is not unitary (defect {defect:.3e})"
                )
            conj.append(u)
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "conjugators", tuple(conj))
        object.__setattr__(self, "segments", tuple(segments))

    @property
    def mult_array(self) -> np.ndarray:
        return np.array(self.mult, dtype=int)

    def is_standard(self, atol: float = UNITARY_ATOL) -> bool:
        """Whether every conjugator is the identity within atol."""
        return all(
            np.linalg.norm(u - np.eye(u.shape[0])) <= atol
            for u in self.conjugators
        )


def _standard_block(
    blocks: Sequence[np.ndarray], segments: Sequence[slice]
) -> np.ndarray:
    """blockdiag_y(kron(eye(c_y), blocks[y])), the copies of y filling segments[y]."""
    m = segments[-1].stop
    out = np.zeros((m, m), dtype=np.complex128)
    for b, seg in zip(blocks, segments):
        n = b.shape[0]
        for lo in range(seg.start, seg.stop, n):
            out[lo : lo + n, lo : lo + n] = b
    return out


def apply_hom(f: StarHom, a: AlgebraElement) -> AlgebraElement:
    """Image of a source element under the homomorphism."""
    if a.algebra != f.source:
        raise AlgebraMismatchError("element does not live on the source algebra")
    out = []
    for segs, u in zip(f.segments, f.conjugators):
        out.append(u @ _standard_block(a.blocks, segs) @ u.conj().T)
    return AlgebraElement(f.target, tuple(out))


def identity_hom(algebra: AlgebraSpec) -> StarHom:
    return ad_hom(algebra.identity())


def strip_conjugators(f: StarHom) -> StarHom:
    """The standard-form homomorphism with the same multiplicities."""
    return StarHom(
        f.source,
        f.target,
        f.mult,
        tuple(np.eye(d) for d in f.target.block_dims),
    )


def compose_homs(outer: StarHom, inner: StarHom) -> StarHom:
    """Composite outer after inner, again in multiplicity/conjugator form.

    Multiplicities multiply as integer matrices.  The composite conjugator per
    target block is U_x @ W_x with its columns permuted, W_x the standard-form
    expansion of the inner conjugators.  A column of W_x sits at the nested
    label (middle block y, copy within outer, source block z, copy within
    inner, internal index j); the composite's standard order sorts the labels
    by z first, then y, the two copy indices and j.
    """
    if inner.target != outer.source:
        raise AlgebraMismatchError("inner target does not match outer source")
    o_dims = inner.source.block_dims
    n_dims = inner.target.block_dims
    c_in = inner.mult_array  # (z, y)
    c_out = outer.mult_array  # (y, x)

    conjugators = []
    for x in range(outer.target.num_blocks):
        w = _standard_block(inner.conjugators, outer.segments[x])
        labels = [
            (z, y, k_out, k_in, j)
            for y, n in enumerate(n_dims)
            for k_out in range(c_out[y, x])
            for z, o in enumerate(o_dims)
            for k_in in range(c_in[z, y])
            for j in range(o)
        ]
        perm = sorted(range(len(labels)), key=labels.__getitem__)
        conjugators.append((outer.conjugators[x] @ w)[:, perm])

    mult = tuple(tuple(int(c) for c in row) for row in c_in @ c_out)
    return StarHom(inner.source, outer.target, mult, tuple(conjugators))


def pushforward_state(s: State, f: StarHom) -> State:
    """The state s composed with f, living on the source algebra of f.

    Per source block, the density is the sum over target blocks of the partial
    trace (over the copy factor) of the matching diagonal segment of the
    conjugated density.
    """
    if s.algebra != f.target:
        raise AlgebraMismatchError("state does not live on the target algebra")
    dims = f.source.block_dims
    out = [np.zeros((n, n), dtype=np.complex128) for n in dims]
    for x, (d, u) in enumerate(zip(s.densities, f.conjugators)):
        dt = u.conj().T @ d @ u
        for y, (seg, n) in enumerate(zip(f.segments[x], dims)):
            c = f.mult[y][x]
            if c:
                out[y] += partial_trace_left(dt[seg, seg], c, n)
    return State(f.source, tuple(out))


def conjugate_state(s: State, u: AlgebraElement) -> State:
    """The state a -> s(u a u^H), with densities u^H D u per block."""
    if s.algebra != u.algebra:
        raise AlgebraMismatchError("unitary lives on a different algebra")
    return State(
        s.algebra,
        tuple(b.conj().T @ d @ b for d, b in zip(s.densities, u.blocks)),
    )


# ---------------------------------------------------------------------------
# Raw (vectorized) linear maps and extraction of the standard form


def vec_element(a: AlgebraElement) -> np.ndarray:
    """Column-major vectorization, blocks concatenated in order."""
    return np.concatenate([b.flatten(order="F") for b in a.blocks])


def unvec_element(algebra: AlgebraSpec, v: np.ndarray) -> AlgebraElement:
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (algebra.dim,):
        raise ShapeError(f"expected a vector of length {algebra.dim}, got {v.shape}")
    blocks = []
    off = 0
    for d in algebra.block_dims:
        blocks.append(v[off : off + d * d].reshape(d, d, order="F"))
        off += d * d
    return AlgebraElement(algebra, tuple(blocks))


@dataclass(frozen=True, eq=False)
class RawLinearMap:
    """A linear map between algebras as a dense matrix on vectorized elements."""

    source: AlgebraSpec
    target: AlgebraSpec
    matrix: np.ndarray

    def __post_init__(self):
        shape = (self.target.dim, self.source.dim)
        m = frozen_matrix(self.matrix, shape, "raw matrix")
        object.__setattr__(self, "matrix", m)

    def apply(self, a: AlgebraElement) -> AlgebraElement:
        if a.algebra != self.source:
            raise AlgebraMismatchError("element does not live on the source algebra")
        return unvec_element(self.target, self.matrix @ vec_element(a))


def hom_to_raw(f: StarHom) -> RawLinearMap:
    cols = [
        vec_element(apply_hom(f, e)) for _, _, _, e in f.source.matrix_units()
    ]
    return RawLinearMap(f.source, f.target, np.column_stack(cols))


def hom_from_raw(raw: RawLinearMap) -> StarHom:
    """Recover multiplicities and conjugators from a raw unital *-homomorphism.

    Verifies the homomorphism axioms on the matrix-unit basis first, then reads
    multiplicities off the traces of the image projections and assembles each
    conjugator from an orthonormal basis of the range of the image of the
    first matrix unit of each source block.  The unit images are the columns
    of the raw matrix, stacked per target block; multiplicativity is checked
    one left unit at a time, with one batched product per target block.
    The axioms and the integrality of the multiplicities are checked at
    DEFAULT_ATOL, the reconstruction from the assembled conjugators at 1e-7.
    """
    src, tgt = raw.source, raw.target
    n_dims = src.block_dims
    # units[y][j, i] is the column (and stack index) of the matrix unit E_ij
    offsets = np.cumsum((0,) + tuple(n * n for n in n_dims))
    units = [off + np.arange(n * n).reshape(n, n) for off, n in zip(offsets, n_dims)]
    stacks, row = [], 0
    for m in tgt.block_dims:
        # entry [a + m*b, u] is entry [a, b] of block x of the image of unit u
        cols = raw.matrix[row : row + m * m].T.reshape(-1, m, m)
        stacks.append(np.ascontiguousarray(cols.transpose(0, 2, 1)))
        row += m * m

    unital_defect = raw.apply(src.identity()).distance(tgt.identity())
    if unital_defect > DEFAULT_ATOL:
        raise NotAHomomorphismError("unital", unital_defect)

    swap = np.concatenate([idx.T.reshape(-1) for idx in units])  # E_ij -> E_ji
    sq = sum(
        (np.abs(st[swap] - st.conj().transpose(0, 2, 1)) ** 2).sum(axis=(1, 2))
        for st in stacks
    )
    adj_defect = float(np.sqrt(np.max(sq)))
    if adj_defect > DEFAULT_ATOL:
        raise NotAHomomorphismError("adjoint", adj_defect)

    mult_defect = 0.0
    for idx, n in zip(units, n_dims):
        for i in range(n):
            for j in range(n):
                sq = 0.0
                for st in stacks:
                    d = st[idx[j, i]] @ st  # E_ij times every unit
                    d[idx[:, j]] -= st[idx[:, i]]  # E_ij E_jl = E_il
                    sq = sq + (np.abs(d) ** 2).sum(axis=(1, 2))
                mult_defect = max(mult_defect, float(np.sqrt(np.max(sq))))
    if mult_defect > DEFAULT_ATOL:
        raise NotAHomomorphismError("multiplicative", mult_defect)

    s = tgt.num_blocks
    t = src.num_blocks
    mult = [[0] * s for _ in range(t)]
    for y, n in enumerate(n_dims):
        for x, st in enumerate(stacks):
            tr = np.trace(st[np.diagonal(units[y])].sum(axis=0)).real / n
            c = round(tr)
            if abs(tr - c) > DEFAULT_ATOL:
                raise NonIntegralMultiplicityError(
                    f"multiplicity of source block {y} in target block {x} "
                    f"is {tr:.6f}, not an integer within tolerance"
                )
            mult[y][x] = int(c)
    for x, m in enumerate(tgt.block_dims):
        if sum(mult[y][x] * n_dims[y] for y in range(t)) != m:
            raise NonIntegralMultiplicityError(
                f"multiplicities do not fill target block {x}"
            )

    conjugators = []
    for x, (m, st) in enumerate(zip(tgt.block_dims, stacks)):
        u = np.zeros((m, m), dtype=np.complex128)
        pos = 0
        for y, n in enumerate(n_dims):
            c = mult[y][x]
            if c == 0:
                continue
            proj = st[units[y][0, 0]]
            vals, vecs = np.linalg.eigh((proj + proj.conj().T) / 2)
            range_vecs = vecs[:, vals > 0.5]
            if range_vecs.shape[1] != c:
                raise NotAHomomorphismError(
                    "projection-rank",
                    float(abs(range_vecs.shape[1] - c)),
                    f"rank of the unit-image projection in target block {x} is "
                    f"{range_vecs.shape[1]}, expected {c}",
                )
            for k in range(c):
                v = range_vecs[:, k]
                for j in range(n):
                    u[:, pos] = st[units[y][0, j]] @ v
                    pos += 1
        conjugators.append(u)

    result = StarHom(src, tgt, tuple(tuple(r) for r in mult), tuple(conjugators))
    # column norms of the difference are Frobenius distances of unit images
    recon = float(
        np.max(np.linalg.norm(hom_to_raw(result).matrix - raw.matrix, axis=0))
    )
    if recon > 1e-7:
        raise NotAHomomorphismError("reconstruction", recon)
    return result


# ---------------------------------------------------------------------------
# CPU maps through block Choi matrices


def choi_from_function(
    fn: Callable[[np.ndarray], np.ndarray], m: int, n: int
) -> np.ndarray:
    """Choi matrix of a linear map M_m -> M_n given by its action on matrices."""
    c = np.zeros((m * n, m * n), dtype=np.complex128)
    for i in range(m):
        for j in range(m):
            e = np.zeros((m, m), dtype=np.complex128)
            e[i, j] = 1.0
            fe = np.asarray(fn(e), dtype=np.complex128)
            if fe.shape != (n, n):
                raise ShapeError(f"map output must be {n}x{n}, got {fe.shape}")
            c[i * n : (i + 1) * n, j * n : (j + 1) * n] = fe
    return c


def apply_choi(choi: np.ndarray, a: np.ndarray, m: int, n: int) -> np.ndarray:
    """Apply the map with the given Choi matrix to an m x m input."""
    return np.einsum("ij,ikjl->kl", a, choi.reshape(m, n, m, n))


def dual_apply_choi(choi: np.ndarray, e: np.ndarray, m: int, n: int) -> np.ndarray:
    """Apply the trace dual: trace(dual(e) @ a) == trace(e @ map(a)) for all a."""
    return np.einsum("ikjl,lk->ji", choi.reshape(m, n, m, n), e)


def _regroup(choi: np.ndarray, m: int, n: int) -> np.ndarray:
    """Choi matrix of M_m -> M_n with rows (i, j) and columns (k, l)."""
    return choi.reshape(m, n, m, n).transpose(0, 2, 1, 3).reshape(m * m, n * n)


def _ungroup(r: np.ndarray, m: int, n: int) -> np.ndarray:
    """Inverse of _regroup: back to the Choi layout of M_m -> M_n."""
    return r.reshape(m, m, n, n).transpose(0, 2, 1, 3).reshape(m * n, m * n)


@dataclass(frozen=True, eq=False)
class CPUMap:
    """A linear map between block algebras stored as one Choi matrix per block pair.

    components[y][x] is the Choi matrix of the component from source block x
    (side m_x) to target block y (side n_y).  Complete positivity is each
    component Choi being PSD; unitality is sum_x component(1_x) == 1_y.
    """

    source: AlgebraSpec
    target: AlgebraSpec
    components: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self):
        t = self.target.num_blocks
        s = self.source.num_blocks
        if len(self.components) != t or any(len(row) != s for row in self.components):
            raise ShapeError(f"components must form a {t}x{s} grid")
        rows = tuple(
            tuple(
                frozen_matrix(c, (m * n, m * n), f"component ({y},{x})")
                for x, (c, m) in enumerate(zip(row, self.source.block_dims))
            )
            for y, (row, n) in enumerate(zip(self.components, self.target.block_dims))
        )
        object.__setattr__(self, "components", rows)


def identity_cpu(algebra: AlgebraSpec) -> CPUMap:
    return hom_to_cpu(identity_hom(algebra))


def apply_cpu(q: CPUMap, a: AlgebraElement) -> AlgebraElement:
    if a.algebra != q.source:
        raise AlgebraMismatchError("element does not live on the source algebra")
    out = []
    for y, n in enumerate(q.target.block_dims):
        acc = np.zeros((n, n), dtype=np.complex128)
        for x, m in enumerate(q.source.block_dims):
            acc += apply_choi(q.components[y][x], a.blocks[x], m, n)
        out.append(acc)
    return AlgebraElement(q.target, tuple(out))


def compose_cpu(outer: CPUMap, inner: CPUMap) -> CPUMap:
    """Composite outer after inner on the Choi level.

    C[(i,k),(j,l)] = sum_ab inner[(i,a),(j,b)] outer[(a,k),(b,l)] is one matrix
    product of inner regrouped to rows (i,j), columns (a,b) and outer regrouped
    to rows (a,b), columns (k,l).  Every component is regrouped once, the outer
    ones a row at a time so one row's copies are held; each sum over the middle
    blocks is regrouped back.
    """
    if inner.target != outer.source:
        raise AlgebraMismatchError("inner target does not match outer source")
    m_dims = inner.source.block_dims
    n_dims = inner.target.block_dims
    # an all-zero component contributes nothing to any product it enters
    a = [
        [_regroup(c, m, n) if c.any() else None for c, m in zip(inner_row, m_dims)]
        for inner_row, n in zip(inner.components, n_dims)
    ]

    def row(o: int, outer_row: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
        b = [_regroup(c, n, o) if c.any() else None for c, n in zip(outer_row, n_dims)]
        sums = []
        for x, m in enumerate(m_dims):
            acc = np.zeros((m * m, o * o), dtype=np.complex128)
            for a_row, b_y in zip(a, b):
                if a_row[x] is not None and b_y is not None:
                    acc += a_row[x] @ b_y
            sums.append(_ungroup(acc, m, o))
        return tuple(sums)

    comps = tuple(
        row(o, outer_row)
        for o, outer_row in zip(outer.target.block_dims, outer.components)
    )
    return CPUMap(inner.source, outer.target, comps)


def cpu_pushforward_state(s: State, q: CPUMap) -> State:
    """The state s composed with q, via the trace duals of the components."""
    if s.algebra != q.target:
        raise AlgebraMismatchError("state does not live on the target algebra")
    out = []
    for x, m in enumerate(q.source.block_dims):
        acc = np.zeros((m, m), dtype=np.complex128)
        for y, n in enumerate(q.target.block_dims):
            acc += dual_apply_choi(q.components[y][x], s.densities[y], m, n)
        out.append((acc + acc.conj().T) / 2)
    return State(q.source, tuple(out))


def validate_cpu(q: CPUMap, atol: float = DEFAULT_ATOL) -> ValidationReport:
    """Check complete positivity (componentwise Choi PSD) and unitality."""
    violations, _ = psd_violations(
        (
            (f"component ({y},{x})", c)
            for y, row in enumerate(q.components)
            for x, c in enumerate(row)
        ),
        atol,
        ("choi-hermiticity", "cp"),
    )
    one = apply_cpu(q, q.source.identity())
    for y, n in enumerate(q.target.block_dims):
        defect = np.linalg.norm(one.blocks[y] - np.eye(n))
        if defect > atol:
            violations.append(
                Violation("unitality", f"target block {y}", float(defect))
            )
    return ValidationReport(tuple(violations))


def ad_hom(u: AlgebraElement) -> StarHom:
    """Conjugation by a unitary element as a homomorphism of its algebra.

    The StarHom constructor checks that every block is unitary.
    """
    s = u.algebra.num_blocks
    mult = tuple(tuple(1 if x == y else 0 for x in range(s)) for y in range(s))
    return StarHom(u.algebra, u.algebra, mult, u.blocks)


def hom_to_cpu(f: StarHom) -> CPUMap:
    """The homomorphism as a CPU map, one Choi matrix per block pair.

    Component (x, y) is e -> V (1_c kron e) V^H, with V the conjugator columns
    of segment y and c = mult[y][x]; its Choi matrix is W W^H, of rank c, with
    W[(i,a), k] = V[a, k*n_y + i].
    """
    comps = []
    for x, m in enumerate(f.target.block_dims):
        row = []
        for y, (seg, n) in enumerate(zip(f.segments[x], f.source.block_dims)):
            c = f.mult[y][x]
            w = f.conjugators[x][:, seg].reshape(m, c, n)
            w = w.transpose(2, 0, 1).reshape(n * m, c)
            row.append(w @ w.conj().T)
        comps.append(tuple(row))
    return CPUMap(f.source, f.target, tuple(comps))


def ad_cpu(u: AlgebraElement) -> CPUMap:
    """Conjugation by a unitary element as a CPU map of its algebra.

    Each diagonal component is the rank-one Choi matrix of e -> b e b^H,
    outer(v, conj(v)) with v = vec(b^T), built in closed form by hom_to_cpu;
    the off-diagonal components vanish.  ad_hom checks unitarity.
    """
    return hom_to_cpu(ad_hom(u))


def _direct_sum_grid(a, b, fill) -> tuple[tuple, ...]:
    """The block-diagonal grid [[a, fill], [fill, b]] of two rectangular grids.

    fill(i, j) is the entry at row i, column j of the result off both grids.
    """
    t, c1, c2 = len(a), len(a[0]), len(b[0])
    top = [(*r, *(fill(i, c1 + j) for j in range(c2))) for i, r in enumerate(a)]
    low = [(*(fill(t + i, j) for j in range(c1)), *r) for i, r in enumerate(b)]
    return tuple(top + low)


def direct_sum_homs(f: StarHom, g: StarHom) -> StarHom:
    """Block-diagonal direct sum acting on the concatenated algebras."""
    src = direct_sum_algebras(f.source, g.source)
    tgt = direct_sum_algebras(f.target, g.target)
    mult = _direct_sum_grid(f.mult, g.mult, lambda y, x: 0)
    return StarHom(src, tgt, mult, f.conjugators + g.conjugators)


def direct_sum_cpus(q: CPUMap, r: CPUMap) -> CPUMap:
    src = direct_sum_algebras(q.source, r.source)
    tgt = direct_sum_algebras(q.target, r.target)

    def zero(y: int, x: int) -> np.ndarray:
        side = src.block_dims[x] * tgt.block_dims[y]
        return np.zeros((side, side), dtype=np.complex128)

    return CPUMap(src, tgt, _direct_sum_grid(q.components, r.components, zero))
