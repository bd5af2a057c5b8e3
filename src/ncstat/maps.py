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
    _read_only,
    _unchecked,
    as_int,
    direct_sum_algebras,
    frozen_matrix,
    partial_trace_left,
    psd_violations,
)
from .errors import (
    AlgebraMismatchError,
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
        mult = tuple(tuple(as_int(c, "mult") for c in row) for row in self.mult)
        if len(mult) != t or any(len(row) != s for row in mult):
            raise ShapeError(f"multiplicity matrix must be {t}x{s}")
        if any(c < 0 for row in mult for c in row):
            raise ShapeError("multiplicities must be nonnegative")
        segments = _segments(mult, self.source, self.target)
        for x, (row, m) in enumerate(zip(segments, self.target.block_dims)):
            if row[-1].stop != m:
                raise ShapeError(
                    f"unitality fails at target block {x}: "
                    f"sum of mult * source dims is {row[-1].stop}, block dim is {m}"
                )
        if len(self.conjugators) != s:
            raise ShapeError(f"expected {s} conjugators, got {len(self.conjugators)}")
        conj = []
        for x, (u, m) in enumerate(zip(self.conjugators, self.target.block_dims)):
            u = frozen_matrix(u, (m, m), f"conjugator {x}")
            defect = _unitarity_defect(u)
            if not defect <= UNITARY_ATOL:
                raise ShapeError(
                    f"conjugator {x} is not unitary (defect {defect:.3e})"
                )
            conj.append(u)
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "conjugators", tuple(conj))
        object.__setattr__(self, "segments", segments)

    @classmethod
    def _trusted(cls, source, target, mult, conjugators) -> "StarHom":
        """A StarHom built from checked values: no check, no copy.

        mult is a tuple of int tuples that fills every target block exactly;
        each conjugator is a complex128 unitary of a checked hom, or an exact
        identity, and is marked read-only in place.
        """
        return _unchecked(
            cls,
            source=source,
            target=target,
            mult=mult,
            conjugators=_read_only(conjugators),
            segments=_segments(mult, source, target),
        )

    def is_standard(self) -> bool:
        """Whether every conjugator is the identity within UNITARY_ATOL."""
        return all(
            np.linalg.norm(u - np.eye(u.shape[0])) <= UNITARY_ATOL
            for u in self.conjugators
        )


def _unitarity_defect(u: np.ndarray) -> float:
    """The unitarity defect ||U^H U - 1|| (Frobenius) of a square U."""
    return np.linalg.norm(u.conj().T @ u - np.eye(len(u)))


def _segments(mult, source: AlgebraSpec, target: AlgebraSpec) -> tuple:
    """segments[x][y]: the slice of target block x holding the copies of block y."""
    segments = []
    for x in range(target.num_blocks):
        row, off = [], 0
        for y, n in enumerate(source.block_dims):
            row.append(slice(off, off + mult[y][x] * n))
            off += mult[y][x] * n
        segments.append(tuple(row))
    return tuple(segments)


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


def _identities(algebra: AlgebraSpec) -> tuple[np.ndarray, ...]:
    return tuple(np.eye(d, dtype=np.complex128) for d in algebra.block_dims)


def _conjugation(algebra: AlgebraSpec, conjugators) -> StarHom:
    """Ad of one checked unitary per block."""
    s = algebra.num_blocks
    mult = tuple(tuple(1 if x == y else 0 for x in range(s)) for y in range(s))
    return StarHom._trusted(algebra, algebra, mult, conjugators)


def identity_hom(algebra: AlgebraSpec) -> StarHom:
    return _conjugation(algebra, _identities(algebra))


def strip_conjugators(f: StarHom) -> StarHom:
    """The standard-form homomorphism with the same multiplicities."""
    return StarHom._trusted(f.source, f.target, f.mult, _identities(f.target))


def compose_homs(outer: StarHom, inner: StarHom) -> StarHom:
    """Composite outer after inner, again in multiplicity/conjugator form.

    Multiplicities multiply as integer matrices.  The composite conjugator per
    target block x is U_x @ W_x with its columns permuted, W_x the standard-form
    expansion of the inner conjugators over outer.segments[x].  The copies of
    middle block y (side n_y) start every n_y columns of outer.segments[x][y],
    and inside each, source block z fills inner.segments[y][z]; the composite's
    standard order takes these runs by z first, then y, then copy.
    """
    if inner.target != outer.source:
        raise AlgebraMismatchError("inner target does not match outer source")
    n_dims = inner.target.block_dims
    by_source = tuple(zip(*inner.segments))  # by_source[z][y] = inner.segments[y][z]
    conjugators = []
    for u, segs in zip(outer.conjugators, outer.segments):
        perm = [
            i
            for z_runs in by_source
            for seg, run, n in zip(segs, z_runs, n_dims)
            for lo in range(seg.start, seg.stop, n)
            for i in range(lo + run.start, lo + run.stop)
        ]
        w = _standard_block(inner.conjugators, segs)
        conjugators.append((u @ w)[:, perm])
    mult = (np.array(inner.mult) @ np.array(outer.mult)).tolist()
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
    return State._trusted(f.source, tuple(out))


def conjugate_state(s: State, u: AlgebraElement) -> State:
    """The state a -> s(u a u^H), with densities u^H D u per block."""
    if s.algebra != u.algebra:
        raise AlgebraMismatchError("unitary lives on a different algebra")
    return State._trusted(
        s.algebra,
        tuple(b.conj().T @ d @ b for d, b in zip(s.densities, u.blocks)),
    )


# ---------------------------------------------------------------------------
# Raw (vectorized) linear maps and extraction of the standard form


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


def hom_to_raw(f: StarHom) -> RawLinearMap:
    """hom_to_cpu's Choi entry F(E_ij)[a, b] moved to row a + m*b, column i + n*j.

    Each component is written straight into its block of the result, so the
    Choi grid and the result are the only matrices of their size alive.
    """
    matrix = np.empty((f.target.dim, f.source.dim), dtype=np.complex128)
    row = 0
    for comps, m in zip(hom_to_cpu(f).components, f.target.block_dims):
        col = 0
        for c, n in zip(comps, f.source.block_dims):
            # splitting both axes of the slice keeps a view into matrix
            block = matrix[row : row + m * m, col : col + n * n].reshape(m, m, n, n)
            block[...] = c.reshape(n, m, n, m).transpose(3, 1, 2, 0)
            col += n * n
        row += m * m
    matrix.setflags(write=False)  # RawLinearMap keeps it instead of copying it
    return RawLinearMap(f.source, f.target, matrix)


def _pairwise_mult_defect(stacks: list[np.ndarray], units: list[np.ndarray]) -> float:
    """Worst ||P_ij P_kl - delta_jk P_il||: one batched product per E_ij and block."""
    mult_defect = 0.0
    for idx in units:
        n = len(idx)
        for i in range(n):
            for j in range(n):
                sq = 0.0
                for st in stacks:
                    d = st[idx[j, i]] @ st  # E_ij times every unit
                    d[idx[:, j]] -= st[idx[:, i]]  # E_ij E_jl = E_il
                    sq = sq + (np.abs(d) ** 2).sum(axis=(1, 2))
                mult_defect = max(mult_defect, float(np.sqrt(np.max(sq))))
    return mult_defect


def _certificate(
    f: StarHom, stacks: list[np.ndarray], units: list[np.ndarray]
) -> float:
    """A bound on the multiplicativity defect of the unit images P_ij and on
    every ||F(E_ij) - P_ij||, from the generators G_i = F(E_i0); NaN stays NaN.

    F is the action of f on s target blocks of side <= m.  With r~ the worst
    ||P_ij - G_i G_j^H|| and u the worst ||U^H U - 1|| over f's conjugators,
    every unit is off by
    r = r~ + sqrt(s) (1 + u) u, the last term the distance of G_i G_j^H from
    F(E_ij).  With P = F + D, each pair defect ||P_ij P_kl - delta_jk P_il|| is
    then at most sqrt(s) (1 + u) u + (3 + 2u) r + r^2.  Rounding: a product of
    two generators is off by at most (m + 2) eps K^2 per block, K the largest
    norm of a G_i in one block (Higham, Secs. 3.5-3.6), so by
    e_r = sqrt(s) (m + 2) eps K^2 over all blocks; the allowance 2 e_r (1 + K)^2
    covers r~ and each pair defect.  Relative rounding (sums, norms, K) is left
    to the factor two under DEFAULT_ATOL.
    """
    images = [[] for _ in units]  # images[y][i]: the blocks of G_i for block y
    for y, _, j, e in f.source.matrix_units():  # column 0 of a block comes first
        if j == 0:
            images[y].append(apply_hom(f, e).blocks)
        elif y == len(units) - 1:
            break
    sq, k = [], 0.0  # worst ||P_ij - G_i G_j^H||^2 per source block, largest ||G_i||^2
    for idx, gens in zip(units, images):
        q = 0.0
        for st, g in zip(stacks, map(np.array, zip(*gens))):  # per target block
            d = g[:, None] @ g.conj().transpose(0, 2, 1) - st[idx.T]  # [i, j]: vs P_ij
            q = q + (np.abs(d) ** 2).sum(axis=(2, 3))
            k = np.maximum(k, (np.abs(g) ** 2).sum(axis=(1, 2)).max())
        sq.append(q.max())
    r_gens, k = np.sqrt(np.max(sq)), np.sqrt(k)
    u = np.max([_unitarity_defect(c) for c in f.conjugators])
    s, m = len(stacks), max(st.shape[1] for st in stacks)
    unitarity = np.sqrt(s) * (1 + u) * u
    r = r_gens + unitarity
    e_r = np.sqrt(s) * (m + 2) * np.finfo(float).eps * k**2
    return float(unitarity + (3 + 2 * u) * r + r**2 + 2 * e_r * (1 + k) ** 2)


def hom_from_raw(raw: RawLinearMap) -> StarHom:
    """Recover multiplicities and conjugators from a raw unital *-homomorphism.

    The unit images P_ij (the raw columns) are checked for unitality and
    adjoints; mult is read off the traces of the P_ii and each conjugator off
    the range of P_00, and the hom is returned where twice _certificate is at
    most DEFAULT_ATOL.  Otherwise all pairs are checked for multiplicativity, an
    assembly miss is raised, and every unit is rebuilt (hom_to_raw) and compared
    at 1e-7.  A NaN fails each check.
    """
    src, tgt = raw.source, raw.target
    n_dims = src.block_dims
    # units[y][j, i] is the column (and stack index) of the matrix unit E_ij
    offsets = np.cumsum((0,) + tuple(n * n for n in n_dims))
    units = [off + np.arange(n * n).reshape(n, n) for off, n in zip(offsets, n_dims)]
    block_rows = np.split(raw.matrix, np.cumsum([m * m for m in tgt.block_dims[:-1]]))
    # entry [a + m*b, u] of rows is entry [a, b] of this block of the image of unit u
    stacks = [
        np.ascontiguousarray(rows.T.reshape(-1, m, m).transpose(0, 2, 1))
        for rows, m in zip(block_rows, tgt.block_dims)
    ]

    # ones[y][x] is the image of the unit of source block y in target block x
    ones = [[st[np.diagonal(idx)].sum(axis=0) for st in stacks] for idx in units]
    image = AlgebraElement(tgt, tuple(sum(col) for col in zip(*ones)))
    unital_defect = image.distance(tgt.identity())
    if not unital_defect <= DEFAULT_ATOL:
        raise NotAHomomorphismError("unital", unital_defect)

    swap = np.concatenate([idx.T.reshape(-1) for idx in units])  # E_ij -> E_ji
    sq = sum(
        (np.abs(st[swap] - st.conj().transpose(0, 2, 1)) ** 2).sum(axis=(1, 2))
        for st in stacks
    )
    adj_defect = float(np.sqrt(np.max(sq)))
    if not adj_defect <= DEFAULT_ATOL:
        raise NotAHomomorphismError("adjoint", adj_defect)

    held = None
    try:  # a miss is held until multiplicativity has been checked
        mult = [[0] * tgt.num_blocks for _ in n_dims]
        for y, n in enumerate(n_dims):
            for x, one in enumerate(ones[y]):
                tr = np.trace(one).real / n
                c = round(tr)
                miss = abs(tr - c)
                if not miss <= DEFAULT_ATOL:
                    raise NotAHomomorphismError(
                        "integrality",
                        miss,
                        f"multiplicity of source block {y} in target block {x} "
                        f"misses the integer {c} by {miss:.3e}",
                    )
                mult[y][x] = int(c)

        conjugators = []
        for x, st in enumerate(stacks):
            cols = []
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
                # copy k of block y: the images of E_0j applied to range vector k
                cols += [st[units[y][0, j]] @ v for v in range_vecs.T for j in range(n)]
            conjugators.append(np.column_stack(cols))
        result = StarHom(src, tgt, mult, tuple(conjugators))
    except (NotAHomomorphismError, ShapeError) as err:
        held = err
    else:
        if 2 * _certificate(result, stacks, units) <= DEFAULT_ATOL:
            return result

    mult_defect = _pairwise_mult_defect(stacks, units)
    if not mult_defect <= DEFAULT_ATOL:
        raise NotAHomomorphismError("multiplicative", mult_defect)
    if held is not None:
        raise held
    # column norms of the difference are Frobenius distances of unit images
    recon = float(
        np.max(np.linalg.norm(hom_to_raw(result).matrix - raw.matrix, axis=0))
    )
    if not recon <= 1e-7:
        raise NotAHomomorphismError("reconstruction", recon)
    return result


# ---------------------------------------------------------------------------
# CPU maps through block Choi matrices


def choi_from_function(
    fn: Callable[[np.ndarray], np.ndarray], m: int, n: int
) -> np.ndarray:
    """Choi matrix of a linear map M_m -> M_n given by its action on matrices.

    fn is called once on the (m, m, m, m) stack of matrix units (units[i, j] =
    E_ij), acts on the last two axes and returns the (m, m, n, n) stack of
    images.  A second call on E_{m-1,0} alone must give its slice of the stack,
    so a map that does not broadcast (such as e.T) is refused.
    """
    units = np.eye(m * m, dtype=np.complex128).reshape(m, m, m, m)
    fe = np.asarray(fn(units), dtype=np.complex128)
    if fe.shape != (m, m, n, n):
        raise ShapeError(f"map output must be {(m, m, n, n)}, got {fe.shape}")
    probe = np.asarray(fn(units[m - 1, 0]), dtype=np.complex128)
    diff = probe.shape != (n, n) or np.max(np.abs(probe - fe[m - 1, 0]))
    if diff > 1e-12 * max(1.0, np.max(np.abs(fe[m - 1, 0]))):
        raise ShapeError("map must act on the last two axes of a stack of matrices")
    return fe.transpose(0, 2, 1, 3).reshape(m * n, m * n)


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


def _fold_conjugation(choi: np.ndarray, lft: np.ndarray, on_input: bool) -> np.ndarray:
    """(L kron 1) C (L kron 1)^H if on_input, else (1 kron L) C (1 kron L)^H.

    L, a unitary or a rectangular isometry, acts on the input (major) or on the
    output index of the Choi matrix C, once on the rows and once, through ^H,
    on the columns: two small matrix products.
    """
    for _ in range(2):
        shape = (lft.shape[1], -1) if on_input else (-1, lft.shape[1], choi.shape[1])
        choi = (lft @ choi.reshape(shape)).reshape(-1, choi.shape[1]).conj().T
    return choi


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

    @classmethod
    def _trusted(cls, source, target, components) -> "CPUMap":
        """A CPUMap built from checked values: no check, no copy.

        Each component must be a complex128 Choi matrix of its block pair's
        side made from checked values alone; it is marked read-only in place.
        """
        rows = tuple(_read_only(row) for row in components)
        return _unchecked(cls, source=source, target=target, components=rows)


def identity_cpu(algebra: AlgebraSpec) -> CPUMap:
    return ad_cpu(algebra.identity())


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
    return CPUMap._trusted(inner.source, outer.target, comps)


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
    return State._trusted(q.source, tuple(out))


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
        -atol,
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
    return CPUMap._trusted(f.source, f.target, tuple(comps))


def ad_cpu(u: AlgebraElement) -> CPUMap:
    """Conjugation by a unitary element as a CPU map of its algebra.

    Each diagonal component is the rank-one Choi matrix of e -> b e b^H,
    outer(v, conj(v)) with v = vec(b^T), built in closed form by hom_to_cpu;
    the off-diagonal components vanish.  ad_hom checks unitarity.  The
    rectifications fold their unitaries in with _fold_conjugation instead.
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
    return StarHom._trusted(src, tgt, mult, f.conjugators + g.conjugators)


def direct_sum_cpus(q: CPUMap, r: CPUMap) -> CPUMap:
    src = direct_sum_algebras(q.source, r.source)
    tgt = direct_sum_algebras(q.target, r.target)
    zeros: dict[int, np.ndarray] = {}  # one read-only zero block per side, shared

    def zero(y: int, x: int) -> np.ndarray:
        side = src.block_dims[x] * tgt.block_dims[y]
        if side not in zeros:
            zeros[side] = np.zeros((side, side), dtype=np.complex128)
        return zeros[side]

    return CPUMap._trusted(src, tgt, _direct_sum_grid(q.components, r.components, zero))
