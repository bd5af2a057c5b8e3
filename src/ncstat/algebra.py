"""Dense block-matrix algebra: elements, states, spectral calculus, validity checks.

An algebra here is a direct sum of full complex matrix blocks, described by the
ordered list of block side lengths.  Elements and states carry one square
matrix per block.  States store unnormalized densities (block weight times the
normalized density), so weight-zero blocks need no special casing and convex
combinations stay closed.  All logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import AlgebraMismatchError, ShapeError

DEFAULT_ATOL = 1e-9
DEFAULT_CUTOFF = 1e-10


def check_tolerance(name: str, value: float) -> float:
    """value if it is a finite number >= 0; a ValueError naming it otherwise."""
    # a NaN tolerance passes every check; a NaN or infinite cutoff can turn
    # an infinite relative entropy finite
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return value


def as_int(value: object, what: str) -> int:
    """value as an int if it is a number equal to one; else a ShapeError naming what."""
    # a bool is not a number here, and int() would cut 1.9 to 1 or "11" to 11
    real = isinstance(value, (int, float, np.integer, np.floating))
    if real and not isinstance(value, bool) and math.isfinite(value):
        if value == int(value):
            return int(value)
    raise ShapeError(f"malformed {what}: {value!r} is not an integer")


def frozen_matrix(m: object, shape: tuple[int, int], what: str) -> np.ndarray:
    """Read-only complex128 copy of m; a ShapeError naming what on a wrong shape.

    A read-only complex128 ndarray of that shape owning its data (no view) is kept."""
    if type(m) is np.ndarray and not m.flags.writeable and m.flags.owndata:
        if m.dtype == np.complex128 and m.shape == shape:
            return m
    a = np.array(m, dtype=np.complex128)
    if a.shape != shape:
        raise ShapeError(f"{what} must be {shape[0]}x{shape[1]}, got shape {a.shape}")
    a.setflags(write=False)
    return a


def _read_only(arrays: Iterable[np.ndarray]) -> tuple[np.ndarray, ...]:
    """The arrays as a tuple, each marked read-only in place (no copy)."""
    arrays = tuple(arrays)
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass cls holding fields as given, made
    without __init__ and so without its check or copy."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class AlgebraSpec:
    """Direct sum of full matrix algebras, recorded as ordered block side lengths."""

    block_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(as_int(d, "algebra block side") for d in self.block_dims)
        if not dims:
            raise ShapeError("an algebra needs at least one block")
        if any(d < 1 for d in dims):
            raise ShapeError(f"block dimensions must be >= 1, got {dims}")
        object.__setattr__(self, "block_dims", dims)

    @property
    def num_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def dim(self) -> int:
        """Linear dimension: the sum of squared block sizes."""
        return sum(d * d for d in self.block_dims)

    @property
    def side(self) -> int:
        """Total matrix side length of the block-diagonal picture."""
        return sum(self.block_dims)

    def identity(self) -> "AlgebraElement":
        return AlgebraElement(self, tuple(np.eye(d) for d in self.block_dims))

    def matrix_units(self) -> Iterator[tuple[int, int, int, "AlgebraElement"]]:
        """Yield (block, row, col, element) for every matrix unit.

        Iteration order matches the column-major vectorization used by
        ``RawLinearMap``: blocks in order, columns outer, rows inner.
        """
        for b, d in enumerate(self.block_dims):
            for j in range(d):
                for i in range(d):
                    blocks = [np.zeros((k, k)) for k in self.block_dims]
                    blocks[b][i, j] = 1.0
                    yield b, i, j, AlgebraElement(self, tuple(blocks))


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """One square complex matrix per block of an :class:`AlgebraSpec`."""

    algebra: AlgebraSpec
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.blocks) != self.algebra.num_blocks:
            raise ShapeError(
                f"expected {self.algebra.num_blocks} blocks, got {len(self.blocks)}"
            )
        frozen = tuple(
            frozen_matrix(b, (d, d), f"block {x}")
            for x, (b, d) in enumerate(zip(self.blocks, self.algebra.block_dims))
        )
        object.__setattr__(self, "blocks", frozen)

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, tuple(b.conj().T for b in self.blocks))

    def _check_same_algebra(self, other: "AlgebraElement"):
        if self.algebra != other.algebra:
            raise AlgebraMismatchError(
                f"elements on {self.algebra.block_dims} vs {other.algebra.block_dims}"
            )

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same_algebra(other)
        return AlgebraElement(
            self.algebra, tuple(a + b for a, b in zip(self.blocks, other.blocks))
        )

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same_algebra(other)
        return AlgebraElement(
            self.algebra, tuple(a - b for a, b in zip(self.blocks, other.blocks))
        )

    def __matmul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same_algebra(other)
        return AlgebraElement(
            self.algebra, tuple(a @ b for a, b in zip(self.blocks, other.blocks))
        )

    def __rmul__(self, scalar: complex) -> "AlgebraElement":
        return AlgebraElement(self.algebra, tuple(scalar * b for b in self.blocks))

    def norm(self) -> float:
        """Frobenius norm over all blocks."""
        return float(np.sqrt(sum(np.linalg.norm(b) ** 2 for b in self.blocks)))

    def distance(self, other: "AlgebraElement") -> float:
        return (self - other).norm()


@dataclass(frozen=True, eq=False)
class State:
    """A linear functional stored as one unnormalized density matrix per block.

    Evaluation pairs by trace: the value on an element is the sum over blocks
    of trace(density @ block).  A valid state has Hermitian PSD densities
    whose traces sum to one.  The densities are read-only copies, so the
    eigendecomposition of each is computed once, on first use, and cached
    (``spectra``); supports and entropies are read off it.
    """

    algebra: AlgebraSpec
    densities: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.densities) != self.algebra.num_blocks:
            raise ShapeError(
                f"expected {self.algebra.num_blocks} densities, got {len(self.densities)}"
            )
        frozen = tuple(
            frozen_matrix(d, (k, k), f"density {x}")
            for x, (d, k) in enumerate(zip(self.densities, self.algebra.block_dims))
        )
        object.__setattr__(self, "densities", frozen)
        object.__setattr__(self, "_supports", {})  # cutoff -> support()

    @classmethod
    def _trusted(cls, algebra: AlgebraSpec, densities: tuple) -> "State":
        """A State built from checked values: no check, no copy.

        Each density must be a complex128 matrix of its block's side made from
        checked values alone; it is marked read-only in place.
        """
        densities = _read_only(densities)
        return _unchecked(cls, algebra=algebra, densities=densities, _supports={})

    @cached_property
    def spectra(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(eigenvalues, eigenvectors) of each density, Hermitian within DEFAULT_ATOL."""
        return tuple(hermitian_eigen(d) for d in self.densities)

    def support(
        self, cutoff: float = DEFAULT_CUTOFF
    ) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per block, the kept eigenvalues and eigenvectors of the density.

        The cutoff is relative to the largest eigenvalue of the whole state,
        so a block carrying only noise weight has an empty support.  Cached
        per cutoff, read-only like ``spectra``.  Raises LinAlgError when a
        density has an eigenvalue below -DEFAULT_ATOL.
        """
        check_tolerance("cutoff", cutoff)
        if cutoff not in self._supports:
            top = max(vals[-1] for vals, _ in self.spectra)
            self._supports[cutoff] = tuple(
                supported_spectrum(e, top, cutoff) for e in self.spectra
            )
        return self._supports[cutoff]

    def evaluate(self, a: AlgebraElement) -> complex:
        if a.algebra != self.algebra:
            raise AlgebraMismatchError("element lives on a different algebra")
        return complex(sum(np.trace(d @ b) for d, b in zip(self.densities, a.blocks)))


def state_distance(s1: State, s2: State) -> float:
    """Frobenius distance between the density tuples of two states."""
    if s1.algebra != s2.algebra:
        raise AlgebraMismatchError("states live on different algebras")
    return float(
        np.sqrt(
            sum(
                np.linalg.norm(a - b) ** 2
                for a, b in zip(s1.densities, s2.densities)
            )
        )
    )


def hermitian_eigen(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigh (eigenvalues, eigenvectors) of m, Hermitian within DEFAULT_ATOL."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    herm_defect = _hermiticity_defect(m)
    if not herm_defect <= DEFAULT_ATOL:
        raise np.linalg.LinAlgError(
            f"matrix is not Hermitian within tolerance (defect {herm_defect:.3e})"
        )
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return vals, vecs


def partial_trace_left(t: np.ndarray, a: int, b: int) -> np.ndarray:
    """Trace out the left factor of a matrix on the tensor product C^a (x) C^b.

    For kron(A, B) this returns trace(A) * B.
    """
    t = np.asarray(t, dtype=np.complex128)
    if t.shape != (a * b, a * b):
        raise ShapeError(f"expected shape {(a * b, a * b)}, got {t.shape}")
    return np.einsum("ikil->kl", t.reshape(a, b, a, b))


def supported_spectrum(
    eig: tuple[np.ndarray, np.ndarray], top: float, cutoff: float = DEFAULT_CUTOFF
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues above cutoff * top, with their eigenvector columns.

    eig is an (eigenvalues, eigenvectors) pair; top is the largest eigenvalue
    the cutoff is relative to; nothing is kept when it is not positive.
    Raises LinAlgError when an eigenvalue is below -DEFAULT_ATOL.
    """
    vals, vecs = eig
    if vals.size and vals[0] < -DEFAULT_ATOL:
        raise np.linalg.LinAlgError(
            f"matrix is not positive semidefinite (min eigenvalue {vals[0]:.3e})"
        )
    keep = vals > max(cutoff * top, 0.0)
    kept = vals[keep], vecs[:, keep]
    for a in kept:
        a.setflags(write=False)
    return kept


def _spectral_apply(eig: tuple[np.ndarray, np.ndarray], fn) -> np.ndarray:
    """fn of a Hermitian PSD matrix on its support, the cutoff relative to its top.

    eig is the matrix's eigendecomposition, such as a cached State.spectra entry.
    """
    top = eig[0][-1] if eig[0].size else 0.0
    vals, vecs = supported_spectrum(eig, top)
    return (vecs * fn(vals)) @ vecs.conj().T


def hermitian_exp(m: np.ndarray) -> np.ndarray:
    """Matrix exponential of a Hermitian matrix via its eigendecomposition."""
    vals, vecs = hermitian_eigen(m)
    return (vecs * np.exp(vals)) @ vecs.conj().T


def hermitian_log(m: np.ndarray) -> np.ndarray:
    """Matrix logarithm on the support of a Hermitian PSD matrix.

    Eigenvalues at or below DEFAULT_CUTOFF times the largest eigenvalue are
    treated as zero and contribute zero to the result (the 0 log 0 = 0
    convention).
    """
    return _spectral_apply(hermitian_eigen(m), np.log)


def support_projection(m: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto eigenspaces above the relative cutoff."""
    return _spectral_apply(hermitian_eigen(m), np.ones_like)


def hermitian_pinv(m: np.ndarray) -> np.ndarray:
    """Pseudo-inverse of a Hermitian PSD matrix with a relative spectral cutoff."""
    return _spectral_apply(hermitian_eigen(m), lambda v: 1.0 / v)


def absolutely_continuous(
    s1: State, s2: State, cutoff: float = DEFAULT_CUTOFF
) -> bool:
    """Whether the support of s1 is contained in the support of s2, blockwise.

    The supports are the kept eigenvectors of the cached spectra (``State.support``,
    cutoff relative to each state's largest eigenvalue).  With U1, V2 the kept
    eigenvectors of one block of s1 and s2, the test is
    norm(R, 2)^2 <= cutoff for R = U1 - V2 (V2^H U1), which equals
    norm((1 - P2) P1 (1 - P2), 2) for the support projections P1, P2.  Since
    norm(R, 2) <= norm(R, 'fro'), a block whose squared Frobenius norm is at
    most cutoff / 2 (a margin for rounding) is contained without an SVD.
    Raises LinAlgError when a density has an eigenvalue below -DEFAULT_ATOL.
    """
    if s1.algebra != s2.algebra:
        raise AlgebraMismatchError("states live on different algebras")
    for (_, u1), (_, v2) in zip(s1.support(cutoff), s2.support(cutoff)):
        r = u1 - v2 @ (v2.conj().T @ u1)
        if not np.vdot(r, r).real <= cutoff / 2 and np.linalg.norm(r, 2) ** 2 > cutoff:
            return False
    return True


@dataclass(frozen=True)
class Violation:
    kind: str
    where: str
    residual: float

    def __str__(self):
        return f"{self.kind} at {self.where}: residual {self.residual:.3e}"


@dataclass(frozen=True)
class ValidationReport:
    """Numeric violations found by a validity check; empty means valid."""

    violations: tuple[Violation, ...] = ()
    faithful: bool | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def worst(self) -> float:
        """The largest residual, 0.0 when valid."""
        return max((v.residual for v in self.violations), default=0.0)

    def describe(self) -> str:
        if self.ok:
            if self.faithful is None:
                return "valid"
            return "valid (faithful)" if self.faithful else "valid (not faithful)"
        return "; ".join(str(v) for v in self.violations)


def _hermiticity_defect(m: np.ndarray) -> float:
    """norm(m - m^H), or inf on a NaN or inf entry, where m - m^H would warn."""
    if np.count_nonzero(np.isfinite(m)) < m.size:
        return math.inf
    return float(np.linalg.norm(m - m.conj().T))


def _low_rank_certificate(m: np.ndarray, shift: float) -> bool:
    """Whether h - shift 1 > 0, h = (m + m^H)/2, shift = floor + delta, is shown
    without h: up to n/16 pivoted Cholesky steps give L, then the README's
    rounding bound on ||m - L L^H||_F.  At ranks 1 to n/16 it costs 1.3-1.8x
    forming h and its Cholesky factor at side 32, 0.5-0.9x at side 64 and 0.2-0.4x at side 256."""
    n, eps = len(m), np.finfo(float).eps
    m = m.T if m.flags.f_contiguous else m  # h(m^T) = conj(h(m)): same spectrum
    d = m.diagonal().real.copy()  # the diagonal of h - L L^H
    bound = -shift
    l = np.zeros((n, 0), dtype=np.complex128)
    while 0 < bound <= n * d[p := d.argmax()] and l.shape[1] < n // 16:
        col = ((m[:, p] + m[p].conj()) / 2 - l @ l[p].conj()) / math.sqrt(d[p])
        l = np.column_stack((l, col))
        d -= col.real**2 + col.imag**2
    s = float(np.linalg.norm(m - l @ l.conj().T))
    return s + 4 * (l.shape[1] + 2) * eps * np.vdot(l, l).real + n * n * eps * s < bound


def psd_violations(
    named: Iterable[tuple[str, np.ndarray]], atol: float, kinds: tuple[str, str], floor: float
) -> tuple[list[Violation], bool]:
    """Hermiticity and positivity violations of (where, matrix) pairs.

    kinds names the two violation kinds.  Also returns whether every finite
    Hermitian part has all eigenvalues above floor (-atol, or atol for faithful).
    """
    check_tolerance("atol", atol)
    herm_kind, psd_kind = kinds
    violations = []
    above = True
    for where, m in named:
        herm = _hermiticity_defect(m)
        if not herm <= atol:
            violations.append(Violation(herm_kind, where, herm))
        if not math.isfinite(herm):
            continue
        n = len(m)
        # from side 8 Cholesky is cheaper than eigvalsh; h - (floor + delta) 1
        # factors only if h > floor 1, delta bounding its error (Higham, Thm 10.3)
        if n >= 8:
            delta = 4 * (n + 1) * np.finfo(float).eps * (m.diagonal().real.sum() + n * atol)
            if floor < 0 and n >= 64 and _low_rank_certificate(m, floor + delta):
                continue  # from side 64 cheaper than the Cholesky below on low rank
            if 0 < delta < atol:
                h = (m + m.conj().T) / 2
                h.flat[:: n + 1] -= floor + delta
                try:
                    np.linalg.cholesky(h)
                    continue
                except np.linalg.LinAlgError:
                    pass
        low = float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])
        above = above and low > floor
        if low < -atol:
            violations.append(Violation(psd_kind, where, -low))
    return violations, above


def validate_state(s: State, atol: float = DEFAULT_ATOL) -> ValidationReport:
    """Check Hermiticity, positivity, and unit total trace of a state.

    Also reports faithfulness: every eigenvalue of every block above atol.
    """
    violations, faithful = psd_violations(
        ((f"block {x}", d) for x, d in enumerate(s.densities)),
        atol,
        ("hermiticity", "positivity"),
        atol,
    )
    total = sum(float(np.trace(d).real) for d in s.densities)
    if abs(total - 1.0) > atol:
        violations.append(Violation("normalization", "total trace", abs(total - 1.0)))
    return ValidationReport(tuple(violations), faithful)


def direct_sum_algebras(a: AlgebraSpec, b: AlgebraSpec) -> AlgebraSpec:
    return AlgebraSpec(a.block_dims + b.block_dims)
