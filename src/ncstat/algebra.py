"""Dense block-matrix algebra: elements, states, spectral calculus, validity checks.

An algebra here is a direct sum of full complex matrix blocks, described by the
ordered list of block side lengths.  Elements and states carry one square
matrix per block.  States store unnormalized densities (block weight times the
normalized density), so weight-zero blocks need no special casing and convex
combinations stay closed.  All logarithms are natural.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import AlgebraMismatchError, ShapeError

DEFAULT_ATOL = 1e-9
DEFAULT_CUTOFF = 1e-10


def frozen_matrix(m: object, shape: tuple[int, int], what: str) -> np.ndarray:
    """Read-only complex128 copy of m; a ShapeError naming what on a wrong shape."""
    a = np.array(m, dtype=np.complex128)
    if a.shape != shape:
        raise ShapeError(f"{what} must be {shape[0]}x{shape[1]}, got shape {a.shape}")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class AlgebraSpec:
    """Direct sum of full matrix algebras, recorded as ordered block side lengths."""

    block_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.block_dims)
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

    @cached_property
    def spectra(self) -> tuple[HermitianEigen, ...]:
        """Eigendecomposition of each density, Hermitian within DEFAULT_ATOL."""
        return tuple(hermitian_eigen(d) for d in self.densities)

    def support(
        self, cutoff: float = DEFAULT_CUTOFF
    ) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per block, the kept eigenvalues and eigenvectors of the density.

        The cutoff is relative to the largest eigenvalue of the whole state,
        so a block carrying only noise weight has an empty support.  Cached
        per cutoff, read-only like ``spectra``.
        """
        if cutoff not in self._supports:
            top = max(e.eigenvalues[-1] for e in self.spectra)
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


@dataclass(frozen=True, eq=False)
class HermitianEigen:
    """Eigendecomposition of a Hermitian matrix: ascending eigenvalues, unitary columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eigen(m: np.ndarray) -> HermitianEigen:
    """Eigendecompose m, insisting it is Hermitian within DEFAULT_ATOL (Frobenius)."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    herm_defect = np.linalg.norm(m - m.conj().T) if m.size else 0.0
    if herm_defect > DEFAULT_ATOL:
        raise np.linalg.LinAlgError(
            f"matrix is not Hermitian within tolerance (defect {herm_defect:.3e})"
        )
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return HermitianEigen(vals, vecs)


def partial_trace_left(t: np.ndarray, a: int, b: int) -> np.ndarray:
    """Trace out the left factor of a matrix on the tensor product C^a (x) C^b.

    For kron(A, B) this returns trace(A) * B.
    """
    t = np.asarray(t, dtype=np.complex128)
    if t.shape != (a * b, a * b):
        raise ShapeError(f"expected shape {(a * b, a * b)}, got {t.shape}")
    return np.einsum("ikil->kl", t.reshape(a, b, a, b))


def supported_spectrum(
    eig: HermitianEigen, top: float, cutoff: float = DEFAULT_CUTOFF
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues above cutoff * top, with their eigenvector columns.

    top is the largest eigenvalue the cutoff is relative to; nothing is kept
    when it is not positive.
    """
    keep = eig.eigenvalues > max(cutoff * top, 0.0)
    kept = eig.eigenvalues[keep], eig.eigenvectors[:, keep]
    for a in kept:
        a.setflags(write=False)
    return kept


def _require_psd(eig: HermitianEigen) -> None:
    low = eig.eigenvalues[0] if eig.eigenvalues.size else 0.0
    if low < -DEFAULT_ATOL:
        raise np.linalg.LinAlgError(
            f"matrix is not positive semidefinite (min eigenvalue {low:.3e})"
        )


def _spectral_apply(m: np.ndarray, fn) -> np.ndarray:
    """fn of a Hermitian PSD matrix on its support, the cutoff relative to its top."""
    eig = hermitian_eigen(m)
    _require_psd(eig)
    top = eig.eigenvalues[-1] if eig.eigenvalues.size else 0.0
    vals, vecs = supported_spectrum(eig, top)
    return (vecs * fn(vals)) @ vecs.conj().T


def hermitian_exp(m: np.ndarray) -> np.ndarray:
    """Matrix exponential of a Hermitian matrix via its eigendecomposition."""
    eig = hermitian_eigen(m)
    return (eig.eigenvectors * np.exp(eig.eigenvalues)) @ eig.eigenvectors.conj().T


def hermitian_log(m: np.ndarray) -> np.ndarray:
    """Matrix logarithm on the support of a Hermitian PSD matrix.

    Eigenvalues at or below DEFAULT_CUTOFF times the largest eigenvalue are
    treated as zero and contribute zero to the result (the 0 log 0 = 0
    convention).
    """
    return _spectral_apply(m, np.log)


def support_projection(m: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto eigenspaces above the relative cutoff."""
    return _spectral_apply(m, np.ones_like)


def hermitian_pinv(m: np.ndarray) -> np.ndarray:
    """Pseudo-inverse of a Hermitian PSD matrix with a relative spectral cutoff."""
    return _spectral_apply(m, lambda v: 1.0 / v)


def absolutely_continuous(
    s1: State, s2: State, cutoff: float = DEFAULT_CUTOFF
) -> bool:
    """Whether the support of s1 is contained in the support of s2, blockwise.

    The supports are the kept eigenvectors of the cached spectra (``State.support``,
    cutoff relative to each state's largest eigenvalue).  With U1, V2 the kept
    eigenvectors of one block of s1 and s2, the test is
    norm(U1 - V2 (V2^H U1), 2)^2 <= cutoff, which equals
    norm((1 - P2) P1 (1 - P2), 2) for the support projections P1, P2.
    Raises LinAlgError when a density has an eigenvalue below -DEFAULT_ATOL.
    """
    if s1.algebra != s2.algebra:
        raise AlgebraMismatchError("states live on different algebras")
    blocks = zip(s1.spectra, s2.spectra, s1.support(cutoff), s2.support(cutoff))
    for e1, e2, (_, u1), (_, v2) in blocks:
        _require_psd(e1)
        _require_psd(e2)
        if u1.size and np.linalg.norm(u1 - v2 @ (v2.conj().T @ u1), 2) ** 2 > cutoff:
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


def psd_violations(
    named: Iterable[tuple[str, np.ndarray]], atol: float, kinds: tuple[str, str]
) -> tuple[list[Violation], float]:
    """Hermiticity and positivity violations of (where, matrix) pairs.

    kinds names the two violation kinds.  Also returns the least eigenvalue
    of the Hermitian parts over all matrices, inf when there are none.
    """
    herm_kind, psd_kind = kinds
    violations = []
    least = np.inf
    for where, m in named:
        herm = np.linalg.norm(m - m.conj().T)
        if herm > atol:
            violations.append(Violation(herm_kind, where, float(herm)))
        low = float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])
        least = min(least, low)
        if low < -atol:
            violations.append(Violation(psd_kind, where, -low))
    return violations, least


def validate_state(s: State, atol: float = DEFAULT_ATOL) -> ValidationReport:
    """Check Hermiticity, positivity, and unit total trace of a state.

    Also reports faithfulness: every eigenvalue of every block above atol.
    """
    violations, least = psd_violations(
        ((f"block {x}", d) for x, d in enumerate(s.densities)),
        atol,
        ("hermiticity", "positivity"),
    )
    total = sum(float(np.trace(d).real) for d in s.densities)
    if abs(total - 1.0) > atol:
        violations.append(Violation("normalization", "total trace", abs(total - 1.0)))
    return ValidationReport(tuple(violations), faithful=bool(least > atol))


def direct_sum_algebras(a: AlgebraSpec, b: AlgebraSpec) -> AlgebraSpec:
    return AlgebraSpec(a.block_dims + b.block_dims)
