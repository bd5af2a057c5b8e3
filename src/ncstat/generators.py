"""Seeded random instance generators for the law harness and the test suite.

Randomness comes from numpy's PCG64, a named, seedable, portable 64-bit
generator.  Every trial derives its own stream from the pair
(seed, trial_index) through numpy's SeedSequence, so instance k of a run is
reproducible in isolation and independent of execution order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, AlgebraSpec, State
from .errors import ShapeError
from .hypotheses import AlphaFamily, NCMorphism, build_hypothesis_from_alphas
from .maps import StarHom, pushforward_state

_MASK64 = (1 << 64) - 1

# Faithful states are mixed with the maximally mixed state at weight
# mu = min(2 FAITHFUL_FLOOR side, 1/2), so every eigenvalue is at least
# mu / side: 2 FAITHFUL_FLOOR up to side 250, 1 / (2 side) beyond.
FAITHFUL_FLOOR = 1e-3


@dataclass(frozen=True)
class GeneratorConfig:
    """Seed, trial count and size bounds for random instance generation."""

    seed: int = 42
    trials: int = 200
    max_blocks: int = 3
    max_block_dim: int = 3
    faithful_only: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.max_blocks < 1 or self.max_block_dim < 1:
            raise ValueError("size bounds must be at least 1")


def rng_for(cfg: GeneratorConfig, trial: int) -> np.random.Generator:
    """Independent PCG64 stream for one trial of a configured run."""
    return np.random.default_rng([cfg.seed & _MASK64, trial])


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian with phases fixed."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def gen_algebra(rng: np.random.Generator, cfg: GeneratorConfig) -> AlgebraSpec:
    num = int(rng.integers(1, cfg.max_blocks + 1))
    return AlgebraSpec(rng.integers(1, cfg.max_block_dim + 1, size=num))


def gen_element(rng: np.random.Generator, algebra: AlgebraSpec) -> AlgebraElement:
    blocks = [
        rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for d in algebra.block_dims
    ]
    return AlgebraElement(algebra, tuple(blocks))


def gen_state(
    algebra: AlgebraSpec,
    cfg: GeneratorConfig,
    rng: np.random.Generator,
    faithful: bool | None = None,
) -> State:
    """Random state; faithful ones get a spectral floor by mixing with identity.

    With faithful None the config decides: faithful_only forces faithful,
    otherwise each draw is faithful or rank-deficient with equal probability.
    """
    if faithful is None:
        faithful = cfg.faithful_only or bool(rng.random() < 0.5)
    blocks = []
    for d in algebra.block_dims:
        if faithful:
            rank = d
        else:
            rank = int(rng.integers(0, d + 1))
        g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
        blocks.append(g @ g.conj().T)
    total = sum(np.trace(b).real for b in blocks)
    if total <= 0:
        # all blocks drew rank zero: put full weight on the first block
        d = algebra.block_dims[0]
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        blocks[0] = g @ g.conj().T
        total = np.trace(blocks[0]).real
    blocks = [b / total for b in blocks]
    if faithful:
        blocks = [_mix_with_identity(b, algebra.side) for b in blocks]
    return State(algebra, tuple(blocks))


def _mix_with_identity(b: np.ndarray, side: int) -> np.ndarray:
    """Mix one block of a unit-trace density with the maximally mixed 1/side.

    The weight mu on the maximally mixed state is 2 FAITHFUL_FLOOR side, capped
    at 1/2 so the mixture stays a density at every side.
    """
    mu = min(2 * FAITHFUL_FLOOR * side, 0.5)
    return (1 - mu) * b + (mu / side) * np.eye(b.shape[0])


@functools.cache
def _columns_summing_to(dims: tuple[int, ...], total: int) -> tuple[tuple[int, ...], ...]:
    """All nonnegative integer columns c with sum_y c[y] * dims[y] == total."""
    if not dims:
        return ((),) if total == 0 else ()
    head, rest = dims[0], dims[1:]
    return tuple(
        (c,) + tail
        for c in range(total // head + 1)
        for tail in _columns_summing_to(rest, total - c * head)
    )


@functools.cache
def _feasible_columns(dims: tuple[int, ...], max_side: int) -> tuple:
    """Per target side up to max_side that some column fills, its columns and,
    per column, the bitmask of the source blocks it holds (bit y for c[y] > 0)."""
    sides = (_columns_summing_to(dims, m) for m in range(1, max_side + 1))
    return tuple(
        (cols, tuple(sum(1 << y for y, c in enumerate(col) if c) for col in cols))
        for cols in sides
        if cols
    )


def gen_mult_matrix(
    rng: np.random.Generator, source_dims: tuple[int, ...], cfg: GeneratorConfig
) -> tuple[tuple[int, ...], ...]:
    """Random multiplicity matrix whose columns exactly fill target blocks.

    Every source block appears somewhere (the homomorphism is injective) and
    every target side stays within the configured bound.  Resamples until both
    hold; the stacked-identity pattern is the guaranteed fallback.  A source
    block wider than cfg.max_block_dim fits in no target block, so it raises a
    ShapeError before any draw.
    """
    for y, n in enumerate(source_dims):
        if n > cfg.max_block_dim:
            raise ShapeError(
                f"source block {y} has side {n}, but no target block may be wider "
                f"than max_block_dim={cfg.max_block_dim} (source dims {source_dims})"
            )
    t = len(source_dims)
    feasible = _feasible_columns(tuple(source_dims), cfg.max_block_dim)
    every = (1 << t) - 1
    for _ in range(200):
        s = int(rng.integers(1, cfg.max_blocks + 1))
        cols, covered = [], 0
        for _x in range(s):
            options, masks = feasible[rng.integers(0, len(feasible))]
            k = rng.integers(0, len(options))
            cols.append(options[k])
            covered |= masks[k]
        if covered == every:
            return tuple(zip(*cols))
    return tuple(
        tuple(1 if x == y else 0 for x in range(t)) for y in range(t)
    )


def gen_star_hom(
    rng: np.random.Generator,
    source: AlgebraSpec,
    cfg: GeneratorConfig,
    standard: bool = False,
) -> StarHom:
    """Random unital *-homomorphism out of the given algebra.

    Conjugators are Haar unless standard form is requested.
    """
    mult = gen_mult_matrix(rng, source.block_dims, cfg)
    s = len(mult[0])
    target_dims = tuple(
        sum(mult[y][x] * n for y, n in enumerate(source.block_dims))
        for x in range(s)
    )
    target = AlgebraSpec(target_dims)
    if standard:
        conj = tuple(np.eye(m) for m in target_dims)
    else:
        conj = tuple(haar_unitary(rng, m) for m in target_dims)
    return StarHom(source, target, mult, conj)


def gen_alpha_family(
    rng: np.random.Generator, mult: tuple[tuple[int, ...], ...]
) -> AlphaFamily:
    """Random strictly positive segment weights, trace-normalized per source row."""
    rows = []
    for mrow in mult:
        raw = []
        for c in mrow:
            if c == 0:
                raw.append(None)
                continue
            w = rng.standard_normal((c, c)) + 1j * rng.standard_normal((c, c))
            raw.append(w @ w.conj().T + 0.2 * np.eye(c))
        total = sum(np.trace(a).real for a in raw if a is not None)
        if total <= 0:
            raise ShapeError("a source block with no multiplicity anywhere")
        rows.append(tuple(None if a is None else a / total for a in raw))
    return AlphaFamily(rows)


def gen_morphism(
    cfg: GeneratorConfig, rng: np.random.Generator, faithful: bool | None = None
) -> NCMorphism:
    """Random valid hypothesis; generically not optimal.

    The target state is drawn independently, the source state is its
    pushforward, and the CPU map is a random disintegration-form hypothesis
    against the source state.
    """
    source = gen_algebra(rng, cfg)
    hom = gen_star_hom(rng, source, cfg)
    omega = gen_state(hom.target, cfg, rng, faithful=faithful)
    xi = pushforward_state(omega, hom)
    alphas = gen_alpha_family(rng, hom.mult)
    return build_hypothesis_from_alphas(hom, xi, alphas, target_state=omega)


def gen_optimal_morphism(cfg: GeneratorConfig, rng: np.random.Generator) -> NCMorphism:
    """Random optimal hypothesis: the target state is the one the CPU map recovers."""
    source = gen_algebra(rng, cfg)
    hom = gen_star_hom(rng, source, cfg)
    xi = gen_state(hom.source, cfg, rng, faithful=True)
    alphas = gen_alpha_family(rng, hom.mult)
    return build_hypothesis_from_alphas(hom, xi, alphas)


def gen_composable_pair(
    cfg: GeneratorConfig, rng: np.random.Generator
) -> tuple[NCMorphism, NCMorphism]:
    """A composable pair of hypotheses sharing the middle object.

    Returns (inner, outer): inner goes from the smallest object to the middle
    one, outer from the middle one to the largest.  All states and both
    pushed-back reference states have full support, so every relative entropy
    in the additivity law is finite.
    """
    bottom = gen_algebra(rng, cfg)
    hom_inner = gen_star_hom(rng, bottom, cfg)
    hom_outer = gen_star_hom(rng, hom_inner.target, cfg)
    omega = gen_state(hom_outer.target, cfg, rng, faithful=True)
    xi = pushforward_state(omega, hom_outer)
    zeta = pushforward_state(xi, hom_inner)
    outer = build_hypothesis_from_alphas(
        hom_outer, xi, gen_alpha_family(rng, hom_outer.mult), target_state=omega
    )
    inner = build_hypothesis_from_alphas(
        hom_inner, zeta, gen_alpha_family(rng, hom_inner.mult), target_state=xi
    )
    return inner, outer


def gen_density(
    rng: np.random.Generator, side: int, faithful: bool = True
) -> np.ndarray:
    """Random unit-trace density matrix on one block."""
    rank = side if faithful else int(rng.integers(1, side + 1))
    g = rng.standard_normal((side, rank)) + 1j * rng.standard_normal((side, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    if faithful:
        rho = _mix_with_identity(rho, side)
    return rho


def gen_classical_distribution(rng: np.random.Generator, n: int) -> np.ndarray:
    """Strictly positive probability vector of length n: uniform draws plus 1e-3."""
    p = rng.random(n) + 1e-3
    return p / p.sum()
