"""Entropy functionals on block states and the relative entropy of hypotheses.

All quantities are in nats.  Relative entropy returns math.inf when the first
state's support is not contained in the second's; Python floats already form
the extended reals needed here (addition saturates at infinity).

Sign convention for conditional entropy: this module uses
trace(rho ln rho) - trace(rho_cond ln rho_cond), the negative of the textbook
conditional von Neumann entropy, so that the chain rule composes additively
with the relative entropy identities implemented below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import (
    DEFAULT_CUTOFF,
    AlgebraSpec,
    State,
    _spectral_apply,
    absolutely_continuous,
    as_int,
    direct_sum_algebras,
    hermitian_log,
    partial_trace_left,
    validate_state,
)
from .errors import ShapeError
from .hypotheses import (
    AlphaFamily,
    NCMorphism,
    NCObject,
    build_hypothesis_from_alphas,
    compose_morphisms,
    extract_alphas,
)
from .maps import (
    StarHom,
    direct_sum_cpus,
    direct_sum_homs,
    pushforward_state,
)


def _entropy_sum(vals: np.ndarray) -> float:
    """sum of v ln v over kept eigenvalues, with 0 ln 0 = 0."""
    return float(np.sum(vals * np.log(vals)))


def von_neumann_entropy(s: State) -> float:
    """Entropy of a block state; mixes the block weights with the block entropies.

    Read off the cached spectra; DEFAULT_CUTOFF is relative to the largest
    eigenvalue of the whole state.  Raises LinAlgError when a density has an
    eigenvalue below -DEFAULT_ATOL.
    """
    return -sum(_entropy_sum(vals) for vals, _ in s.support())


def relative_entropy(s1: State, s2: State, cutoff: float = DEFAULT_CUTOFF) -> float:
    """Relative entropy of s1 with respect to s2, infinite off the support.

    Infinite unless absolutely_continuous(s1, s2, cutoff).  Otherwise computed
    blockwise from the cached spectra, one eigendecomposition per density: the
    entropy sum of s1 minus the cross term pairing the kept eigenvalues of s1
    against the logarithms of the kept eigenvalues of s2 through squared
    eigenvector overlaps.  Each state's cutoff is relative to its own largest
    eigenvalue over all blocks.
    """
    if not absolutely_continuous(s1, s2, cutoff):
        return math.inf
    total = 0.0
    for (lam, u), (mu, v) in zip(s1.support(cutoff), s2.support(cutoff)):
        total += _entropy_sum(lam)
        overlaps = np.abs(u.conj().T @ v) ** 2
        total -= float(lam @ overlaps @ np.log(mu))
    return total


def re_functor(m: NCMorphism, cutoff: float = DEFAULT_CUTOFF) -> float:
    """Relative entropy assigned to a hypothesis.

    The target state is compared against the source state pushed back through
    the CPU map (m.pushback); an optimal hypothesis scores zero.
    """
    return relative_entropy(m.target.state, m.pushback, cutoff)


def _tensor_factor(d: object) -> int:
    """d as an int >= 1; a ShapeError naming the tensor factor otherwise."""
    n = as_int(d, "tensor factor")
    if n < 1:
        raise ShapeError(f"tensor factor must be >= 1, got {n}")
    return n


def conditional_entropy(s: State, dims: Sequence[int]) -> float:
    """Flipped-sign conditional entropy of a single-block state on a tensor product.

    dims declares the tensor factorization of the block; the last factor is
    the conditioning system.  Returns trace(rho ln rho) - trace(rho_cond ln
    rho_cond), where rho_cond is the reduction onto the last factor.
    """
    if s.algebra.num_blocks != 1:
        raise ShapeError("conditional entropy needs a single-block algebra")
    dims = tuple(_tensor_factor(d) for d in dims)
    if len(dims) < 2:
        raise ShapeError("conditional entropy needs at least two tensor factors")
    if math.prod(dims) != s.algebra.block_dims[0]:
        raise ShapeError(
            f"factor dims {dims} do not multiply to block side {s.algebra.block_dims[0]}"
        )
    head, tail = math.prod(dims[:-1]), dims[-1]
    rho_tail = partial_trace_left(s.densities[0], head, tail)
    reduced = State._trusted(AlgebraSpec((tail,)), (rho_tail,))
    return von_neumann_entropy(reduced) - von_neumann_entropy(s)


# ---------------------------------------------------------------------------
# Convex sums


def convex_sum_objects(lam: float, o1: NCObject, o2: NCObject) -> NCObject:
    """Convex combination: concatenated algebra, densities scaled by the weights."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"weight must lie in [0, 1], got {lam}")
    lam = float(lam)  # the scaled densities stay complex128
    alg = direct_sum_algebras(o1.algebra, o2.algebra)
    densities = tuple(lam * d for d in o1.state.densities) + tuple(
        (1.0 - lam) * d for d in o2.state.densities
    )
    return NCObject(State._trusted(alg, densities))


def convex_sum_morphisms(lam: float, m1: NCMorphism, m2: NCMorphism) -> NCMorphism:
    """Direct sum of two hypotheses between the convex sums of their objects."""
    src = convex_sum_objects(lam, m1.source, m2.source)
    tgt = convex_sum_objects(lam, m1.target, m2.target)
    return NCMorphism(
        source=src,
        target=tgt,
        hom=direct_sum_homs(m1.hom, m2.hom),
        cpu=direct_sum_cpus(m1.cpu, m2.cpu),
    )


# ---------------------------------------------------------------------------
# Functoriality


@dataclass(frozen=True)
class InfiniteRegimeReport:
    """Functoriality terms when at least one relative entropy is infinite."""

    re_composite: float
    re_inner: float
    re_outer: float


def functoriality_defect(g: NCMorphism, f: NCMorphism) -> float | InfiniteRegimeReport:
    """Additivity defect of the relative entropy over a composable pair.

    Returns |RE(composite) - RE(inner) - RE(outer)| when all three terms are
    finite, and the raw terms otherwise.
    """
    re_inner = re_functor(g)
    re_outer = re_functor(f)
    re_comp = re_functor(compose_morphisms(g, f))
    if any(math.isinf(v) for v in (re_inner, re_outer, re_comp)):
        return InfiniteRegimeReport(re_comp, re_inner, re_outer)
    return abs(re_comp - re_inner - re_outer)


@dataclass(frozen=True)
class ExpansionCheck:
    """The three closed-form expansions of the relative entropies of a pair.

    Each rhs value is assembled from the negative entropy of the outer target
    state, the segment weights of the outer CPU map, and the logarithms of the
    intermediate and pushed-back densities; each direct value is the plain
    relative entropy computation.
    """

    rhs_outer: float
    rhs_inner: float
    rhs_composite: float
    direct_outer: float
    direct_inner: float
    direct_composite: float

    @property
    def defects(self) -> tuple[float, float, float]:
        return (
            abs(self.rhs_outer - self.direct_outer),
            abs(self.rhs_inner - self.direct_inner),
            abs(self.rhs_composite - self.direct_composite),
        )


def re_expansions(g: NCMorphism, f: NCMorphism) -> ExpansionCheck:
    """Evaluate the additivity expansions on a standard-form composable pair.

    Requires both homomorphisms standard form, faithful data, and the outer CPU
    map in disintegration form (so its segment weights can be extracted).
    """
    if not (g.hom.is_standard() and f.hom.is_standard()):
        raise ShapeError("re_expansions expects a rectified (standard-form) pair")
    alphas = extract_alphas(f)
    omega = f.target.state
    mid = g.pushback  # intermediate pushback
    # logarithms read off the cached spectra, which relative_entropy reuses
    log_xi = [_spectral_apply(e, np.log) for e in f.source.state.spectra]
    log_mid = [_spectral_apply(e, np.log) for e in mid.spectra]

    term_alpha = term_xi = term_mid = 0.0
    for x, (d, segs) in enumerate(zip(omega.densities, f.hom.segments)):
        for y, (s, n) in enumerate(zip(segs, f.hom.source.block_dims)):
            c = f.hom.mult[y][x]
            if c == 0:
                continue
            seg = d[s, s]
            log_alpha = hermitian_log(alphas.blocks[y][x])
            term_alpha += float(np.trace(seg @ np.kron(log_alpha, np.eye(n))).real)
            reduced = partial_trace_left(seg, c, n)
            term_xi += float(np.trace(reduced @ log_xi[y]).real)
            term_mid += float(np.trace(reduced @ log_mid[y]).real)

    s_omega = von_neumann_entropy(omega)
    return ExpansionCheck(
        rhs_outer=-s_omega - term_alpha - term_xi,
        rhs_inner=term_xi - term_mid,
        rhs_composite=-s_omega - term_alpha - term_mid,
        direct_outer=re_functor(f),
        direct_inner=re_functor(g),
        direct_composite=re_functor(compose_morphisms(g, f)),
    )


# ---------------------------------------------------------------------------
# The tensor-inclusion triple and the chain rule


def tensor_inclusion_morphism(rho_joint: np.ndarray, head_dim: int) -> NCMorphism:
    """Hypothesis for including M_tail into M_(head*tail) as identity kron tail.

    The CPU map traces out the head factor against the uniform density, and the
    target state is the supplied joint density; the source state is its
    reduction.
    """
    head_dim = _tensor_factor(head_dim)
    rho_joint = np.asarray(rho_joint, dtype=np.complex128)
    side = rho_joint.shape[0]
    if rho_joint.shape != (side, side) or side % head_dim:
        raise ShapeError("joint density side must be divisible by the head dimension")
    tail = side // head_dim
    alg_top = AlgebraSpec((side,))
    alg_bot = AlgebraSpec((tail,))
    eye = np.eye(side, dtype=np.complex128)
    hom = StarHom._trusted(alg_bot, alg_top, ((head_dim,),), (eye,))
    omega = State(alg_top, (rho_joint,))
    xi = pushforward_state(omega, hom)
    return build_hypothesis_from_alphas(
        hom, xi, AlphaFamily(((np.eye(head_dim) / head_dim,),)), target_state=omega
    )


@dataclass(frozen=True)
class ChainRuleReport:
    """Conditional entropies of a tripartite state and the matching RE identities.

    re_rhs holds the conditional entropy plus the log dimension of the
    included factors that re_composite, re_inner and re_outer must match.
    """

    h_first_given_rest: float
    h_second_given_third: float
    h_firsttwo_given_third: float
    chain_defect: float
    re_outer: float
    re_inner: float
    re_composite: float
    re_rhs: tuple[float, float, float]

    @property
    def max_defect(self) -> float:
        lhs = (self.re_composite, self.re_inner, self.re_outer)
        return max(self.chain_defect, *(abs(a - b) for a, b in zip(lhs, self.re_rhs)))


def chain_rule_report(rho_abc: np.ndarray, dims: Sequence[int]) -> ChainRuleReport:
    """Check the entropy chain rule and its relative entropy form on one density.

    rho_abc must be a state on the three factors dims.  The chain rule is
    h(first two | third) == h(first | last two) + h(second | third) in the
    flipped-sign convention.  Each conditional entropy plus the log dimension
    of the included factor must match the relative entropy of the tensor
    inclusion of the last two factors into all three (outer) or of the third
    into the last two (inner).
    """
    dims = tuple(_tensor_factor(d) for d in dims)
    if len(dims) != 3:
        raise ShapeError(f"the chain rule needs three tensor factors, got {dims}")
    da, db, dc = dims
    density = State(AlgebraSpec((da * db * dc,)), (rho_abc,))
    validity = validate_state(density)
    if not validity.ok:
        raise ValueError(f"density is not a state: {validity.describe()}")
    f = tensor_inclusion_morphism(density.densities[0], da)
    omega = f.target.state
    g = tensor_inclusion_morphism(f.source.state.densities[0], db)
    xi = g.target.state  # the copy re_functor(g) decomposes

    h_first = von_neumann_entropy(xi) - von_neumann_entropy(omega)
    # h_two and h_second each reduce to rho_C; chain_defect checks they agree
    h_two = conditional_entropy(omega, (da * db, dc))
    h_second = conditional_entropy(xi, (db, dc))
    return ChainRuleReport(
        h_first_given_rest=h_first,
        h_second_given_third=h_second,
        h_firsttwo_given_third=h_two,
        chain_defect=abs(h_two - h_first - h_second),
        re_outer=re_functor(f),
        re_inner=re_functor(g),
        re_composite=re_functor(compose_morphisms(g, f)),
        re_rhs=(
            h_two + math.log(da) + math.log(db),
            h_second + math.log(db),
            h_first + math.log(da),
        ),
    )
