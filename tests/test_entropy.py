import dataclasses
import math
import sys

import numpy as np
import pytest

from ncstat import algebra
from ncstat.algebra import (
    DEFAULT_CUTOFF,
    AlgebraSpec,
    State,
    absolutely_continuous,
    partial_trace_left,
)
from ncstat.entropy import (
    InfiniteRegimeReport,
    chain_rule_report,
    conditional_entropy,
    convex_sum_morphisms,
    convex_sum_objects,
    functoriality_defect,
    re_expansions,
    re_functor,
    relative_entropy,
    tensor_inclusion_morphism,
    von_neumann_entropy,
)
from ncstat.errors import AlgebraMismatchError, ShapeError
from ncstat.generators import (
    GeneratorConfig,
    gen_composable_pair,
    gen_density,
    gen_morphism,
    gen_optimal_morphism,
    rng_for,
)
from ncstat.hypotheses import (
    AlphaFamily,
    NCMorphism,
    build_hypothesis_from_alphas,
    compose_morphisms,
    extract_alphas,
    is_optimal,
    rectify_morphism,
    rectify_pair,
    validate_morphism,
)
from ncstat.maps import StarHom, cpu_pushforward_state, identity_cpu, identity_hom

CFG = GeneratorConfig(seed=2024, trials=10)

LN2 = math.log(2)


def qubit_state(d):
    return State(AlgebraSpec((2,)), (np.asarray(d, dtype=complex),))


def test_von_neumann_entropy_values():
    s = State(AlgebraSpec((3,)), (np.diag([0.5, 0.25, 0.25]),))
    assert abs(von_neumann_entropy(s) - 1.5 * LN2) < 1e-12

    pure = qubit_state(np.diag([1.0, 0.0]))
    assert abs(von_neumann_entropy(pure)) < 1e-12

    mixed = State(AlgebraSpec((4,)), (np.eye(4) / 4,))
    assert abs(von_neumann_entropy(mixed) - math.log(4)) < 1e-12

    # blocks contribute independently
    two = State(AlgebraSpec((2, 1)), (np.eye(2) / 4, np.array([[0.5]])))
    assert abs(von_neumann_entropy(two) - 1.5 * LN2) < 1e-12


def test_entropy_basis_independent():
    rng = np.random.default_rng(17)
    u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    d = np.diag([0.5, 0.3, 0.2])
    assert (
        abs(
            von_neumann_entropy(State(AlgebraSpec((3,)), (u @ d @ u.conj().T,)))
            - von_neumann_entropy(State(AlgebraSpec((3,)), (d,)))
        )
        < 1e-12
    )


def test_classical_kl_spot_value():
    alg = AlgebraSpec((1, 1))
    p = State(alg, (np.array([[0.5]]), np.array([[0.5]])))
    q = State(alg, (np.array([[0.75]]), np.array([[0.25]])))
    assert abs(relative_entropy(p, q) - 0.5 * math.log(4.0 / 3.0)) < 1e-14


def test_relative_entropy_self_is_zero():
    rng = np.random.default_rng(23)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    d = g @ g.conj().T
    s = State(AlgebraSpec((3,)), (d / np.trace(d).real,))
    assert abs(relative_entropy(s, s)) < 1e-12


def test_relative_entropy_pure_vs_mixed():
    pure = qubit_state(np.diag([1.0, 0.0]))
    mixed = qubit_state(np.eye(2) / 2)
    assert abs(relative_entropy(pure, mixed) - LN2) < 1e-12
    assert math.isinf(relative_entropy(mixed, pure))


def test_relative_entropy_noncommuting_spot():
    rho = qubit_state(np.diag([0.75, 0.25]))
    sigma = qubit_state(np.array([[0.5, 0.25], [0.25, 0.5]]))
    assert abs(relative_entropy(rho, sigma) - math.log(3) / 4) < 1e-12


def test_relative_entropy_orthogonal_supports():
    a = qubit_state(np.diag([1.0, 0.0]))
    b = qubit_state(np.diag([0.0, 1.0]))
    assert math.isinf(relative_entropy(a, b))


@pytest.mark.parametrize("cutoff", [math.nan, math.inf, -0.5])
def test_relative_entropy_rejects_unusable_cutoff(cutoff):
    # a NaN cutoff used to turn this infinite relative entropy into 0.0
    a = qubit_state(np.diag([1.0, 0.0]))
    b = qubit_state(np.diag([0.0, 1.0]))
    with pytest.raises(ValueError, match="cutoff must be finite and >= 0"):
        relative_entropy(a, b, cutoff)


@pytest.mark.parametrize(
    "d",
    [
        [[math.nan, 0.0], [0.0, 0.5]],
        [[0.5, math.inf], [0.0, 0.5]],
        [[math.inf, 0.0], [0.0, 0.5]],
    ],
)
def test_relative_entropy_rejects_non_finite_density(d):
    # a NaN density used to score 0.0 against the maximally mixed state
    s = qubit_state(np.array(d))
    with pytest.raises(np.linalg.LinAlgError, match="not Hermitian"):
        relative_entropy(s, qubit_state(np.eye(2) / 2))


def _random_density(rng, n, rank, weight):
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    d = g @ g.conj().T
    return weight * d / np.trace(d).real


def test_relative_entropy_one_eigh_per_density(monkeypatch):
    rng = np.random.default_rng(31)
    alg = AlgebraSpec((2, 3))
    s1 = State(alg, (_random_density(rng, 2, 1, 0.4), _random_density(rng, 3, 2, 0.6)))
    s2 = State(alg, (_random_density(rng, 2, 2, 0.5), _random_density(rng, 3, 3, 0.5)))
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    first = relative_entropy(s1, s2)
    assert math.isfinite(first)
    assert len(calls) == 4  # one per density: two blocks, two states
    assert relative_entropy(s1, s2) == first
    assert len(calls) == 4  # the spectra are cached on the states


def test_relative_entropy_one_support_per_block(monkeypatch):
    # absolutely_continuous and the entropy sum read the same supports, which
    # State.support caches per cutoff
    import ncstat.algebra as algebra

    rng = np.random.default_rng(32)
    alg = AlgebraSpec((2, 3))
    s1 = State(alg, (_random_density(rng, 2, 1, 0.4), _random_density(rng, 3, 2, 0.6)))
    s2 = State(alg, (_random_density(rng, 2, 2, 0.5), _random_density(rng, 3, 3, 0.5)))
    calls = []
    supported_spectrum = algebra.supported_spectrum

    def counting(*args, **kwargs):
        calls.append(1)
        return supported_spectrum(*args, **kwargs)

    monkeypatch.setattr(algebra, "supported_spectrum", counting)
    first = relative_entropy(s1, s2)
    assert math.isfinite(first)
    assert len(calls) == 4  # one per block per state
    assert relative_entropy(s1, s2, cutoff=1e-6) == first
    assert len(calls) == 8  # another cutoff is another support
    assert not s1.support()[0][0].flags.writeable


def test_noise_block_keeps_relative_entropy_finite():
    # a block of weight 1e-17 is noise against the state's largest eigenvalue,
    # just as an eigenvalue of 1e-12 inside a block is
    alg = AlgebraSpec((1, 1))
    s1 = State(alg, (np.array([[1 - 1e-17]]), np.array([[1e-17]])))
    s2 = State(alg, (np.array([[1.0]]), np.array([[0.0]])))
    assert absolutely_continuous(s1, s2)
    assert abs(relative_entropy(s1, s2)) < 1e-15
    assert abs(von_neumann_entropy(s1)) < 1e-15
    other = State(alg, (np.array([[0.0]]), np.array([[1.0]])))
    assert math.isinf(relative_entropy(s2, other))


def test_relative_entropy_algebra_mismatch():
    with pytest.raises(AlgebraMismatchError):
        relative_entropy(
            qubit_state(np.eye(2) / 2), State(AlgebraSpec((3,)), (np.eye(3) / 3,))
        )


def test_re_functor_vanishes_on_optimal():
    for t in range(5):
        m = gen_optimal_morphism(CFG, rng_for(CFG, t))
        assert abs(re_functor(m)) < 1e-9


def test_re_functor_positive_off_optimal():
    m = gen_morphism(CFG, rng_for(CFG, 1), faithful=True)
    flag, residual = is_optimal(m)
    if not flag:
        assert re_functor(m) > 0.0


def test_conditional_entropy_values():
    # flipped sign: tr(rho ln rho) - tr(rho_cond ln rho_cond)
    prod = State(AlgebraSpec((4,)), (np.eye(4) / 4,))
    assert abs(conditional_entropy(prod, (2, 2)) + LN2) < 1e-12

    corr = State(AlgebraSpec((4,)), (np.diag([0.5, 0.0, 0.0, 0.5]),))
    assert abs(conditional_entropy(corr, (2, 2))) < 1e-12

    bell = np.zeros((4, 4))
    for i in (0, 3):
        for j in (0, 3):
            bell[i, j] = 0.5
    assert abs(conditional_entropy(State(AlgebraSpec((4,)), (bell,)), (2, 2)) - LN2) < 1e-12


def test_conditional_entropy_two_factors_conditioned():
    s = State(AlgebraSpec((8,)), (np.eye(8) / 8,))
    assert abs(conditional_entropy(s, (2, 4)) + LN2) < 1e-12


def _reference_conditional_entropy(s, dims, num_conditioned):
    """conditional_entropy as it was, conditioning on the last num_conditioned
    factors."""
    head = math.prod(dims[: len(dims) - num_conditioned])
    tail = math.prod(dims[len(dims) - num_conditioned :])
    rho_tail = partial_trace_left(s.densities[0], head, tail)
    reduced = State(AlgebraSpec((tail,)), (rho_tail,))
    return von_neumann_entropy(reduced) - von_neumann_entropy(s)


def test_conditional_entropy_matches_the_reference_bit_for_bit():
    rng = np.random.default_rng(8)
    for faithful in (True, False, True, False):
        s = State(AlgebraSpec((8,)), (gen_density(rng, 8, faithful),))
        want_two = _reference_conditional_entropy(s, (2, 2, 2), 2)
        assert conditional_entropy(s, (2, 4)) == want_two
        want_one = _reference_conditional_entropy(s, (2, 2, 2), 1)
        assert conditional_entropy(s, (2, 2, 2)) == want_one


def test_chain_rule_entropies_match_the_reference_bit_for_bit():
    rng = np.random.default_rng(9)
    for dims in [(2, 2, 2), (1, 2, 4), (2, 3, 2), (3, 1, 2), (2, 2, 1)]:
        side = math.prod(dims)
        rho = gen_density(rng, side, faithful=bool(rng.random() < 0.5))
        rep = chain_rule_report(rho, dims)
        omega = State(AlgebraSpec((side,)), (rho,))
        assert rep.h_first_given_rest == _reference_conditional_entropy(omega, dims, 2)
        assert rep.h_firsttwo_given_third == _reference_conditional_entropy(
            omega, dims, 1
        )


def test_chain_rule_report_decomposes_seven_densities(monkeypatch):
    # rho_ABC, rho_BC, rho_C once per conditional entropy that reduces to it,
    # and the pushbacks of the outer, inner and composite inclusions
    rho = gen_density(np.random.default_rng(55), 8)
    seen = []
    real = algebra.hermitian_eigen

    def spy(m):
        seen.append(m.shape)
        return real(m)

    monkeypatch.setattr(algebra, "hermitian_eigen", spy)
    chain_rule_report(rho, (2, 2, 2))
    assert sorted(seen) == [(2, 2), (2, 2), (4, 4), (4, 4), (8, 8), (8, 8), (8, 8)]


def test_tensor_inclusion_morphism_valid():
    rng = np.random.default_rng(31)
    rho = gen_density(rng, 6)
    m = tensor_inclusion_morphism(rho, 2)
    assert validate_morphism(m).ok
    # optimal exactly when the joint is uniform (x) marginal
    marginal = m.source.state.densities[0]
    uniform = np.kron(np.eye(2) / 2, marginal)
    flag, residual = is_optimal(m)
    assert flag == (np.linalg.norm(rho - uniform) < 1e-9)


def test_chain_rule_ghz():
    psi = np.zeros(8)
    psi[0] = psi[7] = 1 / math.sqrt(2)
    rep = chain_rule_report(np.outer(psi, psi), (2, 2, 2))
    assert abs(rep.re_composite - 3 * LN2) < 1e-9
    assert abs(rep.re_inner - LN2) < 1e-9
    assert abs(rep.re_outer - 2 * LN2) < 1e-9
    assert rep.max_defect < 1e-9


def test_chain_rule_maximally_mixed():
    rep = chain_rule_report(np.eye(8) / 8, (2, 2, 2))
    assert abs(rep.re_composite) < 1e-10
    assert abs(rep.re_inner) < 1e-10
    assert abs(rep.re_outer) < 1e-10
    assert rep.max_defect < 1e-10


def test_chain_rule_random_densities():
    rng = np.random.default_rng(55)
    for _ in range(10):
        rho = gen_density(rng, 8, faithful=bool(rng.random() < 0.5))
        rep = chain_rule_report(rho, (2, 2, 2))
        assert rep.max_defect < 1e-9


def test_functoriality_finite():
    inner, outer = gen_composable_pair(CFG, rng_for(CFG, 2))
    defect = functoriality_defect(inner, outer)
    assert isinstance(defect, float) and defect < 1e-8


def test_functoriality_infinite_regime_reported():
    # a rank-deficient alpha confines the pushed-back state to one copy, so a
    # full-support target has infinite relative entropy
    src = AlgebraSpec((2,))
    tgt = AlgebraSpec((4,))
    hom = StarHom(src, tgt, ((2,),), (np.eye(4),))
    xi = State(src, (np.eye(2) / 2,))
    omega = State(tgt, (np.eye(4) / 4,))
    fam = AlphaFamily(((np.diag([1.0, 0.0]),),))
    outer = build_hypothesis_from_alphas(hom, xi, fam, target_state=omega)
    assert validate_morphism(outer).ok
    obj, alg = outer.source, outer.source.algebra
    inner = NCMorphism(obj, obj, identity_hom(alg), identity_cpu(alg))
    result = functoriality_defect(inner, outer)
    assert isinstance(result, InfiniteRegimeReport)
    assert math.isinf(result.re_outer) and result.re_inner == 0.0


def test_re_expansions_on_rectified_pair():
    inner, outer = gen_composable_pair(CFG, rng_for(CFG, 3))
    g, f = rectify_pair(inner, outer).morphisms
    check = re_expansions(g, f)
    assert max(check.defects) < 1e-8


def _reference_log(m):
    """Matrix logarithm on the support, one eigendecomposition of m per call."""
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
    top = vals[-1] if vals.size else 0.0
    keep = vals > max(DEFAULT_CUTOFF * top, 0.0)
    return (vecs[:, keep] * np.log(vals[keep])) @ vecs[:, keep].conj().T


def _reference_expansions(g, f):
    """re_expansions as it was computed with a logarithm per density and
    re_functor for every direct value, in ExpansionCheck field order."""
    alphas = extract_alphas(f)
    omega, xi = f.target.state, f.source.state
    mid = cpu_pushforward_state(g.source.state, g.cpu)
    log_xi = [_reference_log(d) for d in xi.densities]
    log_mid = [_reference_log(d) for d in mid.densities]
    term_alpha = term_xi = term_mid = 0.0
    for x, (d, segs) in enumerate(zip(omega.densities, f.hom.segments)):
        for y, (s, n) in enumerate(zip(segs, f.hom.source.block_dims)):
            c = f.hom.mult[y][x]
            if c == 0:
                continue
            seg = d[s, s]
            log_alpha = _reference_log(alphas.blocks[y][x])
            term_alpha += float(np.trace(seg @ np.kron(log_alpha, np.eye(n))).real)
            reduced = partial_trace_left(seg, c, n)
            term_xi += float(np.trace(reduced @ log_xi[y]).real)
            term_mid += float(np.trace(reduced @ log_mid[y]).real)
    s_omega = von_neumann_entropy(omega)
    return (
        -s_omega - term_alpha - term_xi,
        term_xi - term_mid,
        -s_omega - term_alpha - term_mid,
        re_functor(f),
        re_functor(g),
        re_functor(compose_morphisms(g, f)),
    )


def test_re_expansions_match_the_reference_bit_for_bit():
    cfg = GeneratorConfig(seed=77, trials=60)
    for t in range(cfg.trials):
        inner, outer = gen_composable_pair(cfg, rng_for(cfg, t))
        g, f = rectify_pair(inner, outer).morphisms
        assert dataclasses.astuple(re_expansions(g, f)) == _reference_expansions(g, f)


def test_re_expansions_decomposes_each_middle_density_once(monkeypatch):
    inner, outer = gen_composable_pair(CFG, rng_for(CFG, 3))
    g, f = rectify_pair(inner, outer).morphisms
    mid = cpu_pushforward_state(g.source.state, g.cpu)
    seen = []
    real = algebra.hermitian_eigen

    def spy(m):
        seen.append(np.array(m))
        return real(m)

    monkeypatch.setattr(algebra, "hermitian_eigen", spy)
    re_expansions(g, f)
    for d in mid.densities:
        assert sum(np.array_equal(m, d) for m in seen) == 1


def _count_pushbacks(monkeypatch) -> list:
    """Count cpu_pushforward_state calls through every ncstat module binding."""
    real, calls = cpu_pushforward_state, []

    def spy(s, q):
        calls.append(q)
        return real(s, q)

    for name, mod in list(sys.modules.items()):
        if name.startswith("ncstat") and vars(mod).get("cpu_pushforward_state") is real:
            monkeypatch.setattr(mod, "cpu_pushforward_state", spy)
    return calls


def test_one_pushback_per_morphism(monkeypatch):
    calls = _count_pushbacks(monkeypatch)
    for t in range(4):
        m = rectify_morphism(gen_optimal_morphism(CFG, rng_for(CFG, t))).morphism
        before = len(calls)
        assert is_optimal(m)[0]
        re_functor(m)
        extract_alphas(m)
        is_optimal(m)
        assert len(calls) == before + 1
        want = cpu_pushforward_state(m.source.state, m.cpu)  # not spied on here
        for a, b in zip(m.pushback.densities, want.densities):
            assert np.array_equal(a, b)


def test_re_expansions_builds_three_pushbacks(monkeypatch):
    inner, outer = gen_composable_pair(CFG, rng_for(CFG, 3))
    g, f = rectify_pair(inner, outer).morphisms
    calls = _count_pushbacks(monkeypatch)
    re_expansions(g, f)
    assert len(calls) == 3  # one each for f, g and their composite


def test_tensor_factors_must_be_integers():
    rho = np.eye(8) / 8
    s = State(AlgebraSpec((8,)), (rho,))
    with pytest.raises(ShapeError, match="tensor factor: 2.9"):
        conditional_entropy(s, (2.9, 4))
    for dims in [(2.7, 2, 2), (True, 4, 2), ("2", "2", "2")]:
        with pytest.raises(ShapeError, match="tensor factor"):
            chain_rule_report(rho, dims)
    assert conditional_entropy(s, (2.0, 4)) == conditional_entropy(s, (2, 4))
    assert chain_rule_report(rho, (2.0, 2, 2)) == chain_rule_report(rho, (2, 2, 2))


def test_tensor_factors_must_be_positive():
    rho = np.eye(8) / 8
    s = State(AlgebraSpec((8,)), (rho,))
    with pytest.raises(ShapeError, match="tensor factor must be >= 1, got -2"):
        conditional_entropy(s, (-2, -4))
    with pytest.raises(ShapeError, match="tensor factor must be >= 1, got 0"):
        tensor_inclusion_morphism(rho, 0)
    with pytest.raises(ShapeError, match="tensor factor must be >= 1, got -2"):
        chain_rule_report(rho, (2, -2, -2))


def test_entropies_reject_a_density_that_is_not_psd():
    # 1.2 and -0.2 sum to one: only the PSD check can catch it
    with pytest.raises(np.linalg.LinAlgError, match="positive semidefinite"):
        von_neumann_entropy(State(AlgebraSpec((2,)), (np.diag([1.2, -0.2]),)))
    s = State(AlgebraSpec((4,)), (np.diag([1.2, -0.2, 0.0, 0.0]),))
    with pytest.raises(np.linalg.LinAlgError, match="positive semidefinite"):
        conditional_entropy(s, (2, 2))


def test_chain_rule_rejects_a_density_that_is_not_a_state():
    with pytest.raises(ValueError, match="density is not a state: normalization"):
        chain_rule_report(np.eye(8), (2, 2, 2))
    with pytest.raises(ValueError, match="density is not a state: positivity"):
        chain_rule_report(np.diag([1.2, -0.2, 0, 0, 0, 0, 0, 0]), (2, 2, 2))


def test_affinity_spot():
    m1 = gen_morphism(CFG, rng_for(CFG, 4), faithful=True)
    m2 = gen_morphism(CFG, rng_for(CFG, 5), faithful=True)
    r1, r2 = re_functor(m1), re_functor(m2)
    for lam in (0.0, 0.3, 1.0):
        combined = convex_sum_morphisms(lam, m1, m2)
        assert validate_morphism(combined).ok
        assert abs(re_functor(combined) - (lam * r1 + (1 - lam) * r2)) < 1e-9


def test_convex_sum_objects_normalization():
    o1 = gen_morphism(CFG, rng_for(CFG, 6)).source
    o2 = gen_morphism(CFG, rng_for(CFG, 7)).source
    combined = convex_sum_objects(0.25, o1, o2)
    total = sum(np.trace(d).real for d in combined.state.densities)
    assert abs(total - 1.0) < 1e-12
    with pytest.raises(ValueError):
        convex_sum_objects(1.5, o1, o2)
