import math

import numpy as np
import pytest

from ncstat.algebra import (
    AlgebraElement,
    AlgebraSpec,
    State,
    hermitian_pinv,
    state_distance,
)
from ncstat.errors import FactorizationError, ObjectMismatchError, ShapeError
from ncstat.hypotheses import (
    AlphaFamily,
    NCMorphism,
    NCObject,
    NoDisintegration,
    build_hypothesis_from_alphas,
    compose_morphisms,
    construct_optimal_hypothesis,
    extract_alphas,
    is_optimal,
    rectify_morphism,
    rectify_pair,
    validate_morphism,
)
from ncstat.maps import (
    CPUMap,
    StarHom,
    _fold_conjugation,
    ad_cpu,
    apply_cpu,
    apply_hom,
    choi_from_function,
    compose_cpu,
    cpu_pushforward_state,
    identity_cpu,
    identity_hom,
    strip_conjugators,
)
from ncstat.entropy import re_functor, tensor_inclusion_morphism
from ncstat.generators import (
    GeneratorConfig,
    gen_algebra,
    gen_alpha_family,
    gen_composable_pair,
    gen_morphism,
    gen_optimal_morphism,
    gen_star_hom,
    gen_state,
    haar_unitary,
    rng_for,
)

CFG = GeneratorConfig(seed=1234, trials=10)


def cpu_from_functions(source, target, fn):
    """CPUMap from the componentwise action fn(y, x, stack of inputs)."""
    return CPUMap(
        source,
        target,
        tuple(
            tuple(
                choi_from_function(lambda e, y=y, x=x: fn(y, x, e), m, n)
                for x, m in enumerate(source.block_dims)
            )
            for y, n in enumerate(target.block_dims)
        ),
    )


def diag_embedding():
    src = AlgebraSpec((1, 1))
    tgt = AlgebraSpec((2,))
    return StarHom(src, tgt, ((1,), (1,)), (np.eye(2),))


def test_object_state_wiring():
    alg = AlgebraSpec((2,))
    s = State(alg, (np.eye(2) / 2,))
    obj = NCObject(s)
    assert obj.algebra == alg


def test_morphism_wiring_rejected():
    f = diag_embedding()
    xi = NCObject(State(f.source, (np.array([[0.5]]), np.array([[0.5]]))))
    om = NCObject(State(f.target, (np.eye(2) / 2,)))
    alphas = AlphaFamily(((np.eye(1),), (np.eye(1),)))
    good = build_hypothesis_from_alphas(f, xi.state, alphas)
    with pytest.raises(Exception):
        NCMorphism(source=om, target=xi, hom=f, cpu=good.cpu)


def test_validate_morphism_pushforward_defect():
    f = diag_embedding()
    alphas = AlphaFamily(((np.eye(1),), (np.eye(1),)))
    xi = State(f.source, (np.array([[0.5]]), np.array([[0.5]])))
    omega = State(f.target, (np.diag([0.3, 0.7]),))
    m = build_hypothesis_from_alphas(f, xi, alphas, target_state=omega)
    rep = validate_morphism(m)
    assert not rep.ok
    push = [v for v in rep.violations if v.kind == "pushforward"]
    assert push and abs(push[0].residual - math.sqrt(0.08)) < 1e-12


@pytest.mark.parametrize(
    "rho, kind, residual",
    [
        (np.eye(8), "normalization", 7.0),
        (np.diag([1.2, -0.2, 0, 0]), "positivity", 0.2),
    ],
)
def test_validate_morphism_checks_both_states(rho, kind, residual):
    # a tensor inclusion builds from any matrix; its states are not states
    rep = validate_morphism(tensor_inclusion_morphism(rho, 2))
    flagged = [v for v in rep.violations if v.kind == kind]
    assert [v.where.split(" state ")[0] for v in flagged] == ["source", "target"]
    assert all(abs(v.residual - residual) < 1e-12 for v in flagged)


def test_generated_morphism_is_valid():
    for t in range(5):
        m = gen_morphism(CFG, rng_for(CFG, t))
        assert validate_morphism(m).ok


def test_identity_morphism_is_optimal():
    alg = AlgebraSpec((2, 1))
    s = State(alg, (np.eye(2) / 3, np.eye(1) / 3))
    obj = NCObject(s)
    m = NCMorphism(obj, obj, identity_hom(alg), identity_cpu(alg))
    assert validate_morphism(m).ok
    flag, residual = is_optimal(m)
    assert flag and residual < 1e-14


def test_optimal_generated_morphism():
    for t in range(5):
        m = gen_optimal_morphism(CFG, rng_for(CFG, t))
        flag, residual = is_optimal(m)
        assert flag, residual


def test_section_axiom_on_generated():
    m = gen_morphism(CFG, rng_for(CFG, 3))
    for _, _, _, e in m.source.algebra.matrix_units():
        back = apply_cpu(m.cpu, apply_hom(m.hom, e))
        assert back.distance(e) < 1e-10


def test_rectify_gives_standard_form():
    m = gen_morphism(CFG, rng_for(CFG, 4))
    r = rectify_morphism(m)
    assert r.morphism.hom.is_standard()
    assert validate_morphism(r.morphism).ok
    # target state transported by the stripped unitary
    u = r.u
    for x, d in enumerate(m.target.state.densities):
        want = u.blocks[x].conj().T @ d @ u.blocks[x]
        assert np.allclose(r.morphism.target.state.densities[x], want)


def test_rectify_pair_alignment():
    inner, outer = gen_composable_pair(CFG, rng_for(CFG, 5))
    r = rectify_pair(inner, outer)
    g, f = r.morphisms
    assert g.hom.is_standard() and f.hom.is_standard()
    assert state_distance(g.target.state, f.source.state) < 1e-12
    compose_morphisms(g, f)  # must not raise


def test_compose_rejects_mismatched_middle():
    inner, _ = gen_composable_pair(CFG, rng_for(CFG, 6))
    _, outer = gen_composable_pair(CFG, rng_for(CFG, 7))
    with pytest.raises(ObjectMismatchError):
        compose_morphisms(inner, outer)


def test_extract_alphas_tensor_product():
    # target density alpha (x) sigma over a two-copy embedding recovers alpha
    src = AlgebraSpec((2,))
    tgt = AlgebraSpec((4,))
    hom = StarHom(src, tgt, ((2,),), (np.eye(4),))
    sigma = np.array([[0.6, 0.1], [0.1, 0.4]])
    alpha = np.diag([0.3, 0.7])
    omega = State(tgt, (np.kron(alpha, sigma),))
    xi = State(src, (sigma,))
    fam = AlphaFamily(((alpha,),))
    m = build_hypothesis_from_alphas(hom, xi, fam, target_state=omega)
    assert validate_morphism(m).ok
    back = extract_alphas(m)
    assert np.allclose(back.blocks[0][0], alpha, atol=1e-12)
    flag, _ = is_optimal(m)
    assert flag


def test_extract_alphas_needs_standard_form():
    m = gen_morphism(CFG, rng_for(CFG, 8))
    if not m.hom.is_standard():
        with pytest.raises(ShapeError):
            extract_alphas(m)


def test_extract_alphas_rejects_copy_correlation():
    # compression onto span{|00>, |11>} is CP and unital but not a section;
    # its dual image correlates the copy index with the source content and
    # cannot factor as alpha (x) xi
    src = AlgebraSpec((2,))
    tgt = AlgebraSpec((4,))
    hom = StarHom(src, tgt, ((2,),), (np.eye(4),))
    v = np.zeros((4, 2))
    v[0, 0] = 1.0
    v[3, 1] = 1.0
    q = cpu_from_functions(tgt, src, lambda y, x, e: v.conj().T @ e @ v)
    m = NCMorphism(
        source=NCObject(State(src, (np.eye(2) / 2,))),
        target=NCObject(State(tgt, (np.eye(4) / 4,))),
        hom=hom,
        cpu=q,
    )
    rep = validate_morphism(m)
    assert any(v.kind == "section" for v in rep.violations)
    with pytest.raises(FactorizationError):
        extract_alphas(m)


def _reference_section_defect(m: NCMorphism) -> float:
    # worst Frobenius distance between Q(F(e)) and e over the source matrix units
    worst = 0.0
    for _, _, _, e in m.source.algebra.matrix_units():
        worst = max(worst, apply_cpu(m.cpu, apply_hom(m.hom, e)).distance(e))
    return worst


def _section_report(m: NCMorphism) -> float:
    found = [v for v in validate_morphism(m).violations if v.kind == "section"]
    return found[0].residual if found else 0.0


def test_section_defect_matches_unit_loop():
    # a non-standard multi-block hom, with its own CPU map and with that map
    # precomposed by a Haar conjugation, which breaks the section axiom
    cfg = GeneratorConfig(seed=77, trials=10)
    m = gen_morphism(cfg, rng_for(cfg, 4))
    assert m.source.algebra.num_blocks == 3 and not m.hom.is_standard()
    assert _reference_section_defect(m) < 1e-12
    assert _section_report(m) == 0.0
    rng = np.random.default_rng(78)
    w = AlgebraElement(
        m.target.algebra, tuple(haar_unitary(rng, d) for d in m.target.algebra.block_dims)
    )
    bad = NCMorphism(m.source, m.target, m.hom, compose_cpu(m.cpu, ad_cpu(w)))
    ref = _reference_section_defect(bad)
    assert ref > 1e-3
    assert abs(_section_report(bad) - ref) < 1e-12


def test_copy_correlation_section_defect_under_conjugation():
    # the copy-correlation compression of
    # test_extract_alphas_rejects_copy_correlation, carried through a Haar
    # conjugator on the target; the section defect must survive it
    src = AlgebraSpec((2,))
    tgt = AlgebraSpec((4,))
    u = haar_unitary(np.random.default_rng(79), 4)
    hom = StarHom(src, tgt, ((2,),), (u,))
    v = np.zeros((4, 2))
    v[0, 0] = 1.0
    v[3, 1] = 1.0
    v = u @ v
    q = cpu_from_functions(tgt, src, lambda y, x, e: v.conj().T @ e @ v)
    m = NCMorphism(
        source=NCObject(State(src, (np.eye(2) / 2,))),
        target=NCObject(State(tgt, (np.eye(4) / 4,))),
        hom=hom,
        cpu=q,
    )
    ref = _reference_section_defect(m)
    assert ref > 1e-3
    assert abs(_section_report(m) - ref) < 1e-12


def test_disintegration_blocked_by_coherence():
    f = diag_embedding()
    omega = State(f.target, (np.array([[0.5, 0.2], [0.2, 0.5]]),))
    result = construct_optimal_hypothesis(f, omega)
    assert isinstance(result, NoDisintegration)
    assert abs(result.residual - 0.2 * math.sqrt(2)) < 1e-12


def test_disintegration_of_a_hom_dropping_a_source_block_is_obstructed():
    # source block 1 has no copy in the target, so no CPU map is a left inverse
    hom = StarHom(AlgebraSpec((1, 1)), AlgebraSpec((1,)), ((1,), (0,)), (np.eye(1),))
    result = construct_optimal_hypothesis(hom, State(hom.target, (np.eye(1),)))
    assert isinstance(result, NoDisintegration)
    assert result.residual == 1.0
    assert "source block 1" in result.detail


def test_disintegration_classical_success():
    f = diag_embedding()
    omega = State(f.target, (np.diag([0.3, 0.7]),))
    m = construct_optimal_hypothesis(f, omega)
    assert isinstance(m, NCMorphism)
    assert validate_morphism(m).ok
    flag, residual = is_optimal(m)
    assert flag and residual < 1e-14
    assert np.allclose(m.source.state.densities[0], [[0.3]])
    assert np.allclose(m.source.state.densities[1], [[0.7]])


def test_disintegration_maximally_mixed():
    src = AlgebraSpec((2,))
    tgt = AlgebraSpec((4,))
    hom = StarHom(src, tgt, ((2,),), (np.eye(4),))
    omega = State(tgt, (np.eye(4) / 4,))
    m = construct_optimal_hypothesis(hom, omega)
    assert isinstance(m, NCMorphism)
    alphas = extract_alphas(m)
    assert np.allclose(alphas.blocks[0][0], np.eye(2) / 2, atol=1e-12)


def test_disintegration_weightless_reference_gets_uniform_alpha(monkeypatch):
    import ncstat.hypotheses as hyp

    built = []

    def spy(hom, xi, alphas, **kwargs):
        built.append(alphas)
        return build_hypothesis_from_alphas(hom, xi, alphas, **kwargs)

    monkeypatch.setattr(hyp, "build_hypothesis_from_alphas", spy)
    # source block 1 carries no weight, so its alpha row is unconstrained
    hom = StarHom(
        AlgebraSpec((1, 1)), AlgebraSpec((2, 2)), ((2, 0), (0, 2)), (np.eye(2), np.eye(2))
    )
    omega = State(hom.target, (np.diag([0.3, 0.7]), np.zeros((2, 2))))
    m = construct_optimal_hypothesis(hom, omega)
    assert isinstance(m, NCMorphism)
    for fam in (*built, extract_alphas(m)):
        assert fam.mult == hom.mult
        assert fam.blocks[0][1] is None and fam.blocks[1][0] is None
        assert np.allclose(fam.blocks[0][0], np.diag([0.3, 0.7]), atol=1e-12)
        assert np.array_equal(fam.blocks[1][1], np.eye(2) / 2)
    assert len(built) == 1
    assert validate_morphism(m).ok
    flag, residual = is_optimal(m)
    assert flag and residual < 1e-14
    assert re_functor(m) == 0.0


def test_disintegration_one_pinv_per_source_block(monkeypatch):
    import ncstat.hypotheses as hyp

    calls = []

    def spy(m):
        calls.append(m.shape)
        return hermitian_pinv(m)

    monkeypatch.setattr(hyp, "hermitian_pinv", spy)
    # the one source block has copies in both target blocks
    hom = StarHom(AlgebraSpec((1,)), AlgebraSpec((2, 1)), ((2, 1),), (np.eye(2), np.eye(1)))
    omega = State(hom.target, (np.diag([0.2, 0.3]), np.array([[0.5]])))
    m = construct_optimal_hypothesis(hom, omega)
    assert isinstance(m, NCMorphism)
    assert calls == [(1, 1)]


def test_disintegration_respects_conjugator():
    # same data conjugated by a Haar unitary still disintegrates
    rng = rng_for(CFG, 9)
    m = gen_optimal_morphism(CFG, rng)
    result = construct_optimal_hypothesis(m.hom, m.target.state)
    assert isinstance(result, NCMorphism)
    flag, residual = is_optimal(result)
    assert flag, residual
    back = cpu_pushforward_state(result.source.state, result.cpu)
    assert state_distance(back, m.target.state) < 1e-10


def test_alpha_family_validation():
    good = AlphaFamily(((np.eye(2) / 2,),))
    assert good.validate().ok
    bad = AlphaFamily(((np.diag([1.5, -0.5]),),))
    rep = bad.validate()
    assert not rep.ok
    with pytest.raises(ShapeError, match=r"entry \(0,0\) must be 2x2"):
        AlphaFamily(((np.ones((2, 3)),),))


def _standard_frame_reference(hom, xi, alphas):
    """The standard-frame hypothesis and default target, written out by hand.

    Per target block x the source blocks y sit one after another, each as
    mult[y][x] copies of an n_y-dimensional block; component (y, x) compresses
    to that segment, weights the copy factor by alpha_yx and traces it out.
    """
    dims_src = hom.source.block_dims
    offsets = [
        np.cumsum([0] + [hom.mult[y][x] * n for y, n in enumerate(dims_src)])
        for x in range(hom.target.num_blocks)
    ]

    def component(y, x, a):
        c, n = hom.mult[y][x], dims_src[y]
        if c == 0:
            return np.zeros(a.shape[:-2] + (n, n), dtype=np.complex128)
        lo, hi = offsets[x][y], offsets[x][y + 1]
        seg = a[..., lo:hi, lo:hi].reshape(a.shape[:-2] + (c, n, c, n))
        return np.einsum("kl,...ljkJ->...jJ", alphas.blocks[y][x], seg)

    cpu = cpu_from_functions(hom.target, hom.source, component)
    densities = []
    for x, m in enumerate(hom.target.block_dims):
        d = np.zeros((m, m), dtype=np.complex128)
        for y in range(hom.source.num_blocks):
            if hom.mult[y][x]:
                lo, hi = offsets[x][y], offsets[x][y + 1]
                d[lo:hi, lo:hi] = np.kron(alphas.blocks[y][x], xi.densities[y])
        densities.append(d)
    return cpu, densities


def _conjugated_instances(n):
    cfg = GeneratorConfig(seed=19, max_block_dim=4)
    for t in range(n):
        rng = rng_for(cfg, t)
        hom = gen_star_hom(rng, gen_algebra(rng, cfg), cfg)
        xi = gen_state(hom.source, cfg, rng, faithful=True)
        yield hom, xi, gen_alpha_family(rng, hom.mult)


def test_build_folds_conjugators():
    for hom, xi, alphas in _conjugated_instances(12):
        assert not hom.is_standard()
        m = build_hypothesis_from_alphas(hom, xi, alphas)
        # reference: build in the standard frame, then conjugate by U^H
        std_cpu, std_densities = _standard_frame_reference(hom, xi, alphas)
        u = AlgebraElement(hom.target, hom.conjugators)
        ref = compose_cpu(std_cpu, ad_cpu(u.adjoint()))
        # the builder folds U into each component instead of composing, so
        # the two agree up to rounding
        for row, ref_row in zip(m.cpu.components, ref.components):
            for c, c_ref in zip(row, ref_row):
                assert np.max(np.abs(c - c_ref)) <= 1e-14
        for d, d_std, b in zip(m.target.state.densities, std_densities, u.blocks):
            assert np.array_equal(d, b @ d_std @ b.conj().T)
        assert m.hom is hom
        assert validate_morphism(m).ok
        assert is_optimal(m)[0]


def test_build_on_identity_conjugators_matches_standard_frame(monkeypatch):
    import ncstat.hypotheses as hyp

    def no_compose(*args, **kwargs):
        raise AssertionError("a standard hom needs no conjugation")

    for hom, xi, alphas in _conjugated_instances(6):
        hom = strip_conjugators(hom)
        with monkeypatch.context() as mp:
            mp.setattr(hyp, "compose_cpu", no_compose)
            m = build_hypothesis_from_alphas(hom, xi, alphas)
        std_cpu, std_densities = _standard_frame_reference(hom, xi, alphas)
        for row, ref_row in zip(m.cpu.components, std_cpu.components):
            for c, c_ref in zip(row, ref_row):
                assert np.array_equal(c, c_ref)
        for d, d_std in zip(m.target.state.densities, std_densities):
            assert np.array_equal(d, d_std)
        assert validate_morphism(m).ok


def _einsum_segment_choi(alpha: np.ndarray, c: int, n: int) -> np.ndarray:
    """The segment Choi matrix from the segment map on the (cn)^4 unit stack."""
    return choi_from_function(
        lambda e: np.einsum(
            "kl,...ljkJ->...jJ", alpha, e.reshape(e.shape[:-2] + (c, n, c, n))
        ),
        c * n,
        n,
    )


def test_build_evaluates_segment_units_only(monkeypatch):
    # each nonzero component's segment Choi matrix is alpha^T kron the identity
    # map's Choi matrix of side n: one evaluation on the (n, n, n, n) unit stack
    # and the broadcast check's one on a single (n, n) unit; a zero multiplicity
    # makes no call.  The components match the segment map's Choi matrix built
    # on the (cn)^4 unit stack byte for byte.  Checked on a standard and on a
    # Haar-conjugated hom.
    import ncstat.hypotheses as hyp
    import ncstat.maps as maps

    k = 2
    homs = [
        StarHom(
            AlgebraSpec((k, k)), AlgebraSpec((4 * k,)), ((2,), (2,)), (np.eye(4 * k),)
        ),
        StarHom(
            AlgebraSpec((k, k)),
            AlgebraSpec((4 * k, 2 * k)),
            ((2, 0), (2, 2)),
            (haar_unitary(np.random.default_rng(5), 4 * k), np.eye(2 * k)),
        ),
    ]
    for hom in homs:
        calls = []

        def spy(fn, m, n):
            def counted(e):
                calls[-1][2].append(e.shape)
                return fn(e)

            calls.append([m, n, []])
            return choi_from_function(counted, m, n)

        monkeypatch.setattr(maps, "choi_from_function", spy)
        monkeypatch.setattr(hyp, "choi_from_function", spy)
        xi = gen_state(hom.source, CFG, np.random.default_rng(6), faithful=True)
        alphas = gen_alpha_family(np.random.default_rng(7), hom.mult)
        m = build_hypothesis_from_alphas(hom, xi, alphas)
        expected = [
            [n, n, [(n,) * 4, (n,) * 2]]
            for c_row, n in zip(hom.mult, hom.source.block_dims)
            for c in c_row
            if c
        ]
        assert sorted(calls) == sorted(expected)
        for y, (c_row, n) in enumerate(zip(hom.mult, hom.source.block_dims)):
            for x, c in enumerate(c_row):
                if c:
                    seg = hom.segments[x][y]
                    ref = _fold_conjugation(
                        _einsum_segment_choi(alphas.blocks[y][x], c, n),
                        hom.conjugators[x][:, seg].conj(),
                        True,
                    )
                    assert m.cpu.components[y][x].tobytes() == ref.tobytes()
        assert validate_morphism(m).ok
        assert is_optimal(m)[0]


def test_construct_memory_grows_with_the_result_only():
    # construct on (1) -> (s) with multiplicity s: the result is one s x s Choi
    # matrix, so the peak grows as s^2, not as the s^4 segment unit stack
    import tracemalloc

    peaks = {}
    for s in (32, 64):
        rng = np.random.default_rng(s)
        hom = StarHom(AlgebraSpec((1,)), AlgebraSpec((s,)), ((s,),), (haar_unitary(rng, s),))
        g = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
        d = g @ g.conj().T
        omega = State(hom.target, (d / np.trace(d).real,))
        tracemalloc.start()
        try:
            m = construct_optimal_hypothesis(hom, omega)
            peaks[s] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(m, NCMorphism)
    assert peaks[64] < 4 * 2**20
    assert peaks[64] / peaks[32] <= 6


def _ladder_morphism(side):
    """The hypothesis along the ladder's hom (k) + (k) -> (4k), k = side/4,
    multiplicity 2, Haar conjugator; Q's Choi components have side 4k^2."""
    rng = np.random.default_rng(side)
    k = side // 4
    src = AlgebraSpec((k, k))
    hom = StarHom(src, AlgebraSpec((side,)), ((2,), (2,)), (haar_unitary(rng, side),))
    cfg = GeneratorConfig(seed=side, max_block_dim=k)
    xi = gen_state(src, cfg, rng, faithful=True)
    return build_hypothesis_from_alphas(hom, xi, gen_alpha_family(rng, hom.mult))


def test_validate_memory_grows_as_the_choi_components():
    # validate on the ladder's morphism: the peak grows as side^4, 16x per
    # doubling, and no faster
    import tracemalloc

    peaks = {}
    for side in (32, 64):
        m = _ladder_morphism(side)
        tracemalloc.start()
        try:
            report = validate_morphism(m)
            peaks[side] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok, report.describe()
    assert peaks[64] / peaks[32] <= 20


@pytest.mark.parametrize(
    "call, guard", [(rectify_morphism, 20), (re_functor, 6)], ids=["rectify", "re_functor"]
)
def test_rectify_and_re_functor_memory_hold_their_exponents(call, guard):
    # on the same morphisms: rectify folds Choi components of side side^2/4
    # (peak ~ side^4), re_functor reads densities of side side (~ side^2)
    import tracemalloc

    peaks = {}
    for side in (32, 64):
        m = _ladder_morphism(side)
        tracemalloc.start()
        try:
            call(m)
            peaks[side] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[64] / peaks[32] <= guard


def test_validate_factors_no_ladder_choi_component(factorizations):
    # Q's rank-2 Choi components (side 1024) are certified from a partial
    # Cholesky; np.linalg.cholesky sees only the densities of the source
    # (16) + (16) and target (64) states, and eigvalsh nothing
    m = _ladder_morphism(64)
    factorizations.clear()
    assert validate_morphism(m).ok
    assert factorizations == [("cholesky", 16), ("cholesky", 16), ("cholesky", 64)]


@pytest.mark.parametrize("atol", [math.inf, math.nan, -0.5])
def test_is_optimal_rejects_unusable_tolerance(atol):
    # an infinite atol used to call this non-optimal morphism optimal
    cfg = GeneratorConfig(seed=42)
    m = gen_morphism(cfg, rng_for(cfg, 0))
    assert not is_optimal(m)[0]
    with pytest.raises(ValueError, match="atol must be finite and >= 0"):
        is_optimal(m, atol)


@pytest.mark.parametrize("atol", [math.inf, math.nan, -0.5])
def test_construct_optimal_hypothesis_rejects_unusable_tolerance(atol):
    # a negative atol used to report NoDisintegration for a disintegrable state
    cfg = GeneratorConfig(seed=42)
    m = gen_optimal_morphism(cfg, rng_for(cfg, 1))
    hom, omega = m.hom, m.target.state
    assert isinstance(construct_optimal_hypothesis(hom, omega), NCMorphism)
    with pytest.raises(ValueError, match="atol must be finite and >= 0"):
        construct_optimal_hypothesis(hom, omega, atol)


def test_build_folds_every_component_through_its_conjugator(monkeypatch):
    # one path for every hom: a standard one has its identity conjugators
    # folded in like any other, one fold per nonzero component
    import ncstat.hypotheses as hyp

    hom = StarHom(AlgebraSpec((2, 2)), AlgebraSpec((8,)), ((2,), (2,)), (np.eye(8),))
    calls = []

    def spy(choi, lft, on_input):
        calls.append(lft.shape)
        return _fold_conjugation(choi, lft, on_input)

    monkeypatch.setattr(hyp, "_fold_conjugation", spy)
    xi = gen_state(hom.source, CFG, np.random.default_rng(8), faithful=True)
    alphas = gen_alpha_family(np.random.default_rng(9), hom.mult)
    m = build_hypothesis_from_alphas(hom, xi, alphas)
    assert calls == [(8, 4), (8, 4)]
    assert validate_morphism(m).ok
    assert is_optimal(m)[0]


def _rectification_instances():
    """Morphisms with Haar conjugators, each with an outer morphism after it.

    First the homs (k)+(k) -> (4k) with multiplicity 2 for k = 1..4, then the
    homs of _conjugated_instances; every outer hom is drawn on the inner
    morphism's target algebra with a Haar conjugator.
    """
    cfg = GeneratorConfig(seed=23, max_block_dim=4)
    homs = [
        StarHom(
            AlgebraSpec((k, k)),
            AlgebraSpec((4 * k,)),
            ((2,), (2,)),
            (haar_unitary(np.random.default_rng(k), 4 * k),),
        )
        for k in range(1, 5)
    ]
    homs += [hom for hom, _, _ in _conjugated_instances(8)]
    for t, hom in enumerate(homs):
        rng = rng_for(cfg, t)
        xi = gen_state(hom.source, cfg, rng, faithful=True)
        g = build_hypothesis_from_alphas(hom, xi, gen_alpha_family(rng, hom.mult))
        wide = GeneratorConfig(seed=23, max_block_dim=2 * max(hom.target.block_dims))
        outer = gen_star_hom(rng, hom.target, wide)
        alphas = gen_alpha_family(rng, outer.mult)
        yield g, build_hypothesis_from_alphas(outer, g.target.state, alphas)


def _max_entry_gap(q: CPUMap, r: CPUMap) -> float:
    return max(
        float(np.max(np.abs(c - c_ref)))
        for row, ref_row in zip(q.components, r.components)
        for c, c_ref in zip(row, ref_row)
    )


def test_rectify_morphism_matches_composition_with_ad_cpu():
    for m, _ in _rectification_instances():
        assert not m.hom.is_standard()
        r = rectify_morphism(m)
        ref = compose_cpu(m.cpu, ad_cpu(r.u))
        assert _max_entry_gap(r.morphism.cpu, ref) <= 1e-14
        for u in r.morphism.hom.conjugators:
            assert np.array_equal(u, np.eye(len(u)))
        assert validate_morphism(r.morphism).ok


def test_rectify_pair_middle_map_matches_composition_with_ad_cpu(monkeypatch):
    # the middle CPU map is the outer one pushed through the inner unitary v,
    # Ad_{v^H} after Q_f; it is the argument of the second rectify_morphism
    import ncstat.hypotheses as hyp

    rectify = hyp.rectify_morphism
    seen = []

    def spy(m):
        seen.append(m)
        return rectify(m)

    monkeypatch.setattr(hyp, "rectify_morphism", spy)
    for g, f in _rectification_instances():
        seen.clear()
        r = rectify_pair(g, f)
        assert len(seen) == 2 and seen[0] is g
        ref = compose_cpu(ad_cpu(r.v.adjoint()), f.cpu)
        assert _max_entry_gap(seen[1].cpu, ref) <= 1e-14
        assert validate_morphism(r.morphisms[1]).ok


def test_rectifications_fold_without_ad_cpu_or_compose_cpu(monkeypatch):
    import ncstat.hypotheses as hyp
    import ncstat.maps as maps

    def no_grid(*args, **kwargs):
        raise AssertionError("rectification folds unitaries into the components")

    assert not hasattr(hyp, "ad_cpu")
    instances = list(_rectification_instances())
    monkeypatch.setattr(maps, "ad_cpu", no_grid)
    monkeypatch.setattr(maps, "compose_cpu", no_grid)
    monkeypatch.setattr(hyp, "compose_cpu", no_grid)
    for g, f in instances:
        rectify_morphism(g)
        rectify_pair(g, f)


def test_build_rejects_mismatched_alphas():
    src = AlgebraSpec((2,))
    tgt = AlgebraSpec((4,))
    hom = StarHom(src, tgt, ((2,),), (np.eye(4),))
    xi = State(src, (np.eye(2) / 2,))
    with pytest.raises(ShapeError):
        build_hypothesis_from_alphas(hom, xi, AlphaFamily(((np.eye(1),),)))


def _nan_state(alg: AlgebraSpec) -> State:
    return State(alg, (np.diag([np.nan, 0.5]),))


def test_disintegration_of_a_nan_state_is_obstructed():
    hom = StarHom(AlgebraSpec((1, 1)), AlgebraSpec((2,)), ((1,), (1,)), (np.eye(2),))
    result = construct_optimal_hypothesis(hom, _nan_state(hom.target))
    assert isinstance(result, NoDisintegration)
    assert math.isnan(result.residual)


def test_extract_alphas_rejects_a_nan_state():
    alg = AlgebraSpec((2,))
    obj = NCObject(_nan_state(alg))
    with pytest.raises(FactorizationError):
        extract_alphas(NCMorphism(obj, obj, identity_hom(alg), identity_cpu(alg)))


def test_a_nan_middle_state_is_not_composable():
    alg = AlgebraSpec((2,))
    good, bad = NCObject(State(alg, (np.eye(2) / 2,))), NCObject(_nan_state(alg))
    g = NCMorphism(good, good, identity_hom(alg), identity_cpu(alg))
    f = NCMorphism(bad, good, identity_hom(alg), identity_cpu(alg))
    for fn in (compose_morphisms, rectify_pair):
        with pytest.raises(ObjectMismatchError, match="differ by nan"):
            fn(g, f)
