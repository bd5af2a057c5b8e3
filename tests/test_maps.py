import numpy as np
import pytest

from ncstat import maps
from ncstat.algebra import (
    DEFAULT_ATOL,
    AlgebraElement,
    AlgebraSpec,
    State,
    state_distance,
)
from ncstat.errors import (
    AlgebraMismatchError,
    NotAHomomorphismError,
    ShapeError,
)
from ncstat.generators import (
    GeneratorConfig,
    gen_algebra,
    gen_alpha_family,
    gen_star_hom,
    gen_state,
    haar_unitary,
    rng_for,
)
from ncstat.hypotheses import build_hypothesis_from_alphas
from ncstat.maps import (
    CPUMap,
    RawLinearMap,
    StarHom,
    ad_cpu,
    ad_hom,
    apply_choi,
    apply_cpu,
    apply_hom,
    choi_from_function,
    compose_cpu,
    compose_homs,
    cpu_pushforward_state,
    dual_apply_choi,
    hom_from_raw,
    hom_to_raw,
    identity_cpu,
    identity_hom,
    pushforward_state,
    strip_conjugators,
    validate_cpu,
)


def _reference_choi_from_function(fn, m, n):
    """The Choi matrix built one matrix unit at a time, fn on single matrices."""
    c = np.zeros((m * n, m * n), dtype=np.complex128)
    for i in range(m):
        for j in range(m):
            e = np.zeros((m, m), dtype=np.complex128)
            e[i, j] = 1.0
            c[i * n : (i + 1) * n, j * n : (j + 1) * n] = fn(e)
    return c


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
    # two classical points into M_2, one copy each
    src = AlgebraSpec((1, 1))
    tgt = AlgebraSpec((2,))
    return StarHom(src, tgt, ((1,), (1,)), (np.eye(2),))


def test_hom_rejects_broken_unitality():
    src = AlgebraSpec((1, 1))
    tgt = AlgebraSpec((2,))
    with pytest.raises(ShapeError):
        StarHom(src, tgt, ((1,), (0,)), (np.eye(2),))
    with pytest.raises(ShapeError):
        StarHom(src, tgt, ((1,), (-1,)), (np.eye(2),))


def test_segments_partition_each_target_block():
    # the fixed hom has zero multiplicities, so some segments are empty
    homs = [
        StarHom(
            AlgebraSpec((2, 1, 3)),
            AlgebraSpec((5, 9, 8)),
            ((2, 0, 1), (1, 3, 0), (0, 2, 2)),
            (np.eye(5), np.eye(9), np.eye(8)),
        )
    ]
    cfg = GeneratorConfig(seed=7, trials=100, max_blocks=4, max_block_dim=6)
    for t in range(cfg.trials):
        rng = rng_for(cfg, t)
        homs.append(gen_star_hom(rng, gen_algebra(rng, cfg), cfg))
    for f in homs:
        assert len(f.segments) == f.target.num_blocks
        for x, m in enumerate(f.target.block_dims):
            segs = f.segments[x]
            assert len(segs) == f.source.num_blocks
            lo = 0
            for y, n in enumerate(f.source.block_dims):
                hi = lo + f.mult[y][x] * n
                assert segs[y] == slice(lo, hi)
                lo = hi
            assert lo == m


def test_hom_rejects_non_unitary_conjugator():
    src = AlgebraSpec((1, 1))
    tgt = AlgebraSpec((2,))
    with pytest.raises(ShapeError):
        StarHom(src, tgt, ((1,), (1,)), (np.array([[1.0, 0.0], [0.0, 2.0]]),))


def test_diag_embedding_action():
    f = diag_embedding()
    a = AlgebraElement(f.source, (np.array([[2.0]]), np.array([[-3.0]])))
    out = apply_hom(f, a)
    assert np.allclose(out.blocks[0], np.diag([2.0, -3.0]))


def test_multiplicity_embedding_action():
    # one block with two copies: a |-> 1_2 (x) a
    src = AlgebraSpec((2,))
    tgt = AlgebraSpec((4,))
    f = StarHom(src, tgt, ((2,),), (np.eye(4),))
    a = AlgebraElement(src, (np.array([[1.0, 2.0], [3.0, 4.0]]),))
    out = apply_hom(f, a)
    assert np.allclose(out.blocks[0], np.kron(np.eye(2), a.blocks[0]))


def test_apply_hom_matches_kron_reference():
    rng = np.random.default_rng(12)
    src = AlgebraSpec((2, 1, 3))
    mult = ((2, 0, 1), (1, 3, 0), (0, 2, 2))
    tgt = AlgebraSpec((5, 9, 8))
    conj = tuple(haar_unitary(rng, m) for m in tgt.block_dims)
    f = StarHom(src, tgt, mult, conj)
    a = AlgebraElement(
        src,
        tuple(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for n in src.block_dims
        ),
    )
    out = apply_hom(f, a)
    for x, (m, u) in enumerate(zip(tgt.block_dims, conj)):
        std = np.zeros((m, m), dtype=complex)
        off = 0
        for y, b in enumerate(a.blocks):
            size = mult[y][x] * b.shape[0]
            std[off : off + size, off : off + size] = np.kron(np.eye(mult[y][x]), b)
            off += size
        assert np.allclose(out.blocks[x], u @ std @ u.conj().T, atol=1e-13)


def test_hom_is_multiplicative_and_unital():
    rng = np.random.default_rng(5)
    src = AlgebraSpec((2, 1))
    tgt = AlgebraSpec((5, 2))
    q1 = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0]
    q2 = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    f = StarHom(src, tgt, ((2, 1), (1, 0)), (q1, q2))
    a = AlgebraElement(src, (rng.standard_normal((2, 2)), rng.standard_normal((1, 1))))
    b = AlgebraElement(src, (rng.standard_normal((2, 2)), rng.standard_normal((1, 1))))
    assert apply_hom(f, a @ b).distance(apply_hom(f, a) @ apply_hom(f, b)) < 1e-12
    assert apply_hom(f, src.identity()).distance(tgt.identity()) < 1e-12
    assert apply_hom(f, a.adjoint()).distance(apply_hom(f, a).adjoint()) < 1e-12


def test_identity_hom_and_strip():
    alg = AlgebraSpec((2, 3))
    f = identity_hom(alg)
    a = AlgebraElement(alg, (np.ones((2, 2)), np.ones((3, 3))))
    assert apply_hom(f, a).distance(a) == 0.0
    assert strip_conjugators(f).is_standard()


def test_compose_homs_matches_pointwise():
    rng = np.random.default_rng(8)
    bottom = AlgebraSpec((1, 2))
    mid = AlgebraSpec((3, 2))
    g_conj = tuple(
        np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        for d in mid.block_dims
    )
    g = StarHom(bottom, mid, ((1, 0), (1, 1)), g_conj)
    top = AlgebraSpec((8,))
    f_conj = (
        np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))[0],
    )
    f = StarHom(mid, top, ((2,), (1,)), f_conj)
    h = compose_homs(f, g)
    assert h.mult == ((2,), (3,))
    for _, _, _, e in bottom.matrix_units():
        assert apply_hom(h, e).distance(apply_hom(f, apply_hom(g, e))) < 1e-12


def test_pushforward_diag_embedding():
    f = diag_embedding()
    omega = State(f.target, (np.array([[0.3, 0.1], [0.1, 0.7]]),))
    xi = pushforward_state(omega, f)
    assert np.allclose(xi.densities[0], [[0.3]])
    assert np.allclose(xi.densities[1], [[0.7]])


def test_pushforward_traces_out_copies():
    src = AlgebraSpec((2,))
    tgt = AlgebraSpec((4,))
    f = StarHom(src, tgt, ((2,),), (np.eye(4),))
    rng = np.random.default_rng(13)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    d = g @ g.conj().T
    d /= np.trace(d).real
    omega = State(tgt, (d,))
    xi = pushforward_state(omega, f)
    want = d[:2, :2] + d[2:, 2:]  # copies are the outer factor
    assert np.allclose(xi.densities[0], want, atol=1e-12)


def _vec(a: AlgebraElement) -> np.ndarray:
    # column-major within each block, blocks concatenated in order
    return np.concatenate([b.flatten(order="F") for b in a.blocks])


def _reference_hom_to_raw(f: StarHom) -> np.ndarray:
    """The raw matrix one matrix unit at a time: column k is the vec of F(E_k)."""
    return np.column_stack(
        [_vec(apply_hom(f, e)) for _, _, _, e in f.source.matrix_units()]
    )


def test_hom_to_raw_matches_the_per_unit_reference():
    cfg = GeneratorConfig(seed=202, trials=100, max_block_dim=6)
    homs = []
    for t in range(cfg.trials):
        rng = rng_for(cfg, t)
        homs.append(gen_star_hom(rng, gen_algebra(rng, cfg), cfg))
    u = haar_unitary(np.random.default_rng(241), 16)  # the ladder's (8) -> (16) hom
    homs.append(StarHom(AlgebraSpec((8,)), AlgebraSpec((16,)), ((2,),), (u,)))
    for f in homs:
        got = hom_to_raw(f).matrix
        want = _reference_hom_to_raw(f)
        assert got.shape == want.shape == (f.target.dim, f.source.dim)
        assert np.max(np.abs(got - want)) <= 1e-15


def test_choi_identity_and_transpose():
    ident = identity_cpu(AlgebraSpec((2,))).components[0][0]
    vals = np.linalg.eigvalsh(ident)
    assert np.allclose(vals, [0.0, 0.0, 0.0, 2.0], atol=1e-12)

    transpose = choi_from_function(lambda e: np.swapaxes(e, -1, -2), 2, 2)
    # transpose Choi is the swap operator: hermitian but not PSD
    assert np.allclose(transpose, transpose.conj().T)
    assert abs(np.linalg.eigvalsh(transpose)[0] + 1.0) < 1e-12


def test_choi_from_function_rejects_maps_that_do_not_broadcast():
    # on the unit stack, e.T reverses all four axes and gives the stack back,
    # so without the single-unit check it would build the identity's Choi
    m = 3
    with pytest.raises(ShapeError, match="must act on the last two axes"):
        choi_from_function(lambda e: e.T, m, m)
    swap = choi_from_function(lambda e: np.swapaxes(e, -1, -2), m, m)
    # swap[(i, k), (j, l)] = delta_il delta_kj
    rows = [b * m + a for a in range(m) for b in range(m)]
    assert np.array_equal(swap, np.eye(m * m)[rows])
    assert abs(np.linalg.eigvalsh(swap)[0] + 1.0) < 1e-12
    with pytest.raises(ShapeError, match="map output must be"):
        choi_from_function(lambda e: e, m, m + 1)


@pytest.mark.parametrize("m, n", [(1, 3), (2, 2), (3, 2), (4, 5)])
def test_choi_from_function_matches_unit_loop(m, n):
    rng = np.random.default_rng(10 * m + n)
    kraus = rng.standard_normal((3, n, m)) + 1j * rng.standard_normal((3, n, m))

    def fn(e):
        return sum(k @ e @ k.conj().T for k in kraus)

    assert np.array_equal(
        choi_from_function(fn, m, n), _reference_choi_from_function(fn, m, n)
    )


def test_build_hypothesis_components_match_unit_loop(monkeypatch):
    # the builder's segment map evaluated on the whole unit stack at once gives
    # the same bits as one evaluation per unit, on Haar-conjugated homs with
    # target sides up to 32 (the last one is the ladder's side-32 shape)
    import ncstat.hypotheses as hyp

    cfg = GeneratorConfig(seed=23, max_block_dim=32)
    homs = []
    for t in range(12):
        rng = rng_for(cfg, t)
        source = gen_algebra(rng, GeneratorConfig(max_block_dim=8))
        homs.append((gen_star_hom(rng, source, cfg), rng))
    rng = np.random.default_rng(24)
    u = haar_unitary(rng, 32)
    homs.append((StarHom(AlgebraSpec((8, 8)), AlgebraSpec((32,)), ((2,), (2,)), (u,)), rng))
    assert max(max(hom.target.block_dims) for hom, _ in homs) == 32
    for hom, rng in homs:
        assert not hom.is_standard()
        xi = gen_state(hom.source, cfg, rng, faithful=True)
        alphas = gen_alpha_family(rng, hom.mult)
        m = build_hypothesis_from_alphas(hom, xi, alphas)
        with monkeypatch.context() as mp:
            mp.setattr(hyp, "choi_from_function", _reference_choi_from_function)
            ref = build_hypothesis_from_alphas(hom, xi, alphas)
        for row, ref_row in zip(m.cpu.components, ref.cpu.components):
            for c, c_ref in zip(row, ref_row):
                assert np.array_equal(c, c_ref)


def test_choi_apply_and_dual_pair():
    rng = np.random.default_rng(21)
    m, n = 3, 2
    choi = rng.standard_normal((m * n, m * n)) + 1j * rng.standard_normal((m * n, m * n))
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    lhs = np.trace(e @ apply_choi(choi, a, m, n))
    rhs = np.trace(dual_apply_choi(choi, e, m, n) @ a)
    assert abs(lhs - rhs) < 1e-12


def test_choi_composition():
    rng = np.random.default_rng(22)
    for m, n, o in [(2, 3, 2), (4, 5, 3)]:
        c1 = rng.standard_normal((m * n, m * n)) + 1j * rng.standard_normal((m * n, m * n))
        c2 = rng.standard_normal((n * o, n * o)) + 1j * rng.standard_normal((n * o, n * o))
        inner = CPUMap(AlgebraSpec((m,)), AlgebraSpec((n,)), ((c1,),))
        outer = CPUMap(AlgebraSpec((n,)), AlgebraSpec((o,)), ((c2,),))
        comp = compose_cpu(outer, inner).components[0][0]
        assert comp.shape == (m * o, m * o)
        # reference: the index contraction written out
        ref = np.einsum(
            "iajb,akbl->ikjl", c1.reshape(m, n, m, n), c2.reshape(n, o, n, o)
        ).reshape(m * o, m * o)
        assert np.allclose(comp, ref, atol=1e-12)
        a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        direct = apply_choi(c2, apply_choi(c1, a, m, n), n, o)
        assert np.allclose(apply_choi(comp, a, m, o), direct, atol=1e-12)


def test_hom_raw_roundtrip_permutation():
    # swapping the two classical points is a *-automorphism
    alg = AlgebraSpec((1, 1))
    swap = RawLinearMap(alg, alg, np.array([[0.0, 1.0], [1.0, 0.0]]))
    f = hom_from_raw(swap)
    assert f.mult == ((0, 1), (1, 0))
    a = AlgebraElement(alg, (np.array([[2.0]]), np.array([[5.0]])))
    out = apply_hom(f, a)
    assert np.allclose(out.blocks[0], [[5.0]])
    assert np.allclose(out.blocks[1], [[2.0]])


def test_hom_raw_roundtrip_random():
    rng = np.random.default_rng(31)
    src = AlgebraSpec((2, 1))
    tgt = AlgebraSpec((4, 1))
    u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    f = StarHom(src, tgt, ((1, 0), (2, 1)), (u, np.eye(1)))
    back = hom_from_raw(hom_to_raw(f))
    assert back.mult == f.mult
    for _, _, _, e in src.matrix_units():
        assert apply_hom(back, e).distance(apply_hom(f, e)) < 1e-10


def _stacks_and_units(raw: RawLinearMap):
    """The unit-image stacks and unit indices hom_from_raw checks, cut from the
    raw rows at a running offset."""
    offsets = np.cumsum((0,) + tuple(n * n for n in raw.source.block_dims))
    units = [
        off + np.arange(n * n).reshape(n, n)
        for off, n in zip(offsets, raw.source.block_dims)
    ]
    stacks, row = [], 0
    for m in raw.target.block_dims:
        cols = raw.matrix[row : row + m * m].T.reshape(-1, m, m)
        stacks.append(np.ascontiguousarray(cols.transpose(0, 2, 1)))
        row += m * m
    return stacks, units


def _reference_raw_conjugators(raw: RawLinearMap, mult) -> list[np.ndarray]:
    """The conjugators hom_from_raw assembles, written column by column into a
    zero-filled matrix per target block at a running position."""
    n_dims = raw.source.block_dims
    stacks, units = _stacks_and_units(raw)
    out = []
    for x, (m, st) in enumerate(zip(raw.target.block_dims, stacks)):
        u = np.zeros((m, m), dtype=np.complex128)
        pos = 0
        for y, n in enumerate(n_dims):
            if mult[y][x] == 0:
                continue
            proj = st[units[y][0, 0]]
            vals, vecs = np.linalg.eigh((proj + proj.conj().T) / 2)
            range_vecs = vecs[:, vals > 0.5]
            for k in range(mult[y][x]):
                v = range_vecs[:, k]
                for j in range(n):
                    u[:, pos] = st[units[y][0, j]] @ v
                    pos += 1
        out.append(u)
    return out


def test_hom_from_raw_conjugators_match_column_by_column_reference():
    cfg = GeneratorConfig(seed=202, trials=100, max_block_dim=6)
    for t in range(cfg.trials):
        rng = rng_for(cfg, t)
        raw = hom_to_raw(gen_star_hom(rng, gen_algebra(rng, cfg), cfg))
        got = hom_from_raw(raw)
        for a, b in zip(got.conjugators, _reference_raw_conjugators(raw, got.mult)):
            assert np.array_equal(a, b)


def _reference_mult_defect(raw: RawLinearMap) -> float:
    # worst ||F(E_ij) F(E_kl) - delta_jk F(E_il)|| over all pairs of matrix units
    # column k of the raw matrix is the vec of the image of the k-th matrix unit
    tgt = raw.target
    splits = np.cumsum([m * m for m in tgt.block_dims[:-1]])

    def unvec(col):
        parts = np.split(col, splits)
        return AlgebraElement(
            tgt, tuple(p.reshape(m, m, order="F") for p, m in zip(parts, tgt.block_dims))
        )

    images = {
        (y, i, j): unvec(col)
        for (y, i, j, _), col in zip(raw.source.matrix_units(), raw.matrix.T)
    }
    worst = 0.0
    for (y, i, j), left in images.items():
        for (yp, k, l), right in images.items():
            prod = left @ right
            if y == yp and j == k:
                worst = max(worst, prod.distance(images[(y, i, l)]))
            else:
                worst = max(worst, prod.norm())
    return worst


def _perturbed(raw: RawLinearMap, eps: float) -> RawLinearMap:
    # (1 + eps) F - eps tau(.) 1: unital and adjoint-preserving, not multiplicative
    tau = _vec(raw.source.identity()) / raw.source.side
    one = _vec(raw.target.identity())
    return RawLinearMap(
        raw.source, raw.target, (1 + eps) * raw.matrix - eps * np.outer(one, tau)
    )


def test_perturbed_raw_map_is_not_multiplicative():
    # the defect must match the pairwise reference loop
    rng = np.random.default_rng(32)
    src = AlgebraSpec((2, 1))
    tgt = AlgebraSpec((4, 1))
    u = haar_unitary(rng, 4)
    f = StarHom(src, tgt, ((1, 0), (2, 1)), (u, np.eye(1)))
    raw = _perturbed(hom_to_raw(f), 1e-3)
    with pytest.raises(NotAHomomorphismError) as exc:
        hom_from_raw(raw)
    assert exc.value.axiom == "multiplicative"
    ref = _reference_mult_defect(raw)
    assert ref > 1e-4
    assert abs(exc.value.residual - ref) < 1e-12


def _random_hom(rng) -> StarHom:
    """1-3 source blocks of side 1-3 into 1-3 target blocks, multiplicities 0-3."""
    dims = tuple(int(n) for n in rng.integers(1, 4, size=rng.integers(1, 4)))
    mult = rng.integers(0, 4, size=(len(dims), rng.integers(1, 4)))
    mult[0, mult.sum(axis=0) == 0] = 1  # no empty target block
    sides = tuple(int(col @ dims) for col in mult.T)
    conj = tuple(haar_unitary(rng, m) for m in sides)
    return StarHom(AlgebraSpec(dims), AlgebraSpec(sides), mult.tolist(), conj)


@pytest.mark.parametrize("target", [3e-10, 3e-9])
def test_hom_from_raw_verdict_near_the_tolerance_matches_the_reference(target):
    rng = np.random.default_rng(193)
    for _ in range(6):
        raw = hom_to_raw(_random_hom(rng))
        # the defect is linear in eps to first order: aim it at target
        eps = 1e-6 * target / _reference_mult_defect(_perturbed(raw, 1e-6))
        raw = _perturbed(raw, eps)
        ref = _reference_mult_defect(raw)
        assert target / 2 < ref < 2 * target
        if ref <= DEFAULT_ATOL:
            hom_from_raw(raw)
            continue
        with pytest.raises(NotAHomomorphismError) as exc:
            hom_from_raw(raw)
        assert exc.value.axiom == "multiplicative"
        assert abs(exc.value.residual - ref) < 1e-12


def test_pairwise_mult_check_runs_only_where_the_bound_fails(monkeypatch):
    def refuse(stacks, units):
        raise AssertionError("pairwise loop ran")

    monkeypatch.setattr(maps, "_pairwise_mult_defect", refuse)
    rng = np.random.default_rng(194)
    u = haar_unitary(rng, 16)
    raw = hom_to_raw(StarHom(AlgebraSpec((8,)), AlgebraSpec((16,)), ((2,),), (u,)))
    assert np.allclose(hom_to_raw(hom_from_raw(raw)).matrix, raw.matrix, atol=1e-12)
    alg = AlgebraSpec((2,))
    transpose = np.eye(4)[[0, 2, 1, 3]]  # vec(E_ij) -> vec(E_ji)
    with pytest.raises(AssertionError, match="pairwise loop ran"):
        hom_from_raw(RawLinearMap(alg, alg, transpose))


def _units_residual(f: StarHom, raw: RawLinearMap) -> float:
    # the all-units reconstruction residual hom_from_raw falls back to
    return float(np.max(np.linalg.norm(hom_to_raw(f).matrix - raw.matrix, axis=0)))


def _with_unitarity_defect(rng, f: StarHom) -> StarHom:
    # U (1 + t H), H Hermitian of unit norm: U^H U is about 2 t H off the identity
    conj = []
    for u in f.conjugators:
        m = len(u)
        h = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        h = (h + h.conj().T) / np.linalg.norm(h + h.conj().T)
        conj.append(u @ (np.eye(m) + rng.uniform(0.05, 0.45) * maps.UNITARY_ATOL * h))
    return StarHom(f.source, f.target, f.mult, tuple(conj))


def _with_scaled_generators(rng, f: StarHom) -> RawLinearMap:
    # P_ij = (1 + eta_i)(1 + eta_j) F(E_ij), eta_0 = 0, and u = 0: the raw
    # generators P_i0 are off F(E_i0), and every ||P_ij - G_i G_j^H|| and every
    # residual is about the largest eta
    eta = [np.r_[0.0, 10 ** rng.uniform(-12, -9, n - 1)] for n in f.source.block_dims]
    scale = np.concatenate([np.outer(1 + h, 1 + h).reshape(-1) for h in eta])
    return RawLinearMap(f.source, f.target, hom_to_raw(f).matrix * scale)


def _with_unitarity_defect_off_index_0(rng, f: StarHom) -> StarHom:
    # U (1 + t Q), Q the standard image of E_11 of the first source block of side
    # >= 2: U^H U - 1 misses every copy of index 0, so this hom's own raw map has
    # P_ij = G_i G_j^H, and its pair defects come from the unitarity defect alone
    e11 = next((e for _, i, j, e in f.source.matrix_units() if i == j == 1), None)
    if e11 is None:
        return f
    q = apply_hom(maps.strip_conjugators(f), e11).blocks
    t = rng.uniform(0.05, 0.45) * maps.UNITARY_ATOL / (2 * np.sqrt(f.target.side))
    conj = tuple(u @ (np.eye(len(u)) + t * p) for u, p in zip(f.conjugators, q))
    return StarHom(f.source, f.target, f.mult, conj)


# e-only and u-only: raws on which the generators' distance from F(E_i0) or the
# unitarity term of _certificate alone carries the defect the two tests compare with
CERTIFICATE_KINDS = (
    "valid", "perturbed", "edited", "noisy", "non-unitary", "e-only", "u-only"
)


def _certified_draws(monkeypatch, kind: str) -> list:
    """40 seeded raws of one kind, each with the (hom, bound) pair of every
    _certificate call hom_from_raw makes on it."""
    rng = np.random.default_rng([250, CERTIFICATE_KINDS.index(kind)])
    certificate, reached = maps._certificate, []

    def recording_certificate(f, stacks, units):
        reached.append((f, certificate(f, stacks, units)))
        return reached[-1][1]

    monkeypatch.setattr(maps, "_certificate", recording_certificate)
    draws, wide = [], 0  # wide: two or more source blocks and a multiplicity >= 2
    for _ in range(40):
        f = _random_hom(rng)
        wide += f.source.num_blocks >= 2 and np.max(f.mult) >= 2
        if kind in ("e-only", "u-only"):
            g = f if kind == "e-only" else _with_unitarity_defect_off_index_0(rng, f)
            raw = _with_scaled_generators(rng, f) if kind == "e-only" else hom_to_raw(g)
            draws.append((raw, [(g, certificate(g, *_stacks_and_units(raw)))]))
            continue
        raw = hom_to_raw(f)
        if kind == "perturbed":  # multiplicative defect up to about 1e-8
            raw = _perturbed(raw, 10 ** rng.uniform(-13, -9))
        elif kind == "edited" and raw.source.block_dims[0] > 1:
            # E_11 of block 0 is column n + 1; no generator E_i0 sees it
            matrix = np.array(raw.matrix)
            n = raw.source.block_dims[0]
            size = 10 ** rng.uniform(-13, -9)
            matrix[:, n + 1] += size * rng.standard_normal(len(matrix))
            raw = RawLinearMap(raw.source, raw.target, matrix)
        elif kind == "noisy":  # every axiom off by up to about 1e-9
            noise = rng.standard_normal(raw.matrix.shape) * 10 ** rng.uniform(-13, -10)
            raw = RawLinearMap(raw.source, raw.target, raw.matrix + noise)
        reached.clear()
        try:
            result = hom_from_raw(raw)
        except NotAHomomorphismError:
            pass
        if kind == "non-unitary":  # the certified hom with its conjugators pushed off
            g = _with_unitarity_defect(rng, result)
            reached[:] = [(g, certificate(g, *_stacks_and_units(raw)))]
        if kind == "valid":  # certified: no pairwise loop, no hom_to_raw
            assert len(reached) == 1 and 2 * reached[0][1] <= DEFAULT_ATOL
        draws.append((raw, list(reached)))
    assert sum(len(r) for _, r in draws) >= 25 and wide >= 3
    return draws


@pytest.mark.parametrize("kind", CERTIFICATE_KINDS)
def test_mult_defect_bound_is_at_least_the_pairwise_reference(monkeypatch, kind):
    for raw, reached in _certified_draws(monkeypatch, kind):
        for _, bound in reached:
            assert bound >= _reference_mult_defect(raw)


@pytest.mark.parametrize("kind", CERTIFICATE_KINDS)
def test_reconstruction_bound_is_at_least_the_all_units_residual(monkeypatch, kind):
    for raw, reached in _certified_draws(monkeypatch, kind):
        for g, bound in reached:
            assert bound >= _units_residual(g, raw)


def _reference_certificate(f: StarHom, stacks, units) -> float:
    """_certificate written out per matrix unit, u recomputed from the conjugators."""
    sq, k = [], 0.0
    for y, idx in enumerate(units):
        images = []
        for i in range(len(idx)):
            blocks = [np.zeros((n, n)) for n in f.source.block_dims]
            blocks[y][i, 0] = 1.0
            images.append(apply_hom(f, AlgebraElement(f.source, tuple(blocks))).blocks)
        q = 0.0
        for st, g in zip(stacks, map(np.array, zip(*images))):
            d = g[:, None] @ g.conj().transpose(0, 2, 1) - st[idx.T]
            q = q + (np.abs(d) ** 2).sum(axis=(2, 3))
            k = np.maximum(k, (np.abs(g) ** 2).sum(axis=(1, 2)).max())
        sq.append(q.max())
    r_gens, k = np.sqrt(np.max(sq)), np.sqrt(k)
    u = np.max([np.linalg.norm(c.conj().T @ c - np.eye(len(c))) for c in f.conjugators])
    s, m = len(stacks), max(st.shape[1] for st in stacks)
    unitarity = np.sqrt(s) * (1 + u) * u
    r = r_gens + unitarity
    e_r = np.sqrt(s) * (m + 2) * np.finfo(float).eps * k**2
    return float(unitarity + (3 + 2 * u) * r + r**2 + 2 * e_r * (1 + k) ** 2)


def _checking_certificate(monkeypatch) -> list:
    """Patch _certificate to assert it equals the reference bit for bit."""
    certificate, seen = maps._certificate, []

    def checked(f, stacks, units):
        bound = certificate(f, stacks, units)
        assert float.hex(bound) == float.hex(_reference_certificate(f, stacks, units))
        seen.append(bound)
        return bound

    monkeypatch.setattr(maps, "_certificate", checked)
    return seen


@pytest.mark.parametrize("kind", CERTIFICATE_KINDS)
def test_certificate_reads_u_off_the_recorded_defects(monkeypatch, kind):
    seen = _checking_certificate(monkeypatch)
    _certified_draws(monkeypatch, kind)
    assert seen


def test_certificate_on_generated_raws_is_the_recomputed_one(monkeypatch):
    seen = _checking_certificate(monkeypatch)
    cfg = GeneratorConfig(seed=202, trials=100, max_block_dim=6)
    for t in range(cfg.trials):
        rng = rng_for(cfg, t)
        hom_from_raw(hom_to_raw(gen_star_hom(rng, gen_algebra(rng, cfg), cfg)))
    assert len(seen) == cfg.trials


def test_hom_to_raw_peaks_at_about_twice_the_raw_matrix():
    import tracemalloc

    rng = np.random.default_rng(31)
    f = StarHom(AlgebraSpec((16,)), AlgebraSpec((32,)), ((2,),), (haar_unitary(rng, 32),))
    tracemalloc.start()
    try:
        raw = hom_to_raw(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert raw.matrix.nbytes >= 4 * 2**20
    assert peak <= 2.2 * raw.matrix.nbytes


def test_hom_from_raw_rebuilds_only_the_generators(monkeypatch):
    # the ladder's (8) -> (16) hom: 8 generators E_i0 instead of 64 unit images
    rng = np.random.default_rng(241)
    f = StarHom(AlgebraSpec((8,)), AlgebraSpec((16,)), ((2,),), (haar_unitary(rng, 16),))
    raw = hom_to_raw(f)
    calls = []

    def counting_apply_hom(g, a):
        calls.append(a)
        return apply_hom(g, a)

    def refuse(g):
        raise AssertionError("all unit images were rebuilt")

    monkeypatch.setattr(maps, "apply_hom", counting_apply_hom)
    monkeypatch.setattr(maps, "hom_to_raw", refuse)
    back = hom_from_raw(raw)
    assert len(calls) == 8
    assert back.mult == f.mult


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_full_reconstruction_check_runs_where_the_bound_is_not_finite(monkeypatch, value):
    rng = np.random.default_rng(242)
    raws = [hom_to_raw(_random_hom(rng)) for _ in range(10)]
    certified = [hom_from_raw(raw) for raw in raws]
    rebuilt = []

    def counting_hom_to_raw(g):
        rebuilt.append(g)
        return hom_to_raw(g)

    monkeypatch.setattr(maps, "_certificate", lambda *args: value)
    monkeypatch.setattr(maps, "hom_to_raw", counting_hom_to_raw)
    for raw, want in zip(raws, certified):
        got = hom_from_raw(raw)
        assert got.mult == want.mult
        for a, b in zip(got.conjugators, want.conjugators):
            assert np.array_equal(a, b)
    assert len(rebuilt) == len(raws)


@pytest.mark.parametrize("unit, axiom", [(0, "unital"), (2, "adjoint")])
def test_nan_in_a_unit_image_fails_an_axiom(unit, axiom):
    # column 0 is the image of E_00, column 2 that of E_01
    src, tgt = AlgebraSpec((2,)), AlgebraSpec((4,))
    matrix = np.array(hom_to_raw(StarHom(src, tgt, ((2,),), (np.eye(4),))).matrix)
    matrix[0, unit] = np.nan
    with pytest.raises(NotAHomomorphismError) as exc:
        hom_from_raw(RawLinearMap(src, tgt, matrix))
    assert exc.value.axiom == axiom


def test_projection_rank_miss_is_held_until_multiplicativity_fails():
    # P0 = P1 = 1/2 is unital, adjoint-preserving and of integral multiplicity
    # one, but P0 has no eigenvalue above 1/2, so the rank guard misses too
    src, tgt = AlgebraSpec((1, 1)), AlgebraSpec((2,))
    raw = RawLinearMap(src, tgt, np.column_stack([0.5 * np.eye(2).ravel()] * 2))
    with pytest.raises(NotAHomomorphismError) as exc:
        hom_from_raw(raw)
    assert exc.value.axiom == "multiplicative"
    assert exc.value.residual == _reference_mult_defect(raw)
    assert abs(exc.value.residual - np.sqrt(2) / 4) < 1e-15


def test_non_integral_multiplicity_fails_the_integrality_axiom():
    # P0 = diag(1, d, ..., d) is d-close to a projection and P1 = 1 - P0, so
    # unitality, adjoint and multiplicativity hold at DEFAULT_ATOL while the
    # trace of P0 misses 1 by 15 d = 3e-9
    src, tgt, d = AlgebraSpec((1, 1)), AlgebraSpec((16,)), 2e-10
    p0 = np.diag([1.0] + [d] * 15)
    columns = np.column_stack([p0.ravel(), (np.eye(16) - p0).ravel()])
    with pytest.raises(NotAHomomorphismError, match="integer 1 by 3.000e-09") as exc:
        hom_from_raw(RawLinearMap(src, tgt, columns))
    assert exc.value.axiom == "integrality"
    assert abs(exc.value.residual - 15 * d) < 1e-15


def test_nan_conjugator_is_not_unitary():
    u = np.eye(2, dtype=complex)
    u[0, 1] = np.nan
    alg = AlgebraSpec((2,))
    with pytest.raises(ShapeError, match="not unitary"):
        StarHom(alg, alg, ((1,),), (u,))


def test_half_identity_fails_unitality_by_the_frobenius_distance():
    alg = AlgebraSpec((2,))
    with pytest.raises(NotAHomomorphismError) as exc:
        hom_from_raw(RawLinearMap(alg, alg, 0.5 * np.eye(4)))
    assert exc.value.axiom == "unital"
    assert abs(exc.value.residual - 0.5 * np.sqrt(2)) < 1e-15


def test_transpose_is_not_a_homomorphism():
    alg = AlgebraSpec((2,))
    rows = []
    for j in range(2):
        for i in range(2):
            e = np.zeros((2, 2))
            e[i, j] = 1.0
            rows.append(e.T.flatten(order="F"))
    raw = RawLinearMap(alg, alg, np.array(rows).T)
    with pytest.raises(NotAHomomorphismError) as exc:
        hom_from_raw(raw)
    assert exc.value.axiom == "multiplicative"


def test_scaling_is_not_unital():
    alg = AlgebraSpec((2,))
    raw = RawLinearMap(alg, alg, 0.5 * np.eye(4))
    with pytest.raises(NotAHomomorphismError) as exc:
        hom_from_raw(raw)
    assert exc.value.axiom == "unital"


def test_cpu_shape_validation():
    src = AlgebraSpec((2,))
    tgt = AlgebraSpec((2,))
    with pytest.raises(ShapeError):
        CPUMap(src, tgt, ((np.eye(3),),))


def test_identity_cpu_and_validation():
    alg = AlgebraSpec((2, 1))
    q = identity_cpu(alg)
    assert validate_cpu(q).ok
    a = AlgebraElement(alg, (np.ones((2, 2)), np.ones((1, 1))))
    assert apply_cpu(q, a).distance(a) < 1e-14


def test_direct_sum_cpus_shares_one_zero_block_per_side():
    # cross component (y, x) has side m_x n_y: (0, 2) and (2, 0) are 6 x 6,
    # (1, 2) and (2, 1) are 3 x 3
    q, r = identity_cpu(AlgebraSpec((2, 1))), identity_cpu(AlgebraSpec((3,)))
    comps = maps.direct_sum_cpus(q, r).components
    assert comps[0][2] is comps[2][0] and comps[1][2] is comps[2][1]
    for zero, side in ((comps[0][2], 6), (comps[1][2], 3)):
        assert zero.shape == (side, side) and not zero.any()
        assert not zero.flags.writeable
    assert comps[0][0] is q.components[0][0] and comps[2][2] is r.components[0][0]


def test_validate_cpu_flags_transpose():
    alg = AlgebraSpec((2,))
    q = cpu_from_functions(alg, alg, lambda y, x, e: np.swapaxes(e, -1, -2))
    rep = validate_cpu(q)
    assert not rep.ok
    cp = [v for v in rep.violations if v.kind == "cp"]
    assert cp and abs(cp[0].residual - 1.0) < 1e-12


@pytest.mark.parametrize(
    "entry, bad",
    [((0, 0), np.nan), ((0, 1), np.nan), ((0, 1), np.inf), ((0, 0), np.inf), ((1, 1), -np.inf)],
)
def test_validate_cpu_reports_non_finite_choi_entry(entry, bad):
    # a non-finite entry fails Hermiticity and never reaches eigvalsh
    alg = AlgebraSpec((2,))
    choi = np.array(identity_cpu(alg).components[0][0])
    choi[entry] = bad
    rep = validate_cpu(CPUMap(alg, alg, ((choi,),)))
    assert not rep.ok
    assert rep.violations[0].kind == "choi-hermiticity"


def test_validate_cpu_flags_non_unital():
    alg = AlgebraSpec((2,))
    q = cpu_from_functions(alg, alg, lambda y, x, e: 0.5 * e)
    rep = validate_cpu(q)
    assert any(v.kind == "unitality" for v in rep.violations)


def test_compose_cpu_matches_pointwise():
    rng = np.random.default_rng(40)
    a = AlgebraSpec((2, 1))
    b = AlgebraSpec((2,))
    c = AlgebraSpec((3,))

    def k1(y, x, e):
        return e[..., :1, :1] * np.eye(2) if x == 0 else e * np.eye(2)

    def k2(y, x, e):
        out = np.zeros(e.shape[:-2] + (3, 3), dtype=complex)
        out[..., :2, :2] = e
        out[..., 2, 2] = np.trace(e, axis1=-2, axis2=-1) / 2
        return out

    q1 = cpu_from_functions(a, b, lambda y, x, e: k1(y, x, e) / 2)
    q2 = cpu_from_functions(b, c, k2)
    comp = compose_cpu(q2, q1)
    el = AlgebraElement(a, (rng.standard_normal((2, 2)), rng.standard_normal((1, 1))))
    assert apply_cpu(comp, el).distance(apply_cpu(q2, apply_cpu(q1, el))) < 1e-12


def test_compose_cpu_sums_choi_compositions():
    # reference: one regrouped Choi product per (z, x, y) triple, regrouped
    # back and summed over y; the regroup-once composition adds the same
    # products in the same order
    rng = np.random.default_rng(44)

    def compose_choi(c1, c2, m, n, o):
        r1 = c1.reshape(m, n, m, n).transpose(0, 2, 1, 3).reshape(m * m, n * n)
        r2 = c2.reshape(n, o, n, o).transpose(0, 2, 1, 3).reshape(n * n, o * o)
        r = r1 @ r2
        return r.reshape(m, m, o, o).transpose(0, 2, 1, 3).reshape(m * o, m * o)
    a, b, c = AlgebraSpec((2, 3)), AlgebraSpec((3, 1, 2)), AlgebraSpec((2, 2))

    def random_cpu(src, tgt, zero):
        return CPUMap(
            src,
            tgt,
            tuple(
                tuple(
                    np.zeros((m * n, m * n))
                    if (y, x) == zero
                    else rng.standard_normal((m * n, m * n))
                    + 1j * rng.standard_normal((m * n, m * n))
                    for x, m in enumerate(src.block_dims)
                )
                for y, n in enumerate(tgt.block_dims)
            ),
        )

    inner, outer = random_cpu(a, b, (1, 0)), random_cpu(b, c, (0, 2))
    comp = compose_cpu(outer, inner)
    for z, o in enumerate(c.block_dims):
        for x, m in enumerate(a.block_dims):
            ref = np.zeros((m * o, m * o), dtype=complex)
            for y, n in enumerate(b.block_dims):
                c1, c2 = inner.components[y][x], outer.components[z][y]
                if c1.any() and c2.any():
                    ref += compose_choi(c1, c2, m, n, o)
            assert np.array_equal(comp.components[z][x], ref)


def test_cpu_pushforward_duality():
    rng = np.random.default_rng(41)
    alg = AlgebraSpec((2,))
    u = AlgebraElement(
        alg, (np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0],)
    )
    q = ad_cpu(u)
    d = rng.standard_normal((2, 2))
    d = d @ d.T
    s = State(alg, (d / np.trace(d),))
    el = AlgebraElement(alg, (rng.standard_normal((2, 2)),))
    lhs = s.evaluate(apply_cpu(q, el))
    rhs = cpu_pushforward_state(s, q).evaluate(el)
    assert abs(lhs - rhs) < 1e-12


def test_ad_unitary_pair_inverts():
    rng = np.random.default_rng(42)
    alg = AlgebraSpec((3,))
    u = AlgebraElement(
        alg, (np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0],)
    )
    hom, cpu = ad_hom(u), ad_cpu(u)
    a = AlgebraElement(alg, (rng.standard_normal((3, 3)),))
    # cpu is conjugation by u as well, so composing with the hom of u-adjoint inverts
    assert apply_cpu(cpu, a).distance(apply_hom(hom, a)) < 1e-12
    assert apply_cpu(ad_cpu(u.adjoint()), apply_hom(hom, a)).distance(a) < 1e-12


def test_ad_cpu_matches_choi_from_function():
    rng = np.random.default_rng(43)
    alg = AlgebraSpec((3, 2))
    u = AlgebraElement(alg, (haar_unitary(rng, 3), haar_unitary(rng, 2)))
    q = ad_cpu(u)
    for y, n in enumerate(alg.block_dims):
        for x, m in enumerate(alg.block_dims):
            if x == y:
                b = u.blocks[x]
                ref = choi_from_function(lambda e: b @ e @ b.conj().T, m, n)
            else:
                ref = np.zeros((m * n, m * n))
            assert np.allclose(q.components[y][x], ref, atol=1e-14)


def test_ad_rejects_non_unitary():
    alg = AlgebraSpec((2,))
    bad = AlgebraElement(alg, (np.diag([1.0, 2.0]),))
    with pytest.raises(ShapeError):
        ad_hom(bad)


def test_ad_checks_unitarity_once(monkeypatch):
    # the StarHom constructor is the one unitarity check: a norm per block
    rng = np.random.default_rng(45)
    alg = AlgebraSpec((3, 2, 1))
    u = AlgebraElement(alg, tuple(haar_unitary(rng, d) for d in alg.block_dims))
    calls = []
    real_norm = np.linalg.norm

    def counting_norm(*args, **kwargs):
        calls.append(1)
        return real_norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    ad_hom(u)
    assert len(calls) == alg.num_blocks


def test_pushforward_needs_matching_algebra():
    f = diag_embedding()
    wrong = State(AlgebraSpec((3,)), (np.eye(3) / 3,))
    with pytest.raises(AlgebraMismatchError):
        pushforward_state(wrong, f)


def _reference_composite_conjugators(outer, inner):
    """Composite conjugators U_x W_x P_x with the permutation matrix P_x built
    by enumerating the composite's standard order (z, y, k_out, k_in, j) and
    locating each label by hand-built segment offsets inside W_x."""
    o_dims = inner.source.block_dims
    n_dims = inner.target.block_dims
    c_in = np.array(inner.mult)
    c_out = np.array(outer.mult)
    out = []
    for x, m in enumerate(outer.target.block_dims):
        w = np.zeros((m, m), dtype=complex)
        off = 0
        for y, n in enumerate(n_dims):
            for _ in range(c_out[y, x]):
                w[off : off + n, off : off + n] = inner.conjugators[y]
                off += n
        off_out = np.concatenate(([0], np.cumsum(c_out[:, x] * n_dims)))
        perm = []
        for z, o in enumerate(o_dims):
            for y, n in enumerate(n_dims):
                off_in = np.concatenate(([0], np.cumsum(c_in[:, y] * o_dims)))
                for k_out in range(c_out[y, x]):
                    for k_in in range(c_in[z, y]):
                        base = off_out[y] + k_out * n + off_in[z] + k_in * o
                        perm.extend(range(base, base + o))
        assert sorted(perm) == list(range(m))
        p = np.zeros((m, m), dtype=complex)
        p[perm, np.arange(m)] = 1.0
        out.append(outer.conjugators[x] @ w @ p)
    return out


def test_compose_homs_conjugators_match_enumerated_reference():
    # a fixed pair where both the (z, y) and the (k_out, k_in) order matter:
    # middle block 0 holds source block 1 twice and sits twice in the top
    # block, middle block 1 holds source blocks 0 and 1
    rng = np.random.default_rng(3)
    mid = AlgebraSpec((2, 2))
    g_conj = (haar_unitary(rng, 2), haar_unitary(rng, 2))
    g = StarHom(AlgebraSpec((1, 1)), mid, ((0, 1), (2, 1)), g_conj)
    f = StarHom(mid, AlgebraSpec((8,)), ((2,), (2,)), (haar_unitary(rng, 8),))
    pairs = [(f, g)]
    cfg = GeneratorConfig(seed=101, trials=100, max_block_dim=6)
    for t in range(cfg.trials):
        rng = rng_for(cfg, t)
        g = gen_star_hom(rng, gen_algebra(rng, cfg), cfg)
        pairs.append((gen_star_hom(rng, g.target, cfg), g))
    for f, g in pairs:
        got = compose_homs(f, g).conjugators
        for a, b in zip(got, _reference_composite_conjugators(f, g)):
            assert np.array_equal(a, b)
