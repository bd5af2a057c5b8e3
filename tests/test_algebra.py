import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ncstat.algebra import (
    AlgebraElement,
    AlgebraSpec,
    State,
    absolutely_continuous,
    direct_sum_algebras,
    frozen_matrix,
    hermitian_eigen,
    hermitian_exp,
    hermitian_log,
    hermitian_pinv,
    partial_trace_left,
    psd_violations,
    state_distance,
    support_projection,
    validate_state,
)
from ncstat.errors import AlgebraMismatchError, ShapeError
from ncstat.generators import haar_unitary
from ncstat.hypotheses import AlphaFamily, construct_optimal_hypothesis
from ncstat.maps import CPUMap, StarHom, choi_from_function, validate_cpu


def test_algebra_spec_dimensions():
    a = AlgebraSpec((2, 3, 1))
    assert a.num_blocks == 3
    assert a.dim == 4 + 9 + 1
    assert a.side == 6
    assert AlgebraSpec((1, 1, 1)).dim == 3


def test_algebra_spec_rejects_bad_dims():
    with pytest.raises(ShapeError):
        AlgebraSpec(())
    with pytest.raises(ShapeError):
        AlgebraSpec((2, 0))
    with pytest.raises(ShapeError):
        AlgebraSpec((2, -1))


def test_identity_and_zero():
    a = AlgebraSpec((2, 3))
    one = a.identity()
    zero = AlgebraElement(a, tuple(np.zeros((d, d)) for d in a.block_dims))
    assert np.array_equal(one.blocks[0], np.eye(2))
    assert np.array_equal(one.blocks[1], np.eye(3))
    assert zero.norm() == 0.0


def test_matrix_units_span_and_order():
    a = AlgebraSpec((2, 1))
    units = list(a.matrix_units())
    assert len(units) == a.dim
    # column-major within each block: (i, j) runs j outer, i inner
    coords = [(b, i, j) for b, i, j, _ in units]
    assert coords == [(0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0)]
    total = units[0][3]
    for _, i, j, e in units[1:]:
        if i == j:
            total = total + e
    assert total.distance(a.identity()) == 0.0


def test_element_arithmetic():
    rng = np.random.default_rng(0)
    a = AlgebraSpec((2, 2))
    x = AlgebraElement(a, tuple(rng.standard_normal((2, 2)) for _ in range(2)))
    y = AlgebraElement(a, tuple(rng.standard_normal((2, 2)) for _ in range(2)))
    z = (x + y) @ x.adjoint() - 2.0 * y
    for b in range(2):
        want = (x.blocks[b] + y.blocks[b]) @ x.blocks[b].conj().T - 2.0 * y.blocks[b]
        assert np.allclose(z.blocks[b], want)
    h = x @ x.adjoint()
    assert all(np.linalg.norm(b - b.conj().T) <= 1e-9 for b in h.blocks)


def test_element_blocks_immutable():
    a = AlgebraSpec((2,))
    x = AlgebraElement(a, (np.eye(2),))
    with pytest.raises(ValueError):
        x.blocks[0][0, 0] = 5.0


def test_frozen_matrix_keeps_a_read_only_complex_array_that_owns_its_data():
    a = np.array([[0, 1j], [2, 3]])
    a.setflags(write=False)
    assert frozen_matrix(a, (2, 2), "m") is a
    assert AlgebraElement(AlgebraSpec((2,)), (a,)).blocks[0] is a


@pytest.mark.parametrize(
    "make",
    [
        lambda a: a,  # writable
        lambda a: a.T,  # a view, whose base may still be written
        lambda a: a.real.copy(),  # float64
        lambda a: a.astype(np.dtype(">c16")),  # complex128, other byte order
    ],
    ids=["writable", "view", "float64", "byteswapped"],
)
def test_frozen_matrix_copies_what_it_cannot_keep(make):
    base = np.array([[0, 1], [2, 3]], dtype=np.complex128)
    m = make(base)
    m.setflags(write=m is base)
    got = frozen_matrix(m, (2, 2), "m")
    assert got is not m and not np.shares_memory(got, base)
    assert got.dtype == np.complex128 and not got.flags.writeable
    assert np.array_equal(got, m)
    base[0, 0] = 9.0  # the copy does not follow its source
    assert got[0, 0] == 0.0


def test_frozen_matrix_rejects_a_read_only_array_of_the_wrong_shape():
    a = np.zeros((2, 3), dtype=np.complex128)
    a.setflags(write=False)
    with pytest.raises(ShapeError, match="m must be 2x2"):
        frozen_matrix(a, (2, 2), "m")


def test_cross_algebra_ops_rejected():
    x = AlgebraSpec((2,)).identity()
    y = AlgebraSpec((3,)).identity()
    with pytest.raises(AlgebraMismatchError):
        x + y


def test_state_evaluation_is_trace_pairing():
    a = AlgebraSpec((2, 1))
    s = State(a, (np.array([[0.25, 0.1], [0.1, 0.25]]), np.array([[0.5]])))
    e = AlgebraElement(a, (np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[2.0]])))
    want = np.trace(s.densities[0] @ e.blocks[0]) + 1.0
    assert abs(s.evaluate(e) - want) < 1e-14


def test_state_distance_is_frobenius():
    a = AlgebraSpec((1, 1))
    s1 = State(a, (np.array([[0.5]]), np.array([[0.5]])))
    s2 = State(a, (np.array([[0.3]]), np.array([[0.7]])))
    assert abs(state_distance(s1, s2) - math.sqrt(0.08)) < 1e-14


def test_validate_state_flags_problems():
    a = AlgebraSpec((2,))
    good = State(a, (np.eye(2) / 2,))
    rep = validate_state(good)
    assert rep.ok and rep.faithful

    lopsided = State(a, (np.diag([1.0, 0.0]),))
    rep = validate_state(lopsided)
    assert rep.ok and not rep.faithful

    neg = State(a, (np.diag([1.5, -0.5]),))
    rep = validate_state(neg)
    assert not rep.ok
    kinds = {v.kind for v in rep.violations}
    assert "positivity" in kinds

    unnormalized = State(a, (np.eye(2),))
    rep = validate_state(unnormalized)
    assert any(v.kind == "normalization" for v in rep.violations)

    skew = State(a, (np.array([[0.5, 0.5], [0.0, 0.5]]),))
    rep = validate_state(skew)
    assert any(v.kind == "hermiticity" for v in rep.violations)


@pytest.mark.parametrize("atol", [math.nan, math.inf, -0.5])
def test_validate_state_rejects_unusable_tolerance(atol):
    # a NaN or infinite atol would pass a state with eigenvalue -0.5
    neg = State(AlgebraSpec((2,)), (np.diag([1.5, -0.5]),))
    with pytest.raises(ValueError, match="atol must be finite and >= 0"):
        validate_state(neg, atol)


def test_partial_trace_left_tensor_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = rng.integers(1, 4, size=2)
        left = rng.standard_normal((a, a)) + 1j * rng.standard_normal((a, a))
        right = rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b))
        got = partial_trace_left(np.kron(left, right), int(a), int(b))
        assert np.allclose(got, np.trace(left) * right, atol=1e-12)


def test_hermitian_eigen_rejects_nonhermitian():
    with pytest.raises(np.linalg.LinAlgError):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eigen_is_the_read_only_eigh_pair():
    rng = np.random.default_rng(11)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g + g.conj().T + 1e-12 * g  # Hermitian within DEFAULT_ATOL, not exactly
    pair = hermitian_eigen(m)
    assert type(pair) is tuple and len(pair) == 2
    for got, want in zip(pair, np.linalg.eigh((m + m.conj().T) / 2)):
        assert np.array_equal(got, want)
        assert not got.flags.writeable


def test_spectral_calculus_roundtrips():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (h + h.conj().T) / 2
        assert np.allclose(hermitian_log(hermitian_exp(h)), h, atol=1e-10)


def test_log_of_singular_matrix_uses_support():
    d = np.diag([1.0, 0.0])
    lg = hermitian_log(d)
    # 0 ln 0 = 0 convention: log vanishes off the support
    assert np.allclose(lg, np.zeros((2, 2)))
    assert np.allclose(hermitian_pinv(d), d)
    assert np.allclose(support_projection(d), np.diag([1.0, 0.0]))


def test_log_requires_psd():
    with pytest.raises(np.linalg.LinAlgError):
        hermitian_log(np.diag([1.0, -1.0]))


def test_absolute_continuity_blockwise():
    a = AlgebraSpec((2, 2))
    full = State(a, (np.eye(2) / 4, np.eye(2) / 4))
    partial = State(a, (np.diag([0.5, 0.0]), np.diag([0.5, 0.0])))
    assert absolutely_continuous(partial, full)
    assert not absolutely_continuous(full, partial)
    assert absolutely_continuous(partial, partial)

    # rotated support in one block is enough to break it
    v = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    rotated = State(a, (v @ np.diag([0.5, 0.0]) @ v.T, np.diag([0.5, 0.0])))
    assert not absolutely_continuous(rotated, partial)


def _reference_absolutely_continuous(s1, s2, cutoff=1e-10):
    """Projector formula: norm((1 - P2) P1 (1 - P2), 2) <= cutoff per block."""

    def projections(s):
        eigs = [np.linalg.eigh(d) for d in s.densities]
        top = max(vals[-1] for vals, _ in eigs)
        out = []
        for vals, vecs in eigs:
            kept = vecs[:, vals > cutoff * top]
            out.append(kept @ kept.conj().T)
        return out

    for p1, p2 in zip(projections(s1), projections(s2)):
        comp = np.eye(p2.shape[0]) - p2
        if np.linalg.norm(comp @ p1 @ comp, 2) > cutoff:
            return False
    return True


def test_absolute_continuity_matches_projector_formula():
    rng = np.random.default_rng(1402)
    outcomes = []
    for _ in range(300):
        dims = tuple(int(d) for d in rng.integers(1, 5, size=int(rng.integers(1, 4))))
        blocks1, blocks2 = [], []
        for x, n in enumerate(dims):
            basis = np.linalg.qr(
                rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            )[0]
            # empty and rank-deficient blocks, but never an empty state
            lo = 1 if x == 0 else 0
            k2 = int(rng.integers(lo, n + 1))
            k1 = int(rng.integers(lo, n + 1))
            if rng.random() < 0.5:
                # rotated support for s1: generically not inside that of s2
                basis1 = np.linalg.qr(
                    rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                )[0]
            else:
                basis1, k1 = basis, min(k1, k2)
            w1 = rng.random(k1) + 0.1
            w2 = rng.random(k2) + 0.1
            blocks1.append((basis1[:, :k1] * w1) @ basis1[:, :k1].conj().T)
            blocks2.append((basis[:, :k2] * w2) @ basis[:, :k2].conj().T)
        t1 = sum(np.trace(b).real for b in blocks1)
        t2 = sum(np.trace(b).real for b in blocks2)
        s1 = State(AlgebraSpec(dims), tuple(b / t1 for b in blocks1))
        s2 = State(AlgebraSpec(dims), tuple(b / t2 for b in blocks2))
        expected = _reference_absolutely_continuous(s1, s2)
        assert absolutely_continuous(s1, s2) == expected
        outcomes.append(expected)
    assert 50 < sum(outcomes) < 250


def test_absolute_continuity_rejects_non_psd():
    a = AlgebraSpec((2,))
    good = State(a, (np.eye(2) / 2,))
    bad = State(a, (np.diag([1.1, -0.1]),))
    with pytest.raises(np.linalg.LinAlgError):
        absolutely_continuous(good, bad)
    with pytest.raises(np.linalg.LinAlgError):
        absolutely_continuous(bad, good)


def _tilted_pair(sq_tilt: float, k: int = 3) -> tuple[State, State]:
    """s1's support tilts each of k kept directions of s2 by the same small angle.

    The residual of absolutely_continuous then has k equal singular values
    sqrt(sq_tilt): its squared 2-norm is sq_tilt, its squared Frobenius norm
    k * sq_tilt.
    """
    e = np.eye(2 * k)
    vecs = math.sqrt(1 - sq_tilt) * e[:, :k] + math.sqrt(sq_tilt) * e[:, k:]
    w = np.arange(k, 0, -1) / (k * (k + 1) / 2)
    a = AlgebraSpec((2 * k,))
    return (
        State(a, ((vecs * w) @ vecs.T,)),
        State(a, (np.diag(np.concatenate([w, np.zeros(k)])),)),
    )


def _count_norm2(monkeypatch) -> list:
    calls, norm = [], np.linalg.norm

    def spy(x, ord=None, *args, **kwargs):
        if ord == 2:
            calls.append(1)
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", spy)
    return calls


def test_absolute_continuity_settles_a_frobenius_miss_by_the_svd(monkeypatch):
    calls = _count_norm2(monkeypatch)
    # squared Frobenius norm 9e-11 > cutoff / 2, squared 2-norm 3e-11 <= cutoff
    s1, s2 = _tilted_pair(3e-11)
    assert absolutely_continuous(s1, s2)
    assert calls
    # squared 2-norm 2e-10 > cutoff: a clear miss
    s1, s2 = _tilted_pair(2e-10)
    assert not absolutely_continuous(s1, s2)
    full = State(AlgebraSpec((2,)), (np.eye(2) / 2,))
    partial = State(AlgebraSpec((2,)), (np.diag([1.0, 0.0]),))
    assert not absolutely_continuous(full, partial)


def test_absolute_continuity_needs_no_svd_on_a_faithful_pair(monkeypatch):
    rng = np.random.default_rng(3067)
    a = AlgebraSpec((3, 2))
    states = []
    for _ in range(2):
        blocks = []
        for n in a.block_dims:
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            blocks.append(g @ g.conj().T + 0.1 * np.eye(n))
        total = sum(np.trace(b).real for b in blocks)
        states.append(State(a, tuple(b / total for b in blocks)))
    calls = _count_norm2(monkeypatch)
    assert absolutely_continuous(*states) and absolutely_continuous(*states[::-1])
    # contained up to rounding: a support inside a wider one
    s1, s2 = _tilted_pair(0.0)
    assert absolutely_continuous(s1, s2)
    assert not calls
    partial = State(AlgebraSpec((2,)), (np.diag([1.0, 0.0]),))
    full = State(AlgebraSpec((2,)), (np.eye(2) / 2,))
    assert not absolutely_continuous(full, partial)
    assert calls


def test_absolute_continuity_rejects_a_nan_density():
    a = AlgebraSpec((2,))
    good = State(a, (np.eye(2) / 2,))
    bad = State(a, (np.array([[np.nan, 0.0], [0.0, 0.5]]),))
    with pytest.raises(np.linalg.LinAlgError):
        absolutely_continuous(good, bad)
    with pytest.raises(np.linalg.LinAlgError):
        absolutely_continuous(bad, good)


def test_validate_state_reports_non_finite_entries():
    for d in (
        [[np.nan, 0], [0, 0.5]],
        [[0.5, np.nan], [0, 0.5]],
        [[0.5, np.inf], [0, 0.5]],
        [[np.inf, 0], [0, 0.5]],
        [[0.5, np.inf], [np.inf, 0.5]],
    ):
        s = State(AlgebraSpec((2,)), (np.array(d),))
        report = validate_state(s)
        assert not report.ok
        assert report.violations[0].kind == "hermiticity"


def test_direct_sum_algebras():
    c = direct_sum_algebras(AlgebraSpec((2, 1)), AlgebraSpec((3,)))
    assert c.block_dims == (2, 1, 3)


ATOL = 1e-9


def _with_least_eigenvalue(rng, n, low, zeros=0):
    """Hermitian n x n, eigenvalues low, `zeros` zeros and the rest in [0.1, 1]."""
    vals = np.concatenate([[low], np.zeros(zeros), rng.uniform(0.1, 1.0, n - 1 - zeros)])
    u = haar_unitary(rng, n)
    return (u * vals) @ u.conj().T


@pytest.mark.parametrize("n", [1, 2, 7, 8, 16, 64, 256])
@pytest.mark.parametrize(
    "low, zeros",
    [
        (-ATOL * (1 + 1e-6), 0),
        (-ATOL * (1 - 1e-6), 0),
        (ATOL * (1 - 1e-6), 0),
        (ATOL * (1 + 1e-6), 0),
        (0.0, 0),
        (0.0, "half"),
    ],
    ids=["below-minus-atol", "above-minus-atol", "below-atol", "above-atol", "zero", "rank-deficient"],
)
def test_psd_certificate_classifies_as_eigvalsh(n, low, zeros):
    # the reference: eigvalsh on the Hermitian part, as psd_violations builds it
    rng = np.random.default_rng([23, n])
    m = _with_least_eigenvalue(rng, n, low, (n - 1) // 2 if zeros == "half" else zeros)
    before = m.copy()
    ref = float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])
    for floor in (-ATOL, ATOL):
        violations, above = psd_violations([("m", m)], ATOL, ("herm", "psd"), floor)
        expected = [("psd", "m", -ref)] if ref < -ATOL else []
        assert [(v.kind, v.where, v.residual) for v in violations] == expected
        assert above == (ref > floor)
    assert np.array_equal(m, before)


def test_validate_cpu_runs_eigvalsh_only_where_cholesky_fails(monkeypatch):
    # a valid disintegration along a hom (4)+(4) -> (16), each source block twice
    rng = np.random.default_rng(5)
    u = haar_unitary(rng, 16)
    hom = StarHom(AlgebraSpec((4, 4)), AlgebraSpec((16,)), ((2,), (2,)), (u,))
    xi = [_with_least_eigenvalue(rng, 4, 0.2) for _ in range(2)]
    alphas = AlphaFamily(tuple((_with_least_eigenvalue(rng, 2, 0.3),) for _ in range(2)))
    std = alphas.assemble(hom, [0.4 * xi[0] / np.trace(xi[0]), 0.6 * xi[1] / np.trace(xi[1])])
    m = construct_optimal_hypothesis(hom, State(hom.target, (u @ std[0] @ u.conj().T,)))
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
    assert validate_cpu(m.cpu).ok
    assert not calls

    # the identity map next to the transpose map, whose Choi matrix has eigenvalue -1
    q = CPUMap(
        AlgebraSpec((3, 3)),
        AlgebraSpec((3,)),
        (
            (
                choi_from_function(lambda e: e, 3, 3),
                choi_from_function(lambda e: np.swapaxes(e, -1, -2), 3, 3),
            ),
        ),
    )
    cp = [v for v in validate_cpu(q).violations if v.kind == "cp"]
    assert len(calls) == 1
    assert [v.where for v in cp] == ["component (0,1)"] and abs(cp[0].residual - 1.0) < 1e-12


def _reference_psd_violations(named, atol, kinds, floor):
    """psd_violations before the low-rank certificate: h, shifted Cholesky, eigvalsh."""
    herm_kind, psd_kind = kinds
    violations = []
    above = True
    for where, m in named:
        herm = float(np.linalg.norm(m - m.conj().T)) if np.isfinite(m).all() else math.inf
        if not herm <= atol:
            violations.append((herm_kind, where, herm))
        if not math.isfinite(herm):
            continue
        h = (m + m.conj().T) / 2
        n = len(h)
        if n >= 8:
            diag = h.ravel("K")[:: n + 1]
            saved = diag.copy()
            delta = 4 * (n + 1) * np.finfo(float).eps * (saved.real.sum() + n * atol)
            if 0 < delta < atol:
                diag -= floor + delta
                try:
                    np.linalg.cholesky(h)
                    continue
                except np.linalg.LinAlgError:
                    diag[:] = saved
        low = float(np.linalg.eigvalsh(h)[0])
        above = above and low > floor
        if low < -atol:
            violations.append((psd_kind, where, -low))
    return violations, above


def _planted(rng, n, rank, low=None):
    """n x n Hermitian with `rank` eigenvalues in [0.1, 1], one more equal to low
    when it is given, and the rest zero."""
    vals = np.zeros(n)
    vals[:rank] = rng.uniform(0.1, 1.0, rank)
    if low is not None:
        vals[rank] = low
    u = haar_unitary(rng, n)
    return (u * vals) @ u.conj().T


@pytest.mark.parametrize("n", [64, 128, 256])
@pytest.mark.parametrize("rank", [1, "budget"])
@pytest.mark.parametrize("skew", [0.0, 0.9 * ATOL], ids=["hermitian", "skew-within-atol"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_low_rank_choi_component_is_certified_without_a_factorization(
    n, rank, skew, order, factorizations
):
    rng = np.random.default_rng([31, n])
    m = _planted(rng, n, n // 16 if rank == "budget" else rank)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a -= a.conj().T  # anti-Hermitian, scaled so that ||m - m^H|| = skew
    m = np.asarray(m + skew / 2 * a / np.linalg.norm(a), order=order)
    assert psd_violations([("m", m)], ATOL, ("herm", "psd"), -ATOL) == ([], True)
    assert factorizations == []
    # the faithfulness check (floor atol) never takes the certificate
    assert psd_violations([("m", m)], ATOL, ("herm", "psd"), ATOL)[1] is False
    assert [name for name, _ in factorizations] == ["cholesky", "eigvalsh"]


@pytest.mark.parametrize("n, rank", [(64, None), (32, 2)], ids=["full-rank", "below-side-64"])
def test_component_outside_the_certificate_takes_one_cholesky(n, rank, factorizations):
    rng = np.random.default_rng([37, n])
    m = _with_least_eigenvalue(rng, n, 0.1) if rank is None else _planted(rng, n, rank)
    assert psd_violations([("m", m)], ATOL, ("herm", "psd"), -ATOL) == ([], True)
    assert factorizations == [("cholesky", n)]


@settings(
    max_examples=60,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([8, 16, 32, 64, 96, 128]),
    rank=st.integers(1, 4),
    low=st.floats(-3 * ATOL, -ATOL / 3),
    order=st.sampled_from("CF"),
    floor=st.sampled_from([-ATOL, ATOL]),
)
def test_psd_violations_match_the_reference_on_a_planted_negative_eigenvalue(
    seed, n, rank, low, order, floor
):
    # every side takes the shifted Cholesky; from 64 at floor -atol the certificate runs first
    m = np.asarray(_planted(np.random.default_rng(seed), n, rank, low), order=order)
    named = [("component (0,0)", m)]
    violations, above = psd_violations(named, ATOL, ("choi-hermiticity", "cp"), floor)
    got = [(v.kind, v.where, v.residual) for v in violations], above
    assert got == _reference_psd_violations(named, ATOL, ("choi-hermiticity", "cp"), floor)
