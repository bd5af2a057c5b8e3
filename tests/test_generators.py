import itertools
import json
import math
import weakref
from dataclasses import asdict

import numpy as np
import pytest

from ncstat import laws, maps
from ncstat.algebra import (
    DEFAULT_CUTOFF,
    AlgebraSpec,
    State,
    ValidationReport,
    Violation,
    validate_state,
)
from ncstat.errors import ShapeError
from ncstat.generators import (
    FAITHFUL_FLOOR,
    GeneratorConfig,
    gen_algebra,
    gen_alpha_family,
    gen_classical_distribution,
    gen_composable_pair,
    gen_density,
    gen_element,
    gen_morphism,
    gen_mult_matrix,
    gen_optimal_morphism,
    gen_star_hom,
    gen_state,
    haar_unitary,
    rng_for,
)
from ncstat.hypotheses import (
    AlphaFamily,
    build_hypothesis_from_alphas,
    validate_morphism,
)
from ncstat.laws import LAWS, run_laws
from ncstat.maps import (
    StarHom,
    apply_hom,
    hom_from_raw,
    hom_to_raw,
    identity_hom,
    pushforward_state,
    validate_cpu,
)

CFG = GeneratorConfig(seed=77, trials=8)


def test_config_rejects_bad_trials():
    with pytest.raises(ValueError):
        GeneratorConfig(trials=0)


def test_rng_streams_are_independent_and_reproducible():
    a = rng_for(CFG, 0).standard_normal(4)
    b = rng_for(CFG, 1).standard_normal(4)
    assert not np.allclose(a, b)
    assert np.array_equal(a, rng_for(CFG, 0).standard_normal(4))
    other = GeneratorConfig(seed=78, trials=8)
    assert not np.allclose(a, rng_for(other, 0).standard_normal(4))


def test_haar_unitary_is_unitary():
    rng = rng_for(CFG, 2)
    for n in (1, 2, 5):
        u = haar_unitary(rng, n)
        assert np.allclose(u @ u.conj().T, np.eye(n), atol=1e-12)


def test_gen_algebra_respects_bounds():
    for t in range(20):
        a = gen_algebra(rng_for(CFG, t), CFG)
        assert 1 <= a.num_blocks <= CFG.max_blocks
        assert all(1 <= d <= CFG.max_block_dim for d in a.block_dims)


def test_gen_state_faithful_floor():
    for t in range(10):
        rng = rng_for(CFG, t)
        alg = gen_algebra(rng, CFG)
        s = gen_state(alg, CFG, rng, faithful=True)
        rep = validate_state(s)
        assert rep.ok and rep.faithful
        for d in s.densities:
            assert np.linalg.eigvalsh(d)[0] >= FAITHFUL_FLOOR


def test_gen_density_faithful_at_large_side():
    # past side 500 the uncapped mixing weight 2 FAITHFUL_FLOOR side exceeds 1
    side = 1200
    rho = gen_density(np.random.default_rng(12), side)
    rep = validate_state(State(AlgebraSpec((side,)), (rho,)))
    assert rep.ok and rep.faithful
    assert np.linalg.eigvalsh(rho)[0] > 0


def test_gen_state_nonfaithful_still_valid():
    saw_deficient = False
    for t in range(30):
        rng = rng_for(CFG, t)
        alg = gen_algebra(rng, CFG)
        s = gen_state(alg, CFG, rng, faithful=False)
        assert validate_state(s).ok
        ranks = [np.linalg.matrix_rank(d, tol=1e-10) for d in s.densities]
        if sum(ranks) < alg.side:
            saw_deficient = True
    assert saw_deficient


def test_gen_mult_matrix_unital_and_injective():
    for t in range(20):
        rng = rng_for(CFG, t)
        alg = gen_algebra(rng, CFG)
        mult = gen_mult_matrix(rng, alg.block_dims, CFG)
        cols = len(mult[0])
        for x in range(cols):
            n = sum(mult[y][x] * d for y, d in enumerate(alg.block_dims))
            assert n >= 1  # every target block nonempty by construction
        for row in mult:
            assert any(c > 0 for c in row)  # injective: every source block lands


def test_gen_mult_matrix_without_feasible_side_names_the_cause():
    cfg = GeneratorConfig(seed=1, max_block_dim=4)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ShapeError, match=r"max_block_dim=4 .*\(8,\)"):
        gen_star_hom(rng, AlgebraSpec((8,)), cfg)
    assert rng.bit_generator.state == before  # raised before any draw


def test_gen_mult_matrix_rejects_one_block_wider_than_the_bound():
    # block 0 fits some target side, so only a per-block check sees block 1
    cfg = GeneratorConfig(seed=1, max_block_dim=4)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ShapeError, match=r"block 1 has side 8.*max_block_dim=4 "):
        gen_star_hom(rng, AlgebraSpec((1, 8)), cfg)
    assert rng.bit_generator.state == before  # raised before any draw


def _reference_columns_summing_to(dims, total):
    if not dims:
        return [()] if total == 0 else []
    head, rest = dims[0], dims[1:]
    out = []
    for c in range(total // head + 1):
        for tail in _reference_columns_summing_to(rest, total - c * head):
            out.append((c,) + tail)
    return out


def _reference_gen_mult_matrix(rng, source_dims, cfg):
    """gen_mult_matrix as it was before its column lists were cached."""
    t = len(source_dims)
    options_by_side = {
        m: _reference_columns_summing_to(source_dims, m)
        for m in range(1, cfg.max_block_dim + 1)
    }
    feasible = [m for m, options in options_by_side.items() if options]
    for _ in range(200):
        s = int(rng.integers(1, cfg.max_blocks + 1))
        cols = []
        for _x in range(s):
            options = options_by_side[feasible[rng.integers(0, len(feasible))]]
            cols.append(options[rng.integers(0, len(options))])
        if all(any(cols[x][y] for x in range(s)) for y in range(t)):
            return tuple(tuple(cols[x][y] for x in range(s)) for y in range(t))
    return tuple(tuple(1 if x == y else 0 for x in range(t)) for y in range(t))


@pytest.mark.parametrize("max_dim", [GeneratorConfig().max_block_dim, 8])
def test_gen_mult_matrix_draws_as_the_reference_does(max_dim):
    # every source algebra of 200 trials, and the target of its first matrix as
    # a second source; both functions start from copies of one rng
    cfg = GeneratorConfig(seed=42, trials=200, max_block_dim=max_dim)
    for t in range(cfg.trials):
        rng = rng_for(cfg, t)
        dims = gen_algebra(rng, cfg).block_dims
        for _ in range(2):
            ref = np.random.default_rng()
            ref.bit_generator.state = rng.bit_generator.state
            mult = gen_mult_matrix(rng, dims, cfg)
            assert mult == _reference_gen_mult_matrix(ref, dims, cfg)
            assert rng.bit_generator.state == ref.bit_generator.state
            dims = tuple(
                sum(c * n for c, n in zip(col, dims)) for col in zip(*mult)
            )


def test_gen_star_hom_standard_flag():
    rng = rng_for(CFG, 4)
    alg = gen_algebra(rng, CFG)
    f = gen_star_hom(rng, alg, CFG, standard=True)
    assert f.is_standard()


def test_gen_alpha_family_row_normalized():
    rng = rng_for(CFG, 5)
    alg = gen_algebra(rng, CFG)
    hom = gen_star_hom(rng, alg, CFG)
    fam = gen_alpha_family(rng, hom.mult)
    assert np.allclose(fam.row_traces(), 1.0, atol=1e-12)
    assert fam.validate().ok and fam.validate().faithful


def test_gen_morphism_and_pair_validity():
    for t in range(5):
        m = gen_morphism(CFG, rng_for(CFG, t))
        assert validate_morphism(m).ok
        assert validate_cpu(m.cpu).ok
    inner, outer = gen_composable_pair(CFG, rng_for(CFG, 6))
    assert validate_morphism(inner).ok
    assert validate_morphism(outer).ok


def test_gen_optimal_morphism_determinism():
    m1 = gen_optimal_morphism(CFG, rng_for(CFG, 7))
    m2 = gen_optimal_morphism(CFG, rng_for(CFG, 7))
    for d1, d2 in zip(m1.target.state.densities, m2.target.state.densities):
        assert np.array_equal(d1, d2)


def test_gen_classical_distribution():
    p = gen_classical_distribution(rng_for(CFG, 8), 5)
    assert p.shape == (5,)
    assert abs(p.sum() - 1.0) < 1e-12
    assert p.min() > 0.0


def test_law_names_unique():
    names = [name for name, _, _ in LAWS]
    assert len(names) == len(set(names))


def test_run_laws_small_config_passes():
    report = run_laws(GeneratorConfig(seed=3, trials=5))
    assert report.ok, report.summary()
    assert len(report.results) == len(LAWS)
    doc = report.to_json()
    assert doc["ok"] and len(doc["laws"]) == len(LAWS)


def test_run_laws_fails_a_law_whose_trials_give_nan(monkeypatch):
    defects = iter([1e-12, math.nan, 1e-11])
    law = ("nan-law", 1e-9, lambda rng, cfg: laws.TrialOutcome(defect=next(defects)))
    monkeypatch.setattr(laws, "LAWS", (law,))
    report = run_laws(GeneratorConfig(seed=3, trials=3))
    (result,) = report.results
    assert result.failing_trials == (1,)
    assert math.isnan(result.max_defect)  # a later finite defect does not hide it
    assert not report.ok
    assert report.summary().splitlines() == [
        "FAIL  nan-law  trials=3  max_defect=nan  tol=1.0e-09",
        "LAW FAILURES PRESENT",
    ]


def _spectral_roundtrip_report(max_dim: int, trials: int, monkeypatch):
    law = next(entry for entry in LAWS if entry[0] == "spectral-roundtrip")
    monkeypatch.setattr(laws, "LAWS", (law,))
    cfg = GeneratorConfig(seed=42, trials=trials, max_block_dim=max_dim)
    return run_laws(cfg).results[0]


@pytest.mark.parametrize("max_dim, trials", [(24, 10), (32, 8)])
def test_spectral_roundtrip_holds_at_the_ladder_sides(monkeypatch, max_dim, trials):
    # seed 42 draws h with a spectral spread past ln(1 / DEFAULT_CUTOFF) here
    result = _spectral_roundtrip_report(max_dim, trials, monkeypatch)
    assert result.passed


def test_spectral_roundtrip_catches_a_log_that_drops_a_kept_eigenvalue(monkeypatch):
    calls = []

    def dropping_log(m):
        calls.append(m)
        vals, vecs = np.linalg.eigh(m)
        keep = vals > DEFAULT_CUTOFF * vals[-1]
        keep[np.argmax(keep)] = False  # the smallest kept eigenvalue
        return (vecs[:, keep] * np.log(vals[keep])) @ vecs[:, keep].conj().T

    monkeypatch.setattr(laws, "hermitian_log", dropping_log)
    result = _spectral_roundtrip_report(GeneratorConfig().max_block_dim, 40, monkeypatch)
    assert result.failures == 40
    assert len(calls) == 80  # both halves run on every trial at the default bounds


def test_law_report_json_layout():
    doc = run_laws(GeneratorConfig(seed=3, trials=2)).to_json()
    assert json.loads(json.dumps(doc)) == doc  # a tuple would come back a list
    assert list(doc) == [
        "seed", "trials", "max_blocks", "max_block_dim", "faithful_only", "ok", "laws"
    ]
    assert [doc[k] for k in list(doc)[:5]] == [3, 2, 3, 3, False]
    law = doc["laws"][0]
    assert list(law) == [
        "name",
        "tolerance",
        "trials",
        "failures",
        "max_defect",
        "failing_trials",
        "infinite_count",
        "passed",
    ]
    assert all(isinstance(entry["failing_trials"], list) for entry in doc["laws"])


def test_rectification_invariance_keeps_its_defects_on_infinite_trials(monkeypatch):
    # a rank-deficient alpha confines the pushed-back state to one copy, so a
    # full-support target has infinite relative entropy before and after
    src, tgt = AlgebraSpec((2,)), AlgebraSpec((4,))
    hom = StarHom(src, tgt, ((2,),), (np.eye(4),))
    m = build_hypothesis_from_alphas(
        hom,
        State(src, (np.eye(2) / 2,)),
        AlphaFamily(((np.diag([1.0, 0.0]),),)),
        target_state=State(tgt, (np.eye(4) / 4,)),
    )
    broken = ValidationReport((Violation("section", "block 0", 0.5),))
    monkeypatch.setattr(laws, "gen_morphism", lambda cfg, rng: m)
    monkeypatch.setattr(laws, "validate_morphism", lambda morphism: broken)
    outcome = laws._law_rectification_invariance(np.random.default_rng(0), CFG)
    assert outcome.infinite
    assert outcome.defect >= 0.5


def test_run_laws_faithful_only_skips_coverage():
    report = run_laws(GeneratorConfig(seed=3, trials=3, faithful_only=True))
    cov = [r for r in report.results if r.name == "relative-entropy-infinity-coverage"]
    assert cov[0].trials == 0
    assert report.ok, report.summary()


def _law_major_report(cfg: GeneratorConfig) -> dict:
    """run_laws as a law-major loop with one fresh stream per law call: no sharing."""
    doc = []
    for name, tol, fn in LAWS:
        outs = [(t, fn(rng_for(cfg, t), cfg)) for t in range(cfg.trials)]
        ran = [(t, out) for t, out in outs if not out.skipped]
        failures = [t for t, out in ran if not out.defect <= tol]
        infinite = sum(int(out.infinite) for _, out in ran)
        if name == "relative-entropy-infinity-coverage" and not cfg.faithful_only:
            failures += [-1] if ran and infinite == 0 else []
        max_defect = 0.0
        for _, out in ran:
            max_defect = float(np.maximum(max_defect, out.defect))
        result = laws.LawResult(
            name, tol, len(ran), len(failures), max_defect, tuple(failures[:10]), infinite
        )
        doc.append(result.to_json())
    ok = all(entry["passed"] for entry in doc)
    return {**asdict(cfg), "ok": ok, "laws": doc}


@pytest.mark.parametrize(
    "cfg",
    [
        GeneratorConfig(seed=3, trials=5),
        GeneratorConfig(seed=42, trials=10),
        GeneratorConfig(seed=42, trials=10, faithful_only=True),
        GeneratorConfig(seed=42, trials=3, max_block_dim=6),
    ],
    ids=["seed3", "seed42", "seed42-faithful", "seed42-maxdim6"],
)
def test_shared_draws_leave_the_report_unchanged(cfg):
    assert run_laws(cfg).to_json() == _law_major_report(cfg)


def test_direct_composite_draws_are_fresh():
    for gen in (gen_morphism, gen_optimal_morphism):
        assert gen(CFG, rng_for(CFG, 0)) is not gen(CFG, rng_for(CFG, 0))
    a, b = (gen_composable_pair(CFG, rng_for(CFG, 0)) for _ in range(2))
    assert a[0] is not b[0] and a[1] is not b[1]


def test_run_laws_still_catches_a_nondeterministic_gen_state(monkeypatch):
    fresh = itertools.count()

    def drifting(algebra, cfg, rng, faithful=None):
        return gen_state(algebra, cfg, np.random.default_rng(next(fresh)), faithful)

    monkeypatch.setattr(laws, "gen_state", drifting)
    report = run_laws(GeneratorConfig(seed=3, trials=3))
    (result,) = [r for r in report.results if r.name == "generator-determinism"]
    assert result.failing_trials == (0, 1, 2)


def test_sharing_is_off_after_a_law_raises(monkeypatch):
    def raising(rng, cfg):
        laws._once(gen_composable_pair, cfg, rng)
        raise RuntimeError("law broke")

    monkeypatch.setattr(laws, "LAWS", (LAWS[0], ("raising", 0.5, raising)))
    with pytest.raises(RuntimeError, match="law broke"):
        run_laws(GeneratorConfig(seed=3, trials=2))
    assert laws._trial is None
    a, b = (laws._once(gen_composable_pair, CFG, rng_for(CFG, 1)) for _ in range(2))
    assert a[0] is not b[0] and a[1] is not b[1]


def test_run_laws_releases_each_trials_instances_by_the_next(monkeypatch):
    refs, released, shared = [], [], []

    def probe(rng, cfg):  # runs first: the last trial's pair must be gone
        released.append([ref() is None for ref in refs])
        refs.append(weakref.ref(laws._once(gen_composable_pair, cfg, rng)[0]))
        return laws.TrialOutcome()

    def reuse(rng, cfg):  # runs last: finds the pair the probe drew
        shared.append(laws._once(gen_composable_pair, cfg, rng)[0] is refs[-1]())
        return laws.TrialOutcome()

    table = (("probe", 0.5, probe), *LAWS, ("reuse", 0.5, reuse))
    monkeypatch.setattr(laws, "LAWS", table)
    assert run_laws(GeneratorConfig(seed=3, trials=4)).ok
    assert released == [[], [True], [True, True], [True, True, True]]
    assert shared == [True] * 4
    assert laws._trial is None
    assert refs[-1]() is None  # the last trial's pair goes when run_laws returns


COMPOSITE_DRAWS = (
    (gen_morphism, {"faithful": True}),
    (gen_optimal_morphism, {}),
    (gen_composable_pair, {}),
)
COMPOSITE_IDS = [gen.__name__ for gen, _ in COMPOSITE_DRAWS]


@pytest.mark.parametrize("gen, kwargs", COMPOSITE_DRAWS, ids=COMPOSITE_IDS)
def test_once_outside_run_laws_draws_afresh(gen, kwargs):
    a, b = (laws._once(gen, CFG, rng_for(CFG, 0), **kwargs) for _ in range(2))
    assert laws._trial is None and a is not b


ONE_TRIAL = GeneratorConfig(seed=3, trials=1)


def _in_one_trial(monkeypatch, law):
    """What law(rng, cfg) returns when run_laws runs it alone over ONE_TRIAL."""
    seen = []

    def probe(rng, cfg):
        seen.append(law(rng, cfg))
        return laws.TrialOutcome()

    monkeypatch.setattr(laws, "LAWS", (("probe", 0.5, probe),))
    assert run_laws(ONE_TRIAL).ok
    return seen[0]


@pytest.mark.parametrize("gen, kwargs", COMPOSITE_DRAWS, ids=COMPOSITE_IDS)
def test_once_inside_a_trial_repeats_return_the_first_result(monkeypatch, gen, kwargs):
    def law(rng, cfg):
        first = laws._once(gen, cfg, rng, **kwargs)
        again = laws._once(gen, cfg, rng_for(cfg, 0), **kwargs)  # the same position
        other = laws._once(gen, cfg, rng, **kwargs)  # a later position: fresh
        return first, again, other

    first, again, other = _in_one_trial(monkeypatch, law)
    assert again is first and other is not first


@pytest.mark.parametrize("gen, kwargs", COMPOSITE_DRAWS, ids=COMPOSITE_IDS)
def test_once_leaves_the_stream_where_an_unshared_draw_does(monkeypatch, gen, kwargs):
    def law(rng, cfg):
        laws._once(gen, cfg, rng, **kwargs)
        repeat = rng_for(cfg, 0)
        laws._once(gen, cfg, repeat, **kwargs)  # a repeat: no draw of its own
        return repeat.standard_normal(4)

    fresh = rng_for(ONE_TRIAL, 0)
    gen(ONE_TRIAL, fresh, **kwargs)
    assert np.array_equal(_in_one_trial(monkeypatch, law), fresh.standard_normal(4))


def test_once_releases_its_store_at_the_end_of_each_trial(monkeypatch):
    stores = []

    def probe(rng, cfg):
        laws._once(gen_morphism, cfg, rng)
        stores.append(laws._trial)
        return laws.TrialOutcome()

    monkeypatch.setattr(laws, "LAWS", (("probe", 0.5, probe),))
    assert run_laws(GeneratorConfig(seed=3, trials=3)).ok
    assert laws._trial is None
    assert len({id(store) for store in stores}) == 3
    assert all(len(store) == 1 for store in stores)


def test_composite_generators_are_plain_functions():
    for gen in (gen_morphism, gen_optimal_morphism, gen_composable_pair):
        assert not hasattr(gen, "__wrapped__")


PAIR_LAWS = ("pair-rectification", "composite-state-expansion", "re-expansion-identities")


def _count_rectifications(monkeypatch) -> list:
    made, rectify = [], laws.rectify_pair

    def spy(inner, outer):
        made.append(rectify(inner, outer))
        return made[-1]

    monkeypatch.setattr(laws, "rectify_pair", spy)
    return made


def test_run_laws_rectifies_each_trials_pair_once(monkeypatch):
    made = _count_rectifications(monkeypatch)
    assert run_laws(GeneratorConfig(seed=3, trials=3)).ok
    assert len(made) == 3


def test_direct_law_calls_rectify_afresh(monkeypatch):
    made = _count_rectifications(monkeypatch)
    table = {name: fn for name, _, fn in LAWS}
    for name in PAIR_LAWS:
        table[name](rng_for(CFG, 0), CFG)
    assert len(made) == 3 and len({id(r) for r in made}) == 3


def test_rectification_sharing_is_off_after_a_law_raises(monkeypatch):
    pair_rectification = {name: fn for name, _, fn in LAWS}[PAIR_LAWS[0]]

    def raising(rng, cfg):
        pair_rectification(rng, cfg)
        raise RuntimeError("law broke")

    monkeypatch.setattr(laws, "LAWS", (("raising", 0.5, raising),))
    with pytest.raises(RuntimeError, match="law broke"):
        run_laws(GeneratorConfig(seed=3, trials=2))
    assert laws._trial is None
    made = _count_rectifications(monkeypatch)
    inner, outer = gen_composable_pair(CFG, rng_for(CFG, 0))
    for _ in range(2):
        laws._once(laws.rectify_pair, inner, outer)
    assert len(made) == 2 and made[0] is not made[1]


# The unit-basis laws as they were written one matrix unit at a time, one
# apply_hom call per unit; compose_homs and hom_from_raw are read off laws so
# that a mutant patched in there reaches both.


def _reference_hom_raw_roundtrip(rng, cfg) -> float:
    alg = gen_algebra(rng, cfg)
    f = gen_star_hom(rng, alg, cfg)
    back = laws.hom_from_raw(hom_to_raw(f))
    if back.mult != f.mult:
        return 1.0
    worst = 0.0
    for _, _, _, e in alg.matrix_units():
        worst = max(worst, apply_hom(back, e).distance(apply_hom(f, e)))
    return worst


def _reference_hom_composition(rng, cfg) -> float:
    bottom = gen_algebra(rng, cfg)
    g = gen_star_hom(rng, bottom, cfg)
    f = gen_star_hom(rng, g.target, cfg)
    h = laws.compose_homs(f, g)
    expected_mult = np.array(g.mult, dtype=int) @ np.array(f.mult, dtype=int)
    if not np.array_equal(np.array(h.mult, dtype=int), expected_mult):
        return 1.0
    worst = 0.0
    for _, _, _, e in bottom.matrix_units():
        worst = max(worst, apply_hom(h, e).distance(apply_hom(f, apply_hom(g, e))))
    left = laws.compose_homs(identity_hom(f.target), f)
    right = laws.compose_homs(f, identity_hom(f.source))
    a = gen_element(rng, f.source)
    worst = max(worst, apply_hom(left, a).distance(apply_hom(f, a)))
    return max(worst, apply_hom(right, a).distance(apply_hom(f, a)))


def _reference_pushforward_definitional(rng, cfg) -> float:
    alg = gen_algebra(rng, cfg)
    f = gen_star_hom(rng, alg, cfg)
    omega = gen_state(f.target, cfg, rng)
    xi = pushforward_state(omega, f)
    direct = [np.zeros((n, n), dtype=np.complex128) for n in alg.block_dims]
    for y, i, j, unit in alg.matrix_units():
        direct[y][j, i] = omega.evaluate(apply_hom(f, unit))
    return max(float(np.linalg.norm(d - x)) for d, x in zip(direct, xi.densities))


UNIT_BASIS_REFERENCES = {
    "hom-raw-roundtrip": _reference_hom_raw_roundtrip,
    "hom-composition": _reference_hom_composition,
    "pushforward-definitional": _reference_pushforward_definitional,
}


def _defects(name: str, cfg: GeneratorConfig) -> tuple[list[float], list[float]]:
    """Per-trial defects of the law and of its per-unit reference, on one stream."""
    law = {n: fn for n, _, fn in LAWS}[name]
    reference = UNIT_BASIS_REFERENCES[name]
    trials = range(cfg.trials)
    return (
        [law(rng_for(cfg, t), cfg).defect for t in trials],
        [reference(rng_for(cfg, t), cfg) for t in trials],
    )


@pytest.mark.parametrize("max_dim", [GeneratorConfig().max_block_dim, 8])
@pytest.mark.parametrize("name", list(UNIT_BASIS_REFERENCES))
def test_unit_basis_laws_match_the_per_unit_reference(name, max_dim):
    cfg = GeneratorConfig(seed=42, trials=40, max_block_dim=max_dim)
    got, want = _defects(name, cfg)
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-14


def _compose_homs_runs_by_middle_block(outer, inner):
    """compose_homs with the runs of each target block taken by (y, z), not (z, y)."""
    conjugators = []
    for u, segs in zip(outer.conjugators, outer.segments):
        perm = [
            i
            for seg, runs, n in zip(segs, inner.segments, inner.target.block_dims)
            for run in runs
            for lo in range(seg.start, seg.stop, n)
            for i in range(lo + run.start, lo + run.stop)
        ]
        w = maps._standard_block(inner.conjugators, segs)
        conjugators.append((u @ w)[:, perm])
    mult = (np.array(inner.mult) @ np.array(outer.mult)).tolist()
    return StarHom(inner.source, outer.target, mult, tuple(conjugators))


def _hom_from_raw_conjugated(raw):
    f = hom_from_raw(raw)
    return StarHom(f.source, f.target, f.mult, tuple(u.conj() for u in f.conjugators))


@pytest.mark.parametrize(
    "name, target, mutant",
    [
        ("hom-composition", "compose_homs", _compose_homs_runs_by_middle_block),
        ("hom-raw-roundtrip", "hom_from_raw", _hom_from_raw_conjugated),
    ],
    ids=["runs-by-middle-block", "conjugated-conjugators"],
)
def test_unit_basis_laws_fail_a_mutant_where_the_reference_does(
    monkeypatch, name, target, mutant
):
    monkeypatch.setattr(laws, target, mutant)
    tol = {n: t for n, t, _ in LAWS}[name]
    got, want = _defects(name, GeneratorConfig(seed=42, trials=200))
    failing = [t for t, d in enumerate(want) if not d <= tol]
    assert failing  # the mutant is caught at all
    assert [t for t, d in enumerate(got) if not d <= tol] == failing
    assert np.allclose(got, want, rtol=1e-12, atol=1e-14)  # the worst unit's distance


def _hom_image_conjugated_the_wrong_way(f, blocks):
    """U^H (standard block) U in place of U (standard block) U^H."""
    return [
        u.conj().T @ maps._standard_block(blocks, segs) @ u
        for segs, u in zip(f.segments, f.conjugators)
    ]


def _hom_image_copy_index_inside(f, blocks):
    """U (directsum_y kron(b_y, 1_c)) U^H: the copy index as the inner factor."""
    images = []
    for segs, u in zip(f.segments, f.conjugators):
        m = segs[-1].stop
        out = np.zeros(blocks[0].shape[:-2] + (m, m), dtype=np.complex128)
        for b, seg in zip(blocks, segs):
            c = (seg.stop - seg.start) // b.shape[-1]
            for p in range(c):  # copy p takes every c-th row and column of seg
                out[..., seg.start + p : seg.stop : c, seg.start + p : seg.stop : c] = b
        images.append(u @ out @ u.conj().T)
    return images


@pytest.mark.parametrize(
    "mutant, cfg",
    [
        (_hom_image_conjugated_the_wrong_way, GeneratorConfig(seed=42, trials=10)),
        # survives 200 trials at the default bounds; trial 2 is the first
        # that all three unit-basis laws fail at max_block_dim=6
        (_hom_image_copy_index_inside, GeneratorConfig(seed=42, trials=3, max_block_dim=6)),
    ],
    ids=["conjugated-the-wrong-way", "copy-index-inside"],
)
def test_unit_basis_laws_fail_a_mutant_of_the_shared_hom_evaluator(monkeypatch, mutant, cfg):
    # apply_hom and the unit-basis laws both evaluate through maps._hom_image
    monkeypatch.setattr(maps, "_hom_image", mutant)
    monkeypatch.setattr(laws, "_hom_image", mutant)
    report = run_laws(cfg)
    assert {r.name for r in report.results if not r.passed} == set(UNIT_BASIS_REFERENCES)


def _reference_matrix_units(alg):
    """(y, i, j, blocks) per matrix unit, one np.zeros set per unit, in the
    order of matrix_units(); the blocks complex as an AlgebraElement holds them."""
    for y, n in enumerate(alg.block_dims):
        for j in range(n):
            for i in range(n):
                blocks = [np.zeros((k, k)) for k in alg.block_dims]
                blocks[y][i, j] = 1.0
                yield y, i, j, [b.astype(np.complex128) for b in blocks]


def _same_arrays(a, b) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(p, q) and p.dtype == q.dtype for p, q in zip(a, b)
    )


def test_unit_columns_match_the_matrix_unit_stacks(monkeypatch):
    # every algebra the unit-basis laws list over 40 trials at seed 42
    algebras, unit_columns = [], AlgebraSpec._unit_columns

    def recording(alg):
        algebras.append(alg)
        return unit_columns(alg)

    monkeypatch.setattr(AlgebraSpec, "_unit_columns", recording)
    cfg = GeneratorConfig(seed=42, trials=40)
    for name, fn in ((n, fn) for n, _, fn in LAWS if n in UNIT_BASIS_REFERENCES):
        for t in range(cfg.trials):
            fn(rng_for(cfg, t), cfg)
    # hom_from_raw lists the units of an algebra the law listed already
    listed = list({id(alg): alg for alg in algebras}.values())
    assert len(listed) == 3 * cfg.trials
    for alg in listed:
        got = list(unit_columns(alg))
        units = itertools.groupby(_reference_matrix_units(alg), key=lambda u: (u[0], u[2]))
        want = [
            (y, j, list(map(np.array, zip(*(blocks for *_, blocks in col)))))
            for (y, j), col in units
        ]
        assert [(y, j) for y, j, _ in got] == [(y, j) for y, j, _ in want]
        for (_, _, a), (_, _, b) in zip(got, want):
            assert len(a) == alg.num_blocks and _same_arrays(a, b)
        # matrix_units() reads the same stacks: same order, values and dtype
        elements = list(alg.matrix_units())
        reference = list(_reference_matrix_units(alg))
        assert [u[:3] for u in elements] == [u[:3] for u in reference]
        for (*_, e), (*_, blocks) in zip(elements, reference):
            assert _same_arrays(e.blocks, blocks)


def test_run_laws_evaluates_the_unit_basis_laws_a_column_per_call(monkeypatch):
    calls, apply = [], laws.apply_hom

    def spy(f, a):
        calls.append(a)
        return apply(f, a)

    monkeypatch.setattr(laws, "apply_hom", spy)
    assert run_laws(GeneratorConfig(seed=42, trials=10)).ok
    assert len(calls) <= 250  # one call per matrix unit made 682
