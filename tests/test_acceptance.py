"""Top-level acceptance checks.

Every criterion prints one PASS/FAIL line (bypassing capture) and then
asserts, so a verbose run shows the whole scoreboard.  Criteria 1 and 2 share
one batch of 200 seeded faithful composable pairs.
"""

import math
import time

import numpy as np
import pytest

from ncstat.algebra import AlgebraSpec, State
from ncstat.entropy import (
    chain_rule_report,
    convex_sum_morphisms,
    re_expansions,
    re_functor,
    relative_entropy,
)
from ncstat.generators import (
    GeneratorConfig,
    gen_algebra,
    gen_alpha_family,
    gen_classical_distribution,
    gen_composable_pair,
    gen_density,
    gen_morphism,
    gen_optimal_morphism,
    gen_star_hom,
    gen_state,
    rng_for,
)
from ncstat.hypotheses import (
    build_hypothesis_from_alphas,
    compose_morphisms,
    extract_alphas,
    rectify_morphism,
    rectify_pair,
)

CFG = GeneratorConfig(seed=42, trials=200, max_blocks=3, max_block_dim=3)

LN2 = math.log(2)


def report(capsys, index, name, ok, detail):
    line = f"[{index:>2}/10] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


@pytest.fixture(scope="module")
def faithful_pairs():
    start = time.perf_counter()
    pairs = [gen_composable_pair(CFG, rng_for(CFG, t)) for t in range(CFG.trials)]
    return pairs, time.perf_counter() - start


def test_functoriality_additivity(faithful_pairs, capsys):
    pairs, build_time = faithful_pairs
    start = time.perf_counter()
    worst = 0.0
    for inner, outer in pairs:
        total = re_functor(compose_morphisms(inner, outer))
        parts = re_functor(inner) + re_functor(outer)
        worst = max(worst, abs(total - parts))
    elapsed = build_time + (time.perf_counter() - start)
    ok = worst <= 1e-8 and elapsed <= 30.0
    report(
        capsys,
        1,
        "functoriality over 200 faithful pairs",
        ok,
        f"max defect {worst:.3e} <= 1e-8, {elapsed:.1f}s <= 30s",
    )


def test_expansion_identities(faithful_pairs, capsys):
    pairs, _ = faithful_pairs
    worst = 0.0
    for inner, outer in pairs:
        g, f = rectify_pair(inner, outer).morphisms
        worst = max(worst, *re_expansions(g, f).defects)
    report(
        capsys,
        2,
        "segment expansions of the three relative entropies",
        worst <= 1e-8,
        f"max defect {worst:.3e} <= 1e-8",
    )


def test_vanishing_on_optimal_morphisms(capsys):
    worst = 0.0
    for t in range(200):
        m = gen_optimal_morphism(CFG, rng_for(CFG, t))
        worst = max(worst, abs(re_functor(m)))
    report(
        capsys,
        3,
        "relative entropy vanishes on 200 optimal morphisms",
        worst <= 1e-9,
        f"max |RE| {worst:.3e} <= 1e-9",
    )


def test_rectification_invariance(capsys):
    worst = 0.0
    for t in range(200):
        m = gen_morphism(CFG, rng_for(CFG, t))
        before = re_functor(m)
        after = re_functor(rectify_morphism(m).morphism)
        if math.isinf(before) or math.isinf(after):
            worst = max(worst, 0.0 if before == after else math.inf)
        else:
            worst = max(worst, abs(before - after))
    report(
        capsys,
        4,
        "invariance under stripping Haar conjugators (200 morphisms)",
        worst <= 1e-9,
        f"max |before-after| {worst:.3e} <= 1e-9",
    )


def test_affinity(capsys):
    worst = 0.0
    for t in range(50):
        rng = rng_for(CFG, t)
        m1 = gen_morphism(CFG, rng, faithful=True)
        m2 = gen_morphism(CFG, rng, faithful=True)
        r1, r2 = re_functor(m1), re_functor(m2)
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            value = re_functor(convex_sum_morphisms(lam, m1, m2))
            worst = max(worst, abs(value - (lam * r1 + (1 - lam) * r2)))
    report(
        capsys,
        5,
        "affinity over convex sums (50 pairs x 5 weights)",
        worst <= 1e-9,
        f"max defect {worst:.3e} <= 1e-9",
    )


def test_chain_rule(capsys):
    worst = 0.0
    for t in range(50):
        rng = rng_for(CFG, t)
        rho = gen_density(rng, 8, faithful=bool(t % 2))
        worst = max(worst, chain_rule_report(rho, (2, 2, 2)).max_defect)

    psi = np.zeros(8)
    psi[0] = psi[7] = 1 / math.sqrt(2)
    ghz = chain_rule_report(np.outer(psi, psi), (2, 2, 2))
    ghz_defect = abs(ghz.re_composite - 3 * LN2)

    mixed = chain_rule_report(np.eye(8) / 8, (2, 2, 2))
    mixed_worst = max(abs(mixed.re_composite), abs(mixed.re_inner), abs(mixed.re_outer))

    ok = worst <= 1e-9 and ghz_defect <= 1e-9 and mixed_worst <= 1e-10
    report(
        capsys,
        6,
        "conditional entropy chain rule and its RE form",
        ok,
        f"50 densities {worst:.3e} <= 1e-9, GHZ {ghz_defect:.3e}, mixed {mixed_worst:.3e}",
    )


def test_classical_reduction(capsys):
    worst = 0.0
    for t in range(100):
        rng = rng_for(CFG, t)
        n = int(rng.integers(2, 7))
        alg = AlgebraSpec((1,) * n)
        p = gen_classical_distribution(rng, n)
        q = gen_classical_distribution(rng, n)
        value = relative_entropy(
            State(alg, tuple(np.array([[v]]) for v in p)),
            State(alg, tuple(np.array([[v]]) for v in q)),
        )
        kl = float(sum(pi * math.log(pi / qi) for pi, qi in zip(p, q)))
        worst = max(worst, abs(value - kl))

    alg2 = AlgebraSpec((1, 1))
    spot = relative_entropy(
        State(alg2, (np.array([[0.5]]), np.array([[0.5]]))),
        State(alg2, (np.array([[0.75]]), np.array([[0.25]]))),
    )
    spot_defect = abs(spot - 0.5 * math.log(4.0 / 3.0))
    ok = worst <= 1e-12 and spot_defect <= 1e-12
    report(
        capsys,
        7,
        "classical KL reduction on commutative algebras",
        ok,
        f"100 pairs {worst:.3e} <= 1e-12, spot {spot_defect:.3e}",
    )


def test_infinite_branch(capsys):
    cfg = GeneratorConfig(seed=42, trials=100, faithful_only=False)
    infinite = 0
    for t in range(cfg.trials):
        rng = rng_for(cfg, t)
        alg = gen_algebra(rng, cfg)
        s1 = gen_state(alg, cfg, rng, faithful=True)
        s2 = gen_state(alg, cfg, rng)
        if math.isinf(relative_entropy(s1, s2)):
            infinite += 1
    mixed = State(AlgebraSpec((2,)), (np.eye(2) / 2,))
    pure = State(AlgebraSpec((2,)), (np.diag([1.0, 0.0]),))
    deterministic = math.isinf(relative_entropy(mixed, pure))
    ok = infinite >= 1 and deterministic
    report(
        capsys,
        8,
        "infinite branch when absolute continuity fails",
        ok,
        f"{infinite}/100 generated instances infinite, mixed vs pure = inf",
    )


def test_nonnegativity(capsys):
    lowest = math.inf
    for t in range(200):
        value = re_functor(gen_morphism(CFG, rng_for(CFG, t)))
        if not math.isinf(value):
            lowest = min(lowest, value)
    report(
        capsys,
        9,
        "relative entropy of a hypothesis is never negative",
        lowest >= -1e-10,
        f"min RE {lowest:.3e} >= -1e-10",
    )


def test_disintegration_roundtrip(capsys):
    worst = 0.0
    for t in range(100):
        rng = rng_for(CFG, t)
        alg = gen_algebra(rng, CFG)
        hom = gen_star_hom(rng, alg, CFG, standard=True)
        xi = gen_state(alg, CFG, rng, faithful=True)
        fam = gen_alpha_family(rng, hom.mult)
        m = build_hypothesis_from_alphas(hom, xi, fam)
        back = extract_alphas(m)
        for y, row in enumerate(fam.blocks):
            for x, alpha in enumerate(row):
                if alpha is None:
                    continue
                worst = max(worst, float(np.linalg.norm(back.blocks[y][x] - alpha)))
    report(
        capsys,
        10,
        "alpha extraction inverts hypothesis construction (100 families)",
        worst <= 1e-10,
        f"max |alpha - alpha'| {worst:.3e} <= 1e-10",
    )
