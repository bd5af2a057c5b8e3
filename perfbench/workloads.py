"""The benchmark's workloads: seeded inputs, one timed operation, its check.

Every workload but ``laws`` makes its inputs from the seed in ``setup``, and
the package sees only those inputs.  ``run`` performs one operation with tracing off
and returns the CPU time of each item it timed, together with how many
checked results it produced and how many of them failed.  After each timed
item it calls ``tick`` with the item's CPU time, outside the timed region;
the benchmark runs its reference kernel there.  ``trace_op`` is the operation the traced run
repeats a fixed number of times, so that two traced runs at one seed make
exactly the same calls.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
import zlib
from dataclasses import dataclass
from time import perf_counter, process_time
from typing import Callable

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

RE_ATOL = 1e-9
# The laws workload runs the first LAW_TRIALS trial streams of
# ``ncstat check --seed 42``, whatever the benchmark seed.  The suite's cost is
# set by the instance sizes its generators draw; at 20 trials per law it moves
# by about 30% from one seed to the next, which would hide any change in code.
LAW_SEED = 42
LAW_TRIALS = 10
POOL = 4  # distinct inputs per small ladder rung and per obstructed pass


@dataclass
class Sample:
    durations: list[float]  # CPU seconds, one per timed item, in a fixed order
    busy_s: float  # wall time the package spent on them
    attempted: int
    check: Callable[[], int]  # failed results; called outside timing and tracing
    rss_kb: int = 0  # peak RSS of a child process, where one ran


def seeded_rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def haar(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def density(rng: np.random.Generator, n: int, weight: float) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    d = g @ g.conj().T + 0.1 * np.eye(n)
    return d * (weight / np.trace(d).real)


def ladder_input(rng: np.random.Generator, side: int):
    """A hom (k) + (k) -> (side), k = side/4, each source block twice, Haar conjugator.

    Returns the hom, a target state that disintegrates along it (built here
    as U (alpha_0 (x) xi_0 + alpha_1 (x) xi_1) U*), and a coherent full-rank
    target state that does not.
    """
    from ncstat import AlgebraSpec, StarHom, State

    k = side // 4
    u = haar(rng, side)
    hom = StarHom(AlgebraSpec((k, k)), AlgebraSpec((side,)), ((2,), (2,)), (u,))
    q = rng.uniform(0.3, 0.7)
    std = np.zeros((side, side), dtype=np.complex128)
    for y, w in enumerate((q, 1 - q)):
        seg = slice(2 * k * y, 2 * k * (y + 1))
        std[seg, seg] = np.kron(density(rng, 2, 1.0), density(rng, k, w))
    omega = State(hom.target, (u @ std @ u.conj().T,))
    coherent = State(hom.target, (density(rng, side, 1.0),))
    return hom, omega, coherent


def independent_re(rho_blocks, sigma_blocks, cutoff: float = 1e-12) -> float:
    """S(rho || sigma) from numpy eigendecompositions, independent of ncstat."""
    total = 0.0
    for r, s in zip(rho_blocks, sigma_blocks):
        lam, u = np.linalg.eigh((r + r.conj().T) / 2)
        mu, v = np.linalg.eigh((s + s.conj().T) / 2)
        keep_r = lam > cutoff * max(lam[-1], 0.0)
        keep_s = mu > cutoff * max(mu[-1], 0.0)
        if not keep_r.any():
            continue
        lam, u = lam[keep_r], u[:, keep_r]
        outside = u - v[:, keep_s] @ (v[:, keep_s].conj().T @ u)
        if np.linalg.norm(outside) > 1e-6:
            return math.inf
        overlaps = np.abs(u.conj().T @ v[:, keep_s]) ** 2
        total += float(lam @ np.log(lam)) - float(lam @ overlaps @ np.log(mu[keep_s]))
    return total


def re_agrees(value: float, rho_blocks, sigma_blocks) -> bool:
    ref = independent_re(rho_blocks, sigma_blocks)
    if math.isinf(value) or math.isinf(ref):
        return math.isinf(value) and math.isinf(ref)
    return abs(value - ref) <= RE_ATOL * (1.0 + abs(ref))


def no_tick(cpu_s: float) -> None:
    pass


def _one(fn, tick=no_tick) -> Sample:
    """Time one call of fn, which returns the predicate that checks its result."""
    t0, c0 = perf_counter(), process_time()
    ok = fn()
    cpu, wall = process_time() - c0, perf_counter() - t0
    tick(cpu)
    return Sample([cpu], wall, 1, lambda: 0 if ok() else 1)


# ---------------------------------------------------------------------------


class Laws:
    """``run_laws`` at the default bounds (<= 3 blocks, side <= 3), seed 42."""

    name = "laws"
    children = False  # the work runs in this process
    cycle = 1  # every call repeats the same config, one trial of each law per item
    expects = (
        "algebra.hermitian_eigen",
        "algebra.support_projection",
        "algebra.absolutely_continuous",
        "algebra.hermitian_pinv",
        "algebra.validate_state",
        "maps.apply_hom",
        "maps.apply_cpu",
        "maps.compose_cpu",
        "maps.cpu_pushforward_state",
        "maps.pushforward_state",
        "maps.choi_from_function",
        "maps.ad_cpu",
        "maps.validate_cpu",
        "maps.hom_from_raw",
        "hypotheses.validate_morphism",
        "hypotheses.is_optimal",
        "hypotheses.rectify_morphism",
        "hypotheses.rectify_pair",
        "hypotheses.compose_morphisms",
        "hypotheses.extract_alphas",
        "hypotheses.build_hypothesis_from_alphas",
        "hypotheses.construct_optimal_hypothesis",
        "entropy.relative_entropy",
        "entropy.re_functor",
        "entropy.chain_rule_report",
        "entropy.re_expansions",
        "entropy.convex_sum_morphisms",
        "generators.gen_state",
        "generators.gen_morphism",
        "generators.gen_optimal_morphism",
        "generators.gen_composable_pair",
        "numpy.eigh",
        "numpy.eigvalsh",
        "numpy.norm2",
        "numpy.einsum",
    )

    def trace_count(self, seconds: int) -> int:
        return max(1, seconds)

    def setup(self, seed: int, workdir: str) -> dict:
        from ncstat import laws

        return {"laws": laws, "law_ms": {}}

    def run(self, state: dict, i: int, tick=no_tick) -> Sample:
        from ncstat import GeneratorConfig, run_laws

        laws = state["laws"]
        table = laws.LAWS
        durations: list[float] = []
        walls: list[float] = []

        def timed(fn):
            def call(rng, cfg):
                t0, c0 = perf_counter(), process_time()
                out = fn(rng, cfg)
                durations.append(process_time() - c0)
                walls.append(perf_counter() - t0)
                tick(durations[-1])
                return out

            return call

        cfg = GeneratorConfig(seed=LAW_SEED, trials=LAW_TRIALS)
        laws.LAWS = tuple((name, tol, timed(fn)) for name, tol, fn in table)
        try:
            report = run_laws(cfg)
        finally:
            laws.LAWS = table
        busy = sum(walls)
        # report.ok, every trial of every law ran, the infinite branch was hit
        attempted = len(table) * LAW_TRIALS
        ran = {r.name: r for r in report.results}
        failed = sum(r.failures for r in report.results)
        failed += sum(LAW_TRIALS - ran[n].trials if n in ran else LAW_TRIALS for n, _, _ in table)
        coverage = ran.get("relative-entropy-infinity-coverage")
        if not report.ok or coverage is None or coverage.infinite_count == 0:
            failed = max(failed, 1)
        failed = min(failed, attempted)
        return Sample(durations, busy, attempted, lambda: failed)

    def trace_op(self, state: dict, i: int) -> Sample:
        """Trial i of every law, driving the ``laws.LAWS`` entries directly."""
        from ncstat import GeneratorConfig, rng_for

        cfg = GeneratorConfig(seed=LAW_SEED, trials=max(i + 1, LAW_TRIALS))
        durations, failed = [], 0
        for name, tol, fn in state["laws"].LAWS:
            t0 = perf_counter()
            out = fn(rng_for(cfg, i), cfg)
            dt = perf_counter() - t0
            durations.append(dt)
            state["law_ms"].setdefault(name, []).append(dt * 1e3)
            failed += not (out.skipped or out.defect <= tol)
        return Sample(durations, sum(durations), len(durations), lambda: failed)


def pipeline_input(rng: np.random.Generator, side: int) -> tuple:
    hom, omega, _ = ladder_input(rng, side)
    return "pipeline", hom, omega


def pipeline_check(hom, omega) -> Callable[[], bool]:
    """Disintegrate, validate, rectify and score; returns the check of the results."""
    from ncstat import (
        NCMorphism,
        construct_optimal_hypothesis,
        cpu_pushforward_state,
        is_optimal,
        re_functor,
        rectify_morphism,
        validate_morphism,
    )

    m = construct_optimal_hypothesis(hom, omega)
    if not isinstance(m, NCMorphism):
        return lambda: False
    report = validate_morphism(m)
    rect = rectify_morphism(m)
    value = re_functor(m)

    def check() -> bool:
        back = cpu_pushforward_state(m.source.state, m.cpu)
        return (
            report.ok
            and is_optimal(m)[0]
            and abs(value) <= RE_ATOL
            and re_agrees(value, m.target.state.densities, back.densities)
            and rect.morphism.hom.is_standard()
            and abs(re_functor(rect.morphism) - value) <= RE_ATOL
        )

    return check


def hom_raw_input(rng: np.random.Generator, n: int) -> tuple:
    """A hom (n) -> (2n) with a Haar conjugator, and its raw matrix."""
    from ncstat import AlgebraSpec, StarHom, hom_to_raw

    f = StarHom(AlgebraSpec((n,)), AlgebraSpec((2 * n,)), ((2,),), (haar(rng, 2 * n),))
    return "hom-raw", f, hom_to_raw(f)


def hom_raw_check(f, raw) -> Callable[[], bool]:
    """``hom_from_raw`` on raw; returns the check that it gives f back."""
    from ncstat import apply_hom, hom_from_raw

    back = hom_from_raw(raw)

    def check() -> bool:
        if back.mult != f.mult:
            return False
        return all(
            apply_hom(back, e).distance(apply_hom(f, e)) <= 1e-8
            for _, _, _, e in f.source.matrix_units()
        )

    return check


class Ladder:
    """One pass climbs the rungs: the pipeline at each target side, then ``hom_from_raw``.

    A pipeline item is ``construct_optimal_hypothesis``, ``validate_morphism``,
    ``rectify_morphism`` and ``re_functor`` on one hom/state pair; a hom-raw
    item is one ``hom_from_raw`` round trip.
    """

    expects = (
        "hypotheses.construct_optimal_hypothesis",
        "hypotheses.build_hypothesis_from_alphas",
        "hypotheses.validate_morphism",
        "hypotheses.rectify_morphism",
        "maps.compose_cpu",
        "maps.ad_cpu",
        "maps.choi_from_function",
        "maps.validate_cpu",
        "maps.apply_cpu",
        "maps.apply_hom",
        "maps.pushforward_state",
        "maps.cpu_pushforward_state",
        "maps.hom_from_raw",
        "entropy.re_functor",
        "entropy.relative_entropy",
        "algebra.absolutely_continuous",
        "algebra.hermitian_eigen",
        "numpy.einsum",
        "numpy.eigh",
    )

    children = False

    def __init__(self, name: str, sides: dict[int, int], hom_raw: dict[int, int]):
        """sides and hom_raw map a target side, or a hom_from_raw source side, to its input count."""
        self.name = name
        self.rungs = [(f"side{s}", pipeline_input, s) for s, k in sides.items() for _ in range(k)]
        self.rungs += [(f"hom-raw{n}", hom_raw_input, n) for n, k in hom_raw.items() for _ in range(k)]
        self.cycle = len(self.rungs)
        self.labels = [label for label, _, _ in self.rungs]

    def trace_count(self, seconds: int) -> int:
        return self.cycle * max(1, seconds // 12)

    def setup(self, seed: int, workdir: str) -> dict:
        rng = seeded_rng(seed, self.name)
        return {"inputs": [make(rng, size) for _, make, size in self.rungs]}

    def run(self, state: dict, i: int, tick=no_tick) -> Sample:
        kind, a, b = state["inputs"][i % self.cycle]
        return _one(lambda: (pipeline_check if kind == "pipeline" else hom_raw_check)(a, b), tick)

    trace_op = run


class Obstructed:
    """``construct_optimal_hypothesis`` on coherent targets: the rejection path."""

    name = "obstructed"
    children = False
    expects = ("hypotheses.construct_optimal_hypothesis", "maps.pushforward_state")
    cycle = POOL

    def __init__(self, side: int):
        self.side = side

    def trace_count(self, seconds: int) -> int:
        return 20 * seconds

    def setup(self, seed: int, workdir: str) -> dict:
        rng = seeded_rng(seed, self.name)
        pool = []
        for _ in range(self.cycle):
            hom, _, coherent = ladder_input(rng, self.side)
            pool.append((hom, coherent))
        return {"inputs": pool}

    def run(self, state: dict, i: int, tick=no_tick) -> Sample:
        from ncstat import NoDisintegration, construct_optimal_hypothesis

        hom, coherent = state["inputs"][i % self.cycle]

        def attempt():
            result = construct_optimal_hypothesis(hom, coherent)
            return lambda: isinstance(result, NoDisintegration)

        return _one(attempt, tick)

    trace_op = run


# ---------------------------------------------------------------------------


@dataclass
class Command:
    argv: list[str]
    exit_code: int  # what the command must return
    output: str | None = None  # file written through -o, compared byte for byte
    re_pair: Callable[[], tuple] | None = None  # densities behind a printed entropy
    stdout: str = ""  # filled in from the in-process run
    file_bytes: bytes = b""


class Cli:
    """``python -m ncstat.cli`` commands on small JSON files, one at a time."""

    name = "cli"
    children = True  # each command is a fresh interpreter
    expects = ("serialize.read_json", "serialize.load_any", "serialize.write_json")
    cycle = 8  # every command once

    def trace_count(self, seconds: int) -> int:
        return self.cycle * max(1, seconds // 5)

    def setup(self, seed: int, workdir: str) -> dict:
        from ncstat import AlgebraSpec, GeneratorConfig, cpu_pushforward_state, rng_for
        from ncstat.generators import gen_composable_pair, gen_morphism, gen_state
        from ncstat.serialize import hom_to_json, matrix_to_json, morphism_to_json
        from ncstat.serialize import state_to_json, write_json

        os.makedirs(workdir, exist_ok=True)
        cfg = GeneratorConfig(seed=seed, trials=4)
        rng = seeded_rng(seed, self.name)
        m = gen_morphism(cfg, rng_for(cfg, 0), faithful=True)
        inner, outer = gen_composable_pair(cfg, rng_for(cfg, 1))
        s1 = gen_state(AlgebraSpec((2, 3)), cfg, rng_for(cfg, 2))
        s2 = gen_state(AlgebraSpec((2, 3)), cfg, rng_for(cfg, 3), faithful=True)
        hom, omega, coherent = ladder_input(rng, 4)

        def put(name, doc):
            path = os.path.join(workdir, f"{name}.json")
            write_json(path, doc)
            return path

        def out(name):
            return os.path.join(workdir, f"{name}.out.json")

        m_path = put("m", morphism_to_json(m))
        hom_path = put("hom", hom_to_json(hom))
        commands = [
            Command(["validate", m_path], 0),
            Command(
                ["re", m_path], 0,
                re_pair=lambda: (
                    m.target.state.densities,
                    cpu_pushforward_state(m.source.state, m.cpu).densities,
                ),
            ),
            Command(
                ["rel-entropy", put("s1", state_to_json(s1)), put("s2", state_to_json(s2))],
                0, re_pair=lambda: (s1.densities, s2.densities),
            ),
            Command(["rectify", m_path, "-o", out("rectify")], 0, out("rectify")),
            Command(
                [
                    "compose",
                    put("inner", morphism_to_json(inner)),
                    put("outer", morphism_to_json(outer)),
                    "-o", out("compose"),
                ],
                0, out("compose"),
            ),
            Command(
                ["disintegrate", hom_path, put("omega", state_to_json(omega)), "-o", out("dis")],
                0, out("dis"),
            ),
            Command(["disintegrate", hom_path, put("coherent", state_to_json(coherent))], 1),
            Command(
                ["chain-rule", put("rho", matrix_to_json(density(rng, 8, 1.0))), "--dims", "2,2,2"],
                0,
            ),
        ]
        return {"commands": commands, "workdir": workdir}

    def prepare(self, state: dict) -> int:
        """Record every command's in-process output; returns the number that failed."""
        failed = 0
        for cmd in state["commands"]:
            code, cmd.stdout = self._in_process(cmd)
            if cmd.output:
                with open(cmd.output, "rb") as fh:
                    cmd.file_bytes = fh.read()
            if cmd.re_pair is not None:
                failed += not re_agrees(float(cmd.stdout), *cmd.re_pair())
            failed += code != cmd.exit_code
        return failed

    @staticmethod
    def _in_process(cmd: Command) -> tuple[int, str]:
        from ncstat.cli import main

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(list(cmd.argv))
        return code, buf.getvalue()

    def _matches(self, cmd: Command, code: int, text: str) -> bool:
        if code != cmd.exit_code or text != cmd.stdout:
            return False
        if cmd.output:
            with open(cmd.output, "rb") as fh:
                return fh.read() == cmd.file_bytes
        return True

    def run(self, state: dict, i: int, tick=no_tick) -> Sample:
        cmd = state["commands"][i % self.cycle]
        env = dict(os.environ, PYTHONPATH=SRC)
        log = os.path.join(state["workdir"], "stdout.txt")
        if cmd.output and os.path.exists(cmd.output):
            os.remove(cmd.output)
        with open(log, "w") as out, open(os.devnull, "w") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "ncstat.cli", *cmd.argv],
                stdout=out, stderr=err, env=env, cwd=ROOT,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            dt = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(log) as fh:
            ok = self._matches(cmd, proc.returncode, fh.read())
        cpu = usage.ru_utime + usage.ru_stime
        tick(cpu)
        return Sample([cpu], dt, 1, lambda: 0 if ok else 1, usage.ru_maxrss)

    def trace_op(self, state: dict, i: int) -> Sample:
        """The same command through ``ncstat.cli.main`` in this process."""
        cmd = state["commands"][i % self.cycle]
        t0 = perf_counter()
        code, text = self._in_process(cmd)
        dt = perf_counter() - t0
        ok = self._matches(cmd, code, text)
        return Sample([dt], dt, 1, lambda: 0 if ok else 1)


WORKLOADS = {
    w.name: w
    for w in (
        Laws(),
        Ladder("ladder", sides={4: POOL, 8: POOL, 16: POOL, 32: 1}, hom_raw={8: POOL}),
        Obstructed(32),
        Cli(),
    )
}

# One pass over each probe's inputs is appended to every traced run, so that
# every per-layer metric is measured on every workload.
PROBES = (
    Laws(),
    Ladder("ladder-small", sides={4: 1}, hom_raw={4: 1}),
    Obstructed(32),
    Cli(),
)
