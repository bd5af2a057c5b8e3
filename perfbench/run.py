"""ncstat benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.  With
``--trace 0`` the workload's operation is repeated for S seconds with tracing
off and the end-to-end metrics are printed: CPU times, scaled by the speed of
a reference kernel timed between operations (reference.py).  With
``--trace 1`` a fixed amount of work, set by S and the seed, is run once untraced and once traced,
and the per-layer metrics are printed.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See NOTES.md for the workloads and what each metric should respond to.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")

SETUP_REPS = 7  # fresh processes timed for setup_s; the median is reported
# CPU seconds of workload between two runs of the reference kernel, in this
# process and in a fresh interpreter.
REF_EVERY_S = 0.2
REF_EVERY_CHILD_S = 0.6
IMPORT_REPS = 3

# One fresh interpreter doing exactly a workload's setup: import + inputs.
SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.WORKLOADS[sys.argv[3]].setup(int(sys.argv[4]), sys.argv[5])"
)
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def machine_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "pins_cpus": False,
        "drops_caches": False,
    }


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, never below the median.

    Returns (value, percentile).  Fewer than 21 samples give the median.
    """
    v = sorted(values)
    idx = max(len(v) - 11, len(v) // 2)
    return v[idx], 100.0 * (idx + 1) / len(v)


def time_setup(name: str, seed: int, workdir: str) -> float:
    """CPU seconds of a fresh interpreter doing exactly the workload's setup."""
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_CODE, BENCH_DIR, SRC, name, str(seed), workdir],
        cwd=ROOT,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return usage.ru_utime + usage.ru_stime


def measure(w, seed: int, seconds: int, workdir: str) -> tuple[dict, int, int, dict]:
    import reference

    setups, setup_refs = [], []
    for _ in range(SETUP_REPS):
        setups.append(time_setup(w.name, seed, workdir))
        setup_refs.append(reference.in_child(ROOT))
    if w.children:  # the work runs in fresh interpreters; gauge with one too
        gauge, every = lambda: reference.in_child(ROOT), REF_EVERY_CHILD_S
        nominal = reference.NOMINAL_CHILD_S
    else:
        gauge, every, nominal = reference.in_process, REF_EVERY_S, reference.NOMINAL_S
    state = w.setup(seed, workdir)
    failed = w.prepare(state) if hasattr(w, "prepare") else 0
    attempted = 0
    for i in range(w.cycle):  # warm-up pass, checked but not timed
        s = w.run(state, i)
        attempted += s.attempted
        failed += s.check()
    gc.collect()  # start the timed loop with no garbage left from setup
    # CPU times of each item, keyed (operation % cycle, item): the inputs are
    # used in a fixed cycle, so operation i repeats operation i - cycle.
    # Only floats are kept, so the bookkeeping adds no work for the collector.
    times: dict[tuple[int, int], list[float]] = {}
    walls: list[float] = []
    refs: list[float] = []
    since_ref = every

    def tick(cpu_s: float) -> None:
        """Run the reference kernel once ``every`` CPU seconds of workload have passed."""
        nonlocal since_ref
        since_ref += cpu_s
        if since_ref >= every:
            refs.append(gauge())
            since_ref = 0.0

    child_rss = 0
    tick(0.0)
    start = perf_counter()
    # Start an operation only if one more of the last length still fits.
    while len(walls) < w.cycle or perf_counter() - start + walls[-1] <= seconds:
        i = len(walls)
        s = w.run(state, i, tick)
        failed += s.check()
        attempted += s.attempted
        child_rss = max(child_rss, s.rss_kb)
        for j, d in enumerate(s.durations):
            times.setdefault((i % w.cycle, j), []).append(d)
        walls.append(s.busy_s)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, child_rss)

    medians = {key: statistics.median(v) for key, v in times.items()}
    per_item = list(medians.values())
    tail_value, tail_pct = tail(walls)
    pass_s = sum(per_item)
    scale = nominal / statistics.median(refs)
    setup_scale = reference.NOMINAL_CHILD_S / statistics.median(setup_refs)
    metrics = {
        "pass_scaled_ms": (pass_s * scale * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MiB"),
        "setup_s": (statistics.median(setups) * setup_scale, "s"),
    }
    detail = {
        "operations": len(walls),
        "samples": sum(len(v) for v in times.values()),
        "items": len(per_item),
        "passes": len(walls) // w.cycle,
        "pass_cpu_ms": pass_s * 1e3,
        "scale": scale,
        "setup_scale": setup_scale,
        "wall_p50_ms": statistics.median(walls) * 1e3,
        "wall_tail_ms": tail_value * 1e3,
        "wall_tail_percentile": tail_pct,
        "cpu_share": sum(sum(v) for v in times.values()) / sum(walls),
        "refs": len(refs),
        "setup_cpu_s": setups,
    }
    labels = getattr(w, "labels", None)
    if labels:  # the ladder: scaled median CPU time of each rung
        rungs: dict[str, list[float]] = {}
        for (i, _), v in medians.items():
            rungs.setdefault(labels[i], []).append(v * scale * 1e3)
        detail["rung_scaled_ms"] = {k: statistics.median(v) for k, v in rungs.items()}
    return metrics, attempted, failed, detail


def import_times() -> dict:
    """Interpreter start, numpy import and ncstat import, from ``-X importtime``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    runs = []
    for _ in range(IMPORT_REPS):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import ncstat.cli"],
            capture_output=True, text=True, check=True, env=env, cwd=ROOT,
        )
        wall_ms = (perf_counter() - t0) * 1e3
        numpy_ms = ncstat_ms = 0.0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            cumulative_ms = int(parts[1]) / 1e3
            name = parts[2].rstrip()
            if name.strip() == "numpy":
                numpy_ms = cumulative_ms
            if name.startswith(" ncstat"):  # top level: one space after the bar
                ncstat_ms += cumulative_ms
        runs.append((wall_ms - ncstat_ms, numpy_ms, ncstat_ms))
    return {
        "cli.interpreter_ms": statistics.median(r[0] for r in runs),
        "cli.import_numpy_ms": statistics.median(r[1] for r in runs),
        "cli.import_ncstat_ms": statistics.median(r[2] for r in runs),
    }


def per_layer_names(law_names) -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in the order BENCHMARK.json lists them."""
    from spans import LAYER_FUNCTIONS

    names = []
    for layer, fns in LAYER_FUNCTIONS.items():
        for fn in fns:
            names += [(f"{layer}.{fn}.calls", "count"), (f"{layer}.{fn}.self_ms", "ms")]
            if fn == "relative_entropy":
                names.append(("entropy.relative_entropy.inf_ratio", "ratio"))
    names += [(f"laws.{n}.ms_per_trial", "ms") for n in law_names]
    names += [
        ("cli.interpreter_ms", "ms"),
        ("cli.import_numpy_ms", "ms"),
        ("cli.import_ncstat_ms", "ms"),
        ("numpy.eigh.calls", "count"),
        ("numpy.eigvalsh.calls", "count"),
        ("numpy.norm2.calls", "count"),
        ("numpy.einsum.calls", "count"),
        ("numpy.einsum.self_ms", "ms"),
        ("numpy.eigh.self_ms", "ms"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return names


def profile(w, seed: int, seconds: int, workdir: str) -> tuple[dict, int, int, dict]:
    """The workload's fixed trace work plus one probe pass over every layer."""
    from ncstat import laws

    import workloads
    from spans import Tracer

    sections = [(w.name, w, w.trace_count(seconds))] + [
        (f"probe-{p.name}", p, p.cycle) for p in workloads.PROBES
    ]
    states = []
    failed = 0
    for name, obj, _ in sections:
        state = obj.setup(seed, os.path.join(workdir, name))
        failed += obj.prepare(state) if hasattr(obj, "prepare") else 0
        states.append(state)

    for (_, obj, _), state in zip(sections, states):  # warm-up, untimed
        failed += obj.trace_op(state, 0).check()
        state.get("law_ms", {}).clear()

    attempted = 0
    tracer = Tracer()

    def run_sections(traced: bool) -> float:
        nonlocal attempted, failed
        wall = 0.0
        for (name, obj, count), state in zip(sections, states):
            tracer.section = name
            for i in range(count):
                tracer.active = traced
                t0 = perf_counter()
                s = obj.trace_op(state, i)
                wall += perf_counter() - t0
                tracer.active = False
                attempted += s.attempted
                failed += s.check()
        return wall

    untraced_s = run_sections(False)
    law_ms: dict[str, list[float]] = {}
    for state in states:  # per-law times from the untraced pass only
        for name, values in state.get("law_ms", {}).items():
            law_ms.setdefault(name, []).extend(values)
    tracer.install()
    try:
        traced_s = run_sections(True)
    finally:
        tracer.active = False
        tracer.uninstall()

    missing = []
    for name, obj, _ in sections:
        calls = tracer.calls_in(name)
        missing += [f"{name}:{fn}" for fn in obj.expects if not calls.get(fn)]
    if missing:
        print("functions with no calls: " + ", ".join(missing), file=sys.stderr)
        failed += len(missing)

    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, f"trace-{w.name}-seed{seed}.csv.gz")
    tracer.write(trace_path)

    values = {
        f"{name}.{kind}": value
        for name, entry in tracer.summary().items()
        for kind, value in entry.items()
    }
    re_calls = values.get("entropy.relative_entropy.calls", 0)
    values["entropy.relative_entropy.inf_ratio"] = tracer.infinite_results / max(re_calls, 1)
    for name, ms in law_ms.items():
        values[f"laws.{name}.ms_per_trial"] = statistics.fmean(ms)
    values.update(import_times())
    values["trace.overhead_ratio"] = traced_s / untraced_s
    names = per_layer_names([n for n, _, _ in laws.LAWS])
    metrics = {metric: (values.get(metric, 0), unit) for metric, unit in names}
    detail = {
        "sections": [[name, count] for name, _, count in sections],
        "spans": len(tracer.spans),
        "span_file": os.path.relpath(trace_path, ROOT),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
    }
    return metrics, attempted, failed, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ncstat", "__init__.py")):
        print(f"perfbench: no ncstat package under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread, here and in every child.  The matrices are tiny, so a
    # second thread only spins; on a 2-core machine it takes the core that the
    # rest of the system needs, and when it is preempted the main thread
    # waits for it.  Set before numpy loads; an explicit setting wins.
    for var in THREAD_ENV:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2

    w = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(OUT, f"{w.name}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    run = profile if args.trace else measure
    try:
        metrics, attempted, failed, detail = run(w, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("# machine " + json.dumps(machine_record()))
    print(f"# {w.name} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          + json.dumps(detail))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
