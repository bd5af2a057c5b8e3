"""Command line front end.

Inputs are JSON files in the schema of the serialize module; commands that
produce an object write JSON to stdout or to --output.  Exit status is 0 on
success and 1 when a validation fails, a disintegration is obstructed, or a
law check finds a violation.  An input that cannot be read or used (a
missing file, malformed JSON, non-finite entries, an unclassifiable document,
a document of the wrong kind, mismatched algebras) or a non-numeric
NCSTAT_TOL prints one ``ncstat: error: ...`` line to stderr and exits 2, the
code argparse uses for usage errors; ``validate`` reports a file it cannot
load as ``invalid: ...`` with exit 1 instead.  NCSTAT_TOL overrides
the default tolerance for commands that take one; an explicit --atol flag
wins over the environment.  Each command imports only the modules it runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .algebra import DEFAULT_ATOL, DEFAULT_CUTOFF, State, validate_state
from .errors import ShapeError
from .hypotheses import (
    NCMorphism,
    NoDisintegration,
    compose_morphisms,
    construct_optimal_hypothesis,
    is_optimal,
    rectify_morphism,
    validate_morphism,
)
from .maps import CPUMap, StarHom, validate_cpu
from .serialize import (
    element_to_json,
    load_any,
    morphism_to_json,
    read_json,
    write_json,
)


def _env_atol() -> float:
    raw = os.environ.get("NCSTAT_TOL")
    if raw is None:
        return DEFAULT_ATOL
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"NCSTAT_TOL is not a number: {raw!r}") from None


def _load(path: str, kind: type, what: str):
    """The object in the file at path; a ShapeError unless it is a kind."""
    obj = load_any(read_json(path))
    if not isinstance(obj, kind):
        raise ShapeError(f"expected {what} in {path}, found {type(obj).__name__}")
    return obj


def _emit(doc: dict, output: str | None) -> None:
    if output:
        write_json(output, doc)
    else:
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")


def _format_value(v: float) -> str:
    return "inf" if math.isinf(v) else repr(float(v))


def _cmd_validate(args) -> int:
    try:
        obj = load_any(read_json(args.file))
    except ValueError as exc:
        print(f"invalid: {exc}")
        return 1
    if isinstance(obj, NCMorphism):
        report = validate_morphism(obj, args.atol)
    elif isinstance(obj, State):
        report = validate_state(obj, args.atol)
    elif isinstance(obj, CPUMap):
        report = validate_cpu(obj, args.atol)
    elif isinstance(obj, StarHom):
        print("ok: well-formed homomorphism (checked on construction)")
        return 0
    else:
        print(f"ok: parsed {type(obj).__name__}")
        return 0
    print(report.describe())
    if isinstance(obj, NCMorphism) and report.ok:
        flag, residual = is_optimal(obj, args.atol)
        tag = "optimal" if flag else "not optimal"
        print(f"{tag} (pushed-back defect {residual:.6e})")
    return 0 if report.ok else 1


def _cmd_rel_entropy(args) -> int:
    from .entropy import relative_entropy

    first = _load(args.first, State, "a state")
    second = _load(args.second, State, "a state")
    value = relative_entropy(first, second, args.cutoff)
    print(_format_value(value))
    return 0


def _cmd_re(args) -> int:
    from .entropy import re_functor

    m = _load(args.morphism, NCMorphism, "a morphism")
    print(_format_value(re_functor(m, args.cutoff)))
    return 0


def _cmd_rectify(args) -> int:
    result = rectify_morphism(_load(args.morphism, NCMorphism, "a morphism"))
    _emit(
        {
            "u": element_to_json(result.u),
            "morphism": morphism_to_json(result.morphism),
        },
        args.output,
    )
    return 0


def _cmd_compose(args) -> int:
    inner = _load(args.inner, NCMorphism, "a morphism")
    outer = _load(args.outer, NCMorphism, "a morphism")
    _emit(morphism_to_json(compose_morphisms(inner, outer)), args.output)
    return 0


def _cmd_disintegrate(args) -> int:
    hom = _load(args.hom, StarHom, "a homomorphism")
    state = _load(args.state, State, "a state")
    result = construct_optimal_hypothesis(hom, state, args.atol)
    if isinstance(result, NoDisintegration):
        _emit(
            {
                "no_disintegration": True,
                "residual": result.residual,
                "detail": result.detail,
            },
            args.output,
        )
        return 1
    _emit(morphism_to_json(result), args.output)
    return 0


def _cmd_chain_rule(args) -> int:
    from .entropy import chain_rule_report

    rho = _load(args.density, np.ndarray, "a density matrix")
    dims = tuple(int(d) for d in args.dims.split(","))
    if len(dims) != 3:
        print("--dims must name three tensor factors, e.g. 2,2,2")
        return 1
    report = chain_rule_report(rho, dims)
    da, db, _ = dims
    lhs = report.h_firsttwo_given_third
    rhs = report.h_first_given_rest + report.h_second_given_third
    print(f"H(first two | third)   = {report.h_firsttwo_given_third!r}")
    print(f"H(first | rest)        = {report.h_first_given_rest!r}")
    print(f"H(second | third)      = {report.h_second_given_third!r}")
    print(f"chain rule             : {lhs!r} == {rhs!r}  (defect {report.chain_defect:.6e})")
    print(
        f"RE composite           = {_format_value(report.re_composite)}"
        f"  vs H + ln(dA dB) = {lhs + math.log(da) + math.log(db)!r}"
    )
    print(
        f"RE inner               = {_format_value(report.re_inner)}"
        f"  vs H + ln(dB)    = {report.h_second_given_third + math.log(db)!r}"
    )
    print(
        f"RE outer               = {_format_value(report.re_outer)}"
        f"  vs H + ln(dA)    = {report.h_first_given_rest + math.log(da)!r}"
    )
    print(f"max identity defect    = {report.max_defect:.6e}")
    return 0


def _cmd_check(args) -> int:
    from .generators import GeneratorConfig
    from .laws import run_laws

    cfg = GeneratorConfig(
        seed=args.seed,
        trials=args.trials,
        max_blocks=args.max_blocks,
        max_block_dim=args.max_dim,
        faithful_only=args.faithful_only,
    )
    report = run_laws(cfg)
    print(report.summary())
    if args.json:
        write_json(args.json, report.to_json())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncstat",
        description="finite-dimensional non-commutative probability toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    atol = _env_atol()

    p = sub.add_parser("validate", help="validate a state, CPU map, or morphism")
    p.add_argument("file")
    p.add_argument("--atol", type=float, default=atol)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("rel-entropy", help="relative entropy between two states")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--cutoff", type=float, default=DEFAULT_CUTOFF)
    p.set_defaults(fn=_cmd_rel_entropy)

    p = sub.add_parser("re", help="relative entropy assigned to a morphism")
    p.add_argument("morphism")
    p.add_argument("--cutoff", type=float, default=DEFAULT_CUTOFF)
    p.set_defaults(fn=_cmd_re)

    p = sub.add_parser("rectify", help="put a morphism in standard form")
    p.add_argument("morphism")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_rectify)

    p = sub.add_parser("compose", help="compose two morphisms (inner, then outer)")
    p.add_argument("inner")
    p.add_argument("outer")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_compose)

    p = sub.add_parser(
        "disintegrate", help="construct the optimal hypothesis for a hom and a state"
    )
    p.add_argument("hom")
    p.add_argument("state")
    p.add_argument("--atol", type=float, default=atol)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_disintegrate)

    p = sub.add_parser(
        "chain-rule", help="conditional entropy chain rule on a tripartite density"
    )
    p.add_argument("density")
    p.add_argument("--dims", required=True)
    p.set_defaults(fn=_cmd_chain_rule)

    p = sub.add_parser("check", help="run the seeded law suite")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--max-blocks", type=int, default=3)
    p.add_argument("--max-dim", type=int, default=3)
    p.add_argument("--faithful-only", action="store_true")
    p.add_argument("--json")
    p.set_defaults(fn=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (OSError, ValueError) as exc:
        # every ncstat error, json.JSONDecodeError and a non-numeric
        # NCSTAT_TOL is a ValueError, and load_any and _load turn a malformed
        # or wrong-kind document into a ShapeError
        print(f"ncstat: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
