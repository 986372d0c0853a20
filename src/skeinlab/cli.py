"""skeinlab command-line interface.

Subcommands: reduce, multiply, abelian, two-bridge, harvest, tangent, fuzz,
selftest.  Every subcommand takes --json; --seed defaults to the
SKEINLAB_SEED environment variable, then 0.  Exit status: 0 success,
1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import _modlin, charvar, oracle, selftest, skein, trace_engine
from .exactpoly import (
    PolyError,
    laurent_to_dict,
    poly_pretty,
    poly_to_dict,
)
from .oracle import OracleError
from .skein import SkeinError
from .trace_engine import EngineError, ReductionMode
from .words import AbelianVector, WordError, parse_word

USAGE_ERROR = 2
CHECK_FAILURE = 1


def _default_seed() -> int:
    try:
        return int(os.environ.get("SKEINLAB_SEED", "0"))
    except ValueError:
        return 0


def _emit(args, payload: dict, pretty_lines) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in pretty_lines:
            print(line)


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true", help="emit JSON output")
    sub.add_argument(
        "--seed",
        type=int,
        default=_default_seed(),
        help="deterministic seed (default: SKEINLAB_SEED or 0)",
    )


def _mode_flag(sub: argparse.ArgumentParser, default: str = "integral") -> None:
    sub.add_argument(
        "--mode",
        choices=[m.value for m in ReductionMode],
        default=default,
        help=f"reduction mode (default {default})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skeinlab",
        description="Exact SL2 trace canonicalization and character-variety checks.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("reduce", help="canonical trace polynomial of a word")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--stats", action="store_true", help="print rule-firing counts")
    _mode_flag(p)
    _common_flags(p)
    p.add_argument("word")

    p = commands.add_parser("multiply", help="product of two skein classes")
    p.add_argument("--rank", type=int, required=True)
    _mode_flag(p)
    _common_flags(p)
    p.add_argument("word1")
    p.add_argument("word2")

    p = commands.add_parser("abelian", help="canonical form of an abelian class")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--vector", required=True, help="comma-separated integers")
    _mode_flag(p, default="dyadic")
    _common_flags(p)

    p = commands.add_parser("two-bridge", help="2-bridge knot character polynomials")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--knot", choices=sorted(charvar.KNOT_PRESETS))
    group.add_argument("--epsilons", help="comma-separated +1/-1 entries")
    _common_flags(p)

    p = commands.add_parser("harvest", help="harvest relations among generators")
    p.add_argument("--group", required=True, help="free:N or abelian:N")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument(
        "--samples",
        default="auto",
        help="sample count or 'auto' (= 2x monomial count)",
    )
    _common_flags(p)

    p = commands.add_parser("tangent", help="tangent dimension from a harvest file")
    p.add_argument("--from", dest="from_file", required=True, metavar="FILE")
    _common_flags(p)

    p = commands.add_parser("fuzz", help="oracle-vs-engine fuzzing")
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--max-rank", type=int, default=4)
    p.add_argument("--max-len", type=int, default=12)
    _mode_flag(p)
    _common_flags(p)

    p = commands.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--quick", action="store_true", help="cap fuzz at 100, skip free:3")
    _common_flags(p)

    return parser


def _cmd_reduce(args) -> int:
    if args.rank < 1:
        raise WordError(f"rank must be >= 1, got {args.rank}")
    mode = ReductionMode(args.mode)
    word = parse_word(args.word, args.rank)
    engine = trace_engine.get_engine(mode)
    poly = engine.reduce(word)
    payload = {
        "word": args.word,
        "rank": args.rank,
        "mode": mode.value,
        "poly": poly_to_dict(poly),
        "pretty": poly_pretty(poly),
    }
    lines = [poly_pretty(poly)]
    if args.stats:
        payload["stats"] = dict(sorted(engine.stats.items()))
        lines.extend(f"{k}: {v}" for k, v in sorted(engine.stats.items()))
    _emit(args, payload, lines)
    return 0


def _cmd_multiply(args) -> int:
    if args.rank < 1:
        raise WordError(f"rank must be >= 1, got {args.rank}")
    mode = ReductionMode(args.mode)
    x = skein.from_word(parse_word(args.word1, args.rank), mode)
    y = skein.from_word(parse_word(args.word2, args.rank), mode)
    product = skein.multiply(x, y)
    payload = {
        "rank": args.rank,
        "mode": mode.value,
        "factors": [poly_to_dict(x.poly), poly_to_dict(y.poly)],
        "poly": poly_to_dict(product.poly),
        "pretty": poly_pretty(product.poly),
    }
    _emit(args, payload, [poly_pretty(product.poly)])
    return 0


def _cmd_abelian(args) -> int:
    if args.rank < 1:
        raise WordError(f"rank must be >= 1, got {args.rank}")
    try:
        coords = tuple(int(c) for c in args.vector.split(","))
    except ValueError:
        raise WordError(f"bad vector {args.vector!r}") from None
    vector = AbelianVector(args.rank, coords)
    mode = ReductionMode(args.mode)
    element = skein.abelian_from_vector(vector, mode)
    laurent = skein.to_laurent(element)
    payload = {
        "rank": args.rank,
        "vector": list(coords),
        "mode": mode.value,
        "poly": poly_to_dict(element.poly),
        "pretty": poly_pretty(element.poly),
        "laurent": laurent_to_dict(laurent),
    }
    _emit(args, payload, [poly_pretty(element.poly)])
    return 0


def _cmd_two_bridge(args) -> int:
    if args.knot:
        pres = charvar.TwoBridgePresentation.preset(args.knot)
    else:
        try:
            eps = tuple(int(e) for e in args.epsilons.split(","))
        except ValueError:
            raise charvar.CharVarError(f"bad epsilons {args.epsilons!r}") from None
        pres = charvar.TwoBridgePresentation(eps)
    result = charvar.two_bridge_charpoly(pres)
    payload = result.to_dict()
    lines = [
        f"epsilons: {list(result.epsilons)}",
        f"Q   = {poly_pretty(result.Q)}",
        f"Phi = {poly_pretty(result.Phi)}",
        f"Phi(2,2) = {result.phi_at_22}",
        f"Phi square-free: {payload['phi_square_free']}",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_harvest(args) -> int:
    spec = charvar.parse_group_spec(args.group)
    nvars = len(charvar.generator_vars(spec))
    monos = charvar.monomial_exponents(nvars, args.degree)
    if args.samples == "auto":
        samples = 2 * len(monos)
    else:
        try:
            samples = int(args.samples)
        except ValueError:
            raise charvar.CharVarError(f"bad --samples {args.samples!r}") from None
    basis = charvar.harvest_relations(spec, args.degree, samples, args.seed)
    print(json.dumps(basis.to_dict(), indent=2))
    return 0


def _cmd_tangent(args) -> int:
    with open(args.from_file) as fh:
        data = json.load(fh)
    spec = charvar.parse_group_spec(data["group"])
    basis = charvar.RelationBasis(
        group_spec=spec,
        degree_bound=int(data["degree_bound"]),
        seed=int(data.get("seed", 0)),
        sample_count=int(data.get("sample_count", 0)),
        relations=[
            charvar.relation_from_dict(spec, entry) for entry in data["relations"]
        ],
    )
    report = charvar.tangent_dim_at_trivial(basis)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def _cmd_fuzz(args) -> int:
    report = oracle.fuzz_check(
        count=args.count,
        max_rank=args.max_rank,
        max_len=args.max_len,
        mode=ReductionMode(args.mode),
        seed=args.seed,
    )
    payload = report.to_dict()
    lines = [
        f"fuzz: {report.count} words, mode {report.mode}, seed {report.seed}",
        f"failures: {len(report.failures)}",
    ]
    _emit(args, payload, lines)
    print(f"elapsed: {report.elapsed:.2f}s", file=sys.stderr)
    return 0 if report.ok else CHECK_FAILURE


def _cmd_selftest(args) -> int:
    results = selftest.run_all(quick=args.quick)
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "number": r.number,
                        "name": r.name,
                        "ok": r.ok,
                        "skipped": r.skipped,
                        "detail": r.detail,
                    }
                    for r in results
                ],
                indent=2,
            )
        )
    else:
        for r in results:
            print(r.line())
    for r in results:
        print(f"[{r.number:2d}] {r.elapsed:.2f}s", file=sys.stderr)
    return 0 if all(r.ok or r.skipped for r in results) else CHECK_FAILURE


_HANDLERS = {
    "reduce": _cmd_reduce,
    "multiply": _cmd_multiply,
    "abelian": _cmd_abelian,
    "two-bridge": _cmd_two_bridge,
    "harvest": _cmd_harvest,
    "tangent": _cmd_tangent,
    "fuzz": _cmd_fuzz,
    "selftest": _cmd_selftest,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return _HANDLERS[args.command](args)
    except (
        WordError,
        PolyError,
        SkeinError,
        EngineError,
        OracleError,
        charvar.CharVarError,
        _modlin.ModLinError,
        OSError,
        json.JSONDecodeError,
        KeyError,
    ) as exc:
        print(f"skeinlab: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RecursionError:
        print(
            "skeinlab: error: word too deep to reduce: its rewriting nests deeper "
            f"than the recursion limit ({sys.getrecursionlimit()})",
            file=sys.stderr,
        )
        return USAGE_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
