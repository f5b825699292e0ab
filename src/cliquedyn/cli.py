"""Command-line front end.

Subcommands: analyze one graph, run a census, search for target
predicates, print the bound table, or just generate graphs. Inputs are
graph6 strings, files (graph6 lines or an "n m" edge list) or
constructor expressions:

    cycle N | complete N | empty N | octahedron M | complete_bipartite A B
    union(EXPR, EXPR, ...) | join(EXPR, EXPR, ...) | complement(EXPR)

Exit codes: 0 success, 1 search found nothing, 2 bad input or an input
too large for a recursive search (one "<command> error:" line on
stderr), 3 a resource limit truncated the result.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import graph6
from .behavior import DEFAULT_LIMITS, Limits, classify_behavior, clique_count
from .bounds import bound_table
from .census import ALL_CHECKS, SEARCH_TARGETS, run_census, search_graphs
from .cliques import CliqueLimitError
from .graphs import (
    Graph,
    complement,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    join,
    octahedron,
)
from .helly import is_helly
from .regular import ORDER_CEILING_MAX, RegularGenSpec, enumerate_regular

EXIT_OK = 0
EXIT_NO_HIT = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|\d+|[(),])")

_NULLARY = {
    "cycle": cycle_graph,
    "complete": complete_graph,
    "empty": empty_graph,
    "octahedron": octahedron,
}


def parse_graph_expression(text: str) -> Graph:
    """Parse the constructor mini-language into a Graph."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"cannot tokenize {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else None

    def take(expected=None):
        nonlocal idx
        if idx >= len(tokens):
            raise ValueError(f"unexpected end of expression {text!r}")
        tok = tokens[idx]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, got {tok!r} in {text!r}")
        idx += 1
        return tok

    def parse_int():
        tok = take()
        if not tok.isdigit():
            raise ValueError(f"expected an integer, got {tok!r} in {text!r}")
        return int(tok)

    def parse_expr() -> Graph:
        name = take().lower()
        if name in _NULLARY:
            return _NULLARY[name](parse_int())
        if name == "complete_bipartite":
            return complete_bipartite(parse_int(), parse_int())
        if name in ("union", "join", "complement"):
            take("(")
            args = [parse_expr()]
            while peek() == ",":
                take(",")
                args.append(parse_expr())
            take(")")
            if name == "complement":
                if len(args) != 1:
                    raise ValueError("complement takes exactly one argument")
                return complement(args[0])
            if name == "union":
                return disjoint_union(args)
            result = args[0]
            for extra in args[1:]:
                result = join(result, extra)
            return result
        raise ValueError(f"unknown constructor {name!r}")

    g = parse_expr()
    if idx != len(tokens):
        raise ValueError(f"trailing tokens {tokens[idx:]!r} in {text!r}")
    return g


def load_input(text: str) -> Graph:
    """Resolve an analyze input: file path, constructor expression or graph6."""
    if os.path.exists(text):
        with open(text) as fh:
            content = fh.read()
        first = content.strip().splitlines()[0] if content.strip() else ""
        if re.fullmatch(r"\d+\s+\d+", first):
            return graph6.read_edge_list(content)
        graphs = graph6.read_graph6_lines(content)
        if not graphs:
            raise ValueError(f"no graphs found in {text}")
        return graphs[0]
    head = re.split(r"[\s(]", text.strip(), maxsplit=1)[0].lower()
    if head in _NULLARY or head in ("union", "join", "complement", "complete_bipartite"):
        return parse_graph_expression(text)
    return graph6.decode(text)


def _limits_from_args(args) -> Limits:
    return Limits(
        max_iterations=args.limit_iter,
        max_vertices=args.limit_vertices,
        max_cliques=args.limit_cliques,
    )


def _spec_from_args(args, count: int) -> RegularGenSpec:
    return RegularGenSpec(
        k=args.k,
        n=args.n,
        mode="random" if args.random else "exhaustive",
        count=count,
        seed=args.seed,
        connected_only=args.connected,
    )


def _emit(doc: dict | str, args, human: str) -> None:
    text = doc if isinstance(doc, str) else json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text if args.format == "json" else human)


def cmd_analyze(args) -> int:
    g = load_input(args.input)
    g.validate()
    limits = _limits_from_args(args)
    doc: dict = {"input": args.input, "order": g.n, "edges": g.edge_count()}
    degs = g.degrees()
    doc["degrees"] = {
        "min": min(degs) if degs else 0,
        "max": max(degs) if degs else 0,
        "regular": degs[0] if degs and len(set(degs)) == 1 else None,
    }
    code = EXIT_OK
    result = classify_behavior(g, limits)
    doc["clique_count"] = clique_count(g, result, limits)
    cliques = f"cliques {doc['clique_count']}"
    if doc["clique_count"] is None:
        cliques = doc["clique_count_note"] = str(CliqueLimitError(limits.max_cliques))
        code = EXIT_RESOURCE
    verdict = is_helly(g)
    doc["helly"] = {
        "is_helly": verdict.is_helly,
        "witness": list(verdict.witness) if verdict.witness else None,
    }
    doc["behavior"] = result.to_json()
    if result.status == "unknown":
        code = EXIT_RESOURCE

    lines = [
        f"order {g.n}, edges {g.edge_count()}, {cliques}",
        f"helly: {verdict.is_helly}"
        + (f" (witness triangle {verdict.witness})" if verdict.witness else ""),
        f"behavior: {result.status}",
    ]
    if result.is_convergent:
        lines[-1] += f" (tail {result.tail}, period {result.period})"
    elif result.is_divergent:
        lines[-1] += f" ({result.certificate.kind} at iterate {result.detected_at})"
    else:
        lines[-1] += f" ({result.limit} after {result.iterations_done} iterations)"
    _emit(doc, args, "\n".join(lines))
    return code


def cmd_census(args) -> int:
    report = run_census(
        _spec_from_args(args, args.count),
        checks=tuple(args.check) if args.check else ALL_CHECKS,
        limits=_limits_from_args(args),
        jobs=args.jobs,
        ceiling=args.ceiling,
    )
    totals = [f"  {key}: {val}" for key, val in sorted(report.totals.items())]
    _emit(report.to_json(), args,
          "\n".join([f"census k={args.k} n={args.n}: {report.total} graphs"] + totals))
    if args.out:
        for name, members in sorted(report.exemplars.items()):
            with open(f"{args.out}.{name}.g6", "w") as fh:
                fh.write("\n".join(members) + "\n")
    return EXIT_RESOURCE if report.any_unknown else EXIT_OK


def cmd_search(args) -> int:
    # random mode draws --budget samples, 1000 without one
    hits = search_graphs(
        _spec_from_args(args, args.budget or 1000),
        args.target,
        limits=_limits_from_args(args),
        budget=args.budget,
        max_hits=args.max_hits,
        ceiling=args.ceiling,
    )
    doc = {"k": args.k, "n": args.n, "target": args.target, "hits": hits}
    _emit(doc, args, "\n".join([f"{len(hits)} hit(s)"] + [h["graph6"] for h in hits]))
    return EXIT_OK if hits else EXIT_NO_HIT


def cmd_bound(args) -> int:
    reports = bound_table(args.k_max)
    doc = {"rows": [r.to_json() for r in reports]}
    header = f"{'k':>3} {'N(k)':>6} {'poly':>8} {'C_lb':>10} {'T_cap':>8}"
    rows = [header, "-" * len(header)]
    for r in reports:
        cap = r.per_vertex_cap if r.per_vertex_cap is not None else "-"
        rows.append(f"{r.k:>3} {r.n:>6} {r.poly_value:>8} {r.cotriangle_lb:>10} {cap:>8}")
    _emit(doc, args, "\n".join(rows))
    return EXIT_OK


def cmd_gen(args) -> int:
    graphs = enumerate_regular(_spec_from_args(args, args.count), ceiling=args.ceiling)
    text = "".join(graph6.encode(g) + "\n" for g in graphs)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliquedyn",
        description="clique-graph dynamics: Helly checks, convergence certificates, regular censuses",
        epilog=(
            "constructor expressions: cycle N | complete N | empty N | octahedron M | "
            "complete_bipartite A B | union(EXPR, ...) | join(EXPR, ...) | complement(EXPR). "
            "Files may hold graph6 lines or an edge list ('n m' header, then 'u v' lines)."
        ),
    )
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--out", help="write the JSON report here (census adds exemplar .g6 files)")
    report.add_argument("--format", choices=("table", "json"), default="table")
    limits = argparse.ArgumentParser(add_help=False)
    d = DEFAULT_LIMITS
    limits.add_argument("--limit-iter", type=int, default=d.max_iterations,
                        help="max clique-operator iterations")
    limits.add_argument("--limit-vertices", type=int, default=d.max_vertices, help="max iterate order")
    limits.add_argument("--limit-cliques", type=int, default=d.max_cliques,
                        help="max cliques per enumeration; iterates stop at min(this, --limit-vertices)")
    generation = argparse.ArgumentParser(add_help=False)
    generation.add_argument("-k", type=int, required=True)
    generation.add_argument("-n", type=int, required=True)
    generation.add_argument("--connected", action="store_true")
    generation.add_argument("--random", action="store_true", help="sample instead of exhausting")
    generation.add_argument("--seed", type=int, default=0)
    generation.add_argument("--ceiling", type=int, default=None,
                            help=f"exhaustive order ceiling override, at most {ORDER_CEILING_MAX}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[report, limits], help="analyze one graph")
    p.add_argument("input", help="graph6 string, file, or constructor expression")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("census", parents=[generation, report, limits],
                       help="sweep all k-regular graphs on n vertices")
    p.add_argument("--check", action="append", choices=ALL_CHECKS,
                   help="repeatable; default: all checks")
    p.add_argument("--count", type=int, default=100, help="sample count for --random")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("search", parents=[generation, report, limits],
                       help="search k-regular graphs for a target predicate")
    p.add_argument("--target", choices=SEARCH_TARGETS, required=True)
    p.add_argument("--budget", type=int, default=None,
                   help="max candidates examined; with --random, the sample count (default 1000)")
    p.add_argument("--max-hits", type=int, default=None)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("bound", parents=[report], help="print threshold/bound table for k = 1..k_max")
    p.add_argument("k_max", type=int)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("gen", parents=[generation], help="emit graph6 lines for k-regular graphs")
    p.add_argument("--count", type=int, default=100, help="sample count for --random")
    p.add_argument("--out", help="write the graph6 lines here")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        raise
    except (ValueError, OSError, RecursionError) as exc:
        print(f"{args.command} error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
