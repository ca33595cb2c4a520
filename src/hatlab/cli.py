"""Command-line interface.

One JSON record per run goes to stdout (byte-identical for identical
command, params and seed); a human summary with wall time goes to stderr.
Exit codes: 0 success, 2 usage, 3 unsupported size, 4 construction stall.

Graph specs: kneser:N, shift:M, complete:M, edgeless:M, gnp:N:P:SEED,
optionally raised to a Hamming power with --power T.

Graph files are read in the text or binary format of `hatlab.graphs`,
told apart by the binary magic.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .blockers import (
    certify_family,
    construct_blockers,
    decrement_bound,
    family_from_json,
    family_to_json,
    parse_beta,
    verify_blocker,
)
from .errors import UnsupportedSizeError
from .game import FAMILY_KINDS, enumerate_family
from .graphs import (
    BINARY_MAGIC,
    Graph,
    complete_graph,
    edgeless_graph,
    graph_from_bytes,
    graph_from_text,
    graph_to_bytes,
    graph_to_text,
    hamming_power,
    kneser,
    max_independent_set,
    random_graph,
    shift_graph,
)
from .randomsub import alpha_star_star_exact, alpha_star_star_mc
from .solver import exact_p, local_search_p

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_STALL = 4

# Python prints an int of at most 4300 decimal digits by default
MAX_PRINTED_DIGITS = 4300
_UNPRINTABLE = 10**MAX_PRINTED_DIGITS

FAMILY_ALIASES = {"dict": "dictator", **{k: k for k in FAMILY_KINDS}}


def _compact_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _csv_record(doc: dict) -> str:
    """The record as a header row and one value row, without its version."""
    flat = {"command": doc["command"], "seed": doc["seed"]}
    for prefix, part in (("param", doc["params"]), ("result", doc["result"])):
        for k, v in part.items():
            if isinstance(v, (list, tuple, dict)):
                v = _compact_json(v)
            flat[f"{prefix}_{k}"] = v
    cols = sorted(flat)
    # minimal quoting: a value holding a comma is quoted, None is empty
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([cols, [flat[c] for c in cols]])
    return out.getvalue().rstrip("\n")


def frac_fields(value: Fraction) -> dict:
    return {
        "value": f"{value.numerator}/{value.denominator}",
        "decimal": repr(float(value)),
    }


def parse_graph_spec(spec: str, power: int = 1) -> Graph:
    head, _, rest = spec.partition(":")
    args = rest.split(":") if rest else []
    try:
        if len(args) != (3 if head == "gnp" else 1):
            raise ValueError(f"wrong field count in {spec!r}")
        if head == "kneser":
            g = kneser(int(args[0]))
        elif head == "shift":
            g = shift_graph(int(args[0]))
        elif head == "complete":
            g = complete_graph(int(args[0]))
        elif head == "edgeless":
            g = edgeless_graph(int(args[0]))
        elif head == "gnp":
            g = random_graph(int(args[0]), float(args[1]), int(args[2]))
        else:
            raise ValueError(f"unknown graph kind {head!r}")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad graph spec {spec!r} "
            "(use kneser:N, shift:M, complete:M, edgeless:M or gnp:N:P:SEED)"
        ) from exc
    if power != 1:
        g = hamming_power(g, power)
    return g


def _cmd_solve(args: argparse.Namespace) -> tuple[dict, int | None, int]:
    kind = FAMILY_ALIASES[args.family]
    if args.mode == "exact":
        res = exact_p(args.t, args.n, kind, allow_slow=args.allow_slow)
        seed = None
    else:
        res = local_search_p(
            args.t, args.n, kind, seed=args.seed, restarts=args.restarts
        )
        seed = args.seed
    result = dict(frac_fields(res.value), method=res.method, work=res.work)
    if args.witness:
        result["witness"] = {
            "tables": [list(tb) for tb in res.witness.tables],
            "family": kind,
        }
    return result, seed, EXIT_OK


def _cmd_family(args: argparse.Namespace) -> tuple[dict, int | None, int]:
    fam = enumerate_family(FAMILY_ALIASES[args.kind], args.n)
    result = {
        "kind": fam.kind,
        "n": fam.n,
        "r": fam.r,
        "sets": [hex(w) for w in fam.sets],
    }
    return result, None, EXIT_OK


def _cmd_alpha(args: argparse.Namespace) -> tuple[dict, int | None, int]:
    g = parse_graph_spec(args.graph, args.power)
    mis = max_independent_set(g)
    result = dict(
        frac_fields(mis.alpha_bar),
        alpha=mis.size,
        vcount=g.vcount,
        label=g.label,
        nodes_explored=mis.nodes_explored,
    )
    return result, None, EXIT_OK


def _cmd_alphastar(args: argparse.Namespace) -> tuple[dict, int | None, int]:
    g = parse_graph_spec(args.graph, args.power)
    if args.mode == "exact":
        val = alpha_star_star_exact(g)
        return dict(frac_fields(val), label=g.label, mode="exact"), None, EXIT_OK
    est = alpha_star_star_mc(g, args.samples, args.seed)
    result = {
        "mean": repr(est.mean),
        "stderr": repr(est.stderr),
        "samples": est.samples,
        "label": g.label,
        "mode": "mc",
    }
    return result, args.seed, EXIT_OK


def _cmd_blocker(args: argparse.Namespace) -> tuple[dict, int | None, int]:
    if args.blocker_cmd == "bound":
        beta = parse_beta(args.beta)
        # the denominator is at least 2^(2k+2): an unprintable one is refused
        # before the bound is built, which for k = 10^11 would take 25 GB
        val = None
        if 2 * args.k + 2 < _UNPRINTABLE.bit_length():
            val = decrement_bound(args.k, beta)
        if val is None or val.denominator >= _UNPRINTABLE:
            raise UnsupportedSizeError(
                f"the bound for k={args.k} has a denominator of more than "
                f"{MAX_PRINTED_DIGITS} digits, the most an integer prints with"
            )
        return dict(frac_fields(val), k=args.k), None, EXIT_OK
    if args.blocker_cmd == "build":
        family = construct_blockers(
            args.n, args.seed, args.delta, stall_limit=args.stall_limit
        )
        winning = enumerate_family("dictator", args.n)
        cert = certify_family(family, winning)
        family.certified = cert.certified
        doc = family_to_json(family)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(doc + "\n")
        result = {
            "k": family.k,
            "beta": f"{family.beta.numerator}/{family.beta.denominator}",
            "beta_decimal": repr(float(family.beta)),
            "blocker_count": family.blocker_count,
            "tuples": len(family.tuples or ()),
            "certified": cert.certified,
            "oracle_runs": cert.oracle_runs,
            "stalled": family.stalled,
            "out": args.out,
        }
        code = EXIT_STALL if family.stalled else EXIT_OK
        return result, args.seed, code
    # verify
    with open(args.file) as fh:
        family = family_from_json(fh.read())
    winning = enumerate_family("dictator", family.n)
    if family.blockers is not None:
        per = []
        for i, b in enumerate(family.blockers):
            res = verify_blocker(b, winning)
            entry: dict = {"index": i, "certified": res.is_blocker}
            if res.counterexample is not None:
                entry["counterexample"] = {
                    "f1": {str(k): v for k, v in res.counterexample.f1.items()},
                    "f2": {str(k): v for k, v in res.counterexample.f2.items()},
                }
            per.append(entry)
        certified = all(e["certified"] for e in per)
        result = {"certified": certified, "blockers": per, "mode": "explicit"}
    else:
        cert = certify_family(family, winning)
        result = {
            "certified": cert.certified,
            "blocker_count": cert.blockers_covered,
            "oracle_runs": cert.oracle_runs,
            "mode": "product-classes",
        }
    return result, family.seed, EXIT_OK


def _cmd_graph(args: argparse.Namespace) -> tuple[dict, int | None, int]:
    if args.graph_cmd == "export":
        g = parse_graph_spec(args.graph, args.power)
        if args.encoding == "text":
            with open(args.out, "w") as fh:
                fh.write(graph_to_text(g))
        else:
            with open(args.out, "wb") as fh:
                fh.write(graph_to_bytes(g))
        result = {
            "label": g.label,
            "vcount": g.vcount,
            "edges": g.edge_count(),
            "encoding": args.encoding,
            "out": args.out,
        }
        return result, None, EXIT_OK
    with open(args.file, "rb") as fh:
        data = fh.read()
    if data[:4] == BINARY_MAGIC:
        g = graph_from_bytes(data)
    else:
        g = graph_from_text(data.decode())
    result = {
        "label": g.label,
        "vcount": g.vcount,
        "edges": g.edge_count(),
        "self_loops": sum(g.self_loop),
    }
    return result, None, EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hatlab",
        description="Exact and randomized solvers for the cooperative "
        "hat-stack guessing game and related graph quantities.",
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    # no effect; it stays because acceptance 15 passes it
    parser.add_argument(
        "--threads", type=int, default=None,
        help="accepted for compatibility; has no effect",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the first arguments of alpha, alphastar and graph export
    graph_args = argparse.ArgumentParser(add_help=False)
    graph_args.add_argument("--graph", required=True)
    graph_args.add_argument("--power", type=int, default=1)

    p = sub.add_parser("solve", help="optimal success probability p(t, n)")
    p.set_defaults(handler=_cmd_solve)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=sorted(FAMILY_ALIASES), default="dict")
    p.add_argument("--mode", choices=("exact", "search"), default="exact")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--allow-slow", action="store_true",
                   help="enable slow exact solves: t=3, and t=2 over the table budget "
                        "up to 4^16 tables (the n=4 dictator kind)")
    p.add_argument("--witness", action="store_true",
                   help="include the optimal strategy tables in the result")

    p = sub.add_parser("family", help="list the winning sets of one family kind")
    p.set_defaults(handler=_cmd_family)
    p.add_argument("--kind", choices=sorted(FAMILY_ALIASES), default="dict")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("alpha", parents=[graph_args], help="exact independence ratio of a graph")
    p.set_defaults(handler=_cmd_alpha)

    p = sub.add_parser(
        "alphastar", parents=[graph_args],
        help="expected best independent set in a random subset",
    )
    p.set_defaults(handler=_cmd_alphastar)
    p.add_argument("--mode", choices=("exact", "mc"), default="exact")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("blocker", help="build, verify or bound blocker families")
    p.set_defaults(handler=_cmd_blocker)
    bsub = p.add_subparsers(dest="blocker_cmd", required=True)
    b = bsub.add_parser("build")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--seed", type=int, required=True)
    b.add_argument("--delta", type=float, default=0.15)
    b.add_argument("--out", default=None)
    b.add_argument("--stall-limit", type=int, default=None,
                   help="abort after this many consecutive rejections "
                   "(default: 50x the expected tuple count)")
    b = bsub.add_parser("verify")
    b.add_argument("--file", required=True)
    b = bsub.add_parser("bound")
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--beta", required=True, help="exact fraction, e.g. 1/6")

    p = sub.add_parser("graph", help="export or inspect graphs")
    p.set_defaults(handler=_cmd_graph)
    gsub = p.add_subparsers(dest="graph_cmd", required=True)
    g = gsub.add_parser("export", parents=[graph_args])
    g.add_argument("--encoding", choices=("text", "binary"), default="text")
    g.add_argument("--out", required=True)
    g = gsub.add_parser("import")
    g.add_argument("--file", required=True)
    return parser


def _params_of(args: argparse.Namespace) -> dict:
    skip = {"command", "handler", "format", "threads", "blocker_cmd", "graph_cmd", "seed"}
    params = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
    for k in ("blocker_cmd", "graph_cmd"):
        if getattr(args, k, None):
            params["subcommand"] = getattr(args, k)
    return params


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        result, seed, code = args.handler(args)
    except UnsupportedSizeError as exc:
        print(f"hatlab: unsupported size: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (argparse.ArgumentTypeError, ValueError, OSError) as exc:
        print(f"hatlab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    wall = time.monotonic() - started
    # wall time varies run to run, so it stays out of the payload
    doc = {
        "command": args.command,
        "params": _params_of(args),
        "seed": seed,
        "version": __version__,
        "result": result,
    }
    print(_csv_record(doc) if args.format == "csv" else _compact_json(doc))
    # the graph commands have a label and family a member count to show
    summary = next(
        (result[k] for k in ("value", "mean", "certified", "label", "r") if k in result),
        None,
    )
    print(
        f"hatlab {args.command}: {summary} [{wall:.3f}s]",
        file=sys.stderr,
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
