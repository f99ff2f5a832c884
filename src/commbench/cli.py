"""Command-line front end.

Subcommands: detect, combine, bench, sanity, stats, order. Exit codes:
0 success, 1 usage or configuration error, 2 data error, 3 every benchmark
cell failed.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import __version__
from .bench import parse_config, run_benchmark, sanity_check
from .coverops import COVER_STATS_COLUMNS, combine_runs, cover_stats, format_cover_stats
from .covers import import_cover, serialize_cover, write_cover
from .detectors import DETECTORS, detect_cover
from .errors import AllCellsFailedError, CommbenchError, ConfigError
from .graph import load_attributes, load_edge_list
from .ordering import order_adjacency, write_ordering
from .planted import PlantedPartitionSpec


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if getattr(namespace, "method", None) in DETECTORS:
            _settle_detector_options(self, namespace)
        return namespace, extras


def _add_option(sub, kind, what, default):
    sub.add_argument(
        f"--{kind.key}",
        type=kind.type,
        default=default,
        help=f"{what}: {kind.help} (default {kind.default})",
    )


def _add_detector_options(sub):
    """--method plus every detector's resolution option and flags.

    They default to None (flags to False); once parsed, the --method
    detector's option takes its default and any other detector's is refused.
    """
    sub.add_argument("--method", required=True, choices=list(DETECTORS))
    for name, kind in DETECTORS.items():
        _add_option(sub, kind, name, None)
        for flag, text in kind.flags.items():
            sub.add_argument(
                "--" + flag.replace("_", "-"), action="store_true", help=f"{name}: {text}"
            )


def _settle_detector_options(parser, args):
    """Refuse any other detector's option; default the --method detector's."""
    for name, kind in DETECTORS.items():
        if name == args.method:
            continue
        given = [f"--{kind.key}"] if getattr(args, kind.key) is not None else []
        given += ["--" + flag.replace("_", "-") for flag in kind.flags if getattr(args, flag)]
        if given:
            parser.error(f"{given[0]} is a {name} option, not one of --method {args.method}")
    kind = DETECTORS[args.method]
    if getattr(args, kind.key) is None:
        setattr(args, kind.key, kind.default)


def _detector_args(args):
    """(value, flags) of the --method detector, from _add_detector_options."""
    kind = DETECTORS[args.method]
    return getattr(args, kind.key), {flag: getattr(args, flag) for flag in kind.flags}


def build_parser():
    parser = _Parser(prog="commbench", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = commands.add_parser("detect", parents=[], help="detect communities in an edge list")
    p.add_argument("graph", help="edge list file")
    _add_detector_options(p)
    p.add_argument("--allow-self-loops", action="store_true")
    p.add_argument("--out", help="cover file to write (default stdout)")
    p.set_defaults(func=cmd_detect)

    p = commands.add_parser("combine", help="pool cover files and drop near-duplicates")
    p.add_argument("graph", help="edge list file the covers refer to")
    p.add_argument("covers", nargs="+", help="cover files")
    p.add_argument("--out", help="cover file to write (default stdout)")
    p.set_defaults(func=cmd_combine)

    p = commands.add_parser("bench", help="run a benchmark configuration")
    p.add_argument("config", help="benchmark configuration file")
    p.add_argument("--force", action="store_true", help="recompute completed cells")
    p.set_defaults(func=cmd_bench)

    p = commands.add_parser("sanity", help="score a detector on a planted-partition graph")
    _add_detector_options(p)
    p.add_argument("--seed", type=int, default=0, help="planted-graph seed (default 0)")
    p.add_argument("--nodes", type=int, default=128)
    p.add_argument("--groups", type=int, default=4)
    p.add_argument("--p-in", type=float, default=14 / 31)
    p.add_argument("--p-out", type=float, default=2 / 96)
    p.add_argument("--hierarchy", action="store_true", help="pair consecutive groups into super-groups")
    p.add_argument("--p-mid", type=float, default=None, help="edge probability inside a super-group")
    p.set_defaults(func=cmd_sanity)

    p = commands.add_parser("stats", help="summarize a cover file")
    p.add_argument("graph", help="edge list file")
    p.add_argument("cover", help="cover file")
    p.set_defaults(func=cmd_stats)

    p = commands.add_parser("order", help="block-wise node ordering for matrix plots")
    p.add_argument("graph", help="edge list file")
    p.add_argument("attributes", help="attribute table file")
    p.add_argument("--attribute", required=True, help="blocking attribute name")
    _add_option(p, DETECTORS["louvain"], "orderings", DETECTORS["louvain"].default)
    p.add_argument("--out", default="ordering", help="output prefix (default 'ordering')")
    p.set_defaults(func=cmd_order)

    return parser


def cmd_detect(args):
    graph = load_edge_list(args.graph, allow_self_loops=args.allow_self_loops)
    value, flags = _detector_args(args)
    cover = detect_cover(graph, args.method, value, **flags)
    if args.out:
        write_cover(cover, graph, args.out)
    else:
        sys.stdout.write(serialize_cover(cover, graph))
    return 0


def cmd_combine(args):
    graph = load_edge_list(args.graph)
    covers = [import_cover(path, graph) for path in args.covers]
    merged = combine_runs(covers)
    if args.out:
        write_cover(merged, graph, args.out)
    else:
        sys.stdout.write(serialize_cover(merged, graph))
    return 0


def cmd_bench(args):
    config = parse_config(args.config)
    report = run_benchmark(config, force=args.force)
    sys.stdout.write((Path(config.output_dir) / "summary.tsv").read_text(encoding="utf-8"))
    if report.failures:
        print(f"{len(report.failures)} cell(s) failed; see failures.tsv", file=sys.stderr)
    print(f"report written to {config.output_dir}", file=sys.stderr)
    return 0


def cmd_sanity(args):
    spec = PlantedPartitionSpec(
        n=args.nodes,
        groups=args.groups,
        p_in=args.p_in,
        p_out=args.p_out,
        seed=args.seed,
        hierarchy=args.hierarchy,
        p_mid=args.p_mid,
    )
    value, flags = _detector_args(args)
    result = sanity_check(args.method, value, spec, **flags)
    print(f"nmi {result.nmi!r}")
    print(f"detected {result.detected_communities}")
    print(f"planted {result.planted_communities}")
    print(f"ratio {result.ratio!r}")
    return 0


def cmd_stats(args):
    graph = load_edge_list(args.graph)
    cover = import_cover(args.cover, graph)
    print("\t".join(COVER_STATS_COLUMNS))
    print(format_cover_stats(cover_stats(cover)))
    return 0


def cmd_order(args):
    graph = load_edge_list(args.graph)
    attrs = load_attributes(args.attributes, graph)
    ordering = order_adjacency(graph, attrs, args.attribute, args.t)
    order_path = f"{args.out}.order"
    ranges_path = f"{args.out}.ranges"
    write_ordering(ordering, graph, order_path, ranges_path)
    print(f"wrote {order_path} and {ranges_path}", file=sys.stderr)
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except AllCellsFailedError as exc:
        print(f"commbench: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"commbench: {exc}", file=sys.stderr)
        return 1
    except (CommbenchError, OSError) as exc:
        print(f"commbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
