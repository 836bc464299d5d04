"""Command-line interface.

Subcommands operate on quiver documents (files or stdin via ``-``) and
print deterministic text: two runs on the same input are byte-identical.
Domain failures exit with status 1 and a diagnostic on stderr; usage
errors exit with status 2.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from .canvas import DEFAULT_COSET_BUDGET, is_simply_connected
from .cuts import (
    count_cuts,
    has_enough_cuts,
    is_covered,
    is_fully_compatible,
    truncated_presentation,
    write_cuts,
)
from .docio import (
    DisconnectedQuiverWarning,
    mutation_graph_to_dot,
    mutation_graph_to_json,
    parse_quiver_document,
    serialize_quiver_document,
)
from .mutation import mutate_minus, mutate_plus, mutation_graph
from .tensor import LabeledQuiverWithCycles, dynkin_quiver, morita_split, parse_dynkin_spec, tensor_qwc


def _read_document(path: str) -> LabeledQuiverWithCycles:
    text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    return parse_quiver_document(text)


def _parse_cut_option(text: str) -> frozenset[str]:
    return frozenset(part for part in text.split(",") if part)


def _positive_int(what: str):
    """An argparse type that reads a positive integer, naming ``what`` when it is not."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < 1:
            raise argparse.ArgumentTypeError(f"{what} must be positive, got {value}")
        return value

    return parse


def _cmd_validate(args: argparse.Namespace) -> int:
    # the parser raises on every other violation and warns of disconnection
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DisconnectedQuiverWarning)
        _read_document(args.file)
    violations = [str(w.message) for w in caught if issubclass(w.category, DisconnectedQuiverWarning)]
    for violation in violations:
        print(violation, file=sys.stderr)
    return 1 if violations else 0


def _cmd_cuts(args: argparse.Namespace) -> int:
    value = _read_document(args.file)
    if args.count_only:
        print(count_cuts(value.qwc))
        return 0
    write_cuts(value.qwc, sys.stdout)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    value = _read_document(args.file)
    q = value.qwc
    print(f"covered: {'yes' if is_covered(q) else 'no'}")
    print(f"enough-cuts: {'yes' if has_enough_cuts(q) else 'no'}")
    print(f"fully-compatible: {'yes' if is_fully_compatible(q) else 'no'}")
    verdict = is_simply_connected(q, budget=args.coset_budget)
    print(f"simply-connected: {verdict.status} ({verdict.evidence})")
    return 0


def _cmd_mutate(args: argparse.Namespace) -> int:
    value = _read_document(args.file)
    cut = _parse_cut_option(args.cut)
    mutate = mutate_plus if args.dir == "plus" else mutate_minus
    result = mutate(value.qwc, cut, args.vertex)
    print(",".join(result))
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    value = _read_document(args.file)
    graph = mutation_graph(value.qwc)
    if args.json:
        mutation_graph_to_json(graph, sys.stdout)
    else:
        mutation_graph_to_dot(graph, sys.stdout, directed=args.directed)
    return 0


def _cmd_tensor(args: argparse.Namespace) -> int:
    split_count = args.split if args.split is not None else 2
    left = dynkin_quiver(parse_dynkin_spec(args.left), split_count=split_count)
    right = dynkin_quiver(parse_dynkin_spec(args.right), split_count=split_count)
    value = tensor_qwc(left, right)
    if args.split is not None:
        value = morita_split(value)
    sys.stdout.write(serialize_quiver_document(value))
    return 0


def _cmd_truncate(args: argparse.Namespace) -> int:
    value = _read_document(args.file)
    cut = _parse_cut_option(args.cut)
    presentation = truncated_presentation(value.qwc, cut)
    quiver = presentation.truncated_quiver
    print("vertices: " + ",".join(quiver.vertices))
    for a in quiver.arrows:
        print(f"arrow {a.name}: {a.source} -> {a.target}")
    for name, entries in presentation.relations.items():
        terms = " ".join(f"{'+' if sign > 0 else '-'}{'.'.join(path) if path else '()'}" for sign, path in entries)
        print(f"relation {name}: {terms}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quivercuts",
        description="Cuts, cut-mutation and canvas topology for quivers with distinguished cycles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a quiver document; exit 0 iff valid")
    p.add_argument("file", nargs="?", default="-", help="document path, or - for stdin")
    p.set_defaults(run=_cmd_validate)

    p = sub.add_parser("cuts", help="enumerate all cuts")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--count-only", action="store_true", help="print only the number of cuts, counted, not listed")
    p.set_defaults(run=_cmd_cuts)

    p = sub.add_parser("check", help="covered / enough-cuts / fully-compatible / simply-connected")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument(
        "--coset-budget",
        type=_positive_int("coset budget"),
        default=DEFAULT_COSET_BUDGET,
        metavar="N",
        help="coset limit for the simply-connected decision (default %(default)s)",
    )
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("mutate", help="apply one cut-mutation")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--cut", required=True, help="comma-separated arrow ids")
    p.add_argument("--vertex", required=True, help="mutation vertex")
    p.add_argument("--dir", required=True, choices=("plus", "minus"), help="mutation direction")
    p.set_defaults(run=_cmd_mutate)

    p = sub.add_parser("graph", help="export the mutation graph")
    p.add_argument("file", nargs="?", default="-")
    style = p.add_mutually_exclusive_group()
    style.add_argument("--dot", action="store_true", help="DOT output (default)")
    style.add_argument("--json", action="store_true", help="JSON output")
    p.add_argument("--directed", action="store_true", help="keep labelled edge directions (DOT only)")
    p.set_defaults(run=_cmd_graph)

    p = sub.add_parser("tensor", help="build a tensor-product quiver document")
    p.add_argument("--left", required=True, metavar="SPEC", help="e.g. A3, B2:1>2, E6")
    p.add_argument("--right", required=True, metavar="SPEC")
    p.add_argument(
        "--split",
        nargs="?",
        const=2,
        type=_positive_int("split count"),
        metavar="N",
        help="Morita-split doubled-extension vertices into N copies (default 2)",
    )
    p.set_defaults(run=_cmd_tensor)

    p = sub.add_parser("truncate", help="print the truncated presentation for a cut")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--cut", required=True, help="comma-separated arrow ids")
    p.set_defaults(run=_cmd_truncate)

    return parser


# Built by the first ``main`` call and reused by every later one in the
# process: ``parse_args`` changes nothing on the parser, each call gets a
# fresh namespace, and the handlers look up module globals when they run.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    parser = _parser
    args = parser.parse_args(argv)
    if args.command == "graph" and args.json and args.directed:
        parser.error("argument --directed: not allowed with argument --json")
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
