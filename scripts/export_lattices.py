#!/usr/bin/env python3
"""Export the worked mutation lattices and cut diagrams as DOT files.

Writes, into the output directory:

  b2b2_split_quiver.dot    the 5-vertex split quiver, diagonal-like cut dashed
  b2b2_split_lattice.dot   its 7-node mutation lattice
  a3b2_quiver.dot          the A3 x B2 product, diagonal cut dashed
  a3b2_lattice.dot         its 13-node mutation lattice

Pipe any of them through `dot -Tsvg` to render.
"""

import argparse
from pathlib import Path

from quivercuts.docio import mutation_graph_to_dot, quiver_to_dot
from quivercuts.mutation import mutation_graph
from quivercuts.tensor import dynkin_quiver, dynkin_spec, morita_split, standard_cuts, tensor_qwc


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("lattices"), help="output directory")
    parser.add_argument("--directed", action="store_true", help="export directed labelled lattices")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    b2 = dynkin_quiver(dynkin_spec("B", 2, frozenset({("2", "1")})))
    split = morita_split(tensor_qwc(b2, b2))
    _, _, diagonal = standard_cuts(split)
    (args.out / "b2b2_split_quiver.dot").write_text(quiver_to_dot(split, cut=diagonal))
    with open(args.out / "b2b2_split_lattice.dot", "w") as out:
        mutation_graph_to_dot(mutation_graph(split.qwc), out, directed=args.directed)

    a3 = dynkin_quiver(dynkin_spec("A", 3, frozenset({("2", "1"), ("2", "3")})))
    b2d = dynkin_quiver(dynkin_spec("B", 2))
    product = tensor_qwc(a3, b2d)
    _, _, diagonal = standard_cuts(product)
    (args.out / "a3b2_quiver.dot").write_text(quiver_to_dot(product, cut=diagonal))
    with open(args.out / "a3b2_lattice.dot", "w") as out:
        mutation_graph_to_dot(mutation_graph(product.qwc), out, directed=args.directed)

    for name in sorted(p.name for p in args.out.glob("*.dot")):
        print(f"wrote {args.out / name}")


if __name__ == "__main__":
    main()
