#!/usr/bin/env python3
"""Survey cut counts and mutation-graph shape over pairs of Dynkin species.

For every ordered pair from a small catalog this builds the tensor-product
quiver with cycles, counts its cuts, and reports the structural verdicts
next to the mutation graph's connectivity.  The headline rows reproduce the worked
examples: B2 x B2 (split: 7 cuts), A3 x B2 (13 cuts) and E6 x F4 (16599).
"""

import argparse
import time

from quivercuts.canvas import euler_characteristic, is_simply_connected
from quivercuts.cuts import count_cuts, is_covered, is_fully_compatible
from quivercuts.mutation import mutation_graph
from quivercuts.tensor import dynkin_quiver, morita_split, parse_dynkin_spec, tensor_qwc

DEFAULT_CATALOG = ["A2", "A3:1<2>3", "B2:2>1", "C2", "G2", "A4", "D4", "F4"]


def survey_pair(left_text: str, right_text: str, split: bool) -> dict:
    left = dynkin_quiver(parse_dynkin_spec(left_text))
    right = dynkin_quiver(parse_dynkin_spec(right_text))
    value = tensor_qwc(left, right)
    if split:
        value = morita_split(value)
    q = value.qwc
    started = time.perf_counter()
    return {
        "pair": f"{left_text} x {right_text}" + (" (split)" if split else ""),
        "vertices": len(q.quiver.vertices),
        "arrows": len(q.quiver.arrows),
        "cycles": len(q.cycles),
        "chi": euler_characteristic(q),
        "cuts": count_cuts(q),
        "connected": mutation_graph(q).is_connected,
        "covered": is_covered(q),
        "fully_compatible": is_fully_compatible(q),
        "simply_connected": is_simply_connected(q).status,
        "seconds": time.perf_counter() - started,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("specs", nargs="*", default=DEFAULT_CATALOG, help="Dynkin specs to pair up")
    parser.add_argument("--with-e6f4", action="store_true", help="include the large E6 x F4 row")
    parser.add_argument("--split", action="store_true", help="Morita-split every product")
    args = parser.parse_args()

    pairs = [(a, b) for i, a in enumerate(args.specs) for b in args.specs[i:]]
    if args.with_e6f4:
        pairs.append(("E6", "F4"))
    header = f"{'pair':28} {'V':>3} {'A':>3} {'C':>3} {'chi':>3} {'cuts':>6} conn cov comp sc {'time':>7}"
    print(header)
    print("-" * len(header))
    for left, right in pairs:
        row = survey_pair(left, right, args.split)
        print(
            f"{row['pair']:28} {row['vertices']:>3} {row['arrows']:>3} {row['cycles']:>3}"
            f" {row['chi']:>3} {row['cuts']:>6}"
            f" {'yes' if row['connected'] else 'NO ':>4}"
            f" {'yes' if row['covered'] else 'NO ':>3}"
            f" {'yes' if row['fully_compatible'] else 'NO ':>4}"
            f" {row['simply_connected']:>3}"
            f" {row['seconds']:>6.2f}s"
        )


if __name__ == "__main__":
    main()
