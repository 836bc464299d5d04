"""Cut counts of products with a tree factor, checked against an independent transfer-matrix count.

``support.oracle_tree_product_count`` shares no code with the cut-state DAG
that ``count_cuts`` reads.  Where a test already pins a count that
``count_cuts`` gives, the oracle is compared with that pin, so no DAG is
built twice.
"""

import hashlib
import json
from pathlib import Path

import pytest
from support import oracle_tree_product_count

from quivercuts.cuts import count_cuts
from quivercuts.tensor import dynkin_quiver, parse_dynkin_spec, tensor_qwc

PINNED = Path(__file__).resolve().parents[1] / "perfbench" / "pinned.json"


def factors(left: str, right: str):
    return dynkin_quiver(parse_dynkin_spec(left)), dynkin_quiver(parse_dynkin_spec(right))


def test_oracle_matches_every_pinned_plain_count():
    # each 'count:' job pins the digest of what 'tensor | cuts --count-only' prints
    jobs = json.loads(PINNED.read_text(encoding="utf-8"))["jobs"]
    plain = {name[len("count:") :]: stages[-1]["sha256"] for name, stages in jobs.items() if name.startswith("count:")}
    del plain["B2:2>1xB2:2>1+split"]  # a Morita split is no tensor product of two factors
    assert len(plain) == 52
    for name, digest in plain.items():
        count = oracle_tree_product_count(*factors(*name.split("x")))
        assert hashlib.sha256(f"{count}\n".encode()).hexdigest() == digest, name


@pytest.mark.parametrize(
    ("left", "right", "count"),
    [
        # pinned through count_cuts by test_cuts.py::test_big_counts_agree_under_factor_swap_and_renaming
        ("E6", "E7", 13527313),
        ("E7", "E7", 166849592),
        ("E8", "E6", 121450718),
        ("E8", "E8", 34864900152),
        # and by test_cli.py::test_a12_squared_counts_within_two_gib
        ("A12", "A12", 28645789175160296213419),
    ],
)
def test_oracle_matches_the_pinned_big_counts(left, right, count):
    assert oracle_tree_product_count(*factors(left, right)) == count


def test_oracle_matches_count_cuts_on_a10_squared():
    left, right = factors("A10", "A10")
    assert oracle_tree_product_count(left, right) == count_cuts(tensor_qwc(left, right).qwc) == 7659334578853703


def test_a_n_times_a2_has_odd_fibonacci_many_cuts():
    fibonacci = [0, 1]
    while len(fibonacci) < 62:
        fibonacci.append(fibonacci[-1] + fibonacci[-2])
    a2 = dynkin_quiver(parse_dynkin_spec("A2"))
    for n in range(2, 31):
        assert count_cuts(tensor_qwc(dynkin_quiver(parse_dynkin_spec(f"A{n}")), a2).qwc) == fibonacci[2 * n + 1], n


# Along A_n in its default, linear orientation the count is 1ᵀ T^(n-1) 1 for the
# transfer matrix T of R, so it obeys a linear recurrence.  Berlekamp–Massey over Q
# on the oracle's counts for 2 <= n <= 41 finds these, c(n) = 5c(n-1) - 6c(n-2) +
# 3c(n-3) - c(n-4) for A3 and so on, from n = 2 on; the n = 1 term, the one cut of
# a quiver with no cycle, would add one to each order.
@pytest.mark.parametrize(
    ("right", "first", "coefficients"),
    [
        ("A3", (13, 44, 153), (5, -6, 3, -1)),
        ("A3:1<2>3", (13, 45, 158), (4, -2, 1)),
        ("D4", (35, 156, 737), (7, -13, 14, -13, 7, -1)),
    ],
)
def test_a_n_times_r_obeys_its_transfer_matrix_recurrence(right, first, coefficients):
    r = dynkin_quiver(parse_dynkin_spec(right))
    counts = [count_cuts(tensor_qwc(dynkin_quiver(parse_dynkin_spec(f"A{n}")), r).qwc) for n in range(2, 25)]
    assert tuple(counts[:3]) == first
    order = len(coefficients)
    for n in range(order, len(counts)):
        assert counts[n] == sum(a * counts[n - 1 - i] for i, a in enumerate(coefficients)), n + 2
