"""Mutilated documents: the parser and every document subcommand answer or fail in one line.

Each example takes a fixture document and damages it, either as JSON (a node
replaced, deleted or duplicated) or as text (a slice replaced by junk).  The
parser must return or raise a ``DocumentError``, the same value or error,
and the same warning, as the reader oracle; each subcommand must exit 0, or
exit 1 with one diagnostic line.  Any other exception escapes ``main`` and
fails the test with its traceback.
"""

import contextlib
import io
import json
import sys
import warnings
from unittest import mock

from conftest import fixture_text
from hypothesis import given, settings
from hypothesis import strategies as st
from support import oracle_parse_quiver_document, parse_outcome

from quivercuts.cli import main
from quivercuts.docio import parse_quiver_document

BASES = tuple(fixture_text(name) for name in ("b2b2_split.json", "circle.json", "minimal.json"))
ARROWS = ("a", "b", "c", "d", "e", "f", "g", "h", "br", "lb", "lt", "tr", "zz")
VERTICES = ("1", "2", "3", "4", "5", "B", "L", "T", "9")
KEYS = ("format_version", "vertices", "arrows", "cycles", "id", "source", "target", "sign", "label", "kind", "x")
JUNK = '{}[],:"-01 \n\\ae'

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.sampled_from(VERTICES + ARROWS + ("", "a\nx", "Ext", "Base")),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    max_leaves=6,
)


def _slots(node) -> list:
    """Every ``(container, key)`` pair below ``node``, depth first."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return []
    slots = []
    for key, child in items:
        slots.append((node, key))
        slots += _slots(child)
    return slots


@st.composite
def mutilated_documents(draw) -> str:
    text = draw(st.sampled_from(BASES))
    if draw(st.booleans()):
        doc = json.loads(text)
        for _ in range(draw(st.integers(1, 3))):
            slots = _slots(doc)
            if not slots:
                break
            container, key = draw(st.sampled_from(slots))
            action = draw(st.sampled_from(("replace", "delete", "duplicate")))
            if action == "replace":
                container[key] = draw(json_values)
            elif action == "delete":
                del container[key]
            elif isinstance(container, list):
                container.insert(key, json.loads(json.dumps(container[key])))
        return json.dumps(doc, indent=2)
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 8)))
        text = text[:start] + draw(st.text(JUNK, max_size=3)) + text[end:]
    return text


def _run(argv: list[str], text: str) -> tuple[int, str]:
    """Exit code and stderr of ``quivercuts argv`` reading ``text`` from stdin."""
    err = io.StringIO()
    with (
        mock.patch.object(sys, "stdin", io.StringIO(text)),
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(err),
        warnings.catch_warnings(),
    ):
        warnings.simplefilter("ignore")
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(
    mutilated_documents(),
    st.lists(st.sampled_from(ARROWS), max_size=4),
    st.sampled_from(VERTICES),
    st.sampled_from(("plus", "minus")),
)
def test_mutilated_documents_get_an_answer_or_one_error_line(text, cut, vertex, direction):
    assert parse_outcome(parse_quiver_document, text) == parse_outcome(oracle_parse_quiver_document, text)
    cut_option = ",".join(cut)
    commands = (
        ["validate"],
        ["check", "--coset-budget", "1000"],
        ["cuts"],
        ["cuts", "--count-only"],
        ["graph", "--json"],
        ["graph", "--dot", "--directed"],
        ["mutate", "--cut", cut_option, "--vertex", vertex, "--dir", direction],
        ["truncate", "--cut", cut_option],
    )
    for argv in commands:
        code, err = _run([*argv, "-"], text)
        assert code in (0, 1), (argv, code)
        if code == 1:
            lines = err.splitlines()
            assert len(lines) == 1, (argv, err)
            # validate reports a disconnected but parseable quiver as a violation
            assert lines[0].startswith("error: ") or argv[0] == "validate", (argv, err)
