import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import FIXTURES

import quivercuts
from quivercuts import cli
from quivercuts.canvas import AbelianGroup, h1
from quivercuts.cli import build_parser, main
from quivercuts.cuts import UncoveredQuiverWarning
from quivercuts.docio import DisconnectedQuiverWarning, parse_quiver_document
from quivercuts.mutation import MutationGraph, is_transitive, strict_sinks, strict_sources

B2B2 = str(FIXTURES / "b2b2_split.json")
CIRCLE = str(FIXTURES / "circle.json")
MINIMAL = str(FIXTURES / "minimal.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, err = run(capsys, "validate", MINIMAL)
    assert code == 0
    assert out == ""


def test_validate_rejects_broken_document(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "format_version": 1,
                "vertices": [{"id": "1"}],
                "arrows": [{"id": "a", "source": "1", "target": "9"}],
                "cycles": [],
            }
        )
    )
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "'9'" in err


TWO_VERTICES = {"format_version": 1, "vertices": [{"id": "1"}, {"id": "2"}], "arrows": [], "cycles": []}
DISCONNECTED = "quiver is not connected (2 components, containing '1', '2')\n"


def test_validate_reports_disconnected(tmp_path, capsys, recwarn):
    doc = tmp_path / "two.json"
    doc.write_text(json.dumps(TWO_VERTICES))
    assert run(capsys, "validate", str(doc)) == (1, "", DISCONNECTED)
    assert not [w for w in recwarn if issubclass(w.category, DisconnectedQuiverWarning)]


def test_validate_reports_disconnected_once_in_a_child_process(tmp_path):
    doc = tmp_path / "two.json"
    doc.write_text(json.dumps(TWO_VERTICES))
    done = subprocess.run(
        [sys.executable, "-m", "quivercuts", "validate", str(doc)], capture_output=True, text=True, env=_child_env()
    )
    assert (done.returncode, done.stdout, done.stderr) == (1, "", DISCONNECTED)


@pytest.mark.parametrize("document", ["minimal", "disconnected"])
def test_validate_validates_once(tmp_path, capsys, monkeypatch, document):
    path = MINIMAL
    if document == "disconnected":
        path = str(tmp_path / "two.json")
        Path(path).write_text(json.dumps(TWO_VERTICES))
    calls = []
    original = quivercuts.model.validate

    def counting(q):
        calls.append(q)
        return original(q)

    for module in (quivercuts, quivercuts.model, quivercuts.docio, quivercuts.cli):
        if getattr(module, "validate", None) is original:
            monkeypatch.setattr(module, "validate", counting)
    code, _, _ = run(capsys, "validate", path)
    assert code == (1 if document == "disconnected" else 0)
    assert len(calls) == 1


def test_other_commands_keep_the_disconnected_warning(tmp_path, capsys):
    doc = tmp_path / "two.json"
    doc.write_text(json.dumps(TWO_VERTICES))
    with pytest.warns(DisconnectedQuiverWarning, match="not connected"):
        assert run(capsys, "cuts", str(doc), "--count-only") == (0, "1\n", "")


def test_validate_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "error:" in err


def test_validate_deeply_nested_json(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    code, out, err = run(capsys, "validate", str(deep))
    assert (code, out, err) == (1, "", "error: nesting too deep\n")


def test_validate_overlong_number(tmp_path, capsys):
    long = tmp_path / "long.json"
    long.write_text('{"format_version": 1, "vertices": [], "arrows": [' + "9" * 5000 + "]}")
    code, out, err = run(capsys, "validate", str(long))
    assert (code, out, err) == (1, "", f"error: number longer than {sys.get_int_max_str_digits()} digits\n")


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"arrows": 5}, "arrows must be an array"),
        ({"cycles": None}, "cycles must be an array"),
        ({"cycles": [{"arrows": ["a"], "sign": True}]}, "cycles[0].sign: expected 1 or -1, got True"),
        ({"arrows": [{"id": "a,b", "source": "1", "target": "1"}]}, "arrows[0].id: arrow id 'a,b' contains ','"),
        (  # 'cuts' would list this quiver's two cuts on three lines
            {
                "vertices": [{"id": "1"}, {"id": "2"}],
                "arrows": [
                    {"id": "a\nx", "source": "1", "target": "2"},
                    {"id": "b", "source": "2", "target": "1"},
                    {"id": "c", "source": "2", "target": "1"},
                ],
                "cycles": [{"arrows": ["a\nx", "b"]}, {"arrows": ["a\nx", "c"]}],
            },
            "arrows[0].id: arrow id 'a\\nx' contains a line break",
        ),
    ],
    ids=["arrows-number", "cycles-null", "sign-bool", "comma-in-arrow-id", "line-break-in-arrow-id"],
)
def test_validate_schema_error_is_one_line(tmp_path, capsys, fields, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format_version": 1, "vertices": [{"id": "1"}], **fields}))
    for command in ("validate", "check", "cuts"):
        code, out, err = run(capsys, command, str(bad))
        assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "path, message",
    [
        ("./nope.json", "[Errno 2] No such file or directory: './nope.json'"),
        ("", "[Errno 2] No such file or directory: ''"),  # not "Is a directory: '.'", as a pathlib.Path read it
    ],
)
def test_an_unreadable_path_is_named_as_given(tmp_path, capsys, monkeypatch, path, message):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "validate", path) == (1, "", f"error: {message}\n")


def test_truncate_refuses_a_vertex_id_with_a_line_break(tmp_path, capsys):
    # 'truncate' printed this document's three records on five lines, its vertex id split in two
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "format_version": 1,
                "vertices": [{"id": "1\nx"}, {"id": "2"}],
                "arrows": [{"id": "a", "source": "1\nx", "target": "2"}, {"id": "b", "source": "2", "target": "1\nx"}],
                "cycles": [{"arrows": ["a", "b"]}],
            }
        )
    )
    code, out, err = run(capsys, "truncate", str(bad), "--cut", "a")
    assert (code, out, err) == (1, "", "error: vertices[0].id: vertex id '1\\nx' contains a line break\n")


def test_cuts_listing(capsys):
    code, out, _ = run(capsys, "cuts", B2B2)
    assert code == 0
    assert out.splitlines() == [
        "a,b,e",
        "a,b,g,h",
        "a,f,h",
        "b,c,g",
        "c,f",
        "d,e",
        "d,g,h",
    ]


def test_cuts_count_only(capsys):
    code, out, _ = run(capsys, "cuts", B2B2, "--count-only")
    assert code == 0
    assert out == "7\n"


def test_cuts_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO((FIXTURES / "b2b2_split.json").read_text()))
    code, out, _ = run(capsys, "cuts", "--count-only")
    assert code == 0
    assert out == "7\n"


def test_cuts_count_only_warns_like_listing(capsys):
    # the circle has no distinguished cycles, so its one cut is the empty cut
    with pytest.warns(UncoveredQuiverWarning, match="no distinguished cycles"):
        code, out, _ = run(capsys, "cuts", CIRCLE, "--count-only")
    assert (code, out) == (0, "1\n")
    with pytest.warns(UncoveredQuiverWarning, match="no distinguished cycles"):
        assert run(capsys, "cuts", CIRCLE) == (0, "\n", "")


def test_count_e6e6_in_process(capsys, monkeypatch):
    code, document, _ = run(capsys, "tensor", "--left", "E6", "--right", "E6")
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(document))
    assert run(capsys, "cuts", "--count-only") == (0, "1505721\n", "")


def test_deep_cut_document(tmp_path, capsys):
    # one vertex with 1500 loops, each its own cycle: one cut of 1500 arrows, deeper than the recursion limit
    names = [f"a{i:04d}" for i in range(1500)]
    document = tmp_path / "loops.json"
    document.write_text(
        json.dumps(
            {
                "format_version": 1,
                "vertices": [{"id": "v"}],
                "arrows": [{"id": name, "source": "v", "target": "v"} for name in names],
                "cycles": [{"arrows": [name]} for name in names],
            }
        )
    )
    assert run(capsys, "cuts", str(document), "--count-only") == (0, "1\n", "")
    assert run(capsys, "cuts", str(document)) == (0, ",".join(names) + "\n", "")
    code, out, err = run(capsys, "check", str(document))
    assert (code, err) == (0, "")
    assert out.splitlines()[:3] == ["covered: yes", "enough-cuts: yes", "fully-compatible: yes"]
    assert out.splitlines()[3].startswith("simply-connected: Yes")


def test_loops_of_order_two_check_in_time(tmp_path, capsys):
    # one vertex with 1500 loops, each bounding the 2-cycle (a, a): H1 is (Z/2)^1500;
    # the dense Smith pivot loop was cubic in the loops: 42 s at 1000 on a 2-core host
    names = [f"a{i:04d}" for i in range(1500)]
    document = tmp_path / "loops2.json"
    document.write_text(
        json.dumps(
            {
                "format_version": 1,
                "vertices": [{"id": "v"}],
                "arrows": [{"id": name, "source": "v", "target": "v"} for name in names],
                "cycles": [{"arrows": [name, name]} for name in names],
            }
        )
    )
    start = time.perf_counter()
    code, out, err = run(capsys, "check", str(document))
    assert time.perf_counter() - start < 10
    assert (code, err) == (0, "")
    assert out.splitlines()[3] == "simply-connected: No (H1 rank 0, torsion " + "x".join(["2"] * 1500) + ")"
    assert h1(parse_quiver_document(document.read_text()).qwc) == AbelianGroup(0, (2,) * 1500)



def test_long_cycle_document_counts_in_linear_time(tmp_path, capsys):
    # one 50,000-arrow cycle has one cut per arrow; putting the cycle in its least
    # rotation took about 20 s when every rotation was built and compared
    n = 50000
    names = [f"a{i:05d}" for i in range(n)]
    document = tmp_path / "long_cycle.json"
    document.write_text(
        json.dumps(
            {
                "format_version": 1,
                "vertices": [{"id": str(i)} for i in range(n)],
                "arrows": [{"id": name, "source": str(i), "target": str((i + 1) % n)} for i, name in enumerate(names)],
                "cycles": [{"arrows": names[n // 2 :] + names[: n // 2]}],
            }
        )
    )
    start = time.perf_counter()
    assert run(capsys, "cuts", str(document), "--count-only") == (0, f"{n}\n", "")
    assert time.perf_counter() - start < 10


E7F4_CUTS_SHA256 = "ae524c14830e1301ea906642ae587860629c4c2508b60d1a87f17e85caa0172b"


def test_cuts_listing_e7f4_is_pinned(capsys, monkeypatch):
    # the sha256 of the 79,159 lines, recorded before the listing ran on masks
    code, document, _ = run(capsys, "tensor", "--left", "E7", "--right", "F4")
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(document))
    code, out, err = run(capsys, "cuts")
    assert (code, err) == (0, "")
    assert out.count("\n") == 79159
    assert hashlib.sha256(out.encode()).hexdigest() == E7F4_CUTS_SHA256


def test_cuts_of_a_quiver_with_no_cut(tmp_path, capsys):
    # the loop occurs twice in its one cycle, so no arrow set meets the cycle exactly once
    document = tmp_path / "twice.json"
    document.write_text(
        json.dumps(
            {
                "format_version": 1,
                "vertices": [{"id": "v"}],
                "arrows": [{"id": "l", "source": "v", "target": "v"}],
                "cycles": [{"arrows": ["l", "l"]}],
            }
        )
    )
    assert run(capsys, "cuts", str(document)) == (0, "", "")
    assert run(capsys, "cuts", str(document), "--count-only") == (0, "0\n", "")


def test_cuts_of_one_long_cycle(tmp_path, capsys):
    # one cycle of 3000 arrows: 3000 cuts of one arrow each, in name order
    names = [f"x{i:04d}" for i in range(3000)]
    document = tmp_path / "cycle.json"
    document.write_text(
        json.dumps(
            {
                "format_version": 1,
                "vertices": [{"id": str(i)} for i in range(3000)],
                "arrows": [
                    {"id": name, "source": str(i), "target": str((i + 1) % 3000)} for i, name in enumerate(names)
                ],
                "cycles": [{"arrows": names}],
            }
        )
    )
    assert run(capsys, "cuts", str(document)) == (0, "".join(name + "\n" for name in names), "")


def test_check_b2b2(capsys):
    code, out, _ = run(capsys, "check", B2B2)
    assert code == 0
    assert out == (
        "covered: yes\n"
        "enough-cuts: yes\n"
        "fully-compatible: yes\n"
        "simply-connected: Yes (coset table closed with 1 coset)\n"
    )


def test_check_past_the_dag_cap_answers_every_line(monkeypatch, tmp_path, capsys):
    # the two verdicts read off the cut-state DAG are Unknown past its cap, the DAG build is tried
    # once for both, and the coset verdict, which needs no DAG, is still given
    assert main(["tensor", "--left", "F4", "--right", "E6"]) == 0
    document = tmp_path / "f4e6.json"
    document.write_text(capsys.readouterr().out)
    monkeypatch.setattr("quivercuts.model.MAX_DAG_STATES", 10)
    builds = []
    order = quivercuts.model._frontier_order
    monkeypatch.setattr("quivercuts.model._frontier_order", lambda near: builds.append(near) or order(near))
    unknown = "Unknown (cut-state DAG past 10 states)"
    code, out, err = run(capsys, "check", str(document))
    assert (code, err, len(builds)) == (0, "", 1)
    assert out.splitlines() == [
        "covered: yes",
        f"enough-cuts: {unknown}",
        f"fully-compatible: {unknown}",
        "simply-connected: Yes (coset table closed with 1 coset)",
    ]
    # counting has no Unknown: it still ends in one error line
    assert run(capsys, "cuts", "--count-only", str(document)) == (
        1,
        "",
        "error: the cut-state DAG is too large: more than 10 states\n",
    )


def test_listings_past_the_cut_cap_exit_with_one_line(monkeypatch, tmp_path, capsys):
    # the cap is read off the cut-state DAG's count: every listing is refused with one line and no
    # output, while counting and check, which list no cut, are not
    assert main(["tensor", "--left", "F4", "--right", "E6"]) == 0
    document = tmp_path / "f4e6.json"
    document.write_text(capsys.readouterr().out)
    monkeypatch.setattr("quivercuts.cuts.MAX_LISTED_CUTS", 10)
    error = "error: 16599 cuts are too many to list: more than 10\n"
    for argv in (["cuts"], ["graph", "--json"], ["graph", "--dot"]):
        assert run(capsys, *argv, str(document)) == (1, "", error)
    assert run(capsys, "cuts", "--count-only", str(document)) == (0, "16599\n", "")
    code, out, err = run(capsys, "check", str(document))
    assert (code, err, out.splitlines()[1:3]) == (0, "", ["enough-cuts: yes", "fully-compatible: yes"])


@pytest.mark.filterwarnings("ignore::quivercuts.cuts.UncoveredQuiverWarning")
def test_check_circle(capsys):
    code, out, _ = run(capsys, "check", CIRCLE)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "covered: no"
    assert lines[1] == "enough-cuts: no"
    assert lines[3] == "simply-connected: No (H1 rank 1)"


def test_check_budget_flag(capsys):
    code, out, _ = run(capsys, "check", B2B2, "--coset-budget", "2")
    assert code == 0
    assert "simply-connected: Unknown (budget exhausted at 2 cosets)" in out


# One-vertex canvases, one loop per generator and one cycle per relator, so
# each fundamental group is the group presented.
ONE_VERTEX_CANVASES = {
    "vonDyck(2,3,5)": ("xy", ("x" * 2, "y" * 3, "xy" * 5), "No (coset table closed with 60 cosets)"),
    "vonDyck(2,3,4)": ("xy", ("x" * 2, "y" * 3, "xy" * 4), "No (H1 rank 0, torsion 2)"),
    "vonDyck(3,3,4)": ("xy", ("x" * 3, "y" * 3, "xy" * 4), "No (H1 rank 0, torsion 3)"),
    "vonDyck(2,3,7)": ("xy", ("x" * 2, "y" * 3, "xy" * 7), "Unknown (budget exhausted at 5000 cosets)"),
    "vonDyck(3,4,5)": ("xy", ("x" * 3, "y" * 4, "xy" * 5), "Unknown (budget exhausted at 5000 cosets)"),
    "xyz(2,3,5,7)": ("xyz", ("x" * 2, "y" * 3, "z" * 5, "xyz" * 7), "Unknown (budget exhausted at 5000 cosets)"),
}


@pytest.mark.filterwarnings("ignore::quivercuts.cuts.UncoveredQuiverWarning")
@pytest.mark.parametrize("name", ONE_VERTEX_CANVASES)
def test_check_one_vertex_canvases(tmp_path, capsys, name):
    generators, relators, verdict = ONE_VERTEX_CANVASES[name]
    document = tmp_path / "canvas.json"
    document.write_text(
        json.dumps(
            {
                "format_version": 1,
                "vertices": [{"id": "o"}],
                "arrows": [{"id": g, "source": "o", "target": "o"} for g in generators],
                "cycles": [{"arrows": list(word)} for word in relators],
            }
        )
    )
    code, out, _ = run(capsys, "check", str(document), "--coset-budget", "5000")
    assert code == 0
    assert out.splitlines()[3] == f"simply-connected: {verdict}"


# The canvas fixtures and the last line of ``check --coset-budget 5000`` on each,
# which the stdlib-only CI job (.github/workflows/tier1.yml) also asserts.
CANVAS_FIXTURES = {
    "von_dyck_235.json": "simply-connected: No (coset table closed with 60 cosets)",
    "von_dyck_237.json": "simply-connected: Unknown (budget exhausted at 5000 cosets)",
    "xyz_2357.json": "simply-connected: Unknown (budget exhausted at 5000 cosets)",
}


@pytest.mark.parametrize("name", CANVAS_FIXTURES)
def test_check_canvas_fixtures(capsys, name):
    code, out, err = run(capsys, "check", "--coset-budget", "5000", str(FIXTURES / name))
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == CANVAS_FIXTURES[name]
    workflow = (FIXTURES.parents[1] / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    assert f"tests/fixtures/{name}" in workflow and f"'{CANVAS_FIXTURES[name]}'" in workflow


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_check_rejects_non_positive_budget(capsys, budget):
    with pytest.raises(SystemExit) as excinfo:
        main(["check", B2B2, "--coset-budget", budget])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "coset budget must be positive" in captured.err


def test_mutate(capsys):
    code, out, _ = run(capsys, "mutate", B2B2, "--cut", "d,e", "--vertex", "3", "--dir", "minus")
    assert code == 0
    assert out == "c,f\n"
    code, out, _ = run(capsys, "mutate", B2B2, "--cut", "c,f", "--vertex", "3", "--dir", "plus")
    assert out == "d,e\n"


def test_mutate_errors(capsys):
    code, _, err = run(capsys, "mutate", B2B2, "--cut", "a", "--vertex", "3", "--dir", "plus")
    assert code == 1 and "not a cut" in err
    code, _, err = run(capsys, "mutate", B2B2, "--cut", "d,e", "--vertex", "1", "--dir", "minus")
    assert code == 1 and "strict sink" in err


def test_mutate_unknown_vertex(capsys):
    code, out, err = run(capsys, "mutate", B2B2, "--cut", "d,e", "--vertex", "nope", "--dir", "minus")
    assert (code, out, err) == (1, "", "error: unknown vertex 'nope'\n")


def test_mutate_ignores_free_arrows(tmp_path, capsys):
    # A1 x A2 has no cycles, so its one arrow is free and no vertex is strict under the empty cut
    assert main(["tensor", "--left", "A1", "--right", "A2"]) == 0
    document = tmp_path / "a1a2.json"
    document.write_text(capsys.readouterr().out)
    code, out, err = run(capsys, "mutate", str(document), "--cut", "", "--vertex", "1,1", "--dir", "plus")
    assert (code, out, err) == (1, "", "error: vertex '1,1' is not a strict source of the cut\n")


@pytest.mark.parametrize("command", [["mutate", "--vertex", "3", "--dir", "plus"], ["truncate"]])
def test_unknown_cut_arrow(capsys, command):
    code, out, err = run(capsys, command[0], B2B2, "--cut", "zz", *command[1:])
    assert (code, out, err) == (1, "", "error: unknown arrow 'zz'\n")


def test_key_error_in_a_handler_propagates(monkeypatch):
    # only domain errors (ValueError, OSError) become exit status 1; a KeyError is a bug and surfaces
    def broken(q):
        raise KeyError("bug")

    monkeypatch.setattr("quivercuts.cuts.is_covered", broken)  # the handler imports it when it runs
    with pytest.raises(KeyError, match="bug"):
        main(["check", B2B2])


def test_graph_dot_deterministic(capsys):
    code, first, _ = run(capsys, "graph", B2B2)
    assert code == 0 and first.startswith("graph")
    code, second, _ = run(capsys, "graph", B2B2, "--dot")
    assert first == second


def test_graph_json(capsys):
    code, out, _ = run(capsys, "graph", B2B2, "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 7


def test_graph_directed(capsys):
    code, out, _ = run(capsys, "graph", B2B2, "--directed")
    assert code == 0
    assert out.count(" -> ") == 18


def test_graph_builds_no_edge_or_node_tuple(capsys, monkeypatch):
    # the exports stream from the graph's per-mutation columns, and transitivity is union-find over them
    def refused(graph):
        raise AssertionError("an edge or node tuple was built")

    monkeypatch.setattr(MutationGraph, "edges", property(refused))
    monkeypatch.setattr(MutationGraph, "nodes", property(refused))
    for mode in (["--json"], ["--dot"], ["--dot", "--directed"]):
        code, out, err = run(capsys, "graph", B2B2, *mode)
        assert (code, err) == (0, "") and out.endswith("}\n")
    assert is_transitive(parse_quiver_document(Path(B2B2).read_text()).qwc)


def test_graph_json_rejects_directed(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["graph", B2B2, "--json", "--directed"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--directed: not allowed with argument --json" in captured.err


def test_tensor_document(capsys):
    code, out, _ = run(capsys, "tensor", "--left", "A2", "--right", "A2")
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 4
    assert len(data["arrows"]) == 5
    assert len(data["cycles"]) == 2


def test_tensor_split_document(capsys):
    code, out, _ = run(capsys, "tensor", "--left", "B2:2>1", "--right", "B2:2>1", "--split")
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 5
    assert len(data["arrows"]) == 8
    assert len(data["cycles"]) == 4


def test_tensor_split_count(capsys):
    code, out, _ = run(capsys, "tensor", "--left", "B2:2>1", "--right", "B2:2>1", "--split", "3")
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 6
    assert len(data["arrows"]) == 11


# sha256 of the tensor document bytes
TENSOR_DOCUMENTS = {
    ("E6", "F4"): "23281ab2fd1d8de4e71e08f341213abefc0af6a628e202acba0ce4398e937802",
    ("B2:2>1", "B2:2>1", "--split"): "5d71f9235211fbf72256ff3e2cab2878048f1e9588d4d316d6c01d8e1596f150",
    ("F4", "G2", "--split", "3"): "8ecc28df7bc3caf4e01258bae00b50a1fc7ec5856798a639de0f62ddb8be310b",
    ("C3", "B3", "--split"): "7edf2a2534051bdea5a8833904e67327a5009467fbfbb1bf6d44f02b65c62401",
}


@pytest.mark.parametrize("argv", list(TENSOR_DOCUMENTS), ids=lambda argv: "-".join(argv).replace(":", ""))
def test_tensor_document_bytes_are_pinned(capsys, argv):
    left, right, *split = argv
    code, out, err = run(capsys, "tensor", "--left", left, "--right", right, *split)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == TENSOR_DOCUMENTS[argv]


@pytest.mark.parametrize("count", ["0", "-3"])
@pytest.mark.parametrize("family", ["A2", "B2:2>1", "C3", "F4"])
def test_tensor_rejects_non_positive_split(capsys, family, count):
    with pytest.raises(SystemExit) as excinfo:
        main(["tensor", "--left", family, "--right", family, "--split", count])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "split count must be positive" in captured.err


def test_tensor_bad_spec(capsys):
    code, _, err = run(capsys, "tensor", "--left", "H9", "--right", "A2")
    assert code == 1
    assert "Dynkin" in err


def test_truncate(capsys):
    code, out, _ = run(capsys, "truncate", B2B2, "--cut", "d,e")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "vertices: 1,2,3,4,5"
    assert "arrow a: 1 -> 2" in lines
    assert "relation d: +a.c -b.f" in lines
    assert "relation e: +h.c -g.f" in lines


# sha256 of 'truncate --cut d,e' on the B2xB2 split; the stdlib-only CI job checks it
TRUNCATE_DE = "68c1dbfb6246c877688dd154b2553d792ddf6d4684754af3d87212ac7024fceb"


def test_ci_runs_the_single_cut_commands(capsys):
    # the stdlib-only CI job's lines for validate, mutate and truncate give what test_mutate and test_truncate read
    workflow = (Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    fixture = "tests/fixtures/b2b2_split.json"
    assert run(capsys, "validate", B2B2) == (0, "", "")
    assert f"python -m quivercuts validate {fixture}\n" in workflow
    for cut, direction, image in (("d,e", "minus", "c,f"), ("c,f", "plus", "d,e")):
        assert run(capsys, "mutate", B2B2, "--cut", cut, "--vertex", "3", "--dir", direction) == (0, image + "\n", "")
        command = f"mutate --cut {cut} --vertex 3 --dir {direction} {fixture}"
        assert f'test "$(python -m quivercuts {command})" = {image}\n' in workflow
    code, out, err = run(capsys, "truncate", B2B2, "--cut", "d,e")
    assert (code, err, hashlib.sha256(out.encode()).hexdigest()) == (0, "", TRUNCATE_DE)
    assert f"truncate --cut d,e {fixture} | sha256sum | cut -d ' ' -f 1)\" = {TRUNCATE_DE}" in workflow


def test_truncate_prints_the_zero_relation_of_a_free_arrow(tmp_path, capsys):
    # f lies in no distinguished cycle, so a cut may hold it and its relation is zero
    document = tmp_path / "free.json"
    document.write_text(
        json.dumps(
            {
                "format_version": 1,
                "vertices": [{"id": "1"}, {"id": "2"}],
                "arrows": [
                    {"id": "a", "source": "1", "target": "2"},
                    {"id": "b", "source": "2", "target": "1"},
                    {"id": "f", "source": "1", "target": "2"},
                ],
                "cycles": [{"arrows": ["a", "b"]}],
            }
        )
    )
    code, out, err = run(capsys, "truncate", str(document), "--cut", "a,f")
    assert (code, err) == (0, "")
    assert out == "vertices: 1,2\narrow b: 2 -> 1\nrelation a: +b\nrelation f: 0\n"


def test_every_printed_cut_is_read_back(tmp_path, capsys):
    # A3 x B2: each line of cuts is a --cut that truncate takes, and mutate prints another line
    assert main(["tensor", "--left", "A3:1<2>3", "--right", "B2:1>2"]) == 0
    document = tmp_path / "a3b2.json"
    document.write_text(capsys.readouterr().out)
    code, out, _ = run(capsys, "cuts", str(document))
    lines = out.splitlines()
    assert code == 0 and len(lines) > 1
    q = parse_quiver_document(document.read_text()).qwc
    mutations = 0
    for line in lines:
        assert run(capsys, "truncate", str(document), "--cut", line)[::2] == (0, "")
        cut = line.split(",")
        for direction, vertices in (("plus", strict_sources(q, cut)), ("minus", strict_sinks(q, cut))):
            for vertex in sorted(vertices):
                argv = ["mutate", str(document), "--cut", line, "--vertex", vertex, "--dir", direction]
                code, out, err = run(capsys, *argv)
                assert (code, err) == (0, "") and out[:-1] in lines
                mutations += 1
    assert mutations


def test_truncate_rejects_non_cut(capsys):
    code, _, err = run(capsys, "truncate", B2B2, "--cut", "a,b")
    assert code == 1
    assert "not a cut" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["mutate", B2B2, "--cut", "d,e", "--vertex", "3", "--dir", "sideways"])
    assert excinfo.value.code == 2


def _child_env():
    # the child processes import the same quivercuts as this test, installed or not
    package_root = str(Path(quivercuts.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}


def _pipe_count(left, right):
    env = _child_env()
    tensor = subprocess.run(
        [sys.executable, "-m", "quivercuts", "tensor", "--left", left, "--right", right],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    counted = subprocess.run(
        [sys.executable, "-m", "quivercuts", "cuts", "--count-only"],
        input=tensor.stdout,
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    return counted.stdout


def _capped(argv, megabytes, document=None):
    """Exit code, stdout, stderr and wall seconds of ``quivercuts argv`` in a child with ``megabytes`` of address space.

    ``RLIMIT_AS`` is set in the child alone, between fork and exec.
    """
    cap = megabytes * 2**20
    started = time.perf_counter()
    child = subprocess.run(
        [sys.executable, "-m", "quivercuts", *argv],
        input=document,
        capture_output=True,
        text=True,
        env=_child_env(),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    return child.returncode, child.stdout, child.stderr, time.perf_counter() - started


# the (2,3,7) triangle group on one vertex: infinite and perfect, so its coset table only grows
VON_DYCK_237 = json.dumps(
    {
        "format_version": 1,
        "vertices": [{"id": "o"}],
        "arrows": [{"id": g, "source": "o", "target": "o"} for g in "xy"],
        "cycles": [{"arrows": list(word)} for word in ("xx", "yyy", "xy" * 7)],
    }
)


@pytest.mark.parametrize(
    "argv, document, megabytes, seconds, message",
    [
        (["tensor", "--left", "A99999999999", "--right", "A1"], None, 400, 2, "A99999999999 is too large"),
        (
            ["tensor", "--left", "B2", "--right", "B2", "--split", "100000000"],
            None,
            400,
            2,
            "the split into 100000000 copies is too large",
        ),
        # a budget of 10^8 cosets would take about 6 GB, and coset.MAX_COSET_CELLS still lets
        # 1.25 * 10^7 cosets of 4 cells take about 850 MB; the cap ends the table in about 3.5 s
        (["check", "--coset-budget", "100000000", "-"], VON_DYCK_237, 200, 20, "check ran out of memory"),
    ],
    ids=["huge-rank", "huge-split", "huge-coset-budget"],
)
def test_resource_limits_end_in_one_error_line(argv, document, megabytes, seconds, message):
    code, _, err, elapsed = _capped(argv, megabytes, document)
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}"), err
    assert elapsed < seconds


def test_ci_runs_the_listings_past_the_cut_cap(capsys):
    # the stdlib-only CI job's lines for E7xE7 give what cuts and graph --json print here, in a child held
    # to 400 MB: its 166,849,592 cuts are refused from their count, before any mask is built
    workflow = (Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    assert main(["tensor", "--left", "E7", "--right", "E7"]) == 0
    document = capsys.readouterr().out
    error = "error: 166849592 cuts are too many to list: more than 4000000"
    for argv in (["cuts", "-"], ["graph", "--json", "-"]):
        code, out, err, elapsed = _capped(argv, 400, document)
        assert (code, out, err) == (1, "", error + "\n")
        assert elapsed < 5
    for line in (
        "python -m quivercuts tensor --left E7 --right E7 > e7e7.json",
        "for command in cuts 'graph --json'; do",
        "python -m quivercuts $command e7e7.json > out.txt 2> err.txt || code=$?",
        'test "$code" = 1',
        "test ! -s out.txt",
        f"printf '%s\\n' '{error}' | diff - err.txt",
    ):
        assert f"  {line}\n" in workflow


# (2,3,7) with 200 more loops of order 2 and 3: rows of 404 cells, about 1.8 kB a coset
WIDE_VON_DYCK_237 = json.dumps(
    {
        "format_version": 1,
        "vertices": [{"id": "o"}],
        "arrows": [{"id": g, "source": "o", "target": "o"} for g in ["x", "y", *(f"z{i:03d}" for i in range(200))]],
        "cycles": [{"arrows": list(word)} for word in ("xx", "yyy", "xy" * 7)]
        + [{"arrows": [f"z{i:03d}"] * k} for i in range(200) for k in (2, 3)],
    }
)


def test_wide_coset_table_stops_at_its_cell_cap():
    # the default budget of 10^6 cosets would take about 1.8 GB at this width
    code, out, err, elapsed = _capped(["check", "-"], 1024, WIDE_VON_DYCK_237)
    assert (code, err) == (0, "")
    # coset.MAX_COSET_CELLS // 404 cosets
    assert out.splitlines()[-1] == "simply-connected: Unknown (coset table full at 123762 cosets)"
    assert elapsed < 10


def test_a12_squared_counts_within_two_gib(capsys):
    # 114,675 DAG states in the frontier order; branching each state on the cycle
    # with the fewest candidates ran out of memory here
    assert main(["tensor", "--left", "A12", "--right", "A12"]) == 0
    document = capsys.readouterr().out
    code, out, err, elapsed = _capped(["cuts", "--count-only", "-"], 2048, document)
    assert (code, out, err) == (0, "28645789175160296213419\n", "")
    assert elapsed < 20


def test_a12_squared_checks_within_200_mib(capsys):
    # compatibility keeps one packed int per DAG state; a tuple of its 242 walk
    # grades per state ran out of memory here
    assert main(["tensor", "--left", "A12", "--right", "A12"]) == 0
    document = capsys.readouterr().out
    code, out, err, elapsed = _capped(["check", "-"], 200, document)
    verdicts = "covered: yes\nenough-cuts: yes\nfully-compatible: yes\n"
    assert (code, out, err) == (0, verdicts + "simply-connected: Yes (coset table closed with 1 coset)\n", "")
    assert elapsed < 20


def test_d4e7_graph_json_within_80_mib(capsys):
    # 88,428 nodes and 972,964 edges: the sorted edge tuples needed 121 to 140 MiB of address space
    # under CPython 3.11 and 3.13, the per-mutation columns under 45; the output is hashed as it streams
    assert main(["tensor", "--left", "D4", "--right", "E7"]) == 0
    document = capsys.readouterr().out.encode()
    cap = 80 * 2**20
    digest = hashlib.sha256()
    with subprocess.Popen(
        [sys.executable, "-m", "quivercuts", "graph", "--json", "-"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    ) as child:
        child.stdin.write(document)
        child.stdin.close()
        for chunk in iter(lambda: child.stdout.read(1 << 16), b""):
            digest.update(chunk)
        err = child.stderr.read()
    assert (child.returncode, err) == (0, b"")
    assert digest.hexdigest() == "d48925ffe68cd24076a5ccefe64e0323485ba3c8febcc58191641a7eb2041d3d"


def test_out_of_memory_is_one_line_naming_the_subcommand(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("quivercuts.cuts.count_cuts", exhausted)
    assert run(capsys, "cuts", B2B2, "--count-only") == (1, "", "error: cuts ran out of memory\n")
    monkeypatch.undo()
    assert run(capsys, "cuts", B2B2, "--count-only") == (0, "7\n", "")


def test_pipe_tensor_into_cuts():
    assert _pipe_count("A3:1<2>3", "B2:1>2") == "13\n"


def test_pipe_e6f4_published_count():
    assert _pipe_count("E6", "F4") == "16599\n"


# every argv the tests above pass to main, usage errors included
PARSED_ARGVS = [
    ["validate", MINIMAL],
    ["validate", "-"],
    ["cuts", B2B2],
    ["cuts", B2B2, "--count-only"],
    ["cuts", "--count-only"],
    ["cuts", CIRCLE],
    ["check", B2B2],
    ["check", B2B2, "--coset-budget", "2"],
    ["check", B2B2, "--coset-budget", "0"],
    ["check", B2B2, "--coset-budget", "-5"],
    ["check", "--coset-budget", "1000", "-"],
    ["mutate", B2B2, "--cut", "d,e", "--vertex", "3", "--dir", "minus"],
    ["mutate", B2B2, "--cut", "c,f", "--vertex", "3", "--dir", "plus"],
    ["mutate", B2B2, "--cut", "d,e", "--vertex", "3", "--dir", "sideways"],
    ["graph", B2B2],
    ["graph", B2B2, "--dot"],
    ["graph", B2B2, "--json"],
    ["graph", B2B2, "--directed"],
    ["graph", B2B2, "--json", "--directed"],
    ["graph", B2B2, "--json", "--dot"],
    ["tensor", "--left", "A2", "--right", "A2"],
    ["tensor", "--left", "B2:2>1", "--right", "B2:2>1", "--split"],
    ["tensor", "--left", "B2:2>1", "--right", "B2:2>1", "--split", "3"],
    ["tensor", "--left", "F4", "--right", "F4", "--split", "0"],
    ["tensor", "--left", "H9", "--right", "A2"],
    ["tensor", "--left", "A2"],
    ["truncate", B2B2, "--cut", "d,e"],
    ["truncate", B2B2],
    ["no-such-command"],
    [],
]


def _parsed(parser, argv):
    """The namespace's fields, or the exit code and stderr of a usage error."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code, err.getvalue()


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []

    def counting():
        built.append(build_parser())
        return built[-1]

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    for _ in range(5):
        assert run(capsys, "cuts", B2B2, "--count-only") == (0, "7\n", "")
        with pytest.raises(SystemExit):
            main(["no-such-command"])
        assert "invalid choice" in capsys.readouterr().err
        assert run(capsys, "mutate", B2B2, "--cut", "d,e", "--vertex", "3", "--dir", "minus") == (0, "c,f\n", "")
    assert len(built) == 1 and cli._parser is built[0]


def test_reused_parser_parses_like_a_fresh_one(capsys):
    main(["validate", MINIMAL])
    reused = cli._parser
    assert reused is not None
    for _ in range(2):  # the second pass follows every usage error of the first
        for argv in PARSED_ARGVS:
            assert _parsed(reused, argv) == _parsed(build_parser(), argv), argv


@pytest.mark.parametrize(
    "error, argv",
    [
        (["check", B2B2, "--coset-budget", "0"], ["check", B2B2]),
        (["graph", B2B2, "--json", "--directed"], ["graph", B2B2]),
        (["tensor", "--left", "B2", "--right", "B2", "--split", "-3"], ["tensor", "--left", "B2", "--right", "B2"]),
        (["mutate", B2B2, "--cut", "d,e", "--vertex", "3", "--dir", "sideways"], ["cuts", B2B2]),
    ],
    ids=["budget", "json-directed", "split", "direction"],
)
def test_a_usage_error_leaves_the_next_call_unchanged(capsys, error, argv):
    before = run(capsys, *argv)
    with pytest.raises(SystemExit) as excinfo:
        main(error)
    assert excinfo.value.code == 2
    assert capsys.readouterr().out == ""
    assert run(capsys, *argv) == before


# A one-shot process builds the parser once, as before; argparse words its
# messages differently across CPython versions, so the bytes are those of 3.11.
ONE_SHOT = {
    ("--help",): (
        0,
        """usage: quivercuts [-h] {validate,cuts,check,mutate,graph,tensor,truncate} ...

Cuts, cut-mutation and canvas topology for quivers with distinguished cycles.

positional arguments:
  {validate,cuts,check,mutate,graph,tensor,truncate}
    validate            check a quiver document; exit 0 iff valid
    cuts                enumerate all cuts
    check               covered / enough-cuts / fully-compatible / simply-
                        connected
    mutate              apply one cut-mutation
    graph               export the mutation graph
    tensor              build a tensor-product quiver document
    truncate            print the truncated presentation for a cut

options:
  -h, --help            show this help message and exit
""",
        "",
    ),
    ("check", "--coset-budget", "0"): (
        2,
        "",
        "usage: quivercuts check [-h] [--coset-budget N] [file]\n"
        "quivercuts check: error: argument --coset-budget: coset budget must be positive, got 0\n",
    ),
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse wording of CPython 3.11")
@pytest.mark.parametrize("argv", list(ONE_SHOT), ids=["help", "usage-error"])
def test_one_shot_help_and_usage_error_bytes_are_pinned(argv):
    done = subprocess.run(
        [sys.executable, "-m", "quivercuts", *argv], capture_output=True, env={**_child_env(), "COLUMNS": "80"}
    )
    code, out, err = ONE_SHOT[argv]
    assert (done.returncode, done.stdout, done.stderr) == (code, out.encode(), err.encode())
