import io
import json
import subprocess
import sys

import pytest
from conftest import FIXTURES

from quivercuts.cli import main

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


def test_validate_reports_disconnected(tmp_path, capsys, recwarn):
    doc = tmp_path / "two.json"
    doc.write_text(
        json.dumps({"format_version": 1, "vertices": [{"id": "1"}, {"id": "2"}], "arrows": [], "cycles": []})
    )
    code, out, err = run(capsys, "validate", str(doc))
    assert code == 1
    assert "not connected" in err


def test_validate_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "error:" in err


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


def test_check_b2b2(capsys):
    code, out, _ = run(capsys, "check", B2B2)
    assert code == 0
    assert out == (
        "covered: yes\n"
        "enough-cuts: yes\n"
        "fully-compatible: yes\n"
        "simply-connected: Yes (coset table closed with 1 coset)\n"
    )


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


def _pipe_count(left, right):
    tensor = subprocess.run(
        [sys.executable, "-m", "quivercuts", "tensor", "--left", left, "--right", right],
        capture_output=True,
        text=True,
        check=True,
    )
    counted = subprocess.run(
        [sys.executable, "-m", "quivercuts", "cuts", "--count-only"],
        input=tensor.stdout,
        capture_output=True,
        text=True,
        check=True,
    )
    return counted.stdout


def test_pipe_tensor_into_cuts():
    assert _pipe_count("A3:1<2>3", "B2:1>2") == "13\n"


def test_pipe_e6f4_published_count():
    assert _pipe_count("E6", "F4") == "16599\n"
