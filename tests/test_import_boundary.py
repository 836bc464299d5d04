"""The quivercuts modules each entry point loads, pinned: a subcommand loads only the layers it runs.

Each check runs in a fresh ``python -S`` child with ``PYTHONPATH`` set to
``src``; ``-S`` keeps out the host's site hooks, which may import
``typing``.  No layer imports ``typing`` at run time.  The file needs no
pytest: ``python tests/test_import_boundary.py`` makes the same checks and
exits 1 on the first that fails.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
B2B2 = str(ROOT / "tests" / "fixtures" / "b2b2_split.json")

# The child reports the quivercuts modules loaded, without the package prefix, and whether typing is loaded.
REPORT = """
import json, sys
{statement}
loaded = sorted(name.partition(".")[2] or name for name in sys.modules if name.partition(".")[0] == "quivercuts")
print(json.dumps([loaded, "typing" in sys.modules]), file=sys.stderr)
"""
RUN = "from quivercuts.cli import main\nassert main({argv!r}) == 0"

IMPORTS = {"import quivercuts": ["quivercuts"], "import quivercuts.cli": ["cli", "quivercuts"]}
BASE = ["cli", "docio", "model", "quivercuts", "tensor"]
SUBCOMMANDS = {
    ("tensor", "--left", "F4", "--right", "E6"): BASE,
    ("validate", B2B2): BASE,
    ("cuts", "--count-only", B2B2): BASE + ["cuts"],
    ("truncate", B2B2, "--cut", "d,e"): BASE + ["cuts"],
    ("check", B2B2): BASE + ["canvas", "coset", "cuts"],
    ("graph", "--json", B2B2): BASE + ["cuts", "mutation"],
    ("mutate", B2B2, "--cut", "d,e", "--vertex", "3", "--dir", "minus"): BASE + ["cuts", "mutation"],
}


def loaded_after(statement: str) -> tuple[list[str], bool]:
    """The quivercuts modules a fresh ``python -S`` child has loaded after ``statement``, and if typing is loaded."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-S", "-c", REPORT.format(statement=statement)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert done.returncode == 0, done.stderr
    loaded, typing = json.loads(done.stderr.splitlines()[-1])
    return loaded, typing


def check_imports() -> None:
    for statement, expected in IMPORTS.items():
        assert loaded_after(statement) == (expected, False), statement


def check_subcommands() -> None:
    for argv, expected in SUBCOMMANDS.items():
        assert loaded_after(RUN.format(argv=list(argv))) == (sorted(expected), False), argv[0]


def test_imports_load_no_layer_and_no_typing():
    check_imports()


def test_each_subcommand_loads_only_the_layers_it_runs():
    check_subcommands()


if __name__ == "__main__":
    check_imports()
    check_subcommands()
    print("import boundary ok")
