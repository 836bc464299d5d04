"""The scripts under ``scripts/``, run as ``python scripts/<name>.py`` would run them."""

import hashlib
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

QUIVERS = {
    "a3b2_quiver.dot": "6d979f68811a092be68548898441c01c664cef0b10fef87f28b14c2552fd2c17",
    "b2b2_split_quiver.dot": "3e5d0bffc0f821e71c370262553864e1c4a17ef42d8475009e021c5376c592e8",
}
LATTICES = {
    (): {
        "a3b2_lattice.dot": "dc616ba996985e1b00806cb2e5118c0efef1ae5d00d6bc4416bb42ddd3a7126a",
        "b2b2_split_lattice.dot": "5a41aa61b2dd336dd7e83a2498ee20246f783cee87dabba5ff55587d9ba118ff",
    },
    ("--directed",): {
        "a3b2_lattice.dot": "2354a41751f81da53243f078938ddb22eaac70c3bc83dbb3707493bbf03581bc",
        "b2b2_split_lattice.dot": "a1bdac695291311fd1419846fe5d8b3c0e89c7580e3ff3803c88e631f883bf8f",
    },
}


@pytest.mark.parametrize("flags", list(LATTICES), ids=["plain", "directed"])
def test_export_lattices_writes_pinned_files(flags, tmp_path, monkeypatch, capsys):
    script = SCRIPTS / "export_lattices.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--out", str(tmp_path), *flags])
    runpy.run_path(str(script), run_name="__main__")
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
    assert written == {**QUIVERS, **LATTICES[flags]}
    assert capsys.readouterr().out == "".join(f"wrote {tmp_path / name}\n" for name in sorted(written))
