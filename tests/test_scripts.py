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


# rows recorded with the time column cut off
SURVEYS = {
    ("A2", "A3:1<2>3", "B2:2>1"): [
        "A2 x A2  4 5 2 1 5 yes yes yes Yes",
        "A2 x A3:1<2>3  6 9 4 1 13 yes yes yes Yes",
        "A2 x B2:2>1  4 5 2 1 5 yes yes yes Yes",
        "A3:1<2>3 x A3:1<2>3  9 16 8 1 47 yes yes yes Yes",
        "A3:1<2>3 x B2:2>1  6 9 4 1 13 yes yes yes Yes",
        "B2:2>1 x B2:2>1  4 5 2 1 5 yes yes yes Yes",
    ],
    ("B2:2>1", "--split"): ["B2:2>1 x B2:2>1 (split)  5 8 4 1 7 yes yes yes Yes"],
}


@pytest.mark.parametrize("args", list(SURVEYS), ids=["three-specs", "b2-split"])
def test_survey_tensor_pairs_rows(args, monkeypatch, capsys):
    script = SCRIPTS / "survey_tensor_pairs.py"
    monkeypatch.setattr(sys, "argv", [str(script), *args])
    runpy.run_path(str(script), run_name="__main__")
    header, rule, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["pair", "V", "A", "C", "chi", "cuts", "conn", "cov", "comp", "sc", "time"]
    assert set(rule) == {"-"}
    # the pair column is 28 characters wide and holds spaces itself
    assert [row[:28].rstrip() + "  " + " ".join(row[28:].split()[:-1]) for row in rows] == SURVEYS[args]


@pytest.mark.parametrize(
    "spec, message",
    [
        ("A3:1>x", "malformed orientation chain '1>x'"),
        ("H4", "cannot parse Dynkin spec 'H4'"),
        ("A99999999999", "A99999999999 is too large"),
    ],
)
def test_survey_tensor_pairs_bad_spec_is_one_error_line(spec, message, monkeypatch, capsys):
    script = SCRIPTS / "survey_tensor_pairs.py"
    monkeypatch.setattr(sys, "argv", [str(script), "A2", spec])
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_path(str(script), run_name="__main__")
    assert excinfo.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {message}")
