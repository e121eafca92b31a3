"""Checks on the library's source text."""
import ast
import re
from pathlib import Path

import wfano

SOURCES = sorted(Path(wfano.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # `python -O` strips asserts, and the library's invariants must survive it
    assert {"classifier.py", "core.py", "singularities.py"} <= {p.name for p in SOURCES}
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_cli_picks_exit_2_by_error_type():
    # a broad catch that is then re-examined would make exit 2 depend on a
    # second computation instead of the error's type
    cli = Path(wfano.__file__).parent / "cli.py"
    assert "except ValueError" not in cli.read_text(encoding="utf-8")


def test_cli_leaves_record_admissibility_to_the_loader():
    # `classifier.load_families` decides whether a record's weights are
    # admissible; a command that caught the walk's error itself would decide
    # it a second time, for some commands only
    cli = Path(wfano.__file__).parent / "cli.py"
    assert "NonTerminalError" not in cli.read_text(encoding="utf-8")


def test_readme_layout_lists_the_public_modules():
    # a module added, merged or removed shows up as a difference here
    readme = Path(__file__).resolve().parents[1] / "README.md"
    layout = readme.read_text(encoding="utf-8").split("\n## Library layout\n")[1].split("\n## ")[0]
    listed = set(re.findall(r"`wfano\.(\w+)", layout))
    assert listed == {p.stem for p in SOURCES if not p.name.startswith("_")}
