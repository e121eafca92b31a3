"""Checks on the library's source text."""
import ast
import re
import textwrap
from pathlib import Path

import wfano
from wfano import classifier, towers
from wfano.classifier import family, parse_table
from wfano.towers import FIXTURES, evaluate, load_fixture, parse_tower_text

SOURCES = sorted(Path(wfano.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parents[1] / "README.md"


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
    layout = README.read_text(encoding="utf-8").split("\n## Library layout\n")[1].split("\n## ")[0]
    listed = set(re.findall(r"`wfano\.(\w+)", layout))
    assert listed == {p.stem for p in SOURCES if not p.name.startswith("_")}


def _readme_block(first_line):
    blocks = re.findall(r"\n```\n(.*?)```\n", README.read_text(encoding="utf-8"), re.S)
    return next(b for b in blocks if b.startswith(first_line + "\n"))


def _docstring_block(doc, intro):
    # the indented example after the paragraph that ends with `intro`
    return textwrap.dedent(doc.split(intro + "\n\n")[1].split("\n\n")[0])


def test_doc_examples_parse_like_the_packaged_data():
    # the examples a reader copies must stay valid as the two grammars change
    assert parse_table(_readme_block("family 18")) == [family(18)]
    assert parse_table(_docstring_block(classifier.__doc__, "positioned syntax error:")) == [family(13)]
    (gram,) = (load_fixture(f) for f in FIXTURES if f.name == "family25-gram")
    for text in (_readme_block("family 25"), _docstring_block(towers.__doc__, "Gram block:")):
        spec = parse_tower_text(text)
        assert spec == gram
        assert evaluate(spec) == evaluate(gram)
