"""Checks on the library's source text."""
import ast
import inspect
import os
import re
import subprocess
import sys
import textwrap
from importlib import import_module, resources
from pathlib import Path

import wfano
from wfano import classifier, towers
from wfano._linescan import LineCursor, content_lines
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


def test_readme_dataset_bullets_name_the_record_fields():
    # one bullet per keyword, in the record's field order
    section = README.read_text(encoding="utf-8").split("\n## The dataset\n")[1].split("\n## ")[0]
    bullets = re.findall(r"^\* (`.*?) —", section, re.M)
    named = [name.split()[0] for b in bullets for name in re.findall(r"`([^`]+)`", b)]
    assert named == [*classifier.FamilyRecord._fields[1:-1], "row"]


def _readme_block(first_line):
    blocks = re.findall(r"\n```\n(.*?)```\n", README.read_text(encoding="utf-8"), re.S)
    return next(b for b in blocks if b.startswith(first_line + "\n"))


def _docstring_block(doc, intro):
    # the indented example after the paragraph that ends with `intro`
    return textwrap.dedent(doc.split(intro + "\n\n")[1].split("\n\n")[0])


def _content(text):
    # a line's fields are read before the next line is asked for, as a reader does
    lines = []
    for cur, _ in content_lines(text):
        lines.append(cur.line.strip())
        while not cur.at_end():
            cur.next_token("field")
    return lines


def test_doc_examples_parse_like_the_packaged_data():
    # the examples a reader copies must stay valid as the two grammars change;
    # a parsed tower keeps no `track`, so the tower examples are also compared
    # line by line with the packaged file
    assert parse_table(_readme_block("family 18")) == [family(18)]
    assert parse_table(_docstring_block(classifier.__doc__, "positioned syntax error:")) == [family(13)]
    (fixture,) = (f for f in FIXTURES if f.name == "family25-gram")
    gram = load_fixture(fixture)
    packaged = resources.files("wfano").joinpath(f"data/towers/{fixture.name}.tower").read_text()
    for text in (_readme_block("family 25"), _docstring_block(towers.__doc__, "Gram block:")):
        spec = parse_tower_text(text)
        assert spec == gram
        assert evaluate(spec) == evaluate(gram)
        assert _content(text) == _content(packaged)


# Public names and class members that no library code names, each with why
# it stays; a reason that cites a `bench/` file expires with its use there
UNREFERENCED = {
    "blowup.anticanonical_class": "test_dataset_rules.py's BC-value test calls it, and a "
    "`.tower` class line derived from -K will",
    "classifier.derived_type_iv_set": "stays until a Kodaira-dimension oracle replaces it",
    "core.is_representable": "bench/test_tracing.py looks it up in `core` and `enumerator`",
}

# the dunders the interpreter calls for builtins: construction, str(),
# iteration and calls reach them without naming them
IMPLICIT_DUNDERS = {"__new__", "__init__", "__str__", "__iter__", "__call__"}

# Class members whose name is also a field of another class, so a read of
# the field counts as a use of the member; each names a library function and
# the expression in it that reads the member itself
SHADOWED = {
    "core.Weights.degree": ("core.anticanonical_cube", "w.degree"),
}


def test_public_names_without_a_library_caller():
    # aim: the public API keeps only what a command, a check or a claim
    # reaches; an import names a function but calls nothing
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in SOURCES}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defined = set()
    members = {}  # methods, properties and operator dunders, by the name a use gives
    fields = {}  # class-level annotated names, by the class that declares them
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((stem, node.name))
            elif isinstance(node, ast.Assign):
                defined |= {(stem, t.id) for t in node.targets if isinstance(t, ast.Name)}
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined.add((stem, node.target.id))
            if isinstance(node, ast.ClassDef):
                members |= {
                    f"{stem}.{node.name}.{m.name}": m.name for m in node.body
                    if isinstance(m, ast.FunctionDef) and m.name not in IMPLICIT_DUNDERS
                    and re.fullmatch(r"__\w+__|[^_]\w*", m.name)
                }
                fields[f"{stem}.{node.name}"] = {
                    m.target.id for m in node.body
                    if isinstance(m, ast.AnnAssign) and isinstance(m.target, ast.Name)
                }
    unused = {f"{stem}.{name}" for stem, name in defined
              if not name.startswith("_") and name not in used}
    unused |= {member for member, name in members.items() if name not in used}
    assert unused == set(UNREFERENCED)
    # a field read hides an unused member of the same name, so each such
    # member is pinned with a read of its own
    shadowed = {
        member for member, name in members.items()
        if any(name in names for cls, names in fields.items() if not member.startswith(cls + "."))
    }
    assert shadowed == set(SHADOWED)
    for member, (function, expression) in SHADOWED.items():
        stem, name = function.split(".")
        (node,) = (n for n in trees[stem].body if isinstance(n, ast.FunctionDef) and n.name == name)
        reads = {ast.unparse(a) for a in ast.walk(node)
                 if isinstance(a, ast.Attribute) and a.attr == member.rsplit(".", 1)[1]}
        assert expression in reads, (member, sorted(reads))


# Exception classes that no `except` clause in the library names, each with why it stays
UNCAUGHT = {}


def test_exception_classes_have_a_catcher():
    # a subclass that no caller catches by name adds a type and no behaviour:
    # the raise site raises its base instead, with the same message
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in SOURCES}
    errors = {
        f"{stem}.{node.name}"
        for stem, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and issubclass(getattr(import_module(f"wfano.{stem}"), node.name), BaseException)
    }
    caught = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught |= {t.attr if isinstance(t, ast.Attribute) else t.id for t in types}
    assert {"core.InputError", "core.NonTerminalError"} <= errors
    assert {e for e in errors if e.split(".")[1] not in caught} == set(UNCAUGHT)


def test_only_the_line_scanner_cuts_a_line():
    # both line formats read every field as one `LineCursor` token, and the
    # cursor raises one error class
    cutters = {"split", "splitlines", "strip", "lstrip", "rstrip", "partition"}
    readers = [p for p in SOURCES if p.name in ("classifier.py", "towers.py")]
    assert len(readers) == 2
    found = [
        f"{path.name}:{node.lineno}"
        for path in readers
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in cutters
    ]
    assert found == []
    assert list(inspect.signature(LineCursor.__init__).parameters) == ["self", "lineno", "line"]


def test_only_the_line_scanner_checks_a_line_end():
    # `content_lines` checks each line's end when the reader asks for the
    # next line, so no reader branch can forget the check or misplace it;
    # no other module names the check or raises its error
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES if path.name != "_linescan.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "expect_end"
        or isinstance(node, ast.Constant) and node.value == "end of line"
    ]
    assert found == []


# The classes in `src/` that stay `@dataclass`es, each with why: defining a
# frozen dataclass costs about a millisecond of every cold start, defining a
# NamedTuple about a seventh of that
DATACLASSES = {
    "_basket.Basket": "bench/test_oracles.py rebuilds one with `dataclasses.replace`",
    "towers.TowerEvaluation": "bench/test_oracles.py and tests/test_towers.py rebuild one with "
    "`dataclasses.replace`",
}


def _names_dataclass(decorator):
    # `@dataclass`, `@dataclass(...)` or `@dataclasses.dataclass(...)`
    node = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name == "dataclass"


def test_value_types_are_tuples_but_the_listed_dataclasses():
    found = {
        f"{path.stem}.{node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.ClassDef) and any(map(_names_dataclass, node.decorator_list))
    }
    assert found == set(DATACLASSES)


def _names_in(path):
    # every name, attribute and `module.attribute` the file's code uses
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            if isinstance(node.value, ast.Name):
                names.add(f"{node.value.id}.{node.attr}")
    return names


def test_pins_citing_the_benchmark_still_hold():
    # a name kept only for `bench/` goes once the cited file stops using it
    root = README.parent
    pins = [(pin, reason, pin.rsplit(".", 1)[1]) for pin, reason in UNREFERENCED.items()]
    pins += [(pin, reason, "dataclasses.replace") for pin, reason in DATACLASSES.items()]
    cited = [(pin, path, name) for pin, reason, name in pins
             for path in re.findall(r"bench/\w+\.py", reason)]
    assert cited
    for pin, path, name in cited:
        assert name in _names_in(root / path), f"{path} no longer uses {name}: drop the pin on {pin}"


def _modules_after(code, *args):
    # the modules a fresh `python -I` holds after running `code` on this
    # checkout's `src`, which the code finds as sys.argv[1]
    env = {k: v for k, v in os.environ.items() if k != "WFANO_DATA"}
    src = str(Path(wfano.__file__).parent.parent)
    code = f"import sys\nsys.path.insert(0, sys.argv[1])\n{code}print('\\n'.join(sys.modules))\n"
    result = subprocess.run(
        [sys.executable, "-I", "-c", code, src, *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_loading_the_dataset_imports_no_command_or_tower_code():
    # the cold start a user pays before any command: `import wfano` and the
    # dataset load reach none of the modules that only commands and towers use
    loaded = _modules_after("import wfano\nwfano.load_families()\n")
    assert "wfano.classifier" in loaded
    avoided = {
        "wfano.cli", "wfano.towers", "wfano.blowup", "wfano.enumerator", "argparse", "json", "csv",
        "dataclasses", "wfano._basket",
    }
    assert loaded & avoided == set()


def test_each_command_imports_only_what_it_runs():
    # `cli` imports a command's modules inside its `cmd_*` function: a cold
    # `enumerate` and `show` reach no tower, Gram, export or dataclass code,
    # and `basket`, which builds a `Basket`, does load its module
    code = (
        "import contextlib, io\n"
        "from wfano.cli import main\n"
        "for command in sys.argv[2:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(command.split()) == 0\n"
    )
    loaded = _modules_after(code, "enumerate --bound 12", "show 13")
    assert {"wfano.cli", "wfano.enumerator", "wfano.classifier"} <= loaded
    avoided = {"wfano.towers", "wfano.blowup", "json", "csv", "dataclasses"}
    assert loaded & avoided == set()
    assert "wfano._basket" in _modules_after(code, "basket 13")
