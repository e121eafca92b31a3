import csv
import io
import json
import os
import subprocess
import sys
import textwrap
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest

from wfano import classifier
from wfano.classifier import FamilyRecord, serialize_table, verify_family
from wfano.cli import main
from wfano.core import NonTerminalError, Weights, anticanonical_cube
from wfano.enumerator import enumerate_families, has_only_terminal_isolated_sings, is_quasismooth_general


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tower_path(name):
    return str(resources.files("wfano").joinpath(f"data/towers/{name}.tower"))


ROOT = Path(__file__).resolve().parents[1]


def child_env():
    # the packaged dataset, and `wfano` from this checkout
    env = {k: v for k, v in os.environ.items() if k != "WFANO_DATA"}
    return {**env, "PYTHONPATH": str(ROOT / "src")}


def test_verify_single_family(capsys):
    code, out, err = run(capsys, "verify", "--gimel", "13")
    assert code == 0
    assert "neg_k_cube tower [1/3(1,1,2),1/2(1,1,1)] = -3/10" in out
    line = next(l for l in out.splitlines() if "neg_k_cube tower [1/3" in l)
    assert "PASS" in line
    assert all((", PASS, " in l or ", FAIL, " in l) for l in out.splitlines())


def test_verify_unknown_family(capsys):
    code, out, err = run(capsys, "verify", "--gimel", "999")
    assert code == 2
    assert "999" in err


def test_verify_failure_exit_code(capsys, tmp_path, monkeypatch):
    bad = tmp_path / "bad.txt"
    # a dataset whose recorded cube is wrong: checks must FAIL with exit 1
    bad.write_text(
        "family 1\nweights 1 1 1 1\ndegree 4\nkcube 5\n"
        "invariant F_0\nell infinite\npencils infinite\n"
    )
    monkeypatch.setenv("WFANO_DATA", str(bad))
    code, out, err = run(capsys, "verify")
    assert code == 1
    assert any(l.startswith("1, kcube, FAIL, 5, 4") for l in out.splitlines())


def test_eval_tower_chain(capsys):
    code, out, err = run(capsys, "eval-tower", tower_path("family25-chain"))
    assert code == 0
    assert "neg_k_cube = -1/14" in out


def test_eval_tower_gram(capsys):
    code, out, err = run(capsys, "eval-tower", tower_path("family32-gram"))
    assert code == 0
    assert "-7/24 3/8" in out
    assert "3/8 -5/8" in out
    assert "verdict: negative-definite" in out
    assert "triple(D,D,D) = -2/3" in out


def test_eval_tower_malformed(capsys, tmp_path):
    f = tmp_path / "broken.tower"
    f.write_text("weights 1 2 3 5\ncenter 5 x\n")
    code, out, err = run(capsys, "eval-tower", str(f))
    assert code == 2
    assert "2:10" in err


def test_eval_tower_missing_file(capsys, tmp_path):
    missing = str(tmp_path / "nope.tower")
    code, out, err = run(capsys, "eval-tower", missing)
    assert (code, err) == (2, f"error: [Errno 2] No such file or directory: {missing!r}\n")


def test_missing_dataset_file(capsys, tmp_path, monkeypatch):
    missing = str(tmp_path / "nope.txt")
    monkeypatch.setenv("WFANO_DATA", missing)
    code, out, err = run(capsys, "verify")
    assert (code, err) == (2, f"error: [Errno 2] No such file or directory: {missing!r}\n")


def test_non_utf8_input_reports_the_decode_error(capsys, tmp_path, monkeypatch):
    tower = tmp_path / "latin1.tower"
    tower.write_bytes(b"weights 1 2 3 5\n# caf\xe9\n")
    code, out, err = run(capsys, "eval-tower", str(tower))
    assert code == 2
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xe9 in position 21")
    data = tmp_path / "latin1.txt"
    data.write_bytes(b"family 1\n# caf\xe9\n")
    monkeypatch.setenv("WFANO_DATA", str(data))
    code, out, err = run(capsys, "verify")
    assert code == 2
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xe9 in position 14")


def test_a_tower_with_a_byte_order_mark_is_read(capsys, tmp_path):
    # a leading byte-order mark is skipped, so the `#` comment after it stays one
    chain = resources.files("wfano").joinpath("data/towers/family13-chain.tower").read_bytes()
    assert chain.startswith(b"#")
    tower = tmp_path / "bom.tower"
    tower.write_bytes(b"\xef\xbb\xbf" + chain)
    assert run(capsys, "eval-tower", str(tower)) == (0, "neg_k_cube = -3/10\n", "")


def test_a_dataset_with_a_byte_order_mark_is_read(capsys, tmp_path, monkeypatch):
    data = tmp_path / "families.txt"
    data.write_bytes(b"\xef\xbb\xbf" + resources.files("wfano").joinpath("data/families.txt").read_bytes())
    monkeypatch.setenv("WFANO_DATA", str(data))
    assert run(capsys, "show", "13") == (0, SHOW_13, "")


@pytest.mark.parametrize(
    "weights, expected",
    [
        ("3 2 1 1", "9: expected valid weights (weights must be ascending, got (3, 2, 1, 1))"),
        ("0 1 1 1", "9: expected valid weights (weights must be positive integers, got (0, 1, 1, 1))"),
        ("1 1 2 \u00b2", "15: expected weight"),  # '²' passes str.isdigit but not int()
    ],
    ids=["descending", "zero", "superscript"],
)
def test_bad_weights_are_positioned(capsys, tmp_path, monkeypatch, weights, expected):
    data = tmp_path / "bad.txt"
    data.write_text(
        f"family 1\nweights {weights}\ndegree 4\nkcube 4\n"
        "invariant F_0\nell infinite\npencils infinite\n",
        encoding="utf-8",
    )
    monkeypatch.setenv("WFANO_DATA", str(data))
    assert run(capsys, "verify")[::2] == (2, f"error: 2:{expected}\n")
    tower = tmp_path / "bad.tower"
    tower.write_text(f"weights {weights}\n", encoding="utf-8")
    assert run(capsys, "eval-tower", str(tower))[::2] == (2, f"error: 1:{expected}\n")


@pytest.mark.parametrize(
    "row, expected",
    [
        ("P4 0x 1/5(1,2,3)", "8:8: expected count like 3x"),
        ("P4P4 1x 1/5(1,2,3)", "8:5: expected locus label like P4 or P2P3"),
        ("P3P1 1x 1/5(1,2,3)", "8:5: expected locus label like P4 or P2P3"),
        ("P4 1x 1/5(1,2,3)\nrow P4 1x 1/5(1,2,3)", "9:5: expected locus P4 only once per family"),
    ],
    ids=["zero-count", "repeated-locus", "descending-locus", "locus-listed-twice"],
)
def test_malformed_dataset_row_is_bad_input(capsys, tmp_path, monkeypatch, row, expected):
    data = tmp_path / "bad.txt"
    data.write_text(
        "family 13\nweights 1 2 3 5\ndegree 11\nkcube 11/30\n"
        f"invariant F_2\nell 1\npencils 1\nrow {row}\n"
    )
    monkeypatch.setenv("WFANO_DATA", str(data))
    assert run(capsys, "verify")[::2] == (2, f"error: {expected}\n")


@pytest.mark.parametrize(
    "old, new, expected",
    [
        ("kcube 11/30", "kcube \u0661\u0661/30", "4:7: expected fraction p/q"),
        ("P4 1x", "P4 1\u0660x", "8:8: expected count like 3x"),
        ("1/5(1,2,3)", "1/\u0665(1,2,3)", "8:11: expected type like 1/5(1,2,3)"),
    ],
    ids=["kcube", "count", "type"],
)
def test_non_ascii_digits_in_dataset_are_bad_input(capsys, tmp_path, monkeypatch, old, new, expected):
    data = tmp_path / "bad.txt"
    data.write_text(
        "family 13\nweights 1 2 3 5\ndegree 11\nkcube 11/30\n"
        "invariant F_2\nell 1\npencils 1\nrow P4 1x 1/5(1,2,3)\n".replace(old, new),
        encoding="utf-8",
    )
    monkeypatch.setenv("WFANO_DATA", str(data))
    assert run(capsys, "verify")[::2] == (2, f"error: {expected}\n")


@pytest.mark.parametrize(
    "line, expected",
    [
        ("center 2 1 track e1=\u0661/5", "3:18: expected tracked multiplicity like e1=1/4"),
        ("class S \u0661 0", "3:9: expected coefficient of H"),
        ("class S 1 -\u0661/5", "3:11: expected exceptional coefficient"),
        ("class S 1 0\nsurface S\ncurves L\nrestrict S = \u0662L",
         "6:14: expected term like 5L or C (got '\u0662L')"),
    ],
    ids=["track", "h-coefficient", "e-coefficient", "term"],
)
def test_non_ascii_digits_in_tower_are_bad_input(capsys, tmp_path, line, expected):
    tower = tmp_path / "bad.tower"
    tower.write_text(f"weights 1 2 3 5\ncenter 5 2\n{line}\n", encoding="utf-8")
    assert run(capsys, "eval-tower", str(tower))[::2] == (2, f"error: {expected}\n")


def test_tower_over_unknown_family_is_positioned(capsys, tmp_path):
    tower = tmp_path / "unknown.tower"
    tower.write_text("# no such family\nfamily  999\ncenter 5 2\n")
    assert run(capsys, "eval-tower", str(tower))[::2] == (
        2, "error: 2:9: expected a known family (no family 999 in the dataset)\n"
    )


@pytest.mark.parametrize(
    "text, expected",
    [
        ("weights 1 2 3 5\ncenter 4 1\n",
         "2:8: expected a first center at a point of the general member of P(1,1,2,3,5)"),
        ("weights 2 4 5 7\ncenter 2 1\n",
         "1:9: expected admissible weights (no monomial x_3^k*x_j of degree 18 for P(1,2,4,5,7))"),
    ],
    ids=["no-such-point", "inadmissible-weights"],
)
def test_tower_that_does_not_fit_its_base_is_bad_input(capsys, tmp_path, text, expected):
    tower = tmp_path / "misfit.tower"
    tower.write_text(text)
    assert run(capsys, "eval-tower", str(tower)) == (2, "", f"error: {expected}\n")


def test_packaged_tower_that_does_not_fit_the_dataset_is_bad_input(capsys, tmp_path, monkeypatch):
    # family 13 as a smooth quartic: the shipped family-13 towers blow up
    # points it does not have, and the error names the packaged file.  With
    # family 1 before it, which passes every check, stdout stays empty too:
    # no family's lines are printed before every check is built
    quartic = "weights 1 1 1 1\ndegree 4\nkcube 4\ninvariant F_0\nell infinite\npencils infinite\n"
    for name, text in [
        ("quartic.txt", f"family 13\n{quartic}"),
        ("two-quartics.txt", f"family 1\n{quartic}\nfamily 13\n{quartic}"),
    ]:
        data = tmp_path / name
        data.write_text(text)
        monkeypatch.setenv("WFANO_DATA", str(data))
        assert run(capsys, "verify") == (2, "", (
            "error: packaged family13-chain.tower:5:8: expected a first center at a point"
            " of the general member of P(1,1,1,1,1)\n"
        )), name


def test_zero_denominator_is_bad_input(capsys, tmp_path, monkeypatch):
    data = tmp_path / "zero.txt"
    data.write_text(
        "family 1\nweights 1 1 1 1\ndegree 4\nkcube 1/0\n"
        "invariant F_0\nell infinite\npencils infinite\n"
    )
    monkeypatch.setenv("WFANO_DATA", str(data))
    code, out, err = run(capsys, "verify")
    assert (code, err) == (2, "error: 4:7: expected fraction p/q\n")
    for body, where in [
        ("class D 1/0\n", "2:9"),
        ("center 3 1 track e1=1/0\n", "2:18"),
        ("class D 1\ncurves L\nsurface D\nrestrict D = 1/0L\n", "5:"),
    ]:
        tower = tmp_path / "zero.tower"
        tower.write_text("weights 1 1 2 3\n" + body)
        code, out, err = run(capsys, "eval-tower", str(tower))
        assert code == 2 and where in err, (body, err)


SHOW_13 = """\
family 13
weights 1 2 3 5
degree 11
kcube 11/30
invariant F_2
ell 1
pencils 1
row P4 1x 1/5(1,2,3) QI xw^2,6,11
row P3 1x 1/3(1,1,2) QI *t^2w,8,11
row P2 1x 1/2(1,1,1) BC 1 0
# |-1K| principal: lambda*x + mu*y
"""

FAMILY_18_JSON = """\
{
  "degree": 12,
  "ell": "1",
  "gimel": 18,
  "invariant": "F_1",
  "kcube": "1/5",
  "pencils": 7,
  "rows": [
    {
      "count": 1,
      "locus": "P4",
      "qi": "yw^2,7,12",
      "type": "1/5(1,2,3)"
    },
    {
      "bc": [
        2,
        0
      ],
      "count": 6,
      "locus": "P1P2",
      "type": "1/2(1,1,1)"
    }
  ],
  "weights": [
    2,
    2,
    3,
    5
  ]
}"""


def test_show(capsys):
    assert run(capsys, "show", "13") == (0, SHOW_13, "")


def test_show_prints_the_dataset_record(capsys):
    # the pencil lines are comments, so show's stdout is a dataset of one record
    for rec in classifier.load_families():
        code, out, err = run(capsys, "show", str(rec.gimel))
        assert (code, err) == (0, "")
        assert classifier.parse_table(out) == [rec], rec.gimel


def packaged_copy(tmp_path, monkeypatch, old, new):
    """Point WFANO_DATA at the packaged dataset with the one `old` made `new`."""
    text = resources.files("wfano").joinpath("data/families.txt").read_text()
    assert text.count(old) == 1
    data = tmp_path / "families.txt"
    data.write_text(text.replace(old, new))
    monkeypatch.setenv("WFANO_DATA", str(data))


def test_show_prints_the_recorded_pencil_count(capsys, tmp_path, monkeypatch):
    # the record's own count under its keyword, then the rule's descriptors
    packaged_copy(tmp_path, monkeypatch, "pencils 1\nrow P4 1x 1/5(1,2,3) QI xw^2,6,11",
                  "pencils 2\nrow P4 1x 1/5(1,2,3) QI xw^2,6,11")
    assert run(capsys, "show", "13") == (0, SHOW_13.replace("pencils 1\n", "pencils 2\n"), "")


def test_show_prints_the_canonical_form(capsys, tmp_path, monkeypatch):
    # the record as the serializer writes it, not the file's own spelling
    packaged_copy(tmp_path, monkeypatch, "kcube 11/30\ninvariant F_2\nell 1\npencils 1\nrow P4 1x",
                  "kcube 22/60\ninvariant F_2\nell 1\npencils 1\nrow P4 01x")
    assert run(capsys, "show", "13") == (0, SHOW_13, "")


@pytest.mark.parametrize(
    "old, new, failed",
    [
        ("weights 1 2 3 5\ndegree 11", "weights 1 2 3 5\ndegree 12", "degree, FAIL, 12, 11"),
        ("row P3 1x 1/3(1,1,2) QI *t^2w,8,11", "row P3 1x 1/4(1,1,3) QI *t^2w,8,11",
         "basket types, FAIL, 1 x 1/2(1,1,1); 1 x 1/4(1,1,3); 1 x 1/5(1,2,3), "
         "1 x 1/2(1,1,1); 1 x 1/3(1,1,2); 1 x 1/5(1,2,3)"),
    ],
    ids=["degree", "row-type"],
)
def test_a_wrong_recorded_value_fails_its_check(capsys, tmp_path, monkeypatch, old, new, failed):
    packaged_copy(tmp_path, monkeypatch, old, new)
    code, out, err = run(capsys, "verify", "--gimel", "13")
    assert (code, err) == (1, "")
    assert [l for l in out.splitlines() if ", FAIL, " in l] == [f"13, {failed}"]


# three fixtures, type III, type V, and type IV with a Gram fixture
VERIFY_13_18_60_91 = """\
13, kcube, PASS, 11/30, 11/30
13, degree, PASS, 11, 11
13, basket types, PASS, 1 x 1/2(1,1,1); 1 x 1/3(1,1,2); 1 x 1/5(1,2,3), 1 x 1/2(1,1,1); 1 x 1/3(1,1,2); 1 x 1/5(1,2,3)
13, bc presence P4 1/5(1,2,3), PASS, no BC iff non-negative, single-blowup kcube 1/3, annotation absent
13, bc presence P3 1/3(1,1,2), PASS, no BC iff non-negative, single-blowup kcube 1/5, annotation absent
13, bc presence P2 1/2(1,1,1), PASS, BC iff negative, single-blowup kcube -2/15, annotation BC
13, pencil count rule, PASS, 1, 1
13, neg_k_cube tower [1/3(1,1,2),1/2(1,1,1)] = -3/10, PASS, -3/10, -3/10
13, neg_k_cube tower [1/5(1,2,3),1/2(1,1,1)] = -1/6, PASS, -1/6, -1/6
13, gram tower [1/5(1,2,3),1/2(1,1,1)], PASS, -5/6 1 / 1 -4/3, negative-definite, -5/6 1 / 1 -4/3, negative-definite
13, neg_k_cube tower [1/5(1,2,3),1/3(1,1,2),1/2(1,1,1)] = -1/3, PASS, -1/3, -1/3
13, gram tower [1/5(1,2,3),1/3(1,1,2),1/2(1,1,1)], PASS, -5/6 1 / 1 -3/2, negative-definite, -5/6 1 / 1 -3/2, negative-definite
18, kcube, PASS, 1/5, 1/5
18, degree, PASS, 12, 12
18, basket types, PASS, 6 x 1/2(1,1,1); 1 x 1/5(1,2,3), 6 x 1/2(1,1,1); 1 x 1/5(1,2,3)
18, bc presence P4 1/5(1,2,3), PASS, no BC iff non-negative, single-blowup kcube 1/6, annotation absent
18, bc presence P1P2 1/2(1,1,1), PASS, BC iff negative, single-blowup kcube -3/10, annotation BC
18, pencil count rule, PASS, 7, 7
18, distinguished point count, PASS, 7, 1 + 6
60, kcube, PASS, 1/45, 1/45
60, degree, PASS, 24, 24
60, basket types, PASS, 2 x 1/2(1,1,1); 1 x 1/3(1,1,2); 1 x 1/5(1,1,4); 1 x 1/9(1,4,5), 2 x 1/2(1,1,1); 1 x 1/3(1,1,2); 1 x 1/5(1,1,4); 1 x 1/9(1,4,5)
60, bc presence P4 1/9(1,4,5), PASS, no BC iff non-negative, single-blowup kcube 1/60, annotation absent
60, bc presence P2 1/5(1,4,1), PASS, BC iff negative, single-blowup kcube -1/36, annotation BC
60, bc presence P3P4 1/3(1,1,2), PASS, BC iff negative, single-blowup kcube -13/90, annotation BC
60, bc presence P1P3 1/2(1,1,1), PASS, BC iff negative, single-blowup kcube -43/90, annotation BC
60, pencil count rule, PASS, 2, 2
91, kcube, PASS, 1/130, 1/130
91, degree, PASS, 44, 44
91, basket types, PASS, 1 x 1/2(1,1,1); 1 x 1/5(1,2,3); 1 x 1/13(1,4,9), 1 x 1/2(1,1,1); 1 x 1/5(1,2,3); 1 x 1/13(1,4,9)
91, bc presence P3 1/13(1,4,9), PASS, no BC iff non-negative, single-blowup kcube 1/180, annotation absent
91, bc presence P2 1/5(1,3,2), PASS, BC iff negative, single-blowup kcube -1/39, annotation BC
91, bc presence P1P4 1/2(1,1,1), PASS, BC iff negative, single-blowup kcube -32/65, annotation BC
91, pencil count rule, PASS, 2, 2
91, second pencil presentation, PASS, index j with a1+a3+a4 = m*a_j, j=3, m=3
91, neg_k_cube tower [1/13(1,4,9),1/4(1,1,3)] = -7/90, PASS, -7/90, -7/90
91, gram tower [1/13(1,4,9),1/4(1,1,3)], PASS, -1/6 0 / 0 -2/9, negative-definite, -1/6 0 / 0 -2/9, negative-definite
"""


def test_verify_output_of_four_families(capsys):
    runs = [run(capsys, "verify", "--gimel", g) for g in ("13", "18", "60", "91")]
    assert all((code, err) == (0, "") for code, _, err in runs)
    assert "".join(out for _, out, _ in runs) == VERIFY_13_18_60_91


POINT = "# |-2K| type III point: surfaces of |-2K| through the distinguished point #"
# the pencil lines of `show`, one family of each kind; an infinite count has none
PENCIL_LINES = {
    "18": ["# |-2K| type III distinguished: lambda*x^2 + mu*f_2(x,y,z,t,w)"]
    + [f"{POINT}{i}" for i in range(1, 7)],
    "60": ["# |-4K| principal: lambda*x^4 + mu*y", "# |-6K| type V: lambda*x^6 + mu*f_6(x,y,z,t)"],
    "91": ["# |-4K| principal: lambda*x^4 + mu*y", "# |-5K| type IV: lambda*x^5 + mu*z"],
    "5": [],
}


def test_show_pencil_listing(capsys):
    for gimel, lines in PENCIL_LINES.items():
        code, out, err = run(capsys, "show", gimel)
        assert (code, err) == (0, "")
        assert [l for l in out.splitlines() if l.startswith("#")] == lines, gimel
    assert "pencils 7" in run(capsys, "show", "18")[1]


def test_basket_output(capsys):
    assert run(capsys, "basket", "91") == (
        0, "1 x 1/13(1,4,9) at P3\n1 x 1/5(1,2,3) at P2\n1 x 1/2(1,1,1) at P1P4\n", "")
    assert run(capsys, "basket", "18") == (0, "1 x 1/5(1,2,3) at P4\n6 x 1/2(1,1,1) at P1P2\n", "")


def test_basket_smooth(capsys):
    code, out, err = run(capsys, "basket", "1")
    assert out.strip() == "smooth"


def test_enumerate_bound(capsys):
    code, out, err = run(capsys, "enumerate", "--bound", "2")
    assert code == 0
    assert out.splitlines() == [
        "1 1 1 1  degree=4  kcube=4",
        "1 1 1 2  degree=5  kcube=5/2",
        "1 1 2 2  degree=6  kcube=3/2",
    ]


@pytest.mark.parametrize("bound", ["0", "-3", "x"])
def test_enumerate_rejects_bad_bound(capsys, bound):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--bound", bound])
    assert exc.value.code == 2
    assert "--bound" in capsys.readouterr().err


@pytest.mark.parametrize("error", [ValueError], ids=["ValueError"])
def test_internal_error_is_not_bad_input(capsys, monkeypatch, error):
    # family 13 is admissible, so a counting rule that fails on it is a bug
    def broken(rec):
        raise error("broken rule")

    monkeypatch.setattr(classifier, "halphen_pencils", broken)
    with pytest.raises(error, match="broken rule"):
        main(["show", "13"])


def test_listed_family_without_presentation_fails_checks(capsys, tmp_path, monkeypatch):
    # family 45 is on the type-IV list, but with a1 = 1 the weights give no
    # second pencil: the pencil checks FAIL, with no traceback
    data = tmp_path / "f45.txt"
    data.write_text(
        "family 45\nweights 1 2 3 5\ndegree 11\nkcube 11/30\n"
        "invariant F_0\nell 1\npencils 2\n"
        "row P4 1x 1/5(1,2,3)\nrow P3 1x 1/3(1,1,2)\nrow P2 1x 1/2(1,1,1) BC 1 0\n"
    )
    monkeypatch.setenv("WFANO_DATA", str(data))
    code, out, err = run(capsys, "verify")
    assert (code, err) == (1, "")
    failed = [l for l in out.splitlines() if ", FAIL, " in l]
    assert failed == [
        "45, pencil count rule, FAIL, 2, 1",
        "45, second pencil presentation, FAIL, index j with a1+a3+a4 = m*a_j, a1 = 1",
    ]


def test_listed_family_with_tied_presentation_fails_check(capsys, tmp_path, monkeypatch):
    # family 5's record renumbered onto the type-IV list: both a3 and a4
    # divide a1+a3+a4 = 6, and the tie is the check's value, not a crash
    data = tmp_path / "f45.txt"
    data.write_text(
        "family 45\nweights 1 1 2 3\ndegree 7\nkcube 7/6\n"
        "invariant F_2\nell 1\npencils infinite\n"
        "row P4 1x 1/3(1,1,2) QI xw^2,4,7\nrow P3 1x 1/2(1,1,1) QI *wt^2,5,7\n"
    )
    monkeypatch.setenv("WFANO_DATA", str(data))
    code, out, err = run(capsys, "verify")
    assert (code, err) == (1, "")
    failed = [l for l in out.splitlines() if ", FAIL, " in l]
    assert failed == [
        "45, second pencil presentation, FAIL, index j with a1+a3+a4 = m*a_j, "
        "indices [3, 4] both divide 6 for P(1,1,1,2,3)",
    ]


@pytest.mark.parametrize(
    "weights",
    [
        "2 4 5 7",  # no eliminator at P3
        "3 4 4 5",  # quasismooth, but P4 is 1/5(3,4,4)
        "2 2 2 2",  # quasismooth, but P1P2 is 1/2(1,2,2)
    ],
)
def test_inadmissible_record_is_bad_input(capsys, tmp_path, monkeypatch, weights):
    bad = tmp_path / "bad.txt"
    bad.write_text(
        f"family 1\nweights {weights}\ndegree 4\nkcube 4\n"
        "invariant F_0\nell 1\npencils 1\n"
    )
    monkeypatch.setenv("WFANO_DATA", str(bad))
    tower = tmp_path / "over-1.tower"
    tower.write_text("family 1\n")
    errs = set()
    for argv in [["verify"], ["show", "1"], ["basket", "1"], ["export", "--format", "json"],
                 ["export", "--format", "csv"], ["eval-tower", str(tower)]]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: family 1: ") and err.count("\n") == 1, argv
        if weights != "2 4 5 7":  # every failure but the missing eliminator names the point
            assert err.startswith("error: family 1: 1/"), argv
        errs.add(err)
    assert len(errs) == 1  # every command that loads the dataset reports the record alike


def test_one_inadmissible_record_rejects_the_dataset(capsys, tmp_path, monkeypatch):
    # the dataset is checked whole as it is loaded: asking for the good
    # record does not get round the bad one
    data = tmp_path / "two.txt"
    data.write_text(
        "family 1\nweights 3 4 4 5\ndegree 16\nkcube 1/15\n"
        "invariant F_0\nell 1\npencils 1\n\n"
        "family 2\nweights 1 1 1 1\ndegree 4\nkcube 4\n"
        "invariant F_0\nell 1\npencils infinite\n"
    )
    monkeypatch.setenv("WFANO_DATA", str(data))
    expected = (2, "", "error: family 1: 1/5(3,4,4) admits no terminal presentation\n")
    for argv in [["show", "2"], ["basket", "2"], ["verify", "--gimel", "2"]]:
        assert run(capsys, *argv) == expected, argv


@pytest.mark.parametrize(
    "row, reason",
    [
        ("1/5(5,1,4)", "1/5(5,1,4) has a weight divisible by 5"),
        ("1/4(2,1,3)", "1/4(2,1,3) is not isolated-terminal"),
    ],
    ids=["weight-divisible-by-r", "not-isolated"],
)
def test_non_terminal_row_is_positioned(capsys, tmp_path, monkeypatch, row, reason):
    # a row is checked as the dataset is read, so every command that loads
    # the dataset reports it with one and the same positioned line
    bad = tmp_path / "bad.txt"
    bad.write_text(
        "family 1\nweights 1 1 1 1\ndegree 4\nkcube 4\n"
        f"invariant F_0\nell 1\npencils 1\nrow P4 1x {row}\n"
    )
    monkeypatch.setenv("WFANO_DATA", str(bad))
    tower = tmp_path / "over-1.tower"
    tower.write_text("family 1\n")
    expected = (2, f"error: 8:11: expected terminal type ({reason})\n")
    for argv in [["verify"], ["show", "1"], ["basket", "1"], ["export", "--format", "json"],
                 ["eval-tower", str(tower)]]:
        assert run(capsys, *argv)[::2] == expected, argv


def test_walk_rejects_inadmissible_weights_with_non_terminal_error_alone():
    # `classifier._load` rejects a record whose weights make the walk raise a
    # NonTerminalError, so that only admissible weights reach the checks.
    # That holds only if `verify_family`, which runs the walk, raises this
    # type, and nothing else, on every system the enumerator rejects; the
    # gimels 45 and 60 would take the type-IV and type-V branches.
    systems = [
        Weights(a1, a2, a3, a4)
        for a4 in range(1, 13)
        for a3 in range(1, a4 + 1)
        for a2 in range(1, a3 + 1)
        for a1 in range(1, a2 + 1)
    ]
    rejected = [
        w for w in systems
        if not (is_quasismooth_general(w) and has_only_terminal_isolated_sings(w))
    ]
    assert len(rejected) == len(systems) - len(enumerate_families(12))
    for w in rejected:
        for gimel in (1, 45, 60):
            rec = FamilyRecord(gimel, w, w.degree, anticanonical_cube(w), "F_0", "1", 1, ())
            with pytest.raises(NonTerminalError):
                verify_family(rec)


def test_export_json_roundtrip(capsys):
    code, out, err = run(capsys, "export", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["families"]) == 95
    g7 = data["families"][6]
    assert g7["gimel"] == 7 and g7["kcube"] == "2/3"
    assert (data["families"][0]["pencils"], data["families"][17]["pencils"]) == ("infinite", 7)
    # the layout, byte for byte: family 18 as it sits in the list
    assert out.startswith('{\n  "families": [\n    {\n')
    assert "\n" + textwrap.indent(FAMILY_18_JSON, "    ") + ",\n" in out


def test_export_csv_anchors(capsys):
    code, out, err = run(capsys, "export", "--format", "csv")
    rows = out.splitlines()
    assert rows[0] == "gimel,a1,a2,a3,a4,degree,kcube,invariant,ell,pencils,basket"
    assert rows[18] == '18,2,2,3,5,12,1/5,F_1,1,7,"P4 1x 1/5(1,2,3) QI yw^2,7,12; P1P2 6x 1/2(1,1,1) BC 2 0"'
    (g7,) = [r for r in rows if r.startswith("7,")]
    assert "2/3" in g7
    (g18,) = [r for r in rows if r.startswith("18,")]
    assert ",7," in g18
    (g1,) = [r for r in rows if r.startswith("1,")]
    assert g1.split(",")[rows[0].split(",").index("pencils")] == "infinite"


def test_both_exports_reproduce_every_row(capsys):
    # the rows split from the packaged file's own `row` lines, without the parser
    rows: dict[int, list[list[str]]] = {}
    for line in resources.files("wfano").joinpath("data/families.txt").read_text().splitlines():
        words = line.split()
        if words[:1] == ["family"]:
            gimel = int(words[1])
            rows[gimel] = []
        elif words[:1] == ["row"]:
            rows[gimel].append(words[1:])
    tags = Counter(w[3] if len(w) > 3 else None for ws in rows.values() for w in ws)
    assert tags == {"BC": 133, "QI": 54, "EI": 8, None: 53}

    def json_row(locus, count, type_text, tag=None, *value):
        obj = {"locus": locus, "count": int(count.removesuffix("x")), "type": type_text}
        if tag == "BC":
            b, c = value
            obj["bc"] = [int(b), int(c)]
        elif tag is not None:
            (obj[tag.lower()],) = value
        return obj

    families = json.loads(run(capsys, "export", "--format", "json")[1])["families"]
    assert {f["gimel"]: f["rows"] for f in families} == {
        g: [json_row(*w) for w in ws] for g, ws in rows.items()
    }
    table = list(csv.reader(io.StringIO(run(capsys, "export", "--format", "csv")[1])))
    assert {int(r[0]): r[-1] for r in table[1:]} == {
        g: "; ".join(" ".join(w) for w in ws) for g, ws in rows.items()
    }


def test_every_format_follows_the_record_fields(capsys):
    # the record's field list is the one place a format's keys are named
    fields = FamilyRecord._fields
    out = run(capsys, "export", "--format", "json")[1]
    assert {tuple(sorted(f)) for f in json.loads(out)["families"]} == {tuple(sorted(fields))}
    header = run(capsys, "export", "--format", "csv")[1].splitlines()[0]
    assert header.split(",") == ["gimel", "a1", "a2", "a3", "a4", *fields[2:-1], "basket"]
    rec = classifier.family(18)
    keywords = [line.split()[0] for line in serialize_table([rec]).splitlines()]
    assert keywords == ["family", *fields[1:-1]] + ["row"] * len(rec.rows)


def test_export_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "export", "--format", "json", "--out", str(a))[0] == 0
    assert run(capsys, "export", "--format", "json", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    run(capsys, "export", "--format", "csv", "--out", str(c))
    run(capsys, "export", "--format", "csv", "--out", str(d))
    assert c.read_bytes() == d.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [["verify"], ["show", "13"], ["export", "--format", "csv"],
     ["eval-tower", tower_path("family13-gram")]],
    ids=["verify", "show", "export", "eval-tower"],
)
def test_packaged_files_are_read_as_utf8(argv):
    # an encoding left to the locale is an error under this warning filter
    result = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-m", "wfano.cli", *argv],
        env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, "")


def test_transcript_tool_runs():
    # a golden file, a change detector and not an oracle: any change to what
    # the CLI writes shows here, and an intended one regenerates the file with
    # the command in the tool's docstring, reading the diff block by block
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cli_transcript.py"), str(ROOT)],
        env=child_env(), capture_output=True, timeout=120,
    )
    assert (result.returncode, result.stderr) == (0, b"")
    golden = (ROOT / "tests" / "data" / "cli_transcript.txt").read_bytes()
    # byte for byte, split at '\n' so that a failure names the first line that differs
    assert result.stdout.split(b"\n") == golden.split(b"\n")


@pytest.mark.parametrize(
    "argv", [["show", "13"], ["verify"]], ids=["small-output", "large-output"]
)
def test_a_closed_stdout_exits_141_and_prints_nothing(argv):
    # the reader of stdout is gone before the command writes: a short output
    # fails at the final flush, a long one at a write inside the command, and
    # both exit as a writer that SIGPIPE stopped, not as bad input
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "wfano.cli", *argv], env=child_env(),
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (141, "")
