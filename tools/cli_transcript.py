"""Print what the `wfano` command line writes for a fixed list of commands.

    python tools/cli_transcript.py CHECKOUT > transcript.txt

imports `wfano.cli` from CHECKOUT/src and runs every command in this one
process, through `cli.main`.  For each command it prints the argv (with
the WFANO_DATA file it runs under, if any), the exit code, stdout and
stderr.  The commands: `enumerate` at the default bound and at 1, 12, 33,
60 and 100; `verify`; `show`, `basket` and `verify --gimel` for families 0
to 96 (0 and 96 are unknown); both exports; `eval-tower` on the shipped
fixtures; and bad, byte-order-marked and non-canonical dataset and
`.tower` files, and ones with a form feed and a U+2028 inside a comment
line, that it writes to a temporary directory.  The bad `.tower` texts
reach every error that the tower parser raises itself and both errors of
the Gram solver.  The bad dataset texts reach every error of the dataset
parser, its row reader and the cursor's field readers, and, at the load,
a vertex with no eliminator and a record that does not fit a packaged
`.tower` file.  A threefold record cannot reach the walk's other two
rejections, a stratum curve inside the general member or a point-free
stratum of a non-terminal type: a scan of every a1 <= ... <= a4 <= 40
met a failing vertex first each time.  Each bad text holds one fault, so
the first fault in reading order is the only one.  Then each value check
of `verify --gimel` FAILs once on an edited copy of the dataset, and
`export --out` writes both formats to files whose text is printed.
Files are named by their file names, never by an absolute path, so the
transcripts of two checkouts diff cleanly:

    diff <(python tools/cli_transcript.py OLD) <(python tools/cli_transcript.py NEW)
"""
from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
import traceback
from pathlib import Path

BOM = b"\xef\xbb\xbf"
FAMILY_13 = b"kcube 11/30\ninvariant F_2\nell 1\npencils 1\nrow P4 1x"
# a comment line that holds a form feed and a U+2028, which end no line
NOT_LINE_ENDS = "# page\fbreak\u2028and line separator\n".encode()
# one `.tower` text per error that `parse_tower_text` raises itself, beside
# no-header and bad-center below, and one per error of the Gram solver
BAD_TOWERS = {
    "empty": b"# a comment and nothing else\n",
    "two-headers": b"family 13\nfamily 13\n",
    "unknown-family": b"family 96\n",
    "inadmissible-weights": b"weights 3 4 4 5\n",
    "unknown-keyword": b"family 13\nsurfaces S\n",
    "center-after-class": b"family 13\nclass S 1\ncenter 5 2\n",
    "invalid-center": b"family 13\ncenter 5 3\n",
    "track-of-its-own-stage": b"family 13\ncenter 5 2 track e1=1/5\n",
    "track-twice": b"family 13\ncenter 5 2\ncenter 2 1 track e1=1/2 e1=1/2\n",
    "track-multiplicity": b"family 13\ncenter 5 2\ncenter 2 1 track e1=1/3\n",
    "class-twice": b"family 13\nclass S 1\nclass S 1\n",
    "undefined-class": b"family 13\ntriple S S S\n",
    "surface-twice": b"family 13\nclass S 1\nsurface S\nsurface S\n",
    "curves-twice": b"family 13\ncurves C\ncurves L\n",
    "curve-twice": b"family 13\ncurves C C\n",
    "no-curves": b"family 13\ncurves\n",
    "restrict-before-curves": b"family 13\nclass S 1\nrestrict S = C\n",
    "restrict-twice": b"family 13\nclass S 1\nsurface S\ncurves C\nrestrict S = C\nrestrict S = C\n",
    "no-decomposition": b"family 13\nclass S 1\ncurves C\nrestrict S =\n",
    "unknown-curve": b"family 13\nclass S 1\ncurves C\nrestrict S = 5L\n",
    "no-surface": b"family 13\ncurves C\n",
    "no-restrict": b"family 13\nclass S 1\nsurface S\ncurves C\n",
    "contradiction": b"family 13\ncenter 5 2\nclass S 1 -1/5\nclass T 0 1\nsurface S\ncurves C\n"
                     b"restrict S = C\nrestrict T = C\n",
    "free-entries": b"family 13\ncenter 5 2\nclass S 1 -1/5\nsurface S\ncurves C L\nrestrict S = C + L\n",
}

RECORD_13 = (b"family 13\nweights 1 2 3 5\ndegree 11\n" + FAMILY_13 + b" 1/5(1,2,3) QI xw^2,6,11\n"
             b"row P3 1x 1/3(1,1,2) QI *t^2w,8,11\nrow P2 1x 1/2(1,1,1) BC 1 0\n")
QUARTIC = b"weights 1 1 1 1\ndegree 4\nkcube 4\ninvariant F_0\nell infinite\npencils infinite\n"
FAMILY_1 = b"family 1\n" + QUARTIC
# one dataset text per error of `parse_table`, `_parse_row` and the cursor's
# field readers, beside bad-row.txt's zero count, and two errors of the load
BAD_DATASETS = {
    "no-ell": FAMILY_1.replace(b"ell infinite\n", b""),
    "family-twice": FAMILY_1 + b"\n" + FAMILY_1,
    "no-family": QUARTIC,
    "unknown-keyword": FAMILY_1 + b"bogus 1\n",
    "degree-twice": FAMILY_1 + b"degree 4\n",
    "locus-twice": RECORD_13 + b"row P4 1x 1/5(1,2,3)\n",
    "non-terminal-row": RECORD_13.replace(b"1/5(1,2,3)", b"1/5(5,1,4)"),
    "unknown-annotation": RECORD_13.replace(b"BC 1 0", b"XX 1 0"),
    "descending-weights": FAMILY_1.replace(b"weights 1 1 1 1", b"weights 3 2 1 1"),
    "three-weights": FAMILY_1.replace(b"weights 1 1 1 1", b"weights 1 1 1"),
    "trailing-token": FAMILY_1.replace(b"degree 4", b"degree 4 x"),
    "no-eliminator": FAMILY_1.replace(b"1 1 1 1\ndegree 4\nkcube 4", b"2 4 5 7\ndegree 18\nkcube 9/140"),
    "quartic-family-13": b"family 13\n" + QUARTIC,
}
# one edit of the packaged dataset per value check of `verify_family`, run as
# `verify --gimel N`: (name, N, old, new)
FAILING_EDITS = (
    ("kcube", 13, RECORD_13, RECORD_13.replace(b"kcube 11/30", b"kcube 1/3")),
    ("degree", 13, RECORD_13, RECORD_13.replace(b"degree 11", b"degree 12")),
    ("basket-types", 13, RECORD_13, RECORD_13.replace(b"1/3(1,1,2)", b"1/4(1,1,3)")),
    ("pencil-count", 13, RECORD_13, RECORD_13.replace(b"pencils 1", b"pencils 2")),
    ("bc-presence", 13, RECORD_13, RECORD_13.replace(b" BC 1 0", b"")),
    ("distinguished-points", 18, b"row P1P2 6x", b"row P1P2 5x"),
)
# family 45 is on the type-IV list: weights with no second-pencil
# presentation, and family 5's weights, where two indices tie
PRESENTATIONS_45 = {
    "no-presentation-45": (b"family 45\nweights 1 2 3 5\ndegree 11\nkcube 11/30\ninvariant F_0\nell 1\n"
                           b"pencils 2\nrow P4 1x 1/5(1,2,3)\nrow P3 1x 1/3(1,1,2)\n"
                           b"row P2 1x 1/2(1,1,1) BC 1 0\n"),
    "tied-presentation-45": (b"family 45\nweights 1 1 2 3\ndegree 7\nkcube 7/6\ninvariant F_2\n"
                             b"ell 1\npencils infinite\nrow P4 1x 1/3(1,1,2) QI xw^2,4,7\n"
                             b"row P3 1x 1/2(1,1,1) QI *wt^2,5,7\n"),
}


def replaced(text: bytes, old: bytes, new: bytes) -> bytes:
    if text.count(old) != 1:
        raise SystemExit(f"expected one {old!r} in the packaged dataset")
    return text.replace(old, new)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/cli_transcript.py CHECKOUT", file=sys.stderr)
        return 2
    src = Path(argv[1]).resolve() / "src"
    sys.path.insert(0, str(src))
    from wfano import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"wfano.cli was imported from {cli.__file__}, not from {src}")
    os.environ.pop("WFANO_DATA", None)
    towers = src / "wfano" / "data" / "towers"
    packaged = (src / "wfano" / "data" / "families.txt").read_bytes()
    fixtures = sorted(towers.glob("*.tower"))

    with tempfile.TemporaryDirectory() as tmp:
        dirs = (str(towers) + os.sep, tmp + os.sep)

        def short(text: str) -> str:
            for d in dirs:
                text = text.replace(d, "")
            return text

        def run(*args: str, data: str | None = None) -> None:
            if data is not None:
                os.environ["WFANO_DATA"] = os.path.join(tmp, data)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(args))
                except SystemExit as exc:  # argparse rejects the argv
                    code = exc.code
                except Exception as exc:  # a bug: the transcript names it and goes on
                    traceback.print_exc(file=sys.__stderr__)
                    code = f"raised {type(exc).__name__}: {exc}"
            os.environ.pop("WFANO_DATA", None)
            env = f"WFANO_DATA={data} " if data is not None else ""
            print(f"$ {env}wfano {short(' '.join(args))}")
            print(f"exit {short(str(code))}")
            for name, text in (("stdout", out.getvalue()), ("stderr", err.getvalue())):
                print(f"--- {name}")
                text = short(text)
                sys.stdout.write(text if text.endswith("\n") or not text else text + "\n(no newline at end)\n")
            print()

        def write(name: str, content: bytes) -> str:
            Path(tmp, name).write_bytes(content)
            return os.path.join(tmp, name)

        run("enumerate")
        for bound in (1, 12, 33, 60, 100):
            run("enumerate", "--bound", str(bound))
        run("enumerate", "--bound", "0")
        run("verify")
        for gimel in range(97):
            run("show", str(gimel))
            run("basket", str(gimel))
            run("verify", "--gimel", str(gimel))
        run("export", "--format", "json")
        run("export", "--format", "csv")
        for path in fixtures:
            run("eval-tower", str(path))

        write("bom-families.txt", BOM + packaged)
        write("noncanonical.txt", replaced(
            packaged, FAMILY_13, b"kcube 22/60\ninvariant F_2\nell 1\npencils 1\nrow P4 01x"))
        write("latin1.txt", b"family 1\n# caf\xe9\n")
        write("no-record.txt", b"# no record\n")
        write("comment-line-ends.txt", replaced(packaged, b"family 13\n", NOT_LINE_ENDS + b"family 13\n"))
        write("bad-row.txt", replaced(packaged, FAMILY_13, FAMILY_13.replace(b"1x", b"0x")))
        write("inadmissible.txt", b"family 1\nweights 3 4 4 5\ndegree 16\nkcube 1/15\n"
              b"invariant F_0\nell 1\npencils 1\n")
        for data in ("bom-families.txt", "noncanonical.txt"):
            run("show", "13", data=data)
            run("verify", "--gimel", "13", data=data)
        run("verify", "--gimel", "13", data="comment-line-ends.txt")
        for data in ("latin1.txt", "no-record.txt", "bad-row.txt", "inadmissible.txt", "missing.txt"):
            run("verify", data=data)

        chain = (towers / "family13-chain.tower").read_bytes()
        run("eval-tower", write("bom-family13-chain.tower", BOM + chain))
        run("eval-tower", write("comment-line-ends-family13-chain.tower", NOT_LINE_ENDS + chain))
        run("eval-tower", write("latin1.tower", b"weights 1 2 3 5\n# caf\xe9\n"))
        run("eval-tower", write("no-header.tower", b"center 5 2\n"))
        run("eval-tower", write("bad-center.tower", b"weights 1 2 3 5\ncenter 7 3\n"))
        for name, text in BAD_TOWERS.items():
            run("eval-tower", write(f"{name}.tower", text))
        run("eval-tower", os.path.join(tmp, "missing.tower"))

        for name, text in BAD_DATASETS.items():
            write(f"{name}.txt", text)
            run("verify", data=f"{name}.txt")
        for name, gimel, old, new in FAILING_EDITS:
            write(f"wrong-{name}.txt", replaced(packaged, old, new))
            run("verify", "--gimel", str(gimel), data=f"wrong-{name}.txt")
        for name, text in PRESENTATIONS_45.items():
            write(f"{name}.txt", text)
            run("verify", "--gimel", "45", data=f"{name}.txt")
        for fmt in ("json", "csv"):
            out = Path(tmp, f"export.{fmt}")
            run("export", "--format", fmt, "--out", str(out))
            print(f"--- {out.name}")
            sys.stdout.write(out.read_text(encoding="utf-8"))
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
