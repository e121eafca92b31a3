"""Command line surface.

Subcommands: enumerate, show, basket, verify, eval-tower, export.
Exit status: 0 all requested checks pass, 1 check failures, 2 bad input:
a bad argument, a file that cannot be read or is not UTF-8, or a
`core.InputError` (unknown family, malformed dataset or tower text, a
non-terminal row type among them, a Gram block without a unique solution,
or a dataset record whose weights are not an admissible family).  The
dataset is checked whole when it is loaded, so every command that loads it
rejects a bad row or bad weights alike.  Any other error is a bug and
propagates.  All numeric output is exact ("p/q"); all orderings are
deterministic.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import classifier
from .classifier import FamilyRecord, load_families, verify_family
from .core import InputError, anticanonical_cube
from .enumerator import enumerate_families
from .singularities import basket
from .towers import definiteness, evaluate, fixture_checks, parse_tower_text


class _Positive(argparse.Action):
    """Store an int argument (argparse converts it) that must be >= 1."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 1:
            raise argparse.ArgumentError(self, f"must be >= 1, got {value}")
        setattr(namespace, self.dest, value)


def cmd_enumerate(args) -> int:
    for w in enumerate_families(args.bound):
        line = " ".join(str(a) for a in w)
        print(f"{line}  degree={w.degree}  kcube={anticanonical_cube(w)}")
    return 0


def cmd_show(args) -> int:
    rec = classifier.family(args.gimel)
    pencils = classifier.halphen_pencils(rec)
    # the dataset record, then the rule's pencils as comments: valid dataset text
    sys.stdout.write(classifier.serialize_table([rec]))
    for p in pencils:
        print(f"# |-{p.n}K| {p.kind}: {p.generator_text}")
    return 0


def cmd_basket(args) -> int:
    rec = classifier.family(args.gimel)
    entries = basket(rec.weights).entries
    if not entries:
        print("smooth")
    for e in entries:
        print(f"{e.count} x {e.sing_type} at {e.locus}")
    return 0


def cmd_verify(args) -> int:
    if args.gimel is not None:
        records = [classifier.family(args.gimel)]
    else:
        records = list(load_families())
    # every check first: bad input met at a later family leaves stdout empty
    checks = [(rec.gimel, c) for rec in records
              for c in verify_family(rec) + fixture_checks(rec.gimel)]
    for gimel, c in checks:
        print(f"{gimel}, {c.name}, {'PASS' if c.passed else 'FAIL'}, {c.expected}, {c.actual}")
    return 0 if all(c.passed for _, c in checks) else 1


def cmd_eval_tower(args) -> int:
    with open(args.file, encoding="utf-8-sig") as fh:  # a byte-order mark is skipped
        ev = evaluate(parse_tower_text(fh.read()))
    print(f"neg_k_cube = {ev.neg_k_cube}")
    for (a, b, c), value in ev.triples:
        print(f"triple({a},{b},{c}) = {value}")
    if ev.gram_matrix is not None:
        print("gram:")
        for row in ev.gram_matrix:
            print(" ".join(str(v) for v in row))
        print(f"verdict: {definiteness(ev.negative_definite)}")
    return 0


def cmd_export(args) -> int:
    records = load_families()
    if args.format == "json":
        payload = {
            "families": [
                {
                    **rec._asdict(),  # the weights, a tuple, dump as a list
                    "kcube": str(rec.kcube),
                    "rows": [
                        {
                            "locus": row.locus,
                            "count": row.count,
                            "type": row.type_text(),
                            **({row.annotation.tag.lower(): row.annotation.value}
                               if row.annotation else {}),
                        }
                        for row in rec.rows
                    ],
                }
                for rec in records
            ]
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        # the columns between the weights and the rows, degree to pencils
        writer.writerow(["gimel", "a1", "a2", "a3", "a4", *FamilyRecord._fields[2:-1], "basket"])
        for rec in records:
            writer.writerow(
                [rec.gimel, *rec.weights, *rec[2:-1], "; ".join(str(row) for row in rec.rows)]
            )
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wfano",
        description="Exact invariants, blow-up towers and pencil counts "
        "for the 95 weighted hypersurface families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list admissible weight systems")
    p.add_argument("--bound", type=int, action=_Positive, default=40, help="largest weight to try")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("show", help="print one family record")
    p.add_argument("gimel", type=int)
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("basket", help="recompute the singular points")
    p.add_argument("gimel", type=int)
    p.set_defaults(func=cmd_basket)

    p = sub.add_parser("verify", help="recompute and compare everything")
    p.add_argument("--gimel", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("eval-tower", help="evaluate a tower description file")
    p.add_argument("file")
    p.set_defaults(func=cmd_eval_tower)

    p = sub.add_parser("export", help="dump the dataset")
    p.add_argument("--format", choices=("json", "csv"), required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
