"""The four workloads: their seeded inputs, one pass of fixed work, and the
independent checks of a pass's outputs.

Every workload runs in passes.  A pass is the workload's fixed work, and
it starts from cold computation caches, as a fresh process would.  A pass
is a list of items (one weight system, one tower text, one round of the
dataset commands), each timed on its own.  The program is reached through
module attributes at call time (`enumerator.is_quasismooth_general(w)`),
so that the traced run sees every call through its wrappers.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import process_time

import oracles

ENUMERATE_BOUND = 40  # the default of `wfano enumerate`

# screen: one pass is copies of the 95 published systems interleaved with
SCREEN_UNIFORM = 9500  # four weights drawn uniformly from 41..400
SCREEN_VERTEX = 9500  # a4 > 40 divides s or s - w for a lower weight w
SCREEN_FERMAT = 525  # every weight divides d, with a common factor >= 2
SCREEN_PUBLISHED_COPIES = 5  # 475 of the 20,000 systems are published ones

VERIFY_ROUNDS = 10  # rounds per pass
TOWERS_PER_PASS = 500

# a1..a3 of the vertex-structured systems, and the range of the uniform ones
SCREEN_LOW, SCREEN_HIGH = 41, 400


class Program:
    """The `wfano` modules the workloads call into."""

    def __init__(self):
        from wfano import blowup, classifier, cli, core, enumerator, singularities, towers

        self.classifier = classifier
        self.cli = cli
        self.core = core
        self.enumerator = enumerator
        self.singularities = singularities
        self.towers = towers
        self.computational = (core, enumerator, singularities, blowup, towers)

    def make_cold(self):
        """Empty the memo caches of the computational modules.  The dataset
        stays loaded: loading it is set-up."""
        for module in self.computational:
            for obj in list(vars(module).values()):
                if hasattr(obj, "cache_info") and hasattr(obj, "cache_clear"):
                    obj.cache_clear()


@dataclass(frozen=True)
class Failure:
    """The output of an item whose call raised."""

    error: str
    message: str


def timed(items, work):
    """Run `work` on every item; return (CPU seconds per item, outputs,
    failed).  Item times are the process's CPU time, so that time the host
    gives to other tenants does not show up as a tail."""
    times, outputs, failed = [], [], 0
    for item in items:
        t0 = process_time()
        try:
            out = work(item)
        except Exception as exc:  # an operation that fails is counted, not fatal
            out = Failure(type(exc).__name__, str(exc))
            failed += 1
        times.append(process_time() - t0)
        outputs.append(out)
    return times, outputs, failed


# ---------------------------------------------------------------------------
# enumerate


class Enumerate:
    """One cold `enumerate_families(40)`; the seed does not enter."""

    name = "enumerate"

    def __init__(self, program, published, seed, data_dir):
        self.p = program
        self.published = published

    def items(self):
        return [ENUMERATE_BOUND]

    def work(self, bound):
        return [tuple(w) for w in self.p.enumerator.enumerate_families(bound)]

    def check(self, outputs):
        expected = oracles.published_systems(self.published)
        return [] if isinstance(outputs[0], Failure) or outputs[0] == expected else [
            f"enumerate_families({ENUMERATE_BOUND}) returned {len(outputs[0])} systems, "
            f"not the {len(expected)} published ones in (degree, weights) order"
        ]


# ---------------------------------------------------------------------------
# screen


def egyptian_quadruples():
    """All k1 <= k2 <= k3 <= k4 with 1/k1 + 1/k2 + 1/k3 + 1/k4 = 1."""
    out = []
    for k1 in range(2, 5):
        for k2 in range(k1, 13):
            for k3 in range(k2, 43):
                rest = 1 - Fraction(1, k1) - Fraction(1, k2) - Fraction(1, k3)
                if rest > 0 and rest.numerator == 1 and rest.denominator >= k3:
                    out.append((k1, k2, k3, rest.denominator))
    return out


def screen_systems(rng, published_systems):
    """Copies of the 95 published systems shuffled among three kinds of
    generated ones, none of which is in the published list:

    * uniform: four weights from 41..400;
    * vertex: a1..a3 from 2..200 and a4 > 40 dividing s, s - 1 or s - ai
      (s = a1 + a2 + a3), so the vertex P4 has a monomial x4^k or x4^k xj
      of degree d and more subsets are examined before a rejection;
    * fermat: d / ki for a solution of sum 1/ki = 1 scaled by t >= 2, so a
      Fermat polynomial makes the member quasismooth and the common
      factor t makes its singularities non-isolated.
    """
    systems = []
    for _ in range(SCREEN_UNIFORM):
        systems.append(tuple(sorted(rng.randint(SCREEN_LOW, SCREEN_HIGH) for _ in range(4))))
    while len(systems) < SCREEN_UNIFORM + SCREEN_VERTEX:
        low = sorted(rng.randint(2, 200) for _ in range(3))
        s = sum(low)
        divisors = sorted({
            t // k
            for t in (s, s - 1, *(s - a for a in low))
            for k in (1, 2, 3)
            if t % k == 0 and t // k >= max(low[2], SCREEN_LOW)
        })
        if divisors:
            systems.append((*low, rng.choice(divisors)))
    quads = egyptian_quadruples()
    for _ in range(SCREEN_FERMAT):
        ks = rng.choice(quads)
        d = math.lcm(*ks) * rng.randint(2, 12)
        systems.append(tuple(sorted(d // k for k in ks)))
    systems += published_systems * SCREEN_PUBLISHED_COPIES
    rng.shuffle(systems)
    return systems


class Screen:
    """Per-query screening: quasismooth, then terminal, then the basket."""

    name = "screen"

    def __init__(self, program, published, seed, data_dir):
        self.p = program
        self.published = published
        self.known = {r["weights"]: r for r in published.values()}
        self.systems = screen_systems(random.Random(seed), oracles.published_systems(published))

    def items(self):
        return self.systems

    def work(self, ws):
        e = self.p.enumerator
        w = self.p.core.Weights(*ws)
        if not (e.is_quasismooth_general(w) and e.has_only_terminal_isolated_sings(w)):
            return None
        return self.p.singularities.basket(w)

    def check(self, outputs):
        problems, consistent = [], {}
        for ws, bk in zip(self.systems, outputs):
            rec = self.known.get(ws)
            if isinstance(bk, Failure):
                continue
            if (bk is not None) != (rec is not None):
                problems.append(f"{ws}: accepted={bk is not None}, published={rec is not None}")
            elif bk is not None:
                points = sorted((e.sing_type.r, e.sing_type.a) for e in bk for _ in range(e.count))
                published = sorted(
                    oracles.terminal_form(r, qs)
                    for _, count, r, qs, _ in rec["rows"] for _ in range(count)
                )
                if points != published:
                    problems.append(f"{ws}: basket {points} differs from published {published}")
                elif not consistent.setdefault(ws, oracles.basket_is_consistent(ws, points)):
                    problems.append(f"{ws}: basket fails Reid's formula or Kawamata's bound")
        return problems


# ---------------------------------------------------------------------------
# verify


_BASKET_LINE = "basket types, PASS, "
_POINT_RE = re.compile(r"(\d+) x 1/(\d+)\(1,(\d+),(\d+)\)")


class Verify:
    """Rounds of dataset use: parse and serialize the packaged text, then
    `wfano verify` and `wfano export --format json` with stdout captured."""

    name = "verify"

    def __init__(self, program, published, seed, data_dir):
        self.p = program
        self.published = published
        self.text = (data_dir / "families.txt").read_text(encoding="utf-8")

    def items(self):
        return range(VERIFY_ROUNDS)

    def work(self, _round):
        c = self.p.classifier
        records = c.parse_table(self.text)
        text = c.serialize_table(records)
        runs = []
        for argv in (["verify"], ["export", "--format", "json"]):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.p.cli.main(argv)
            runs.append((code, buf.getvalue()))
        return records, text, runs

    def check(self, outputs):
        if isinstance(outputs[0], Failure):
            return []
        records, text, ((vcode, vout), (xcode, xout)) = outputs[0]
        problems = []
        if records != self.p.classifier.parse_table(text):
            problems.append("parse_table(serialize_table(records)) differs from records")
        lines = vout.splitlines()
        if vcode != 0 or not lines or any(", PASS, " not in l for l in lines):
            problems.append(f"verify exit {vcode}, {sum(', PASS, ' not in l for l in lines)} lines not PASS")
        seen = set()
        for line in lines:
            gimel, sep, rest = line.partition(", " + _BASKET_LINE)
            if not sep:
                continue
            half = (len(rest) - 2) // 2
            expected, actual = rest[:half], rest[half + 2:]
            points = [
                (int(r), int(a)) for count, r, a, _ in _POINT_RE.findall(actual)
                for _ in range(int(count))
            ]
            weights = self.published[int(gimel)]["weights"]
            if expected != actual or not oracles.basket_is_consistent(weights, points):
                problems.append(f"family {gimel}: basket {actual!r} fails Reid/Kawamata")
            seen.add(int(gimel))
        if seen != set(self.published):
            problems.append(f"verify printed baskets for {len(seen)} of {len(self.published)} families")
        problems += self._check_export(xcode, xout)
        return problems

    def _check_export(self, code, out):
        exported = {f["gimel"]: f for f in json.loads(out)["families"]} if code == 0 else {}
        problems = [] if code == 0 else [f"export exit {code}"]
        if set(exported) != set(self.published):
            problems.append("export lists other families than the published ones")
            return problems
        for gimel, rec in self.published.items():
            got = exported[gimel]
            want_rows = [(locus, count, f"1/{r}({qs[0]},{qs[1]},{qs[2]})")
                         for locus, count, r, qs, _ in rec["rows"]]
            got_rows = [(row["locus"], row["count"], row["type"]) for row in got["rows"]]
            if (tuple(got["weights"]), got["degree"], Fraction(got["kcube"]),
                    str(got["pencils"]), got_rows) != (
                    rec["weights"], rec["degree"], rec["kcube"], rec["pencils"], want_rows):
                problems.append(f"export of family {gimel} differs from the published record")
        return problems


# ---------------------------------------------------------------------------
# towers


def _det(matrix) -> Fraction:
    m = [[Fraction(x) for x in row] for row in matrix]
    n, det = len(m), Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p], det = m[p], m[c], -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def _coeff(rng, r):
    return Fraction(rng.randint(-2 * r, r), r)


def _term(c, name):
    return name if c == 1 else f"{c}{name}"


def tower_variant(rng, gimel, weights, types):
    """A `.tower` text over family `gimel` and the data the oracle needs.

    Centers are 1-4 draws from the family's basket types, each tracking a
    random subset of earlier stages with multiplicity p/r.  The classes
    have fractional coefficients; there are 2-3 curves, each restricted
    class decomposes by a row of an invertible non-negative matrix, so the
    Gram problem has exactly one solution.
    """
    centers = [rng.choice(types) for _ in range(rng.randint(1, 4))]
    lines = [f"# seeded variant over family {gimel}", f"family {gimel}"]
    for k, (r, a) in enumerate(centers, start=1):
        tracked = [f"e{s}={Fraction(rng.randint(1, r), r)}" for s in range(1, k) if rng.random() < 0.5]
        lines.append(f"center {r} {a}" + (" track " + " ".join(tracked) if tracked else ""))
    anti = (Fraction(1), *(-Fraction(1, r) for r, _ in centers))
    surface = (Fraction(rng.randint(1, 5)), *(_coeff(rng, r) for r, _ in centers))
    n = rng.randint(2, 3)
    curves = [f"C{i}" for i in range(1, n + 1)]
    classes = [(Fraction(rng.randint(0, 3)), *(_coeff(rng, r) for r, _ in centers)) for _ in curves]
    choices = (0, 0, 1, 1, 2, 3, Fraction(1, 2))
    while True:
        matrix = [[Fraction(rng.choice(choices)) for _ in curves] for _ in curves]
        if _det(matrix) != 0:
            break
    named = [("K", anti), ("D", surface)] + [(f"A{i}", c) for i, c in enumerate(classes, 1)]
    lines += [f"class {name} " + " ".join(str(x) for x in coeffs) for name, coeffs in named]
    triples = [("K", "K", "K"), ("D", "A1", "A2")]
    lines += [f"triple {a} {b} {c}" for a, b, c in triples]
    lines += ["surface D", "curves " + " ".join(curves)]
    for i, row in enumerate(matrix, 1):
        lines.append(f"restrict A{i} = " + " + ".join(_term(c, nm) for c, nm in zip(row, curves) if c))
    data = {
        "weights": weights, "centers": centers, "classes": dict(named),
        "triples": triples, "restricted": classes, "matrix": matrix,
    }
    return "\n".join(lines) + "\n", data


def fixture_families(data_dir: Path) -> list[int]:
    """The families of the shipped `.tower` fixtures, from their headers."""
    out = set()
    for path in sorted((data_dir / "towers").glob("*.tower")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.startswith("family "):
                out.add(int(line.split()[1]))
    return sorted(out)


class Towers:
    """Parse and evaluate seeded variants of the shipped tower fixtures."""

    name = "towers"

    def __init__(self, program, published, seed, data_dir):
        self.p = program
        rng = random.Random(seed)
        families = fixture_families(data_dir)
        self.variants = []
        for _ in range(TOWERS_PER_PASS):
            gimel = rng.choice(families)
            rec = published[gimel]
            types = sorted({oracles.terminal_form(r, qs) for _, _, r, qs, _ in rec["rows"]})
            self.variants.append(tower_variant(rng, gimel, rec["weights"], types))

    def items(self):
        return [text for text, _ in self.variants]

    def work(self, text):
        t = self.p.towers
        return t.evaluate(t.parse_tower_text(text))

    def check(self, outputs):
        problems = []
        for i, ((text, data), ev) in enumerate(zip(self.variants, outputs)):
            w, centers, classes = data["weights"], data["centers"], data["classes"]
            first_line = f"tower {i} ({text.splitlines()[1]})"
            if isinstance(ev, Failure):
                continue
            triples = dict(ev.triples)
            for names in data["triples"]:
                want = oracles.tower_triple(w, centers, *(classes[n] for n in names))
                if triples.get(names) != want:
                    problems.append(f"{first_line}: triple{names} = {triples.get(names)}, not {want}")
            if ev.neg_k_cube != triples.get(("K", "K", "K")):
                problems.append(f"{first_line}: neg_k_cube {ev.neg_k_cube} != triple(-K,-K,-K)")
            if ev.gram_matrix is None or not oracles.gram_satisfies(
                    ev.gram_matrix, data["matrix"], data["restricted"], classes["D"], w, centers):
                problems.append(f"{first_line}: Gram matrix {ev.gram_matrix} misses its equations")
            elif ev.negative_definite != oracles.ldl_negative_definite(ev.gram_matrix):
                problems.append(f"{first_line}: verdict {ev.negative_definite} disagrees with LDL^T")
        return problems


WORKLOADS = {w.name: w for w in (Enumerate, Screen, Verify, Towers)}
