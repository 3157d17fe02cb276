"""Workload definitions and the seeded input generator.

A workload is a fixed list of operations.  An operation is either one CLI
claim, run as ``python -m liepoisson ... --json`` in its own process, or
one batch of bracket-axiom checks on one context, run by ``child.py``.
Each operation also names its set-up: the algebra and orbit context the
program builds before it can start on the claim.  The seed decides only
the generated inputs (linear generators, the rotated basis, the random
triples); the operations themselves and their bounds are fixed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 0

SL2R_NAMES = ("x", "y", "z")
# sl2r in the basis of liealg.builtin: [y,z] = x, [z,x] = y, [x,y] = -z.
SL2R_BRACKETS = {(1, 2): {0: 1}, (2, 0): {1: 1}, (0, 1): {2: -1}}

# Bracket-axiom polynomials: one term of each degree in TRIPLE_DEGREES.
# The monomials of each degree are dealt from a shuffled deck of all
# monomials of that degree, so every monomial is used about equally often
# and the work in a batch depends little on the seed; the seed decides the
# deal and the coefficients.
TRIPLE_DEGREES = (1, 2, 3)

# The basis change of the rotated sl2r: e'_1 = e_1 + e_2, e'_2 = e_2 + e_3,
# e'_3 = e_3, up to the seed's signs.  Every structure constant of the new
# basis is nonzero, at about 1.3x the cost of prop1 on sl2r.
SHEAR = ((1, 1, 0), (0, 1, 1), (0, 0, 1))
COEFFS = (-4, -3, -2, -1, 1, 2, 3, 4)


@dataclass(frozen=True)
class Setup:
    """The algebra and context an operation builds before its claim.

    ``algebra`` is a built-in name or the key ``"rotated"`` for the seeded
    JSON algebra file; ``casimir`` is the orbit level, or None for the free
    algebra.
    """

    algebra: str
    n: int | None = None
    casimir: str | None = None

    @property
    def key(self) -> str:
        size = f"-{self.n}" if self.n is not None else ""
        orbit = f"@{self.casimir}" if self.casimir is not None else "-free"
        return f"{self.algebra}{size}{orbit}"

    def spec(self, inputs: "Inputs") -> dict:
        algebra = str(inputs.rotated_path) if self.algebra == "rotated" else self.algebra
        return {"algebra": algebra, "n": self.n, "casimir": self.casimir}


@dataclass(frozen=True)
class Operation:
    """One timed operation and what theory says its outcome must be."""

    name: str
    setup: Setup
    cli: tuple[str, ...] = ()
    batch: int = 0
    expect_exit: int = 0
    expect_verdict: str = "pass"
    seeded: bool = False
    witness: bool = False
    same_dims_as: str | None = None

    @property
    def is_cli(self) -> bool:
        return bool(self.cli)


@dataclass
class Inputs:
    """Everything generated from the seed, plus where it was written."""

    seed: int
    lemma_gen: str
    probe_gens: tuple[str, str]
    rotation: list[list[int]]
    rotated_path: Path
    triples: dict[str, list]
    triples_path: Path


SL2R_FREE = Setup("sl2r")
HYPERBOLOID = Setup("sl2r", casimir="1")
CONE = Setup("sl2r", casimir="0")


def operations(workload: str, inputs: Inputs) -> list[Operation]:
    if workload == "span-claims":
        # --gen=EXPR, since argparse reads a form like "-x+y" as an option
        probe_args = tuple(f"--gen={g}" for g in inputs.probe_gens)
        return [
            Operation("thm2", HYPERBOLOID,
                      ("verify", "thm2", "--algebra", "sl2r", "--casimir", "1", "--max-degree", "7")),
            Operation("nonexact", HYPERBOLOID,
                      ("verify", "nonexact", "--algebra", "sl2r", "--max-degree", "8")),
            Operation("lemma", SL2R_FREE,
                      ("verify", "lemma", "--algebra", "sl2r", f"--gen={inputs.lemma_gen}",
                       "--max-degree", "11"), seeded=True),
            Operation("probe", HYPERBOLOID,
                      ("probe", "simplicity", "--algebra", "sl2r", "--casimir", "1", *probe_args,
                       "--max-degree", "7"), seeded=True),
            Operation("nilpotent-ideals", CONE,
                      ("verify", "nilpotent-ideals", "--algebra", "sl2r", "--max-degree", "9")),
        ]
    if workload == "free-splitting":
        return [
            Operation("prop1-sl2r", SL2R_FREE,
                      ("verify", "prop1", "--algebra", "sl2r", "--max-degree", "9")),
            Operation("prop1-so3", Setup("so3"),
                      ("verify", "prop1", "--algebra", "so3", "--max-degree", "9")),
            Operation("prop1-heisenberg2", Setup("heisenberg", n=2),
                      ("verify", "prop1", "--algebra", "heisenberg", "--n", "2", "--max-degree", "5"),
                      expect_exit=1, expect_verdict="fail", witness=True),
            Operation("prop1-rotated", Setup("rotated"),
                      ("verify", "prop1", "--algebra", str(inputs.rotated_path), "--max-degree", "9"),
                      seeded=True, same_dims_as="prop1-sl2r"),
        ]
    if workload == "bracket-axioms":
        return [
            Operation(f"axioms-{setup.key}", setup, batch=count, seeded=True)
            for setup, count in AXIOM_BATCHES
        ]
    raise ValueError(f"unknown workload '{workload}'")


# One batch per context, sized so that each batch takes about 0.3 s;
# quotient contexts reduce every product and bracket, so they get fewer
# triples than the free ones.
AXIOM_BATCHES = (
    (SL2R_FREE, 40),
    (Setup("so3"), 40),
    (Setup("heisenberg", n=2), 120),
    (HYPERBOLOID, 16),
    (CONE, 20),
    (Setup("heisenberg", n=2, casimir="1"), 36),
)

WORKLOADS = ("span-claims", "free-splitting", "bracket-axioms")


def _linear_form(rng: random.Random) -> str:
    """A nonzero integer linear form in x, y, z with every coefficient nonzero."""
    coeffs = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in SL2R_NAMES]
    text = ""
    for c, name in zip(coeffs, SL2R_NAMES):
        sign = "-" if c < 0 else ("+" if text else "")
        text += f"{sign}{name}" if abs(c) == 1 else f"{sign}{abs(c)}*{name}"
    return text


def _unimodular(rng: random.Random) -> list[list[int]]:
    """A 3x3 integer matrix of determinant +-1: ``D1 * SHEAR * D2``.

    D1 and D2 are diagonal with entries +-1 drawn from the seed.  They
    change the signs of the new structure constants but not their sizes or
    places, so every seed gives prop1 the same work.  With shears drawn
    from the seed, prop1 at degree 9 cost 0.69-0.86 s over ten seeds.
    """
    d1 = [rng.choice((-1, 1)) for _ in range(3)]
    d2 = [rng.choice((-1, 1)) for _ in range(3)]
    return [[d1[i] * SHEAR[i][j] * d2[j] for j in range(3)] for i in range(3)]


def _inverse_unimodular(m: list[list[int]]) -> list[list[int]]:
    """Exact inverse of an integer matrix of determinant +-1, by adjugate."""
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    if det not in (1, -1):
        raise ValueError(f"matrix is not unimodular (det {det})")
    cof = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            rows = [r for r in range(3) if r != i]
            cols = [c for c in range(3) if c != j]
            minor = m[rows[0]][cols[0]] * m[rows[1]][cols[1]] - m[rows[0]][cols[1]] * m[rows[1]][cols[0]]
            cof[i][j] = (-1) ** (i + j) * minor
    return [[cof[j][i] * det for j in range(3)] for i in range(3)]


def rotated_sl2r(m: list[list[int]]) -> dict:
    """sl2r in the basis e'_a = sum_i m[a][i] e_i, as a JSON algebra definition.

    [e'_a, e'_b] = sum m[a][i] m[b][j] c_ij^k e_k, and e_k = sum inv[k][l] e'_l.
    """
    inv = _inverse_unimodular(m)
    c: dict[tuple[int, int], dict[int, int]] = {}
    for (i, j), terms in SL2R_BRACKETS.items():
        c[(i, j)] = dict(terms)
        c[(j, i)] = {k: -v for k, v in terms.items()}
    names = ("u", "v", "w")
    brackets = []
    for a in range(3):
        for b in range(a + 1, 3):
            out = [0, 0, 0]
            for (i, j), terms in c.items():
                w = m[a][i] * m[b][j]
                if w:
                    for k, v in terms.items():
                        for l in range(3):
                            out[l] += w * v * inv[k][l]
            terms = [{"k": names[l], "coeff": str(out[l])} for l in range(3) if out[l]]
            if terms:
                brackets.append({"i": names[a], "j": names[b], "terms": terms})
    return {"dim": 3, "basis": list(names), "brackets": brackets}


def _monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    if nvars == 1:
        return [(degree,)]
    return [(e, *rest) for e in range(degree + 1) for rest in _monomials(nvars - 1, degree - e)]


def _triples(rng: random.Random, nvars: int, count: int) -> list:
    """``count`` triples of polynomials as plain data: [[exponents, "p/q"], ...]."""
    decks: dict[int, list] = {d: [] for d in TRIPLE_DEGREES}

    def deal(d: int) -> list[int]:
        if not decks[d]:
            decks[d] = _monomials(nvars, d)
            rng.shuffle(decks[d])
        return list(decks[d].pop())

    def coeff() -> str:
        return str(Fraction(rng.choice(COEFFS), rng.choice((1, 1, 2, 3))))

    return [[[[deal(d), coeff()] for d in TRIPLE_DEGREES] for _ in range(3)] for _ in range(count)]


def _nvars(setup: Setup) -> int:
    return 2 * setup.n + 1 if setup.algebra == "heisenberg" else 3


def generate(seed: int, workdir: Path) -> Inputs:
    """Draw every seeded input and write the files the program reads."""
    rng = random.Random(seed)
    lemma_gen = _linear_form(rng)
    probe_gens = (_linear_form(rng), _linear_form(rng))
    rotation = _unimodular(rng)
    workdir.mkdir(parents=True, exist_ok=True)
    rotated_path = workdir / "rotated_sl2r.json"
    rotated_path.write_text(json.dumps(rotated_sl2r(rotation), indent=2) + "\n", encoding="utf-8")
    triples = {
        setup.key: _triples(rng, _nvars(setup), count) for setup, count in AXIOM_BATCHES
    }
    triples_path = workdir / "triples.json"
    triples_path.write_text(json.dumps(triples), encoding="utf-8")
    return Inputs(seed, lemma_gen, probe_gens, rotation, rotated_path, triples, triples_path)
