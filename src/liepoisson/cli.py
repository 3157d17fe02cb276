"""Command-line front end for the verification suite.

Each command is a thin shell around one structure-module operation, and
``COMMANDS`` is the one table of them: where each hangs (``validate``,
``verify <claim>``, ``probe simplicity``), the function that runs it, the
flags it reads beyond ``--algebra``, ``--n`` and ``--json``, and its
defaults.  A command's parser holds only its own flags, so argparse rejects
any other.  Given the same arguments the emitted report is byte-identical
across runs.  Exit status: 0 when the claim passes, 1 when a claim check
fails, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import structure
from .liealg import LieAlgebra, builtin, killing_form, load_algebra, nondegenerate, validate
from .orbit import OrbitDescriptor, OrbitType, casimir_orbit, make_orbit
from .poisson import PoissonContext
from .poly import parse_polynomial
from .structure import VerificationReport

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    pass


def _resolve_algebra(args: argparse.Namespace) -> LieAlgebra:
    if args.size is not None and args.algebra != "heisenberg":
        raise UsageError("--n applies only to --algebra heisenberg")
    if args.algebra in ("sl2r", "so3"):
        return builtin(args.algebra)
    if args.algebra == "heisenberg":
        return builtin("heisenberg", args.size if args.size is not None else 1)
    path = Path(args.algebra)
    if not path.exists():
        raise UsageError(
            f"'{args.algebra}' is not a built-in algebra (sl2r, so3, heisenberg) or a readable file"
        )
    return load_algebra(path)


def _resolve_orbit(args: argparse.Namespace, algebra: LieAlgebra) -> OrbitDescriptor:
    # Only the commands that read --orbit-type have it in their namespace.
    override = getattr(args, "orbit_type", None)
    override = OrbitType(override) if override else None
    if args.relation is not None:
        relation = parse_polynomial(args.relation, algebra.names)
        return make_orbit(algebra, relation, orbit_type=override)
    if args.casimir is not None:
        try:
            level = Fraction(args.casimir)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"--casimir expects a rational like 1 or -3/2, got '{args.casimir}'")
        return casimir_orbit(algebra, level, orbit_type=override)
    raise UsageError("an orbit is required (--casimir <p/q> or --relation \"<expr>\")")


def _parse_generators(args: argparse.Namespace, algebra: LieAlgebra):
    if not args.generators:
        raise UsageError("at least one --gen \"<expr>\" is required")
    return [parse_polynomial(text, algebra.names) for text in args.generators]


def _validate(args: argparse.Namespace) -> VerificationReport:
    algebra = _resolve_algebra(args)
    report = VerificationReport(
        "validate",
        {"algebra": args.algebra, "dim": algebra.dim, "basis": list(algebra.names)},
    )
    result = validate(algebra)
    for v in result.violations:
        report.records.append(
            {"check": v.kind, "indices": list(v.indices), "detail": v.detail, "verdict": "fail"}
        )
    report.records.append(
        {"check": "axioms", "violations": len(result.violations),
         "verdict": "pass" if result.ok else "fail"}
    )
    if result.ok:  # is_semisimple's rank test on the matrix reported, without validating again
        killing = killing_form(algebra)
        matrix = [[str(a) for a in row] for row in killing]
        report.records.append(
            {"check": "killing_form", "semisimple": nondegenerate(killing), "matrix": matrix, "verdict": "pass"}
        )
    return report


def _orbit(args: argparse.Namespace) -> OrbitDescriptor:
    return _resolve_orbit(args, _resolve_algebra(args))


def _lemma(args: argparse.Namespace) -> VerificationReport:
    algebra = _resolve_algebra(args)
    gens = _parse_generators(args, algebra)
    if args.casimir is not None or args.relation is not None:
        ctx = _resolve_orbit(args, algebra).context
    else:
        ctx = PoissonContext.free(algebra)
    return structure.ideal_square_check(ctx, gens, args.max_degree)


def _simplicity(args: argparse.Namespace) -> VerificationReport:
    algebra = _resolve_algebra(args)
    orbit = _resolve_orbit(args, algebra)
    return structure.simplicity_probe(orbit, _parse_generators(args, algebra), args.max_degree)


def _non_negative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expects a non-negative integer, got '{text}'")
    return value


FLAGS = {
    "--casimir": {"help": "orbit level c: relation = (built-in Casimir) - c"},
    "--relation": {"help": "orbit relation as a polynomial expression"},
    "--max-degree": {"type": _non_negative, "help": "degree or source bound for the checks"},
    "--gen": {"action": "append", "dest": "generators", "metavar": "EXPR",
              "help": "generator polynomial (repeatable)"},
    "--k": {"type": int, "default": 1, "help": "lowest degree of the homogeneous ideal (default 1)"},
    "--orbit-type": {"choices": [t.value for t in OrbitType], "help": "override the orbit classification"},
}
ORBIT = ("--casimir", "--relation")  # mutually exclusive

# name: (parent, help, run, flags read beyond --algebra/--n/--json, defaults).
# "verify" and "probe" group the commands under them and run nothing.
# Defaults: max_degree; casimir, the orbit level when neither --casimir nor
# --relation is given; algebra, the only algebra the command accepts.
COMMANDS = {
    "validate": (None, "check the bracket axioms and the Killing form", _validate, (), {}),
    "verify": (None, "run a structure verification", None, (), {}),
    "prop1": ("verify", "center/bracket-span splitting of the free algebra",
              lambda a: structure.verify_prop1(_resolve_algebra(a), a.max_degree),
              ("--max-degree",), {"max_degree": 4}),
    "thm2": ("verify", "constants split off on an orbit",
             lambda a: structure.verify_thm2(_orbit(a), a.max_degree),
             (*ORBIT, "--max-degree"), {"max_degree": 5}),
    "heisenberg": ("verify", "constants are bracket-reachable on the symplectic orbit",
                   lambda a: structure.verify_heisenberg(_orbit(a), a.max_degree),
                   (*ORBIT, "--max-degree"), {"max_degree": 2, "casimir": "1", "algebra": "heisenberg"}),
    "nilpotent-ideals": ("verify", "graded proper Poisson ideals on a cone",
                         lambda a: structure.verify_homogeneous_ideals(_orbit(a), a.k, a.max_degree),
                         (*ORBIT, "--max-degree", "--k"), {"max_degree": 4, "casimir": "0"}),
    "nonexact": ("verify", "bounded infeasibility of 1 = {x,f}+{y,g}+{z,h}",
                 lambda a: structure.nonexactness_check(_orbit(a), a.max_degree),
                 (*ORBIT, "--max-degree"), {"max_degree": 4, "casimir": "1"}),
    "lemma": ("verify", "strictness of the ideal square", _lemma,
              (*ORBIT, "--max-degree", "--gen"), {"max_degree": 4}),
    "probe": (None, "run an exploratory probe", None, (), {}),
    "simplicity": ("probe", "closures of trial generators on an orbit", _simplicity,
                   (*ORBIT, "--max-degree", "--gen", "--orbit-type"), {"max_degree": 4}),
}


class _Parser(argparse.ArgumentParser):
    """Raises UsageError on a parse error, and is filled in from COMMANDS
    only when it parses: a command gets its flags, a group only the
    sub-command that argv names (all of them when argv names none, so that
    help and errors list them).  One command line thus builds one parser per
    word, not one per table entry."""

    name: str | None = None
    filled = False

    def error(self, message: str):
        raise UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        if not self.filled:
            self.filled = True
            self._fill(args)
        return super().parse_known_args(args, namespace)

    def _fill(self, args: list[str]) -> None:
        children = [name for name, row in COMMANDS.items() if row[0] == self.name]
        if children:
            sub = self.add_subparsers(dest="claim" if self.name else "command", required=True, prog=self.prog)
            for name in [args[0]] if args and args[0] in children else children:
                summary = COMMANDS[name][1]
                sub.add_parser(name, help=summary, description=summary).name = name
            return
        _, _, run, flags, defaults = COMMANDS[self.name]
        self.set_defaults(run=run, **defaults)
        algebra = defaults.get("algebra")
        self.add_argument("--algebra", required=algebra is None, choices=algebra and [algebra],
                          help="built-in algebra name (sl2r, so3, heisenberg) or a JSON definition file")
        self.add_argument("--n", type=int, dest="size", help="Heisenberg size (dimension 2n+1)")
        orbit = self.add_mutually_exclusive_group() if ORBIT[0] in flags else None
        for flag in flags:
            (orbit if flag in ORBIT else self).add_argument(flag, **FLAGS[flag])
        self.add_argument("--json", action="store_true", dest="json_output", help="emit the report as JSON")


def build_parser() -> argparse.ArgumentParser:
    """A parser for one command line: it fills itself in from the first argv
    it parses, so parse each command line with a fresh one."""
    return _Parser(
        prog="liepoisson",
        description="Exact degreewise verification of polynomial Poisson algebra structure on coadjoint orbits.",
    )


def run(argv: list[str] | None = None) -> tuple[int, str]:
    """Parse argv (default: sys.argv[1:]) and run its command; returns
    (exit status, report text)."""
    try:
        args = build_parser().parse_args(argv)
        report = args.run(args)
    except (ValueError, OSError) as exc:  # UsageError and every input error are ValueErrors
        return EXIT_USAGE, f"error: {exc}\n"
    output = report.to_json() if args.json_output else report.render_text()
    return (EXIT_PASS if report.passed else EXIT_FAIL), output


def main(argv: list[str] | None = None) -> int:
    status, output = run(argv)
    print(output, end="", file=sys.stderr if status == EXIT_USAGE else sys.stdout)
    return status


def console_main() -> None:  # pragma: no cover
    raise SystemExit(main())
