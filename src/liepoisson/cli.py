"""Command-line front end for the verification suite.

Each subcommand is a thin shell around one structure-module operation;
given the same configuration the emitted report is byte-identical across
runs.  Exit status: 0 when the claim passes, 1 when a claim check fails,
2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import structure
from .liealg import (
    InvalidLieAlgebraError,
    LieAlgebra,
    LieAlgebraFormatError,
    builtin,
    is_semisimple,
    killing_form,
    load_algebra,
    validate,
)
from .orbit import OrbitDescriptor, OrbitType, casimir_orbit, make_orbit
from .poisson import BracketClosureError, PoissonContext
from .poly import PolynomialSyntaxError, parse_polynomial
from .structure import VerificationReport

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

VERIFY_CLAIMS = ("prop1", "thm2", "heisenberg", "nilpotent-ideals", "nonexact", "lemma")

DEFAULT_DEGREES = {
    "prop1": 4,
    "thm2": 5,
    "heisenberg": 2,
    "nilpotent-ideals": 4,
    "nonexact": 4,
    "lemma": 4,
    "simplicity": 4,
}

# Casimir level of the orbit a claim runs on when neither --casimir nor --relation is given.
DEFAULT_LEVELS = {"heisenberg": "1", "nilpotent-ideals": "0", "nonexact": "1"}


class UsageError(ValueError):
    pass


class RunConfig:
    """One verification run; reports are a pure function of this value."""

    def __init__(
        self,
        command: str,
        claim: str | None = None,
        algebra: str | None = None,
        size: int | None = None,
        casimir: str | None = None,
        relation: str | None = None,
        max_degree: int | None = None,
        k: int | None = None,
        generators: list[str] | None = None,
        orbit_type: str | None = None,
        json_output: bool = False,
    ):
        if max_degree is not None and max_degree < 0:
            raise UsageError("--max-degree must be non-negative")
        if casimir is not None and relation is not None:
            raise UsageError("give either --casimir or --relation, not both")
        self.command = command
        self.claim = claim
        self.algebra = algebra
        self.size = size
        self.casimir = casimir
        self.relation = relation
        self.max_degree = max_degree
        self.k = k
        self.generators = [] if generators is None else generators
        self.orbit_type = orbit_type
        self.json_output = json_output

    def __eq__(self, other) -> bool:
        if type(other) is not RunConfig:
            return NotImplemented
        return vars(self) == vars(other)


def _resolve_algebra(config: RunConfig) -> LieAlgebra:
    if config.algebra is None:
        raise UsageError("an algebra is required (--algebra <name|path>)")
    if config.size is not None and config.algebra != "heisenberg":
        raise UsageError("--n applies only to --algebra heisenberg")
    if config.algebra in ("sl2r", "so3"):
        return builtin(config.algebra)
    if config.algebra == "heisenberg":
        return builtin("heisenberg", config.size if config.size is not None else 1)
    path = Path(config.algebra)
    if not path.exists():
        raise UsageError(
            f"'{config.algebra}' is not a built-in algebra (sl2r, so3, heisenberg) or a readable file"
        )
    return load_algebra(path)


def _resolve_orbit(config: RunConfig, algebra: LieAlgebra) -> OrbitDescriptor:
    override = OrbitType(config.orbit_type) if config.orbit_type else None
    if config.relation is not None:
        relation = parse_polynomial(config.relation, algebra.names)
        return make_orbit(algebra, relation, orbit_type=override)
    casimir = config.casimir if config.casimir is not None else DEFAULT_LEVELS.get(config.claim)
    if casimir is not None:
        try:
            level = Fraction(casimir)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"--casimir expects a rational like 1 or -3/2, got '{casimir}'")
        return casimir_orbit(algebra, level, orbit_type=override)
    raise UsageError("an orbit is required (--casimir <p/q> or --relation \"<expr>\")")


def _reject_ignored_flags(config: RunConfig) -> None:
    """Raise on a flag the chosen command would otherwise silently ignore."""
    name = config.claim or config.command
    if name in ("validate", "prop1"):
        for flag, value in (("--casimir", config.casimir), ("--relation", config.relation)):
            if value is not None:
                raise UsageError(f"{flag} does not apply to {name}: it has no orbit")
    if config.orbit_type is not None and name not in ("thm2", "simplicity"):
        raise UsageError(f"--orbit-type does not apply to {name}")
    if config.generators and name not in ("lemma", "simplicity"):
        raise UsageError(f"--gen does not apply to {name}")
    if config.k is not None and name != "nilpotent-ideals":
        raise UsageError(f"--k does not apply to {name}")


def _degree(config: RunConfig) -> int:
    if config.max_degree is not None:
        return config.max_degree
    return DEFAULT_DEGREES[config.claim or config.command]


def _parse_generators(config: RunConfig, algebra: LieAlgebra):
    if not config.generators:
        raise UsageError("at least one --gen \"<expr>\" is required")
    return [parse_polynomial(text, algebra.names) for text in config.generators]


def _validate_report(algebra: LieAlgebra, config: RunConfig) -> VerificationReport:
    report = VerificationReport(
        "validate",
        {"algebra": config.algebra, "dim": algebra.dim, "basis": list(algebra.names)},
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
    if result.ok:
        killing = killing_form(algebra)
        report.records.append(
            {
                "check": "killing_form",
                "semisimple": is_semisimple(algebra),
                "matrix": [[str(a) for a in row] for row in killing],
                "verdict": "pass",
            }
        )
    return report


def run(config: RunConfig) -> tuple[int, str]:
    """Execute a run configuration; returns (exit status, report text)."""
    try:
        _reject_ignored_flags(config)
        if config.command == "validate":
            algebra = _resolve_algebra(config)
            report = _validate_report(algebra, config)
        elif config.command == "verify":
            report = _run_verify(config)
        elif config.command == "probe":
            algebra = _resolve_algebra(config)
            orbit = _resolve_orbit(config, algebra)
            trials = _parse_generators(config, algebra)
            report = structure.simplicity_probe(orbit, trials, _degree(config))
        else:
            raise UsageError(f"unknown command '{config.command}'")
    except (
        UsageError,
        PolynomialSyntaxError,
        LieAlgebraFormatError,
        InvalidLieAlgebraError,
        BracketClosureError,
        ValueError,
        OSError,
    ) as exc:
        return EXIT_USAGE, f"error: {exc}\n"
    output = report.to_json() if config.json_output else report.render_text()
    return (EXIT_PASS if report.passed else EXIT_FAIL), output


def _run_verify(config: RunConfig) -> VerificationReport:
    claim = config.claim
    if claim == "prop1":
        algebra = _resolve_algebra(config)
        return structure.verify_prop1(algebra, _degree(config))
    if claim == "thm2":
        algebra = _resolve_algebra(config)
        orbit = _resolve_orbit(config, algebra)
        return structure.verify_thm2(orbit, _degree(config))
    if claim == "heisenberg":
        if config.algebra not in (None, "heisenberg"):
            raise UsageError("verify heisenberg runs on the heisenberg algebra")
        algebra = builtin("heisenberg", config.size if config.size is not None else 1)
        orbit = _resolve_orbit(config, algebra)
        return structure.verify_heisenberg(orbit, _degree(config))
    if claim == "nilpotent-ideals":
        orbit = _resolve_orbit(config, _resolve_algebra(config))
        return structure.verify_homogeneous_ideals(orbit, 1 if config.k is None else config.k, _degree(config))
    if claim == "nonexact":
        orbit = _resolve_orbit(config, _resolve_algebra(config))
        return structure.nonexactness_check(orbit, _degree(config))
    if claim == "lemma":
        algebra = _resolve_algebra(config)
        gens = _parse_generators(config, algebra)
        if config.casimir is not None or config.relation is not None:
            ctx = _resolve_orbit(config, algebra).context
        else:
            ctx = PoissonContext.free(algebra)
        return structure.ideal_square_check(ctx, gens, _degree(config))
    raise UsageError(f"unknown verify claim '{claim}'")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--algebra", help="built-in algebra name (sl2r, so3, heisenberg) or a JSON definition file")
    parser.add_argument("--n", type=int, dest="size", help="Heisenberg size (dimension 2n+1)")
    parser.add_argument("--casimir", help="orbit level c: relation = (built-in Casimir) - c")
    parser.add_argument("--relation", help="orbit relation as a polynomial expression")
    parser.add_argument("--max-degree", type=int, help="degree or source bound for the checks")
    parser.add_argument("--gen", action="append", default=[], dest="generators", metavar="EXPR",
                        help="generator polynomial (repeatable)")
    parser.add_argument("--k", type=int, help="lowest degree of the homogeneous ideal (default 1)")
    parser.add_argument("--orbit-type", choices=[t.value for t in OrbitType],
                        help="override the orbit classification")
    parser.add_argument("--json", action="store_true", dest="json_output", help="emit the report as JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liepoisson",
        description="Exact degreewise verification of polynomial Poisson algebra structure on coadjoint orbits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check the bracket axioms and the Killing form")
    _add_common(p_validate)

    p_verify = sub.add_parser("verify", help="run a structure verification")
    p_verify.add_argument(
        "claim",
        choices=VERIFY_CLAIMS,
        help="prop1: center/bracket-span splitting of the free algebra; "
        "thm2: constants split off on an orbit; heisenberg: constants are "
        "bracket-reachable on the symplectic orbit; nilpotent-ideals: graded "
        "proper Poisson ideals on a cone; nonexact: bounded infeasibility of "
        "1 = {x,f}+{y,g}+{z,h}; lemma: strictness of the ideal square",
    )
    _add_common(p_verify)

    p_probe = sub.add_parser("probe", help="run an exploratory probe")
    p_probe.add_argument("kind", choices=["simplicity"], help="probe kind")
    _add_common(p_probe)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        claim=getattr(args, "claim", None) or getattr(args, "kind", None),
        algebra=args.algebra,
        size=args.size,
        casimir=args.casimir,
        relation=args.relation,
        max_degree=args.max_degree,
        k=args.k,
        generators=list(args.generators),
        orbit_type=args.orbit_type,
        json_output=args.json_output,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = config_from_args(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    status, output = run(config)
    stream = sys.stderr if status == EXIT_USAGE else sys.stdout
    print(output, end="", file=stream)
    return status


def console_main() -> None:  # pragma: no cover
    raise SystemExit(main())
