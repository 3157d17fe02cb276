"""Command-line front end for the verification suite.

Each command is a thin shell around one structure-module operation, and
``COMMANDS`` is the one table of them: where each hangs (``validate``,
``verify <claim>``, ``probe simplicity``), the function that runs it, the
flags it reads beyond ``--algebra``, ``--n`` and ``--json``, and its
defaults.  ``FLAGS`` gives each flag's value converter and help.  ``parse``
reads a command line from these two tables alone: it walks the words down
``COMMANDS`` to a command, then takes that command's flags by their exact
names, as ``--flag value`` or ``--flag=value``, and rejects any other word;
``--help`` is rendered from the same tables.  Given the same arguments the
emitted report is byte-identical across runs.  Exit status: 0 when the
claim passes, 1 when a claim check fails, 2 on usage or input errors.
"""

from __future__ import annotations

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


def _resolve_algebra(args: Args) -> LieAlgebra:
    if args.n is not None and args.algebra != "heisenberg":
        raise UsageError("--n applies only to --algebra heisenberg")
    if args.algebra in ("sl2r", "so3"):
        return builtin(args.algebra)
    if args.algebra == "heisenberg":
        return builtin("heisenberg", args.n if args.n is not None else 1)
    path = Path(args.algebra)
    if not path.exists():
        raise UsageError(f"'{args.algebra}' is not a built-in algebra (sl2r, so3, heisenberg) or a readable file")
    return load_algebra(path)


def _resolve_orbit(args: Args, algebra: LieAlgebra) -> OrbitDescriptor:
    if args.relation is not None:
        relation = parse_polynomial(args.relation, algebra.names)
        return make_orbit(algebra, relation, orbit_type=args.orbit_type)
    if args.casimir is not None:
        try:
            level = Fraction(args.casimir)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"--casimir expects a rational like 1 or -3/2, got '{args.casimir}'")
        return casimir_orbit(algebra, level, orbit_type=args.orbit_type)
    raise UsageError("an orbit is required (--casimir <p/q> or --relation \"<expr>\")")


def _parse_generators(args: Args, algebra: LieAlgebra):
    if not args.gen:
        raise UsageError("at least one --gen \"<expr>\" is required")
    return [parse_polynomial(text, algebra.names) for text in args.gen]


def _validate(args: Args) -> VerificationReport:
    algebra = _resolve_algebra(args)
    report = VerificationReport(
        "validate",
        {"algebra": args.algebra, "dim": algebra.dim, "basis": list(algebra.names)},
    )
    result = validate(algebra)
    for v in result.violations:
        report.records.append({"check": v.kind, "indices": list(v.indices), "detail": v.detail, "verdict": "fail"})
    report.records.append(
        {"check": "axioms", "violations": len(result.violations),
         "verdict": "pass" if result.ok else "fail"}
    )
    if result.ok:  # is_semisimple's rank test on the matrix reported, without validating again
        killing = killing_form(algebra)
        matrix = [[str(a) for a in row] for row in killing]
        semisimple = nondegenerate([{j: a for j, a in enumerate(row) if a} for row in killing])
        report.records.append(
            {"check": "killing_form", "semisimple": semisimple, "matrix": matrix, "verdict": "pass"}
        )
    return report


def _orbit(args: Args) -> OrbitDescriptor:
    return _resolve_orbit(args, _resolve_algebra(args))


def _lemma(args: Args) -> VerificationReport:
    algebra = _resolve_algebra(args)
    gens = _parse_generators(args, algebra)
    if args.casimir is not None or args.relation is not None:
        ctx = _resolve_orbit(args, algebra).context
    else:
        ctx = PoissonContext.free(algebra)
    return structure.ideal_square_check(ctx, gens, args.max_degree)


def _simplicity(args: Args) -> VerificationReport:
    algebra = _resolve_algebra(args)
    orbit = _resolve_orbit(args, algebra)
    return structure.simplicity_probe(orbit, _parse_generators(args, algebra), args.max_degree)


def _non_negative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"expects a non-negative integer, got '{text}'")
    return value


def _orbit_type(text: str) -> OrbitType:
    try:
        return OrbitType(text)
    except ValueError:
        choices = ", ".join(t.value for t in OrbitType)
        raise ValueError(f"expects one of {choices}, got '{text}'") from None


# flag: (converter of its value, help).  --json takes no value; --gen appends
# and every other flag keeps its last value.
FLAGS = {
    "--algebra": (str, "built-in algebra name (sl2r, so3, heisenberg) or a JSON definition file"),
    "--n": (_non_negative, "Heisenberg size (dimension 2n+1)"),
    "--casimir": (str, "orbit level c: relation = (built-in Casimir) - c"),
    "--relation": (str, "orbit relation as a polynomial expression"),
    "--max-degree": (_non_negative, "degree or source bound for the checks"),
    "--gen": (str, "generator polynomial (repeatable)"),
    "--k": (_non_negative, "lowest degree of the homogeneous ideal (default 1)"),
    "--orbit-type": (_orbit_type, "override the orbit classification"),
    "--json": (None, "emit the report as JSON"),
}
ORBIT = ("--casimir", "--relation")  # mutually exclusive

# name: (parent, help, run, flags read beyond --algebra/--n/--json, defaults).
# "verify" and "probe" group the commands under them and run nothing.
# Defaults: max_degree; casimir, the orbit level when neither --casimir nor
# --relation is given; k; algebra, the only algebra the command accepts.
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
                         (*ORBIT, "--max-degree", "--k"), {"max_degree": 4, "casimir": "0", "k": 1}),
    "nonexact": ("verify", "bounded infeasibility of 1 = {x,f}+{y,g}+{z,h}",
                 lambda a: structure.nonexactness_check(_orbit(a), a.max_degree),
                 (*ORBIT, "--max-degree"), {"max_degree": 4, "casimir": "1"}),
    "lemma": ("verify", "strictness of the ideal square", _lemma,
              (*ORBIT, "--max-degree", "--gen"), {"max_degree": 4}),
    "probe": (None, "run an exploratory probe", None, (), {}),
    "simplicity": ("probe", "closures of trial generators on an orbit", _simplicity,
                   (*ORBIT, "--max-degree", "--gen", "--orbit-type"), {"max_degree": 4}),
}
HELP = ("-h", "--help")


def _attribute(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _children(name: str | None) -> list[str]:
    return [child for child, row in COMMANDS.items() if row[0] == name]


def _flags(name: str) -> tuple[str, ...]:
    return ("--algebra", "--n", *COMMANDS[name][3], "--json")


class Args:
    """A parsed command line: ``run``, the function of its command, and one
    attribute per flag of FLAGS, named after it (``--max-degree`` is
    ``max_degree``), holding its value, else the command's default, else
    None."""

    def __init__(self, run, defaults: dict):
        self.__dict__.update(dict.fromkeys(map(_attribute, FLAGS)), run=run, **defaults)


def parse(argv: list[str]) -> Args:
    """Walk argv down COMMANDS to a command, then read that command's flags
    by their exact names, as ``--flag value`` or ``--flag=value``; the value
    word is taken as given, even when it starts with '-'.  Raises UsageError
    on any word it cannot read; -h/--help prints the help of the command or
    group reached so far and raises SystemExit(0)."""
    name, i = None, 0
    while children := _children(name):
        word = argv[i] if i < len(argv) else None
        if word in HELP:
            _exit_with_help(argv[:i], name)
        if word not in children:
            choices = ", ".join(children)
            if word is None:
                raise UsageError(f"a command is required (choose from {choices})")
            raise UsageError(f"unknown command '{word}' (choose from {choices})")
        name, i = word, i + 1
    path = argv[:i]
    _, _, runner, _, defaults = COMMANDS[name]
    accepted = _flags(name)
    args = Args(runner, defaults)
    given = set()
    while i < len(argv):
        word = argv[i]
        i += 1
        if word in HELP:
            _exit_with_help(path, name)
        flag, eq, value = word.partition("=")
        if flag not in accepted:
            if flag in FLAGS:
                raise UsageError(f"{' '.join(path)} does not read {flag}")
            raise UsageError(f"unrecognized argument '{word}'")
        convert = FLAGS[flag][0]
        if convert is None:
            if eq:
                raise UsageError(f"{flag} takes no value")
            value = True
        else:
            if not eq:
                if i == len(argv):
                    raise UsageError(f"{flag} expects a value")
                value = argv[i]
                i += 1
            try:
                value = convert(value)
            except ValueError as exc:
                raise UsageError(f"{flag}: {exc}") from None
            if flag == "--gen":
                value = [*(args.gen or ()), value]
        setattr(args, _attribute(flag), value)
        given.add(flag)
    if given.issuperset(ORBIT):
        raise UsageError(f"{ORBIT[0]} and {ORBIT[1]} exclude each other")
    if args.algebra is None:
        raise UsageError("--algebra is required")
    fixed = defaults.get("algebra")
    if fixed is not None and args.algebra != fixed:
        raise UsageError(f"{' '.join(path)} reads only --algebra {fixed}, got '{args.algebra}'")
    return args


def _help(path: list[str], name: str | None) -> str:
    """The help of a group (its sub-commands) or of a command (its flags)."""
    prog = " ".join(["liepoisson", *path])
    options = [("-h, --help", "show this help message and exit")]
    children = _children(name)
    if children:
        usage = [f"{{{','.join(children)}}} ..."]
        sections = [("commands", [(child, COMMANDS[child][1]) for child in children])]
    else:
        defaults = COMMANDS[name][4]
        usage, sections = [], []
        for flag in _flags(name):
            convert, text = FLAGS[flag]
            spelled = flag if convert is None else f"{flag} {_attribute(flag).upper()}"
            options.append((spelled, text))
            if flag == ORBIT[1]:  # joins the bracket of --casimir, which precedes it
                usage[-1] = f"{usage[-1][:-1]} | {spelled}]"
            elif flag == "--algebra" and "algebra" not in defaults:
                usage.append(spelled)
            else:
                usage.append(f"[{spelled}]")
    sections.append(("options", options))
    summary = (COMMANDS[name][1] if name else
               "Exact degreewise verification of polynomial Poisson algebra structure on coadjoint orbits.")
    lines = [f"usage: {prog} [-h] {' '.join(usage)}", "", summary]
    for heading, rows in sections:
        width = max(len(left) for left, _ in rows) + 2
        lines += ["", f"{heading}:", *(f"  {left:<{width}}{right}" for left, right in rows)]
    return "\n".join(lines) + "\n"


def _exit_with_help(path: list[str], name: str | None):
    sys.stdout.write(_help(path, name))
    raise SystemExit(EXIT_PASS)


def run(argv: list[str] | None = None) -> tuple[int, str]:
    """Parse argv (default: sys.argv[1:]) and run its command; returns
    (exit status, report text).  -h/--help prints the help to stdout and
    raises SystemExit(0)."""
    try:
        args = parse(sys.argv[1:] if argv is None else argv)
        report = args.run(args)
    except (ValueError, OSError) as exc:  # UsageError and every input error are ValueErrors
        return EXIT_USAGE, f"error: {exc}\n"
    output = report.to_json() if args.json else report.render_text()
    return (EXIT_PASS if report.passed else EXIT_FAIL), output


def main(argv: list[str] | None = None) -> int:
    status, output = run(argv)
    print(output, end="", file=sys.stderr if status == EXIT_USAGE else sys.stdout)
    return status


def console_main() -> None:  # pragma: no cover
    raise SystemExit(main())
