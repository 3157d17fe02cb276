"""Child process of the benchmark: one set-up, one batch, or one traced CLI run.

Usage (from the root of a checkout, with ``src`` on PYTHONPATH)::

    python perfbench/child.py [--clock] setup '<spec json>'
    python perfbench/child.py [--clock] batch '<spec json>' <triples.json> <key> [--trace-out F]
    python perfbench/child.py [--clock] cli [--trace-out F] -- <liepoisson arguments>

``setup`` imports the package, builds an operation's algebra and context,
and reports how long the algebra and the context took.  ``batch`` checks the Jacobi
and both Leibniz defects of each triple and prints how many were nonzero.
``cli`` runs the package's ``__main__`` module through ``runpy``, which is
what ``python -m liepoisson`` does.  The layer wrappers of ``spans.py`` are
imported only when ``--trace-out`` is given, so an untraced child runs the
package unmodified.

``--clock`` starts the host-speed clock of ``clock.py`` before the package
is imported.  Such a child writes ``clock_dts=<json list>``, its probe
times, to standard error when it exits, and a batch also reports its time
in reference seconds.

Every child writes ``peak_rss_kb=<n>`` as the last line of its standard
error when it exits: the peak resident set of its own image.  The parent
cannot take this from ``wait4``, because Linux carries the parent's peak
into the child's ``ru_maxrss`` across ``exec``.
"""

from __future__ import annotations

import atexit
import json
import runpy
import sys
from fractions import Fraction
from time import perf_counter

from clock import Clock


def build(spec: dict):
    """Algebra and context as the CLI builds them; returns (context, load_s, make_s)."""
    from liepoisson import PoissonContext, builtin, casimir_orbit, load_algebra

    t0 = perf_counter()
    name = spec["algebra"]
    if name in ("sl2r", "so3"):
        algebra = builtin(name)
    elif name == "heisenberg":
        algebra = builtin(name, spec["n"])
    else:
        algebra = load_algebra(name)
    t1 = perf_counter()
    if spec["casimir"] is None:
        ctx = PoissonContext.free(algebra)
    else:
        ctx = casimir_orbit(algebra, Fraction(spec["casimir"])).context
    t2 = perf_counter()
    return ctx, t1 - t0, t2 - t1


def check_triples(ctx, triples: list) -> int:
    """Number of triples with a nonzero Jacobi or Leibniz defect."""
    from liepoisson import Polynomial, jacobi_defect, leibniz_defect

    def poly(terms):
        return Polynomial(ctx.nvars, {tuple(m): Fraction(c) for m, c in terms})

    bad = 0
    for f, g, h in triples:
        f, g, h = poly(f), poly(g), poly(h)
        product_rule, symmetrized = leibniz_defect(ctx, f, g, h)
        if jacobi_defect(ctx, f, g, h) or product_rule or symmetrized:
            bad += 1
    return bad


def _trace_out(argv: list[str]) -> tuple[list[str], str | None]:
    if "--trace-out" in argv:
        i = argv.index("--trace-out")
        return argv[:i] + argv[i + 2:], argv[i + 1]
    return argv, None


def _report(clock: Clock | None) -> None:
    if clock is not None:
        clock.stop()
        print(f"clock_dts={json.dumps(clock.dt)}", file=sys.stderr)
    with open("/proc/self/status", encoding="ascii") as fh:
        peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    print(f"peak_rss_kb={peak}", file=sys.stderr)


def _start_tracer():
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    return tracer


def main(argv: list[str], clock: Clock | None = None) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        rest, out = _trace_out(rest)
        if rest[:1] != ["--"]:
            raise SystemExit("usage: child.py cli [--trace-out FILE] -- <liepoisson arguments>")
        tracer = _start_tracer() if out is not None else None
        sys.argv = ["liepoisson", *rest[1:]]
        try:
            runpy.run_module("liepoisson", run_name="__main__", alter_sys=True)
        finally:
            sys.stdout.flush()
            if tracer is not None:
                tracer.dump(out)
        return 0

    import liepoisson

    if mode == "setup":
        _, load_s, make_s = build(json.loads(rest[0]))
        print(json.dumps({"load_s": load_s, "make_s": make_s, "package": liepoisson.__file__}))
        return 0
    if mode == "batch":
        rest, out = _trace_out(rest)
        spec, path, key = json.loads(rest[0]), rest[1], rest[2]
        with open(path, encoding="utf-8") as fh:
            triples = json.load(fh)[key]
        ctx, _, _ = build(spec)
        tracer = _start_tracer() if out is not None else None
        t0 = perf_counter()
        bad = check_triples(ctx, triples)
        t1 = perf_counter()
        if tracer is not None:
            tracer.dump(out)
        batch_ref_s = clock.reference_seconds(t0, t1) if clock is not None else t1 - t0
        print(json.dumps({"batch_s": t1 - t0, "batch_ref_s": batch_ref_s,
                          "checked": len(triples), "nonzero_defects": bad}))
        return 0
    raise SystemExit(f"unknown mode '{mode}'")


if __name__ == "__main__":
    args = sys.argv[1:]
    clock = None
    if args[:1] == ["--clock"]:
        args = args[1:]
        clock = Clock()
        clock.start()
    atexit.register(_report, clock)
    sys.exit(main(args, clock))
