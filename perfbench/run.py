"""End-to-end benchmark of liepoisson.

Run from the root of a checkout::

    python3 perfbench/run.py --workload span-claims --seed 0 --seconds 30 --trace 0

This process is single-threaded and runs one child process at a time, each
with the checkout's ``src`` on PYTHONPATH: a CLI claim runs the package's
``__main__`` as ``python -m liepoisson ... --json`` does, a bracket-axiom
batch runs ``child.py batch``.  Nothing of the package is imported here.

``--trace 0`` runs rounds until ``--seconds`` have passed; each round runs
every distinct set-up (import plus algebra and context) once, then every
operation once.  Its children run the host-speed clock of ``clock.py``, and
it reports the end-to-end metrics in reference seconds, each the median of
its samples.  ``--trace 1`` runs
every operation once untraced and once with the layer wrappers of
``spans.py``, and reports the per-layer metrics and the tracing overhead.
Every output is checked against theory and, where recorded, against
``golden.json``.  The last line of standard output is one JSON object with
the result; a run that cannot finish exits 2 without it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import clock
import measure
import workloads
from workloads import DEFAULT_SEED, Operation, Setup

HERE = Path(__file__).resolve().parent
WORKDIR = Path(".perfbench_work")
TRACE_SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0
# A CLI claim's time to verdict is its process's time minus its set-up's;
# the floor keeps the geometric mean defined should a claim become faster
# than the noise in its set-up.
MIN_VERDICT_S = 1e-3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_s.geomean": "s",
    "verdict_s.max": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "poly.mul.calls": "count",
    "poly.mul.self_s": "s",
    "orbit.reduce.calls": "count",
    "orbit.reduce.self_s": "s",
    "orbit.reduce.terms_in": "count",
    "poisson.bracket.calls": "count",
    "poisson.bracket.self_s": "s",
    "poisson.bracket.nonzero_frac": "ratio",
    "linalg.insert.calls": "count",
    "linalg.insert.self_s": "s",
    "linalg.insert.accept_frac": "ratio",
    "linalg.insert.width_mean": "columns",
    "linalg.insert.nnz_mean": "count",
    "linalg.contains.calls": "count",
    "linalg.contains.self_s": "s",
    "linalg.solve.self_s": "s",
    "linalg.solve.cells": "count",
    "linalg.nullspace.self_s": "s",
    "linalg.nullspace.cells": "count",
    "linalg.intersection.self_s": "s",
    "linalg.reduced_rows.self_s": "s",
    "linalg.reduce_vector.self_s": "s",
    "linalg.max_bits": "bits",
    "structure.derived_membership.calls": "count",
    "structure.derived_membership.self_s": "s",
    "structure.derived_span.self_s": "s",
    "structure.invariants_basis.self_s": "s",
    "structure.poisson_ideal_closure.self_s": "s",
    "liealg.load_s": "s",
    "orbit.make_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (bad checkout, child crash, time limit)."""


@dataclass
class ChildResult:
    wall: float
    status: int
    rss_mb: float
    out: bytes
    # Process time in reference seconds; the wall time when the child ran no clock.
    ref: float = 0.0


class Runner:
    """Starts one child at a time from the checkout root and reaps it."""

    def __init__(self, root: Path, deadline: float, clocked: bool = False):
        self.root = root
        self.deadline = deadline
        self.clocked = clocked
        # Byte code is cached as in an installed package; the warm-up fills the cache.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env = dict(env, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.peak_rss_mb = 0.0

    def run(self, argv: list[str], stderr_name: str) -> ChildResult:
        err_path = WORKDIR / f"{stderr_name}.stderr"
        with open(err_path, "wb") as err:
            t0 = perf_counter()
            if self.clocked:
                argv = [argv[0], "--clock", *argv[1:]]
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.root, env=self.env,
                                    stdout=subprocess.PIPE, stderr=err)
            try:
                out = self._read_all(proc)
                proc.wait()
                wall = perf_counter() - t0
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
        lines = err_path.read_text(encoding="utf-8", errors="replace").splitlines()
        rss_mb = int(lines[-1].partition("=")[2]) / 1024 if lines and lines[-1].startswith("peak_rss_kb=") else 0.0
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
        ref = wall
        if self.clocked:
            dts = next((json.loads(line.partition("=")[2]) for line in reversed(lines)
                        if line.startswith("clock_dts=")), None)
            if dts is None:
                raise BenchError(f"child {stderr_name} exited {proc.returncode} without its clock")
            ref = measure.reference_seconds(wall, dts, clock.REF_PROBE_S)
        return ChildResult(wall, proc.returncode, rss_mb, out, ref)

    def _read_all(self, proc: subprocess.Popen) -> bytes:
        fd = proc.stdout.fileno()
        chunks = []
        while True:
            remaining = self.deadline - perf_counter()
            if remaining <= 0:
                raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s; stopped pid {proc.pid}")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    return b"".join(chunks)
                chunks.append(chunk)

    def setup(self, setup: Setup, inputs: workloads.Inputs) -> tuple[ChildResult, dict]:
        res = self.run([str(HERE / "child.py"), "setup", json.dumps(setup.spec(inputs))], f"setup-{setup.key}")
        if res.status != 0:
            raise BenchError(f"set-up {setup.key} exited {res.status}; see {WORKDIR}/setup-{setup.key}.stderr")
        info = json.loads(res.out)
        package = Path(info["package"]).resolve()
        if self.root / "src" not in package.parents:
            raise BenchError(f"liepoisson was imported from {package}, not from this checkout")
        return res, info

    def operation(self, op: Operation, inputs: workloads.Inputs, trace_out: Path | None = None) -> ChildResult:
        trace = ["--trace-out", str(trace_out)] if trace_out is not None else []
        if op.is_cli:
            argv = [str(HERE / "child.py"), "cli", *trace, "--", *op.cli, "--json"]
        else:
            argv = [str(HERE / "child.py"), "batch", json.dumps(op.setup.spec(inputs)),
                    str(inputs.triples_path), op.setup.key, *trace]
        return self.run(argv, op.name)


def check(op: Operation, res: ChildResult, inputs: workloads.Inputs, golden: dict) -> str | None:
    """Why the operation's output is wrong, or None when it is right."""
    if res.status != op.expect_exit:
        return f"exit {res.status}, expected {op.expect_exit}"
    try:
        payload = json.loads(res.out)
    except json.JSONDecodeError:
        return "output is not JSON"
    if not op.is_cli:
        if payload["checked"] != op.batch:
            return f"checked {payload['checked']} triples, expected {op.batch}"
        if payload["nonzero_defects"]:
            return f"{payload['nonzero_defects']} triples with a nonzero defect"
        return None
    if payload.get("verdict") != op.expect_verdict:
        return f"verdict {payload.get('verdict')}, expected {op.expect_verdict}"
    if op.witness and not any("witness" in r for r in payload["records"]):
        return "failing report carries no witness"
    if op.same_dims_as is not None:
        dims = [r["dims"] for r in payload["records"]]
        if dims != golden["dims"][op.same_dims_as]:
            return f"per-degree dims differ from {op.same_dims_as}"
    if not op.seeded or inputs.seed == DEFAULT_SEED:
        digest = hashlib.sha256(res.out).hexdigest()
        if digest != golden["sha256"][op.name]:
            return f"report SHA-256 {digest[:16]} differs from golden.json"
    return None


class Run:
    """One benchmark run: its operations, children and failure count."""

    def __init__(self, runner: Runner, ops: list[Operation], inputs: workloads.Inputs, golden: dict):
        self.runner, self.ops, self.inputs, self.golden = runner, ops, inputs, golden
        self.attempted = 0
        self.failed = 0
        self.rows: list[str] = []

    def sample_setups(self, samples: dict[str, dict[str, list[float]]]) -> None:
        """Run each distinct set-up once, appending its process, load and make times."""
        for setup in {op.setup.key: op.setup for op in self.ops}.values():
            res, info = self.runner.setup(setup, self.inputs)
            d = samples.setdefault(setup.key, {"process": [], "load_s": [], "make_s": []})
            d["process"].append(res.ref)
            d["load_s"].append(info["load_s"])
            d["make_s"].append(info["make_s"])

    def execute(self, op: Operation, trace_out: Path | None = None) -> ChildResult:
        res = self.runner.operation(op, self.inputs, trace_out)
        self.attempted += 1
        reason = check(op, res, self.inputs, self.golden)
        if reason is not None:
            self.failed += 1
            print(f"FAILED {op.name}: {reason}", file=sys.stderr)
        return res

    def timed(self, seconds: float) -> dict[str, float]:
        """End-to-end metrics from operations run round-robin for ``seconds``.

        Each round runs every distinct set-up once, then every operation.
        Every time is in reference seconds (``clock.py``) and is the median
        of its samples: a set-up's process time; for a CLI claim, the
        process time minus the set-up of the same kind; for a batch, the
        batch time the child measured.
        """
        setup: dict[str, dict[str, list[float]]] = {}
        samples: dict[str, list[float]] = {op.name: [] for op in self.ops}
        walls: dict[str, list[float]] = {op.name: [] for op in self.ops}
        rss: dict[str, float] = {op.name: 0.0 for op in self.ops}
        start = perf_counter()
        k = 0
        while k < len(self.ops) or perf_counter() - start < seconds:
            if k % len(self.ops) == 0:
                self.sample_setups(setup)
            op = self.ops[k % len(self.ops)]
            res = self.execute(op)
            batch = not op.is_cli and res.status == 0
            samples[op.name].append(json.loads(res.out)["batch_ref_s"] if batch else res.ref)
            walls[op.name].append(res.wall)
            rss[op.name] = max(rss[op.name], res.rss_mb)
            k += 1
        setup_s = {key: statistics.median(d["process"]) for key, d in setup.items()}
        verdict: dict[str, float] = {}
        for op in self.ops:
            v = samples[op.name]
            floor = setup_s[op.setup.key] if op.is_cli else 0.0
            verdict[op.name] = max(statistics.median(v) - floor, MIN_VERDICT_S)
            self.rows.append(
                f"op {op.name:<24} n={len(v)} verdict_s={verdict[op.name]:.4f} "
                f"sample_s min={min(v):.4f} median={statistics.median(v):.4f} max={max(v):.4f} "
                f"wall_s median={statistics.median(walls[op.name]):.4f} "
                f"setup_s={floor:.4f} rss_mb={rss[op.name]:.1f}"
            )
        return {
            "setup_s": sum(setup_s[op.setup.key] for op in self.ops),
            "wall_s": sum(verdict.values()),
            "verdict_s.geomean": measure.geomean(list(verdict.values())),
            "verdict_s.max": max(verdict.values()),
            "peak_rss_mb": self.runner.peak_rss_mb,
        }

    def traced(self) -> dict[str, float]:
        setup: dict[str, dict[str, list[float]]] = {}
        for _ in range(TRACE_SETUP_REPEATS):
            self.sample_setups(setup)
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        counts: dict[str, int] = {}
        untraced_s = traced_s = 0.0
        for op in self.ops:
            # Each traced execution follows an untraced one of the same
            # operation, so that the two see the same machine state.
            untraced_s += self.execute(op).wall
            path = WORKDIR / f"trace-{op.name}.json"
            path.unlink(missing_ok=True)
            res = self.execute(op, path)
            traced_s += res.wall
            if not path.exists():
                raise BenchError(f"traced {op.name} exited {res.status} without a trace")
            with open(path, encoding="utf-8") as fh:
                trace = json.load(fh)
            for name, (n, t) in measure.layer_totals(trace).items():
                calls[name] = calls.get(name, 0) + n
                self_s[name] = self_s.get(name, 0.0) + t
            for name, v in trace["counts"].items():
                counts[name] = max(counts.get(name, 0), v) if name == "linalg.max_bits" else counts.get(name, 0) + v
            self.rows.append(f"traced {op.name:<22} wall_s={res.wall:.4f} spans={len(trace['name'])}")
        n_insert = calls.get("linalg.insert", 0)
        metrics = {}
        for name in PER_LAYER:
            layer, _, stat = name.rpartition(".")
            if stat == "calls":
                metrics[name] = calls.get(layer, 0)
            elif stat == "self_s":
                metrics[name] = self_s.get(layer, 0.0)
        metrics.update({
            "orbit.reduce.terms_in": counts.get("orbit.reduce.terms_in", 0),
            "poisson.bracket.nonzero_frac": measure.ratio(
                counts.get("poisson.bracket.nonzero", 0), calls.get("poisson.bracket", 0)),
            "linalg.insert.accept_frac": measure.ratio(counts.get("linalg.insert.accepted", 0), n_insert),
            "linalg.insert.width_mean": measure.ratio(counts.get("linalg.insert.width", 0), n_insert),
            "linalg.insert.nnz_mean": measure.ratio(counts.get("linalg.insert.nnz", 0), n_insert),
            "linalg.solve.cells": counts.get("linalg.solve.cells", 0),
            "linalg.nullspace.cells": counts.get("linalg.nullspace.cells", 0),
            "linalg.max_bits": counts.get("linalg.max_bits", 0),
            "liealg.load_s": sum(statistics.median(setup[op.setup.key]["load_s"]) for op in self.ops),
            "orbit.make_s": sum(statistics.median(setup[op.setup.key]["make_s"]) for op in self.ops),
            "trace.overhead_s": traced_s - untraced_s,
        })
        self.rows.append(f"untraced wall_s={untraced_s:.4f} traced wall_s={traced_s:.4f}")
        return {name: metrics[name] for name in PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "liepoisson" / "__init__.py").is_file():
        print(f"error: {root} holds no src/liepoisson; run from the root of a liepoisson checkout",
              file=sys.stderr)
        return 2
    with open(HERE / "golden.json", encoding="utf-8") as fh:
        golden = json.load(fh)
    inputs = workloads.generate(args.seed, WORKDIR)
    ops = workloads.operations(args.workload, inputs)
    runner = Runner(root, perf_counter() + RUN_LIMIT_S, clocked=not args.trace)
    run = Run(runner, ops, inputs, golden)
    try:
        runner.setup(ops[0].setup, inputs)  # warm-up: writes the byte code cache
        metrics = run.traced() if args.trace else run.timed(args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    units = PER_LAYER if args.trace else END_TO_END
    for row in run.rows:
        print(row)
    for name, value in metrics.items():
        print(f"metric {name} = {value} {units[name]}")
    print(f"metric failed_frac = {measure.failed_frac(run.failed, run.attempted)} ratio "
          f"({run.failed} of {run.attempted} operations)")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
