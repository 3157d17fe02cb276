"""Tests of the benchmark itself: metric arithmetic, inputs, checks and tracing.

Run from the root of the repository::

    python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import clock  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORK = ROOT / ".perfbench_work" / "test"


@pytest.fixture(scope="module")
def inputs():
    return workloads.generate(workloads.DEFAULT_SEED, WORK)


def test_geomean():
    assert measure.geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert measure.geomean([3.0, 3.0, 3.0]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        measure.geomean([1.0, 0.0])


def test_reference_seconds_scale_by_mean_speed():
    # Probes of 0.1 s at a reference of 0.05 s: half speed, after the 0.2 s of probing.
    assert measure.reference_seconds(1.0, [0.1, 0.1], 0.05) == pytest.approx(0.4)
    # Fast for half the span, half speed for the other half: mean speed 0.75.
    assert measure.reference_seconds(2.03, [0.01, 0.02], 0.01) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        measure.reference_seconds(1.0, [], 0.05)


def test_clock_samples_while_busy_and_stops():
    c = clock.Clock()
    c.start()
    t0 = perf_counter()
    while perf_counter() - t0 < 0.1:
        pass
    t1 = perf_counter()
    c.stop()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    inside = c.window(t0, t1)
    # Ten ticks fit in 0.1 s; the probes of start and stop fall outside.
    assert len(inside) >= 5 and len(c.dt) >= len(inside) + 2
    assert c.reference_seconds(t0, t1) > 0


def test_failed_frac():
    assert measure.failed_frac(0, 12) == 0.0
    assert measure.failed_frac(3, 12) == 0.25
    with pytest.raises(ValueError):
        measure.failed_frac(0, 0)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3].
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert measure.self_times(parent, start, end) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_layer_totals_sum_calls_and_self_time_per_name():
    trace = {
        "names": ["outer", "inner"],
        "name": [0, 1, 1],
        "parent": [-1, 0, 0],
        "start": [0.0, 1.0, 3.0],
        "end": [5.0, 2.0, 4.5],
    }
    totals = measure.layer_totals(trace)
    assert totals["outer"] == (1, pytest.approx(2.5))
    assert totals["inner"] == (2, pytest.approx(2.5))


def test_tracer_records_nesting_and_counts():
    tracer = spans.Tracer()

    def leaf(x):
        return x + 1

    wrapped_leaf = tracer.wrap("leaf", leaf, lambda counts, args, result: counts.update(seen=result))
    outer = tracer.wrap("outer", lambda: wrapped_leaf(1) + wrapped_leaf(2))
    assert outer() == 5
    assert [tracer.names[i] for i in tracer.name] == ["outer", "leaf", "leaf"]
    assert list(tracer.parent) == [-1, 0, 0]
    assert tracer.counts["seen"] == 5
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))


def test_inputs_repeat_for_a_seed_and_change_with_it(inputs):
    again = workloads.generate(workloads.DEFAULT_SEED, WORK / "again")
    other = workloads.generate(workloads.DEFAULT_SEED + 1, WORK / "other")
    assert (again.lemma_gen, again.probe_gens, again.rotation, again.triples) == (
        inputs.lemma_gen, inputs.probe_gens, inputs.rotation, inputs.triples)
    assert (other.lemma_gen, other.probe_gens, other.rotation) != (
        inputs.lemma_gen, inputs.probe_gens, inputs.rotation)


@pytest.mark.parametrize("seed", range(8))
def test_rotated_basis_is_sl2r_with_the_same_dims(seed):
    from liepoisson import builtin, lie_algebra_from_dict, validate, verify_prop1

    m = workloads._unimodular(random.Random(seed))
    rotated = lie_algebra_from_dict(workloads.rotated_sl2r(m))
    assert validate(rotated).ok
    dims = [r["dims"] for r in verify_prop1(rotated, 4).records]
    assert dims == [r["dims"] for r in verify_prop1(builtin("sl2r"), 4).records]


def test_linear_forms_have_full_support():
    rng = random.Random(5)
    for _ in range(20):
        form = workloads._linear_form(rng)
        assert all(name in form for name in workloads.SL2R_NAMES)


def test_check_flags_wrong_exit_verdict_and_hash(inputs):
    op = workloads.operations("span-claims", inputs)[0]
    golden = {"sha256": {op.name: "0" * 64}, "dims": {}}
    report = json.dumps({"verdict": "pass", "records": []}).encode()
    assert "exit" in run.check(op, run.ChildResult(1.0, 1, 20.0, report), inputs, golden)
    wrong = json.dumps({"verdict": "fail", "records": []}).encode()
    assert "verdict" in run.check(op, run.ChildResult(1.0, 0, 20.0, wrong), inputs, golden)
    assert "SHA-256" in run.check(op, run.ChildResult(1.0, 0, 20.0, report), inputs, golden)


def test_untraced_run_installs_no_wrappers(inputs, capsys):
    ops = workloads.operations("bracket-axioms", inputs)
    runner = run.Runner(ROOT, 0.0)
    cli_op = workloads.operations("free-splitting", inputs)[0]
    argv = []
    runner.run = lambda a, name: argv.append(a)
    runner.operation(cli_op, inputs)
    runner.operation(ops[0], inputs)
    assert argv[0][1:3] == ["cli", "--"]
    assert "--trace-out" not in argv[1]

    spec = json.dumps(ops[0].setup.spec(inputs))
    assert child.main(["batch", spec, str(inputs.triples_path), ops[0].setup.key]) == 0
    assert json.loads(capsys.readouterr().out)["nonzero_defects"] == 0
    with pytest.raises(SystemExit) as exit_info:
        child.main(["cli", "--", *THM2])
    assert exit_info.value.code == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"
    assert spans.installed() == []


def _traced(argv: list[str], status: int = 0) -> tuple[dict, dict, bytes]:
    """Span calls per name, counts and stdout of one traced child."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *argv],
                          cwd=ROOT, env=env, capture_output=True, timeout=120)
    assert proc.returncode == status, proc.stderr.decode()
    trace = json.loads(Path(argv[argv.index("--trace-out") + 1]).read_text())
    calls = {name: n for name, (n, _) in measure.layer_totals(trace).items()}
    return calls, trace["counts"], proc.stdout


THM2 = ["verify", "thm2", "--algebra", "sl2r", "--casimir", "1", "--max-degree", "3", "--json"]


def test_traced_counts_repeat_exactly(inputs):
    batch = workloads.operations("bracket-axioms", inputs)[3]
    batch_args = ["batch", json.dumps(batch.setup.spec(inputs)), str(inputs.triples_path), batch.setup.key]
    cases = [
        (lambda out: ["cli", "--trace-out", out, "--", *THM2], 0),
        (lambda out: ["cli", "--trace-out", out, "--",
                      "verify", "prop1", "--algebra", "heisenberg", "--n", "1", "--max-degree", "3", "--json"], 1),
        (lambda out: [*batch_args, "--trace-out", out], 0),
    ]
    for i, (argv, status) in enumerate(cases):
        calls, counts, _ = _traced(argv(str(WORK / f"trace-{i}a.json")), status)
        again = _traced(argv(str(WORK / f"trace-{i}b.json")), status)
        assert calls and (calls, counts) == again[:2]


def test_traced_report_is_byte_identical_to_untraced():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    plain = subprocess.run([sys.executable, "-m", "liepoisson", *THM2], cwd=ROOT, env=env,
                           capture_output=True, timeout=120)
    traced = _traced(["cli", "--trace-out", str(WORK / "trace-plain.json"), "--", *THM2])
    assert plain.returncode == 0 and plain.stdout == traced[2]
