"""Command-line interface: exit codes, report formats, and determinism."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import liepoisson
from liepoisson.cli import COMMANDS, EXIT_FAIL, EXIT_PASS, EXIT_USAGE, main, run


def test_verify_prop1_passes():
    status, text = run(["verify", "prop1", "--algebra", "sl2r", "--max-degree", "4"])
    assert status == EXIT_PASS
    assert "overall: pass" in text


def test_verify_thm2_passes():
    status, text = run(
        ["verify", "thm2", "--algebra", "sl2r", "--casimir", "1", "--max-degree", "3"]
    )
    assert status == EXIT_PASS
    assert "not_in_span_at_bound" in text


def test_verify_prop1_heisenberg_records_failure():
    status, text = run(
        ["verify", "prop1", "--algebra", "heisenberg", "--n", "1", "--max-degree", "2"]
    )
    assert status == EXIT_FAIL
    assert "overall: fail" in text


def test_verify_heisenberg_counterexample():
    status, _ = run(["verify", "heisenberg", "--n", "1"])
    assert status == EXIT_PASS


def test_verify_nilpotent_ideals_defaults_to_the_cone():
    status, _ = run(["verify", "nilpotent-ideals", "--algebra", "sl2r", "--max-degree", "3"])
    assert status == EXIT_PASS


def test_verify_nonexact():
    status, _ = run(["verify", "nonexact", "--algebra", "sl2r", "--max-degree", "2"])
    assert status == EXIT_PASS


def test_verify_lemma_free_and_quotient():
    status, text = run(
        ["verify", "lemma", "--algebra", "sl2r", "--gen", "x", "--max-degree", "4"]
    )
    assert status == EXIT_PASS
    assert "witness" in text
    status, _ = run(
        ["verify", "lemma", "--algebra", "sl2r", "--casimir", "0",
         "--gen", "x", "--gen", "y", "--gen", "z", "--max-degree", "4"]
    )
    assert status == EXIT_PASS


def test_probe_simplicity():
    status, _ = run(
        ["probe", "simplicity", "--algebra", "sl2r", "--casimir", "1",
         "--gen", "x", "--gen", "z", "--gen", "x + y", "--max-degree", "4"]
    )
    assert status == EXIT_PASS


def test_validate_builtin_and_file(tmp_path):
    status, text = run(["validate", "--algebra", "so3"])
    assert status == EXIT_PASS
    assert "killing_form" in text

    path = tmp_path / "alg.json"
    path.write_text(json.dumps({
        "dim": 2,
        "basis": ["a", "b"],
        "brackets": [{"i": "a", "j": "b", "terms": [{"k": "b", "coeff": "1"}]}],
    }))
    status, text = run(["validate", "--algebra", str(path)])
    assert status == EXIT_PASS


@pytest.mark.parametrize("algebra", ["sl2r", "so3", "file"])
def test_size_flag_rejected_for_non_heisenberg_algebras(algebra, tmp_path):
    if algebra == "file":
        path = tmp_path / "alg.json"
        path.write_text(json.dumps({"dim": 1, "basis": ["a"], "brackets": []}))
        algebra = str(path)
    status, text = run(["verify", "prop1", "--algebra", algebra, "--n", "2", "--max-degree", "1"])
    assert status == EXIT_USAGE
    assert "--n" in text


def test_unparseable_algebra_file_is_a_usage_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 3, "basis": ')
    status, text = run(["validate", "--algebra", str(path)])
    assert status == EXIT_USAGE
    assert "line" in text and "column" in text


@pytest.mark.parametrize(
    "body",
    [
        '{"dim":1,"basis":["x"],"brackets":[1]}',
        '{"dim":2,"basis":["x","y"],"brackets":{"i":"x"}}',
        '{"dim":1,"basis":["x"],"brackets":[{"i":"x","j":"x","terms":[5]}]}',
        '{"dim":2,"basis":["x","y"],"brackets":[{"i":["x"],"j":"y"}]}',
        '{"dim":2,"basis":["x","y"],"brackets":[{"i":"x","j":"y","terms":5}]}',
    ],
    ids=["entry-not-object", "brackets-not-list", "term-not-object", "name-not-string", "terms-not-list"],
)
def test_malformed_algebra_file_is_a_usage_error(body, tmp_path, capsys):
    path = tmp_path / "malformed.json"
    path.write_text(body)
    assert main(["validate", "--algebra", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")


def test_unclosed_relation_is_a_usage_error():
    status, text = run(
        ["verify", "thm2", "--algebra", "sl2r", "--relation", "z - 1", "--max-degree", "2"]
    )
    assert status == EXIT_USAGE
    assert "{relation, x}" in text


def test_bad_expression_reports_position():
    status, text = run(
        ["verify", "thm2", "--algebra", "sl2r", "--relation", "x + ?", "--max-degree", "2"]
    )
    assert status == EXIT_USAGE
    assert "position" in text


def test_missing_orbit_is_a_usage_error():
    status, text = run(["verify", "thm2", "--algebra", "sl2r", "--max-degree", "2"])
    assert status == EXIT_USAGE
    assert "--casimir" in text


def test_unknown_algebra_is_a_usage_error():
    status, text = run(["validate", "--algebra", "su5"])
    assert status == EXIT_USAGE


@pytest.mark.parametrize(
    "args,flag",
    [
        (["verify", "thm2", "--algebra", "sl2r", "--casimir", "1", "--relation", "z", "--max-degree", "2"],
         "--casimir"),
        (["verify", "prop1", "--algebra", "sl2r", "--max-degree", "-1"], "--max-degree"),
    ],
    ids=["conflicting-orbit-flags", "negative-max-degree"],
)
def test_invalid_flag_values_are_usage_errors(args, flag):
    status, text = run(args)
    assert status == EXIT_USAGE
    assert flag in text


# The flags each command reads, beyond the --algebra, --n and --json that all read.
COMMAND_LINES = {name: ([parent, name] if parent else [name], flags)
                 for name, (parent, _, runner, flags, _) in COMMANDS.items() if runner}


@pytest.mark.parametrize("name", COMMAND_LINES)
def test_help_lists_exactly_the_flags_a_command_reads(name, capsys):
    words, flags = COMMAND_LINES[name]
    with pytest.raises(SystemExit) as exc:
        main([*words, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
    assert listed == {"--algebra", "--n", "--json", *flags}


@pytest.mark.parametrize("module", ["liepoisson", "liepoisson.cli"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    # A fresh interpreter without site (-S), so that only the package's own
    # imports are seen; both modules weigh on every claim's start-up.
    src = str(Path(liepoisson.__file__).resolve().parents[1])
    code = f"import sys, {module}; print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "[]\n"


def test_json_reports_are_byte_identical_across_runs():
    commands = [
        ["verify", "prop1", "--algebra", "sl2r", "--max-degree", "3", "--json"],
        ["verify", "thm2", "--algebra", "sl2r", "--casimir", "1", "--max-degree", "3", "--json"],
        ["verify", "heisenberg", "--n", "1", "--json"],
        ["verify", "nilpotent-ideals", "--algebra", "sl2r", "--max-degree", "3", "--json"],
        ["verify", "nonexact", "--algebra", "sl2r", "--max-degree", "1", "--json"],
        ["verify", "lemma", "--algebra", "sl2r", "--gen", "x", "--max-degree", "3", "--json"],
    ]
    for args in commands:
        status1, text1 = run(args)
        status2, text2 = run(args)
        assert status1 == status2
        assert text1 == text2
        payload = json.loads(text1)
        assert payload["verdict"] == ("pass" if status1 == EXIT_PASS else "fail")


# SHA-256 of --json reports whose bounds lie outside the benchmark's ladder,
# pinned so that a change to the elimination or the bracket sources that
# alters a report fails here too.
PINNED_REPORTS = [
    (["verify", "nonexact", "--algebra", "sl2r", "--max-degree", "5"], EXIT_PASS,
     "1137c5a1bff54096d7335cbbfa0983361fdf92ace7760561a995d8eb8dfbf6f2"),
    (["verify", "nonexact", "--algebra", "sl2r", "--max-degree", "12"], EXIT_PASS,
     "947a9697af8a04a0b44b6afb20d26125d6390a2619034935559de8783353a0d4"),
    (["verify", "prop1", "--algebra", "sl2r", "--max-degree", "12"], EXIT_PASS,
     "ab7a37bc45aad5ff57f7d18eb754a449158e2893e9e9bac51eb0629cc3c04aaf"),
    (["verify", "prop1", "--algebra", "heisenberg", "--n", "3", "--max-degree", "5"], EXIT_FAIL,
     "e66522318c22b1cf2b6048f6ede4c7e3bf8db8e734175eac53443ea360287948"),
    (["verify", "lemma", "--algebra", "sl2r", "--gen=x+2*y-z", "--max-degree", "11"], EXIT_PASS,
     "3a52f52a4656b8873ca821495ef7a43af0c39ad2eed98e48c436005bec3881de"),
    (["probe", "simplicity", "--algebra", "sl2r", "--casimir", "1", "--gen=x+y-2*z", "--gen=-x+3*y+z",
      "--max-degree", "7"], EXIT_PASS,
     "7c5ac2286bbe42278ce86839fc6770f545db6a08274e302658fffed7cb05ad6c"),
    (["verify", "nilpotent-ideals", "--algebra", "sl2r", "--max-degree", "9"], EXIT_PASS,
     "3eb0177012fbf34b14074b59fdd828b0c883ffa094c444d470f22bd64ab91601"),
    (["verify", "nilpotent-ideals", "--algebra", "sl2r", "--max-degree", "9", "--k", "2"], EXIT_PASS,
     "3428a06be0c37f33ed141512fc58736e390883bf45c8b4e9a3670f359ab7cc43"),
    (["verify", "prop1", "--algebra", "heisenberg", "--n", "2", "--max-degree", "5"], EXIT_FAIL,
     "f224d0e6faea1c0f416079ce3ccc6aa04becc2d998a14a14800a225711d90a4a"),
    (["verify", "thm2", "--algebra", "sl2r", "--casimir", "1", "--max-degree", "7"], EXIT_PASS,
     "49a7c39b8767091b57429520e46364bba52f78de957e4676768486c4328a953b"),
    (["verify", "heisenberg", "--n", "2", "--max-degree", "3"], EXIT_PASS,
     "c258084b5e0360503281078cb16a248f35871a80c4a93fa33c5a454da7bcb61c"),
    (["probe", "simplicity", "--algebra", "sl2r", "--casimir", "0", "--gen=x", "--gen=z^2", "--max-degree", "6"],
     EXIT_PASS, "92cf3ccc3e356ee02a7fa64188302be2d4b428827872bd80f24d133b8a85f647"),
    (["probe", "simplicity", "--algebra", "sl2r", "--casimir", "0", "--gen=x", "--orbit-type", "semisimple",
      "--max-degree", "4"], EXIT_FAIL,
     "2acbb32ee9dda6ddcc0778e7cec76e5bb8cba094c299bc28a19a3a90ce1c8f2a"),
    (["verify", "lemma", "--algebra", "sl2r", "--casimir", "0", "--gen=x", "--gen=y", "--max-degree", "5"],
     EXIT_PASS, "22093cd74892df1b20f23df26952581810bcb71708e33935f06d04ce6b1364e1"),
]


@pytest.mark.parametrize(
    "args,status,digest",
    PINNED_REPORTS,
    ids=["nonexact-5", "nonexact-12", "prop1-sl2r-12", "prop1-heisenberg3-5", "lemma-sl2r-11",
         "simplicity-sl2r-7", "nilpotent-sl2r-9", "nilpotent-sl2r-9-k2", "prop1-heisenberg2-5", "thm2-sl2r-7",
         "heisenberg2-3", "simplicity-cone-6", "simplicity-cone-tagged-semisimple-4", "lemma-cone-5"],
)
def test_pinned_json_report_digests(capsys, args, status, digest):
    assert main([*args, "--json"]) == status
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_seed_flag_is_rejected(capsys):
    assert main(["verify", "prop1", "--algebra", "sl2r", "--max-degree", "2", "--seed", "7"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "--seed" in captured.err


@pytest.mark.parametrize(
    "args,flag",
    [
        (["verify", "prop1", "--algebra", "sl2r", "--casimir", "1"], "--casimir"),
        (["verify", "prop1", "--algebra", "sl2r", "--relation", "z"], "--relation"),
        (["validate", "--algebra", "sl2r", "--relation", "z"], "--relation"),
        (["validate", "--algebra", "sl2r", "--casimir", "1"], "--casimir"),
        (["verify", "thm2", "--algebra", "sl2r", "--casimir", "1", "--gen", "x"], "--gen"),
        (["verify", "nilpotent-ideals", "--algebra", "sl2r", "--gen", "x"], "--gen"),
        (["verify", "nonexact", "--algebra", "sl2r", "--orbit-type", "nilpotent"], "--orbit-type"),
        (["verify", "heisenberg", "--orbit-type", "nilpotent"], "--orbit-type"),
        (["verify", "lemma", "--algebra", "sl2r", "--gen", "x", "--orbit-type", "other"], "--orbit-type"),
        (["verify", "thm2", "--algebra", "sl2r", "--casimir", "1", "--k", "1"], "--k"),
        (["validate", "--algebra", "sl2r"], "--max-degree"),
    ],
    ids=["prop1-casimir", "prop1-relation", "validate-relation", "validate-casimir", "thm2-gen",
         "nilpotent-gen", "nonexact-orbit-type", "heisenberg-orbit-type", "lemma-orbit-type", "thm2-k",
         "validate-max-degree"],
)
def test_ignored_flags_are_usage_errors(args, flag):
    status, text = run([*args, "--max-degree", "2"])
    assert status == EXIT_USAGE
    assert flag in text


def test_orbit_type_and_gen_accepted_where_read():
    status, _ = run(["verify", "thm2", "--algebra", "sl2r", "--casimir", "1",
                          "--orbit-type", "semisimple", "--max-degree", "2"])
    assert status == EXIT_PASS
    status, _ = run(["probe", "simplicity", "--algebra", "sl2r", "--casimir", "0",
                          "--orbit-type", "nilpotent", "--gen", "z", "--max-degree", "3"])
    assert status == EXIT_PASS


@pytest.mark.parametrize(
    "args,message",
    [
        (["verify", "lemma", "--algebra", "sl2r", "--gen", "x", "--max-degree", "0"], "exceeds the bound"),
        (["verify", "lemma", "--algebra", "sl2r", "--gen", "x^2", "--max-degree", "1"], "exceeds the bound"),
        (["verify", "nilpotent-ideals", "--algebra", "sl2r", "--max-degree", "0"], "k=1 exceeds the degree bound 0"),
        (["verify", "nilpotent-ideals", "--algebra", "sl2r", "--k", "3", "--max-degree", "2"],
         "k=3 exceeds the degree bound 2"),
        (["verify", "heisenberg", "--n", "1", "--max-degree", "0"], "--max-degree must be at least 1"),
        (["probe", "simplicity", "--algebra", "sl2r", "--casimir", "1", "--gen", "x", "--max-degree", "0"],
         "exceeds the bound"),
    ],
    ids=["lemma-linear-0", "lemma-quadratic-1", "nilpotent-k1-0", "nilpotent-k3-2", "heisenberg-0",
         "probe-linear-0"],
)
def test_bound_below_the_generators_is_a_usage_error(args, message):
    status, text = run(args)
    assert status == EXIT_USAGE
    assert message in text


def test_k_defaults_to_one_and_is_checked_on_nilpotent_ideals():
    base = ["verify", "nilpotent-ideals", "--algebra", "sl2r", "--max-degree", "3", "--json"]
    status, text = run(base)
    assert status == EXIT_PASS
    assert json.loads(text)["params"]["k"] == 1
    assert run([*base, "--k", "1"]) == (status, text)
    status, text = run([*base, "--k", "0"])
    assert status == EXIT_USAGE
    assert "at least 1" in text


@pytest.mark.parametrize(
    "args,level",
    [
        (["verify", "heisenberg", "--n", "1"], "1"),
        (["verify", "nilpotent-ideals", "--algebra", "sl2r", "--max-degree", "3"], "0"),
        (["verify", "nonexact", "--algebra", "sl2r", "--max-degree", "2"], "1"),
    ],
    ids=["heisenberg", "nilpotent-ideals", "nonexact"],
)
def test_default_orbit_level_equals_explicit_casimir(args, level):
    for extra in ([], ["--json"]):
        argv = [*args, *extra]
        default = run(argv)
        assert argv == [*args, *extra]  # the default level is read, never written back
        assert default == run([*args, *extra, "--casimir", level])
        assert default[0] == EXIT_PASS


@pytest.mark.parametrize(
    "relation",
    ["2*x^2+2*y^2-2*z^2-2", "-x^2-y^2+z^2+1", "1/3*x^2+1/3*y^2-1/3*z^2-1/3"],
    ids=["times-2", "times-minus-1", "times-one-third"],
)
def test_nonexact_accepts_a_multiple_of_the_hyperboloid_relation(relation):
    base = ["verify", "nonexact", "--algebra", "sl2r", "--max-degree", "3", "--json"]
    status, text = run([*base, f"--relation={relation}"])
    assert status == EXIT_PASS
    expected_status, expected = run([*base, "--casimir", "1"])
    assert expected_status == EXIT_PASS
    assert json.loads(text)["records"] == json.loads(expected)["records"]


@pytest.mark.parametrize("level", ["0", "2"])
def test_nonexact_rejects_other_casimir_levels(level):
    status, text = run(["verify", "nonexact", "--algebra", "sl2r", "--casimir", level, "--max-degree", "2"])
    assert status == EXIT_USAGE
    assert "hyperboloid relation" in text


def test_exit_status_matches_report_verdict():
    status, text = run(
        ["verify", "prop1", "--algebra", "heisenberg", "--n", "1", "--max-degree", "1", "--json"]
    )
    payload = json.loads(text)
    assert (status == EXIT_PASS) == (payload["verdict"] == "pass")


def test_main_prints_report(capsys):
    assert main(["verify", "prop1", "--algebra", "sl2r", "--max-degree", "2"]) == EXIT_PASS
    captured = capsys.readouterr()
    assert "overall: pass" in captured.out
    assert captured.err == ""


def test_main_routes_usage_errors_to_stderr(capsys):
    assert main(["validate", "--algebra", "nope"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "error" in captured.err
