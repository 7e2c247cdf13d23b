"""Command-line surface: flags, exit codes, stable output."""

import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

import reference_dovetail
from conftest import IN_SET_TEXT
from omegalab import dovetail, evaluator
from omegalab.cli import _build_parser, main
from omegalab.evaluator import program_head
from omegalab.machine import MACHINE_VERSION, config_hash, encode_text, save_program


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, "--format", "json", *argv)
    return code, json.loads(out) if out else None, err


def test_eval_paper_example_prints_true(capsys, tmp_path):
    prelude = tmp_path / "inset.sexpr"
    prelude.write_text(IN_SET_TEXT)
    code, out, _ = run_cli(
        capsys,
        "eval",
        "--expr",
        "(in-set? (' y) (' (x y z)))",
        "--prelude",
        str(prelude),
    )
    assert code == 0
    assert "true" in out.splitlines()[1]
    assert MACHINE_VERSION in out


def test_eval_error_outcome_exits_one(capsys):
    code, out, _ = run_cli(capsys, "eval", "--expr", "(read-bit)")
    assert code == 1
    assert "abort-overrun" in out


def test_eval_tape_inline_and_from_file(capsys, tmp_path):
    code, report, _ = run_json(
        capsys, "eval", "--expr", "(read-bit)", "--tape", "1"
    )
    assert code == 0 and report["value"] == "1"
    tape = tmp_path / "tape.bits"
    tape.write_text("01\n")
    code, report, _ = run_json(
        capsys, "eval", "--expr", "(read-bit)", "--tape-file", str(tape)
    )
    assert code == 0 and report["value"] == "0"


def test_parse_canonicalizes(capsys):
    code, out, _ = run_cli(capsys, "parse", "--expr", "( a   'b )")
    assert code == 0
    assert "(a (' b))" in out


def test_parse_reports_reader_errors(capsys):
    code, out, err = run_cli(capsys, "parse", "--expr", "(a")
    assert (code, out) == (1, "")
    assert err.startswith("error UnbalancedParens: ")


def test_encode_run_round_trip(capsys, tmp_path):
    path = tmp_path / "prog.bits"
    code, report, _ = run_json(
        capsys, "encode", "--expr", "(' a)", "--data", "", "--out", str(path)
    )
    assert code == 0
    assert report["bits"] == 48
    assert report["hex"] == "282720612900"
    code, report, _ = run_json(capsys, "run", "--program", str(path))
    assert code == 0
    assert report["outcome"] == "halted"
    assert report["value"] == "a"
    assert report["valid_halt"] is True


def test_run_undecodable_is_domain_error(capsys, tmp_path):
    bad = tmp_path / "bad.hex"
    bad.write_text("bits: 24\nffffff\n")
    code, report, _ = run_json(capsys, "run", "--program", str(bad))
    assert code == 1
    assert report["outcome"] == "malformed-program"
    assert report["reason"] == "NoSeparator"


def test_run_inline_bits(capsys):
    code, report, _ = run_json(
        capsys, "run", "--bits", encode_text("(' ok)").bits
    )
    assert code == 0
    assert report["value"] == "ok"


def test_enumerate_lists_hex_and_sizes(capsys):
    code, report, _ = run_json(capsys, "enumerate", "--max-bits", "16", "--limit", "5")
    assert code == 0
    assert report["count"] == 5
    assert report["programs"][0] == "2100 16"
    code, report, _ = run_json(capsys, "enumerate", "--max-bits", "16", "--limit", "0")
    assert (code, report["count"]) == (0, 0)


def test_census_omega_and_decide_flow(capsys, tmp_path):
    census_path = tmp_path / "c.census"
    code, report, _ = run_json(
        capsys,
        "census", "--stages", "4", "--out", str(census_path), "--max-bits", "18",
    )
    assert code == 0
    assert report["stage"] == 4
    assert report["records"] > 0

    code, report, _ = run_json(
        capsys,
        "census", "--stages", "2", "--out", str(census_path),
        "--resume", str(census_path),
    )
    assert code == 0
    assert report["stage"] == 6

    code, report, _ = run_json(
        capsys, "omega", "--census", str(census_path), "--bits", "20",
    )
    assert code == 0
    assert report["fraction"] == "91/2^16"
    assert report["binary"].startswith("0.0000000001011011")

    code, report, _ = run_json(
        capsys,
        "omega", "--census", str(census_path), "--decide-bits", "17",
    )
    assert code == 0
    assert report["decide"]["halting"] > 0


def test_omega_negative_width_is_usage_error(capsys, tmp_path):
    census_path = tmp_path / "c.census"
    run_cli(capsys, "census", "--stages", "2", "--out", str(census_path), "--max-bits", "17")
    with pytest.raises(SystemExit) as err:
        main(["omega", "--census", str(census_path), "--bits", "-2"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --bits: must be >= 0, got -2" in captured.err


def test_omega_decide_never_advances(capsys, tmp_path, monkeypatch):
    """omega --decide-bits classifies against the loaded census's own
    truncated bound, which that census already reaches, so it never
    dovetails further; this is why omega takes no stage cap or jobs count."""
    paths = []
    for stages in (0, 2, 5):
        path = str(tmp_path / f"s{stages}.census")
        code, _, _ = run_cli(
            capsys, "census", "--stages", str(stages), "--out", path,
            "--max-bits", "18",
        )
        assert code == 0
        paths.append(path)

    def no_advance(*args, **kwargs):
        raise AssertionError("omega --decide-bits advanced the census")

    monkeypatch.setattr(dovetail, "advance", no_advance)
    for path in paths:
        for n in (0, 16, 17, 18):
            code, _, err = run_cli(capsys, "omega", "--census", path,
                                   "--decide-bits", str(n))
            assert (code, err) == (0, "")


OMEGA_DECIDE_20_6_TEXT = """\
# machine: omegalab-machine-1
fraction: 91/2^16
binary: 0.0000000001011011000000000000000000000000000000000000000000000000
stage: 6
max_bits: 20
decide: {'n_bits': 20, 'target': '91/2^16', 'stop_stage': 6, 'halting': 91, \
'not_halting_relative': 2730}
"""
OMEGA_DECIDE_20_6_JSON = (
    '{"binary": "0.0000000001011011000000000000000000000000000000000000000000000000",'
    ' "decide": {"halting": 91, "n_bits": 20, "not_halting_relative": 2730,'
    ' "stop_stage": 6, "target": "91/2^16"}, "fraction": "91/2^16",'
    ' "machine": "omegalab-machine-1", "max_bits": 20, "stage": 6}\n'
)


def test_omega_decide_sums_the_bound_once(capsys, tmp_path, monkeypatch):
    """omega --decide-bits hands its bound to the classifier instead of
    summing the unchanged census twice; the report does not change."""
    path = str(tmp_path / "c.census")
    code, _, _ = run_cli(capsys, "census", "--stages", "6", "--out", path,
                         "--max-bits", "20")
    assert code == 0
    calls = []
    omega_lower_bound = dovetail.omega_lower_bound

    def counted(census):
        calls.append(census.stage)
        return omega_lower_bound(census)

    monkeypatch.setattr(dovetail, "omega_lower_bound", counted)
    for fmt, expected in (("text", OMEGA_DECIDE_20_6_TEXT),
                          ("json", OMEGA_DECIDE_20_6_JSON)):
        calls.clear()
        code, out, err = run_cli(capsys, "--format", fmt, "omega", "--census",
                                 path, "--bits", "64", "--decide-bits", "20")
        assert (code, out, err) == (0, expected, "")
        assert calls == [6]


def test_option_surface_is_pinned():
    """Adding or removing a knob must edit this table on purpose."""
    expected = {
        "parse": ["--expr", "--file"],
        "eval": ["--expr", "--file", "--prelude", "--tape", "--tape-file",
                 "--budget"],
        "encode": ["--expr", "--file", "--data", "--out"],
        "run": ["--program", "--bits", "--budget"],
        "enumerate": ["--max-bits", "--limit"],
        "census": ["--stages", "--out", "--jobs", "--resume", "--max-bits"],
        "omega": ["--census", "--bits", "--decide-bits"],
        "complexity": ["--of", "--joint", "--given", "--census", "--budget"],
        "diag": ["--count", "--budget"],
        "theory": ["--program", "--budget", "--omega-claims"],
    }
    (sub,) = [a for a in _build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: [flag for action in p._actions for flag in action.option_strings
               if flag.startswith("--") and flag != "--help"]
        for name, p in sub.choices.items()
    }
    assert surface == expected


def test_census_jobs_flag_changes_nothing(capsys, tmp_path):
    a = tmp_path / "a.census"
    b = tmp_path / "b.census"
    run_cli(capsys, "census", "--stages", "3", "--out", str(a), "--max-bits", "17")
    run_cli(
        capsys,
        "census", "--stages", "3", "--out", str(b), "--max-bits", "17",
        "--jobs", "2",
    )
    assert a.read_bytes() == b.read_bytes()


NO_POOL_SCRIPT = """
import sys
import omegalab
from omegalab import cli
code = cli.main(["census", "--max-bits", "18", "--stages", "2", "--jobs", "1",
                 "--out", sys.argv[1]])
print(code, *(m in sys.modules for m in ("concurrent.futures", "multiprocessing")))
"""


def test_census_at_one_job_never_imports_the_process_pool(tmp_path):
    # In a child process: this one has imported the pool for other tests.
    # The child imports the same source tree as this process.
    src = os.path.dirname(os.path.dirname(dovetail.__file__))
    result = subprocess.run(
        [sys.executable, "-c", NO_POOL_SCRIPT, str(tmp_path / "18.census")],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 False False"


def test_census_env_var_directory(capsys, tmp_path, monkeypatch):
    """A bare census file name resolves into OMEGALAB_CENSUS_DIR for every
    command that reads or writes a census; an absolute path and a path
    that holds a separator are left alone."""
    base, work = tmp_path / "base", tmp_path / "work"
    base.mkdir()
    (work / "sub").mkdir(parents=True)
    (work / "x.sexpr").write_text("a\n")
    monkeypatch.setenv("OMEGALAB_CENSUS_DIR", str(base))
    monkeypatch.chdir(work)

    def census(*args):
        assert run_json(capsys, "census", "--stages", "1", *args)[0] == 0

    def stage_and_bound(path):
        code, report, _ = run_json(capsys, "omega", "--census", path)
        assert code == 0
        code, estimate, _ = run_json(capsys, "complexity", "--of", "x.sexpr",
                                     "--census", path)
        assert code == 0
        return report["stage"], estimate["search_exhausted_to"]

    census("--max-bits", "18", "--out", "env.census")
    census("--resume", "env.census", "--out", "resumed.census")
    assert sorted(p.name for p in base.iterdir()) == ["env.census", "resumed.census"]
    assert stage_and_bound("env.census") == (1, 17)
    assert stage_and_bound("resumed.census") == (2, 18)

    absolute = str(work / "abs.census")
    nested = os.path.join("sub", "rel.census")
    census("--max-bits", "18", "--out", absolute)
    census("--resume", absolute, "--out", nested)
    assert sorted(p.name for p in work.rglob("*.census")) == ["abs.census", "rel.census"]
    assert (work / nested).exists()
    assert stage_and_bound(absolute) == (1, 17)
    assert stage_and_bound(nested) == (2, 18)
    assert sorted(p.name for p in base.iterdir()) == ["env.census", "resumed.census"]


def test_complexity_report(capsys, tmp_path):
    census_path = tmp_path / "c.census"
    run_cli(capsys, "census", "--stages", "8", "--out", str(census_path))
    subject = tmp_path / "x.sexpr"
    subject.write_text("a\n")
    code, report, _ = run_json(
        capsys,
        "complexity", "--of", str(subject), "--census", str(census_path),
    )
    assert code == 0
    assert report["kind"] == "plain"
    assert report["bound_bits"] == 16
    assert report["search_exhausted_to"] == 24
    assert report["witness_hex"]

    other = tmp_path / "y.sexpr"
    other.write_text("(b c)\n")
    code, report, _ = run_json(
        capsys,
        "complexity", "--of", str(subject), "--joint", str(other),
        "--census", str(census_path),
    )
    assert code == 0
    assert report["kind"] == "joint"
    assert "mutual_info" in report

    witness = tmp_path / "w.prog"
    save_program(witness, encode_text("(' a)"))
    code, report, _ = run_json(
        capsys,
        "complexity", "--of", str(subject), "--given", str(witness),
        "--census", str(census_path),
    )
    assert code == 0
    assert report["kind"] == "relative"
    assert report["bound_bits"] <= 48


def test_complexity_witness_reruns_to_the_reported_subject(
    capsys, tmp_path, monkeypatch
):
    from omegalab import complexity
    from omegalab.machine import BinaryProgram, hex_to_bits, run_program
    from omegalab.sexpr import print_canonical

    census_path = tmp_path / "c.census"
    dovetail.save_census(dovetail.advance(dovetail.new_census(20), 6), census_path)
    subject, other, witness = (tmp_path / name for name in ("x", "y", "w"))
    subject.write_text("(q r)\n")
    other.write_text("abc\n")
    save_program(witness, encode_text("(' (q r))"))
    calls = {"lookups": 0, "runs": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(complexity, "_census_winner",
                        counted("lookups", complexity._census_winner))
    monkeypatch.setattr(complexity, "run_program",
                        counted("runs", complexity.run_program))
    base = ["complexity", "--of", str(subject), "--census", str(census_path)]
    for extra, kind, subject_text in (
        ([], "plain", "(q r)"),
        (["--joint", str(other)], "joint", "((q r) abc)"),
        (["--given", str(witness)], "relative", "(q r)"),
    ):
        for key in calls:
            calls[key] = 0
        code, report, _ = run_json(capsys, *base, *extra)
        assert code == 0
        assert (report["kind"], report["subject"]) == (kind, subject_text)
        bits = hex_to_bits(report["witness_hex"], report["witness_bits"])
        result = run_program(BinaryProgram(bits), report["budget"])
        assert result.valid_halt
        assert print_canonical(result.outcome.value) == subject_text
        if kind == "joint":
            # one joint computation: two plain bounds and the pair's
            assert (calls["lookups"], calls["runs"]) == (3, 3)


def test_diag_reports_rows(capsys):
    code, report, _ = run_json(capsys, "diag", "--count", "20", "--budget", "4096")
    assert code == 0
    assert len(report["digits"]) == 20
    assert set(report["digits"]) <= {"2", "3"}
    assert report["digits"][15] == "2"  # the atom "3" sits at index 16


def test_theory_with_claims(capsys, tmp_path):
    text = (
        "(join (display (' (omega-bit (1) 0)))"
        " (join (display (' (omega-bit (1 1) 1))) ()))"
    )
    path = tmp_path / "t.prog"
    save_program(path, encode_text(text))
    code, report, _ = run_json(
        capsys,
        "theory", "--program", str(path), "--budget", "4096", "--omega-claims",
    )
    assert code == 0
    assert report["terminal"] == "halted"
    assert report["theorem_count"] == 2
    assert report["omega_claims"]["claims"] == {"1": 0, "2": 1}
    assert report["omega_claims"]["theory_bits"] == report["size_bits"]


def test_json_output_is_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "--format", "json", "diag", "--count", "8",
                          "--budget", "512")
    _, second, _ = run_cli(capsys, "--format", "json", "diag", "--count", "8",
                           "--budget", "512")
    assert first == second
    parsed = json.loads(first)
    assert list(parsed) == sorted(parsed)


def test_every_run_prints_machine_tag(capsys):
    for argv in (
        ["parse", "--expr", "()"],
        ["--format", "json", "parse", "--expr", "()"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert MACHINE_VERSION in out


def test_usage_error_exits_two(capsys, tmp_path):
    out = str(tmp_path / "x.census")
    for argv in (
        ["parse", "--no-such-flag"],
        ["--seed", "1", "parse", "--expr", "a"],
        ["census", "--stages", "-2", "--out", out, "--max-bits", "17"],
        ["census", "--stages", "1", "--out", out, "--max-bits", "17", "--jobs", "-3"],
        ["census", "--stages", "1", "--out", out, "--max-bits", "17", "--jobs", "0"],
        ["omega", "--census", out, "--jobs", "2"],
        ["omega", "--census", out, "--stage-cap", "8"],
        ["enumerate", "--max-bits", "17", "--limit", "-1"],
        ["enumerate", "--max-bits", "-1"],
        ["omega", "--census", out, "--bits", "-1"],
        ["omega", "--census", out, "--decide-bits", "-1"],
        ["census", "--stages", "1", "--out", out, "--max-bits", "10"],
        ["census", "--stages", "x", "--out", out],
        # Pairs of options of which one would silently override the other.
        ["census", "--stages", "1", "--out", out, "--resume", out, "--max-bits", "24"],
        ["complexity", "--of", "x.sexpr", "--joint", "y.sexpr", "--given", "w.prog"],
        ["run", "--program", "p.prog", "--bits", "0101"],
        ["parse", "--expr", "a", "--file", "a.sexpr"],
        ["eval", "--expr", "a", "--file", "a.sexpr"],
        ["encode", "--expr", "a", "--file", "a.sexpr"],
        ["eval", "--expr", "(read-bit)", "--tape", "", "--tape-file", "t.bits"],
        # Budgets and counts below 1.
        ["eval", "--expr", "a", "--budget", "0"],
        ["run", "--bits", "0", "--budget", "0"],
        ["run", "--bits", "0", "--budget", "-1"],
        ["complexity", "--of", "x.sexpr", "--budget", "0"],
        ["diag", "--count", "4", "--budget", "0"],
        ["diag", "--count", "0", "--budget", "64"],
        ["theory", "--program", "p.prog", "--budget", "0"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
    assert not (tmp_path / "x.census").exists()


def test_missing_input_is_domain_error(capsys):
    for argv, err_line in (
        (["parse"], "error MissingInput: provide --expr or --file\n"),
        (["eval"], "error MissingInput: provide --expr or --file\n"),
        (["encode"], "error MissingInput: provide --expr or --file\n"),
        (["run"], "error MissingInput: provide --program FILE or --bits 0101...\n"),
    ):
        assert run_cli(capsys, *argv) == (1, "", err_line)
    # An empty bit string is given: it is a program, and no separator.
    code, out, err = run_cli(capsys, "run", "--bits", "")
    assert (code, err) == (1, "")
    assert "outcome: malformed-program\n" in out
    assert "reason: NoSeparator\n" in out


def _omega_of_another_machine(tmp_path):
    path = tmp_path / "c.census"
    dovetail.save_census(dovetail.new_census(17), path)
    path.write_text(path.read_text().replace(MACHINE_VERSION, "other-machine"))
    return ["omega", "--census", str(path)]


def _complexity_given_no_halt(tmp_path):
    subject, witness = tmp_path / "x.sexpr", tmp_path / "w.prog"
    subject.write_text("a\n")
    save_program(witness, encode_text("(read-bit)"))
    return ["complexity", "--of", str(subject), "--given", str(witness)]


# The classes of domain error the commands meet, except the reader's and
# CorruptFile, which the tests above and below check; main lists only
# ValueError for the subclasses of it, and each still prints its own name.
@pytest.mark.parametrize("name, argv", [
    ("ValueError", lambda tmp: ["eval", "--expr", "a", "--tape", "2"]),
    ("FileNotFoundError",
     lambda tmp: ["omega", "--census", str(tmp / "missing.census")]),
    ("VersionMismatch", _omega_of_another_machine),
    ("InvalidWitness", _complexity_given_no_halt),
])
def test_domain_error_names_its_class(capsys, tmp_path, name, argv):
    code, out, err = run_cli(capsys, *argv(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error {name}: ")


def test_eval_rejects_a_tape_that_is_not_bits(capsys):
    code, out, err = run_cli(capsys, "eval", "--expr", "a", "--tape", "2")
    assert (code, out) == (1, "")
    assert err == "error ValueError: tape bits must be a string over 0/1\n"


# The parent of the per-head census printed this for the 24/10 census.
OMEGA_24_10_REPORT = """\
# machine: omegalab-machine-1
fraction: 32397/2^24
binary: 0.0000000001111110100011010000000000000000000000000000000000000000
stage: 10
max_bits: 24
decide: {'n_bits': 20, 'target': '253/2^17', 'stop_stage': 10, 'halting': 91, \
'not_halting_relative': 2730}
"""


def test_census_command_builds_no_record_per_bit_string(capsys, tmp_path, monkeypatch):
    """The census command decides, saves, counts and sums by head, and the
    omega command loads the file back into heads and decides from them."""
    built = []
    record = dovetail.Record

    def counted(*args, **kwargs):
        built.append(args[0])
        return record(*args, **kwargs)

    monkeypatch.setattr(dovetail, "Record", counted)
    path = str(tmp_path / "c.census")
    code, out, _ = run_cli(
        capsys, "census", "--max-bits", "24", "--stages", "10", "--out", path
    )
    assert code == 0
    assert "records: 55602\n" in out
    assert "statuses: {'halted-invalid': 46410, 'halted-valid': 9192}\n" in out
    assert built == []
    code, out, _ = run_cli(
        capsys, "omega", "--census", path, "--bits", "64", "--decide-bits", "20"
    )
    assert (code, out) == (0, OMEGA_24_10_REPORT)
    assert built == []


def test_census_command_tallies_the_read_paths_once(capsys, tmp_path, monkeypatch):
    """The census command's status counts and bound come from one pass over
    the read paths; the omega command sums its bound in one more."""
    passes = []
    derived_tally = dovetail._derived_tally

    def counted(census):
        passes.append(census.stage)
        return derived_tally(census)

    monkeypatch.setattr(dovetail, "_derived_tally", counted)
    path = str(tmp_path / "c.census")
    code, out, _ = run_cli(
        capsys, "census", "--max-bits", "24", "--stages", "10", "--out", path
    )
    assert code == 0
    assert "omega_lower_bound: 32397/2^24\n" in out
    assert passes == [10]
    code, out, _ = run_cli(
        capsys, "omega", "--census", path, "--bits", "64", "--decide-bits", "20"
    )
    assert (code, out) == (0, OMEGA_24_10_REPORT)
    assert passes == [10, 10]


def test_census_and_its_load_spell_no_head_bits(capsys, tmp_path, monkeypatch):
    """The census keys its read paths by text, so building, saving and
    loading the 24/10 census spells no head's bits: the head hex of each
    file line comes from the text itself."""
    spelled = []

    def counting(name, spell):
        def counted(arg):
            spelled.append(name)
            return spell(arg)

        return counted

    for name in ("program_head", "program_heads"):
        counted = counting(name, getattr(evaluator, name))
        for module in (evaluator, dovetail):
            monkeypatch.setattr(module, name, counted, raising=False)
    path = tmp_path / "c.census"
    code, _, _ = run_cli(
        capsys, "census", "--max-bits", "24", "--stages", "10", "--out", str(path)
    )
    assert code == 0
    census = dovetail.load_census(path)
    assert census.stage == 10 and census._window is not None
    assert spelled == []


def test_census_and_its_load_keep_no_read_paths(tmp_path):
    """No program under 88 bits reads a bit, so every text of the 24/10
    census is decided by its run with no data: built or loaded, the census
    holds those runs in its columns and no text holds read paths."""
    census = dovetail.advance(dovetail.new_census(24), 10)
    path = tmp_path / "c.census"
    dovetail.save_census(census, path)
    for held in (census, dovetail.load_census(path)):
        assert held._paths == {}
        assert len(held._texts) == len(held._status) == len(held._values) == 9192
        assert set(held._status) == {dovetail.STATUS_HALTED_VALID}


def test_omega_reports_a_non_ascii_census_as_corrupt(capsys, tmp_path):
    path = tmp_path / "u.census"
    path.write_bytes(
        f"omegalab census 1\nversion {MACHINE_VERSION}\nconfig {config_hash()}\n"
        "max-bits 17\nstage 0\nrecords 1\n2100 16 unknown \u00b2 -\n".encode("utf-8")
    )
    code, out, err = run_cli(capsys, "omega", "--census", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error CorruptFile: {path}: not ASCII")


def test_census_resume_runs_only_the_new_heads(capsys, tmp_path, monkeypatch):
    """A 24/5 census file loads back into heads, so resuming it to stage 10
    runs only the 9,101 two-character heads that stage 8 enrols, once each,
    and writes the pinned 24/10 file."""
    first, resumed = str(tmp_path / "5.census"), tmp_path / "10.census"
    code, _, _ = run_cli(
        capsys, "census", "--max-bits", "24", "--stages", "5", "--out", first
    )
    assert code == 0
    runs = []
    run_path = dovetail._run_path

    def counted(text, data, budget):
        runs.append(program_head(text) + data)
        return run_path(text, data, budget)

    monkeypatch.setattr(dovetail, "_run_path", counted)
    code, out, _ = run_cli(
        capsys, "census", "--resume", first, "--stages", "5", "--out", str(resumed)
    )
    assert code == 0
    assert "records: 55602\n" in out
    assert len(runs) == len(set(runs)) == 9101
    assert {len(bits) for bits in runs} == {24}
    assert hashlib.sha256(resumed.read_bytes()).hexdigest() == (
        "338453c2b368f9814669f8c9ac709a372d68a5b825c72f55920282f19152656d"
    )


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_census_resume_of_held_unknown_records(jobs, capsys, tmp_path):
    """A stage-0 file of held records still unknown loads one record per
    line; the resume runs each whole and writes what the per-record
    reference writes."""
    census = dovetail.new_census(20)
    for bits in (
        program_head("a") + "000",  # decodable, past the enrolled range
        "0" * 18,  # undecodable
        program_head("(read-bit)") + "1",  # oversized, a valid halt
        program_head("(' a)") + "1",  # oversized, leaves a bit unread
        program_head("b") + "0",  # inside the range the resume enrols
    ):
        census.records[bits] = dovetail.Record(bits)
    first, resumed = tmp_path / "0.census", tmp_path / "2.census"
    dovetail.save_census(census, first)
    code, _, _ = run_cli(
        capsys, "census", "--resume", str(first), "--stages", "2",
        "--out", str(resumed), "--jobs", jobs,
    )
    assert code == 0
    reference = reference_dovetail.advance(reference_dovetail.load_census(first), 2)
    assert {r.status for r in reference.records.values()} == {
        dovetail.STATUS_HALTED_VALID, dovetail.STATUS_HALTED_INVALID,
        dovetail.STATUS_ABORTED,
    }
    expected = tmp_path / "reference.census"
    dovetail.save_census(reference, expected)
    assert resumed.read_bytes() == expected.read_bytes()


def _outputs(capsys, argvs):
    """Exit code, stdout and stderr of each command, a usage error's
    SystemExit code taken as its exit code."""
    results = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    return results


def test_main_builds_one_parser_per_process(capsys, tmp_path, monkeypatch):
    """Commands in one process answer as they do each from a parser of
    their own, and all of them share one parser."""
    out = str(tmp_path / "17.census")
    argvs = [
        ["census", "--stages", "2", "--max-bits", "17", "--out", out],
        ["omega", "--census", out, "--bits", "16", "--decide-bits", "17"],
        ["omega", "--census", out, "--bits", "-1"],
        ["--format", "json", "parse", "--expr", "(a  'b)"],
        ["census", "--stages", "1", "--out", out, "--resume", out, "--max-bits", "24"],
    ]
    fresh = []
    for argv in argvs:
        _build_parser.cache_clear()
        fresh += _outputs(capsys, [argv])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    _build_parser.cache_clear()
    assert _outputs(capsys, argvs) == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 2]
    # The top-level parser and one per subcommand, built once.
    assert len(built) == 1 + 10
