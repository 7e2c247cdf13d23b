"""Command-line surface: flags, exit codes, stable output."""

import json

import pytest

from conftest import IN_SET_TEXT
from omegalab.cli import main
from omegalab.machine import MACHINE_VERSION, encode_text, save_program


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
    code, _, err = run_cli(capsys, "parse", "--expr", "(a")
    assert code == 1
    assert "UnbalancedParens" in err


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


def test_omega_negative_width_is_domain_error(capsys, tmp_path):
    census_path = tmp_path / "c.census"
    run_cli(capsys, "census", "--stages", "2", "--out", str(census_path), "--max-bits", "17")
    code, out, err = run_cli(capsys, "omega", "--census", str(census_path), "--bits", "-2")
    assert code == 1
    assert out == ""
    assert err.startswith("error ValueError")


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


def test_census_env_var_directory(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("OMEGALAB_CENSUS_DIR", str(tmp_path))
    code, _, _ = run_cli(
        capsys, "census", "--stages", "1", "--out", "env.census", "--max-bits", "17"
    )
    assert code == 0
    assert (tmp_path / "env.census").exists()
    code, report, _ = run_json(capsys, "omega", "--census", "env.census")
    assert code == 0


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
        ["omega", "--census", out, "--jobs", "0"],
        ["omega", "--census", out, "--stage-cap", "-1"],
        ["enumerate", "--max-bits", "17", "--limit", "-1"],
        ["census", "--stages", "x", "--out", out],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
    assert not (tmp_path / "x.census").exists()


def test_missing_input_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "eval")
    assert code == 1
    assert "MissingInput" in err
