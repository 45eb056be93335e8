"""End-to-end command line checks: exit codes, formats, determinism."""

from __future__ import annotations

import csv
import io
import json

import pytest

from arithproj.cli import main
from arithproj.patterns import EXAMPLE_ONE_PATTERN


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_writes_instance(tmp_path, capsys):
    out = tmp_path / "inst.json"
    code, stdout, _ = run(
        capsys, ["construct", "example1", "--n", "2", "--out", str(out)]
    )
    assert code == 0
    summary = json.loads(stdout)
    assert summary["A"] == 9 and summary["G"] == 36 and summary["C"] == 9
    doc = json.loads(out.read_text())
    assert doc["group"] == "Z"
    assert len(doc["G"]) == 36


def test_construct_stdout_is_raw_instance(capsys):
    code, stdout, _ = run(capsys, ["construct", "example2", "--n", "1"])
    assert code == 0
    doc = json.loads(stdout)
    assert set(doc) == {"group", "A", "B", "G"}
    assert len(doc["G"]) == 8


def test_construct_pattern_file(tmp_path, capsys):
    pattern_path = tmp_path / "pattern.json"
    pattern_path.write_text(json.dumps(EXAMPLE_ONE_PATTERN.to_json_dict()))
    out = tmp_path / "inst.json"
    code, stdout, _ = run(
        capsys,
        [
            "construct",
            "pattern-file",
            "--pattern-file",
            str(pattern_path),
            "--n",
            "1",
            "--out",
            str(out),
        ],
    )
    assert code == 0
    assert json.loads(stdout)["G"] == 6
    assert json.loads(out.read_text())["G"] == [
        [0, 1],
        [0, 3],
        [1, 0],
        [1, 3],
        [3, 0],
        [3, 1],
    ]


def test_construct_invalid_base_exit_code(capsys):
    code, _, err = run(capsys, ["construct", "example1", "--n", "1", "--base", "6"])
    assert code == 2
    assert "error" in err


def test_construct_zero_digits_exit_code(capsys):
    code, stdout, err = run(capsys, ["construct", "example1", "--n", "0"])
    assert code == 2
    assert stdout == ""
    assert err.startswith("error:") and "--n" in err


def test_construct_negative_pattern_pair_exit_code(tmp_path, capsys):
    pattern_path = tmp_path / "pattern.json"
    pattern_path.write_text(json.dumps({"pairs": [[0, 1], [1, -1]]}))
    code, stdout, err = run(
        capsys,
        ["construct", "pattern-file", "--pattern-file", str(pattern_path), "--n", "1"],
    )
    assert code == 2
    assert stdout == ""
    assert err.startswith("error:") and "nonnegative" in err


def test_verify_both_chains(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert main(["construct", "example2", "--n", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    code, stdout, _ = run(capsys, ["verify", str(out), "--chain", "both"])
    assert code == 0
    doc = json.loads(stdout)
    assert doc["all_hold"] is True
    assert doc["budget"] == 16
    assert doc["chain-6"]["all_hold"] is True
    assert doc["chain-4"]["all_hold"] is True
    assert doc["chain-4"]["cardinalities"]["relation"] == 64


def test_verify_csv_rows(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert main(["construct", "example1", "--n", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    code, stdout, _ = run(
        capsys, ["verify", str(out), "--chain", "6", "--output", "csv"]
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(stdout)))
    assert len(rows) == 6
    assert rows[0]["chain"] == "chain-6"
    assert rows[0]["inequality"] == "wedge-count-lower"
    assert all(row["holds"] == "True" for row in rows)


def test_verify_explicit_budget_violation(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert main(["construct", "example1", "--n", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    code, _, err = run(capsys, ["verify", str(out), "--N", "3"])
    assert code == 3
    assert "hypotheses" in err


def test_verify_wedge_cap(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert main(["construct", "example1", "--n", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    # 6**2 pairs, each left element with 4 partners: 9 * 4**2 = 144 wedges
    code, stdout, err = run(capsys, ["verify", str(out), "--cap", "143"])
    assert code == 4
    assert stdout == ""
    assert err.startswith("error:") and "144 wedges" in err
    code, stdout, _ = run(capsys, ["verify", str(out), "--cap", "144"])
    assert code == 0
    assert json.loads(stdout)["all_hold"] is True


def test_verify_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    code, _, err = run(capsys, ["verify", str(bad)])
    assert code == 2
    assert "error" in err
    code, _, _ = run(capsys, ["verify", str(tmp_path / "missing.json")])
    assert code == 2


def test_verify_non_integer_budget_exit_code(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert main(["construct", "example1", "--n", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    code, stdout, err = run(capsys, ["verify", str(out), "--N", "abc"])
    assert code == 2
    assert stdout == ""
    assert err.startswith("error:") and "--N" in err


def test_lemma_problem_file(tmp_path, capsys):
    doc = {
        "items": [0, 1, 2],
        "labelings": [{"labels": ["x", "x", "y"]}],
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    code, stdout, _ = run(capsys, ["lemma", str(path)])
    assert code == 0
    payload = json.loads(stdout)
    assert payload["count"] == 5
    assert payload["naive"] == 5
    assert payload["bound"] == {"num": 9, "den": 2}
    assert payload["bound_holds"] is True
    # 3**2 = 9 tuples exceed a naive cap of 8
    code, stdout, _ = run(capsys, ["lemma", str(path), "--cap", "8"])
    assert code == 0
    payload = json.loads(stdout)
    assert payload["count"] == 5
    assert payload["naive"] == "skipped"


def test_lemma_non_integer_label_count_exit_code(tmp_path, capsys):
    for count in (2.5, True):
        doc = {"items": [1, 2], "labelings": [{"labels": [1, 2], "label_count": count}]}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        code, stdout, err = run(capsys, ["lemma", str(path)])
        assert code == 2
        assert stdout == ""
        assert err.startswith("error:") and "label_count" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "inst.json", "--cap", "-5"],
        ["lemma", "--random", "3", "--cap", "-1"],
    ],
)
def test_negative_cap_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--cap: must be >= 0" in capsys.readouterr().err


def test_zero_cap_is_valid(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert main(["construct", "example1", "--n", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    # example one has 3 * 2**2 = 12 wedges at one digit
    code, _, err = run(capsys, ["verify", str(out), "--cap", "0"])
    assert code == 4
    assert "12 wedges" in err
    code, stdout, _ = run(capsys, ["lemma", "--random", "3", "--cap", "0"])
    assert code == 0
    assert all(case["naive"] == "skipped" for case in json.loads(stdout)["cases"])


def test_lemma_requires_exactly_one_source(capsys):
    code, _, _ = run(capsys, ["lemma"])
    assert code == 2
    code, _, _ = run(capsys, ["lemma", "file.json", "--random", "3"])
    assert code == 2
    for argv in (
        ["lemma", "--random", "0"],
        ["lemma", "--random", "-5"],
    ):
        code, stdout, err = run(capsys, argv)
        assert code == 2
        assert stdout == ""
        assert err.startswith("error:")


def test_lemma_random_batch_deterministic(capsys):
    code1, out1, _ = run(capsys, ["lemma", "--random", "12", "--seed", "9"])
    code2, out2, _ = run(capsys, ["lemma", "--random", "12", "--seed", "9"])
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["count"] == 12
    assert payload["all_ok"] is True
    code3, out3, _ = run(capsys, ["lemma", "--random", "12", "--seed", "10"])
    assert code3 == 0
    assert out3 != out1


def test_search_command(tmp_path, capsys):
    out = tmp_path / "result.json"
    code, stdout, _ = run(
        capsys, ["search", "--K", "2", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["exhaustive"] is True
    assert payload["certified"] is True
    assert abs(payload["best_exponent"] - 1.5849625007211563) < 1e-12
    assert json.loads(out.read_text()) == payload


def test_search_budget_exit_code(capsys):
    code, stdout, _ = run(capsys, ["search", "--K", "3", "--budget", "20"])
    assert code == 4
    assert json.loads(stdout)["exhaustive"] is False


def test_search_non_positive_budget_exit_code(capsys):
    for budget in ("0", "-5"):
        code, stdout, err = run(capsys, ["search", "--K", "2", "--budget", budget])
        assert code == 2
        assert stdout == ""
        assert err.startswith("error:") and "node_budget" in err


def test_search_exhaustive_too_large_exit_code(capsys):
    code, stdout, err = run(capsys, ["search", "--K", "9", "--mode", "exhaustive"])
    assert code == 2
    assert stdout == ""
    assert err.startswith("error:") and "25 cells" in err


def test_search_branch_bound_constrained(capsys):
    code, stdout, _ = run(
        capsys,
        ["search", "--K", "4", "--constrain-d", "--mode", "branch-bound"],
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["best_exponent"] == 1.5
    assert len(payload["witnesses"]) == 3


def test_dimensions_table(capsys):
    code, stdout, _ = run(
        capsys, ["dimensions", "--n-min", "8", "--n-max", "9", "--output", "csv"]
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(stdout)))
    assert [row["dimension"] for row in rows] == ["8", "9"]
    assert rows[0]["minkowski"] == "5/1"
    assert rows[0]["best_minkowski"] == "equal"
    assert rows[1]["best_minkowski"] == "minkowski"

    code, stdout, _ = run(capsys, ["dimensions", "--n-min", "3", "--n-max", "2"])
    assert code == 2


def test_text_output_mode(capsys):
    code, stdout, _ = run(
        capsys, ["dimensions", "--n-min", "2", "--n-max", "2", "--output", "text"]
    )
    assert code == 0
    assert "reports" in stdout


def test_unknown_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "example1", "--n", "1", "--cap", "5"],
        ["search", "--K", "2", "--seed", "1"],
        ["dimensions", "--workers", "2"],
        ["lemma", "--random", "3", "--workers", "2"],
    ],
)
def test_options_only_where_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
