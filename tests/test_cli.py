"""End-to-end tests of the command-line interface: reports, exit codes,
determinism, and the named check suites."""

from __future__ import annotations

import hashlib
import json
import time

import pytest

import util
from shiftcat import cli, shifts
from shiftcat.codes import (block_map_to_json, centralize,
                            higher_block_map, lambda_first_letter)
from shiftcat.errors import NonIntegralCoefficient
from shiftcat.shifts import ShiftPresentation, periodic_counts
from shiftcat.words import Alphabet

GOLDEN = str(util.DATA / "golden_mean.json")
EVEN = str(util.DATA / "even.json")
PERIODIC = str(util.DATA / "periodic_ab.json")

AB = Alphabet(("a", "b"))


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as ex:
        code = ex.code
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# -- reports --------------------------------------------------------------


def test_blocks_of_the_golden_mean(capsys):
    report = run_json(capsys, "blocks", GOLDEN, "--order", "2")
    assert report["schema"] == "shiftcat/blocks/v1"
    assert "version" in report
    assert report["blocks"] == ["a", "b", "aa", "ab", "ba"]


def test_blocks_text_format(capsys):
    code, out, _ = run(capsys, "blocks", GOLDEN, "--order", "2",
                       "--format", "text")
    assert code == 0
    assert out.splitlines() == ["a", "b", "aa", "ab", "ba"]


def test_even_blocks_exclude_the_odd_run(capsys):
    report = run_json(capsys, "blocks", EVEN, "--order", "3")
    three = [w for w in report["blocks"] if len(w) == 3]
    assert "aba" not in three
    assert "abb" in three and "bab" in three


def test_member_reports(capsys):
    report = run_json(capsys, "member", EVEN, "(a)^w (b)^w")
    assert report["closure_membership"] is True
    assert report["mirage_membership"]["2"] is True
    report = run_json(capsys, "member", EVEN, "aba")
    assert report["is_block"] is False


def test_irreducible_and_periodic(capsys):
    assert run_json(capsys, "irreducible", EVEN)["irreducible"] is True
    report = run_json(capsys, "periodic", GOLDEN, "--order", "6")
    assert report["p"] == [1, 3, 4, 7, 11, 18]
    assert report["q"] == [1, 2, 3, 4, 10, 12]


def test_zeta_report(capsys):
    report = run_json(capsys, "zeta", GOLDEN, "--order", "6")
    assert report["coefficients"] == [1, 1, 2, 3, 5, 8, 13]


def test_syntactic_and_green(capsys):
    report = run_json(capsys, "syntactic", GOLDEN)
    assert report["semigroup"]["size"] == 5
    assert report["accept"] == [0, 1, 2, 3]
    report = run_json(capsys, "green", PERIODIC)
    assert report["size"] == 5
    assert sum(row["size"] for row in report["summary"]) == 5


def test_karoubi_report(capsys):
    report = run_json(capsys, "karoubi", PERIODIC)
    assert report["size"] == 5
    assert report["objects"] == [2, 3, 4]
    assert report["census"] == {"1": 1, "2": 2}
    assert report["retraction_pairs"] == [[2, 2], [2, 3], [2, 4], [3, 3],
                                          [3, 4], [4, 3], [4, 4]]
    assert report["lu_poset_dot"].startswith("digraph")


def test_lu_poset_formats(capsys):
    report = run_json(capsys, "lu-poset", EVEN, "--carrier", "accept")
    assert report["elements"] == [0, 1]
    assert report["order"] == [[0, 0], [0, 1], [1, 1]]
    code, out, _ = run(capsys, "lu-poset", EVEN, "--format", "dot")
    assert code == 0 and out.startswith("digraph")


def test_code_commands(capsys, tmp_path):
    raw = tmp_path / "upsilon2.json"
    raw.write_text(json.dumps(block_map_to_json(higher_block_map(AB, 2))))
    report = run_json(capsys, "code", "centralize", str(raw))
    assert report["schema"] == "shiftcat/central-block-map/v1"
    assert report["wing"] == 1

    central = tmp_path / "central.json"
    central.write_text(json.dumps(report))
    back = tmp_path / "lambda.json"
    back.write_text(json.dumps(block_map_to_json(
        lambda_first_letter(AB, 2))))
    report = run_json(capsys, "code", "compose", str(central), str(back))
    assert report["wing"] == 1

    report = run_json(capsys, "code", "apply", str(central), GOLDEN)
    target = ShiftPresentation.from_json(report["target"])
    assert periodic_counts(target, 4)[0] == [1, 3, 4, 7]


def test_term_commands(capsys, tmp_path):
    report = run_json(capsys, "term", "eval", EVEN, "(a b)^w")
    assert report["in_accept"] is False
    assert report["closure_membership"] is False

    report = run_json(capsys, "term", "factors", GOLDEN, "(a b)^w",
                      "--bound", "2")
    found = {row["word"]: row["is_block"] for row in report["factors"]}
    assert found == {"a": True, "b": True, "ab": True, "ba": True}

    central = tmp_path / "central.json"
    cen = centralize(higher_block_map(AB, 2))
    central.write_text(json.dumps(
        {"inner": block_map_to_json(cen.inner), "wing": cen.wing}))
    report = run_json(capsys, "term", "code", str(central), "(a)^w b (a)^w")
    assert (report["image"].replace(" ", "")
            == "([aa])^(w-2)[ab][ba]([aa])^(w-1)")


def test_expand_and_classify(capsys):
    report = run_json(capsys, "expand", EVEN, "--letter", "a")
    target = ShiftPresentation.from_json(report["target"])
    assert tuple(target.alphabet) == ("a", "b", "o")
    code, out, _ = run(capsys, "expand", PERIODIC, "--letter", "a",
                       "--format", "dot")
    assert code == 0 and out.startswith("digraph")

    assert run_json(capsys, "classify", EVEN, "bbaob",
                    "--letter", "a")["type"] == "ImageE"
    assert run_json(capsys, "classify", EVEN, "(o b b a)^w",
                    "--letter", "a")["type"] == "DiamondImageEAlpha"


def test_flowcheck_passes(capsys):
    report = run_json(capsys, "flowcheck", EVEN, "--letter", "a",
                      "--bound", "3", "--seed", "5")
    assert report["passed"] is True
    assert report["arrows"]
    assert all(row["kind"] == "EqualInAll" for row in report["arrows"])
    assert all(row["case"].startswith("case dom=")
               for row in report["arrows"])


# -- exit codes -----------------------------------------------------------


def test_empty_shift_exit_code(capsys, tmp_path):
    empty = ShiftPresentation.sft(AB, ["a", "b"])
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(empty.to_json()))
    code, out, err = run(capsys, "zeta", str(path), "--order", "3")
    assert code == 2
    assert out == ""
    assert "empty" in err


def test_non_integral_exit_code(capsys, monkeypatch):
    def broken(x, order):
        raise NonIntegralCoefficient("synthetic")

    monkeypatch.setattr(shifts, "zeta", broken)
    code, out, err = run(capsys, "zeta", GOLDEN, "--order", "3")
    assert code == 3
    assert out == ""
    assert "non-integral" in err


def test_closure_over_the_size_limit_is_a_one_line_error(capsys,
                                                         monkeypatch):
    monkeypatch.setattr(shifts, "_MAX_SIZE", 4)  # even's closure has 7
    for command in ("periodic", "zeta"):
        code, out, err = run(capsys, command, EVEN, "--order", "3")
        assert code == 1
        assert out == ""
        assert err == "error: SizeLimit: closure exceeds 4 elements\n"


def test_usage_exit_codes(capsys):
    assert run(capsys, "no-such-command")[0] == 64
    assert run(capsys, "blocks", GOLDEN)[0] == 64
    assert run(capsys, "check", "no-such-suite")[0] == 64
    assert run(capsys, "check", "word-code-identities")[0] == 64
    for argv in (("apply", EVEN), ("compose", EVEN),
                 ("centralize", EVEN, GOLDEN)):
        code, out, err = run(capsys, "code", *argv)
        assert (code, out) == (64, "")
        assert err.startswith("usage error:") and len(err.splitlines()) == 1


def test_missing_file_exit_code(capsys):
    code, out, err = run(capsys, "blocks", "no-such-file.json",
                         "--order", "2")
    assert code == 1
    assert "no such file" in err


INPUT = "<input.json>"
UPSILON2 = block_map_to_json(centralize(higher_block_map(AB, 2)).inner)
TERM = "(a)^w b (a)^w"


@pytest.mark.parametrize("command, data", [
    (["blocks", "--order", "2", INPUT], {"alphabet": ["a", "b"]}),
    (["blocks", "--order", "2", INPUT],
     [{"alphabet": ["a", "b"], "kind": "sft"}]),
    (["irreducible", INPUT], {"alphabet": ["a"], "kind": "sofic",
                              "vertices": ["0"], "edges": [["0", "a"]]}),
    (["code", "centralize", INPUT], util.load("even").to_json()),
    (["term", "code", INPUT, TERM], {"inner": UPSILON2}),
    (["term", "code", INPUT, TERM], {"inner": UPSILON2, "wing": "1"}),
    (["term", "code", INPUT, TERM], {"inner": UPSILON2, "wing": -1}),
])
def test_malformed_json_is_a_one_line_error(capsys, tmp_path, command, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, *(str(path) if a == INPUT else a
                                   for a in command))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


# malformed inputs written to files; "<directory>" stands for a
# directory and "<even>" for the even shift
MALFORMED = {
    "<not-utf8>": b"\xff\xfe{}",
    "<truncated>": b'{"alphabet": ["a", "b"], "kind": ',
    "<no-alphabet>": b'{"kind": "sft", "forbidden": ["bb"]}',
    "<no-vertices>": b'{"alphabet": ["a"], "kind": "sofic", "edges": []}',
    "<no-table>": b'{"source": ["a"], "target": ["a"], "window": 1}',
    "<no-inner>": b'{"wing": 1}',
}
FULL2 = str(util.DATA / "full2.json")


@pytest.mark.parametrize("argv, expected", [
    (["zeta", "<directory>", "--order", "3"], 1),
    (["code", "compose", "<directory>", "<even>"], 1),
    (["karoubi", "<not-utf8>"], 1),
    (["term", "code", "<not-utf8>", "a"], 1),
    (["green", "<truncated>"], 1),
    (["periodic", "<no-alphabet>", "--order", "2"], 1),
    (["expand", "<no-vertices>", "--letter", "a"], 1),
    (["code", "centralize", "<no-table>"], 1),
    (["term", "code", "<no-inner>", "a"], 1),
    (["member", "<even>", "(ab"], 1),
    (["term", "eval", "<even>", "(a)^x"], 1),
    (["term", "factors", "<even>", "a )"], 1),
    (["classify", "<even>", "(ab)^w)", "--letter", "a"], 1),
    (["classify", "<even>", "ab", "--letter", "z"], 1),
    (["member", "<even>", "(a)^w", "--bound", "0"], 1),
    (["member", "<even>", "(a)^w", "--bound", "-1"], 1),
    (["member", "<even>", "ab", "--bound", "0"], 1),
    (["term", "factors", "<even>", "(a)^w", "--bound", "0"], 1),
    (["flowcheck", "<even>", "--letter", "a", "--bound", "0"], 1),
    (["blocks", "<even>", "--order", "0"], 1),
    (["zeta", "<even>", "--order", "-2"], 1),
    (["periodic", "<even>", "--order", "0"], 1),
    (["blocks", "<even>", "--order", "x"], 64),
    (["member", "<even>"], 64),
    (["check", "flow-naturality", "--seed", "x"], 64),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_malformed_input_is_a_one_line_error(capsys, tmp_path, argv,
                                             expected):
    paths = {"<directory>": str(tmp_path), "<even>": EVEN}
    for name, data in MALFORMED.items():
        path = tmp_path / f"{name.strip('<>')}.json"
        path.write_bytes(data)
        paths[name] = str(path)
    code, out, err = run(capsys, *(paths.get(a, a) for a in argv))
    assert (code, out) == (expected, "")
    assert err.endswith("\n") and len(err.splitlines()) == 1, err
    assert "Traceback" not in err


def test_unreadable_path_names_the_path_and_the_reason(capsys, tmp_path):
    code, out, err = run(capsys, "zeta", str(tmp_path), "--order", "3")
    assert (code, out) == (1, "")
    assert err == f"error: cannot read {tmp_path}: Is a directory\n"


def test_blocks_over_the_size_limit_is_a_one_line_error(capsys,
                                                        monkeypatch):
    monkeypatch.setattr(shifts, "_MAX_BLOCKS", 100)
    code, out, err = run(capsys, "blocks", FULL2, "--order", "40")
    assert (code, out) == (1, "")
    assert err == ("error: SizeLimit: more than 100 blocks of length at "
                   "most 40\n")


def test_huge_exponent_offsets_run_in_bounded_work(capsys):
    start = time.perf_counter()
    assert run(capsys, "member", EVEN, "(a)^(w+99999999999)")[0] == 0
    assert run(capsys, "classify", EVEN, "(ao)^(w+99999999999)",
               "--letter", "a")[0] == 0
    assert time.perf_counter() - start < 10


def test_failure_exit_code_for_bad_term(capsys):
    for text in ("(a z)^w", "a)"):
        code, _, err = run(capsys, "member", EVEN, text)
        assert code == 1, text
        assert err, text


def test_cli_corpus_matches_the_data_files():
    def text(x):
        return json.dumps(x.to_json(), sort_keys=True)

    files = sorted(util.DATA.glob("*.json"))
    assert len(files) == len(cli._corpus()) == 6
    assert (sorted(map(text, cli._corpus().values()))
            == sorted(text(util.load(p.stem)) for p in files))


# -- determinism ----------------------------------------------------------


def test_reports_are_byte_identical_across_runs(capsys):
    first = run(capsys, "karoubi", EVEN)
    second = run(capsys, "karoubi", EVEN)
    assert first == second
    first = run(capsys, "check", "census-coherence", "--seed", "3")
    second = run(capsys, "check", "census-coherence", "--seed", "3")
    assert first == second


def test_reports_have_sorted_keys(capsys):
    _, out, _ = run(capsys, "zeta", GOLDEN, "--order", "4")
    keys = [line.split('"')[1] for line in out.splitlines()
            if line.startswith('  "')]
    assert keys == sorted(keys)


def _golden_reports():
    with open(util.GOLDEN_DIR / "cli_reports.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", _golden_reports(),
                         ids=lambda case: " ".join(case["argv"]))
def test_reports_match_golden_digests(capsys, tmp_path, case):
    """Exit code and stdout digest of one run per subcommand, pinned;
    *.json arguments name corpus files or the block maps written here."""
    maps = {"upsilon2.json": higher_block_map(AB, 2),
            "lambda2.json": lambda_first_letter(AB, 2)}
    for name, phi in maps.items():
        (tmp_path / name).write_text(json.dumps(block_map_to_json(phi)))
    argv = [str(tmp_path / a) if a in maps
            else str(util.DATA / a) if a.endswith(".json") else a
            for a in case["argv"]]
    code, out, _ = run(capsys, *argv)
    assert code == case["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == case["stdout_sha256"]


# -- check suites ---------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("check", "word-code-identities", "--seed", "1"),
    ("check", "zeta-integrality"),
    ("check", "census-coherence", "--seed", "2"),
    ("check", "mirage-preservation"),
    ("check", "flow-naturality"),
])
def test_check_suites_pass(capsys, argv):
    report = run_json(capsys, *argv)
    assert report["schema"] == "shiftcat/check/v1"
    assert report["passed"] is True
