"""End-to-end tests of the command-line interface: reports, exit codes,
determinism, and the named check suites."""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import pstats
import random
import re
import subprocess
import sys
import time
import tracemalloc

import pytest

import oracles
import util
from shiftcat import __version__, cli, flowops, shifts
from shiftcat.codes import (block_map_to_json, centralize,
                            higher_block_map, lambda_first_letter)
from shiftcat.errors import NonIntegralCoefficient
from shiftcat.flowops import classify_type, expand_shift
from shiftcat.pseudowords import (closure_membership, format_term,
                                  mirage_membership, parse_term,
                                  term_block_code)
from shiftcat.shifts import (ShiftPresentation, blocks, ordered_blocks,
                             periodic_counts)
from shiftcat.words import Alphabet, Word, word_from_json, word_to_json

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


# stdout buffered, as by default, so that a short report leaves in the
# flush after the command
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
ENV["PYTHONPATH"] = str(util.DATA.parent.parent / "src")


def fresh(argv, **kwargs):
    """A fresh `python -m shiftcat.cli` process, its output captured."""
    return subprocess.run([sys.executable, "-m", "shiftcat.cli", *argv],
                          capture_output=True, env=ENV, timeout=120, **kwargs)


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


def test_blocks_spells_its_report_without_words(capsys, monkeypatch):
    made = []
    init = Word.__init__

    def spy(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(Word, "__init__", spy)
    report = run_json(capsys, "blocks", str(util.DATA / "full2.json"),
                      "--order", "8")
    assert len(report["blocks"]) == 510
    assert made == []


def test_blocks_streams_its_report_in_bounded_memory(monkeypatch):
    # about 1.4 MiB when the report was built as one string, from a list
    # of pieces, from the list of every block
    class Sink:
        def write(self, text):
            return len(text)

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", Sink())
    tracemalloc.start()
    try:
        code = cli.main(["blocks", FULL2, "--order", "12"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1 << 20


def test_a_table_report_is_written_one_row_at_a_time(monkeypatch):
    # formatting the 1000 rows as one batch peaks at about 15 MiB
    written = hashlib.sha256()

    class Sink:
        def write(self, text):
            written.update(text.encode())

    report = {"table": [tuple(range(500))] * 1000}
    monkeypatch.setattr(sys, "stdout", Sink())
    tracemalloc.start()
    try:
        cli._emit(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert written.digest() == hashlib.sha256(
        (json.dumps(report, indent=2) + "\n").encode()).digest()


def test_member_bound_enumerates_no_blocks(capsys):
    # full-2 has 2^20 blocks of length 20 and golden-mean over 10^6 of
    # length 30, far above shifts._MAX_BLOCKS; (ab)^ω has two windows
    for path, bound in ((util.DATA / "full2.json", 20), (GOLDEN, 30)):
        report = run_json(capsys, "member", str(path), "(a b)^w",
                          "--bound", str(bound))
        assert report["mirage_membership"] == {
            str(k): True for k in range(1, bound + 1)}
    report = run_json(capsys, "member", EVEN, "(a)^w b (a)^w",
                      "--bound", "20")
    assert report["mirage_membership"] == {
        str(k): k < 3 for k in range(1, 21)}


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


def test_code_apply_takes_vertices_of_any_json_type(capsys, tmp_path):
    # path vertices hold the raw JSON vertices, which need not compare
    central = tmp_path / "central.json"
    central.write_text(json.dumps(block_map_to_json(higher_block_map(AB, 2))))
    for names in ([None, True], [0, "0"]):
        targets = []
        for verts in (names, ["p", "q"]):
            p, q = verts
            shift = tmp_path / "shift.json"
            shift.write_text(json.dumps(
                {"alphabet": ["a", "b"], "kind": "sofic", "vertices": verts,
                 "edges": [[p, "a", p], [p, "b", q], [q, "a", p],
                           [q, "b", q], [q, "a", q]]}))
            code, out, err = run(capsys, "code", "apply", str(central),
                                 str(shift))
            assert code == 0, err
            targets.append(ShiftPresentation.from_json(
                json.loads(out)["target"]))
        assert blocks(targets[0], 4) == blocks(targets[1], 4), names


def test_term_eval_builds_the_syntactic_semigroup_once(capsys, monkeypatch):
    from shiftcat import semigroups
    x = util.load("even")
    texts = ("(a b)^w", "(a)^w (b)^w", "(b)^(w+1) (a)^w")
    expected = [closure_membership(parse_term(x.alphabet, t), x)
                for t in texts]
    assert expected == [False, True, True]
    built = []
    build = semigroups.syntactic_semigroup
    monkeypatch.setattr(semigroups, "syntactic_semigroup",
                        lambda x: built.append(x) or build(x))
    for text, member in zip(texts, expected):
        report = run_json(capsys, "term", "eval", EVEN, text)
        assert report["closure_membership"] == report["in_accept"] == member
    assert len(built) == len(texts)


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


def test_flowcheck_refuses_too_many_pairs_at_once(capsys):
    # full-2 expanded at a has 172 idempotent terms up to length 9
    start = time.perf_counter()
    code, out, err = run(capsys, "flowcheck", FULL2, "--letter", "a",
                         "--bound", "9")
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == ("error: SizeLimit: 29584 pairs of idempotent terms "
                   "exceed 16384\n")


def test_flowcheck_refuses_exactly_above_the_pair_limit(capsys,
                                                        monkeypatch):
    # even expanded at a has 3 idempotent terms up to length 3: 9 pairs
    monkeypatch.setattr(flowops, "_MAX_PAIRS", 9)
    assert run_json(capsys, "flowcheck", EVEN, "--letter", "a",
                    "--bound", "3")["passed"] is True
    monkeypatch.setattr(flowops, "_MAX_PAIRS", 8)
    built = []
    monkeypatch.setattr(flowops, "syntactic_semigroup", built.append)
    monkeypatch.setattr(flowops, "connector", built.append)
    code, out, err = run(capsys, "flowcheck", EVEN, "--letter", "a",
                         "--bound", "3")
    assert (code, out, built) == (1, "", [])
    assert err == "error: SizeLimit: 9 pairs of idempotent terms exceed 8\n"


# a longer symbol: a word spelled as one string would be ambiguous
A_AA = {"alphabet": ["a", "aa"], "kind": "sft", "forbidden": [["aa", "a"]]}


def test_multi_character_blocks_are_spelled_symbol_by_symbol(capsys,
                                                              tmp_path):
    path = tmp_path / "a_aa.json"
    path.write_text(json.dumps(A_AA))
    blocks = [["a"], ["aa"], ["a", "a"], ["a", "aa"], ["aa", "aa"]]
    assert run_json(capsys, "blocks", str(path),
                    "--order", "2")["blocks"] == blocks
    code, out, _ = run(capsys, "blocks", str(path), "--order", "2",
                       "--format", "text")
    assert code == 0
    assert out.splitlines() == ["a", "aa", "a a", "a aa", "aa aa"]


def test_multi_character_factors_are_spelled_symbol_by_symbol(capsys,
                                                               tmp_path):
    path = tmp_path / "a_aa.json"
    path.write_text(json.dumps(A_AA))
    report = run_json(capsys, "term", "factors", str(path), "(a aa)^w",
                      "--bound", "2")
    assert report["factors"] == [
        {"word": ["a"], "is_block": True},
        {"word": ["aa"], "is_block": True},
        {"word": ["a", "aa"], "is_block": True},
        {"word": ["aa", "a"], "is_block": False}]


def test_multi_character_words_are_read_between_spaces(capsys, tmp_path):
    path = tmp_path / "no_aa_aa.json"
    path.write_text(json.dumps({"alphabet": ["a", "aa"], "kind": "sft",
                                "forbidden": [["aa", "aa"]]}))
    for text, is_block in (("a aa", True), ("aa aa", False)):
        report = run_json(capsys, "member", str(path), text)
        assert (report["word"], report["is_block"]) == (text.split(),
                                                        is_block)
    # the expansion at a writes a·aa as a o aa
    report = run_json(capsys, "classify", str(path), "a o aa", "--letter", "a")
    assert report["type"] == "ImageE"


def test_blocks_in_text_read_back_as_words(capsys, tmp_path):
    rng = random.Random(27)
    path = tmp_path / "x.json"
    for symbols in (("a", "b"), ("a", "b", "c"), ("a", "aa"),
                    ("[ab]", "[ba]", "b")):
        alphabet = Alphabet(symbols)
        for _ in range(4):
            # a word with another symbol than the first: a^∞ stays a point
            words = [tuple(rng.choice(symbols)
                           for _ in range(rng.randint(1, 3)))
                     for _ in range(rng.randint(0, 3))]
            x = ShiftPresentation.sft(alphabet, [
                Word(alphabet, w) for w in words if set(w) != {symbols[0]}])
            path.write_text(json.dumps(x.to_json()))
            code, out, err = run(capsys, "blocks", str(path), "--order", "3",
                                 "--format", "text")
            assert code == 0, err
            assert [Word.from_str(alphabet, line)
                    for line in out.splitlines()] == ordered_blocks(x, 3)


def test_multi_character_sft_round_trips(capsys, tmp_path):
    x = ShiftPresentation.from_json(A_AA)
    assert x.forbidden == (Word(x.alphabet, ("aa", "a")),)
    assert x.to_json() == A_AA
    path = tmp_path / "a_aa.json"
    path.write_text(json.dumps(x.to_json()))
    report = run_json(capsys, "blocks", str(path), "--order", "3")
    words = [word_from_json(x.alphabet, w) for w in report["blocks"]]
    assert words == ordered_blocks(x, 3)
    assert [word_to_json(w) for w in words] == report["blocks"]


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


def test_a_de_bruijn_graph_over_the_size_limit_is_refused(capsys,
                                                          monkeypatch,
                                                          tmp_path):
    # a^10 leaves all 2^9 = 512 words of length 9 as vertices, a^7 2^6
    monkeypatch.setattr(shifts, "_MAX_SIZE", 100)
    path = tmp_path / "runs.json"
    path.write_text(json.dumps({"alphabet": ["a", "b"], "kind": "sft",
                                "forbidden": ["a" * 10]}))
    for argv in (("blocks", "--order", "1"), ("zeta", "--order", "2"),
                 ("syntactic",), ("irreducible",)):
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (1, ""), argv
        assert err == "error: SizeLimit: de Bruijn graph over 100 vertices\n"
    path.write_text(json.dumps({"alphabet": ["a", "b"], "kind": "sft",
                                "forbidden": ["a" * 7]}))
    assert run_json(capsys, "blocks", str(path), "--order", "1")[
        "blocks"] == ["a", "b"]


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


def test_check_suites_report_their_failures(capsys, monkeypatch):
    from shiftcat import codes
    word_code = codes.word_code

    def broken(phi, u):
        # the window-1 inverse λ sends every word to the empty word
        return word_code(phi, u) if phi.window > 1 else Word(phi.target, ())
    monkeypatch.setattr(codes, "word_code", broken)
    code, out, err = run(capsys, "check", "word-code-identities",
                         "--seed", "1")
    report = json.loads(out)
    assert (code, err, report["passed"]) == (1, "", False)
    failure = report["details"]["failure"]
    assert sorted(failure) == ["n", "u", "v"] and failure["n"] == 2
    assert len(failure["v"]) == 1

    monkeypatch.setattr(shifts, "is_block", lambda x, w: False)
    code, out, err = run(capsys, "check", "mirage-preservation")
    report = json.loads(out)
    assert (code, err, report["passed"]) == (1, "", False)
    assert report["details"] == {"failure": "a"}


def test_missing_file_exit_code(capsys):
    code, out, err = run(capsys, "blocks", "no-such-file.json",
                         "--order", "2")
    assert code == 1
    assert "no such file" in err


INPUT = "<input.json>"
UPSILON2 = block_map_to_json(centralize(higher_block_map(AB, 2)).inner)
TERM = "(a)^w b (a)^w"
# the identity of window 3 over {a, b}, as a block map that composes
# with itself and applies to even
ID3 = {"window": 3, "source": ["a", "b"], "target": ["a", "b"],
       "memory": 1, "anticipation": 1,
       "table": {"".join(w): w[1] for w in itertools.product("ab", repeat=3)}}
DEEP = ('{"alphabet": ["a", "b"], "kind": "sft", "forbidden": '
        + "[" * 100_000 + "]" * 100_000 + "}")


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
    # a string is not read as the words "b" and "b"
    (["blocks", "--order", "2", "--format", "text", INPUT],
     {"alphabet": ["a", "b"], "kind": "sft", "forbidden": "bb"}),
    # nor an object as its keys, the word "b"
    (["blocks", "--order", "2", "--format", "text", INPUT],
     {"alphabet": ["a", "b"], "kind": "sft", "forbidden": [{"b": 1}]}),
    (["blocks", "--order", "2", INPUT],
     {"alphabet": [1, 2], "kind": "sft", "forbidden": []}),
    (["syntactic", INPUT], {"alphabet": [1, 2], "kind": "sft",
                            "forbidden": []}),
    # nor is a block map's alphabet read from a string
    (["code", "apply", INPUT, GOLDEN],
     {"window": 1, "source": "ab", "target": ["a", "b"],
      "table": {"a": "a", "b": "b"}}),
    (["code", "centralize", INPUT],
     {"window": 1, "source": ["a", "b"], "target": "ab",
      "table": {"a": "a", "b": "b"}}),
    (["code", "centralize", INPUT],
     {"window": 1, "source": ["a", "b"], "target": ["a", "b"],
      "table": [["a", "a"], ["b", "b"]]}),
    # window, memory and anticipation are exact integers: a float or a
    # bool is not read as one
    (["code", "compose", INPUT, INPUT], dict(ID3, window=3.0)),
    (["term", "code", INPUT, "abab"], dict(ID3, window=3.0)),
    (["code", "apply", INPUT, EVEN], dict(ID3, memory=1.0)),
    (["code", "compose", INPUT, INPUT], dict(ID3, memory=1.0)),
    (["code", "centralize", INPUT], dict(ID3, memory=1.0)),
    (["code", "centralize", INPUT], dict(ID3, anticipation=1.0)),
    (["code", "apply", INPUT, EVEN], {"inner": dict(ID3, window=3.0),
                                      "wing": 1}),
    (["code", "centralize", INPUT],
     {"window": True, "source": ["a", "b"], "target": ["a", "b"],
      "table": {"a": "a", "b": "b"}}),
    # a window far longer than the table's keys, and an empty table, are
    # refused before 2^window is computed
    (["code", "centralize", INPUT],
     {"window": 10**12, "source": ["a", "b"], "target": ["a", "b"],
      "table": {"a": "a", "b": "b"}}),
    (["code", "centralize", INPUT],
     {"window": 10**12, "source": ["a", "b"], "target": ["a", "b"],
      "table": {}}),
    # JSON text nested deeper than the parser's recursion limit
    *(pytest.param(command, DEEP, id=f"{command[0]}-deep")
      for command in (["zeta", INPUT, "--order", "2"],
                      ["blocks", INPUT, "--order", "2"],
                      ["code", "centralize", INPUT])),
])
def test_malformed_json_is_a_one_line_error(capsys, tmp_path, command, data):
    path = tmp_path / "input.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    code, out, err = run(capsys, *(str(path) if a == INPUT else a
                                   for a in command))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("window", [1, 2])
def test_a_bar_in_a_source_symbol_is_refused_on_reading(capsys, tmp_path,
                                                         window):
    path = tmp_path / "bar.json"
    path.write_text(json.dumps(
        {"window": window, "source": ["a|", "b"], "target": ["a", "b"],
         "table": {"|".join(w): w[0][0] for w in
                   itertools.product(["a|", "b"], repeat=window)}}))
    code, out, err = run(capsys, "code", "centralize", str(path))
    assert (code, out) == (1, "")
    assert err == "error: source symbols may not contain '|'\n"


# malformed inputs written to files; "<directory>" stands for a
# directory and "<even>" for the even shift
MALFORMED = {
    "<not-utf8>": b"\xff\xfe{}",
    "<truncated>": b'{"alphabet": ["a", "b"], "kind": ',
    "<no-alphabet>": b'{"kind": "sft", "forbidden": ["bb"]}',
    "<no-vertices>": b'{"alphabet": ["a"], "kind": "sofic", "edges": []}',
    "<no-table>": b'{"source": ["a"], "target": ["a"], "window": 1}',
    "<no-inner>": b'{"wing": 1}',
    # window 11 with memory 0: its central table would have 2^21 windows
    "<lopsided>": json.dumps({
        "window": 11, "source": ["a", "b"], "target": ["a", "b"],
        "memory": 0, "anticipation": 10,
        "table": {"".join(w): "a" for w in itertools.product("ab", repeat=11)},
    }).encode(),
}
FULL2 = str(util.DATA / "full2.json")


MALFORMED_ARGVS = [
    (["zeta", "<directory>", "--order", "3"], 1),
    (["code", "compose", "<directory>", "<even>"], 1),
    (["karoubi", "<not-utf8>"], 1),
    (["term", "code", "<not-utf8>", "a"], 1),
    (["green", "<truncated>"], 1),
    (["periodic", "<no-alphabet>", "--order", "2"], 1),
    (["expand", "<no-vertices>", "--letter", "a"], 1),
    (["code", "centralize", "<no-table>"], 1),
    (["code", "centralize", "<lopsided>"], 1),
    (["term", "code", "<no-inner>", "a"], 1),
    (["member", "<even>", "(ab"], 1),
    (["term", "eval", "<even>", "(a)^x"], 1),
    (["term", "factors", "<even>", "a )"], 1),
    (["classify", "<even>", "(ab)^w)", "--letter", "a"], 1),
    (["classify", "<even>", "ab", "--letter", "z"], 1),
    (["expand", "<even>", "--letter", "a", "--diamond="], 1),
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
]


@pytest.mark.parametrize("argv, expected", MALFORMED_ARGVS,
                         ids=lambda v: " ".join(v) if isinstance(v, list)
                         else str(v))
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


@pytest.mark.parametrize("argv", [
    ["blocks", EVEN, "--order", "0"], ["periodic", EVEN, "--order", "0"],
    ["zeta", EVEN, "--order", "0"], ["member", EVEN, "ab", "--bound", "0"],
    ["term", "factors", EVEN, "(a)^w", "--bound", "0"],
    ["flowcheck", EVEN, "--letter", "a", "--bound", "0"]],
    ids=lambda argv: " ".join(a for a in argv[:2] if a != EVEN))
def test_a_size_below_one_names_the_option(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {argv[-2]} must be positive\n"


def test_unreadable_path_names_the_path_and_the_reason(capsys, tmp_path):
    code, out, err = run(capsys, "zeta", str(tmp_path), "--order", "3")
    assert (code, out) == (1, "")
    assert err == f"error: cannot read {tmp_path}: Is a directory\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_blocks_over_the_size_limit_is_a_one_line_error(capsys, monkeypatch,
                                                        fmt):
    # refused before the first byte of the report is written
    monkeypatch.setattr(shifts, "_MAX_BLOCKS", 100)
    code, out, err = run(capsys, "blocks", FULL2, "--order", "40",
                         "--format", fmt)
    assert (code, out) == (1, "")
    assert err == ("error: SizeLimit: more than 100 blocks of length at "
                   "most 40\n")


@pytest.mark.parametrize("argv", [
    ("member", str(util.DATA / "full2.json"), "(a b)^w"),
    ("term", "factors", str(util.DATA / "full2.json"), "(a b)^w")])
def test_a_large_bound_is_refused_before_unrolling(capsys, argv):
    # (a b)^w would unroll to 2·10^8 letters
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--bound", "100000000")
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == ("error: SizeLimit: unrolling to 200000004 letters at "
                   "level 100000000: letters times level exceeds 4000000\n")


def test_code_apply_over_the_size_limit_is_a_one_line_error(capsys,
                                                           tmp_path):
    """Eight vertices joined every way by a, at wing 2, have 8^6 paths
    of 5 edges; they are counted and refused before any is built."""
    verts = [str(i) for i in range(8)]
    shift = tmp_path / "complete.json"
    shift.write_text(json.dumps(
        {"alphabet": ["a"], "kind": "sofic", "vertices": verts,
         "edges": [[s, "a", d] for s in verts for d in verts]}))
    central = tmp_path / "central.json"
    central.write_text(json.dumps(
        {"inner": {"window": 5, "source": ["a"], "target": ["a"],
                   "memory": 2, "anticipation": 2,
                   "table": {"aaaaa": "a"}},
         "wing": 2}))
    start = time.perf_counter()
    code, out, err = run(capsys, "code", "apply", str(central), str(shift))
    assert (code, out) == (1, "")
    assert err == "error: SizeLimit: more than 65536 paths of 5 edges\n"
    assert time.perf_counter() - start < 10


def test_huge_exponent_offsets_run_in_bounded_work(capsys):
    start = time.perf_counter()
    assert run(capsys, "member", EVEN, "(a)^(w+99999999999)")[0] == 0
    assert run(capsys, "classify", EVEN, "(ao)^(w+99999999999)",
               "--letter", "a")[0] == 0
    assert time.perf_counter() - start < 10


def test_term_code_on_a_long_term_runs_in_linear_work(capsys, tmp_path):
    central = tmp_path / "central.json"
    cen = centralize(higher_block_map(AB, 2))
    central.write_text(json.dumps(
        {"inner": block_map_to_json(cen.inner), "wing": cen.wing}))
    rng = random.Random(3)
    parts = []
    for i in range(20000):
        letters = "".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))
        parts.append(f"({letters})^(w{rng.randint(-2, 2):+d})" if i % 2
                     else letters)
    start = time.perf_counter()
    assert run(capsys, "term", "code", str(central), " ".join(parts))[0] == 0
    assert time.perf_counter() - start < 10


def test_classify_on_a_long_word_runs_in_linear_work(capsys):
    word = "aobb" * 48000                   # 192 KB, type ImageE
    start = time.perf_counter()
    code, out, err = run(capsys, "classify", EVEN, word, "--letter", "a")
    assert code == 0, err
    assert json.loads(out)["type"] == "ImageE"
    assert time.perf_counter() - start < 10


def test_a_long_chain_into_one_loop_is_trimmed_in_linear_work(capsys,
                                                              tmp_path):
    # 20000 vertices, 0.65 MB: deleting the chain's head once per pass
    # over every edge took minutes
    n = 20000
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps(
        {"alphabet": ["a", "b"], "kind": "sofic",
         "vertices": [str(i) for i in range(n)],
         "edges": [[str(i), "a", str(i + 1)] for i in range(n - 1)]
         + [[str(n - 1), "b", str(n - 1)]]}))
    start = time.perf_counter()
    assert run_json(capsys, "irreducible", str(chain))["irreducible"]
    assert run_json(capsys, "blocks", str(chain), "--order", "1")[
        "blocks"] == ["b"]
    assert time.perf_counter() - start < 10


def test_term_code_reads_a_term_too_long_for_argv_from_stdin(tmp_path):
    central = tmp_path / "central.json"
    cen = centralize(higher_block_map(AB, 2))
    central.write_text(json.dumps(
        {"inner": block_map_to_json(cen.inner), "wing": cen.wing}))
    rng = random.Random(5)
    parts = []
    for i in range(22000):
        letters = "".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))
        parts.append(f"({letters})^(w{rng.randint(-2, 2):+d})" if i % 2
                     else letters)
    text = " ".join(parts) + "\n"
    assert len(text.encode()) > 140_000       # over Linux's 128 KiB argv cap
    report = pipe(["term", "code", str(central), "-"], text)
    term = parse_term(cen.source, text)
    assert report["term"] == format_term(term)
    assert report["image"] == format_term(term_block_code(cen, term))


def pipe(argv, text):
    """The JSON report of a fresh `shiftcat` process with text on stdin."""
    proc = fresh(argv, input=text.encode())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_member_and_classify_read_a_term_too_long_for_argv_from_stdin():
    rng = random.Random(8)
    parts = []
    for i in range(22000):
        letters = "".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))
        parts.append(f"({letters})^(w{rng.randint(-2, 2):+d})" if i % 2
                     else letters)
    text = " ".join(parts) + "\n"
    assert len(text.encode()) > 140_000
    x = util.load("even")
    term = parse_term(x.alphabet, text)
    report = pipe(["member", EVEN, "-"], text)
    assert report["term"] == format_term(term)
    assert report["closure_membership"] == closure_membership(term, x)
    assert report["mirage_membership"] == {
        str(k): mirage_membership(term, x, k) for k in range(1, 5)}

    # units that start after an a of the expansion and end in one, so
    # that every factor of length 2 is a block of the expanded shift
    units = ["(o b b a)^w", "o b b a", "(o a)^w", "o a",
             "(o b b b b a)^(w+1)", "o b b b b a"]
    text = " ".join(rng.choice(units) for _ in range(14000)) + "\n"
    assert len(text.encode()) > 140_000
    ctx = expand_shift(x, "a")
    report = pipe(["classify", EVEN, "-", "--letter", "a"], text)
    assert report["input"] == text.strip()
    assert report["type"] == classify_type(
        parse_term(ctx.target.alphabet, text), ctx)


def test_member_reads_a_word_from_stdin(capsys, monkeypatch):
    for word, is_block in (("abba", True), ("aba", False)):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
            io.BytesIO(f"{word}\n".encode())))
        report = run_json(capsys, "member", EVEN, "-")
        assert (report["word"], report["is_block"]) == (word, is_block)



BLOCKS14 = ["blocks", FULL2, "--order", "14"]
SHORT = ["zeta", EVEN, "--order", "3"]


@pytest.mark.parametrize("argv, closed", [
    # about 0.5 MB of blocks, more than a pipe holds, so the write that
    # finds the pipe closed happens inside the subcommand
    pytest.param([*BLOCKS14, "--format", "text"], "after 10 bytes", id="text"),
    pytest.param([*BLOCKS14, "--format", "json"], "after 10 bytes", id="json"),
    # a short report waits in the buffer for the flush after the command
    pytest.param(SHORT, "before the first byte", id="short"),
    # started with stdout closed (`>&-`), so that sys.stdout is None
    pytest.param(SHORT, "at start", id="closed-at-start"),
])
def test_a_closed_stdout_is_a_one_line_error(argv, closed):
    command = [sys.executable, "-m", "shiftcat.cli", *argv]
    if closed == "at start":
        proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *command],
                              stderr=subprocess.PIPE, env=ENV, timeout=60)
        code, err = proc.returncode, proc.stderr.decode()
    elif closed == "before the first byte":
        read, write = os.pipe()
        os.close(read)
        with subprocess.Popen(command, stdout=write, stderr=subprocess.PIPE,
                              env=ENV) as proc:
            os.close(write)
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
    else:
        with subprocess.Popen(command, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=ENV) as proc:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
    assert code == 1
    assert err == "error: stdout was closed before the report was written\n"


def test_a_fresh_process_writes_the_whole_report(capsys):
    proc = fresh(BLOCKS14)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert len(proc.stdout) > 500_000
    assert proc.stdout == run(capsys, *BLOCKS14)[1].encode()


@pytest.mark.parametrize("argv, expected", [
    (SHORT, 0), (["blocks", "no-such-file.json", "--order", "2"], 1),
    (["zeta", "<empty>", "--order", "3"], 2), (["no-such-command"], 64)],
    ids=["ok", "missing-file", "empty-shift", "usage"])
def test_a_fresh_process_ends_as_main_returns(capsys, tmp_path, argv,
                                              expected):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps(ShiftPresentation.sft(AB, ["a", "b"])
                                .to_json()))
    argv = [str(empty) if a == "<empty>" else a for a in argv]
    proc = fresh(argv)
    assert proc.returncode == expected
    assert len(proc.stderr.splitlines()) == (expected != 0)
    assert ((expected, proc.stdout.decode(), proc.stderr.decode())
            == run(capsys, *argv))


def test_a_process_ends_without_the_interpreter_teardown():
    # an atexit hook runs in the teardown, which the process skips
    code = ("import atexit, sys; atexit.register(print, 'teardown'); "
            "sys.argv[1:] = ['--version']; "
            "from shiftcat.cli import run; run()")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert (proc.stdout, proc.stderr) == (f"{__version__}\n".encode(), b"")


def test_a_profiled_process_still_writes_its_profile(tmp_path):
    # cProfile writes its file once the module returns, at the normal exit
    prof = tmp_path / "zeta.prof"
    proc = subprocess.run([sys.executable, "-m", "cProfile", "-o", str(prof),
                           "-m", "shiftcat.cli", *SHORT],
                          capture_output=True, env=ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["order"] == 3
    functions = {fn for _, _, fn in pstats.Stats(str(prof)).stats}
    assert "cmd_zeta" in functions


def test_a_term_on_stdin_that_is_not_utf8_is_a_one_line_error(
        capsys, monkeypatch, tmp_path):
    central = tmp_path / "central.json"
    central.write_text(json.dumps(block_map_to_json(higher_block_map(AB, 2))))
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"a\xff")))
    code, out, err = run(capsys, "term", "code", str(central), "-")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["member", EVEN, "-"],
                                  ["classify", EVEN, "-", "--letter", "a"]],
                         ids=lambda argv: argv[0])
def test_a_text_on_stdin_that_is_not_utf8_is_a_one_line_error(
        capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"a\xff")))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_failure_exit_code_for_bad_term(capsys):
    for text in ("(a z)^w", "a)"):
        code, _, err = run(capsys, "member", EVEN, text)
        assert code == 1, text
        assert err, text


def test_cli_corpus_matches_the_data_files():
    # each shift against its own file: golden-mean is golden_mean.json
    corpus = cli._corpus()
    assert (sorted(p.stem for p in util.DATA.glob("*.json"))
            == sorted(util.CORPUS))
    assert ([name.replace("-", "") for name in corpus]
            == [stem.replace("_", "") for stem in util.CORPUS])
    for x, stem in zip(corpus.values(), util.CORPUS):
        assert x.to_json() == util.load(stem).to_json(), stem


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


def test_flowcheck_work_does_not_depend_on_the_hash_seed():
    # the automaton rows of one in-process flowcheck, counted, under
    # three hash seeds
    script = """
import sys
from shiftcat import cli, shifts
calls = []
def spy(*args, _f=shifts.SubsetAutomaton.row):
    calls.append(1)
    return _f(*args)
shifts.SubsetAutomaton.row = spy
code = cli.main(sys.argv[1:])
print(code, len(calls), file=sys.stderr)
"""
    argv = ["flowcheck", str(util.DATA / "full2.json"), "--letter", "a",
            "--bound", "4"]
    runs = []
    for seed in ("0", "1", "2"):
        proc = subprocess.run([sys.executable, "-c", script, *argv],
                              capture_output=True, timeout=120,
                              env={**ENV, "PYTHONHASHSEED": seed})
        runs.append((proc.stdout, proc.stderr))
    assert runs[0][1].split()[0] == b"0", runs[0][1]
    assert runs[0] == runs[1] == runs[2], [err for _, err in runs]


def test_no_subcommand_builds_the_whole_subset_dfa(capsys, monkeypatch):
    # every block query reads the presentation's own subset automaton
    def unused(*args):
        raise AssertionError("subset_dfa called")

    monkeypatch.setattr(shifts, "subset_dfa", unused)
    for path in sorted(util.DATA.glob("*.json")):
        shift = str(path)
        for argv in (("zeta", shift, "--order", "6"), ("syntactic", shift),
                     ("karoubi", shift), ("member", shift, "ab"),
                     ("member", shift, "(a b)^w", "--bound", "4"),
                     ("blocks", shift, "--order", "6"),
                     ("irreducible", shift),
                     ("expand", shift, "--letter", "a"),
                     ("flowcheck", shift, "--letter", "a", "--bound", "3")):
            code, _, err = run(capsys, *argv)
            assert code == 0, (argv, err)


def test_flowcheck_builds_one_subset_automaton_per_shift(capsys,
                                                         monkeypatch):
    # the expansion certificate interns the source's and the target's
    # states; the mirage windows, the idempotent terms and the target's
    # syntactic semigroup read the same target automaton
    built = []
    init = shifts.SubsetAutomaton.__init__
    monkeypatch.setattr(shifts.SubsetAutomaton, "__init__",
                        lambda self, *args: built.append(args) or
                        init(self, *args))
    report = run_json(capsys, "flowcheck", str(util.DATA / "full2.json"),
                      "--letter", "a", "--bound", "4")
    assert report["passed"] is True
    assert [a.symbols for _, a in built] == [("a", "b"), ("a", "b", "o")]


# -- the JSON reader and the negative-number test --------------------------


JSON_SPACE = ["", " ", "\n", "\t", "\r\n  "]
JSON_SCALARS = ["0", "-0", "12", "-7", "1.5", "-2e-3", "1E+400", "6.02e23",
                "NaN", "Infinity", "-Infinity", "true", "false", "null"]
JSON_CHARS = ["a", "é", "😀", "\\n", "\\t", "\\u00e9", "\\ud83d\\ude00",
              "\\u2028", '\\"', "\\\\", "\\/", "\\b\\f\\r"]


def random_json_text(rng: random.Random, depth: int = 0) -> str:
    """A JSON text with white space around each token: nested containers,
    escapes, non-ASCII text, big ints, NaN and ±Infinity, and objects
    that repeat a key."""
    def ws():
        return rng.choice(JSON_SPACE)

    def string():
        return '"' + "".join(rng.choice(JSON_CHARS)
                             for _ in range(rng.randrange(4))) + '"'

    kind = rng.randrange(5 if depth < 4 else 3)
    if kind == 0:
        return rng.choice([*JSON_SCALARS,
                           str(rng.randrange(-10**40, 10**40))])
    if kind == 1:
        return string()
    if kind == 2:
        return rng.choice(JSON_SCALARS)
    n = rng.randrange(5)
    if kind == 3:
        items = [ws() + random_json_text(rng, depth + 1) + ws()
                 for _ in range(n)]
        return "[" + ",".join(items) + "]" if items else "[" + ws() + "]"
    keys = [string() for _ in range(n)]
    keys += rng.sample(keys, min(n, 2))          # repeated keys: last wins
    items = [f"{ws()}{k}{ws()}:{ws()}{random_json_text(rng, depth + 1)}{ws()}"
             for k in keys]
    return "{" + ",".join(items) + "}" if items else "{" + ws() + "}"


def test_the_reader_reads_what_json_load_does(tmp_path):
    rng = random.Random(0)
    paths = sorted(util.DATA.glob("*.json")) + sorted(
        util.GOLDEN_DIR.glob("*.json"))
    for i in range(300):
        path = tmp_path / f"{i}.json"
        path.write_text(rng.choice(JSON_SPACE) + random_json_text(rng)
                        + rng.choice(JSON_SPACE), encoding="utf-8")
        paths.append(path)
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            expected = json.load(fh)
        # repr tells 1 from 1.0 and shows nan, which equals nothing
        assert repr(cli._load_json(str(path))) == repr(expected), path


@pytest.mark.parametrize("text", [
    '{"alphabet": ["a", "b"], "kind": ', '{"a": 1} x', "[1]\n]",
    "\ufeff{}", '["a\x01b"]', "", " \n\t", "[1,]", "{'a': 1}", "[1 2]",
    "[" * 5 + "]" * 4, '"\\x"', "nan", "1" * 5000],
    ids=["truncated", "extra-data", "extra-bracket", "bom", "raw-control",
         "empty", "white-space", "trailing-comma", "single-quotes",
         "no-comma", "unclosed", "bad-escape", "lower-nan", "long-int"])
def test_malformed_json_gets_the_message_json_gives(capsys, tmp_path, text):
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    try:
        json.loads(text)
    except json.JSONDecodeError as e:
        expected = f"{path}:{e.lineno}:{e.colno}: {e.msg}"
    except ValueError as e:                   # over int's digit limit
        expected = str(e)
    argv = ["zeta", str(path), "--order", "2"]
    assert run(capsys, *argv) == (1, "", f"error: {expected}\n")
    # a fresh process, where the json package is not loaded yet
    proc = fresh(argv)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.decode() == f"error: {expected}\n"


NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")     # argparse's


@pytest.mark.parametrize("tok", [
    "-1", "-1\n", "-1\n\n", "-\n", "-.5", "-.5\n", "-1.", "-1.5", "-1.5.5",
    "-", "-.", "-١٢", "-١.٢", "-²", "-1²", "-1a", "-a", "--1", "-1 ", "-0"])
def test_the_negative_number_test_is_argparses(tok):
    assert cli._negative_number(tok) == bool(NEGATIVE_NUMBER.match(tok))
    # a negative number is read as a positional, as argparse reads it
    assert (cli._option(tok, ("--order",)) is None) == (
        bool(NEGATIVE_NUMBER.match(tok)) or tok == "-" or " " in tok)


# -- the report writer ----------------------------------------------------


class Lazy(list):
    """A list that _emit is handed as a generator, as `blocks` hands it
    the spelled blocks."""


STRINGS = ["", "a", "ab|c", "é", "\n\t", "\x00\x1f\x7f", "\u2028", "😀",
           '"q"', "\\"]


def random_value(rng: random.Random, depth: int = 0):
    n = rng.choice([0, 1, 2, 5, 9])
    kind = rng.randrange(8 if depth < 3 else 1)
    if kind == 0:
        return rng.choice([0, -1, 2**70, -(3**50), rng.randrange(-99, 99),
                           True, False, None, 0.5, -2.0, *STRINGS])
    if kind == 1:                    # ints, now and then a bool among them
        v = [rng.randrange(-10**20, 10**20) for _ in range(n)]
        if v and rng.random() < 0.3:
            v[rng.randrange(n)] = rng.choice([True, False])
        return v
    if kind == 2:
        return [rng.choice(STRINGS) for _ in range(n)]
    if kind == 3:                    # rows: equal, ragged, empty, tuples
        width = rng.randrange(4)
        rows = [[rng.randrange(-5, 300) for _ in range(width)]
                for _ in range(n)]
        if rows and rng.random() < 0.3:
            rows[0].append(1)
        if rows and width and rng.random() < 0.3:
            rows[-1][0] = True
        return [tuple(r) if rng.random() < 0.5 else r for r in rows]
    items = [random_value(rng, depth + 1) for _ in range(n)]
    if kind == 4:
        return tuple(items)
    if kind == 5:
        return Lazy(items)
    if kind == 6:
        return dict(zip(rng.sample(range(-50, 50), n), items))
    return {f"{rng.choice(STRINGS)}{i}": v for i, v in enumerate(items)}


def thaw(v):
    """v with each Lazy list made a generator."""
    if isinstance(v, Lazy):
        return (thaw(item) for item in v)
    if isinstance(v, dict):
        return {k: thaw(item) for k, item in v.items()}
    if isinstance(v, (list, tuple)):
        return type(v)(map(thaw, v))
    return v


@pytest.mark.parametrize("batch", [1, 3, cli._BATCH])
def test_the_report_writer_writes_what_json_dumps_does(capsys, monkeypatch,
                                                       batch):
    monkeypatch.setattr(cli, "_BATCH", batch)
    rng = random.Random(batch)
    x = util.load("even")
    cases = [({}, {}), ([], []),
             ({"blocks": (b for b in ())}, {"blocks": []}),
             ({"blocks": shifts.spell_blocks(x, 6, ("a", "b"), "")},
              {"blocks": list(shifts.spell_blocks(x, 6, ("a", "b"), ""))})]
    cases += [(thaw(v), v) for v in (random_value(rng) for _ in range(400))]
    # an int row beside a row holding one value of each other kind
    odd = [2.5, 1e16, float("nan"), -float("inf"), True, None, "e", "7",
           [7], [], (8,), {"k": 9}, Lazy([1]), -(2**70)]
    cases += [(thaw(v), v) for v in ([[0, 0], [13, x]] for x in odd)]
    for given, expected in cases:
        cli._emit(given)
        assert capsys.readouterr().out == json.dumps(
            expected, indent=2, sort_keys=True) + "\n", expected


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


# -- the command table against argparse --------------------------------

PARSE_EDGES = [
    ["blocks", "--ord", "3", "x.json"],
    ["blocks", "--order=2", "--format=text", "x.json"],
    ["flowcheck", "x.json", "--l", "a", "--b=2", "--s", "7", "--d=q"],
    ["lu-poset", "x.json", "--c", "all", "--f=dot"],
    ["expand", "--letter", "a", "--format", "dot", "x.json"],
    ["blocks", "x.json", "--order", "2", "--order", "3"],
    ["term", "code", "m.json", "-", "--bound", "2"],
    ["member", "x.json", "-", "--bound=-1"],
    ["member", "x.json", "(a)^w", "--bound", "-1"],
    ["zeta", "-", "--order", "-2"],
    ["expand", "x.json", "--letter", "-1", "--diamond="],
    ["member", "x.json", "- a"],
    ["code", "apply", "c.json", "x.json"],
    ["code", "centralize", "c.json"],
    ["blocks", "--order", "2", "--", "-x.json"],
    ["zeta", "x.json", "--order", "3", "--bogus"],
    ["--bogus", "zeta", "x.json", "--order", "3"],
    ["code", "apply", "c.json", "--bogus", "x.json"],
    ["irreducible", "a.json", "b.json", "--bogus"],
    ["member", "x.json", "-ab"],
    ["zeta", "x.json"],
    ["classify", "x.json", "ab"],
    ["blocks"],
    [],
    ["bogus"],
    ["--", "zeta", "x.json"],
    ["code", "bogus", "c.json"],
    ["lu-poset", "x.json", "--carrier", "none"],
    ["blocks", "x.json", "--order", "two"],
    ["check", "census-coherence", "--seed", "1.5"],
    ["zeta", "x.json", "--order"],
    ["zeta", "x.json", "--order", "--", "3"],
    ["expand", "x.json", "--letter", "--format", "dot"],
    ["--help=x"],
    ["zeta", "x.json", "--order", "3", "-hx"],
    # argparse's top level reads these first, against -h and --version
    ["blocks", "x.json", "--=1"],
    ["flowcheck", "x.json", "--letter", "a", "--="],
]


def _argvs_to_compare():
    return ([case["argv"] for case in _golden_reports()]
            + [argv for argv, _ in MALFORMED_ARGVS] + PARSE_EDGES)


@pytest.mark.parametrize("argv", _argvs_to_compare(), ids=" ".join)
def test_the_command_table_parses_as_argparse_did(capsys, argv):
    try:
        expected = vars(oracles.argparse_parser(__version__).parse_args(argv))
    except SystemExit as ex:
        expected = (ex.code, capsys.readouterr().err)
    try:
        got = vars(cli._parse(argv))
    except cli._UsageError:
        code, out, err = run(capsys, *argv)
        assert out == ""
        got = (code, err)
    else:
        func = got.pop("func")
        assert func is getattr(cli, "cmd_" + got["command"].replace("-", "_"))
    assert got == expected


def test_help_lists_every_command_and_option(capsys):
    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "")
    assert run(capsys, "-h")[1] == out
    commands = (oracles.argparse_parser(__version__)
                ._subparsers._group_actions[0].choices)
    assert list(commands) == list(cli._COMMANDS)
    for name, parser in commands.items():
        assert f"\n  {name} " in out
        code, text, err = run(capsys, name, "--help")
        assert (code, err) == (0, "")
        assert text.startswith(f"usage: shiftcat {name} [-h] ")
        assert run(capsys, name, "-h")[1] == text
        for option in parser._option_string_actions:
            assert f" {option}" in text, (name, option)


def test_version(capsys):
    assert run(capsys, "--version") == (0, f"{__version__}\n", "")
    assert run(capsys, "--vers", "zeta") == (0, f"{__version__}\n", "")


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
