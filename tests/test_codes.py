"""Block maps, word codes, centralization, composition, recodings."""

import itertools
import random

import pytest

import util
from shiftcat import codes
from shiftcat.codes import (BlockMap, CentralBlockMap,
                            apply_to_presentation, block_map_from_json,
                            block_map_to_json, centralize, compose,
                            higher_block_map, lambda_first_letter, word_code)
from shiftcat.errors import SizeLimit
from shiftcat.shifts import blocks
from shiftcat.words import Alphabet, Word, prefix_k, suffix_k

AB = Alphabet(("a", "b"))
BITS = Alphabet(("0", "1"))


def w(text, alphabet=AB):
    return Word.from_str(alphabet, text)


def random_block_map(rng, source=AB, target=AB, window=None):
    window = window or rng.randrange(1, 4)
    memory = rng.randrange(0, window)
    table = {win: rng.choice(target.symbols)
             for win in itertools.product(source.symbols, repeat=window)}
    return BlockMap(source, target, window, table, memory,
                    window - 1 - memory)


def test_xor_word_code():
    table = {("0", "0"): "0", ("0", "1"): "1",
             ("1", "0"): "1", ("1", "1"): "0"}
    psi = BlockMap(BITS, BITS, 2, table, 0, 1)
    assert word_code(psi, w("0110", BITS)).as_str() == "101"


def test_word_code_short_input_is_empty():
    table = {("a", "a", "a"): "a"}
    table = {win: "a" for win in itertools.product("ab", repeat=3)}
    psi = BlockMap(AB, AB, 3, table, 1, 1)
    assert len(word_code(psi, w("ab"))) == 0


def test_higher_block_map_shape_and_action():
    ups = higher_block_map(AB, 2)
    assert ups.window == 2
    assert ups.memory == 0 and ups.anticipation == 1
    img = word_code(ups, w("abab"))
    assert img.as_str() == "[ab][ba][ab]"
    ups3 = higher_block_map(AB, 3)
    assert (ups3.memory, ups3.anticipation) == (1, 1)


def test_block_symbols_over_multi_character_letters():
    # commas keep the blocks of "a" "aa" and "aa" "a" apart
    ups = higher_block_map(Alphabet(("a", "aa")), 2)
    assert ups.target.symbols == ("[aa]", "[a,aa]", "[aa,a]", "[aa,aa]")


def test_lambda_first_letter_inverts_higher_block():
    for n in (2, 3, 4):
        ups = higher_block_map(AB, n)
        lam = lambda_first_letter(AB, n)
        for tup in itertools.product("ab", repeat=n + 2):
            u = w("".join(tup))
            assert word_code(lam, word_code(ups, u)) == \
                Word(AB, u.letters[:len(u) - n + 1])


def test_centralize_preserves_sliding_action():
    rng = random.Random(5)
    for _ in range(30):
        phi = random_block_map(rng)
        cen = centralize(phi)
        k = cen.wing
        assert cen.inner.memory == cen.inner.anticipation == k
        for _ in range(20):
            u = w("".join(rng.choice("ab")
                          for _ in range(rng.randrange(cen.inner.window, 12))))
            full = word_code(phi, u)
            drop_front = k - phi.memory
            drop_back = k - phi.anticipation
            expected = Word(phi.target,
                            full.letters[drop_front:
                                         len(full) - drop_back or None])
            assert word_code(cen, u) == expected


def test_compose_is_sequential_application():
    rng = random.Random(9)
    for _ in range(20):
        c1 = centralize(random_block_map(rng))
        c2 = centralize(random_block_map(rng, source=c1.target))
        comp = compose(c1, c2)
        assert comp.wing == c1.wing + c2.wing
        for _ in range(25):
            u = w("".join(rng.choice("ab")
                          for _ in range(rng.randrange(1, 14))),
                  c1.source)
            assert word_code(comp, u) == word_code(c2, word_code(c1, u))


def test_tables_over_the_size_limit_are_refused(monkeypatch):
    table = random_block_map(random.Random(1), window=3).table
    c1 = centralize(BlockMap(AB, AB, 3, table, 1, 1))
    lopsided = BlockMap(AB, AB, 3, table, 0, 2)
    assert len(compose(c1, c1).inner.table) == 2 ** 5
    assert len(centralize(lopsided).inner.table) == 2 ** 5
    monkeypatch.setattr(codes, "_MAX_TABLE", 2 ** 5 - 1)
    with pytest.raises(SizeLimit, match="^more than 31 windows of length 5$"):
        compose(c1, c1)
    with pytest.raises(SizeLimit):
        centralize(lopsided)


def test_product_identities_on_words():
    rng = random.Random(11)
    for _ in range(10):
        phi = random_block_map(rng)
        cen = centralize(phi)
        n = phi.window
        k = cen.wing
        for _ in range(40):
            u = w("".join(rng.choice("ab") for _ in range(rng.randrange(9))))
            v = w("".join(rng.choice("ab") for _ in range(rng.randrange(9))))
            assert word_code(phi, u * v) == \
                word_code(phi, u * prefix_k(v, n - 1)) * word_code(phi, v)
            assert word_code(cen, u * v) == \
                word_code(cen, u * prefix_k(v, k)) \
                * word_code(cen, suffix_k(u, k) * v)


def test_apply_to_presentation_preserves_block_language():
    x = util.load("golden_mean")
    cen = centralize(higher_block_map(AB, 2))
    y = apply_to_presentation(cen, x)
    for n in range(1, 7):
        imgs = {word_code(cen.inner, u).as_str()
                for u in blocks(x, n + 2) if len(u) == n + 2}
        got = {u.as_str() for u in blocks(y, n) if len(u) == n}
        assert got == imgs, n


def test_apply_to_presentation_reads_the_codes_of_the_source_blocks():
    """On every corpus shift, strictly sofic ones included, and at wings
    0, 1 and 2, the image presentation reads exactly the word codes of
    the source blocks longer than 2k."""
    rng = random.Random(16)
    n = 4
    for path in sorted(util.DATA.glob("*.json")):
        x = util.load(path.stem)
        for k in (0, 1, 2):
            target = Alphabet(("0", "1", "2")[:rng.randint(1, 3)])
            table = {win: rng.choice(target.symbols) for win in
                     itertools.product(x.alphabet.symbols, repeat=2 * k + 1)}
            cen = CentralBlockMap(
                BlockMap(x.alphabet, target, 2 * k + 1, table, k, k), k)
            y = apply_to_presentation(cen, x)
            images = {word_code(cen, u) for u in blocks(x, n + 2 * k)
                      if len(u) > 2 * k}
            assert blocks(y, n) == images, (path.stem, k)


def test_apply_to_presentation_counts_its_paths_against_the_limit(
        monkeypatch):
    # full-2 on its two de Bruijn vertices has 16 paths of 3 edges
    x = util.load("full2")
    cen = centralize(higher_block_map(AB, 3))
    monkeypatch.setattr(codes, "_MAX_TABLE", 16)
    assert len(apply_to_presentation(cen, x).graph().edges) == 16
    monkeypatch.setattr(codes, "_MAX_TABLE", 15)
    with pytest.raises(SizeLimit, match="^more than 15 paths of 3 edges$"):
        apply_to_presentation(cen, x)


def test_block_map_json_roundtrip():
    rng = random.Random(3)
    for _ in range(10):
        phi = random_block_map(rng)
        assert block_map_from_json(block_map_to_json(phi)) == phi
    cen = centralize(higher_block_map(AB, 3))
    assert block_map_from_json(block_map_to_json(cen.inner)) == cen.inner


def test_block_map_json_refuses_a_bar_in_a_source_symbol():
    # "|" separates the letters of a multi-character table key
    with pytest.raises(ValueError, match="may not contain"):
        block_map_to_json(higher_block_map(Alphabet(("a|", "b")), 2))
    # nor read, before its keys are split at the bar
    with pytest.raises(ValueError, match="source symbols may not contain"):
        block_map_from_json({"window": 1, "source": ["a|", "b"],
                             "target": ["a", "b"],
                             "table": {"a|": "a", "b": "b"}})


def test_block_map_validation():
    with pytest.raises(ValueError):
        BlockMap(AB, AB, 2, {("a", "a"): "a"}, 0, 1)  # not total
    with pytest.raises(ValueError):
        BlockMap(AB, AB, 2,
                 {win: "a" for win in itertools.product("ab", repeat=2)},
                 1, 1)  # memory+anticipation+1 != window
    with pytest.raises(ValueError):
        CentralBlockMap(higher_block_map(AB, 2), 1)  # not central
