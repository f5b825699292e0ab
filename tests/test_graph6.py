import random
import tracemalloc

import pytest
from hypothesis import given

from cliquedyn import Graph, complete_graph, cycle_graph, empty_graph
from cliquedyn.graph6 import (
    Graph6Error,
    decode,
    encode,
    read_edge_list,
    read_graph6_lines,
)

from oracles import decode_reference, encode_reference
from strategies import graphs


def test_k4_is_hand_encoded_value():
    # all six upper-triangle bits set: header chr(63+4), body chr(63+63)
    assert encode(complete_graph(4)) == "C~"
    assert decode("C~") == complete_graph(4)


def test_single_vertex_is_header_only():
    assert encode(empty_graph(1)) == "@"
    assert decode("@") == empty_graph(1)


def test_empty_graph_zero_vertices():
    assert decode(encode(empty_graph(0))) == empty_graph(0)


def test_header_variants():
    g = empty_graph(100)
    s = encode(g)
    assert s.startswith("~")
    assert decode(s) == g


@given(graphs())
def test_roundtrip_small(g):
    assert decode(encode(g)) == g


def test_roundtrip_random_up_to_100():
    rng = random.Random(7)
    for n in (0, 1, 2, 5, 10, 31, 62, 63, 64, 100):
        pairs = n * (n - 1) // 2
        g = Graph.from_upper_bits(n, rng.getrandbits(pairs) if pairs else 0)
        assert decode(encode(g)) == g


def test_roundtrip_many_random():
    rng = random.Random(20240917)
    for _ in range(1000):
        n = rng.randrange(0, 13)
        pairs = n * (n - 1) // 2
        g = Graph.from_upper_bits(n, rng.getrandbits(pairs) if pairs else 0)
        assert decode(encode(g)) == g


def _random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def test_encode_matches_the_bit_by_bit_reference():
    # every n from 0 to 70 crosses the switch to the 4-character header at 63
    rng = random.Random(20261020)
    for n in range(71):
        for p in (0.0, rng.random(), rng.random(), 1.0):
            g = _random_graph(rng, n, p)
            assert encode(g) == encode_reference(g)
            assert decode(encode(g)) == g
    g = _random_graph(rng, 300, 0.3)
    assert encode(g) == encode_reference(g)
    assert decode(encode(g)) == g


def _decoded_or_error(decoder, text: str):
    try:
        return decoder(text)
    except Graph6Error as err:
        return str(err), err.offset


def test_decode_matches_the_bit_by_bit_reference():
    # the encoder test's shapes: every n from 0 to 70, both header forms
    rng = random.Random(20261020)
    texts = []
    for n in range(71):
        for p in (0.0, rng.random(), rng.random(), 1.0):
            texts.append(encode(_random_graph(rng, n, p)))
    texts.append(encode(_random_graph(rng, 300, 0.3)))
    for text in texts:
        assert decode(text) == decode_reference(text)
        assert decode(">>graph6<<" + text + "\n") == decode_reference(text)


def test_decode_rejects_malformed_input_as_the_reference_does():
    k4 = encode(complete_graph(4))
    long = encode(empty_graph(70))
    cases = [
        "",
        "  \n",
        ">>graph6<<",
        "C",
        "C~~",
        k4 + chr(200),
        "C" + chr(62),
        "C" + chr(127),
        chr(62) + "~",
        "C~" + "\u20ac",
        "D~~",  # n = 5 has 10 bits: "~" sets both pad bits, "|" one, "{" none
        "D~|",
        "D~{",
        "~",
        "~?",
        "~??",
        "~??A",
        long[:-1],
        long + "?",
        "~~",
        "~~?????",
        "~~??????",
        "~~???????",
    ]
    valid = []
    for text in cases:
        got = _decoded_or_error(decode, text)
        assert got == _decoded_or_error(decode_reference, text), text
        if isinstance(got, Graph):
            valid.append(text)
    assert valid == ["D~{", "~~??????"]


def _peak_bytes(fn, g) -> int:
    tracemalloc.start()
    try:
        fn(g)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_encode_peak_memory_stays_near_the_per_character_list():
    # the old encoder's peak was its list of one 8-byte slot per output
    # character (3.26 MB, 9.8 bytes a character, on this input); the
    # column string costs n(n - 1)/2 bytes, twice while it is joined
    # (4.11 MB). Tracing the old encoder itself takes seconds, so the
    # bound is set from its list: twice its 8 bytes a character.
    rng = random.Random(2000)
    n = 2000
    g = Graph.from_edges(n, {tuple(sorted(rng.sample(range(n), 2))) for _ in range(20_000)})
    text = encode(g)
    assert len(text) == 4 + (n * (n - 1) // 2 + 5) // 6
    assert _peak_bytes(encode, g) < 2 * 8 * len(text)


def test_decode_rejects_bad_length():
    with pytest.raises(Graph6Error) as err:
        decode("C")  # promises 4 vertices but no body
    assert err.value.offset == 1


def test_decode_rejects_bad_char():
    with pytest.raises(Graph6Error) as err:
        decode("C" + chr(200))
    assert err.value.offset == 1


def test_decode_rejects_empty():
    with pytest.raises(Graph6Error):
        decode("")


def test_decode_skips_format_header():
    assert decode(">>graph6<<C~") == complete_graph(4)


def test_graph6_lines_roundtrip():
    gs = [complete_graph(3), cycle_graph(5), empty_graph(2)]
    text = "\n".join(encode(g) for g in gs) + "\n"
    assert read_graph6_lines(text) == gs


def test_edge_list_roundtrip():
    g = cycle_graph(5)
    text = "5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n"
    assert read_edge_list(text) == g


def test_edge_list_rejects_bad_header():
    with pytest.raises(ValueError):
        read_edge_list("5\n0 1\n")
    with pytest.raises(ValueError):
        read_edge_list("3 2\n0 1\n")


def test_edge_list_rejects_repeated_edge():
    # the header promises two edges; the second line repeats the first
    with pytest.raises(ValueError, match=r"^repeated edge \(0, 1\)$"):
        read_edge_list("3 2\n0 1\n1 0\n")
