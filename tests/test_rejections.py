"""Every input is answered or rejected with a typed error: the rejections
that the rest of the suite does not reach."""

import io

import pytest

from minclique import (
    CapacityError,
    ComposeInput,
    Graph,
    Graph6Error,
    IntInterval,
    InvalidVertexError,
    chromatic_gap,
    circulant,
    complete_graph,
    compose_alpha2,
    join,
    parse_graph6,
    q_bounded_s,
    serialize_graph6,
)
from minclique.cli import main
from minclique.intervals import interval_max
from minclique.oracle import count_graphs


@pytest.mark.parametrize("call, error", [
    (lambda: parse_graph6("~~??????"), Graph6Error),  # beyond the long form
    (lambda: parse_graph6("~?"), Graph6Error),  # truncated long-form count
    (lambda: parse_graph6("Bx"), Graph6Error),  # nonzero padding
    (lambda: Graph(2, (1,)), InvalidVertexError),  # one row for two vertices
    (lambda: join([]), ValueError),
    (lambda: join([complete_graph(40), complete_graph(40)]), CapacityError),
    (lambda: q_bounded_s(0, 1), ValueError),
    (lambda: q_bounded_s(3, 0), ValueError),
    (lambda: chromatic_gap(-1), ValueError),
    (lambda: IntInterval(2, 1), ValueError),
    (lambda: interval_max(), ValueError),
    (lambda: count_graphs(9), CapacityError),
    (lambda: compose_alpha2(ComposeInput.build(complete_graph(40), complete_graph(30))),
     CapacityError),
    (lambda: ComposeInput.build(circulant(5, {1}), circulant(5, {1}), (0, 7)), InvalidVertexError),
], ids=["g6-huge", "g6-short-count", "g6-padding", "rows", "join-empty", "join-capacity",
        "q-k0", "q-s0", "gap-n0", "interval-empty", "max-empty",
        "census-n9", "compose-capacity", "compose-vertex"])
def test_input_is_rejected_with_typed_error(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("first, second, flags, message", [
    (complete_graph(40), complete_graph(30), (), "composition needs 100 vertices, limit 64"),
    (circulant(5, {1}), circulant(5, {1}), ("--clique1", "0,7"), "vertex 7 outside 0..4"),
    (circulant(5, {1}), circulant(5, {1}), ("--clique1", "0,2"), "clique1 (0, 2) is not a clique"),
    (circulant(5, {1}), circulant(5, {1}), ("--clique1", "0,0"), "clique1 (0, 0) is not a clique"),
], ids=["capacity", "vertex", "non-adjacent", "repeated"])
def test_compose_command_rejects(tmp_path, first, second, flags, message):
    paths = []
    for name, g in (("a.g6", first), ("b.g6", second)):
        paths.append(tmp_path / name)
        paths[-1].write_text(serialize_graph6(g) + "\n")
    out, err = io.StringIO(), io.StringIO()
    assert main(["compose", *map(str, paths), *flags], out=out, err=err) == 2
    assert out.getvalue() == "" and err.getvalue() == f"error: {message}\n"
