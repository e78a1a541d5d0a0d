"""Every input is answered or rejected with a typed error: the rejections
that the rest of the suite does not reach."""

import pytest

from minclique import (
    CapacityError,
    Graph,
    Graph6Error,
    IntInterval,
    InvalidVertexError,
    chromatic_gap,
    complete_graph,
    is_k_colorable,
    join,
    parse_graph6,
    q_bounded_s,
)
from minclique.intervals import interval_max
from minclique.oracle import verify_clique_formula


@pytest.mark.parametrize("call, error", [
    (lambda: parse_graph6("~~??????"), Graph6Error),  # beyond the long form
    (lambda: parse_graph6("~?"), Graph6Error),  # truncated long-form count
    (lambda: parse_graph6("Bx"), Graph6Error),  # nonzero padding
    (lambda: Graph(2, (1,)), InvalidVertexError),  # one row for two vertices
    (lambda: join([]), ValueError),
    (lambda: join([complete_graph(40), complete_graph(40)]), CapacityError),
    (lambda: q_bounded_s(0, 1), ValueError),
    (lambda: q_bounded_s(3, 0), ValueError),
    (lambda: is_k_colorable(complete_graph(3), -1), ValueError),
    (lambda: chromatic_gap(0), ValueError),
    (lambda: IntInterval(2, 1), ValueError),
    (lambda: interval_max(), ValueError),
    (lambda: verify_clique_formula(9), CapacityError),
], ids=["g6-huge", "g6-short-count", "g6-padding", "rows", "join-empty", "join-capacity",
        "q-k0", "q-s0", "colors-negative", "gap-n0", "interval-empty", "max-empty",
        "census-n9"])
def test_input_is_rejected_with_typed_error(call, error):
    with pytest.raises(error):
        call()
