"""The benchmark's oracle on tiny networks whose answers are worked out by hand.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracle import (  # noqa: E402
    Location,
    Network,
    check_skyline,
    check_topk,
    facility_costs,
    skyline_ids,
    skyline_properties,
    topk_properties,
)


def diamond(facilities: dict[int, tuple[int, float]]) -> Network:
    """Nodes 0-1-2 along a cheap-time/dear-toll route, 0-3-2 along the reverse.

    Every edge is 10 long, so an offset of 5 is the edge's midpoint.
    """
    edges = {
        0: (0, 1, (1.0, 4.0), 10.0),
        1: (1, 2, (1.0, 4.0), 10.0),
        2: (0, 3, (3.0, 1.0), 10.0),
        3: (3, 2, (3.0, 1.0), 10.0),
    }
    return Network(2, edges, facilities)


def test_node_query_prices_facilities_through_the_nearer_end_node():
    network = diamond({10: (1, 5.0), 11: (3, 5.0)})
    vectors = facility_costs(network, Location(node=0))
    # f10 is halfway along 1-2: time 1 + 0.5, toll min(4 + 2, 2 + 2) via node 2.
    assert vectors[10] == pytest.approx((1.5, 4.0))
    # f11 is halfway along 3-2: time min(3 + 1.5, 2 + 1.5), toll 1 + 0.5.
    assert vectors[11] == pytest.approx((3.5, 1.5))
    assert skyline_ids(vectors) == {10, 11}


def test_a_dominating_facility_prunes_the_skyline():
    network = diamond({10: (1, 5.0), 11: (3, 5.0), 12: (0, 5.0)})
    vectors = facility_costs(network, Location(node=0))
    assert vectors[12] == pytest.approx((0.5, 2.0))
    assert skyline_ids(vectors) == {11, 12}


def test_on_edge_query_uses_partial_costs_and_the_direct_along_edge_route():
    network = diamond({12: (0, 5.0), 10: (1, 5.0)})
    query = Location(edge=0, offset=2.0)
    vectors = facility_costs(network, query)
    # Direct along edge 0 from offset 2 to offset 5: 3/10 of (1, 4).
    assert vectors[12] == pytest.approx((0.3, 1.2))
    # Time: 8/10 of edge 0 to node 1, then half of edge 1.  Toll: back to
    # node 0 (2/10 of 4), round 0-3-2 (1 + 1), then half of edge 1 (2).
    assert vectors[10] == pytest.approx((0.8 + 0.5, 0.8 + 2.0 + 2.0))
    assert network.distances(query, 0)[3] == pytest.approx(0.2 + 3.0)


def test_unreachable_facilities_are_infinite_and_never_skyline():
    network = Network(
        1,
        {0: (0, 1, (2.0,), 4.0), 1: (5, 6, (1.0,), 4.0)},
        {1: (0, 2.0), 2: (1, 2.0)},
    )
    vectors = facility_costs(network, Location(node=0))
    assert vectors[1] == (1.0,)
    assert vectors[2] == (float("inf"),)
    assert skyline_ids(vectors) == {1}
    components = network.component_of()
    assert network.reachable_facilities(Location(node=0), components) == 1


def test_equal_cost_vectors_are_both_skyline_members():
    network = diamond({20: (1, 5.0), 21: (1, 5.0), 11: (3, 5.0)})
    vectors = facility_costs(network, Location(node=0))
    assert vectors[20] == vectors[21]
    assert skyline_ids(vectors) == {20, 21, 11}
    reported = {fid: vectors[fid] for fid in (20, 21, 11)}
    assert check_skyline(reported, vectors) == []
    assert skyline_properties(reported, reachable=3) == []


def test_check_skyline_flags_missing_dominated_and_mispriced_members():
    network = diamond({10: (1, 5.0), 11: (3, 5.0), 12: (0, 5.0)})
    vectors = facility_costs(network, Location(node=0))
    assert check_skyline({12: vectors[12]}, vectors)  # 11 missing
    assert check_skyline({12: vectors[12], 11: vectors[11], 10: vectors[10]}, vectors)
    assert check_skyline({12: (0.5, 2.5), 11: vectors[11]}, vectors)
    # Components the program never computed are reported as None and accepted.
    assert check_skyline({12: (0.5, None), 11: (None, 1.5)}, vectors) == []


def test_topk_ties_at_the_boundary_accept_either_facility():
    network = diamond({20: (1, 5.0), 21: (1, 5.0), 12: (0, 5.0)})
    vectors = facility_costs(network, Location(node=0))
    weights = (1.0, 1.0)
    # f12 scores 2.5; f20 and f21 tie at 5.5 for the second place.
    for second in (20, 21):
        ranking = [(12, 2.5), (second, 5.5)]
        assert check_topk(ranking, vectors, weights, k=2) == []
        assert topk_properties(ranking, k=2, reachable=3) == []


def test_check_topk_flags_wrong_scores_order_and_length():
    network = diamond({10: (1, 5.0), 11: (3, 5.0), 12: (0, 5.0)})
    vectors = facility_costs(network, Location(node=0))
    weights = (1.0, 1.0)
    assert check_topk([(12, 2.5), (11, 5.0)], vectors, weights, k=2) == []
    assert check_topk([(12, 2.5), (10, 5.5)], vectors, weights, k=2)  # not the 2nd best
    assert check_topk([(12, 2.4), (11, 5.0)], vectors, weights, k=2)  # wrong score
    assert check_topk([(12, 2.5)], vectors, weights, k=2)  # too short
    assert topk_properties([(11, 5.0), (12, 2.5)], k=2, reachable=3)  # decreasing
    assert topk_properties([(12, 2.5)], k=2, reachable=3)  # min(k, reachable) = 2
    assert topk_properties([(12, 2.5)], k=2, reachable=1) == []


def test_skyline_properties_flag_mutual_dominance_and_empty_answers():
    assert skyline_properties({1: (1.0, 1.0), 2: (2.0, 2.0)}, reachable=2)
    assert skyline_properties({}, reachable=2)
    assert skyline_properties({}, reachable=0) == []
