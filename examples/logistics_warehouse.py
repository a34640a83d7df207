"""Logistics scenario: choosing warehouse sites reachable from a port.

This reproduces the paper's motivating example (Section I) at city scale: a
port must dispatch both time-sensitive goods (dairy) and cost-sensitive goods
(bulk freight) to a warehouse chosen from many candidate sites.  Each road
segment carries three costs — driving time, monetary cost (tolls + fuel) and
distance — so no single shortest-path query answers the question.

The script generates a synthetic city, places clustered candidate sites,
computes:

* the skyline of sites (the only ones worth shortlisting), and
* top-k rankings under two different business priorities,

and reports how much I/O the disk-based CEA needed compared to LSA.

Run with::

    python examples/logistics_warehouse.py
"""

from __future__ import annotations

import random

from repro import MCNQueryEngine, NetworkLocation, NetworkStorage
from repro.datagen import (
    CostDistribution,
    RoadNetworkSpec,
    assign_edge_costs,
    generate_clustered_facilities,
    generate_road_network,
)

NUM_COST_TYPES = 3  # driving time, monetary cost, distance
COST_NAMES = ("time", "money", "distance")


def main() -> None:
    rng = random.Random(2010)

    # 1. A synthetic city: ~1600 intersections, anti-correlated costs
    #    (fast roads tend to be tolled, cheap roads tend to be slow).
    base = generate_road_network(RoadNetworkSpec(num_nodes=1600, seed=2010), num_cost_types=NUM_COST_TYPES)
    city = assign_edge_costs(base, CostDistribution.ANTI_CORRELATED, seed=2011)

    # 2. Candidate warehouse sites cluster around a few industrial areas.
    sites = generate_clustered_facilities(city, 400, num_clusters=8, seed=2012)

    # 3. The port is a fixed network location.
    port_edge = next(iter(city.edges()))
    port = NetworkLocation.on_edge(port_edge.edge_id, port_edge.length / 2)

    storage = NetworkStorage.build(city, sites, page_size=1024, buffer_fraction=0.01)
    engine = MCNQueryEngine(city, sites, accessor=storage)
    print("city:", city)
    print("candidate sites:", len(sites))
    print("port location:", port.describe(city))
    print()

    # 4. Shortlist: the skyline of candidate sites.
    storage.reset_statistics(clear_buffer=True)
    shortlist_cea = engine.skyline(port, algorithm="cea")
    cea_reads = shortlist_cea.statistics.io.page_reads
    storage.reset_statistics(clear_buffer=True)
    shortlist_lsa = engine.skyline(port, algorithm="lsa")
    lsa_reads = shortlist_lsa.statistics.io.page_reads

    print(f"=== Skyline shortlist ({len(shortlist_cea)} sites) ===")
    for member in shortlist_cea:
        rendered = ", ".join(
            f"{name}={'?' if value is None else f'{value:.0f}'}"
            for name, value in zip(COST_NAMES, member.costs)
        )
        print(f"  site {member.facility_id}: {rendered}")
    print(f"  I/O: CEA {cea_reads} page reads vs LSA {lsa_reads} ({lsa_reads / max(cea_reads, 1):.1f}x more)")
    print()

    # 5. Ranking under two different business priorities.
    priorities = {
        "dairy (time-critical)": [0.8, 0.1, 0.1],
        "bulk freight (cost-critical)": [0.1, 0.8, 0.1],
    }
    for label, weights in priorities.items():
        ranking = engine.top_k(port, k=3, weights=weights)
        rendered = ", ".join(f"site {item.facility_id} ({item.score:.0f})" for item in ranking)
        print(f"top-3 for {label}: {rendered}")

    # 6. Every top-1 site under a monotone weighting must be on the shortlist.
    shortlist_ids = shortlist_cea.facility_ids()
    for _ in range(5):
        weights = [rng.random() + 0.05 for _ in range(NUM_COST_TYPES)]
        winner = engine.top_k(port, k=1, weights=weights).facilities[0]
        assert winner.facility_id in shortlist_ids, "top-1 result must belong to the skyline"
    print()
    print("checked: every random-weight top-1 site belongs to the skyline shortlist")


if __name__ == "__main__":
    main()
