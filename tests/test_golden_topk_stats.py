"""Golden top-k statistics: every shrinking-stage decision pinned through its counters.

``tests/fixtures/topk_stats.json`` holds one row per top-k query over two
workloads whose edge costs are small integers and whose facilities sit on
quarter points of their edges, so scores, lower bounds and expansion
frontiers tie.  Each row records the ranking, the five I/O counters and the
search counters (heap pops, nearest-neighbour retrievals, pins, candidates,
dominance checks) for the weighted sum, the weighted Lp norm, the maximum
and a plain monotone callable, under LSA and CEA, in memory and on disk.  A
change to the search that admits, prunes or pops differently moves a
counter even when the ranking survives.  Regenerate with
``PYTHONPATH=src python tests/fixtures/regenerate.py`` only after an
intentional change.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

FIXTURES_DIR = Path(__file__).resolve().parent / "fixtures"
FIXTURE_PATH = FIXTURES_DIR / "topk_stats.json"


def load_regenerate():
    spec = importlib.util.spec_from_file_location(
        "topk_stats_regenerate", FIXTURES_DIR / "regenerate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REGENERATE = load_regenerate()


@pytest.mark.parametrize("compiled", [None, False], ids=["kernel", "record-path"])
def test_every_row_is_reproduced_byte_for_byte(compiled):
    text = FIXTURE_PATH.read_text()
    expected = json.loads(text)["rows"]
    observed = REGENERATE.topk_stats_rows(compiled=compiled)
    assert len(observed) == len(expected)
    for expected_row, observed_row in zip(expected, observed):
        assert observed_row == expected_row, expected_row[:6]
    assert REGENERATE.render_topk_stats_fixture(observed) == text


def test_the_fixture_covers_ties_and_every_configuration():
    fixture = json.loads(FIXTURE_PATH.read_text())
    rows = fixture["rows"]
    assert {tuple(row[1:4]) for row in rows} == {
        (residency, algorithm, aggregate)
        for residency in ("memory", "disk")
        for algorithm in ("lsa", "cea")
        for aggregate in ("weighted_sum", "lp_norm", "max_cost", "plain")
    }
    tied = [row for row in rows if len({score for _id, score in row[6]}) < len(row[6])]
    assert tied, "no ranking holds a tie; the fixture would not pin tie-breaking"
    assert all(row[7][3] > 0 for row in rows if row[1] == "disk")
