"""Counts against the benchmark's pinned count table, on a small box."""

import json
from pathlib import Path

import pytest

from eocurves import catalan as cat
from eocurves import hurwitz as hur

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden" / "count-table.json"

# model -> (count function, largest |mu|); g <= 2 and n <= 3 throughout
BOX = {"catalan": (cat.catalan_count, 12), "hurwitz": (hur.hurwitz_number, 10)}


@pytest.mark.parametrize("model", sorted(BOX))
def test_counts_match_pinned_table(model):
    count, max_size = BOX[model]
    pinned = {}
    for key, value in json.loads(GOLDEN.read_text()).items():
        name, g, mu = key.split(":")
        mu = tuple(int(v) for v in mu.split(","))
        if name == model and int(g) <= 2 and len(mu) <= 3 and sum(mu) <= max_size:
            pinned[int(g), mu] = value
    assert len(pinned) > 100
    cat._count_memo.clear()
    hur._h_memo.clear()
    # by ascending |mu|, starting from cold memos
    for g, mu in sorted(pinned, key=lambda k: (sum(k[1]), k)):
        assert str(count(g, len(mu), mu)) == pinned[g, mu], (model, g, mu)
