"""Counts against the benchmark's whole pinned count table."""

import json
from pathlib import Path

import pytest

from eocurves import catalan as cat
from eocurves import hurwitz as hur

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden" / "count-table.json"

# model -> (count function, memo, entries the box's recursion leaves in the
# memo); g <= 2, n <= 3 and |mu| <= 20 (Catalan) or 14 (Hurwitz) throughout,
# as pinned.  The memo closure does not depend on the query order.
BOX = {"catalan": (cat.catalan_count, cat._count_memo, 929),
       "hurwitz": (hur.hurwitz_number, hur._h_memo, 708)}


@pytest.mark.parametrize("model", sorted(BOX))
def test_counts_match_pinned_table(model):
    count, memo, closure = BOX[model]
    pinned = {}
    for key, value in json.loads(GOLDEN.read_text()).items():
        name, g, mu = key.split(":")
        if name == model:
            pinned[int(g), tuple(int(v) for v in mu.split(","))] = value
    assert len(pinned) > 400
    cat._count_memo.clear()
    hur._h_memo.clear()
    # by ascending |mu|, starting from cold memos
    for g, mu in sorted(pinned, key=lambda k: (sum(k[1]), k)):
        assert str(count(g, len(mu), mu)) == pinned[g, mu], (model, g, mu)
    assert len(memo) == closure
