"""Fixtures shared by the test modules."""

import pytest

from eocurves import catalan as cat
from eocurves import hurwitz as hur
from eocurves.shared import profile_id, profile_items


@pytest.fixture
def count_memos():
    """Both count memos, changed in place by the test and put back after it.

    A test that forges or empties a count works on the registered dicts
    themselves: a dict rebound in their place is not one that
    ``shared.clear_caches`` empties, so after a clear its id-keyed entries
    would answer for other profiles under reused ids.  The entries are saved
    by profile, so they are put back right even if the test cleared the ids,
    and whatever the test derived from a forged count is dropped.
    """
    memos = cat._count_memo, hur._h_memo
    saved = [profile_items(memo) for memo in memos]
    yield memos
    for memo, items in zip(memos, saved):
        memo.clear()
        for (g, mu), value in items:
            memo[g][profile_id(mu)] = value
