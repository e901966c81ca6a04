"""Counts against the benchmark's whole pinned count table, and their splits."""

import hashlib
import json
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eocurves import catalan as cat
from eocurves import hurwitz as hur
from eocurves import schur, shared
from eocurves.shared import (
    mirrored_half,
    sorted_key,
    submultisets,
    with_part,
)

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden" / "count-table.json"

# model -> (count function, memo, entries the box's recursion leaves in the
# memo, SHA-256 of their sorted items, with_part calls the recursion makes);
# g <= 2, n <= 3 and |mu| <= 20 (Catalan) or 14 (Hurwitz) throughout, as
# pinned.  The memo closure, and with it the call count, does not depend on
# the query order.
BOX = {"catalan": (cat.catalan_count, cat._count_memo, 929,
                   "49d28260f6292864b42cc2e1b01faa6574d295b888b128a84c506c586fc59fd3",
                   16251),
       "hurwitz": (hur.hurwitz_number, hur._h_memo, 708,
                   "f52a9a39b65d948054449892267c4524cf9ff8d6302079050fd63b2b15a46e5c",
                   25012)}


@pytest.mark.parametrize("model", sorted(BOX))
def test_counts_match_pinned_table(model, monkeypatch):
    count, memo, closure, digest, insertions = BOX[model]
    # the recursions build every sub-key by insertion, so a profile is sorted
    # once per query, at the public entry point, and never inside a recursion
    sorts = []
    # one insertion per sub-key built, hit or miss: a work count no machine
    # speed moves (each mirrored split at a = b or alpha = beta is visited once)
    inserts = []
    for module in (cat, hur):
        monkeypatch.setattr(module, "_sorted_key",
                            lambda mu, sort=module._sorted_key: sorts.append(mu) or sort(mu))
        monkeypatch.setattr(module, "with_part",
                            lambda key, part, insert=module.with_part:
                            inserts.append(part) or insert(key, part))
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
    assert len(sorts) == len(pinned)
    assert len(inserts) == insertions
    assert len(memo) == closure
    # every by-product key and value, not only the queried ones
    assert hashlib.sha256(repr(sorted(memo.items())).encode()).hexdigest() == digest


PROFILES = st.lists(st.integers(1, 4), max_size=6).map(lambda v: tuple(sorted(v, reverse=True)))


@given(PROFILES)
def test_submultisets_group_the_index_subsets(rest):
    splits = submultisets(rest)
    assert isinstance(splits, tuple)
    assert all(isinstance(part, tuple) for split in splits for part in split[:2])
    assert all(size == sum(sub) for sub, _, size, _ in splits)
    # each sub-multiset once, weighted by the index subsets that give it
    subsets = Counter()
    for size in range(len(rest) + 1):
        for picked in combinations(range(len(rest)), size):
            sub = tuple(rest[i] for i in picked)
            subsets[sub, tuple(v for i, v in enumerate(rest) if i not in picked)] += 1
    assert len(splits) == len(subsets)
    assert {(sub, left): ways for sub, left, _, ways in splits} == dict(subsets)


@given(PROFILES)
def test_submultisets_list_complements_at_mirrored_places(rest):
    # the precondition of summing a split's term together with its
    # complement's over the mirrored half only
    splits = submultisets(rest)
    for split, mirror in zip(splits, reversed(splits)):
        assert (split[0], split[1]) == (mirror[1], mirror[0])
        assert split[3] == mirror[3]
        assert split[2] + mirror[2] == sum(rest)
    half = mirrored_half(rest)
    assert len(half) == (len(splits) + 1) // 2
    assert sum(ways for *_, ways in half) == sum(ways for *_, ways in splits)
    # Catalan's parity groups keep the mirror order when the sizes of a
    # split and its complement have one parity
    whole, halves = cat._splits_by_parity(rest)
    assert [s for group in whole for s in group] == sorted(splits, key=lambda s: s[2] % 2)
    if sum(rest) % 2 == 0:
        for group, half_group in zip(whole, halves):
            assert [s[:2] for s in group] == [(s[1], s[0]) for s in reversed(group)]
            assert [s[:3] for s in half_group] == [s[:3] for s in group[:len(half_group)]]
            assert len(half_group) == (len(group) + 1) // 2


@given(st.lists(st.integers(0, 6), max_size=6).map(sorted_key), st.integers(0, 8))
def test_with_part_inserts_into_the_sorted_key(key, part):
    grown = with_part(key, part)
    assert isinstance(grown, tuple)
    assert grown == sorted_key(key + (part,))


def _size(table) -> int:
    return len(table) if isinstance(table, dict) else table.cache_info().currsize


@pytest.mark.parametrize("model", [cat, hur])
def test_clear_caches_empties_the_shared_count_tables(model):
    # every memo of the four modules that hold them, a module-level _*_memo
    # dict or a function with cache_info, is registered in shared: a new memo
    # left out of the registry fails here
    tables = {f"{module.__name__}.{name}": table
              for module in (cat, hur, shared, schur) for name, table in vars(module).items()
              if hasattr(table, "cache_info")
              or name.startswith("_") and name.endswith("_memo") and isinstance(table, dict)}
    registered = {id(table) for table in shared._tables}
    assert [name for name, table in tables.items() if id(table) not in registered] == []
    assert len({id(table) for table in tables.values()}) == len(shared._tables)
    # from empty tables, so that no entry comes from a cache file import, fill
    # them all: counts and their splits, free energies and xi polynomials,
    # both S_m paths per order with what the recursive paths keep (the
    # Catalan x-frame primes, the Hurwitz dS_k/dw), and the characters
    shared.clear_caches()
    cat.catalan_count(1, 1, (4,))
    hur.hurwitz_number(1, 1, (4,))
    for each in (cat, hur):
        each.free_energy(0, 3)
        each.s_coefficient_assembled(3)
        each.s_coefficient_recursive(3)
        each.base_s_primes(3)
    schur.character((2, 1), (2, 1))
    assert [name for name, table in tables.items() if not _size(table)] == []
    # one call empties every table, the other model's and the characters too
    model.clear_caches()
    assert [name for name, table in tables.items() if _size(table)] == []
