"""Counts against the benchmark's whole pinned count table, and their splits."""

import hashlib
import json
import random
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eocurves import catalan as cat
from eocurves import hurwitz as hur
from eocurves import schur, shared
from eocurves.cache import export_caches, import_caches
from eocurves.shared import (
    profile_id,
    profile_items,
    profiles,
    sorted_key,
    submultisets,
    with_part,
    without_part,
)

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden" / "count-table.json"

# model -> (count function, memo, entries the box's recursion leaves in the
# memo, SHA-256 of their sorted (g, profile) items, with_part and without_part
# calls the recursion makes); g <= 2, n <= 3 and |mu| <= 20 (Catalan) or 14
# (Hurwitz) throughout, as pinned.  The memo closure, and with it the call
# counts, does not depend on the query order.
BOX = {"catalan": (cat.catalan_count, cat._count_memo, 929,
                   "49d28260f6292864b42cc2e1b01faa6574d295b888b128a84c506c586fc59fd3",
                   16251, 2988),
       "hurwitz": (hur.hurwitz_number, hur._h_memo, 708,
                   "f52a9a39b65d948054449892267c4524cf9ff8d6302079050fd63b2b15a46e5c",
                   25012, 4734)}


def _box_order(keys, seed):
    """By ascending |mu|; with a seed, each size shuffled as the benchmark does."""
    ordered = sorted(keys, key=lambda k: (sum(k[1]), k))
    if seed is None:
        return ordered
    rng = random.Random(seed)
    by_size = {}
    for key in ordered:
        by_size.setdefault(sum(key[1]), []).append(key)
    for level in by_size.values():
        rng.shuffle(level)
    return [key for level in by_size.values() for key in level]


def _check_box(model, seed, monkeypatch):
    """Ask the box in ``_box_order(seed)`` from cold memos and fresh ids,
    against the pinned answers, memo closure, digest and call counts."""
    count, memo, closure, digest, insertions, removals = BOX[model]
    # the recursions build every sub-key by insertion, so a profile is sorted
    # once per query, at the public entry point, and never inside a recursion
    sorts = []
    # one insertion or removal per sub-key built, hit or miss: work counts no
    # machine speed moves (each mirrored split at a = b or alpha = beta is
    # visited once)
    inserts, removes = [], []
    for module in (cat, hur):
        monkeypatch.setattr(module, "_sorted_key",
                            lambda mu, sort=module._sorted_key: sorts.append(mu) or sort(mu))
        monkeypatch.setattr(module, "with_part",
                            lambda pid, part, insert=module.with_part:
                            inserts.append(part) or insert(pid, part))
        monkeypatch.setattr(module, "without_part",
                            lambda pid, part, remove=module.without_part:
                            removes.append(part) or remove(pid, part))
    pinned = {}
    for key, value in json.loads(GOLDEN.read_text()).items():
        name, g, mu = key.split(":")
        if name == model:
            pinned[int(g), tuple(int(v) for v in mu.split(","))] = value
    assert len(pinned) > 400
    shared.clear_caches()
    for g, mu in _box_order(pinned, seed):
        assert str(count(g, len(mu), mu)) == pinned[g, mu], (model, g, mu)
    assert len(sorts) == len(pinned)
    assert len(inserts) == insertions
    assert len(removes) == removals
    assert len(memo) == closure
    # every by-product key and value, not only the queried ones
    view = sorted(profile_items(memo))
    assert len(view) == closure
    assert hashlib.sha256(repr(view).encode()).hexdigest() == digest


@pytest.mark.parametrize("model", sorted(BOX))
def test_counts_match_pinned_table(model, monkeypatch):
    _check_box(model, None, monkeypatch)


# ids are handed out in visit order, so the same view, digest and call counts
# as in ascending order show that no id reaches an answer
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("model", sorted(BOX))
def test_counts_do_not_depend_on_the_query_order(model, seed, monkeypatch):
    _check_box(model, seed, monkeypatch)


@pytest.mark.parametrize("model", sorted(BOX))
def test_memo_length_is_its_number_of_counts(model, count_memos, tmp_path):
    # len() of a memo sums its genus tables, as the benchmark reads it, after
    # a fill, an import and a forged count at a new genus; a genus table made
    # by a read adds nothing
    count, memo = BOX[model][:2]
    shared.clear_caches()
    count(1, 2, (3, 1))
    assert len(memo) == len(profile_items(memo)) > 1
    path = tmp_path / "c.json"
    export_caches(path)
    shared.clear_caches()
    assert len(memo) == 0
    assert memo[5] == {} and len(memo) == 0
    import_caches(path)
    filled = len(profile_items(memo))
    assert len(memo) == filled > 1
    memo[7][profile_id((2, 2))] = 1
    assert len(memo) == len(profile_items(memo)) == filled + 1
    shared.clear_caches()
    assert len(memo) == 0 and not memo


PROFILES = st.lists(st.integers(1, 4), max_size=6).map(lambda v: tuple(sorted(v, reverse=True)))


def _unpacked(splits):
    """Splits with their sub and complement ids read back as profiles."""
    return [(profiles[sub], profiles[left], *rest) for sub, left, *rest in splits]


@given(PROFILES)
def test_submultisets_group_the_index_subsets(rest):
    splits, half = submultisets(profile_id(rest))
    assert isinstance(splits, tuple) and isinstance(half, tuple)
    assert all(isinstance(pid, int) for split in splits + half for pid in split[:2])
    splits = _unpacked(splits)
    assert all(size == sum(sub) and parts == len(sub) for sub, _, size, parts, _ in splits)
    # each sub-multiset once, weighted by the index subsets that give it
    subsets = Counter()
    for size in range(len(rest) + 1):
        for picked in combinations(range(len(rest)), size):
            sub = tuple(rest[i] for i in picked)
            subsets[sub, tuple(v for i, v in enumerate(rest) if i not in picked)] += 1
    assert len(splits) == len(subsets)
    assert {(sub, left): ways for sub, left, _, _, ways in splits} == dict(subsets)


@given(PROFILES)
def test_submultisets_list_complements_at_mirrored_places(rest):
    # the precondition of summing a split's term together with its
    # complement's over the mirrored half only
    pid = profile_id(rest)
    splits, half = submultisets(pid)
    for split, mirror in zip(splits, reversed(splits)):
        assert (split[0], split[1]) == (mirror[1], mirror[0])
        assert split[4] == mirror[4]
        assert split[2] + mirror[2] == sum(rest)
        assert split[3] + mirror[3] == len(rest)
    # the mirrored half: the first half at twice its ways, then the middle
    assert len(half) == (len(splits) + 1) // 2
    assert [s[:4] for s in half] == [s[:4] for s in splits[:len(half)]]
    middle = len(splits) // 2 if len(splits) % 2 else None
    assert [s[4] for s in half] == [s[4] * (1 if i == middle else 2)
                                    for i, s in enumerate(splits[:len(half)])]
    assert sum(ways for *_, ways in half) == sum(ways for *_, ways in splits)
    # a split and its complement have one parity when |rest| is even, so
    # Catalan's parity skip keeps the half's ways summing to the whole's
    if sum(rest) % 2 == 0:
        for parity in (0, 1):
            assert sum(s[4] for s in half if s[2] % 2 == parity) == \
                sum(s[4] for s in splits if s[2] % 2 == parity)


@given(st.lists(st.integers(0, 6), max_size=6).map(sorted_key), st.integers(0, 8))
def test_with_part_inserts_into_the_sorted_key(key, part):
    grown = with_part(profile_id(key), part)
    assert isinstance(grown, int)
    assert profiles[grown] == sorted_key(key + (part,))
    # the id of that profile, however it is reached
    assert grown == profile_id(sorted_key(key + (part,))) == with_part(profile_id(key), part)


@given(st.lists(st.integers(0, 6), max_size=6).map(sorted_key), st.integers(0, 8))
def test_without_part_undoes_with_part(key, part):
    pid = profile_id(key)
    assert without_part(with_part(pid, part), part) == pid


def _size(table) -> int:
    return len(table) if isinstance(table, (dict, list)) else table.cache_info().currsize


# the profile id tables: profile -> id, id -> profile, id -> insertions and
# removals
ID_TABLES = ("profile_ids", "profiles", "_insertions", "_removals")


@pytest.mark.parametrize("model", [cat, hur])
def test_clear_caches_empties_the_shared_count_tables(model):
    # every memo of the four modules that hold them, a module-level _*_memo
    # dict or a function with cache_info, and the id tables are registered in
    # shared: a new memo left out of the registry fails here
    tables = {f"{module.__name__}.{name}": table
              for module in (cat, hur, shared, schur) for name, table in vars(module).items()
              if hasattr(table, "cache_info")
              or name.startswith("_") and name.endswith("_memo") and isinstance(table, dict)
              or module is shared and name in ID_TABLES}
    assert len(tables) > len(ID_TABLES) + 2
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


# a small box of each model, by ascending |mu|: ids go to profiles in this order
SMALL_BOX = {"catalan": [(g, mu) for g in range(2) for size in range(2, 11, 2)
                         for mu in map(sorted_key, combinations(range(1, 9), 2)) if sum(mu) == size]
             + [(g, (size,)) for g in range(2) for size in range(2, 11, 2)],
             "hurwitz": [(g, (d,)) for g in range(2) for d in range(1, 8)]
             + [(g, (a, b)) for g in range(2) for a in range(1, 6) for b in range(1, a + 1)]}


def test_no_id_keyed_entry_outlives_clear_caches():
    # fill every id-keyed table in one order, note who had which id, clear,
    # then fill them in the reverse order, so that the freed ids go to other
    # profiles: an entry that survived the clear would be read back under its
    # reused id as another profile's count, split or insertion
    count = {"catalan": cat.catalan_count, "hurwitz": hur.hurwitz_number}
    shared.clear_caches()
    answers = {(model, g, mu): count[model](g, len(mu), mu)
               for model, box in SMALL_BOX.items() for g, mu in box}
    first_ids = list(profiles)
    first_views = [dict(profile_items(memo)) for memo in (cat._count_memo, hur._h_memo)]
    id_keyed = {"profile_ids": shared.profile_ids, "profiles": profiles,
                "_insertions": shared._insertions, "_removals": shared._removals,
                "_count_memo": cat._count_memo,
                "_h_memo": hur._h_memo, "submultisets": submultisets}
    assert [name for name, table in id_keyed.items() if not _size(table)] == []
    shared.clear_caches()
    assert [name for name, table in id_keyed.items() if _size(table)] == []
    again = {key: count[key[0]](key[1], len(key[2]), key[2]) for key in reversed(answers)}
    assert again == answers
    # the ids were reused, for other profiles
    assert first_ids[:len(profiles)] != profiles[:len(first_ids)]
    assert [dict(profile_items(memo)) for memo in (cat._count_memo, hur._h_memo)] == first_views
