"""Persistent JSON caches for the two memoized counting tables.

Keys flatten to "g,n,mu1,...,mun"; values are decimal integer strings
for the graph counts and "p/q" strings for the Hurwitz numbers.  The
Hurwitz memo holds the integers r! d! H, which import computes as
p (r! d! / q) in integers; a q that does not divide r! d! marks a corrupt
entry.  Corrupt entries are rejected with a warning and recomputed
rather than trusted; an oversized Hurwitz key is rejected before r! d!
is computed.  A file that is not JSON, or whose top level or tables are
not objects, is rejected whole.  A file that cannot be written is
reported with a warning, and the run keeps its exit code.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import catalan as cat
from . import hurwitz as hur
from .errors import CorruptCache
from .rationals import qstr

# Largest r = 2g - 2 + n + |mu| of a Hurwitz key, so |mu| <= r + 1: a cold
# ``eo verify --suite all`` stores r <= 41; 400! is cheap.
MAX_BRANCH_POINTS = 400


def _flatten(g: int, mu: tuple[int, ...]) -> str:
    return ",".join(str(v) for v in (g, len(mu), *mu))


def _unflatten(key: str) -> tuple[int, tuple[int, ...]]:
    g, n, *mu = map(int, key.split(","))  # ValueError for a malformed key too
    if len(mu) != n or g < 0:
        raise CorruptCache(f"malformed key {key!r}")
    # the memos key sorted profiles only: an unsorted key would be loaded
    # where no lookup reads it, and written back on export
    if mu != sorted(mu, reverse=True):
        raise CorruptCache(f"key {key!r} is not a profile the memo holds")
    return g, tuple(mu)


def _ratio(value) -> tuple[int, int]:
    """Split a "p" or "p/q" string into integers p and q > 0."""
    num, _, den = str(value).partition("/")
    p, q = int(num), int(den) if den else 1
    if q <= 0:
        raise CorruptCache(f"value {value!r} has denominator {q}")
    return p, q


def memo_sizes() -> tuple[int, int]:
    """Entries in the Catalan and Hurwitz memo tables."""
    return len(cat._count_memo), len(hur._h_memo)


def export_caches(path: Path) -> dict:
    """Write both memo tables to ``path``; the entries written per model.

    A file that cannot be written gets one line on stderr and counts zero
    entries: the run's own answer and exit code stand.
    """
    payload = {
        "catalan": {_flatten(g, mu): str(v)
                    for (g, mu), v in sorted(cat._count_memo.items())},
        "hurwitz": {_flatten(g, mu): qstr(Fraction(v, hur._scale(g, mu)))
                    for (g, mu), v in sorted(hur._h_memo.items())},
    }
    # write beside the file and rename over it, so an interrupted write
    # leaves the old file whole
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            tmp.write_text(json.dumps(payload, indent=1, sort_keys=True))
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        print(f"cache: could not write {path}: {exc}", file=sys.stderr)
        return {"catalan": 0, "hurwitz": 0}
    return {"catalan": len(payload["catalan"]), "hurwitz": len(payload["hurwitz"])}


def import_caches(path: Path, warn=lambda msg: print(msg, file=sys.stderr)) -> dict:
    """Load cached values, validating every entry; corrupt ones are skipped."""
    if not path.exists():
        return {"catalan": 0, "hurwitz": 0, "rejected": 0}
    try:
        payload = json.loads(path.read_text())
        if not isinstance(payload, dict) or not all(
                isinstance(payload.get(model, {}), dict) for model in ("catalan", "hurwitz")):
            raise ValueError("not an object of count tables")
    except (OSError, ValueError) as exc:
        warn(f"cache: unreadable file {path}: {exc}")
        return {"catalan": 0, "hurwitz": 0, "rejected": 1}
    rejected = 0
    loaded_c = 0
    for key, value in payload.get("catalan", {}).items():
        try:
            g, mu = _unflatten(key)
            if not mu or min(mu) < 1 or sum(mu) % 2:
                raise CorruptCache(f"key {key!r} is not a profile the memo holds")
            p, q = _ratio(value)
            if p % q or p < 0:
                raise CorruptCache(f"count {key} = {value} is not a whole number")
            cat._count_memo[(g, mu)] = p // q
            loaded_c += 1
        except (CorruptCache, ValueError) as exc:
            warn(f"cache: rejecting {key!r}: {exc}")
            rejected += 1
    loaded_h = 0
    for key, value in payload.get("hurwitz", {}).items():
        try:
            g, mu = _unflatten(key)
            r = 2 * g - 2 + len(mu) + sum(mu)
            if not mu or min(mu) < 1 or r < 1:
                raise CorruptCache(f"key {key!r} is not a profile the memo holds")
            if r > MAX_BRANCH_POINTS:
                raise CorruptCache(f"key {key!r} has r = {r} > {MAX_BRANCH_POINTS}")
            p, q = _ratio(value)
            if p < 0:
                raise CorruptCache(f"count {key} = {value} is negative")
            scale = hur._scale(g, mu)
            if scale % q:
                raise CorruptCache(f"count {key} = {value}: denominator {q} "
                                   "does not divide r! d!")
            hur._h_memo[(g, mu)] = p * (scale // q)
            loaded_h += 1
        except (CorruptCache, ValueError) as exc:
            warn(f"cache: rejecting {key!r}: {exc}")
            rejected += 1
    return {"catalan": loaded_c, "hurwitz": loaded_h, "rejected": rejected}
