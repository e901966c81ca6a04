"""Persistent JSON caches for the two memoized counting tables.

Keys flatten to "g,n,mu1,...,mun"; values are decimal integer strings
for the graph counts and "p/q" strings for the Hurwitz numbers.  Each memo
holds one table per genus keyed by profile id, so export writes the profile
of each id and import interns each profile it loads into its genus's table:
ids stay inside the process, and the file is in json's sorted key order,
whatever order the memos were filled in.  The Hurwitz memo holds the
integers r! d! H, which import computes as p (r! d! / q) in integers.

Import reads each entry once and rejects it with a warning at the first of
these rules it breaks; a rejected count is recomputed, not trusted.
1. The key is integers "g,n,mu1,...,mun" spelt as export writes them (no
   "+", space, leading zero or non-ASCII digit), with n parts and g >= 0.
2. mu is a profile the recursion stores: sorted, parts >= 1, and |mu| even
   (Catalan) or r = 2g - 2 + n + |mu| >= 1 (Hurwitz).
3. A Hurwitz key has r <= MAX_BRANCH_POINTS: no r! d! is formed past it, and
   export writes no count past it.
4. The value is "p" or "p/q" with integers p and q > 0 (q not empty).
5. Catalan: q divides p, and p >= 0.  Hurwitz: p >= 0, and q divides r! d!.
A file that is not JSON, or whose top level or tables are not objects, is
rejected whole.  A file that cannot be written is reported with a warning,
and the run keeps its exit code.
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
from .hurwitz import MAX_BRANCH_POINTS
from .rationals import qstr
from .shared import profile_id, profile_items


def _flatten(g: int, mu: tuple[int, ...]) -> str:
    return ",".join(str(v) for v in (g, len(mu), *mu))


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
                    for (g, mu), v in profile_items(cat._count_memo)},
        # only the keys import takes: no r past MAX_BRANCH_POINTS (rule 3)
        "hurwitz": {_flatten(g, mu): qstr(Fraction(v, hur._scale(g, mu)))
                    for (g, mu), v in profile_items(hur._h_memo)
                    if 2 * g - 2 + len(mu) + sum(mu) <= MAX_BRANCH_POINTS},
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
    loaded = {"catalan": 0, "hurwitz": 0, "rejected": 0}
    # key fields as export writes them, up to any a valid Hurwitz key holds
    fields = {str(i): i for i in range(MAX_BRANCH_POINTS + 2)}
    for model, memo in (("catalan", cat._count_memo), ("hurwitz", hur._h_memo)):
        hurwitz = model == "hurwitz"
        for key, value in payload.get(model, {}).items():
            try:
                try:
                    g, n, *mu = map(fields.__getitem__, key.split(","))
                except KeyError:
                    g, n, *mu = map(int, key.split(","))  # ValueError for a malformed key too
                    # int() also reads " +6", "06" and full-width digits: aliases of "6"
                    if ",".join(map(str, (g, n, *mu))) != key:
                        raise CorruptCache(f"key {key!r} is not written as export writes it")
                if len(mu) != n or g < 0:
                    raise CorruptCache(f"malformed key {key!r}")
                d = sum(mu)
                r = 2 * g - 2 + n + d
                # the recursions store sorted profiles only: an unsorted key
                # would be loaded where no lookup reads it, and written back on
                # export
                if (not mu or mu[-1] < 1 or mu != sorted(mu, reverse=True)
                        or (r < 1 if hurwitz else d % 2)):
                    raise CorruptCache(f"key {key!r} is not a profile the memo holds")
                if hurwitz and r > MAX_BRANCH_POINTS:
                    raise CorruptCache(f"key {key!r} has r = {r} > {MAX_BRANCH_POINTS}")
                num, slash, den = str(value).partition("/")
                p, q = int(num), int(den) if slash else 1
                if q <= 0:
                    raise CorruptCache(f"value {value!r} has denominator {q}")
                if not hurwitz:
                    if p % q or p < 0:
                        raise CorruptCache(f"count {key} = {value} is not a whole number")
                    memo[g][profile_id(tuple(mu))] = p // q
                else:
                    if p < 0:
                        raise CorruptCache(f"count {key} = {value} is negative")
                    scale = hur._scale(g, mu)
                    if scale % q:
                        raise CorruptCache(f"count {key} = {value}: denominator {q} "
                                           "does not divide r! d!")
                    memo[g][profile_id(tuple(mu))] = p * (scale // q)
                loaded[model] += 1
            except (CorruptCache, ValueError) as exc:
                warn(f"cache: rejecting {key!r}: {exc}")
                loaded["rejected"] += 1
    return loaded
