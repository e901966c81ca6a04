"""Command-line front end: outputs, exit codes, reports, caching."""

import argparse
import csv
import hashlib
import io
import json
import subprocess
import sys
from fractions import Fraction as Q
from itertools import product
from pathlib import Path

import pytest

import eocurves
from eocurves import cache
from eocurves import catalan as cat
from eocurves import cli
from eocurves import hurwitz as hur
from eocurves import qhbar
from eocurves import report
from eocurves import schur
from eocurves import shared
from eocurves import wkb
from eocurves.cache import export_caches, import_caches
from eocurves.cli import main
from eocurves.laurent import SparseLaurent
from eocurves.rationals import qstr
from eocurves.report import RunConfig, check_catalan_curve_inversion, run_suite
from eocurves.shared import profile_items


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_catalan_count_command(capsys):
    code, out = run_cli(capsys, "catalan", "count", "--g", "1", "--n", "1",
                        "--mu", "6")
    assert code == 0
    assert out.strip() == "10"


def test_hurwitz_number_command(capsys):
    code, out = run_cli(capsys, "hurwitz", "number", "--g", "0", "--n", "2",
                        "--mu", "1,1")
    assert code == 0
    assert out.strip() == "1/2"


def test_character_command(capsys):
    code, out = run_cli(capsys, "schur", "character", "--mu", "2,1",
                        "--lambda", "1,1,1")
    assert code == 0
    data = json.loads(out)
    assert data == {"dim": 2, "character": 2}


def test_s_coeff_cross_path_command(capsys):
    code, out = run_cli(capsys, "catalan", "s-coeff", "--m", "2")
    assert code == 0
    data = json.loads(out)
    assert data["equal"] is True


# the exact output text: its layout is the wire format scripts read
HURWITZ_S4_TEXT = """{
  "m": 4,
  "coeffs": [
    "0",
    "0",
    "0",
    "127/2880",
    "-3443/5760",
    "1781/640",
    "-3547/576",
    "511/72",
    "-1585/384",
    "1105/1152"
  ]
}
"""

CATALAN_S3_TEXT = """{
  "assembled": {
    "var": "t",
    "num": [
      "5/4096",
      "5/2048",
      "-5/2048",
      "-15/2048",
      "-5/4096",
      "5/1024",
      "5/1024",
      "5/1024",
      "-5/4096",
      "-15/2048",
      "-5/2048",
      "5/2048",
      "5/4096"
    ],
    "den": [
      "0",
      "0",
      "0",
      "0",
      "0",
      "0",
      "1"
    ]
  },
  "recursive": {
    "var": "t",
    "num": [
      "5/4096",
      "5/2048",
      "-5/2048",
      "-15/2048",
      "-5/4096",
      "5/1024",
      "5/1024",
      "5/1024",
      "-5/4096",
      "-15/2048",
      "-5/2048",
      "5/2048",
      "5/4096"
    ],
    "den": [
      "0",
      "0",
      "0",
      "0",
      "0",
      "0",
      "1"
    ]
  },
  "equal": true
}
"""


def test_s_coeff_output_text(capsys):
    assert run_cli(capsys, "hurwitz", "s-coeff", "--m", "4") == (0, HURWITZ_S4_TEXT)
    assert run_cli(capsys, "catalan", "s-coeff", "--m", "3") == (0, CATALAN_S3_TEXT)


def test_verify_suite_exit_code(capsys):
    code, out = run_cli(capsys, "--format", "json", "verify", "--suite", "wkb")
    assert code == 0
    data = json.loads(out)
    assert data["overall"] == "pass"
    assert data["suite"] == "wkb"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["catalan", "count", "--g", "1"])  # missing required options
    assert err.value.code == 2


@pytest.mark.parametrize("n, mu, reason", [
    ("2", "3", "need n >= 1 vertices, got n=2, mu=(3,)"),
    ("1", "2400", "too large for the recursion"),
])
def test_count_errors_are_one_usage_line(capsys, n, mu, reason):
    code = main(["catalan", "count", "--g", "0", "--n", n, "--mu", mu])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == [
        f"eo: error: catalan count (g=0, mu=[{mu}], n={n}): {reason}"]


@pytest.mark.parametrize("model", ["catalan", "hurwitz"])
@pytest.mark.parametrize("g, n", [(2, 0), (-1, 5), (0, 2)])
def test_free_energy_of_an_unstable_type_is_one_usage_line(capsys, model, g, n):
    # the requested (g, n) is named before any recursion runs
    code = main([model, "free-energy", "--g", str(g), "--n", str(n)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == [
        f"eo: error: {model} free-energy (g={g}, n={n}): ({g},{n}) is unstable"]


@pytest.mark.parametrize("mu, lam, reason", [
    ("2,1", "2", "|mu|=3 but |lambda|=2"),
    ("2,-1", "1", "negative part in (2, -1)"),
])
def test_character_errors_are_one_usage_line(capsys, mu, lam, reason):
    code = main(["schur", "character", "--mu", mu, "--lambda", lam])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == [
        f"eo: error: schur character (lam=[{lam.replace(',', ', ')}], "
        f"mu=[{mu.replace(',', ', ')}]): {reason}"]


@pytest.mark.parametrize("argv, option, low, value", [
    (["catalan", "s-coeff", "--m", "1"], "--m", 2, "1"),
    (["hurwitz", "s-coeff", "--m", "-1"], "--m", 2, "-1"),
    (["wkb", "s-prime", "--model", "catalan", "--n", "0"], "--n", 1, "0"),
])
def test_out_of_range_orders_are_usage_errors(capsys, argv, option, low, value):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert f"argument {option}: must be >= {low}, got {value}" in capsys.readouterr().err


# a small valid argv for every leaf command of eo
LEAVES = {
    "catalan count": ["--g", "0", "--n", "1", "--mu", "4"],
    "catalan free-energy": ["--g", "0", "--n", "3"],
    "catalan s-coeff": ["--m", "2"],
    "hurwitz number": ["--g", "0", "--n", "1", "--mu", "3"],
    "hurwitz free-energy": ["--g", "0", "--n", "3"],
    "hurwitz s-coeff": ["--m", "2"],
    "wkb s-prime": ["--model", "hurwitz", "--n", "2"],
    "schur character": ["--mu", "2,1", "--lambda", "1,1,1"],
    "verify": ["--suite", "wkb"],
}


def _leaves(parser: argparse.ArgumentParser) -> list[str]:
    """The words of every leaf command under parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [""]
    return [f"{name} {rest}".rstrip() for name, child in subs[0].choices.items()
            for rest in _leaves(child)]


def test_the_leaf_table_lists_every_leaf():
    assert sorted(_leaves(cli.build_parser())) == sorted(LEAVES)


@pytest.mark.parametrize("leaf", LEAVES)
def test_every_leaf_takes_the_common_options_after_it(tmp_path, capsys, leaf):
    path = tmp_path / "c.json"
    code, out = run_cli(capsys, *leaf.split(), *LEAVES[leaf], "--format", "json",
                        "--cache", str(path))
    assert code == 0
    assert path.exists()
    if leaf == "verify":
        assert json.loads(out)["overall"] == "pass"


def test_hurwitz_number_bounds_the_branch_points(capsys, monkeypatch):
    # r = |mu| - 1 for g = 0, n = 1: 401 is the largest part the cache accepts
    asked = []
    monkeypatch.setattr(hur, "hurwitz_number", lambda g, n, mu: asked.append(mu) or Q(0))
    big = cache.MAX_BRANCH_POINTS + 1
    assert main(["hurwitz", "number", "--g", "0", "--n", "1", "--mu", str(big)]) == 0
    assert main(["hurwitz", "number", "--g", "0", "--n", "1", "--mu", str(big + 1)]) == 2
    assert asked == [[big]]
    assert capsys.readouterr().err.splitlines() == [
        f"eo: error: hurwitz number (g=0, mu=[{big + 1}], n=1): "
        f"r = {big} > {cache.MAX_BRANCH_POINTS} branch points"]


def _strip_times(report_dict):
    for c in report_dict["checks"]:
        c.pop("wall_time")
    return report_dict


def test_report_determinism():
    cfg = RunConfig(suite="schur")
    r1 = _strip_times(run_suite("schur", cfg).to_json_dict())
    r2 = _strip_times(run_suite("schur", cfg).to_json_dict())
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_cache_roundtrip(tmp_path):
    # from empty memos, so that the file holds this test's counts only
    shared.clear_caches()
    cat.catalan_count(0, 1, [8])
    hur.hurwitz_number(1, 1, [3])
    hur.hurwitz_number(0, 3, [2, 2, 1])
    snapshot_c = dict(profile_items(cat._count_memo))
    snapshot_h = dict(profile_items(hur._h_memo))
    numbers = {(g, mu): hur.hurwitz_number(g, len(mu), mu) for g, mu in snapshot_h}
    path = tmp_path / "cache.json"
    export_caches(path)
    text = path.read_text()
    # the file keeps the "p/q" text of H itself, not the scaled integers
    assert json.loads(text)["hurwitz"]["1,1,3"] == "3/8"
    assert {key: Q(v) for key, v in json.loads(text)["hurwitz"].items()} == \
        {",".join(map(str, (g, len(mu), *mu))): h for (g, mu), h in numbers.items()}
    cat.clear_caches()
    hur.clear_caches()
    stats = import_caches(path)
    assert stats["rejected"] == 0
    assert dict(profile_items(cat._count_memo)) == snapshot_c
    assert dict(profile_items(hur._h_memo)) == snapshot_h
    for (g, mu), h in numbers.items():
        assert hur.hurwitz_number(g, len(mu), mu) == h
    again = tmp_path / "again.json"
    export_caches(again)
    assert again.read_text() == text


def test_export_writes_only_keys_import_takes(tmp_path):
    # H_201((1)) = 0 has r = 402 > MAX_BRANCH_POINTS: the memo keeps it, but
    # import refuses such a key (rule 3), so export leaves it out
    shared.clear_caches()
    assert hur.hurwitz_number(cache.MAX_BRANCH_POINTS // 2 + 1, 1, [1]) == 0
    assert hur.hurwitz_number(1, 1, [3]) == Q(3, 8)
    kept = len(hur._h_memo) - 1
    path = tmp_path / "c.json"
    assert export_caches(path) == {"catalan": 0, "hurwitz": kept}
    written = json.loads(path.read_text())["hurwitz"]
    assert "201,1,1" not in written and written["1,1,3"] == "3/8"
    shared.clear_caches()
    warnings = []
    assert import_caches(path, warn=warnings.append) == {
        "catalan": 0, "hurwitz": kept, "rejected": 0}
    assert warnings == []


# In a fresh interpreter, so that no memo of an earlier test shortens the run:
# the memos of a cold `eo verify --suite all`, exported by the run, cleared and
# imported, then written again.
FULL_ROUND_TRIP = """
import sys
from pathlib import Path
from eocurves import catalan as cat
from eocurves import hurwitz as hur
from eocurves.cache import export_caches, import_caches
from eocurves.cli import main
from eocurves.shared import profile_items

cold, again = map(Path, sys.argv[1:])
assert main(["--cache", str(cold), "verify", "--suite", "all", "--format", "json"]) == 0
memos = dict(profile_items(cat._count_memo)), dict(profile_items(hur._h_memo))
cat._count_memo.clear()
hur._h_memo.clear()
assert import_caches(cold) == {"catalan": 3638, "hurwitz": 2704, "rejected": 0}
assert (dict(profile_items(cat._count_memo)), dict(profile_items(hur._h_memo))) == memos
export_caches(again)
"""


def test_cache_roundtrip_of_a_full_cold_run(tmp_path):
    cold, again = tmp_path / "cold.json", tmp_path / "again.json"
    env = {"PYTHONPATH": str(Path(eocurves.__file__).parents[1]), "PYTHONHASHSEED": "0"}
    run = subprocess.run([sys.executable, "-c", FULL_ROUND_TRIP, str(cold), str(again)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0 and run.stderr == "", run.stderr
    assert json.loads(run.stdout)["overall"] == "pass"
    # the digest CI pins for the file a cold run writes
    assert hashlib.sha256(cold.read_bytes()).hexdigest() == \
        "213d5705e93b2c120666bc13bf9c829ff912b31805a33fcc0a9e4d11594cb63c"
    assert again.read_bytes() == cold.read_bytes()


def test_export_writes_by_profile_not_by_id(tmp_path):
    # the memos key each genus's counts by id, and ids follow the order in
    # which the process met each profile: a loaded file first, then queries
    # largest first.  The file written must be the one the sorted (g, profile)
    # items give, and the one a cold run of the same counts in ascending order
    # writes.
    asked = [("catalan", g, mu) for g in (0, 1) for mu in ((2, 2, 2), (4, 2), (6,))] + \
            [("hurwitz", g, mu) for g in (0, 1) for mu in ((1, 1, 1), (2, 1), (4,))]
    count = {"catalan": cat.catalan_count, "hurwitz": hur.hurwitz_number}

    def file_counts():
        cat.catalan_count(1, 1, [8])
        hur.hurwitz_number(0, 2, [3, 2])

    loaded, out, fresh = tmp_path / "loaded.json", tmp_path / "out.json", tmp_path / "fresh.json"
    cat.clear_caches()
    file_counts()
    export_caches(loaded)
    cat.clear_caches()
    assert import_caches(loaded)["rejected"] == 0
    for model, g, mu in reversed(asked):
        count[model](g, len(mu), mu)
    memos = {"catalan": cat._count_memo, "hurwitz": hur._h_memo}
    # the ids are out of profile order, so an export by id would show it
    assert any(sorted(table) != sorted(table, key=shared.profiles.__getitem__)
               for memo in memos.values() for table in memo.values())
    export_caches(out)
    text = {"catalan": lambda g, mu, v: str(v),
            "hurwitz": lambda g, mu, v: qstr(hur.hurwitz_number(g, len(mu), mu))}
    by_profile = {model: {",".join(map(str, (g, len(mu), *mu))): text[model](g, mu, v)
                          for (g, mu), v in sorted(profile_items(memo))}
                  for model, memo in memos.items()}
    assert out.read_text() == json.dumps(by_profile, indent=1, sort_keys=True)
    cat.clear_caches()
    file_counts()
    for model, g, mu in asked:
        count[model](g, len(mu), mu)
    export_caches(fresh)
    assert out.read_bytes() == fresh.read_bytes()


def test_cache_rejects_tampered_value(tmp_path):
    cat.catalan_count(0, 1, [2])
    path = tmp_path / "cache.json"
    export_caches(path)
    payload = json.loads(path.read_text())
    key = "0,1,2"
    assert key in payload["catalan"]
    payload["catalan"][key] = "1/3"
    path.write_text(json.dumps(payload))
    cat.clear_caches()
    warnings = []
    stats = import_caches(path, warn=warnings.append)
    assert stats["rejected"] == 1
    assert any("1/3" in w or key in w for w in warnings)
    # the poisoned key recomputes to the true value
    assert cat.catalan_count(0, 1, [2]) == 1


@pytest.mark.parametrize("model,key,value,argv,expected", [
    ("catalan", "0,1,6", "1/0", ["catalan", "count", "--mu", "6"], "5"),
    ("hurwitz", "0,1,3", "1/0", ["hurwitz", "number", "--mu", "3"], "1/2"),
    # r! d! = 2! 3! = 12 for (g, mu) = (0, (3,)); 7 cannot divide it
    ("hurwitz", "0,1,3", "1/7", ["hurwitz", "number", "--mu", "3"], "1/2"),
])
def test_cli_rejects_corrupt_denominator(tmp_path, capsys, model, key, value,
                                         argv, expected):
    cat.clear_caches()
    hur.clear_caches()
    path = tmp_path / "c.json"
    path.write_text(json.dumps({model: {key: value}}))
    code = main(["--cache", str(path), *argv, "--g", "0", "--n", "1"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip() == expected
    assert key in captured.err and "rejecting" in captured.err
    # the write-back replaces the poisoned entry with the recomputed one
    assert json.loads(path.read_text())[model][key] == expected


def test_cache_rejects_profiles_the_memo_never_holds(tmp_path):
    # zero parts, odd degree sums and the r = 0 cover are answered before
    # the memo is read, so an entry for one can only be a forgery
    cat.clear_caches()
    hur.clear_caches()
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"catalan": {"0,1,3": "7", "0,1,0": "7"},
                                "hurwitz": {"0,1,1": "7"}}))
    warnings = []
    stats = import_caches(path, warn=warnings.append)
    assert stats == {"catalan": 0, "hurwitz": 0, "rejected": 3}
    assert len(warnings) == 3
    assert cat.catalan_count(0, 1, [3]) == 0
    assert cat.catalan_count(0, 1, [0]) == 1
    assert hur.hurwitz_number(0, 1, [1]) == 1


def test_cache_rejects_unsorted_keys(tmp_path, capsys):
    # the memos key sorted profiles; an unsorted key would sit where no lookup
    # reads it and be written back, so it is refused like any other forgery
    cat.clear_caches()
    hur.clear_caches()
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"catalan": {"0,2,2,4": "999"}, "hurwitz": {"0,2,1,2": "7"}}))
    code = main(["--cache", str(path), "catalan", "count", "--g", "0", "--n", "1", "--mu", "6"])
    captured = capsys.readouterr()
    assert code == 0 and captured.out.strip() == "5"
    assert captured.err.splitlines() == [
        f"cache: rejecting {key!r}: key {key!r} is not a profile the memo holds"
        for key in ("0,2,2,4", "0,2,1,2")]
    assert json.loads(path.read_text()) == {
        "catalan": {"0,1,2": "1", "0,1,4": "2", "0,1,6": "5"}, "hurwitz": {}}


def test_cache_alias_key_does_not_override_the_exported_one(tmp_path, capsys):
    # int(" +6") is 6, so the second key once overrode the first; only the
    # text export writes is read, and the rewritten file drops the alias
    cat.clear_caches()
    hur.clear_caches()
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"catalan": {"0,1,6": "5", "0,1, +6": "999"}}))
    code = main(["--cache", str(path), "catalan", "count", "--g", "0", "--n", "1", "--mu", "6"])
    captured = capsys.readouterr()
    assert code == 0 and captured.out.strip() == "5"
    assert captured.err.splitlines() == [
        "cache: rejecting '0,1, +6': key '0,1, +6' is not written as export writes it"]
    assert json.loads(path.read_text()) == {"catalan": {"0,1,6": "5"}, "hurwitz": {}}


BAD_INT = "invalid literal for int() with base 10: "
NOT_HELD = "key {key!r} is not a profile the memo holds"
NOT_EXPORTED = "key {key!r} is not written as export writes it"


# every rule an entry of either table can break, in the order import applies
# them, with the exact text after "cache: rejecting '<key>': "
@pytest.mark.parametrize("model,key,value,reason", [
    *((model, key, "1", reason) for model in ("catalan", "hurwitz") for key, reason in [
        ("0,1,x", BAD_INT + "'x'"),
        ("6", "not enough values to unpack (expected at least 2, got 1)"),
        ("0,2,4", "malformed key {key!r}"),
        ("-1,1,4", "malformed key {key!r}"),
        ("0,2,2,4", NOT_HELD),
        ("0,0", NOT_HELD),
        ("0,2,2,0", NOT_HELD),
    ]),
    ("catalan", "0,1,3", "1", NOT_HELD),
    ("hurwitz", "0,1,1", "1", NOT_HELD),
    ("hurwitz", "0,1,402", "1", "key {key!r} has r = 401 > 400"),
    ("hurwitz", "200000,1,1", "1", "key {key!r} has r = 400000 > 400"),
    *((model, key, value, reason) for model, key in (("catalan", "0,1,2"), ("hurwitz", "0,1,2"))
      for value, reason in [
          ("x", BAD_INT + "'x'"),
          ("1/x", BAD_INT + "'x'"),
          ("1/0", "value '1/0' has denominator 0"),
          ("1/-2", "value '1/-2' has denominator -2"),
          (2.0, BAD_INT + "'2.0'"),
          (True, BAD_INT + "'True'"),
          (None, BAD_INT + "'None'"),
          ([1], BAD_INT + "'[1]'"),
      ]),
    ("catalan", "0,1,2", "1/3", "count {key} = 1/3 is not a whole number"),
    ("catalan", "0,1,2", "-1", "count {key} = -1 is not a whole number"),
    ("hurwitz", "0,1,2", "-1/2", "count {key} = -1/2 is negative"),
    # r! d! = 1! 2! = 2 for (g, mu) = (0, (2,))
    ("hurwitz", "0,1,2", "1/4", "count {key} = 1/4: denominator 4 does not divide r! d!"),
    # int() reads these keys, but export writes "0,1,6", "0,1,4", "0,1,8", "0,1,2", "0,1,402"
    *((model, key, "1", NOT_EXPORTED) for model in ("catalan", "hurwitz")
      for key in ("0,1, +6", "0,1,+6", "0,1,04", "0,1,\uff18", "0,1,2 ", "-0,1,2", "0,1,0402")),
    *((model, "0,1,2", "1/", BAD_INT + "''") for model in ("catalan", "hurwitz")),
])
def test_cache_rejection_rules(tmp_path, count_memos, model, key, value, reason):
    # a rejected entry costs one warning and does not stop the good entry after it
    for memo in count_memos:
        memo.clear()
    good = {"catalan": ("0,1,4", "2"), "hurwitz": ("0,1,3", "1/2")}[model]
    path = tmp_path / "c.json"
    path.write_text(json.dumps({model: {key: value, good[0]: good[1]}}))
    warnings = []
    stats = import_caches(path, warn=warnings.append)
    assert warnings == [f"cache: rejecting {key!r}: {reason.format(key=key)}"]
    assert stats == {"catalan": 0, "hurwitz": 0, model: 1, "rejected": 1}
    # r! d! H = 2! 3! / 2 for (0, (3,))
    assert (dict(profile_items(cat._count_memo)), dict(profile_items(hur._h_memo))) == {
        "catalan": ({(0, (4,)): 2}, {}), "hurwitz": ({}, {(0, (3,)): 6})}[model]


def test_cache_accepts_integer_values_through_their_text(tmp_path, count_memos):
    # a JSON number is read as its decimal text: an int is a count like "1"
    for memo in count_memos:
        memo.clear()
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"catalan": {"0,1,2": 1}, "hurwitz": {"0,2,2,2": 1}}))
    warnings = []
    assert import_caches(path, warn=warnings.append) == {
        "catalan": 1, "hurwitz": 1, "rejected": 0}
    assert warnings == []
    # r! d! H = 4! 4! for (0, (2, 2)), where H = 1
    assert dict(profile_items(cat._count_memo)) == {(0, (2,)): 1}
    assert dict(profile_items(hur._h_memo)) == {(0, (2, 2)): 576}


def test_cache_rejects_oversized_keys_unread(tmp_path, monkeypatch):
    # a forged key for a huge profile is refused before r! d! is formed: import
    # reads the factorials from hurwitz._factorials, grown as far as a key needs,
    # and no valid key needs one past (MAX_BRANCH_POINTS + 1)!
    cat.clear_caches()
    hur.clear_caches()

    class Factorials(list):
        def append(self, value):
            assert len(self) <= cache.MAX_BRANCH_POINTS + 1, \
                f"{len(self)}! formed for an oversized key"
            super().append(value)

    monkeypatch.setattr(hur, "_factorials", Factorials([1]))
    path = tmp_path / "c.json"
    big = cache.MAX_BRANCH_POINTS + 2  # r = |mu| - 1 for g = 0, n = 1
    path.write_text(json.dumps({"hurwitz": {"200000,1,1": "1/7", f"0,1,{big}": "1"}}))
    warnings = []
    stats = import_caches(path, warn=warnings.append)
    assert stats == {"catalan": 0, "hurwitz": 0, "rejected": 2}
    assert warnings == [f"cache: rejecting '200000,1,1': key '200000,1,1' has "
                        f"r = 400000 > {cache.MAX_BRANCH_POINTS}",
                        f"cache: rejecting '0,1,{big}': key '0,1,{big}' has "
                        f"r = {big - 1} > {cache.MAX_BRANCH_POINTS}"]
    assert not hur._h_memo and hur._factorials == [1]


def test_poisoned_count_fails_only_the_laplace_probe(tmp_path, capsys, count_memos):
    # a whole number for a valid profile passes import (C_{1,1}(4) is 1);
    # the catalan-laplace probe, which reads the memo, is what sees it.  The
    # counts the probe computes from the forged one are wrong too, hence
    # 4.86e-01 here against 4.83e-01 for the forged entry alone.  The failed
    # run exports nothing, so they do not reach the file.
    for memo in count_memos:
        memo.clear()
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"catalan": {"1,1,4": "2"}}))
    forged = path.read_bytes()
    code, out = run_cli(capsys, "--cache", str(path), "verify", "--suite", "catalan",
                        "--format", "json")
    assert code == 1
    failed = {c["check_id"]: c["residual"] for c in json.loads(out)["checks"]
              if c["status"] != "pass"}
    assert failed == {"catalan-laplace": "max relative error 4.86e-01 at (1,1)"}
    assert path.read_bytes() == forged


def test_passing_cold_run_writes_the_cache(tmp_path, capsys, monkeypatch, count_memos):
    # the same run from no file and empty memos passes and exports what it
    # computed, the true counts among it
    for memo in count_memos:
        memo.clear()
    path = tmp_path / "c.json"
    exports = _count_exports(monkeypatch)
    code, out = run_cli(capsys, "--cache", str(path), "verify", "--suite", "catalan",
                        "--format", "json")
    assert code == 0 and json.loads(out)["overall"] == "pass"
    assert exports == [path]
    counts = json.loads(path.read_text())["catalan"]
    assert (counts["1,1,4"], counts["1,1,6"], counts["1,1,8"]) == ("1", "10", "70")


def test_csv_report_parses_back(capsys, monkeypatch):
    # the two checks whose residual text holds commas, plus one holding a
    # quote and a line break
    keep = {"hurwitz-free-energies", "hurwitz-s-cross-paths"}
    checks = [c for c in report.SUITES["hurwitz"] if c[0] in keep]
    checks.append(("quoted", "odd residual", lambda cfg: (False, 'a, "b"\nc')))
    monkeypatch.setitem(report.SUITES, "hurwitz", checks)
    code, out = run_cli(capsys, "--format", "csv", "verify", "--suite", "hurwitz")
    assert code == 1
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["id", "status", "residual", "wall_time"]
    assert all(len(row) == 4 for row in rows)
    assert [row[:2] for row in rows[1:]] == [
        ["hurwitz-free-energies", "pass"], ["hurwitz-s-cross-paths", "pass"],
        ["quoted", "fail"], ["overall", "fail"]]
    assert "," in rows[1][2] and "," in rows[2][2]
    assert rows[3][2] == 'a, "b"\nc'


def test_curve_inversion_check_names_failing_power(monkeypatch):
    ok, residual = check_catalan_curve_inversion(RunConfig())
    assert ok and residual == "series inverse exact through order 8"
    true_count = cat.catalan_count

    def corrupt_c3(g, n, mu):
        return 6 if list(mu) == [6] else true_count(g, n, mu)

    monkeypatch.setattr(cat, "catalan_count", corrupt_c3)
    ok, residual = check_catalan_curve_inversion(RunConfig())
    assert not ok
    assert "x^-5" in residual and "exact" not in residual


def test_lambert_check_names_failing_order(monkeypatch):
    ok, residual = report.check_hurwitz_lambert(RunConfig())
    assert ok and residual == "series identities exact through order 12"
    true_tree = hur.tree_series

    def corrupt_x3(order):
        z = true_tree(order)
        z.coeffs[3] += 1
        return z

    monkeypatch.setattr(hur, "tree_series", corrupt_x3)
    ok, residual = report.check_hurwitz_lambert(RunConfig())
    assert not ok
    assert residual == ("curve identity first fails at x^3; "
                        "frame identity first fails at x^3 (order 12)")


def test_recursion_check_names_failing_term(monkeypatch):
    ok, residual = report.check_hurwitz_recursion(RunConfig())
    assert ok and residual == "identically zero for all 2g-2+n <= 3"
    true_fe = hur.free_energy
    bad = true_fe(0, 4) + SparseLaurent(4, {(3, 1, 1, 1): Q(1, 7)})
    monkeypatch.setattr(hur, "free_energy",
                        lambda g, n: bad if (g, n) == (0, 4) else true_fe(g, n))
    ok, residual = report.check_hurwitz_recursion(RunConfig())
    assert not ok
    assert residual == ("nonzero residual at (0,4), level 2: "
                        "5 terms, first term -4/7 t^(3, 1, 1, 1)")


def test_forged_free_energy_reaches_the_memoized_s_table():
    # S_m is memoized per model; clear_caches must empty that memo too, or a
    # free energy forged after a passing run would never reach S_m
    assert report.check_catalan_s_table(RunConfig()) == (True, "closed z-forms match for m=2..4")
    cat.clear_caches()
    try:
        cat._fe_memo[(0, 3)] = cat.free_energy(0, 3) + SparseLaurent(
            3, {e: Q(1, 1000) for e in product((0, 1), repeat=3)})
        assert report.check_catalan_s_table(RunConfig()) == (False, "closed form differs at m=2")
    finally:
        cat.clear_caches()


def test_zhou_check_counts_its_failures(monkeypatch):
    ok, residual = report.check_zhou_series(RunConfig())
    assert ok and residual == "termwise recursion/difference/heat checks to m=20"
    true_term = qhbar.zhou_term
    monkeypatch.setattr(qhbar, "zhou_term",
                        lambda m: true_term(m) * 2 if m == 3 else true_term(m))
    assert report.check_zhou_series(RunConfig()) == (
        False, "4 failures, first: term recursion at order 3")


def test_commutator_check_counts_its_failures(monkeypatch):
    ok, residual = report.check_pq_commutator(RunConfig())
    assert ok and residual == "commutator bracket annihilates the basis grid"
    true_q = qhbar.op_q
    monkeypatch.setattr(qhbar, "op_q", lambda f: true_q(f) * 2)
    # [P, 2Q] - P = P, nonzero on all 11 x 7 basis elements
    assert report.check_pq_commutator(RunConfig()) == (
        False, "77 failures, first: m=0, k=-3")


def test_collapse_check_names_its_failure(monkeypatch):
    ok, residual = report.check_schur_collapse(RunConfig())
    assert ok and residual == "one-row collapse matches explicit series to m=8"
    true_term = qhbar.zhou_term
    monkeypatch.setattr(schur, "zhou_term",
                        lambda m: true_term(m) * 2 if m == 3 else true_term(m))
    assert report.check_schur_collapse(RunConfig()) == (
        False, "1 failure, first: collapse total at m=3")


def test_corrections_check_names_the_nonzero_order(monkeypatch):
    ok, residual = report.check_wkb_corrections(RunConfig())
    assert ok and residual == "A_1..A_4 vanish for both models"
    true_primes = wkb.model_s_primes

    def doubled_s2(model, m_max):
        primes = true_primes(model, m_max)
        if model == "catalan":
            primes[2] = primes[2] * 2
        return primes

    monkeypatch.setattr(wkb, "model_s_primes", doubled_s2)
    assert report.check_wkb_corrections(RunConfig()) == (
        False, "nonzero A_2 for catalan")


def test_check_registry_ids():
    ids = [check_id for checks in report.SUITES.values() for check_id, _, _ in checks]
    assert len(ids) == len(set(ids))


def test_cache_missing_file_cold_start(tmp_path):
    stats = import_caches(tmp_path / "absent.json")
    assert stats == {"catalan": 0, "hurwitz": 0, "rejected": 0}


def test_cli_cache_flag_roundtrip(tmp_path, capsys):
    path = tmp_path / "c.json"
    code, _ = run_cli(capsys, "--cache", str(path), "catalan", "count",
                      "--g", "0", "--n", "1", "--mu", "12")
    assert code == 0
    data = json.loads(path.read_text())
    assert "0,1,12" in data["catalan"]
    code, out = run_cli(capsys, "--cache", str(path), "catalan", "count",
                        "--g", "0", "--n", "1", "--mu", "12")
    assert code == 0 and out.strip() == "132"


def _count_exports(monkeypatch) -> list:
    exports = []

    def spy(path):
        exports.append(path)
        return export_caches(path)
    monkeypatch.setattr(cli, "export_caches", spy)
    return exports


COUNT_10 = ("catalan", "count", "--g", "0", "--n", "1", "--mu", "10")


def test_warm_run_leaves_cache_file_untouched(tmp_path, capsys, monkeypatch):
    path = tmp_path / "c.json"
    exports = _count_exports(monkeypatch)
    for run in range(3):
        # each run starts from empty memos, as a new process does
        cat.clear_caches()
        hur.clear_caches()
        code, out = run_cli(capsys, "--cache", str(path), *COUNT_10)
        assert code == 0 and out.strip() == "42"
        if run == 0:
            written = path.read_bytes()
    assert exports == [path]
    assert path.read_bytes() == written


def test_cache_with_rejected_entry_is_rewritten_without_it(tmp_path, capsys,
                                                           monkeypatch):
    path = tmp_path / "c.json"
    cat.clear_caches()
    hur.clear_caches()
    run_cli(capsys, "--cache", str(path), *COUNT_10)
    clean = path.read_bytes()
    payload = json.loads(clean)
    payload["catalan"]["0,1,3"] = "7"  # an odd degree sum: never in the memo
    path.write_text(json.dumps(payload))
    cat.clear_caches()
    exports = _count_exports(monkeypatch)
    code, out = run_cli(capsys, "--cache", str(path), *COUNT_10)
    assert code == 0 and out.strip() == "42"
    assert exports == [path]
    assert path.read_bytes() == clean


def test_run_that_adds_entries_rewrites_cache(tmp_path, capsys, monkeypatch):
    path = tmp_path / "c.json"
    cat.clear_caches()
    hur.clear_caches()
    run_cli(capsys, "--cache", str(path), *COUNT_10)
    before = json.loads(path.read_text())["catalan"]
    cat.clear_caches()
    exports = _count_exports(monkeypatch)
    code, out = run_cli(capsys, "--cache", str(path), "catalan", "count",
                        "--g", "1", "--n", "1", "--mu", "12")
    assert code == 0 and out.strip() == str(cat.catalan_count(1, 1, [12]))
    assert exports == [path]
    after = json.loads(path.read_text())["catalan"]
    assert before.items() < after.items() and "1,1,12" in after


def test_interrupted_export_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "c.json"
    path.write_text('{"catalan": {}, "hurwitz": {}}')
    cat.catalan_count(0, 1, [6])
    real_write = type(path).write_text

    def torn_write(self, text, *args, **kwargs):
        real_write(self, text[:20])
        raise KeyboardInterrupt
    monkeypatch.setattr(type(path), "write_text", torn_write)
    with pytest.raises(KeyboardInterrupt):
        cache.export_caches(path)
    monkeypatch.undo()
    assert path.read_text() == '{"catalan": {}, "hurwitz": {}}'
    assert list(tmp_path.iterdir()) == [path]


# a directory is also unreadable on import, which warns first; under a
# regular file only the write fails
@pytest.mark.parametrize("target,warnings", [
    ("d", ["cache: unreadable file {p}: ", "cache: could not write {p}: "]),
    ("f/c.json", ["cache: could not write {p}: "]),
], ids=["directory", "under-a-file"])
def test_unwritable_cache_keeps_the_exit_code(tmp_path, capsys, count_memos,
                                              target, warnings):
    for memo in count_memos:
        memo.clear()
    (tmp_path / "d").mkdir()
    (tmp_path / "f").write_text("")
    path = tmp_path / target
    code = main(["--cache", str(path), "catalan", "count", "--g", "0", "--n", "1",
                 "--mu", "2"])
    captured = capsys.readouterr()
    assert code == 0 and captured.out.strip() == "1"
    lines = captured.err.splitlines()
    assert len(lines) == len(warnings)
    for line, start in zip(lines, warnings):
        assert line.startswith(start.format(p=path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "f"]
    assert not any((tmp_path / "d").iterdir()) and (tmp_path / "f").read_text() == ""


@pytest.mark.parametrize("payload", [
    {"catalan": {"6": "1"}},
    {"hurwitz": {"0": "1"}},
    [1, 2],
    None,
    {"catalan": [1]},
], ids=["short-catalan-key", "short-hurwitz-key", "list", "null", "list-table"])
def test_malformed_cache_is_rejected_and_rewritten(tmp_path, capsys, count_memos, payload):
    for memo in count_memos:
        memo.clear()
    path = tmp_path / "c.json"
    path.write_text(json.dumps(payload))
    code = main(["--cache", str(path), "catalan", "count", "--g", "0", "--n", "1",
                 "--mu", "2"])
    captured = capsys.readouterr()
    assert code == 0 and captured.out.strip() == "1"
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("cache: ")
    assert json.loads(path.read_text()) == {"catalan": {"0,1,2": "1"}, "hurwitz": {}}


@pytest.mark.parametrize("argv", [
    ["--tolerance", "1", "verify", "--suite", "wkb"],
    ["catalan", "s-coeff", "--m", "5", "--extended"],
    ["catalan", "s-coeff", "--m", "3", "--path", "recursive"],
    ["cache", "export", "--path", "{p}"],
    ["cache", "import", "--path", "{p}"],
    # each ran a part of `eo verify --suite <name>`
    ["catalan", "verify-schrodinger", "--cache", "{p}"],
    ["hurwitz", "verify", "--cache", "{p}"],
    ["wkb", "corrections", "--model", "catalan", "--cache", "{p}"],
    ["schur", "verify", "--cache", "{p}"],
], ids=["tolerance", "extended", "s-coeff-path", "cache-export", "cache-import",
        "catalan-verify-schrodinger", "hurwitz-verify", "wkb-corrections", "schur-verify"])
def test_retired_options_are_usage_errors(tmp_path, capsys, argv):
    path = tmp_path / "p.json"
    with pytest.raises(SystemExit) as err:
        main([arg.format(p=path) for arg in argv])
    assert err.value.code == 2
    assert not path.exists()


def test_no_option_loosens_the_laplace_probe(tmp_path, capsys):
    # the forged count fails catalan-laplace (see above); no tolerance
    # option can turn that into a pass that writes the forgery back
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"catalan": {"1,1,4": "2"}}))
    forged = path.read_bytes()
    with pytest.raises(SystemExit) as err:
        main(["--tolerance", "1", "--cache", str(path), "verify", "--suite", "catalan"])
    assert err.value.code == 2
    assert path.read_bytes() == forged


def test_s_coeff_m5_needs_no_flag(capsys):
    code, out = run_cli(capsys, "catalan", "s-coeff", "--m", "5")
    assert code == 0
    assert json.loads(out)["equal"] is True
