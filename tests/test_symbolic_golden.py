"""Symbolic outputs against the benchmark's pinned ladder digests.

Each case is the SHA-256 of the compact, key-sorted JSON of an exact
result: free energies, both S_m paths, S_m' from the transport hierarchy,
A_1..A_4, the Schrodinger/heat residuals and the recursion residuals.
The file is only read here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from eocurves import catalan as cat
from eocurves import hurwitz as hur
from eocurves import wkb

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden" / "symbolic-ladder.json"
PINNED = json.loads(GOLDEN.read_text())


def _cases() -> dict:
    cases = {}
    for model, module in (("catalan", cat), ("hurwitz", hur)):
        for level in range(1, 5):
            for g, n in module.stable_levels(level):
                cases[f"{model}.F({g},{n})"] = (module.free_energy, g, n)
        for m in range(2, 6):
            cases[f"{model}.S{m}.assembled"] = (module.s_coefficient_assembled, m)
            cases[f"{model}.S{m}.recursive"] = (module.s_coefficient_recursive, m)
            cases[f"{model}.S{m}'.hierarchy"] = (wkb.s_prime_from_hierarchy, model, m)
        cases[f"{model}.A(1..4)"] = (wkb.recover_corrections, model, 4)
    cases["catalan.F(1,5)"] = (cat.free_energy, 1, 5)
    cases["catalan.schrodinger_residuals(4)"] = (cat.schrodinger_residuals, 4)
    cases["hurwitz.heat_residuals(3)"] = (hur.heat_residuals, 3)
    for level in range(1, 4):
        for g, n in hur.stable_levels(level):
            cases[f"hurwitz.recursion_residual({g},{n})"] = (hur.fh_recursion_residual, g, n)
    # only the labels the ladder pins
    return {label: call for label, call in cases.items() if label in PINNED}


CASES = _cases()


def _wire(value):
    if isinstance(value, (list, tuple)):
        return [_wire(v) for v in value]
    return value.to_json()


def test_every_pinned_case_is_covered():
    assert set(CASES) == set(PINNED)


@pytest.mark.parametrize("label", sorted(CASES))
def test_symbolic_output_matches_pinned_digest(label):
    fn, *args = CASES[label]
    text = json.dumps(_wire(fn(*args)), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[label]
