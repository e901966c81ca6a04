"""Term order of the exact free energies, and the float probes that read it.

``eval_float`` sums the terms in dict order, so two free energies that are
equal as polynomials can still give different float probes.  The golden
digests sort the keys and cannot see this; these pins can.
"""

import hashlib

import pytest

from eocurves import catalan as cat
from eocurves import hurwitz as hur
from eocurves import shared

# SHA-256 of repr(list(F.num.items())): the numerators in term order
CATALAN_TERM_ORDER = {
    (1, 1): "c5ebb9d807be76b1550a308eeb06faa231746e320594c862ae7e89028315e3a5",
    (0, 3): "1938101c844e01e51fb3206a7808ac316772142081acfd089d47a540349c098d",
    (0, 4): "e698f51aa924811dc8d79c8a3883c7acfc40d563a1d909e1a390ebfdc3fe4158",
    (1, 2): "f452ac3c20d7a35d135a7f9bf15817a2e1e823a9068a8b4afddc1405fe08c012",
    (0, 5): "48c19d1d087c10ea19db43e97d3ba2d322b1d4de8ace79f492cad41b6f92a0ec",
    (1, 3): "d308110c2f463546402ae5e7d3ba1cf3c5ec197507d4b15bf3a8316d1f5f8675",
    (2, 1): "617447d0423011c4539ec6d4307104983f009ccaead3e3b34c8c301e65cde5f4",
    (0, 6): "e56316bb90ae4a9d51f55b60439eadcd6055b276b49031b5119a77b81bd9144b",
    (1, 4): "9c79e67a5a677498a5d0f7feca07433c34b4fed023b04be3b270da2a120297f8",
    (2, 2): "c8c880355abc0f92c2fbfab414e03ed00a8844a7aed812c65df0cbe5b5c2aee9",
}

HURWITZ_TERM_ORDER = {
    (0, 3): "50323a5d36feeb21a0298b3db7b7cd6e0ee07cf1b8d39421707e521cae683049",
    (1, 1): "57f2e2398ddc0504adb1653268ca44d1311efe02cd31135274c14f97c59c7068",
    (0, 4): "2ffa7cdcfdf86b645d471af5aa698781971e8cd7912a43d5704b5b5c50d010f4",
    (1, 2): "8c3c5ed86808d9a1d3257a66df0c9d8c56182186c0763add4f7b977fb5aca2d9",
    (0, 5): "ad32e7dc18e32908bb2276ca36a3bcd9a2c2f2a906cff6a429449846b8dd559c",
    (1, 3): "1bc203d1396b617216de147db3bd0ff9c5572c1ec4c5ae615c29cac8a3a026a4",
    (2, 1): "839c0c70f89513d4e6258f6b9fd5c51737b8b8060de69cd8a6a530b33926166b",
}

# float.hex() of free_energy_float at each Laplace probe point
PROBE_HEX = {
    ("catalan", 1, 1): "0x1.c0ef2ccfba000p-16",
    ("catalan", 0, 3): "0x1.cfe7db219ed00p-13",
    ("hurwitz", 0, 3): "0x1.ff6db3667c000p-14",
}


def term_order_digest(f) -> str:
    return hashlib.sha256(repr(list(f.num.items())).encode()).hexdigest()


@pytest.mark.parametrize("g,n", sorted(CATALAN_TERM_ORDER))
def test_catalan_free_energy_term_order(g, n):
    assert term_order_digest(cat.free_energy(g, n)) == CATALAN_TERM_ORDER[g, n]


@pytest.mark.parametrize("g,n", sorted(HURWITZ_TERM_ORDER))
def test_hurwitz_free_energy_term_order(g, n):
    assert term_order_digest(hur.free_energy(g, n)) == HURWITZ_TERM_ORDER[g, n]


def test_every_probe_is_pinned():
    probes = {("catalan", g, n) for g, n, _, _ in cat.LAPLACE_PROBES}
    probes |= {("hurwitz", g, n) for g, n, _, _ in hur.LAPLACE_PROBES}
    assert probes == set(PROBE_HEX)


@pytest.mark.parametrize("model,g,n,xs", [
    *(("catalan", g, n, xs) for g, n, xs, _ in cat.LAPLACE_PROBES),
    *(("hurwitz", g, n, xs) for g, n, xs, _ in hur.LAPLACE_PROBES),
])
def test_free_energy_float_bits(model, g, n, xs):
    module = cat if model == "catalan" else hur
    assert float.hex(shared.free_energy_float(module, g, n, xs)) == PROBE_HEX[model, g, n]
