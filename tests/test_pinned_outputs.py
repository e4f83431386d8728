"""SHA-256 digests of fixed-seed outputs of the GM/Lagrangian code.

The manifest stores digests, not copies.  A change that alters one of them
changes what the library computes: it must say which digest moved and why,
and update the manifest with the new value.
"""

import hashlib
import random

import pytest

from gmlab import cli
from gmlab.exact import GFExt, PrimeField, QQ
from gmlab.gmlag import (
    OMEGA_INT,
    canonical_wq,
    gm_to_lagrangian,
    lagrangian_to_gm,
    random_lagrangian,
)

RINGS = {"F5": PrimeField(5), "F7": PrimeField(7), "F9": GFExt(3, 2), "Q": QQ}

MANIFEST = {
    "gm-random-F5": "1cbe1322d5c39f526f39f1fcf17f57022a4bc6bbfa1d1f943686f222df62a729",
    "gm-random-F7": "902ef89ab63917a4ca8ca34e51fb42743ee644c4f340f4042a3729c69b16e6ec",
    "gm-random-F9": "e12b265ef39c42e7d0e287e4a8a03bb73c36d0a50b4f1cd9a363b419c1d99f7b",
    "gm-random-Q": "d09e8846ccb6899d3cf07554f306d6f003dd4d16fdf5cd2021564c791b27d75d",
    "roundtrip-F5": "3e967e9a8b6566b5830125fdafb8470f3e5ab0f08c85d1639840925be52d703b",
    "roundtrip-F7": "ac22b391f6ad1974fb8d6224619d6920fd7e9fd9c0c1411c9ed81b38ee01d47d",
    "roundtrip-F9": "023259b29d1f9e09ed0b319b1b3d6121001c7b74c4f24304219b42178c045125",
    "roundtrip-Q": "67920c8288d48caa463a713abc358ee1e7a94a505c50c3c1b50046a42abe67b1",
    "omega-int": "b39bd8176e3f3d0018713ac2d6b687f6c0217bb8d92ba59d43a1e835639eb5ac",
}


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(RINGS))
def test_gm_random_stdout(name, capsys):
    outputs = []
    for n in (3, 4, 5):
        assert cli.main(["gm", "random", "--ring", name, "--n", str(n), "--seed", "11"]) == 0
        outputs.append(capsys.readouterr().out)
    assert _sha(outputs) == MANIFEST[f"gm-random-{name}"]


@pytest.mark.parametrize("name", sorted(RINGS))
def test_roundtrip_stream(name):
    ring = RINGS[name]
    rng = random.Random(f"pinned/{name}")
    parts = []
    for n in (3, 4, 5):
        for _ in range(2):
            D = random_lagrangian(ring, n, rng)
            gm = lagrangian_to_gm(D)
            D2 = gm_to_lagrangian(gm)
            gm2 = lagrangian_to_gm(D2)
            parts += [D.a_rows, gm.w_rows, gm.q, D2.a_rows, canonical_wq(gm2)]
    assert _sha(parts) == MANIFEST[f"roundtrip-{name}"]


def test_omega_int():
    assert _sha([OMEGA_INT]) == MANIFEST["omega-int"]
