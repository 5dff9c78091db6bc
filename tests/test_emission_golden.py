"""Golden emission digests for the matmul and stencil emitters.

Each variant hashes every superstep's ``(label, src, dst)`` in emission
order, followed by the computed product or grid bytes.  The digests were
recorded from the per-task emitters that the whole-level emitters
replaced, so they pin what ``test_static_structure`` does not: the
message order inside every superstep (the trace keeps it, and the
simulator's FIFO arbiters read it) and the bit-exact values.

Regenerate (only when an emitter change is *meant* to alter the
schedule) with ``PYTHONPATH=src python tests/test_emission_golden.py``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.algorithms import matmul, matmul_space, stencil1d
from repro.algorithms.semiring import BOOLEAN, MIN_PLUS, STANDARD


def _digest(result, values: np.ndarray) -> str:
    sched = result.schedule
    h = hashlib.sha256()
    h.update(np.int64(sched.v).tobytes())
    for s in range(sched.num_supersteps):
        label, src, dst = sched.superstep(s)
        h.update(np.int64(label).tobytes())
        h.update(np.int64(src.size).tobytes())
        h.update(np.ascontiguousarray(src, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(dst, dtype=np.int64).tobytes())
    h.update(str(values.dtype).encode())
    h.update(np.ascontiguousarray(values).tobytes())
    return h.hexdigest()


_SEMIRINGS = {"standard": STANDARD, "minplus": MIN_PLUS, "boolean": BOOLEAN}


def _matmul_inputs(n: int, semiring: str):
    side = int(round(n**0.5))
    rng = np.random.default_rng(n)
    A, B = rng.random((side, side)), rng.random((side, side))
    if semiring == "boolean":
        A, B = A < 0.5, B < 0.5
    return A, B


def _run_variant(name: str):
    kind, *args = name.split(":")
    if kind in ("matmul", "matmul_space"):
        n, semiring, wise = int(args[0]), args[1], args[2] == "wise"
        A, B = _matmul_inputs(n, semiring)
        mod = matmul if kind == "matmul" else matmul_space
        res = mod.run(A, B, semiring=_SEMIRINGS[semiring], wise=wise)
        return res, res.product
    if kind == "stencil1d":
        n, k, fill, wise = int(args[0]), args[1], float(args[2]), args[3] == "wise"
        x0 = np.random.default_rng(n).random(n)
        res = stencil1d.run(
            x0, fill=fill, wise=wise, k=None if k == "auto" else int(k)
        )
        return res, res.grid
    if kind == "diamond":
        n, k, wise = int(args[0]), args[1], args[2] == "wise"
        res = stencil1d.evaluate_diamond(
            n, seed=0.75, fill=0.5, wise=wise, k=None if k == "auto" else int(k)
        )
        return res, res.grid
    raise ValueError(name)


GOLDEN = {
    "matmul:16:standard:wise": "f42b5752e45ea9ac1827cdaa3416615bfe963f2352f1e7c9a376e05dadeb33b0",
    "matmul:16:standard:plain": "b2e5634ea88ae17762591288d23121687f5f93290b5c5acca1e1782f21acfa52",
    "matmul:16:minplus:plain": "f9621f550fa70f76e1747e1173c0a15c3e8fdbc5a386a3328dd945fddec28609",
    "matmul:16:boolean:plain": "143ca9396bb18cde04319c977b39559c0265c38a29fdd2c2ebc1930a99784ccc",
    "matmul:64:standard:wise": "a3cc2014fb7c00e3e1a1fe9015323640a5283b9e0f9707a1206e1fd24450eed2",
    "matmul:64:standard:plain": "7ff0641399f25a66a04bb3f8d8ffd987f2aa13e2ba9145482baefe6f7072360d",
    "matmul:64:minplus:plain": "9e46c1f18dd510cf52bdcd23adcf9b8bc425db725755c4d0e506f0c34afbab65",
    "matmul:64:boolean:plain": "b8f9f95d0f45031b6c17b614e516344fd3e3db9c7c0a13bbf727b6879b487a3d",
    "matmul:256:standard:wise": "22cf47042a9cd16b2b3407d24594edfa117de64910ad72d7302e046ca3349d2a",
    "matmul:256:standard:plain": "fbb5a9842bdf3aa3aabc50ac27796fe75e8d87e55868d5e4c54dbc5ea46c0dbd",
    "matmul:256:minplus:plain": "423be701b7c71fc4e37bddda3c4605af7c33177cc459d1c504d48b7a56dc8ea2",
    "matmul:256:boolean:plain": "f8ab3b29fb9d0438afcb2475f45904ab5484d9b33d4b5c3bb9b2cfd835eeb3ae",
    "matmul:1024:standard:wise": "281a8b2329495365422925da7a2ce9185bd03ad70c2575e8e6c0ba2db8ff5465",
    "matmul:1024:standard:plain": "8d6717cce242aed9a857567bc8cad6be0f18bddaccde2d02cac06abfd041b8ac",
    "matmul:1024:minplus:plain": "76ac86821090e810fde5f7d7fe68811b9d85d7b5765423ea2f9fdf98a9899173",
    "matmul:1024:boolean:plain": "5428d604df7dda689533d934a53da4162a854c345896af34ee8dba413ca9c433",
    "matmul:4096:standard:wise": "251efa6c38017bee19e0c8eac9be5c5654cb187b859a19160bf61e6bf02a4be1",
    "matmul:4096:standard:plain": "9cfe0b9365388a82de1f0b0f146d01a8110b25865836379d4265c331d8e33c08",
    "matmul:4096:minplus:plain": "66baa5453fa7f7981bc505f92fa93d1512743a2003747fac371ac0c5b28fcee3",
    "matmul:4096:boolean:plain": "bd843767f178e907de6dd02b572320002296d128f5b80e559efd217c2e692493",
    "matmul_space:1024:standard:wise": "98e8d11d8b3a291cf7da96bcb31861c47a2c0a274802fd49268fad9df11db2a1",
    "matmul_space:1024:minplus:plain": "8c63ea2f45f9b354541fbf48e9a282b9d0fe3042c848ee87d7a043a368438466",
    "stencil1d:8:2:0.25:wise": "3367b3372003fa2f5c98f2c6f670e12ee1b2470b87d8a56861436da0d93c4ac0",
    "stencil1d:8:4:0.25:wise": "3c370134e3ef90b6cf3e75952868fd7a172c4a6fc56eb4d1abe1cb6dbbffcdbf",
    "stencil1d:8:auto:0.25:wise": "3c370134e3ef90b6cf3e75952868fd7a172c4a6fc56eb4d1abe1cb6dbbffcdbf",
    "stencil1d:8:auto:0.0:plain": "4c7c3c698ce5228b977946a7b23e8117bd56e3f8799d3b2d1084f5ec180020b2",
    "stencil1d:8:2:0.25:plain": "d9322f5f61c50589bd0868bb98d1f474f532908a51717bbd7ee95e48931ec741",
    "stencil1d:16:2:0.25:wise": "2e24bbd62a23c241bf164bc5d50a74c887a4013fa9130f84d4d91fbd8579b8ec",
    "stencil1d:16:4:0.25:wise": "ce272c823c37e642ccf22173272ba5c9b274a42f8352fd9ba10a7048a0a603e4",
    "stencil1d:16:auto:0.25:wise": "ce272c823c37e642ccf22173272ba5c9b274a42f8352fd9ba10a7048a0a603e4",
    "stencil1d:16:auto:0.0:plain": "fe282f10a751546f17591cb9980dbd1148b18d422fa5f3d2039e657295421bed",
    "stencil1d:16:2:0.25:plain": "97241bfd15c30ae2a9929dae437d4b049910414f34ee44e4af8546efaf75f124",
    "stencil1d:32:2:0.25:wise": "467482a9ebab32a3a3073f92ca6ba81966df339be93b1ccb1972bdd063e68d11",
    "stencil1d:32:4:0.25:wise": "f6db459cbd88c51a48883cbfb5f8ce2ff92409b30e4d10a252dd0c5911d40279",
    "stencil1d:32:auto:0.25:wise": "499b07f688ac3aebc0763da8c74b49b3abaaee37257a7085a5771d1fc857b871",
    "stencil1d:32:auto:0.0:plain": "c08d9b8bf3a540fa6fba36460157204e297b02f4082a97ccb5541f8c514a147a",
    "stencil1d:32:2:0.25:plain": "4b8f892a57349ac14fcc3fc9bb7ba702b6f77cb94788f43ea44b2333b062ffbd",
    "stencil1d:64:2:0.25:wise": "d242deed6f7745d7f453146b3a7216e553962d23499d281a5fa7d594cc9fb1a0",
    "stencil1d:64:4:0.25:wise": "fc555a508bd10aa11aed486c381823b5b5dfe10100c78603e2663a124f7d0597",
    "stencil1d:64:auto:0.25:wise": "36036ff310d7e09f00223a7fc5bf45a56b1d99cf99dcf6fed70076f24844638e",
    "stencil1d:64:auto:0.0:plain": "32c4d8adadd4139038e37a8569874df16bc3649ba50664b0caf343a089cf76b3",
    "stencil1d:64:2:0.25:plain": "f3375c72afe931869362e8f4580baad371fc94681278d7b2b5e5b3d700366077",
    "stencil1d:128:2:0.25:wise": "17c855db3becb95ef55c1259e9fc510302296428f985f769ce6cfaf4b9123b6c",
    "stencil1d:128:4:0.25:wise": "74c143cb68c750519afc5de931d6d4c24c7dfb8dba0c5b7c5da4fdf7589682ab",
    "stencil1d:128:auto:0.25:wise": "61742149e8208c714c5b60b928defdda6de6113601a5195bd504c9018a539a03",
    "stencil1d:128:auto:0.0:plain": "242d5646394b07e87b922b5a26d48acb1a8a44869d06ba961b795ec8ea51ee3e",
    "stencil1d:128:2:0.25:plain": "a48faafa5eb642578d009c679443cd0a15858b573d6be30058c6650e839fa60b",
    "diamond:4:auto:wise": "7b2c58c76ff1b6dad488ed684657467769d8e2a53d02f84fd5a79600cc03437a",
    "diamond:4:auto:plain": "131757f95e4638db937e64492422cc30a386e910ce98eda46ed30979222d0b9e",
    "diamond:4:2:wise": "32d0af6b7811bde1ed49aba1ecac208d9f1fa12a861371d5828f75775ee7f074",
    "diamond:8:auto:wise": "a2f0d8e7ce7c9782a405a4c013cd48dea50449b6a98ac3c55a543bbffb5c1821",
    "diamond:8:auto:plain": "e56de8b4b39443d292fc3508d0c7a12b228d396bd827cafe134120e4ad3340e0",
    "diamond:8:2:wise": "c96e8c11277598a5cd9b336947599b279f7a6548288dba89d510c57842440f44",
    "diamond:16:auto:wise": "25d4eb78932c83f0bf372148fe00eb729e190eb62fd884c5bbb777a90c9c3c34",
    "diamond:16:auto:plain": "2911bc56a0da3428b4554f4ee38c1f9b1b7122081c982fc439a62c9ce30c6696",
    "diamond:16:2:wise": "d52e388c4408ce273772884b84c267316093dd3961df95b44f80d00ae3e8b49c",
    "diamond:32:auto:wise": "4bbbc8e640d8d29bc325947de741debd4632f5de57bbbc908a6b60eed1159409",
    "diamond:32:auto:plain": "2bdd0b74a10cf36c68f410579453e7a8c1a7714d8364d0614b849be2d068a997",
    "diamond:32:2:wise": "1458d89b62e20f7fd575d23c6e5a866485939fac43c7f800ffeaeb18918aa3a7",
}


@pytest.mark.parametrize("variant", sorted(GOLDEN))
def test_emission_digest(variant):
    res, values = _run_variant(variant)
    assert _digest(res, values) == GOLDEN[variant]


def _variants() -> list[str]:
    out = []
    for n in (16, 64, 256, 1024, 4096):
        out.append(f"matmul:{n}:standard:wise")
        out.append(f"matmul:{n}:standard:plain")
        out.append(f"matmul:{n}:minplus:plain")
        out.append(f"matmul:{n}:boolean:plain")
    out.append("matmul_space:1024:standard:wise")
    out.append("matmul_space:1024:minplus:plain")
    for n in (8, 16, 32, 64, 128):
        for k in ("2", "4", "auto"):
            out.append(f"stencil1d:{n}:{k}:0.25:wise")
        out.append(f"stencil1d:{n}:auto:0.0:plain")
        out.append(f"stencil1d:{n}:2:0.25:plain")
    for n in (4, 8, 16, 32):
        out.append(f"diamond:{n}:auto:wise")
        out.append(f"diamond:{n}:auto:plain")
        out.append(f"diamond:{n}:2:wise")
    return out


def test_golden_covers_every_variant():
    assert sorted(GOLDEN) == sorted(_variants())


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print("GOLDEN = {")
    for name in _variants():
        res, values = _run_variant(name)
        print(f'    "{name}": "{_digest(res, values)}",')
    print("}")
