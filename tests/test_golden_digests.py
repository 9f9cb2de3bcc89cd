"""Golden content digests: the store's addressing bytes are frozen.

Every stored campaign result is keyed by :func:`instance_digest`, a
SHA-256 over the canonical JSON of the materialized instance.  Any drift
in the seed stream, in the spec's materialization or in
``to_dict``/``canonical_json`` would silently orphan every stored
result, so these tests pin literal digests and point seeds, not just
self-consistency; the spec's one-pass seed hash is checked against
``numpy.random.SeedSequence``, the seed's definition.
The spec covers every axis kind: catalog and synthetic applications;
uniform, times and clustered platforms; balls, greedy-spare, fixed
random and fixed blocks replications; both models; and a
multi-objective grid.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Application, Instance, Mapping, Platform
from repro.campaign import CampaignSpec
from repro.campaign.spec import MATERIALIZATION_VERSION, _seeds
from repro.campaign.store import instance_digest
from repro.experiments.examples_paper import example_a

SPEC = {
    "name": "golden",
    "draws": 1,
    "models": ["overlap", "strict"],
    "applications": [
        {"label": "sdr", "workload": "sdr-receiver"},
        {"label": "rand", "synthetic": {"n_stages": 3, "shape": "random",
                                        "scale": 10.0, "seed": 7}},
    ],
    "platforms": [
        {"label": "uni", "n_procs": 8},
        {"label": "times", "n_procs": 8, "comp_time_range": [5.0, 15.0],
         "comm_time_range": [0.0, 10.0]},
        {"label": "clu", "n_procs": 8, "clusters": 2,
         "intra_bandwidth_factor": 4.0},
    ],
    "replications": [
        {"label": "balls", "policy": "balls"},
        {"label": "greedy", "policy": "greedy-spare"},
        {"label": "rnd-2x2x1", "policy": "fixed", "counts": [2, 2, 1],
         "assignment": "random"},
        {"label": "blk-2x2x1", "fixed": [2, 2, 1], "assignment": "blocks"},
    ],
}

#: Digests of ``SPEC``'s points in expansion order (the 5-stage catalog
#: workload takes only the random-count replications).
SPEC_DIGESTS = [
    "ccfcef099be73617f73327cf8c5365569fe0bff11d7e36fc43749a222140b775",
    "5cc5002f8e7195ec20605180d5713432d005e179f9609c03f43bf623c5886fe2",
    "a894c16ca2f32826807de5dfe7b06dd9f61c6263d31d2ddf64b3f8e237aab6ba",
    "783a19dae0ccb9545ef798c0a23d0f22185a75773e16fc632883488232096ebf",
    "b55ae15936b0a7d153915e1c471968edd5d4c549b3ff54e1b7d6f964b994e033",
    "22d17cf443b9fdc30355320eb24fd4bb5234a4cbcf19e09a3ed42b5321c5d372",
    "66fd8ff35b722d44aadb18d4d08ebca75da3008092e7cafa3e0d991e931eabae",
    "4de5e3b92bfb310e8122e8a5aa2f7c833413a62cca506f680aa33ebff290022d",
    "c5d39b23c88da7d542210a16bfed299eb48a98d2ebdac7ce6817ab8004ee59ba",
    "b6f0db3b2fa402a9971798d3c66cd15a33cfc4aacf943c31e896d792024060e8",
    "b4021e4d8f27f20de4dd1e5137d7db6836ab931c0bb2dcdf260511a5a58105c5",
    "294c67954eb0ed65cb3a0a945eddd2777ca716c23a2ae2a3938828cffc7a7a8c",
    "5f397cf0525fe18244e0a907f16414be5ea4fa67a79328293f83e2063e8e7997",
    "232f68c0b94379b1eb2620c43e31882a99436f2ef4aa7b6015947b3348beed04",
    "a8068a3a47ed0d9cf6253938fba2de4a98addbd73d8ca8f82e60b47706219fc6",
    "87564752d39a13c96bd078aa5c3b78f7f529e43c209e7103e6aad8a209eafe29",
    "edce3aa061f7390ef19fe12a2060dd0026c2e7a5c5943f086ced28578fb53a21",
    "7bd0c47f81e942edde29e5c25b73d0a9437ab2eed0bcccd51fb9c0710b041559",
    "3894b3d5eb1255eef9e8aee29ff7a47607637fa5d2d505ca9f38b7b620b300ea",
    "d2c7a86e2cde049a025cdfce8f1f4bfc0afd4e1ae33c0eba57bec41225d9ec25",
    "a3d0f8247246891af17c44cccfe40e6378b5a97780b39e714bc5b4e15278b925",
    "90604949dd38ed343b9bc419b5c73531ea4c4dc0b7f82bdb603c7a82e58a5604",
    "868cad10aa063fd903b5aabfb188edc26fde66bbe8c19fc5a4631913ee354ca0",
    "81baabc5926dba96a77dfdbe4e2898aba1422f739754d83ad83b0a547447cce8",
    "a038cb02e1bb43d287d4e1d323e6de9132d2a31b177e36c24bfb6111de6c7e43",
    "cc2dc9816ba6d885955c982fd72ae7a887ffda5b7304b18e9f2969645d0a76ca",
    "3d83a650a9b7551047168632ab086900bd71b97d833e56e4dc053eebe88b2c53",
    "c44b4043e48fc4d11a6262242781bcf009b1a87b489c474f1511617d196d170a",
    "26ba9b5c5a6117b45cdb3652485a41e931f6d5da72dec868ba02b7ab6697e4ce",
    "d873fec9e2c11bf2c082d3afffad5d9add57aba3382c064fb93afc6422026f70",
    "7dfcf9b8607bd5ca504356df64653e68936bffca30279ecd257f1dca0fe2d3ea",
    "e1f2835e6c92a126ba0490a53928134596b01365a7d2f956542e21fab194aced",
    "e98636d7d24359903260f47f7ad40a16e75eed39fd34fe35a390fafea63b1231",
    "7ad4658e3655a3acf56f0ff855dc5b3468bdcec262f4cf18172c7a1d12e94c8d",
    "39d7bdef983228aeb07c1d73c03d2e497843d65a6ea9302db8cb936a714af9e8",
    "caa860cf0752a0177b01dafe435b1635b1e89c6f0ede020d042b721b7e3e70a1",
]

#: ``SPEC`` with the fixed replications and three objectives.
MULTI_DIGESTS = [
    "f1a304f2d9cd3bf6ee99644340d43d340419e1a826a8449662d6fb074195b9a9",
    "03d333d4047ec68119f29500ce01ed85bea01acf7ec98bd904067d093a1c609b",
    "5bbfa8aba483a2a5ad8a29328dd347476f4a43d91a04e9923f925aa88cea50e6",
    "99656174a54fbed069966eb43f5f7b2ea0f622e04446704f5f924524710ce902",
    "39e5ae705b322b8474cec1f5e7dc3aab00a21c452fa725d3ee31e7506073d5ae",
    "0a8f33f2bf512f9c6c45ad6cddaa033b471007f4f3d72430f61272a05af355ce",
    "a9ca29063a040cb6a4fa9de3a51875245ce144418ea3e3dd2f8c20075020d2ca",
    "16f01d044e0c4091aa94b9890fbc0759ae9d6652f55059f19352731758d2e703",
    "5dc629acd7cf9fcf34b71284643e45b00482ad5224c5d1a1ebb85af88bd3b15a",
    "dc3ad6318c8d158d04f22c35afbff0e710ca7a5d41735eb3e86fba620854cb03",
    "1b3b0469e917771b36571795f7bd91d146c0d2d3f942f87f29bcb2c5025996a7",
    "ebd271c9eeb764d8cf7348b9d55c1870e04d6285445bc5ad7327bbd525733357",
]


#: ``CampaignPoint.seed`` of draws 0-3 of ``SPEC``'s first and last
#: cells, per root seed: 0, one with two entropy words, and the default.
SPEC_SEEDS = {
    0: {
        ("sdr", "uni", "balls", "overlap"):
            [645902654, 1030849619, 2777566816, 1134459808],
        ("rand", "clu", "blk-2x2x1", "strict"):
            [3723999759, 571013590, 1795315219, 716099631],
    },
    2**40 + 7: {
        ("sdr", "uni", "balls", "overlap"):
            [248438385, 131895345, 419641319, 1127567345],
        ("rand", "clu", "blk-2x2x1", "strict"):
            [150845693, 1871511996, 397731766, 623958707],
    },
    None: {
        ("sdr", "uni", "balls", "overlap"):
            [3999820061, 1775494479, 2978766274, 784746864],
        ("rand", "clu", "blk-2x2x1", "strict"):
            [2816093267, 2110674378, 876928605, 598237854],
    },
}


def _digests(spec: CampaignSpec) -> list[str]:
    return [instance_digest(pt.instance(), pt.model,
                            objectives=spec.objectives)
            for pt in spec.expand()]


def test_spec_digests_are_pinned():
    assert _digests(CampaignSpec.from_dict(SPEC)) == SPEC_DIGESTS


def test_materialization_version_moves_with_the_digests():
    # Store manifests are keyed by MATERIALIZATION_VERSION.  A change
    # that moves a golden digest breaks this pin too: bump the version
    # (so no manifest written by the old code is trusted) and re-pin.
    pinned = hashlib.sha256(
        "".join(SPEC_DIGESTS + MULTI_DIGESTS).encode()).hexdigest()
    assert (MATERIALIZATION_VERSION, pinned) == (
        1, "96181bd9556b16ff4a8cd8c7c8e43e701391eda8ce0054dc7f3eb9a36ec0f491")


def test_multi_objective_digests_are_pinned():
    spec = CampaignSpec.from_dict({
        **SPEC, "objectives": ["period", "latency", "reliability"],
        "replications": SPEC["replications"][2:],
    })
    assert _digests(spec) == MULTI_DIGESTS


@pytest.mark.parametrize("model, digest", [
    ("overlap", "8016f162da8fc9ec08dbb9cddd20104d7ebce3130b7b895fac681f0bf1d48579"),
    ("strict", "4d719b94770dd67d8a90739822fe2d0b9f084b1e468ed54a9ec28ca935b576a0"),
])
def test_example_a_digest_is_pinned(model, digest):
    assert instance_digest(example_a(), model) == digest


def test_infinite_link_digest_is_pinned():
    # zero communication times become "inf" bandwidths in the bytes
    inst = Instance(
        Application(works=[2.0, 3.0], file_sizes=[4.0]),
        Platform.from_comm_times([1.0, 2.0, 4.0], [[0, 0, 3.0],
                                                   [1.5, 0, 0],
                                                   [2.5, 0.5, 0]]),
        Mapping([(0,), (1, 2)]),
    )
    assert inst.to_dict()["platform"]["bandwidths"] == [
        [0.0, "inf", 1 / 3], [1 / 1.5, 0.0, "inf"], [1 / 2.5, 2.0, 0.0]]
    assert instance_digest(inst, "strict") == (
        "d1b1d491de6413151eea9f4adfe9bb82932cfdefa9212a3f1fbcf0dd96e21e88")


@pytest.mark.parametrize("root_seed", list(SPEC_SEEDS))
def test_point_seeds_are_pinned(root_seed):
    data = {**SPEC, "draws": 4}
    if root_seed is not None:
        data["root_seed"] = root_seed
    points = CampaignSpec.from_dict(data).expand()
    for cell, seeds in SPEC_SEEDS[root_seed].items():
        assert [(p.draw, p.seed) for p in points if p.cell == cell] == \
            list(enumerate(seeds))


@settings(max_examples=60, deadline=None)
@given(root_seed=st.integers(0, 2**70 - 1),
       name_key=st.integers(0, 2**31 - 1),
       cell_keys=st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=3),
       draw=st.integers(0, 10**5))
def test_vectorized_seeds_equal_seed_sequence(root_seed, name_key,
                                              cell_keys, draw):
    seeds = _seeds(root_seed, name_key, cell_keys, draw + 1)
    assert seeds.dtype == np.uint32 and seeds.shape == (len(cell_keys)
                                                        * (draw + 1),)
    for c, cell_key in enumerate(cell_keys):
        for d in (0, draw // 2, draw):
            expected = np.random.SeedSequence(
                [root_seed, name_key, cell_key, d]).generate_state(1)[0]
            assert seeds[c * (draw + 1) + d] == expected


def test_negative_root_seed_raises_like_numpy():
    with pytest.raises(ValueError):
        np.random.SeedSequence([-1, 0, 0, 0])
    with pytest.raises(ValueError):
        CampaignSpec.from_dict({**SPEC, "root_seed": -1}).expand()
