"""Golden digests of the CLI: every subcommand on every fixture and on seeded
random surfaces.

Each case records the exit code and the sha256 of stdout.  The digests pin
the CLI's output byte for byte, so a change meant to be behaviour-preserving
(a speed-up, a refactor) must leave every one of them as it is.
"""

from __future__ import annotations

import hashlib
import random

from stripfol.io import serialize

from fixtures import all_fixtures, hostile_ids
from _gen import comb_surface, components, connected_surface, random_moves, random_surface


def _surfaces():
    """Named surfaces: the fixtures, then seeded random ones, connected or not."""
    out = dict(all_fixtures())
    rng = random.Random(4)
    for i in range(3):
        out[f"gen{i}"] = random_surface(rng, max_strips=8)
    for i in range(2):
        s = random_surface(rng, max_strips=8, p_glue=0.3, connected=False)
        while len(components(s)) < 2:
            s = random_surface(rng, max_strips=8, p_glue=0.3, connected=False)
        out[f"gen-split{i}"] = s
    out["gen-large"] = random_surface(rng, max_strips=40, max_intervals=3)
    out["gen-large-moved"] = random_moves(rng, out["gen-large"], 12)
    out["hostile-ids"] = hostile_ids()
    return out


def _cases(names: list[str], first_strip: dict[str, str]) -> list[tuple[str, list[str]]]:
    """(case id, argv) pairs; file arguments are surface names, resolved later."""
    cases = []
    for k, name in enumerate(names):
        partner = names[(k + 1) % len(names)]
        for tag, argv in (
            ("validate", ["validate", name]),
            ("leafspace", ["leafspace", name]),
            ("leafspace-dot", ["leafspace", name, "--format", "dot"]),
            ("decompose", ["decompose", name]),
            ("decompose-interior", ["decompose", name, "--mode", "interior"]),
            ("canon", ["canon", name]),
            ("iso-self", ["iso", name, name]),
            ("iso-next", ["iso", name, partner]),
            ("realize-lower", ["realize", name, "--component", first_strip[name], "--samples", "4", "--depth", "2"]),
            ("realize-upper", ["realize", name, "--component", first_strip[name], "--side", "upper", "--samples", "3"]),
            ("render", ["render", name]),
            ("render-dot", ["render", name, "--format", "dot"]),
        ):
            cases.append((f"{name}/{tag}", argv))
    cases.append(("kaplan5/realize-B", ["realize", "kaplan5", "--component", "B", "--side", "upper", "--samples", "8"]))
    cases.append(("kaplan5/iso-mirror", ["iso", "kaplan5", "kaplan5_mirror"]))
    cases.append(("gen-large/iso-moved", ["iso", "gen-large", "gen-large-moved"]))
    return cases


def digests(run, tmp_dir) -> dict[str, tuple[int, str]]:
    """Case id -> (exit code, sha256 of stdout), with ``run(argv) -> (code, stdout)``."""
    surfaces = _surfaces()
    paths = {}
    for name, s in surfaces.items():
        path = tmp_dir / f"{name}.json"
        path.write_text(serialize(s))
        paths[name] = str(path)
    first_strip = {name: s.strip_ids()[0] for name, s in surfaces.items()}
    out = {}
    for case, argv in _cases(list(surfaces), first_strip):
        argv = [paths.get(a, a) if i in (1, 2) else a for i, a in enumerate(argv)]
        code, text = run(argv)
        out[case] = (code, hashlib.sha256(text.encode()).hexdigest())
    return out


# computed at the commit before the per-surface partition cache and the
# per-process parser; unchanged since
GOLDEN = {
    "kaplan5/validate": (0, "e6f9c21a9616b6db9d6fa40977ea79b02390bf7b7aa5065b7603e104c7e60dd6"),
    "kaplan5/leafspace": (0, "53b2a46e1e96dfebc89bc162e9e9fc82cb0bb9081b645f344961fb09a58003cf"),
    "kaplan5/leafspace-dot": (0, "faf70892a8501f11183d94bfd72fdd21bdd92cce78354d744f24f44b8c8804a9"),
    "kaplan5/decompose": (0, "d932565318403136555f7e26891ac8ece641bc400b7beef0326059a3fb479d8b"),
    "kaplan5/decompose-interior": (0, "71a09cc34667efa1dc1166b13dac6bbe3261664ba0524f406ddcf25203b0affe"),
    "kaplan5/canon": (0, "64aa1a6a3f82bbb596acd159899f1bb6c3f56bc58007890bd3cd6a95f9d6597f"),
    "kaplan5/iso-self": (0, "1d1ec64141dd6de8edb47f05fdc37cbcf46a46bfe08459bb2630cb019135b2ec"),
    "kaplan5/iso-next": (0, "1d1ec64141dd6de8edb47f05fdc37cbcf46a46bfe08459bb2630cb019135b2ec"),
    "kaplan5/realize-lower": (0, "e8f2fbb190470ad350d0f8e38016d9514fa208857ace75786406fb52ae1bb6ec"),
    "kaplan5/realize-upper": (0, "b8d406f3bf9cb3c4e4baee9e7424f340b92f6822454cca5e86e69407890c09dc"),
    "kaplan5/render": (0, "e302a9ef825ec90d8ab133a0745cf3096cc261cca5778c1d089c9ecb4081071b"),
    "kaplan5/render-dot": (0, "faf70892a8501f11183d94bfd72fdd21bdd92cce78354d744f24f44b8c8804a9"),
    "kaplan5_mirror/validate": (0, "e6f9c21a9616b6db9d6fa40977ea79b02390bf7b7aa5065b7603e104c7e60dd6"),
    "kaplan5_mirror/leafspace": (0, "f7d8040f8381c98f1d21ec2d47d77ee294387a1d3adaa383f19cf340eb807661"),
    "kaplan5_mirror/leafspace-dot": (0, "faf70892a8501f11183d94bfd72fdd21bdd92cce78354d744f24f44b8c8804a9"),
    "kaplan5_mirror/decompose": (0, "18fe8346b9cd7172499d58a550ff94358dceb3945de787e55f8252e05daca23d"),
    "kaplan5_mirror/decompose-interior": (0, "c5d14a56661cd4252ddcc19c6a03ab5449db1ee08237b090ed04b3f9eddb2865"),
    "kaplan5_mirror/canon": (0, "752ab20778de642d62640a77f996806905b7d5c61f1bceb79a3496008f7e376b"),
    "kaplan5_mirror/iso-self": (0, "1d1ec64141dd6de8edb47f05fdc37cbcf46a46bfe08459bb2630cb019135b2ec"),
    "kaplan5_mirror/iso-next": (1, "e831412b2083aa2eb211f0ae5d65db052944c8072644d8e1b22e91f5fd0a2ab7"),
    "kaplan5_mirror/realize-lower": (0, "e8f2fbb190470ad350d0f8e38016d9514fa208857ace75786406fb52ae1bb6ec"),
    "kaplan5_mirror/realize-upper": (0, "b8d406f3bf9cb3c4e4baee9e7424f340b92f6822454cca5e86e69407890c09dc"),
    "kaplan5_mirror/render": (0, "1975567bd28d7943b697726c595a270adef60dfbe2218cb17e2474c05ed4ccc9"),
    "kaplan5_mirror/render-dot": (0, "faf70892a8501f11183d94bfd72fdd21bdd92cce78354d744f24f44b8c8804a9"),
    "cylinder/validate": (0, "b9ecde4c06e8ed7ea40b4c8d5c75802dc8b71af6d7caaacc037031f4c3110028"),
    "cylinder/leafspace": (0, "c78bc76c3f540c26395d99b5411c1eb94f203c6031013b0c2a1a44d6723a8ae4"),
    "cylinder/leafspace-dot": (0, "088a02df60a6527f5cb1c9b75d2e3829b11c83dc453ae0f3e9d5453b910468a2"),
    "cylinder/decompose": (0, "f3207dc74c07f98ea88bb004b34ff1a4ad28a117d5959137b59db40531c5f52b"),
    "cylinder/decompose-interior": (0, "c51699fc3214eedda3c02792473e381d6b41a251c33e35f5193170a32dcd3a8c"),
    "cylinder/canon": (0, "230b0418964cf7fe668e0e2bceac9417a876f1dd21a716f75f28d388b9813d72"),
    "cylinder/iso-self": (0, "1d1ec64141dd6de8edb47f05fdc37cbcf46a46bfe08459bb2630cb019135b2ec"),
    "cylinder/iso-next": (1, "e831412b2083aa2eb211f0ae5d65db052944c8072644d8e1b22e91f5fd0a2ab7"),
    "cylinder/realize-lower": (3, "adda094c3a0657de14116c6c2bdbea875c1d53bb67edf52696039f32f716858c"),
    "cylinder/realize-upper": (3, "adda094c3a0657de14116c6c2bdbea875c1d53bb67edf52696039f32f716858c"),
    "cylinder/render": (0, "43c74ee53e5631448e4c63b1673978b48c1e2c60c399473af2fa7ffeae0d31bc"),
    "cylinder/render-dot": (0, "088a02df60a6527f5cb1c9b75d2e3829b11c83dc453ae0f3e9d5453b910468a2"),
    "moebius/validate": (0, "b9ecde4c06e8ed7ea40b4c8d5c75802dc8b71af6d7caaacc037031f4c3110028"),
    "moebius/leafspace": (0, "c78bc76c3f540c26395d99b5411c1eb94f203c6031013b0c2a1a44d6723a8ae4"),
    "moebius/leafspace-dot": (0, "088a02df60a6527f5cb1c9b75d2e3829b11c83dc453ae0f3e9d5453b910468a2"),
    "moebius/decompose": (0, "bcb2ea50204f1f911b7e805b2b3056a84c93b5b49830a40ef661a0409e3f1a7c"),
    "moebius/decompose-interior": (0, "3547a8cbdf2135931ea531d14a4e59b865ea3fdf5ce8123466fdb8e065dc18ec"),
    "moebius/canon": (0, "5da6935534dbde4fb267b31cc35f654893f102af6c790c1ab588dc7233435664"),
    "moebius/iso-self": (0, "1d1ec64141dd6de8edb47f05fdc37cbcf46a46bfe08459bb2630cb019135b2ec"),
    "moebius/iso-next": (1, "e831412b2083aa2eb211f0ae5d65db052944c8072644d8e1b22e91f5fd0a2ab7"),
    "moebius/realize-lower": (3, "adda094c3a0657de14116c6c2bdbea875c1d53bb67edf52696039f32f716858c"),
    "moebius/realize-upper": (3, "adda094c3a0657de14116c6c2bdbea875c1d53bb67edf52696039f32f716858c"),
    "moebius/render": (0, "a5ea7517be584465779d132f21cf915bafdc3a2e7be6f0cad450dc31dd5e37e8"),
    "moebius/render-dot": (0, "088a02df60a6527f5cb1c9b75d2e3829b11c83dc453ae0f3e9d5453b910468a2"),
    "open_strip/validate": (0, "3d1a958c463d5e8b07e7d88158047d00fa7970b0ceab4bfb1320ca7b502f7754"),
    "open_strip/leafspace": (0, "7b6a658e46ee64efa62cf8310d15b54356d6048db5443ce3006b8efff7ae6ee3"),
    "open_strip/leafspace-dot": (0, "42587f188a7e4aaf3210f5aa50a19423b2725863a12317b1764802c97a6f09b3"),
    "open_strip/decompose": (0, "78680dbcd44fda17e2783e06339bafaeff97fb58b01643cff7dd0c73f87406ba"),
    "open_strip/decompose-interior": (0, "d0048e2b045195886b08446ea1bc14f9aaaa024846dfc50613f7de8d7e3cdc92"),
    "open_strip/canon": (0, "1cd140176634559b2a4170db73047b7ed18890e01878797abec570174eea65a4"),
    "open_strip/iso-self": (0, "1d1ec64141dd6de8edb47f05fdc37cbcf46a46bfe08459bb2630cb019135b2ec"),
    "open_strip/iso-next": (1, "e831412b2083aa2eb211f0ae5d65db052944c8072644d8e1b22e91f5fd0a2ab7"),
    "open_strip/realize-lower": (0, "e8f2fbb190470ad350d0f8e38016d9514fa208857ace75786406fb52ae1bb6ec"),
    "open_strip/realize-upper": (0, "0168fcc4f704e7152dd9bf98baa941669376498be6b243490f4118a9d50d02e0"),
    "open_strip/render": (0, "121bdea2303c5ae742b8ee6d18e8917b6a5242ae0c460a23834ca131b3a53a96"),
    "open_strip/render-dot": (0, "42587f188a7e4aaf3210f5aa50a19423b2725863a12317b1764802c97a6f09b3"),
    "two_strip_chain/validate": (0, "7f5905a63075fe99e15347120f3692ad7b30162087d23a90887d8638bbbdce55"),
    "two_strip_chain/leafspace": (0, "5dbdaf15410365c95297b16ea3aa6987cb27437ac9b51e335eeec4be9a264a57"),
    "two_strip_chain/leafspace-dot": (0, "0dee72fd50e35a88aefc48004175deb8b683932137d6e96e874bf802013410be"),
    "two_strip_chain/decompose": (0, "c73f541f43b4c85b07f72df3b28b1535b785a5d8d5aa1ec2d1152749229d42e2"),
    "two_strip_chain/decompose-interior": (0, "c5868bc8a5cf5b88455cf069df07a2c93a5d3f4a5fded38706b3a79b468794bc"),
    "two_strip_chain/canon": (0, "ff807fe8e653e3ebaab63db16a930b485767bebaed2090809644438e206d1ff7"),
    "two_strip_chain/iso-self": (0, "1d1ec64141dd6de8edb47f05fdc37cbcf46a46bfe08459bb2630cb019135b2ec"),
    "two_strip_chain/iso-next": (1, "e831412b2083aa2eb211f0ae5d65db052944c8072644d8e1b22e91f5fd0a2ab7"),
    "two_strip_chain/realize-lower": (0, "0bfdcf882496d23375269ce802d8801e1a61cb4e4bd4c85be1783e5a7f1f7795"),
    "two_strip_chain/realize-upper": (0, "599236120f8ed03bf389b000ce1138d1d21992c91e6aa60a261445343c86f523"),
    "two_strip_chain/render": (0, "2c3589f90b593deceb5d4d1f20e9848c3ef00df2f3da3f253e3ee688129eee17"),
    "two_strip_chain/render-dot": (0, "0dee72fd50e35a88aefc48004175deb8b683932137d6e96e874bf802013410be"),
    "horseshoe/validate": (0, "54718b1afdf3d0872d2dc19d4b3e453cbc92ca8114bdda3d55535df36e30a4b8"),
    "horseshoe/leafspace": (0, "6e84a64c907e0aa2394e6d7537444f7e8e0dd001d18108932f77d4415407263e"),
    "horseshoe/leafspace-dot": (0, "9f1c2b67dec3c461c24472a0a1f06b6dcd17f5429b916bbbd8dd6e4819fd3fcc"),
    "horseshoe/decompose": (0, "37bac08e441f8d1632bea8c721de7d1fb06baaf3627b7114ac17da384b4bc52e"),
    "horseshoe/decompose-interior": (0, "204a207ad07e13b259068ba19c17801220a19ef56fc10a92cc1d10f6eff3fc19"),
    "horseshoe/canon": (0, "0c1b525cda5245488a5f2067a6cf4a676a56f8c0fcf5c3de06bf2f260b806d46"),
    "horseshoe/iso-self": (0, "1d1ec64141dd6de8edb47f05fdc37cbcf46a46bfe08459bb2630cb019135b2ec"),
    "horseshoe/iso-next": (1, "e831412b2083aa2eb211f0ae5d65db052944c8072644d8e1b22e91f5fd0a2ab7"),
    "horseshoe/realize-lower": (0, "f5113434f5f70c9fe0b547c89d7efb683b47c9c9b2099f08f8de98f5e2f370ab"),
    "horseshoe/realize-upper": (0, "fe9912655f49c532ab7be7bffe1ee4831b142666d175c8596e4e51e46151cc4b"),
    "horseshoe/render": (0, "4866e8d83cc668870d1fb122f1e22997c8920efa3860aff579da8975321ea27b"),
    "horseshoe/render-dot": (0, "9f1c2b67dec3c461c24472a0a1f06b6dcd17f5429b916bbbd8dd6e4819fd3fcc"),
    "gen0/validate": (0, "0f744b97f6eb4b38ec6d274c11dca8840e2957018235b5dbaa3ada18a72230c4"),
    "gen0/leafspace": (0, "0b67bf5af395d3aeadac1bf3d9ae777a2bb667794784401cb8fb9c2a067c14d9"),
    "gen0/leafspace-dot": (0, "43f98355a7760ac1ce59014afe490555c1eea157025c71aa72aaebdcfe465e88"),
    "gen0/decompose": (0, "8254a69bdf7f943c76c658e797dafc2624cb505d96d750115178ef12c9b6f55d"),
    "gen0/decompose-interior": (0, "1d7cd8cf8d9ad4915421d2058db96ab133fda33f4e934404037154215fe13285"),
    "gen0/canon": (0, "671fc9572413c09aeaf6cc26ef99204e7e5462d9c3b201d5adfc1c933f0b78b6"),
    "gen0/iso-self": (0, "1d1ec64141dd6de8edb47f05fdc37cbcf46a46bfe08459bb2630cb019135b2ec"),
    "gen0/iso-next": (1, "e831412b2083aa2eb211f0ae5d65db052944c8072644d8e1b22e91f5fd0a2ab7"),
    "gen0/realize-lower": (0, "03826bfad8e12dd6e43e72a1add655e13e489d98067557bc29d9994154a30735"),
    "gen0/realize-upper": (0, "0168fcc4f704e7152dd9bf98baa941669376498be6b243490f4118a9d50d02e0"),
    "gen0/render": (0, "e1237caa6f8c489bb9e04579cf57d1b6ef5b20a296f5387552bc1bb712716570"),
    "gen0/render-dot": (0, "43f98355a7760ac1ce59014afe490555c1eea157025c71aa72aaebdcfe465e88"),
    "gen1/validate": (0, "c0b301ea5cb4c8500a5e228566fdd46995fcd188329e5bae596616ddf97bae16"),
    "gen1/leafspace": (0, "5b73a4d28137181ec1115df107b2a05699a2323783ded2662cf0b6e66c168645"),
    "gen1/leafspace-dot": (0, "7a59a3efe69fd065db93185fb993ef7ee53ca3cd3f24143ff2b5a08c864f1c16"),
    "gen1/decompose": (0, "7978259beae615783e3b168b0dcf3b33d1085dd7ac27d7905445745cfef47d5b"),
    "gen1/decompose-interior": (0, "dc4621212aa1222f48a2bb705e2cc006dd0d960a648dd1a277ed53c88492ae96"),
    "gen1/canon": (0, "1fc1098d788673d9b8603e202f310140faccc901a1d5269ed060390f57a54e1e"),
    "gen1/iso-self": (0, "1d1ec64141dd6de8edb47f05fdc37cbcf46a46bfe08459bb2630cb019135b2ec"),
    "gen1/iso-next": (1, "e831412b2083aa2eb211f0ae5d65db052944c8072644d8e1b22e91f5fd0a2ab7"),
    "gen1/realize-lower": (0, "e8f2fbb190470ad350d0f8e38016d9514fa208857ace75786406fb52ae1bb6ec"),
    "gen1/realize-upper": (0, "b7f14d67f75def79a8dfb77dfdaedc079bcf81dbd6136983c43420f35ca20c4c"),
    "gen1/render": (0, "884114c169195263432bbb8ce5b1095f9774c981a2468c68b556e373fda71bd2"),
    "gen1/render-dot": (0, "7a59a3efe69fd065db93185fb993ef7ee53ca3cd3f24143ff2b5a08c864f1c16"),
    "gen2/validate": (0, "efad56fe00fca96814f597c4838dd61b500b3995b384ca40f969940df4ee71b8"),
    "gen2/leafspace": (0, "ef552d8e6b3877e11aeb615da52edf54176ea52fc1b092047b844d80236eb9e6"),
    "gen2/leafspace-dot": (0, "0f5e4c1d2e08ff1f2e23b1ae016082fa72b528671485d017bcac11717bca5605"),
    "gen2/decompose": (0, "ff50bf4800dc8450bf6519797ae042fbf4b91ebbf90cba6cbea6a086b1c3c7a6"),
    "gen2/decompose-interior": (0, "059bc9fb192e3eb394c5bb6695c77fe29c2773f07655b27cccac4d8aaf4ae7e5"),
    "gen2/canon": (0, "2bbbe07606b387eac0263827fa41e1d31db249b0a26b2411c524ab7b87a2885e"),
    "gen2/iso-self": (0, "1d1ec64141dd6de8edb47f05fdc37cbcf46a46bfe08459bb2630cb019135b2ec"),
    "gen2/iso-next": (1, "6b52f12422415c1d3ceb3b1b89eb3a9e6e10a823d27c1585bef67c6de623ac03"),
    "gen2/realize-lower": (0, "04e9d87203327d1db4b6f59310ecfdca675d6201f7b9d64100a4b564b0b8ca37"),
    "gen2/realize-upper": (0, "8a7cc6c4425863d6b965e0a9e93e685d9e871b27a217a42b8d54e549cf941c3a"),
    "gen2/render": (0, "e914c97002212459c95ad5a109a60f3e16b3d9da91ac9204eb8da82258912117"),
    "gen2/render-dot": (0, "0f5e4c1d2e08ff1f2e23b1ae016082fa72b528671485d017bcac11717bca5605"),
    "gen-split0/validate": (0, "3eada2054f3c4c180e9c32f1b60fe33ed06402cf3a75a67418e5e2be9bda8945"),
    "gen-split0/leafspace": (0, "b730dc72ed071f5bccbf4dbbb7c281cdce07cb41d2394e7109d4a263f0443985"),
    "gen-split0/leafspace-dot": (0, "586fa0c086a0731a4d881f5a322acef178785f2fabb5113f1e9191c26f748c5a"),
    "gen-split0/decompose": (1, "719d808e39c5ceb44eafb5235cefac666cd179810c839b34bce971c3672aa76d"),
    "gen-split0/decompose-interior": (1, "719d808e39c5ceb44eafb5235cefac666cd179810c839b34bce971c3672aa76d"),
    "gen-split0/canon": (1, "719d808e39c5ceb44eafb5235cefac666cd179810c839b34bce971c3672aa76d"),
    "gen-split0/iso-self": (1, "c26479e735d47b4b9530f20bcad644f3a4797531968542f3bf29063877cd4545"),
    "gen-split0/iso-next": (1, "c26479e735d47b4b9530f20bcad644f3a4797531968542f3bf29063877cd4545"),
    "gen-split0/realize-lower": (1, "719d808e39c5ceb44eafb5235cefac666cd179810c839b34bce971c3672aa76d"),
    "gen-split0/realize-upper": (1, "719d808e39c5ceb44eafb5235cefac666cd179810c839b34bce971c3672aa76d"),
    "gen-split0/render": (0, "6dedf5b85a630fe917c3a5dfbe0259cdd531f676dada6c2dbc64ed2450a8e157"),
    "gen-split0/render-dot": (0, "586fa0c086a0731a4d881f5a322acef178785f2fabb5113f1e9191c26f748c5a"),
    "gen-split1/validate": (0, "cb76f39103037d6d6cfadf4297aac740ebf87462608fa19dc3786ee72dfc5e6f"),
    "gen-split1/leafspace": (0, "a529cf402a0661bac80c4993b5bb1141b3b1ea0215cab1189ff892342131a6c2"),
    "gen-split1/leafspace-dot": (0, "ad005f2654cebb5dfaa20ec1900bbed9297f56b0287ef3d9f004e1772d7fb3c1"),
    "gen-split1/decompose": (1, "719d808e39c5ceb44eafb5235cefac666cd179810c839b34bce971c3672aa76d"),
    "gen-split1/decompose-interior": (1, "719d808e39c5ceb44eafb5235cefac666cd179810c839b34bce971c3672aa76d"),
    "gen-split1/canon": (1, "719d808e39c5ceb44eafb5235cefac666cd179810c839b34bce971c3672aa76d"),
    "gen-split1/iso-self": (1, "c26479e735d47b4b9530f20bcad644f3a4797531968542f3bf29063877cd4545"),
    "gen-split1/iso-next": (1, "c26479e735d47b4b9530f20bcad644f3a4797531968542f3bf29063877cd4545"),
    "gen-split1/realize-lower": (1, "719d808e39c5ceb44eafb5235cefac666cd179810c839b34bce971c3672aa76d"),
    "gen-split1/realize-upper": (1, "719d808e39c5ceb44eafb5235cefac666cd179810c839b34bce971c3672aa76d"),
    "gen-split1/render": (0, "1fb8d679c79725b465f1b72bf7a0522a6ad18cdb86e51903d972fafdd197fa3d"),
    "gen-split1/render-dot": (0, "ad005f2654cebb5dfaa20ec1900bbed9297f56b0287ef3d9f004e1772d7fb3c1"),
    "gen-large/validate": (0, "25ed4d714d0529231fc6a014d24fa6e600d117da45a3f757bea9174c87384ce3"),
    "gen-large/leafspace": (0, "11da9855e05022e33523ff014e62e42c09d892070fcf84fcce2d7a66a6391023"),
    "gen-large/leafspace-dot": (0, "c98da391323e8da722926a9c213d5aa9d38e6c6dd0a6349607c4b4881ac154e8"),
    "gen-large/decompose": (0, "df7ec36f878c57e590b9596c1851ebc532af84200c790d8df368819073b5e147"),
    "gen-large/decompose-interior": (0, "1c5987de2389b0ab5faf3a748292496ee1198037a4c88ce41bb9a41d25b8fe45"),
    "gen-large/canon": (0, "40b3702f29defbf2e4ae6017658209d93b6fd7a35dcbdae2b38fffaa0e7984cc"),
    "gen-large/iso-self": (0, "1d1ec64141dd6de8edb47f05fdc37cbcf46a46bfe08459bb2630cb019135b2ec"),
    "gen-large/iso-next": (0, "1d1ec64141dd6de8edb47f05fdc37cbcf46a46bfe08459bb2630cb019135b2ec"),
    "gen-large/realize-lower": (0, "d6a69118846d6ac98dc8a9d9230feb72c75983481821b11cda7597d023783c8c"),
    "gen-large/realize-upper": (0, "8755053d8d779c9fee07423e112fc11a4c38e0d701b922ed3a4b911cf4c5555c"),
    "gen-large/render": (0, "716ff065ab0b12b5c50ee093e52c8b31ad0983759cf4d0df0b05c3451eaa0ad9"),
    "gen-large/render-dot": (0, "c98da391323e8da722926a9c213d5aa9d38e6c6dd0a6349607c4b4881ac154e8"),
    "gen-large-moved/validate": (0, "493287448401d762fa7a467509925fe36ecd7dd7a6dea1532754dd336d3929cf"),
    "gen-large-moved/leafspace": (0, "3ed7704a5fec69b3e9a3b1baa34044ffc8c515db6f691ceb93c62e1abfe30418"),
    "gen-large-moved/leafspace-dot": (0, "da0fc55f4a5b0d1f1e03a03da9eb055887c17be0dceccb5b80bb92e8ea89b3f2"),
    "gen-large-moved/decompose": (0, "6485de0288c4bfe0c8a2b07a28a2f69d70bd2ea2b8fe0018b85dee7b617cb315"),
    "gen-large-moved/decompose-interior": (0, "b188b806870763482f58ecbdc1eeabab1389e3824c0a3f7abfccd019c8b9b197"),
    "gen-large-moved/canon": (0, "e2b3543be763bc0b9cf1f6446ac2847dbcbc785390789894a88e04bfd2379c4c"),
    "gen-large-moved/iso-self": (0, "1d1ec64141dd6de8edb47f05fdc37cbcf46a46bfe08459bb2630cb019135b2ec"),
    "gen-large-moved/iso-next": (1, "e831412b2083aa2eb211f0ae5d65db052944c8072644d8e1b22e91f5fd0a2ab7"),
    "gen-large-moved/realize-lower": (0, "d6a69118846d6ac98dc8a9d9230feb72c75983481821b11cda7597d023783c8c"),
    "gen-large-moved/realize-upper": (0, "8755053d8d779c9fee07423e112fc11a4c38e0d701b922ed3a4b911cf4c5555c"),
    "gen-large-moved/render": (0, "600439cff044fc6c93705aedcd565657d0496618d98cf6522e6076da842a9404"),
    "gen-large-moved/render-dot": (0, "da0fc55f4a5b0d1f1e03a03da9eb055887c17be0dceccb5b80bb92e8ea89b3f2"),
    "kaplan5/realize-B": (0, "188e72976381092c2193680275ba617be460357f5f20861b05c31eb8c1262b0b"),
    "kaplan5/iso-mirror": (0, "1d1ec64141dd6de8edb47f05fdc37cbcf46a46bfe08459bb2630cb019135b2ec"),
    "gen-large/iso-moved": (0, "1d1ec64141dd6de8edb47f05fdc37cbcf46a46bfe08459bb2630cb019135b2ec"),
    # hostile-ids: computed at the commit before the shape-aware JSON writers
    "hostile-ids/validate": (0, "f04bed1232f91e5d2521a058e80e193ae00ebddd14284c540b683eee7c624ed0"),
    "hostile-ids/leafspace": (0, "c86fb0bbec4a3c777f1358970a4f90a0139379d4eca443c8167108b0a6729410"),
    "hostile-ids/leafspace-dot": (0, "88d463996a408dabb50144db742b6d92eeb85695e442c2ab7c0e6b0b7ae29a61"),
    "hostile-ids/decompose": (0, "6b8341c3af7377b76265a3277dc6dfbcac8b5913b4b0c950d1801a6671ec0fe9"),
    "hostile-ids/decompose-interior": (0, "566cec5fa6bfcc7213ece1e18f34cba8d26f002eb5a52b6d5ca06597e907c265"),
    "hostile-ids/canon": (0, "afff76a08528d5ad2304b0732d8a5dda6864a2f2fed5506779b07744044a82c6"),  # 1e300 written as 1e+300
    "hostile-ids/iso-self": (0, "1d1ec64141dd6de8edb47f05fdc37cbcf46a46bfe08459bb2630cb019135b2ec"),
    "hostile-ids/iso-next": (1, "e831412b2083aa2eb211f0ae5d65db052944c8072644d8e1b22e91f5fd0a2ab7"),
    "hostile-ids/realize-lower": (0, "e8f2fbb190470ad350d0f8e38016d9514fa208857ace75786406fb52ae1bb6ec"),
    "hostile-ids/realize-upper": (3, "7bdfa18fd9177f44c7317f4b317004579223f0675f6e6f41d38f1791940b2451"),
    "hostile-ids/render": (0, "266603e174c74ac8a672a20ab496767c5cec2c3c64dcc45f15e8629e922396c2"),
    "hostile-ids/render-dot": (0, "88d463996a408dabb50144db742b6d92eeb85695e442c2ab7c0e6b0b7ae29a61"),
}


def test_cli_outputs_match_golden_digests(tmp_path, capsys):
    from stripfol.cli import main

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        return code, capsys.readouterr().out

    got = digests(run, tmp_path)
    assert set(got) == set(GOLDEN)
    changed = sorted(case for case in GOLDEN if got[case] != GOLDEN[case])
    assert not changed, changed


def large_digests(run, tmp_dir) -> dict[str, tuple[int, str]]:
    """The linear subcommands on one 400-strip surface, the size of the
    benchmark's structure corpus.  It stays out of ``_surfaces()``, so that no
    ``iso-next`` pair there changes."""
    path = tmp_dir / "gen-400.json"
    path.write_text(serialize(connected_surface(random.Random(14), 400)))
    out = {}
    for tag, extra in (
        ("validate", ["validate"]),
        ("leafspace", ["leafspace"]),
        ("leafspace-dot", ["leafspace", "--format", "dot"]),
        ("decompose", ["decompose"]),
        ("decompose-interior", ["decompose", "--mode", "interior"]),
        ("render", ["render"]),
        ("render-dot", ["render", "--format", "dot"]),
    ):
        code, text = run([extra[0], str(path), *extra[1:]])
        out[f"gen-400/{tag}"] = (code, hashlib.sha256(text.encode()).hexdigest())
    return out


# computed at the commit before the one-walk decomposition and the shared closures
GOLDEN_400 = {
    "gen-400/validate": (0, "789dd8a59ef0169ea677ba723be515c67c8d9ceb689c512ec889e68507ea3502"),
    "gen-400/leafspace": (0, "880e9a4257b22c5cf3e1a527d35e21ccf2ec59a4759552112718da84e9c4bcd7"),
    "gen-400/leafspace-dot": (0, "b144c04682770b341768fa858f3c35a7b88c2187cc8c6caeeb1ad35bf80b6e55"),
    "gen-400/decompose": (0, "47e131e9d97aba9299d7232c860186fc7f69480de922dfafb388b772938c30ca"),
    "gen-400/decompose-interior": (0, "82c6e0336dc77a08cad7e54a7f7e9e1f607aa29cb154f581cba921bbe2e8e4a7"),
    "gen-400/render": (0, "f770ebfaee82a4c0cb21e345f38354e870d2d70c15c1c127d12aed8fbe27b465"),
    "gen-400/render-dot": (0, "b144c04682770b341768fa858f3c35a7b88c2187cc8c6caeeb1ad35bf80b6e55"),
}


def test_cli_outputs_match_golden_digests_at_benchmark_scale(tmp_path, capsys):
    from stripfol.cli import main

    def run(argv):
        return main(argv), capsys.readouterr().out

    got = large_digests(run, tmp_path)
    assert got == GOLDEN_400


def comb_digests(run, tmp_dir) -> dict[str, tuple[int, str]]:
    """``realize`` on both sides of the k = 4 and k = 5 combs, the deepest
    stage recursion the digests above do not reach."""
    out = {}
    for k in (4, 5):
        path = tmp_dir / f"comb{k}.json"
        path.write_text(serialize(comb_surface(k)))
        for side, samples, depth in (("lower", "4", "2"), ("upper", "3", "3")):
            code, text = run(["realize", str(path), "--component", "S", "--side", side, "--samples", samples, "--depth", depth])
            out[f"comb{k}/realize-{side}"] = (code, hashlib.sha256(text.encode()).hexdigest())
    return out


# computed at the commit before the bisect kernels
GOLDEN_COMB = {
    "comb4/realize-lower": (0, "8bd756e6c2679eecbcdab61deea5c3b32c576619f191d013802203bacff6c1d8"),
    "comb4/realize-upper": (0, "a211599657c241798597a87b3fc202cd7d8733998f6b1162854622d653894637"),
    "comb5/realize-lower": (0, "12ff1a6346d5daa96ccd51ad9e421c8276ed87e0f29a9dbce8b546581159c4a1"),
    "comb5/realize-upper": (0, "6ae017160dc4468c0c87e79f06566c41ed96fe9705d2e0439febc8c17e5b2ba7"),
}


def test_realize_matches_golden_digests_on_deep_combs(tmp_path, capsys):
    from stripfol.cli import main

    def run(argv):
        return main(argv), capsys.readouterr().out

    assert comb_digests(run, tmp_path) == GOLDEN_COMB
