"""Frozen CLI output for every zoo model.

The digests below are sha256 sums of the exact bytes the CLI wrote for each
command, recorded from the implementation that still had five kernel kinds
(sign, linear, coin, constant, fixed) and a separate estimator per model
family. Any later change to how an estimate is computed (kernel routing,
the estimator helper, a new array backend) must leave every printed bit
where it was, at any worker count. Never re-record these to make a change
pass: a changed digest means a changed result.
"""

import hashlib

import pytest

from eprb.cli import run
from eprb.models import MODEL_NAMES

COMMON = ["--n", "2000", "--seed", "11"]
A, B, C = "0,0,1", "0.6,0,0.8", "0,0.6,0.8"
A_PRIME, B_PRIME = "1,0,0", "0.8,0,-0.6"


def commands(model):
    """The frozen commands for one model, by label."""
    corr = ["correlate", "--model", model, f"--a={A}", f"--b={B}"] + COMMON
    sweep = ["sweep", "--model", model, "--steps", "3"] + COMMON
    return {
        "correlate": corr,
        "correlate_csv": corr + ["--format", "csv"],
        "chsh": ["chsh", "--model", model, f"--a={A}", f"--b={B}",
                 f"--a-prime={A_PRIME}", f"--b-prime={B_PRIME}"] + COMMON,
        "bell": ["bell", "--model", model, f"--a={A}", f"--b={B}", f"--c={C}"] + COMMON,
        "sweep": sweep,
        "sweep_csv": sweep + ["--format", "csv"],
    }


def output_digest(argv, path):
    code = run(argv + ["--output", str(path)])
    assert code == 0, argv
    return hashlib.sha256(path.read_bytes()).hexdigest()


# The ``sweep_csv`` digests were recorded later, from the implementation that
# built each CSV row by hand in its own command; the same rule holds.
DIGESTS = {
    "quantum": {
        "correlate": "0757ddd8a80dc0bb24c0678f5e421cd30c674ac7eac8ec13d732b3fc61f8b4b7",
        "correlate_csv": "89babd933c58a94da5bf1c7ce75e9de85336a2515b42b9d9bab720ad1f0b7668",
        "chsh": "0c425a6bab9cf27bde5531e4124d1a5225d49d3961e0ee9509f327bac62082e7",
        "bell": "6bade859020cd819ddb4323ad96e0cbb3aad39b26bff17023b94bd1836b36b96",
        "sweep": "abca7b68e5a0ed28fc87f6238a5ac250a4160d4f14cc3b6d21c59ae01c705070",
        "sweep_csv": "1f3c3557f3ea1ee4e987414d41d36580cc44a0cdd77593a27df8e9e9f452c435",
    },
    "local_sign": {
        "correlate": "96f446ae2dc665197f078202d25620715246be35860b33357fc6d7986c3de18f",
        "correlate_csv": "75e8b2e25368f384b0b6f39fb2f096265286a33671dc3e0d308288de3e0b3a2f",
        "chsh": "ebf9da39290cab104b019ea14ae20b7cf22b02deb9f627fa2a5adb23ea0ad11b",
        "bell": "023a6e984de99310818790f145c4fb9305b5850f913d2b1814a1302f284ccc79",
        "sweep": "a37a61bebcf155b28c66b46497817c0572ae0bb17e4492e1ada4b5369570239d",
        "sweep_csv": "11f6a5c0e2db457d138e4a90b62761c14f3c061c4e8338cddcf6c27a79bc7925",
    },
    "coin": {
        "correlate": "396a215b581041aa0cd561ebfc24c3be105122104975caef488e1379280e937d",
        "correlate_csv": "5d49b87e88630e61c5d170d1df22ef86775b12e193ef4e35b25aa4debd5efdc8",
        "chsh": "88d2da3feb5d6811354bf53d2f83c8a02429503a75436d747678ac98f042cd29",
        "bell": "50b21156a90f12ebd4999e07efa0be8324c397231eadee4f24c0032e0e9642c5",
        "sweep": "9748df5a0103fdcb3d61618051a8791bb3a5ddd54febeeeb1bb79d5f03932629",
        "sweep_csv": "0ba1edfea0b4e3e5442ffc6eeb55d210672f89810e9e9487845528a1f75aaed5",
    },
    "linear": {
        "correlate": "f6a1b446a5944aa5a6210aee62e684ad74ba3b4669aab9f8465fff8e97e62a79",
        "correlate_csv": "04c535ae770f2352598d1895dcb8a9b5222111c3d7d829889afc986f27596689",
        "chsh": "25c6cc2dc191d6e46b7c35a6715f7756f0aeeac901086928b4d15c0610615536",
        "bell": "32692cff5da5db0f4853267279f289856031c99a7085885bc442cb30a49dcf1e",
        "sweep": "ffbe992dacce2dbd9b81091e880749a2d2bc2de70114690a30c12a8c0e059abb",
        "sweep_csv": "8b7ccb2f8ebad07626ca31d3f30df7cd4b20c5768e110568e175242da1f1efef",
    },
    "constant": {
        "correlate": "12c50eb821af80057df6e237fe20eb9923e3e639e7f2fd3f34029cbb55f717f9",
        "correlate_csv": "7bb3b588056be737316e536a905e01dc3b30a13dc7b1978c7dd7f25bdab6f8d0",
        "chsh": "50bbeb0c0274ab61add4d074fd9b319154ae52c8ca2497d8d3a7fc86d1b2e183",
        "bell": "573e149e098ee1e96b6e463c5044b070a1ab7e9acbd458249a9c0726ace8b7ba",
        "sweep": "573baeead835984e7b2d79f1b2d6615d07557fd4b8e21362edf45383d4ebbf93",
        "sweep_csv": "7a169a7b6dee8dd575be5dac1c9ecbf0d73ffa56c7aaa1bb9f705e56c426f272",
    },
    "fixed": {
        "correlate": "cfcaa717cf7916ffb847ef79226d0dc501626b0eaf15838a4822bf083de0adff",
        "correlate_csv": "73af536d80cd82d4679eb2d151839321217cb380ebc71baa16eb142a2b63ea39",
        "chsh": "5eace384c4deb150f3a01df3094c2c2d7d30976144a0ad44103bf376cb5a31b1",
        "bell": "ecd1655f95fba8017df099b3a66d865d846555c2cf70aa074938d0c950b190ba",
        "sweep": "cdf674fd8c07cd7084303f8a72eb9d7040cad43ffe2681958de5d9408b6bb966",
        "sweep_csv": "b23748a978d51f39e88f55e7a7142836157415407cc12dedd58cf99caa5d9060",
    },
    "nonlocal_sign": {
        "correlate": "6c5d70eb4a8375ccf719392b6b5a5a4efc588cfe30fb6ee98f908f278e95d954",
        "correlate_csv": "659ad771925d3523227fc7f99bc580a1b3b148df542c1af0d1018dbaf1ea024d",
        "chsh": "c9c1f7b23635ded170f93e9fa560e97eb6938c7f4ed53fa43f50071e25b8a928",
        "bell": "86d4718df4b38cbbf72f2e8732885c133540023bdf3e9cecd37f94b70688fb94",
        "sweep": "43bae38ddd70a8f1e649e4006fff134ac798ad3e5401ca96202dd34d1ddbdc55",
        "sweep_csv": "cb6dac6fb9bc4ef6bd002230bf9315e82e439fc18fa2976d0c311255d6b97c34",
    },
    "series_delta": {
        "correlate": "51fe0d8b3053ced86ec3a34876eb290602262824a4009bd8f81fdc811f2aa7a4",
        "correlate_csv": "aafa6168ee17c48097387334322560612ce14c39fd360b6c3a5b5e83758f683f",
        "chsh": "7ff89d50313057ea2a9d90741a8694b9d32d4be0e9bb404e45ca87269fd6becc",
        "bell": "269b55a09cb8ef45a8c5d2b5039c98ca11834e1ff4489d853327c90eeb2a30f6",
        "sweep": "86178b0874d77b7795079d38576a52916e9a00b3fb4d857debab2bbd2cfb1284",
        "sweep_csv": "c90798e31c06e608c8cad948144ad5842831d279b0f006966ae7b1e5e4196994",
    },
    "series_random": {
        "correlate": "41d8721827467f5c97878214969bb400b306207ce742e60de52658886529143f",
        "correlate_csv": "9333dbe8223bd4d10b2d74f372596f35181e05e27c033dc5db16e9119f521183",
        "chsh": "e234314369d0015400692799857846341f3f483c7aabbcd13428bfb6f597bc3c",
        "bell": "29671c6a2221ea0ea36f540e09a934275b10741e4971b93f0295d0d9826fa0d4",
        "sweep": "3ab5ceaa45d2ba21dae112336d72e224b79e2490463f9323f8b10992f0bd01e6",
        "sweep_csv": "2e20454cc492314bbfae7ce9db41a6af46de67ab907f82a0758cc819dfa949a4",
    },
}


def test_every_zoo_model_is_frozen():
    assert set(DIGESTS) == set(MODEL_NAMES)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("model", MODEL_NAMES)
def test_cli_output_matches_frozen_digest(model, workers, tmp_path):
    for label, argv in commands(model).items():
        got = output_digest(argv + ["--workers", str(workers)], tmp_path / label)
        assert got == DIGESTS[model][label], f"{model} {label} at workers={workers}"


# sha256 of `eprb analyticity` output, recorded from the implementation that
# evaluated the stencil one RiemannPoint at a time and wrote the whole report
# through json.dumps. The same rule holds: never re-record these.
ANALYTICITY_DIGESTS = {
    ("--w", "inf", "--grid", "21"):
        "be7ae6ce86c86340114c51b2cdf2fb9f22023d37535800afe9a3172fbc4d325a",
    ("--w=0.3,-0.7", "--grid", "195"):
        "fca82804f2bcd47a5202f2a16f8bced7d01bd3b46fee69be39f975d591f30455",
    ("--w=0.5,0", "--radius", "2.5", "--grid", "21", "--h", "1e-3"):
        "c0aa501ae1d71f1167ffb8bdd61703f8a870d1a8dfbe918647ce4d89cc033e0c",
    ("--w=0,0", "--grid", "64"):
        "b82c4c5ea3efc95c79d6d726b85eb7f3e2a1641c88014bfe97e96ee810c7f6e8",
    ("--w=1e3,2", "--radius", "1e5", "--grid", "64"):
        "093a0ebf4d6fb92eaaef8d00c818093d8a6406134492068394815ec0aae1effa",
    ("--w=-1.2,0.4", "--grid", "5"):
        "cc8f9614b6f6f6e3be145f9d41e94c250edb5aac4969dc91d341e4e89847f07b",
    ("--w=1e10,0", "--grid", "21", "--radius", "1e-3"):
        "31e2a66e968bcffe2f18000c1f8651c54951c64db1afdc75301dc2230e5a6eca",
}


@pytest.mark.parametrize("argv", list(ANALYTICITY_DIGESTS), ids=" ".join)
def test_analyticity_output_matches_frozen_digest(argv, tmp_path):
    got = output_digest(["analyticity", *argv], tmp_path / "analyticity")
    assert got == ANALYTICITY_DIGESTS[argv], " ".join(argv)


# sha256 of `eprb sweep` output long enough to cross the writers' piece
# boundary (8192 rows), recorded from the implementation that walked every
# row dict with json.dumps and a per-cell CSV rule. The same rule holds:
# never re-record these.
LONG_SWEEP_DIGESTS = {
    ("--model", "quantum", "--steps", "20000"):
        "52335f3478290c9dad45d4b823237e085b1cc2e848be1056a7f4d810a47f4d13",
    ("--model", "quantum", "--steps", "20000", "--format", "csv"):
        "328a7b5f7b3bca6a8c683983ca4d2821c1f8cd485de8f81bc7df8be13d22690e",
    ("--model", "local_sign", "--n", "4096", "--seed", "7", "--steps", "9000"):
        "7074e96491e4b73069ae86b74786779be238c08e880aa69668050c56d1978704",
    ("--model", "local_sign", "--n", "4096", "--seed", "7", "--steps", "9000",
     "--format", "csv"):
        "1c10e812a127827be1f5c467dba5742df9c7d5f9c8e702afe44193f5dcfd73f8",
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("argv", list(LONG_SWEEP_DIGESTS), ids=" ".join)
def test_long_sweep_output_matches_frozen_digest(argv, workers, tmp_path):
    got = output_digest(["sweep", *argv, "--workers", str(workers)], tmp_path / "sweep")
    assert got == LONG_SWEEP_DIGESTS[argv], " ".join(argv)


# sha256 of `eprb chsh --maximize` output, recorded in a fresh interpreter
# from the implementation whose pattern trials recomputed every row of a
# request from the kept draws. The same rule holds: never re-record these.
MAXIMIZE_DIGESTS = {
    ("--model", "local_sign", "--n", "2", "--seed", "11"):
        "71be7bd373862511280d96380e075bfd212367506d0b9942d1533603dda79d1d",
    ("--model", "local_sign", "--n", "512", "--seed", "11"):
        "7440afa1b8668b1683dfebb4b5fa1da70dc9d1b25212d1fc3de6726e36b1b629",
    ("--model", "local_sign", "--n", "4096", "--seed", "11"):
        "bc18ef2f8fc0185ac5a3f29f93e6915e51e528b13006c5035149a05453be2a55",
    ("--model", "linear", "--n", "2", "--seed", "11"):
        "893b33e0bcc0684bc17b54574a0fd30acd18c21b2a7d63a40f012c30a049c467",
    ("--model", "linear", "--n", "512", "--seed", "11"):
        "bc3e6a7836850f895cc0d74031850584d514510c2a6a1cf719f881541e8926a9",
    ("--model", "linear", "--n", "4096", "--seed", "11"):
        "e2140bd702266be0e333b7180907b950ae075d119605527c62334416db593c64",
    ("--model", "nonlocal_sign", "--n", "2", "--seed", "11"):
        "854b566cf302fd3aea2ae55758e19a88aede7c969bee36a2c137c2a32af64679",
    ("--model", "nonlocal_sign", "--n", "512", "--seed", "11"):
        "319b830b4ce068adf94958d8a220cff732deca34d1dd88d41990149a8d2672eb",
    ("--model", "nonlocal_sign", "--n", "4096", "--seed", "11"):
        "07d84e93c6d55c58e16e214efd3ec2a3a00211d5ceab7c63bbcffef5b1294b17",
    ("--model", "constant", "--n", "2", "--seed", "11"):
        "d23649550bd788c5a428399d340ee0f9ab3b8563167bf97240d04e2ee270ba7e",
    ("--model", "constant", "--n", "512", "--seed", "11"):
        "2349c02cc498bc44005699a9d9ebb5f8e38eab003dac3fefcbb0acc13cfbeaa3",
    ("--model", "constant", "--n", "4096", "--seed", "11"):
        "2737c041d7220792af812a5ac5bfeed702f24f8ce5571235d0987c6c76eebfab",
    ("--model", "quantum"):
        "2876ffa40d3e2d8225bb4b75ac928575c182395e63993a6011247948e7959218",
    ("--model", "quantum", "--mode", "full"):
        "783b440b5db7439d5cd72d076ee7bf3717c05597a51ee744186a9e4aeac0ad2a",
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("argv", list(MAXIMIZE_DIGESTS), ids=" ".join)
def test_maximize_output_matches_frozen_digest(argv, workers, tmp_path):
    got = output_digest(["chsh", "--maximize", *argv, "--workers", str(workers)],
                        tmp_path / "maximize")
    assert got == MAXIMIZE_DIGESTS[argv], " ".join(argv)


@pytest.mark.parametrize("workers", [1, 2])
def test_maximize_contract_violation_is_frozen(workers, capsys):
    code = run(["chsh", "--maximize", "--model", "linear", "--sampler", "uniform_cube",
                "--n", "512", "--workers", str(workers)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == ("contract violation: stochastic model produced probability "
                   "-0.02875252434110409 outside [0, 1] at draw 4\n")
