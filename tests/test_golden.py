"""Golden outputs: SHA-256 digests of seeded ``simulate`` runs, of ``enumerate`` and of ``nosig``.

Criterion 9 compares reruns of one version with each other; these digests
pin the bytes of the JSON summary and the per-batch CSV across versions,
so a refactor of the engines, the tally or the aggregation cannot change
a seeded result unnoticed.  The chunk budget is shrunk so that every run
crosses several chunk boundaries.  The ``enumerate`` digests pin the
exact expectations and the full (Y, X) distribution, and the collective
model's score-pattern counts, in JSON and CSV, across changes of the
exact engines.  The ``nosig`` digests pin each catalogue strategy's
report, the quantum sampler's counterexample among them, across changes
of the prefix walk and the table scan.  A digest may change only with a
deliberate change of the output format or of the stream derivation,
recorded as such.
"""

import hashlib

import pytest

from chshsim import cli, montecarlo

SEED = 7

#: Batches per run by rounds per batch.
BATCHES = {2: 3001, 4: 3001, 1000: 301}

#: A chunk budget small enough that each run spans several chunks.
CHUNK_BYTES = 64 << 10

#: Non-dyadic weights, so the mixture's float cut points are rounded.
WEIGHTS = "weight,a1,a2,b1,b2\n1/10,+1,+1,+1,+1\n7/30,+1,-1,-1,+1\n2/3,-1,-1,-1,-1\n"

#: (strategy, n) -> (digest of the JSON summary, digest of --batches-out).
GOLDEN = {
    ("constant-plus", 4): (
        "5d92db99b8720d30bd1ea5dc3b6d16539c03344bcecf7e61802e888c7e8abfe5",
        "27505c96111399dadee075e179e27eba5a0ad4a5fc915b71bf0716bcb5933423",
    ),
    ("constant-plus", 1000): (
        "7436c5bea1f1d93d2e23b7ae3e7c5c54bdd21bdfc3a2c7973fef785a0152995e",
        "62da67ec3cdc9db1403a820795b4e47b39f64c901290482a5cf5b62af540b238",
    ),
    ("guessing", 4): (
        "a8bff063f0c9cfe9ed37094705cec9b363c8e57d3c7b2a2fb5ded3990ceb5d92",
        "597b5442f8fee7e6f08dcf78c67a1bb71a274d5184ca224fbdf0123c03c93b2e",
    ),
    ("guessing", 1000): (
        "e3dcefec35945fda3653066597d2a5bcf606c1b8514e58e6888f151944b8bb3f",
        "1af62a459a270295aa80b21a990c0bea63abc522fe1d130a64bb34a7184ecdc6",
    ),
    ("model101", 4): (
        "535c0fe00f0013177ddb8f4322103a20391b24880f4d7d5d09368d45f4d0dc5d",
        "27505c96111399dadee075e179e27eba5a0ad4a5fc915b71bf0716bcb5933423",
    ),
    ("model101", 1000): (
        "27c900b573e5ccc7f46fcd31a3b061caef425b18c71b2c26886a9ea1106fd18f",
        "62da67ec3cdc9db1403a820795b4e47b39f64c901290482a5cf5b62af540b238",
    ),
    ("quantum", 4): (
        "4c77df5707beb12789f6111981433a2bbab3093246f26126c151b320e25cd2c2",
        "fd894c3e848d944edb8b2f177d1656627a9a7d22257c55c5115d799b1e5b9d64",
    ),
    ("quantum", 1000): (
        "7ac4ca4ac491a4ee64f8d3342cdea7c21158e1ae1c9005f641fe03f04d6812b5",
        "b97bba06cbe28b186302934dfd5e62f986e3874f3673d7b56a5924d758cbfcae",
    ),
    ("stochastic-lhv", 4): (
        "58b142e9f29ccc712c87db27dcdef4c1fba37c37c6507cdc2a0a890a7dacb4e7",
        "1f691db9461f312243c2d89b8bee54fd0be41ff5644a409e0bf5bcf58c20f443",
    ),
    ("stochastic-lhv", 1000): (
        "9ab334fd93dff2ddb286d3b6d51c0e0802374193a53a9871988ad1d60308fa90",
        "7b3bbe5440f35154355b81ef0b113c524930a7c700c3012dc5c6a6e5e4074c35",
    ),
    # The collective model is defined for two rounds only.
    ("collective-n2", 2): (
        "4be87c2170fcd3b18f64607a556b1bee4f1c61bd56b0ccc07ee0bb9471cad94d",
        "54646bbc057c5ecb240bc9af3f20a59143aa3e47aa0d56dcad1d439c1401d1c2",
    ),
}


def simulate_digests(strategy, n, tmp_path):
    weights = tmp_path / "weights.csv"
    weights.write_text(WEIGHTS)
    out, batches_out = tmp_path / "summary.json", tmp_path / "batches.csv"
    argv = [
        "simulate", "--strategy", strategy, "--n", str(n), "--batches", str(BATCHES[n]),
        "--seed", str(SEED), "--out", str(out), "--batches-out", str(batches_out),
    ]
    if strategy == "stochastic-lhv":
        argv += ["--strategy-file", str(weights)]
    assert cli.main(argv) == 0
    return tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, batches_out))


@pytest.mark.parametrize("strategy, n", sorted(GOLDEN))
def test_simulate_outputs_match_golden_digests(strategy, n, tmp_path, monkeypatch):
    monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", CHUNK_BYTES)
    assert simulate_digests(strategy, n, tmp_path) == GOLDEN[(strategy, n)]


#: (strategy, n, --distribution) -> (digest of the JSON output, digest of the CSV output).
ENUMERATE_GOLDEN = {
    ("constant-plus", 4, True): (
        "4579c1a9564544ab2254f005de13b5d607183e6ba5889ec298c5ee76cc449a0d",
        "858360b5ecf4d49abe61c078762e1201442746830f017ae9aa37fe4c2ad1bf33",
    ),
    ("constant-plus", 8, True): (
        "6c1b33742487bbd32752e15e2ab68c1424f7a54b1ec657a82e5f16846ed03c51",
        "6cda9aecf0b77be8bdafecd4e480d9a55fa300e0bbdea2559d870db0b4eea197",
    ),
    ("guessing", 4, True): (
        "dcf00f0d93e7086f54351a24a36703f2ec8b96d0e40aad57c85b2e37454abc7e",
        "215a058f91f87156c239a0f95dccf1e7d7d517a6f835d235d673e040a32eb6d9",
    ),
    ("guessing", 8, True): (
        "e0c79f9090cc3e937cc487f687668d0a1c49d646226290a075da6739273a83ba",
        "5bb4346b548c98761797141b6208f3e3139d75f0d1236c9b37f14f404c5b8e5d",
    ),
    ("model101", 4, True): (
        "24accc7208ae117be104126376295c26a8011a8eb4b462d86f6569163e22d09e",
        "923c563e8e6153098d2be8dba162b377dd54a63c71afed89d1b1a2b66d3f2354",
    ),
    ("model101", 8, True): (
        "e5c69eb9a2eafac812da265203376f0304d625a4ba016cdff069927300d667a7",
        "d2a2ee15fa0056718d6623578b9810d904d2a1603119ab13a91cb9218cd38858",
    ),
    ("guessing", 6, False): (
        "c4f38d9871da8d0d44d7d0f9eb7d9a51e3cee2d01c8d266f652c9c24acf6c5af",
        "e67ea9e3a404d1da3bd08dc7c88e03ed9813af2cd1873cc0ea8f0f1a92744c7d",
    ),
    # At n = 10 the plain expectations sum over all 286 count vectors of
    # ten rounds.
    ("constant-plus", 10, False): (
        "823dd37c44b1cdaa58081b1073ba52cab032dd5588469a485aff3ada499d2031",
        "9974a4711ba9730254424816b38ebfe2cfd10c712d8afedd7316c2202d0c73cd",
    ),
    ("guessing", 10, False): (
        "215d9380d810e1ff242e0752bd18e563c22ea158aba188362c07b8ddeffbe49d",
        "6de30c43cee0a1d890515e72c471b5e001e4d564ba791f1d3f79ec94da800047",
    ),
    ("model101", 10, False): (
        "dbcaa6d4682c3cd17ae092fecadabe38624076cf7efddf2adb507113459e823e",
        "6df2561e5ad0d7b587dbfcf46eea6c44ed657ced6fdb43144b3b0ba53286fa2c",
    ),
    ("guessing", 7, False): (
        "c65c88a347a88e9818426e7b037a2151c5c5dc0ec023d2d684cd20f2407f40a9",
        "78dfa03c785fdf4d73f2100a5238171951d3ef98a836c60f6b3f9f61243aade5",
    ),
    ("constant-plus", 6, False): (
        "5c7c09d152ac65cb80cf7f087a6ef2c62fdfb732cfe5b355258d4f8da42a7762",
        "dde9d1eb9325e59c58194d088e476a89458cc1bec4d86609f99e02b115243dba",
    ),
    ("constant-plus", 7, False): (
        "eb71ac758a4ae3ad57163b78cb2d10594bd0431fdce8b3dddd158970885429e1",
        "325d4d8264148c65e998902640b77bc79f4b45dcf3e6ffa9823f664f95ebc4f0",
    ),
    ("model101", 6, False): (
        "eb703b087651574be70b27ededccacd5a9272314b88ae2b03bf52d203840624d",
        "bfcc15e43936514d3fbcf424e36e4d7ef8e45062c81f04c3871acb3166fd449a",
    ),
    ("model101", 7, False): (
        "2a8e2fe859b6cbd1e7a817113dbf010454bb75bc8a2303d86bafd0de9548b6c9",
        "90b64955035af28f36b76311523d0b1e8981c15f191985e018528a030cae79b0",
    ),
    ("collective-n2", 2, False): (
        "8713ab5522a03890808c15ab23bea699bf472ab94306c72d661a8ccb72f22bed",
        "bf6036756a07660dd347daff9035f2932cce58071e48cd66254c63ef99a96676",
    ),
}


@pytest.mark.parametrize("strategy, n, distribution", sorted(ENUMERATE_GOLDEN))
def test_enumerate_outputs_match_golden_digests(strategy, n, distribution, tmp_path):
    digests = []
    for fmt in ("json", "csv"):
        out = tmp_path / f"enumerate.{fmt}"
        argv = ["enumerate", "--strategy", strategy, "--n", str(n), "--format", fmt, "--out", str(out)]
        if distribution:
            argv.append("--distribution")
        assert cli.main(argv) == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert tuple(digests) == ENUMERATE_GOLDEN[(strategy, n, distribution)]


#: (strategy, n) -> (exit code, digest of the JSON report, digest of the CSV
#: report), at ``--seed`` SEED.  The quantum sampler fails by design.
NOSIG_GOLDEN = {
    ("constant-plus", 5): (
        0,
        "de7876ab7c3cc7f3961cefebea3c1fb08d1772ae951dd20cea21a8f702561884",
        "31d61441fe5fcb34ad264cf01470620c4662a1bfc7fadb9030f4bb0c89ed0cc8",
    ),
    ("guessing", 5): (
        0,
        "09a80ab7b44910dcf4e6a488fa299fb0b06335b17c74f6b6dfad14b2109066af",
        "9ed09b91a86fbaafd1bfb687f42a31011d04912b3101b5eb812c8dc14fd69647",
    ),
    ("model101", 5): (
        0,
        "2f3ce3ba742f6a2c9ddf34e6a31966a84d88fbfcbc189d5a77aa1837109916c5",
        "b8146e01557891ea7c455a523ed57cb0fdafd358ca59fc2225920bc23f63a7f6",
    ),
    ("quantum", 5): (
        1,
        "5849df0d2fdaff9c9ab65c21183f7274960c223d487e6356c1b061b833ad2a9f",
        "e0bedd8bed13f80c4edb467eff14e73984a293b9376d64ee74d68860dc0eed6b",
    ),
    ("stochastic-lhv", 5): (
        0,
        "1ddeaf4b28f362c33a6c3f6789d19a68711414373dd3f0c67261b313610e1101",
        "e6b804f46d9e39dc8d059b5e1216269c5c80dc2efc0e363aed22b284b631a5f0",
    ),
    # At n = 8 the passing checks walk deep enough that many setting
    # prefixes share their pair counts.
    ("constant-plus", 8): (
        0,
        "4ffaf71179cdc11ea6c4653842b5896dc902d2f7d473df42a7367253b15f2d13",
        "b44724b8f3caaad08a4bdef2a18734404fb5630ab20468a54cb87c4cbb82e2b8",
    ),
    ("guessing", 8): (
        0,
        "3a1e74eb9229b7a3e5c9ff4ddc6401ac559493232ae9a59b0e2ba4f603dc7943",
        "39de31e1fc425f3cafbec2235d230e4993c7268b13d1b797a8905b0814b9d888",
    ),
    ("model101", 8): (
        0,
        "d4830c2518f6a5bc06d763d7a68bf3a2b8673e5cdeb8b604c8be9ce68fb22a3f",
        "ebe5ce894c1996f242dbb2c168dd3a324464ccd2f1e26a069abc7b5db23086b6",
    ),
    ("stochastic-lhv", 8): (
        0,
        "23175aca7739e8917f124075d09edec1a2bae5ff2f17fc07e63f746913610ece",
        "637516c48e96b8bc849693fa4be03894bf5322e2a75cd206e04b2ac6bc0079c8",
    ),
    ("collective-n2", 2): (
        0,
        "4387f4de5d41943ba32eef5c4fa85fd8f01ac0bb5f481f2a2f3089e1b1662b0b",
        "65ce455c804018817bd62d1114d8880399d64588066cc34b1c520127499d6a44",
    ),
}


@pytest.mark.parametrize("strategy, n", sorted(NOSIG_GOLDEN))
def test_nosig_outputs_match_golden_digests(strategy, n, tmp_path):
    weights = tmp_path / "weights.csv"
    weights.write_text(WEIGHTS)
    expected_code, *expected_digests = NOSIG_GOLDEN[(strategy, n)]
    digests = []
    for fmt in ("json", "csv"):
        out = tmp_path / f"nosig.{fmt}"
        argv = [
            "nosig", "--strategy", strategy, "--n", str(n), "--seed", str(SEED),
            "--format", fmt, "--out", str(out),
        ]
        if strategy == "stochastic-lhv":
            argv += ["--strategy-file", str(weights)]
        assert cli.main(argv) == expected_code
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests == expected_digests
