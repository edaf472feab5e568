"""Byte-identity gate: pinned SHA-256 digests of the result files.

`predict` runs on every example config and `simulate` on eight small
pinned-seed rows (torus strip, the fixed point of 3x mod 1, Smith, fixed
cluster lengths, the uncoupled CML lockstep, a coupled lattice, a ball
under the one-site lattice of the sine-perturbed doubling map, and the
fixed point 1/3 of 10x mod 1, whose window width 15 sets every bit; the
coupled lattice and the sine site take mu(U) from their cluster phase's
hit rate).  Every result file is
hashed; `manifest.json` is not, because it echoes the output directory.
A change that moves output bits on purpose updates these digests and
says which files moved.

Print the current digests with ``python tests/test_golden_outputs.py``.
"""

import hashlib
from pathlib import Path

import pytest

from returnstats.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

SIMULATE_ROWS = {
    "torus_strip": """
system: {kind: torus, a: 2}
target: {kind: torus_strip}
schedule:
  - {rho: 0.02, K: 5, t: 1.0, n_trials: 400, min_entries: 200, orbit_len: 20000}
seed: 77
workers: 2
""",
    "fixed_point": """
system: {kind: linear_mod1, a: 3}
target: {kind: ball, center: [0.5]}
schedule:
  - {rho: 0.02, K: 6, t: 1.0, n_trials: 400, min_entries: 300, orbit_len: 20000}
seed: 1234
workers: 1
""",
    "smith": """
system: {kind: regenerative, block_rule: smith, k_cap: 3000}
target: {kind: level_set}
schedule:
  - {m: 100, K: 10, t: 1.0, n_trials: 200, min_entries: 2000, stream_len: 200000}
seed: 909
workers: 2
""",
    "fixed_lengths": """
system: {kind: regenerative, block_rule: fixed_lengths, cluster_lambdas: [0.5, 0.3, 0.2],
         k_cap: 3000}
target: {kind: level_set}
schedule:
  - {m: 100, K: 5, t: 1.0, n_trials: 200, min_entries: 2000, stream_len: 200000}
seed: 1234
workers: 1
""",
    "cml": """
system: {kind: cml, a: 3, n: 2, gamma: 0.0}
target: {kind: diagonal_strip}
schedule:
  - {nu: 0.05, K: 3, t: 1.0, n_trials: 400, min_entries: 200, orbit_len: 2000}
seed: 77
workers: 2
""",
    "cml_coupled": """
system: {kind: cml, a: 2, n: 2, gamma: 0.1, weights: [0.5, 0.5]}
target: {kind: diagonal_strip}
schedule:
  - {nu: 0.05, K: 3, t: 1.0, n_trials: 400, min_entries: 200, orbit_len: 2000}
seed: 77
workers: 2
""",
    "sine_site": """
system: {kind: cml, a: 2, n: 1, eps: 0.1}
target: {kind: ball, center: [0.3]}
schedule:
  - {rho: 0.02, K: 3, t: 1.0, n_trials: 400, min_entries: 200, orbit_len: 2000}
seed: 77
workers: 2
""",
    "decimal_fixed_point": """
system: {kind: linear_mod1, a: 10}
target: {kind: ball, center: [0.3333333333333333]}
schedule:
  - {rho: 0.01, K: 3, t: 1.0, n_trials: 400, min_entries: 200, orbit_len: 2000}
seed: 77
workers: 2
""",
}

GOLDEN = {
    "predict/cml_sweep": {
        "counting_pmf_nu0p001_K3.json":
            "dd38c58ce1d69108044730bb8c9a83db97809d8e6ae5835b3e8215b2838b9201",
        "counting_pmf_nu0p01_K3.json":
            "dd38c58ce1d69108044730bb8c9a83db97809d8e6ae5835b3e8215b2838b9201",
        "predict_nu0p001_K3.csv":
            "3ab31af65cde6d1eede1f9b3abe6b5aa2598e8d4faced49a652505170bc9b46e",
        "predict_nu0p001_K3.json":
            "55ca0b175f2e73feffbbae973dc7499f2ad8d3d1ae3246e10c3760a58a1dc003",
        "predict_nu0p01_K3.csv":
            "3ab31af65cde6d1eede1f9b3abe6b5aa2598e8d4faced49a652505170bc9b46e",
        "predict_nu0p01_K3.json":
            "55ca0b175f2e73feffbbae973dc7499f2ad8d3d1ae3246e10c3760a58a1dc003",
    },
    "predict/fixed_point": {
        "counting_pmf_rho0p001_K14.json":
            "f9b1752e394120af0e2de81a2f2f3d88cd71156a1d6264bc4c9f88b9b44c61a9",
        "counting_pmf_rho0p01_K14.json":
            "f9b1752e394120af0e2de81a2f2f3d88cd71156a1d6264bc4c9f88b9b44c61a9",
        "predict_rho0p001_K14.csv":
            "19d4d919f38473b1ba01860f3cb7891104439a852bce0782531e69ed6b64e202",
        "predict_rho0p001_K14.json":
            "bd6948a25a1774d082b36125e296fcbc96d3c17a6c354f13fa12293b015317e9",
        "predict_rho0p01_K14.csv":
            "19d4d919f38473b1ba01860f3cb7891104439a852bce0782531e69ed6b64e202",
        "predict_rho0p01_K14.json":
            "bd6948a25a1774d082b36125e296fcbc96d3c17a6c354f13fa12293b015317e9",
    },
    "predict/nonperiodic_point": {
        "counting_pmf_rho0p001_K3.json":
            "7c987f781af4f6d705284a521f762f2f203d641bfa071fe428574b5b7e3b1ecb",
        "predict_rho0p001_K3.csv":
            "909fc1c728ba2c3c339e16d22bcd2dafbb3f0045d98f7754717f8f0ac2e1683a",
        "predict_rho0p001_K3.json":
            "6d5de9c620aafc4cfa683ce82a329939ffae6f6d78b7beeedf208f578c8de57a",
    },
    "predict/regenerative_fixed_lengths": {
        "counting_pmf_m1000_K10.json":
            "c80c1d0a8eabe4221a974ae21ea3120922e9bab124351a05e2e438a8d2c6ac8d",
        "predict_m1000_K10.csv":
            "0400dadf9a37367ddd1a625ba6cee2a10bf7ff4cec4e5c146d17044426c5998f",
        "predict_m1000_K10.json":
            "a288ca4e7359cbface9ee60c5fbc6f3341e3e835e885747e266ae46442571856",
    },
    "predict/smith_regenerative": {
        "predict_m1000_K10.csv":
            "68cd387beec545de74dddb8fb9863eb0c88095fa7564a95444568aa3617810bb",
        "predict_m1000_K10.json":
            "396ebd153c56608f8a64f6183bace719b8097592b2d040ae31dfe01cc8be7bd9",
        "predict_m1000_K100.csv":
            "68cd387beec545de74dddb8fb9863eb0c88095fa7564a95444568aa3617810bb",
        "predict_m1000_K100.json":
            "396ebd153c56608f8a64f6183bace719b8097592b2d040ae31dfe01cc8be7bd9",
    },
    "predict/torus_strip": {
        "counting_pmf_rho0p001_K50.json":
            "4fdace39e1e85165b3fd43100294c01b4da296227126473856a0a5b0a0f92568",
        "counting_pmf_rho0p01_K50.json":
            "4fdace39e1e85165b3fd43100294c01b4da296227126473856a0a5b0a0f92568",
        "predict_rho0p001_K50.csv":
            "7a2d5de0335f1196967e3ae225cd4d9892e6ac744306d53b7eccac47f68ac052",
        "predict_rho0p001_K50.json":
            "296b4f84ba6b754d06ee8c779571ddfb62d446f3687f1c652eedbad5f6e79cd6",
        "predict_rho0p01_K50.csv":
            "7a2d5de0335f1196967e3ae225cd4d9892e6ac744306d53b7eccac47f68ac052",
        "predict_rho0p01_K50.json":
            "296b4f84ba6b754d06ee8c779571ddfb62d446f3687f1c652eedbad5f6e79cd6",
    },
    "simulate/torus_strip": {
        "cluster_rho0p02_K5.csv":
            "0182171a8166251b60367c7ffdff5f826995dd653ad3f468aa11448107e2f818",
        "cluster_rho0p02_K5.json":
            "0ae17b88cb7e972cdb8c7b61d5243312a85fc525509231022c3d017c1346195a",
        "counting_rho0p02_K5.csv":
            "a40efe25bb4d646d24061a038b40c9e6bacd8d46730b3c35c4c04d7f65f780e0",
        "counting_rho0p02_K5.json":
            "3bf9c8dacbe70537bb90c97fb8bee49df8ce4e8c0a9603609a3ccbc3ee6083fa",
    },
    "simulate/fixed_point": {
        "cluster_rho0p02_K6.csv":
            "2c86b3c38f0b30fbf8741d216d1923b6947451f3ebb1501dce9fe9c32c93f380",
        "cluster_rho0p02_K6.json":
            "64837e6f3b304f727ddf41e4ae10e4e0fe47e4746dc0f153e42af2adfe933e7b",
        "counting_rho0p02_K6.csv":
            "591de6424ec016829c12620edba79d7143dca7d23f8dc03af7e0e3c9dfe3b2ec",
        "counting_rho0p02_K6.json":
            "723ad8d27721e2601f42ac650cbb2e5e6c7a9769b08234c309c60263ef78fcb7",
    },
    "simulate/smith": {
        "cluster_m100_K10.csv":
            "985c253298b7a55004babfe7ea1cadf2976f645cff955db2be5eafba41e7e66c",
        "cluster_m100_K10.json":
            "caaf40bca2e0f441f2c7ba5705bac01048aba1cefede272db2fbf21359cd46c4",
        "counting_m100_K10.csv":
            "5be0a06960f8ddcf7c9b49e4baa01c111cb9333e3c0548adc082a77547cbd4e2",
        "counting_m100_K10.json":
            "4b372db82093b74d97d17a268bf2b78c8866ce97af9b3c19c1ee4c66d9eccab3",
    },
    "simulate/fixed_lengths": {
        "cluster_m100_K5.csv":
            "0c2bf017d1e7c0e4c228a203574d40e336ed5446b485b7774f7dcb29c78b385f",
        "cluster_m100_K5.json":
            "cdd03e67f22b0a366a11a92f007e9dee55714c5202e3a0b4083fe6dfe166965c",
        "counting_m100_K5.csv":
            "5a8505da83cef3a86cfa895c5ecc4d76c00cb4df71482b2a7ec31e8532590174",
        "counting_m100_K5.json":
            "e990bdcb722504546e9b2d9eafc8eba42b954dfe39ddbc572ae7f50c8bc7cd92",
    },
    "simulate/cml": {
        "cluster_nu0p05_K3.csv":
            "96dd1c1c433f46d4b0c86b6a67066e72cf7a61aa088d51b767a6228877cfbbe0",
        "cluster_nu0p05_K3.json":
            "4bdbcab16c5ef12f9a4f074920328757a77419071812d66d3f8108a5a4dc5423",
        "counting_nu0p05_K3.csv":
            "54675a6fa95ac48ab6d5f8bbf3998b3548f2d10408f1911c2ba30e317b72f0d1",
        "counting_nu0p05_K3.json":
            "16438b96e0cbaf9f542a728ba67bba413bc854f0e72ad5bf72e90dcd6e3deea6",
    },
    "simulate/cml_coupled": {
        "cluster_nu0p05_K3.csv":
            "9aa9287c9a9b8d782865fabe252356c8767dfa27cd349d1a7a4015c160a71810",
        "cluster_nu0p05_K3.json":
            "078fcb27f4ee8f32bd04b0c0807ff648da5738ade5af3d1cb082c3af452ecfd8",
        "counting_nu0p05_K3.csv":
            "2ed68913d3d0bc1b43e2b6faa4d4aebf13150502d1d9ba15ad03b9bed416f527",
        "counting_nu0p05_K3.json":
            "d02db0cb948abbce54080543ac8a457a43c7c9bca0a4701588f7696357c383a5",
    },
    "simulate/sine_site": {
        "cluster_rho0p02_K3.csv":
            "9781f15b3d8b7b9c28029bd34c5fa7f83f6e587ae33e2d8d3dd81ddfdb1e5a6b",
        "cluster_rho0p02_K3.json":
            "b3237693cf34681d6678d1d86cf68a1ef2aea3e7ffd66c04601abe7a4094a6b9",
        "counting_rho0p02_K3.csv":
            "79ad8cabc9ec551e930b48a599985900e91c0bf3ddad44226f5746ef7e27a743",
        "counting_rho0p02_K3.json":
            "cda7b48a9bf8af82d42e8f8415293c3462242b1333a96e1482bebe526887d096",
    },
    "simulate/decimal_fixed_point": {
        "cluster_rho0p01_K3.csv":
            "46c29441974179416f365a4bb7d9f8e6eab3ab0ffe93901b2bcc9af500494071",
        "cluster_rho0p01_K3.json":
            "c560a16b0f4a84f4194ea42e165d62958bcb14a0318d722fb46a7958cabfb3c4",
        "counting_rho0p01_K3.csv":
            "c6897404e51eb8c4fb12da7a2c996d7f3440a621a4c5ddeff45f7a7f2e707ca8",
        "counting_rho0p01_K3.json":
            "da507d6847b741e2b67bee489ac5e3a4148bc97c9db9656b1c7eb90b11ac3b3f",
    },
}


def _digests(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "manifest.json"}


def _run(case: str, out: Path) -> dict:
    command, name = case.split("/")
    if command == "predict":
        cfg = CONFIGS / f"{name}.yaml"
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        cfg = out.parent / f"{name}.yaml"
        cfg.write_text(SIMULATE_ROWS[name])
    assert main(["--config", str(cfg), "--out", str(out), command]) == 0
    return _digests(out)


def _cases() -> list:
    return ([f"predict/{p.stem}" for p in sorted(CONFIGS.glob("*.yaml"))]
            + [f"simulate/{name}" for name in SIMULATE_ROWS])


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(_cases())


@pytest.mark.parametrize("case", _cases())
def test_result_files_match_pinned_digests(case, tmp_path):
    assert _run(case, tmp_path / "out") == GOLDEN[case]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        found = {case: _run(case, Path(tmp) / case.replace("/", "_") / "out")
                 for case in _cases()}
    print("GOLDEN = {")
    for case, digests in found.items():
        print(f'    "{case}": {{')
        for name, digest in digests.items():
            print(f'        "{name}":\n            "{digest}",')
        print("    },")
    print("}")
