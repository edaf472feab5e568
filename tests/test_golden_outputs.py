"""Byte-identity gate: pinned SHA-256 digests of the result files.

`predict` runs on every example config and `simulate` on five small
pinned-seed rows (torus strip, the fixed point of 3x mod 1, Smith, fixed
cluster lengths and the uncoupled CML lockstep).  Every result file is
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
target: {kind: ball, center: [0.5], periodic_period: 1}
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
}

GOLDEN = {
    "predict/cml_sweep": {
        "counting_pmf_nu0p001_K3.json":
            "aa4b51849f8dcd4305f425536aac15ff7b97a072efa4ce291dafdb9eadd207f8",
        "counting_pmf_nu0p01_K3.json":
            "aa4b51849f8dcd4305f425536aac15ff7b97a072efa4ce291dafdb9eadd207f8",
        "predict_nu0p001_K3.csv":
            "923fd43bbe48ef44a77ee914ff0a99cfce060daced94b89c3534f9a862f81b66",
        "predict_nu0p001_K3.json":
            "13c42fe00364dbda424d2d8d88f2d73e3f10eb5c5559976a75bb53bcd03dc0ed",
        "predict_nu0p01_K3.csv":
            "923fd43bbe48ef44a77ee914ff0a99cfce060daced94b89c3534f9a862f81b66",
        "predict_nu0p01_K3.json":
            "13c42fe00364dbda424d2d8d88f2d73e3f10eb5c5559976a75bb53bcd03dc0ed",
    },
    "predict/fixed_point": {
        "counting_pmf_rho0p001_K14.json":
            "6ba00d1e792e6a9ec4d3dca2418f373ff0574673c389b3b7c3d2b482658651c8",
        "counting_pmf_rho0p01_K14.json":
            "6ba00d1e792e6a9ec4d3dca2418f373ff0574673c389b3b7c3d2b482658651c8",
        "predict_rho0p001_K14.csv":
            "5d1b2dfbb3c04b748d81cccde8c1f74ef6457eb682e487aa0c74914a54f66e75",
        "predict_rho0p001_K14.json":
            "a2ed1d59361cb42a661f8b4cba6dacd36a68c598e551b28e994e1e5419836783",
        "predict_rho0p01_K14.csv":
            "5d1b2dfbb3c04b748d81cccde8c1f74ef6457eb682e487aa0c74914a54f66e75",
        "predict_rho0p01_K14.json":
            "a2ed1d59361cb42a661f8b4cba6dacd36a68c598e551b28e994e1e5419836783",
    },
    "predict/nonperiodic_point": {
        "counting_pmf_rho0p001_K3.json":
            "007fc322cee9d704ac264c8214e8665da760fd26776dec7bd3cb58fc7da615cb",
        "predict_rho0p001_K3.csv":
            "909fc1c728ba2c3c339e16d22bcd2dafbb3f0045d98f7754717f8f0ac2e1683a",
        "predict_rho0p001_K3.json":
            "70d6200f0c8be021bf658329a987a1ed18cc472038a1a2400dc8a08dfe69c2fd",
    },
    "predict/regenerative_fixed_lengths": {
        "counting_pmf_m1000_K10.json":
            "c80c1d0a8eabe4221a974ae21ea3120922e9bab124351a05e2e438a8d2c6ac8d",
        "predict_m1000_K10.csv":
            "30b6d90c9d8c8cf695e31c14f43ea1af532c782ea439d378b3b7fdbb6a693021",
        "predict_m1000_K10.json":
            "e9c6e625e294009502ff4070683294d5a4ef8092ce6b90ff6c3efa34adc98674",
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
            "d6795a609669c973cfd169238d0c8e6ce11583a9ee9ad11e37139e928ac91726",
        "counting_pmf_rho0p01_K50.json":
            "d6795a609669c973cfd169238d0c8e6ce11583a9ee9ad11e37139e928ac91726",
        "predict_rho0p001_K50.csv":
            "1e5cd91350375d29a6ee976214f1331b6e58a1c6195038f0bc7c0950718121d5",
        "predict_rho0p001_K50.json":
            "b3ec991debad59b803e7e57e632005b7818ed3a8a0b21a5feab24880156b2541",
        "predict_rho0p01_K50.csv":
            "1e5cd91350375d29a6ee976214f1331b6e58a1c6195038f0bc7c0950718121d5",
        "predict_rho0p01_K50.json":
            "b3ec991debad59b803e7e57e632005b7818ed3a8a0b21a5feab24880156b2541",
    },
    "simulate/torus_strip": {
        "cluster_rho0p02_K5.csv":
            "0182171a8166251b60367c7ffdff5f826995dd653ad3f468aa11448107e2f818",
        "cluster_rho0p02_K5.json":
            "0ae17b88cb7e972cdb8c7b61d5243312a85fc525509231022c3d017c1346195a",
        "counting_rho0p02_K5.csv":
            "ee2f029888ad4063f1b22a9a91cf3046e536d742610d29738d1d6d3806c81019",
        "counting_rho0p02_K5.json":
            "886bf7ffce23e3f43f411d7b08a7b5e54bf3ce12bbf5406a6bb8d3dd127f6ec8",
    },
    "simulate/fixed_point": {
        "cluster_rho0p02_K6.csv":
            "2c86b3c38f0b30fbf8741d216d1923b6947451f3ebb1501dce9fe9c32c93f380",
        "cluster_rho0p02_K6.json":
            "64837e6f3b304f727ddf41e4ae10e4e0fe47e4746dc0f153e42af2adfe933e7b",
        "counting_rho0p02_K6.csv":
            "dc828c683385591528eb2716dd96a8914616004b474af97f7db8757de45b5a25",
        "counting_rho0p02_K6.json":
            "72fb888a1dc9231d4bb44c62c06a8ba1295e623b5c15d08816e69840a2f08718",
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
