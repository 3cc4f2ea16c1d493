"""Golden output hashes: every file ``cmd_run`` writes for each shipped
config, at a capped horizon, must keep its sha256.

Refactors and optimizations of the run path must leave outputs
byte-identical for a fixed config; a change that alters them on purpose
declares a determinism-contract change and re-records these hashes.
"""

import dataclasses
import glob
import hashlib
import os

import numpy as np
import pytest
import yaml

from deedsim import harness
from deedsim.config import parse_config
from deedsim.harness import cmd_run

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

# Horizon caps that keep the whole module to a few seconds.
CAPS = {"iterations": 100, "rounds": 12, "mc_runs": 4}

GOLDEN = {
    "agd_baseline.yaml": {
        "bound.csv": "66efd442a37c289c03361207641a7fea781f00d487c4e3d0ae5327227232bd72",
        "summary.json": "bb3bda360a5b05432290f5d79a810ff2f085278064491d101d7e38450fc58827",
        "trace.csv": "cf2b342957361deac3aa28cf0891ba46c612137d997452dc354b7395c56db1dc",
    },
    "a_deed_gd.yaml": {
        "bound.csv": "e4e4818468863e081dd1ed98b460ee67432190e722d0b8ea34efb89797e3f690",
        "summary.json": "8d14e0dd9897e46f55f8511af398a45787240def3c7c128391a7052e0f1fa01e",
        "trace.csv": "7e01afdcdac0478b1cd9e280c047b2fd387d683075a11df0a492e57ae7b1aed6",
    },
    "const_error.yaml": {
        "bound.csv": "0f6edc726bb75a34e98da71ee9e510fe31ba8f1761827a354bf52768fd8fbb95",
        "summary.json": "82644a137c704b0f1e18fd09731a2f9014a8adbfc2d0b851008f30416a3eaae1",
        "trace.csv": "f3c32d95345f3e7889f450b9f3b44f6c4b234284c5d6592c3ff8d6e8c34c8e13",
    },
    "deed_fed.yaml": {
        "bound.csv": "5f23195472485e19d71dc3dbb81c89cbe524e5725c04d9d68018780bb8bcc6d7",
        "mean_squared.csv": "0d98fd14ffa36513b06ab0c79e9c83c714c3b20e4511763c31b787c3e8d0a9a7",
        "summary.json": "330a055aa7a1ed6ed58ee0a6668d80ff3762ec3997b573f091baca65d22ba34c",
        "trace_run000.csv": "8a609ac38d2b91b0fe529c448792b3a7380f9c4f22739b2ec420ac4937290451",
        "trace_run001.csv": "3a6ff714b9fc6ad8bc14e9839ed6130c24616b014e4edd72a4a94a2ba39dda28",
        "trace_run002.csv": "61a3e4e8e81ee9ec684baa5d06d083210b65a0429c7da848b397096c81035460",
        "trace_run003.csv": "b557969c84aeecf6b67150aa26216959b0faff6832c074989a15f6819298f98e",
    },
    "deed_gd.yaml": {
        "bound.csv": "4bb6b29b5a01332add38d7a541fb0f9b667ae42a2e39750d6d083015d4f21561",
        "summary.json": "412c675e2dc60e55d9b19685e5aa0be5e2934b4fc94c9e1ce775e4a93cd20939",
        "trace.csv": "70e2f61270136eec6b1dd6f13756da77a682fd4e39e2934094c408be09ea31fa",
    },
    "deed_sgd.yaml": {
        "bound.csv": "b14a63b40d053f515c4fc4a318e02d35a0d0fa0819df473d271d8b936fb7be6a",
        "mean_squared.csv": "6643eb3adc243c24902ea6952cd6497a198719f6e82a7825955d37d93e081b5a",
        "summary.json": "c98e53b78bf2fa59b9e607a68b30e1d41e5b50c23da3d0ed0a39d5d1a4edf0ef",
        "trace_run000.csv": "0434f7a7965defe0e14c61775f9e45245a43845711c8e96987220e989e74bb77",
        "trace_run001.csv": "e5cadb4bb3d9510b42968e0864b75b4a7b74ef41b869ccdf6be64278e41263b3",
        "trace_run002.csv": "fa6b6502639f582fe3c41f665f5506e6fd94efc223791fbf701a4c772652d37c",
        "trace_run003.csv": "7b4264fe88174c6ca6cb32fc29865b3aecb262933c65c4868bd39e08b77f176c",
    },
    "gd_baseline.yaml": {
        "bound.csv": "7ff2bc57a736c5954e673c699264e69b0df8bb2f1c2229c87f816d5b33278a02",
        "summary.json": "f8505fe54ad212aaf68b152aa9f4666b25a84c287a968a8683f956c4845b2e41",
        "trace.csv": "3925a6947df5ac4587c3242ef007841bcd4f1ac7c092f539f31c0cad45fdd013",
    },
}


# Shipped configs with overridden keys, for engine paths that no shipped
# file runs: the other participation schemes and nonuniform node weights.
# Built in memory, so ``configs/`` keeps one file per shipped example.
VARIANTS = {
    # Null drops the shipped k_participants, which full participation rejects.
    "deed_fed.yaml+full": (
        "deed_fed.yaml",
        {"fed": {"participation": "full", "k_participants": None}},
    ),
    "deed_fed.yaml+with-replacement": (
        "deed_fed.yaml",
        {"fed": {"participation": "with-replacement", "k_participants": 4}},
    ),
    "deed_gd.yaml+weighted": (
        "deed_gd.yaml",
        {"problem": {"weights": [0.5] + [0.5 / 9] * 9}},
    ),
}

VARIANT_GOLDEN = {
    "deed_fed.yaml+full": {
        "bound.csv": "f8a16bf65a0a1158bda4a496b148a59922bc2c3fce68c97b5eda2edb2ea64650",
        "mean_squared.csv": "4ff5de448ecc6ef44e426f87002ad584804a496b195d38718a5bc3749342131c",
        "summary.json": "a76a4c01b0564dc06c4e8cffdb00466b11398a1682398d7e16358c1a0922dccb",
        "trace_run000.csv": "4c83d6a6f6a055a7e3f3cae9a42e0da871a8dccc6ce9dd87a39f3d3930ec36ef",
        "trace_run001.csv": "0d627f7e2ab5e258e88f5037ffd4ff51c0a9651ab069903762d1437586827785",
        "trace_run002.csv": "40f1478e53d1f9f20dec06a87266d3baf1ce88c8d334369c39454fec6606572e",
        "trace_run003.csv": "6ad8d860ac992d9443f165a51dad2d11eb7a74d6083c53d577c046c2bee0229e",
    },
    "deed_fed.yaml+with-replacement": {
        "bound.csv": "98725ec5752c78efdffb05e588e8375fc4a1529e5909c837cd8d768ff38ad688",
        "mean_squared.csv": "d5bb34a68e0b7c2b21cbfe7d99fbf58496b1d8cfe2ffe58d85bd7c7d652d4b0b",
        "summary.json": "254a14a8d22799d7971c618dedb0d3cf1211f33395e02d3f6b08123107923d86",
        "trace_run000.csv": "46ccb73b78731d86117f1802b6489e2197454efe857c9e26353c40de46741139",
        "trace_run001.csv": "f7ea597878e646489d3b6578488b31d918ff13031d357aef265c329dd14d18a9",
        "trace_run002.csv": "87e624ef4cd69e17df602bf6f0d9271b6be057f6e81b396d6a09d4770c4bcbef",
        "trace_run003.csv": "2e77a2991d113153b25ac9f0cd13f663f6052e5f80e73b3ba616e567c43f730a",
    },
    "deed_gd.yaml+weighted": {
        "bound.csv": "ae22dd6b471404eb8fdaf154a555f01185bb4b6f386c7ca4d84915adb45497f8",
        "summary.json": "cdf8b5e060658d3b2fe51e391dd6547b86b12f78ff9cb5e747093da10e440345",
        "trace.csv": "b44668445c29b3f03d6b0ceac1add205dacfe4c2d9d728ae0f3b0e10216d3062",
    },
}


def _capped_config(path, overrides=None):
    with open(path) as fh:
        data = yaml.safe_load(fh)
    for block, keys in (overrides or {}).items():
        data.setdefault(block, {}).update(keys)
    run = data.setdefault("run", {})
    for key, cap in CAPS.items():
        if key in run:
            run[key] = min(run[key], cap)
    return parse_config(yaml.safe_dump(data))


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _output_hashes(cfg, out_dir):
    result = cmd_run(cfg, out_dir=str(out_dir))
    assert result.ok, result.violation
    return {os.path.basename(path): _sha256(path) for path in result.files}


def test_every_config_has_a_golden_entry():
    shipped = sorted(os.path.basename(p) for p in glob.glob(os.path.join(CONFIG_DIR, "*.yaml")))
    assert shipped == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output_hashes(name, tmp_path):
    cfg = _capped_config(os.path.join(CONFIG_DIR, name))
    assert _output_hashes(cfg, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_golden_variant_hashes(name, tmp_path):
    base, overrides = VARIANTS[name]
    cfg = _capped_config(os.path.join(CONFIG_DIR, base), overrides)
    assert _output_hashes(cfg, tmp_path) == VARIANT_GOLDEN[name]


def test_deed_fed_bound_matches_engine_certificate(monkeypatch):
    # deed-fed certifies its constants twice, in the engine and in
    # compute_bound; the bound.csv is only the engine's envelope while the
    # two certificates agree exactly.
    certified = []
    real = harness.estimate_fed_constants

    def spy(*args, **kwargs):
        certified.append(real(*args, **kwargs))
        return certified[-1]

    monkeypatch.setattr(harness, "estimate_fed_constants", spy)
    result = harness.execute(_capped_config(os.path.join(CONFIG_DIR, "deed_fed.yaml")))
    (bound_constants,) = certified
    for trace in result.traces:
        assert trace.extras["v"] == result.bound.extras["v"]
        engine_constants = trace.extras["fed_constants"]
        for f in dataclasses.fields(bound_constants):
            np.testing.assert_array_equal(
                getattr(engine_constants, f.name), getattr(bound_constants, f.name)
            )
