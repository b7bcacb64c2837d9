"""Golden outputs: report.json and events.log of every bundled scenario, in
both modes, and metrics.json and hamming.csv of two puf-eval campaigns must
stay byte-identical to the recorded sha256 digests.

A change that alters these outputs on purpose records the new digests
here and says why in CHANGES.md.
"""

import hashlib

import pytest

from trusttoken.scenario_cli import bundled_config, cmd_puf_eval, cmd_run

# (config, mode) -> (exit code, sha256 of events.log, sha256 of report.json)
GOLDEN = {
    ("scenario1", "trusttoken"): (
        0,
        "4ae13bbb0fc1cd4facaed2eade56d8cfe073718d4083c4012c1fb42f2a184cba",
        "23eabac2f3b80174b65dd3040286b5af1f316fa1ad01bd2fcbb4dd8766acdd1a",
    ),
    ("scenario1", "trustzone-baseline"): (
        0,
        "1dfd235b44dba070ac05d82b779813713d249db2623a52b727e9828a15b11de5",
        "ad6ef638c4cdac9f9f7d6320b627bdc193044f9b04d305530f12291dde800494",
    ),
    ("scenario2", "trusttoken"): (
        0,
        "bf6c52cfea51325cc0355a1782dab3d12484cea878fdd297d2da7174c9b4984d",
        "2153aa4bec5921da4ec9a0f1113bcf5b6ef76c41d29ee9d665af699758c7cb2f",
    ),
    ("scenario2", "trustzone-baseline"): (
        2,
        "7f984bb101bc14e7fe65a11cf8bfa3e0707d15050e3aa6021be2532a0ed32cb6",
        "ffca0efe94daf2149281e5cffe9140717d7d530cb5166b17176898e296c2d8f6",
    ),
    ("scenario3", "trusttoken"): (
        0,
        "b2bd99701f1040f21ec851d17b6cf2dc6c09f9ae85c1db0f1088c07985b19aa0",
        "fb8683c43a9a5f9c006e174382b7d8c9567de2f81a1ee14f4566a56ef7f7fe43",
    ),
    ("scenario3", "trustzone-baseline"): (
        2,
        "ad5996e74a3081d1625753526c6e27c7290aef87c6fa8edc36135d48be31b089",
        "f8727de11977ef5502f14998055c8e3948273329dfb51a6b366bc4d808a54891",
    ),
    ("smoke", "trusttoken"): (
        0,
        "577dc265dbcfd7b2b72f50ae00b0d53afb1783bbde18063f815750cd5c6c0de7",
        "3cbdbcc2dd69fef628c9966443f0d4430d20fcafc81cc6974752def05bb1e896",
    ),
    ("smoke", "trustzone-baseline"): (
        0,
        "6258910cee758ee8550e7ecb51514ac5806b6c27a55a1837847780675f565559",
        "c44013b8804cb7ffa73bd7e7f94b250bd7d782c665158687b15b024aa52e895f",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("config, mode", sorted(GOLDEN))
def test_outputs_match_golden_digests(config, mode, tmp_path):
    rc = cmd_run(str(bundled_config(f"{config}.cfg")), mode, out_path=str(tmp_path))
    assert (rc, _sha256(tmp_path / "events.log"), _sha256(tmp_path / "report.json")) == GOLDEN[
        (config, mode)
    ]


# noise_sigma -> (sha256 of metrics.json, sha256 of hamming.csv) for
# puf-eval --chips 20 --challenges 16 --seed 42
PUF_EVAL_GOLDEN = {
    None: (
        "aeb877fe7501ec680cb20997753050c832a9c02bfa1a9183d2975772ba9d655f",
        "e3bc11f3cef6b24bed42dbc51364fae9c34170c4e92c76e24099eddc8d4e7912",
    ),
    1e5: (
        "a03a183fc5dde8bad97eb5d72b8f19191c7934e970a5e8b2ed461c686b0a4302",
        "e3bc11f3cef6b24bed42dbc51364fae9c34170c4e92c76e24099eddc8d4e7912",
    ),
}


@pytest.mark.parametrize("noise_sigma", [None, 1e5])
def test_puf_eval_matches_golden_digests(noise_sigma, tmp_path):
    assert cmd_puf_eval(20, 16, 42, str(tmp_path), noise_sigma) == 0
    assert (_sha256(tmp_path / "metrics.json"), _sha256(tmp_path / "hamming.csv")) == (
        PUF_EVAL_GOLDEN[noise_sigma]
    )
