"""Golden replay: the bytes a replay of the bundled five-item fixture writes.

The digests below were taken from a replay of the fixture before the
per-item replay work (batched ranking, exemplars rendered from the index
arrays, fan-out keys) went in. Each of those changes claims to keep every
output byte, so any byte that moves fails here, not only in a hand check.

``metrics.tsv`` is pinned too: its columns are means over ``math.fsum``,
numpy sums over raster masks (pairwise, in a fixed order) and ``libm``
logs and exponentials, printed to six decimals, which no platform
difference in the last bit reaches.
"""

import hashlib

from layoutloom.pipeline import run_task

GOLDEN = {
    "generated.jsonl":
        "05e0150f68af6535a03aec46211058c6b394ecf60b783fb6bef631dc9bffc8a0",
    "metrics.tsv":
        "9880f7be9c664f90f3b598c2e5f7f5ee37b91d8cd8d7ddd781d71e6be176fa24",
    "traces/item0.json":
        "341f931b9699877d8c8c32510358c532acab582ac005a857b28b5903dd818de1",
    "traces/item1.json":
        "5de1d695dc06ed43cc0ffc044bcb95c917f4e9c9bc0f26a0a9c459a4d97f24df",
    "traces/item2.json":
        "efa637bbc37c85f4c34e85258c73c7770dd0f77a1381fbfb6210b8ea60c2454f",
    "traces/item3.json":
        "26705c0e3330e6f11c99c8dbdca4464492992655b2f0051893a2ff5127c0cd53",
    "traces/item4.json":
        "32d8f4940e15ed72ca67358b8cf7c47e4757c4978b673f06a9a878ce87293f98",
}
# The SHA-256 of the fixture's transcript keys, sorted, one per line.
GOLDEN_KEYS = "2486b8c8218e3e38c60fab8c7f3a008f978921028372fdd6ae6c0f0cd4b792c1"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _no_network(payload, candidate_index):
    raise AssertionError("replay run attempted a transport call")


def test_replay_bytes_match_golden(fixture_env, tmp_path):
    run_dir = run_task(fixture_env["run_config"](tmp_path / "golden", "replay"),
                       transport=_no_network)
    digests = {name: _sha256((run_dir / name).read_bytes()) for name in GOLDEN}
    assert sorted(p.name for p in (run_dir / "traces").iterdir()) == \
        [f"item{i}.json" for i in range(5)]
    assert digests == GOLDEN


def test_recorded_transcript_keys_match_golden(fixture_env):
    keys = sorted(path.stem for path in fixture_env["transcripts"].glob("*.json"))
    assert _sha256("".join(key + "\n" for key in keys).encode("ascii")) == GOLDEN_KEYS
