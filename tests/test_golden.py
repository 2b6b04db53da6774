"""Golden replay: the bytes a replay of the bundled five-item fixture writes.

The ``generated.jsonl`` and ``metrics.tsv`` digests were taken from a
replay of the fixture before the per-item replay work (batched ranking,
exemplars rendered from the index arrays, fan-out keys) went in. Each of
those changes claims to keep every output byte, so any byte that moves
fails here, not only in a hand check.

The trace digests were taken when traces became one line of the stdlib's
C encoder (sorted keys, non-ASCII text kept, default separators) instead
of indented JSON; each trace decodes to the same value as before. They
pin the encoder's bytes, so a Python release that writes any value
differently fails here.

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
        "b4f119d462887f7e719fad9f38e21e4a7e8d9d9353544e94f34be359646b57b5",
    "traces/item1.json":
        "41abb3aa9ce257d773ae12b30e6dc2f07ca0b55631da81040e5ba713cab71917",
    "traces/item2.json":
        "8857102aa300adfb1ebae6509155d4d41f95fb44e3fb18f6ce2149c349285238",
    "traces/item3.json":
        "76a42b11f763f5716eae75a26afb0f6ec83716f056f538ee9f5f696452ebc4b6",
    "traces/item4.json":
        "3d3b4282132574cc9ff5b6f52e3f1fd0e512a8cc88e7682c178cc958f995c9be",
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
