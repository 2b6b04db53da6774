"""Transcript keys, record/replay, fan-out ordering, retries, and extraction."""

import hashlib
import http.client
import io
import json
import math
import re
import sys
import threading
import time
import urllib.error
import urllib.request
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layoutloom.errors import (
    ConfigError,
    CredentialMissing,
    ReplayMiss,
    RequestRejected,
    SchemaError,
    TransportError,
)
from layoutloom.gateway import (
    RETRY_WAIT_CAP_S,
    BackendConfig,
    ExtractionFailure,
    Gateway,
    extract_layout,
    read_response,
    replay_check,
    transcript_key,
    transcript_keys,
    write_transcript,
)
from layoutloom.model import Canvas
from layoutloom.prompts import PromptBundle

BUNDLE = PromptBundle(
    system="You are a layout assistant.",
    user="Place one text box on a 100x100 canvas.",
)

VOCAB = ["text", "logo", "underlay"]


def request(system, user, model, temperature, candidate_index):
    """The request record a gateway keys and stores a transcript by."""
    return {"system": system, "user": user, "model": model, "temperature": temperature,
            "candidate_index": candidate_index}


def echo_transport(payload, candidate_index):
    return (
        '<div class="canvas" style="width:100px; height:100px"></div>'
        f'<div class="text" style="left:{candidate_index}px; top:0px; '
        'width:10px; height:10px"></div>'
    )


class TestTranscriptKey:
    def test_stable_value(self):
        # frozen: a change here means every stored transcript goes stale
        key = transcript_key(request("sys", "usr", "model-x", 0.7, 3))
        assert key == "95ef299f1b0fee4a37dafe186c38e4ba9538f5ac61af2fff480a5b1efb4bfde5"

    def test_depends_on_every_field(self):
        base = transcript_key(request("s", "u", "m", 0.5, 0))
        assert transcript_key(request("s2", "u", "m", 0.5, 0)) != base
        assert transcript_key(request("s", "u2", "m", 0.5, 0)) != base
        assert transcript_key(request("s", "u", "m2", 0.5, 0)) != base
        assert transcript_key(request("s", "u", "m", 0.6, 0)) != base
        assert transcript_key(request("s", "u", "m", 0.5, 1)) != base

    def test_unicode_stability(self):
        assert transcript_key(request("sÿs", "üser", "m", 0.0, 0)) == \
            transcript_key(request("sÿs", "üser", "m", 0.0, 0))


def _key_oracle(record):
    body = json.dumps(record, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40) | st.sampled_from(
    ["", "«one» text box", "é😀\"quoted\"\n\t\\", "\u2028\x00\x7f"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=6)
_INDEX = st.integers(0, 30) | st.integers() | st.just(10)


class TestFanOutKeys:
    @settings(max_examples=200, deadline=None)
    @given(_TEXT, _TEXT, _TEXT, st.sampled_from([0.7, 0.0, 1.0, 0.1 + 0.2]),
           st.lists(_INDEX, max_size=12))
    def test_gateway_records_equal_one_encoding_per_key(self, system, user, model,
                                                         temperature, indices):
        shared = {"system": system, "user": user, "model": model, "temperature": temperature}
        want = [_key_oracle(dict(shared, candidate_index=i)) for i in indices]
        assert transcript_keys(shared, indices) == want
        assert [transcript_key(dict(shared, candidate_index=i)) for i in indices] == want

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.sampled_from(["a", "build", "candidate", "candidate_indey",
                                            "candidate_indexx", "model", "zz", "ü", ""]) | _TEXT,
                           _JSON, max_size=6),
           st.one_of(st.none(), _INDEX, _JSON))
    def test_foreign_records_equal_one_encoding(self, record, index):
        # Keys that sort before and after candidate_index, with or without it.
        if index is not None:
            record = dict(record, candidate_index=index)
        assert transcript_key(record) == _key_oracle(record)
        rest = {k: v for k, v in record.items() if k != "candidate_index"}
        assert transcript_keys(rest, [0, 12, index]) == \
            [_key_oracle(dict(rest, candidate_index=i)) for i in (0, 12, index)]

    @pytest.mark.parametrize("record", [[1, 2], "text", 3.5, None, {}])
    def test_records_that_are_not_requests_equal_one_encoding(self, record):
        assert transcript_key(record) == _key_oracle(record)


class TestConfig:
    def test_replay_needs_transcript_dir(self):
        with pytest.raises(ConfigError):
            BackendConfig(mode="replay", transcript_dir=None)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            BackendConfig(mode="offline")

    def test_fanout_must_be_positive(self):
        with pytest.raises(ConfigError):
            BackendConfig(mode="live", fanout=0)

    def test_retry_limit_must_not_be_negative(self):
        with pytest.raises(ConfigError, match="^retry_limit must be at least 0$"):
            BackendConfig(mode="live", retry_limit=-1)

    # urlopen raises ValueError for a timeout that is not positive, outside
    # the retried TransportError, so such a value is refused up front.
    @pytest.mark.parametrize("timeout", [0, 0.0, -1.0, math.nan])
    def test_timeout_must_be_positive(self, timeout):
        with pytest.raises(ConfigError, match="^timeout must be greater than 0$"):
            BackendConfig(mode="live", timeout=timeout)

    # A socket refuses a timeout past the platform's wait bound with an
    # OverflowError, also outside the retried TransportError.
    @pytest.mark.parametrize("timeout", [threading.TIMEOUT_MAX * 2, 1e300, math.inf])
    def test_timeout_past_the_wait_bound_is_refused(self, timeout):
        with pytest.raises(ConfigError, match=re.escape(
                f"timeout must be at most {threading.TIMEOUT_MAX:.0f} seconds")):
            BackendConfig(mode="live", timeout=timeout)
        assert BackendConfig(mode="live", timeout=threading.TIMEOUT_MAX).timeout \
            == threading.TIMEOUT_MAX

    @pytest.mark.parametrize("max_tokens", [0, -1])
    def test_max_tokens_must_be_at_least_one(self, max_tokens):
        with pytest.raises(ConfigError, match="^max_tokens must be at least 1$"):
            BackendConfig(mode="live", max_tokens=max_tokens)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("LAYOUTLOOM_ENDPOINT", "https://example.test/v1/chat")
        monkeypatch.setenv("LAYOUTLOOM_MODEL", "m1")
        monkeypatch.setenv("LAYOUTLOOM_API_KEY", "k1")
        config = BackendConfig.from_env(mode="live")
        assert config.endpoint == "https://example.test/v1/chat"
        assert config.model == "m1"
        assert config.api_key == "k1"


class TestRecordReplay:
    def test_record_then_replay(self, tmp_path):
        record_cfg = BackendConfig(mode="record", model="m", transcript_dir=str(tmp_path))
        gateway = Gateway(record_cfg, transport=echo_transport)
        texts = gateway.complete(BUNDLE, n=3, temperature=0.7)
        assert len(texts) == 3
        assert len(list(tmp_path.glob("*.json"))) == 3

        replay_cfg = BackendConfig(mode="replay", model="m", transcript_dir=str(tmp_path))
        replay = Gateway(replay_cfg)  # no transport: replay never needs one
        assert replay.complete(BUNDLE, n=3, temperature=0.7) == texts

    def test_candidate_order_preserved(self, tmp_path):
        cfg = BackendConfig(mode="record", model="m", transcript_dir=str(tmp_path),
                            fanout=4)
        gateway = Gateway(cfg, transport=echo_transport)
        texts = gateway.complete(BUNDLE, n=8, temperature=0.7)
        for i, text in enumerate(texts):
            assert f"left:{i}px" in text

    def test_replay_miss_names_key(self, tmp_path):
        cfg = BackendConfig(mode="replay", model="m", transcript_dir=str(tmp_path))
        gateway = Gateway(cfg)
        with pytest.raises(ReplayMiss) as exc:
            gateway.complete(BUNDLE, n=1, temperature=0.7)
        expected = transcript_key(request(BUNDLE.system, BUNDLE.user, "m", 0.7, 0))
        assert exc.value.key == expected

    def test_partial_transcripts_miss(self, tmp_path):
        record_cfg = BackendConfig(mode="record", model="m", transcript_dir=str(tmp_path))
        Gateway(record_cfg, transport=echo_transport).complete(BUNDLE, n=2, temperature=0.7)
        missing = transcript_key(request(BUNDLE.system, BUNDLE.user, "m", 0.7, 2))
        replay_cfg = BackendConfig(mode="replay", model="m", transcript_dir=str(tmp_path))
        with pytest.raises(ReplayMiss) as exc:
            Gateway(replay_cfg).complete(BUNDLE, n=3, temperature=0.7)
        assert exc.value.key == missing

    def test_written_keys_rederive(self, tmp_path):
        cfg = BackendConfig(mode="record", model="m", transcript_dir=str(tmp_path))
        Gateway(cfg, transport=echo_transport).complete(BUNDLE, n=4, temperature=0.2)
        for path in tmp_path.glob("*.json"):
            data = json.loads(path.read_text())
            assert transcript_key(data["request"]) == data["key"] == path.stem
            assert data["request"] == request(BUNDLE.system, BUNDLE.user, "m", 0.2,
                                              data["request"]["candidate_index"])
        assert replay_check(tmp_path) == []

    def test_replay_check_flags_tampering(self, tmp_path):
        cfg = BackendConfig(mode="record", model="m", transcript_dir=str(tmp_path))
        Gateway(cfg, transport=echo_transport).complete(BUNDLE, n=1, temperature=0.2)
        path = next(tmp_path.glob("*.json"))
        data = json.loads(path.read_text())
        data["request"]["user"] = "tampered"
        path.write_text(json.dumps(data))
        problems = replay_check(tmp_path)
        assert len(problems) == 1

    def test_replay_check_lists_transcripts_it_cannot_decode(self, tmp_path):
        cfg = BackendConfig(mode="record", model="m", transcript_dir=str(tmp_path))
        Gateway(cfg, transport=echo_transport).complete(BUNDLE, n=1, temperature=0.2)
        good = next(tmp_path.glob("*.json"))
        # An integer past Python's 4,300-digit limit, and bytes that are not UTF-8.
        (tmp_path / "a_long_int.json").write_text(
            '{"key": "k", "request": {"candidate_index": ' + "9" * 5001 + "}}")
        (tmp_path / "b_latin1.json").write_bytes(b'{"key": "\xe9"}')
        problems = replay_check(tmp_path)
        assert [p.split(":")[0] for p in problems] == ["a_long_int.json", "b_latin1.json"]
        assert all(": unreadable transcript (" in p for p in problems)
        assert good.name not in " ".join(problems)

    @pytest.mark.parametrize("content", [
        b"{not json", b"[1]", b'{"key": "k"}', b'{"response_text": 3}',
        b'{"response_text": "\xe9"}',
    ])
    def test_read_response_refuses_a_bad_transcript(self, tmp_path, content):
        (tmp_path / "k.json").write_bytes(content)
        with pytest.raises(SchemaError, match=re.escape(f"transcript {tmp_path / 'k.json'} "
                                                        f"is not JSON with a response_text")):
            read_response(tmp_path, "k")

    def test_first_index_salts_keys(self, tmp_path):
        cfg = BackendConfig(mode="record", model="m", transcript_dir=str(tmp_path))
        gateway = Gateway(cfg, transport=echo_transport)
        gateway.complete(BUNDLE, n=2, temperature=0.7)
        gateway.complete(BUNDLE, n=2, temperature=0.7, first_index=2)
        assert len(list(tmp_path.glob("*.json"))) == 4

    def test_transcript_stores_the_request_it_is_keyed_by(self, tmp_path):
        stored = request("a", "b", "c", 0.1, 7)
        key = transcript_key(stored)
        path = write_transcript(tmp_path, key, stored, "hi", "2026-01-01T00:00:00+00:00")
        assert path == tmp_path / f"{key}.json"
        assert json.loads(path.read_text(encoding="utf-8")) == {
            "key": key, "request": stored, "response_text": "hi",
            "metadata": {"created_at": "2026-01-01T00:00:00+00:00"}}
        assert read_response(tmp_path, key) == "hi"

    def test_concurrent_writes_of_one_key(self, tmp_path):
        # Items with equal constraints send identical requests, so concurrent
        # items write the same transcript key at the same time.
        stored = request("a", "b", "c", 0.1, 0)
        key = transcript_key(stored)
        errors = []

        def writer():
            try:
                for _ in range(300):
                    write_transcript(tmp_path, key, stored, "hi", "")
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert read_response(tmp_path, key) == "hi"
        assert [p.name for p in tmp_path.iterdir()] == [f"{key}.json"]


# A transcript file as an earlier release wrote it, byte for byte: every
# transcript recorded since must still replay, and must still be written so.
GOLDEN_REQUEST = request("You are a layout assistant.",
                         'Plaziere «Text» auf 100×100 — ok?\n"quoted"', "offline", 0.7, 3)
GOLDEN_KEY = "dbd969e2f35974df6484006cfd6a0f214ae5b3a88ac34f245f3caea91b3c1eda"
GOLDEN_RESPONSE = ('<div class="canvas" style="width:100px; height:100px"></div>\n'
                   '<div class="text" style="left:1px; top:2px; width:30px; height:4px"></div>')
GOLDEN_CREATED_AT = "2026-10-19T12:00:00.000000+00:00"
GOLDEN_BYTES = (
    b'{\n  "key": "dbd969e2f35974df6484006cfd6a0f214ae5b3a88ac34f245f3caea91b3c1eda",\n'
    b'  "metadata": {\n    "created_at": "2026-10-19T12:00:00.000000+00:00"\n  },\n'
    b'  "request": {\n    "candidate_index": 3,\n    "model": "offline",\n'
    b'    "system": "You are a layout assistant.",\n    "temperature": 0.7,\n'
    b'    "user": "Plaziere \xc2\xabText\xc2\xbb auf 100\xc3\x97100 \xe2\x80\x94 ok?\\n'
    b'\\"quoted\\""\n  },\n'
    b'  "response_text": "<div class=\\"canvas\\" style=\\"width:100px; height:100px\\">'
    b'</div>\\n<div class=\\"text\\" style=\\"left:1px; top:2px; width:30px; '
    b'height:4px\\"></div>"\n}\n'
)


class TestTranscriptFormat:
    def test_a_stored_transcript_replays(self, tmp_path):
        (tmp_path / f"{GOLDEN_KEY}.json").write_bytes(GOLDEN_BYTES)
        assert replay_check(tmp_path) == []
        assert transcript_key(GOLDEN_REQUEST) == GOLDEN_KEY
        cfg = BackendConfig(mode="replay", model="offline", transcript_dir=str(tmp_path))
        bundle = PromptBundle(system=GOLDEN_REQUEST["system"], user=GOLDEN_REQUEST["user"])
        assert Gateway(cfg).complete(bundle, n=1, temperature=0.7, first_index=3) == \
            [GOLDEN_RESPONSE]

    def test_the_same_request_is_written_to_the_same_bytes(self, tmp_path):
        path = write_transcript(tmp_path, GOLDEN_KEY, GOLDEN_REQUEST, GOLDEN_RESPONSE,
                                GOLDEN_CREATED_AT)
        assert path.name == f"{GOLDEN_KEY}.json"
        assert path.read_bytes() == GOLDEN_BYTES

    def test_recording_writes_the_request_record(self, tmp_path):
        cfg = BackendConfig(mode="record", model="offline", transcript_dir=str(tmp_path))
        bundle = PromptBundle(system=GOLDEN_REQUEST["system"], user=GOLDEN_REQUEST["user"])
        Gateway(cfg, transport=lambda payload, idx: GOLDEN_RESPONSE).complete(
            bundle, n=1, temperature=0.7, first_index=3)
        data = json.loads((tmp_path / f"{GOLDEN_KEY}.json").read_text(encoding="utf-8"))
        assert data["request"] == GOLDEN_REQUEST
        stored = json.loads(GOLDEN_BYTES)
        assert dict(data, metadata=stored["metadata"]) == stored


class TestRetries:
    def test_retry_then_success(self):
        calls = []

        def flaky(payload, idx):
            calls.append(idx)
            if len(calls) < 3:
                raise TransportError("boom")
            return "ok"

        cfg = BackendConfig(mode="live", model="m", endpoint="x", retry_limit=3,
                            retry_backoff=0.0, api_key="k")
        assert Gateway(cfg, transport=flaky).complete(BUNDLE, n=1, temperature=0.7) == ["ok"]
        assert len(calls) == 3

    def test_retry_exhaustion(self):
        def always_fails(payload, idx):
            raise TransportError("down")

        cfg = BackendConfig(mode="live", model="m", endpoint="x", retry_limit=1,
                            retry_backoff=0.0, api_key="k")
        with pytest.raises(TransportError):
            Gateway(cfg, transport=always_fails).complete(BUNDLE, n=1, temperature=0.7)

    @pytest.mark.parametrize("dropped", [
        http.client.RemoteDisconnected("Remote end closed connection without response"),
        http.client.IncompleteRead(b"{", 10),
        ConnectionResetError("connection reset by peer"),
    ], ids=type)
    def test_dropped_connection_is_retried(self, monkeypatch, dropped):
        body = {"choices": [{"message": {"content": "ok"}}]}
        calls = []

        def urlopen(request, timeout):
            calls.append(request.full_url)
            if len(calls) == 1:
                raise dropped
            return io.BytesIO(json.dumps(body).encode("utf-8"))

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        cfg = BackendConfig(mode="live", model="m", endpoint="http://localhost:9/v1",
                            retry_limit=2, retry_backoff=0.0, api_key="k")
        assert Gateway(cfg).complete(BUNDLE, n=1, temperature=0.7) == ["ok"]
        assert len(calls) == 2

    @staticmethod
    def _http_gateway(monkeypatch, responses, retry_backoff=0.0):
        """A live gateway whose urlopen raises or returns ``responses`` in
        turn; returns it and the list of requests made."""
        calls = []

        def urlopen(request, timeout):
            calls.append(request.full_url)
            response = responses[len(calls) - 1]
            if isinstance(response, Exception):
                raise response
            return io.BytesIO(json.dumps(response).encode("utf-8"))

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        cfg = BackendConfig(mode="live", model="m", endpoint="http://localhost:9/v1",
                            retry_limit=2, retry_backoff=retry_backoff, api_key="k")
        return Gateway(cfg), calls

    @pytest.mark.parametrize("status", [400, 401, 403, 404, 422])
    def test_client_error_fails_at_once(self, monkeypatch, status):
        refused = urllib.error.HTTPError("http://localhost:9/v1", status, "Refused", {}, None)
        gateway, calls = self._http_gateway(monkeypatch, [refused] * 3)
        with pytest.raises(RequestRejected, match=f"HTTP {status}"):
            gateway.complete(BUNDLE, n=1, temperature=0.7)
        assert len(calls) == 1

    @pytest.mark.parametrize("status", [408, 429, 500, 502, 503])
    def test_transient_status_is_retried(self, monkeypatch, status):
        busy = urllib.error.HTTPError("http://localhost:9/v1", status, "Busy", {}, None)
        ok = {"choices": [{"message": {"content": "ok"}}]}
        gateway, calls = self._http_gateway(monkeypatch, [busy, ok])
        assert gateway.complete(BUNDLE, n=1, temperature=0.7) == ["ok"]
        assert len(calls) == 2

    def _slept_after(self, monkeypatch, status, retry_after):
        """The waits before the retry of one ``status`` response carrying
        ``retry_after`` (no header if None), with a 0.5 s backoff."""
        headers = http.client.HTTPMessage()
        if retry_after is not None:
            headers["Retry-After"] = retry_after
        busy = urllib.error.HTTPError("http://localhost:9/v1", status, "Busy", headers, None)
        ok = {"choices": [{"message": {"content": "ok"}}]}
        gateway, calls = self._http_gateway(monkeypatch, [busy, ok], retry_backoff=0.5)
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        assert gateway.complete(BUNDLE, n=1, temperature=0.7) == ["ok"]
        assert len(calls) == 2
        return sleeps

    @pytest.mark.parametrize("status, retry_after, slept", [
        (429, "7", 7.0),
        (503, " 2 ", 2.0),
        (502, "0", 0.0),
        (500, "86400", RETRY_WAIT_CAP_S),
        (429, "Thu, 01 Jan 2015 00:00:00 GMT", 0.0),
        (429, None, 0.5),
        (503, "soon", 0.5),
        (503, "-3", 0.5),
        (408, "7", 0.5),
    ])
    def test_retry_after_sets_the_wait(self, monkeypatch, status, retry_after, slept):
        assert self._slept_after(monkeypatch, status, retry_after) == [slept]

    @pytest.mark.parametrize("retry_limit, retry_backoff, first_waits", [
        (2, 1e300, [RETRY_WAIT_CAP_S] * 2),
        (1100, 0.5, [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, RETRY_WAIT_CAP_S]),
    ])
    def test_backoff_waits_are_capped(self, monkeypatch, retry_limit, retry_backoff,
                                      first_waits):
        def always_fails(payload, idx):
            raise TransportError("down")

        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        cfg = BackendConfig(mode="live", model="m", endpoint="x", retry_limit=retry_limit,
                            retry_backoff=retry_backoff, api_key="k")
        with pytest.raises(TransportError, match=f"after {retry_limit + 1} attempts"):
            Gateway(cfg, transport=always_fails).complete(BUNDLE, n=1, temperature=0.7)
        assert len(sleeps) == retry_limit
        assert sleeps[:len(first_waits)] == first_waits
        assert set(sleeps[len(first_waits):]) <= {RETRY_WAIT_CAP_S}

    def test_retry_after_http_date_waits_the_time_left(self, monkeypatch):
        when = format_datetime(datetime.now(timezone.utc) + timedelta(seconds=30), usegmt=True)
        [slept] = self._slept_after(monkeypatch, 429, when)
        assert 28.0 < slept <= 30.0

    def test_unreachable_host_is_retried(self, monkeypatch):
        down = urllib.error.URLError(ConnectionRefusedError(111, "Connection refused"))
        gateway, calls = self._http_gateway(monkeypatch, [down] * 3)
        with pytest.raises(TransportError, match="after 3 attempts"):
            gateway.complete(BUNDLE, n=1, temperature=0.7)
        assert len(calls) == 3

    def test_credential_missing_not_retried(self, monkeypatch):
        monkeypatch.delenv("LAYOUTLOOM_API_KEY", raising=False)
        cfg = BackendConfig(mode="live", model="m", endpoint="https://example.test")
        with pytest.raises(CredentialMissing):
            Gateway(cfg).complete(BUNDLE, n=1, temperature=0.7)

    def test_concurrent_fanout_is_thread_safe(self, tmp_path):
        seen = []
        lock = threading.Lock()

        def slowish(payload, idx):
            with lock:
                seen.append(idx)
            return f"resp-{idx}"

        cfg = BackendConfig(mode="record", model="m", transcript_dir=str(tmp_path),
                            fanout=4)
        texts = Gateway(cfg, transport=slowish).complete(BUNDLE, n=10, temperature=0.7)
        assert texts == [f"resp-{i}" for i in range(10)]
        assert sorted(seen) == list(range(10))


def test_ping_sends_the_probe_payload():
    sent = []
    cfg = BackendConfig(mode="live", model="m", endpoint="x", api_key="k")
    assert Gateway(cfg, transport=lambda payload, idx: sent.append(payload) or "OK").ping()
    assert json.dumps(sent) == json.dumps([{
        "model": "m",
        "messages": [
            {"role": "system", "content": "You are a connectivity probe."},
            {"role": "user", "content": "Reply with the single word OK."},
        ],
        "temperature": 0.0,
        "max_tokens": 8,
    }])


class TestExtraction:
    def test_clean_snippet(self):
        text = ('<div class="canvas" style="width:50px; height:60px"></div>'
                '<div class="text" style="left:1px; top:2px; width:3px; height:4px"></div>')
        layout = extract_layout(text, VOCAB)
        assert not isinstance(layout, ExtractionFailure)
        assert layout.canvas == Canvas(50, 60)

    def test_fenced_and_chatty(self):
        text = ("Of course. Here is my design:\n```html\n"
                '<div class="canvas" style="width:50px; height:60px"></div>\n'
                '<div class="logo" style="left:5px; top:6px; width:7px; height:8px"></div>\n'
                "```\nI aligned the logo to the left edge.")
        layout = extract_layout(text, VOCAB)
        assert not isinstance(layout, ExtractionFailure)
        assert layout.elements[0].label == "logo"
        assert layout.elements[0].bbox.left == 5.0

    def test_refusal_is_failure_value(self):
        result = extract_layout("I cannot produce layouts today.", VOCAB)
        assert isinstance(result, ExtractionFailure)
        assert result.reason

    def test_non_finite_box_is_failure_value(self):
        text = ('<div class="canvas" style="width:50px; height:60px"></div>'
                '<div class="text" style="left:1e999px; top:2px; width:3px; height:4px"></div>')
        result = extract_layout(text, VOCAB)
        assert isinstance(result, ExtractionFailure)
        assert "'left'" in result.reason

    def test_layout_without_elements_is_failure_value(self):
        result = extract_layout('<div class="canvas" style="width:50px; height:60px"></div>',
                                VOCAB)
        assert result == ExtractionFailure(reason="no elements extracted")
