"""Backend-agnostic LLM access with deterministic record/replay.

Requests use the generic chat-completions JSON shape (one system and one
user message), so swapping vendors is configuration, not code. Each
candidate is one request record, ``{system, user, model, temperature,
candidate_index}``, and its key is the hash of that record. Record mode
stores one transcript file per key, holding the request it is keyed by and
the response text; replay mode answers from those files only, which makes
full pipeline runs byte-stable and network-free.

Environment variables honored by :meth:`BackendConfig.from_env`:
``LAYOUTLOOM_API_KEY``, ``LAYOUTLOOM_ENDPOINT``, ``LAYOUTLOOM_MODEL``.
"""

from __future__ import annotations

import email.utils
import hashlib
import http.client
import json
import os
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from .dataset import replacing
from .errors import (
    ConfigError,
    CredentialMissing,
    LayoutLoomError,
    ParseFailure,
    ReplayMiss,
    RequestRejected,
    SchemaError,
    TransportError,
)
from .model import Canvas, Layout, parse_html
from .prompts import PromptBundle

API_KEY_ENV = "LAYOUTLOOM_API_KEY"
ENDPOINT_ENV = "LAYOUTLOOM_ENDPOINT"
MODEL_ENV = "LAYOUTLOOM_MODEL"

# transport(payload, candidate_index) -> response text. The index is not part
# of the wire payload; it is exposed so offline transports can vary output
# per candidate the way sampling temperature would.
Transport = Callable[[dict, int], str]

# The longest wait before a retry, asked by a Retry-After header or the backoff.
RETRY_WAIT_CAP_S = 60.0


@dataclass(frozen=True)
class BackendConfig:
    mode: str = "replay"
    endpoint: str = ""
    model: str = "offline"
    max_tokens: int = 2048
    timeout: float = 60.0
    retry_limit: int = 2
    retry_backoff: float = 0.5
    transcript_dir: str | None = None
    fanout: int = 4
    api_key: str | None = None

    def __post_init__(self):
        if self.mode not in ("live", "record", "replay"):
            raise ConfigError(f"unknown backend mode {self.mode!r}")
        if self.mode in ("record", "replay") and not self.transcript_dir:
            raise ConfigError(f"{self.mode} mode requires transcript_dir")
        if self.fanout < 1:
            raise ConfigError("fanout must be at least 1")
        if self.retry_limit < 0:
            raise ConfigError("retry_limit must be at least 0")
        if not self.timeout > 0:  # NaN too: urlopen refuses it outside the retry path
            raise ConfigError("timeout must be greater than 0")
        if self.timeout > threading.TIMEOUT_MAX:  # a socket refuses it as well
            raise ConfigError(f"timeout must be at most {threading.TIMEOUT_MAX:.0f} seconds")
        if self.max_tokens < 1:
            raise ConfigError("max_tokens must be at least 1")

    @classmethod
    def from_env(cls, **overrides) -> "BackendConfig":
        values = {
            "endpoint": os.environ.get(ENDPOINT_ENV, ""),
            "model": os.environ.get(MODEL_ENV, "offline"),
            "api_key": os.environ.get(API_KEY_ENV),
        }
        values.update(overrides)
        return cls(**values)


# A request record as compact JSON with sorted keys and non-ASCII text kept.
_REQUEST_JSON = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":"))
_INDEX = "candidate_index"


def transcript_keys(request: Mapping[str, Any], indices: Iterable[Any]) -> list[str]:
    """The :func:`transcript_key` of ``request`` with its candidate index set
    to each of ``indices``, in order.

    The keys of a fan-out differ only in the index, so the rest is encoded
    once: the sorted keys before ``candidate_index``, then the index, then
    the sorted keys after it, which is where sorting puts the index.
    """
    before = _REQUEST_JSON.encode({k: v for k, v in request.items() if k < _INDEX})
    after = _REQUEST_JSON.encode({k: v for k, v in request.items() if k > _INDEX})
    head = (before[:-1] + ("," if before != "{}" else "") + f'"{_INDEX}":').encode("utf-8")
    tail = ("," + after[1:] if after != "{}" else "}").encode("utf-8")
    return [hashlib.sha256(head + _REQUEST_JSON.encode(index).encode("utf-8") + tail).hexdigest()
            for index in indices]


def transcript_key(request: Mapping[str, Any]) -> str:
    """Stable, platform-independent hash of a request record, ``{system,
    user, model, temperature, candidate_index}``: the SHA-256 of its compact
    JSON with sorted keys and non-ASCII text kept. A record that has no
    ``candidate_index``, or is not an object, which only a transcript written
    elsewhere can hold, is encoded whole."""
    if isinstance(request, Mapping) and _INDEX in request:
        return transcript_keys(request, [request[_INDEX]])[0]
    return hashlib.sha256(_REQUEST_JSON.encode(request).encode("utf-8")).hexdigest()


def _transcript_path(directory: str | Path, key: str) -> str:
    # A plain string: a replayed item opens one transcript per completion.
    return os.path.join(directory, f"{key}.json")


# Creating and renaming files in one directory from several threads at once
# costs several times the CPU of doing it one file after another.
_FILE_WRITES = threading.Lock()


def write_transcript(directory: str | Path, key: str, request: Mapping[str, Any],
                     response_text: str, created_at: str) -> Path:
    """Store ``request`` and its response under ``key``, the request's
    :func:`transcript_key`. The write is atomic: a temp file of its own, then
    a rename (see ``dataset.replacing``).

    Concurrent items with equal prompts write the same key; each writer's
    temp name is unique, and the last rename wins. Within one process the
    files are written one at a time.
    """
    path = Path(_transcript_path(directory, key))
    text = json.dumps({"key": key, "request": request, "response_text": response_text,
                       "metadata": {"created_at": created_at}},
                      ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    with _FILE_WRITES, replacing(path) as tmp:
        try:
            tmp.write_text(text, encoding="utf-8")
        except FileNotFoundError:  # the first transcript of a new directory
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(text, encoding="utf-8")
    return path


def read_response(directory: str | Path, key: str) -> str:
    """The response text stored under ``key``; ReplayMiss when there is no
    transcript, and SchemaError naming the file when it is not UTF-8 JSON
    with a ``response_text`` string."""
    path = _transcript_path(directory, key)
    try:
        with open(path, encoding="utf-8") as fh:
            response = json.loads(fh.read())["response_text"]
    except FileNotFoundError:
        raise ReplayMiss(key) from None
    except (ValueError, KeyError, TypeError) as exc:
        raise SchemaError(f"transcript {path} is not JSON with a response_text string "
                          f"({type(exc).__name__}: {exc})") from exc
    if not isinstance(response, str):
        raise SchemaError(f"transcript {path} is not JSON with a response_text string")
    return response


def _retry_after(value: str | None) -> float | None:
    """The seconds a Retry-After header value asks to wait (RFC 9110
    section 10.2.3): delta-seconds, or an HTTP-date, of which the time left
    counts and a past one waits nothing. None when absent or unreadable."""
    if value is None:
        return None
    value = value.strip()
    if value.isascii() and value.isdigit():
        return float(value)
    try:
        when = email.utils.parsedate_to_datetime(value)
    except (TypeError, ValueError, IndexError):
        return None
    if when.tzinfo is None:  # "-0000" marks a UTC time of unknown origin
        when = when.replace(tzinfo=timezone.utc)
    return max(0.0, (when - datetime.now(timezone.utc)).total_seconds())


def _http_transport(config: BackendConfig) -> Transport:
    def call(payload: dict, _candidate_index: int) -> str:
        key = config.api_key or os.environ.get(API_KEY_ENV)
        if not key:
            raise CredentialMissing(f"live mode needs {API_KEY_ENV} or api_key in config")
        if not config.endpoint:
            raise CredentialMissing(f"live mode needs an endpoint ({ENDPOINT_ENV})")
        request = urllib.request.Request(
            config.endpoint,
            data=json.dumps(payload).encode("utf-8"),
            headers={
                "Content-Type": "application/json",
                "Authorization": f"Bearer {key}",
            },
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=config.timeout) as response:
                body = json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            # 408 Request Timeout and 429 Too Many Requests may pass on retry.
            if 400 <= exc.code < 500 and exc.code not in (408, 429):
                raise RequestRejected(f"chat completion request refused with "
                                      f"HTTP {exc.code}: {exc.reason}") from exc
            # 429 and 5xx may say how long to wait before the next attempt.
            retry_after = None
            if (exc.code == 429 or exc.code >= 500) and exc.headers is not None:
                retry_after = _retry_after(exc.headers.get("Retry-After"))
            raise TransportError(f"chat completion request failed: {exc}",
                                 retry_after) from exc
        except (urllib.error.URLError, http.client.HTTPException, ConnectionError,
                TimeoutError, json.JSONDecodeError) as exc:
            raise TransportError(f"chat completion request failed: {exc}") from exc
        try:
            return body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"unexpected response shape: {exc}") from exc

    return call


class Gateway:
    """One LLM access point; safe to share across threads.

    ``transport`` overrides the HTTP layer, which is how offline tests and
    transcript recording against scripted backends work.
    """

    def __init__(self, config: BackendConfig, transport: Transport | None = None):
        self.config = config
        self._transport = transport or _http_transport(config)

    def _payload(self, bundle: PromptBundle, temperature: float) -> dict:
        return {
            "model": self.config.model,
            "messages": [
                {"role": "system", "content": bundle.system},
                {"role": "user", "content": bundle.user},
            ],
            "temperature": temperature,
            "max_tokens": self.config.max_tokens,
        }

    def _call_with_retry(self, payload: dict, candidate_index: int) -> str:
        last: Exception | None = None
        backoff = self.config.retry_backoff  # times 2 ** attempt, doubled in place: no overflow
        for attempt in range(self.config.retry_limit + 1):
            try:
                return self._transport(payload, candidate_index)
            except TransportError as exc:
                last = exc
                if attempt == self.config.retry_limit:
                    break
                if exc.retry_after is not None:
                    time.sleep(min(exc.retry_after, RETRY_WAIT_CAP_S))
                elif backoff > 0:
                    time.sleep(min(backoff, RETRY_WAIT_CAP_S))
                backoff *= 2
        raise TransportError(f"request failed after {self.config.retry_limit + 1} attempts: {last}")

    def complete(self, bundle: PromptBundle, n: int = 1, *,
                 temperature: float, first_index: int = 0) -> list[str]:
        """Fetch n candidate responses, ordered by candidate index.

        Candidate i's request carries ``candidate_index = first_index + i``,
        so retries with ``first_index=n`` draw fresh samples that record and
        replay independently of the first round.
        """
        if n < 1:
            raise ValueError("n must be at least 1")
        # Each candidate's request record is this plus its candidate_index.
        shared = {"system": bundle.system, "user": bundle.user, "model": self.config.model,
                  "temperature": temperature}
        indices = range(first_index, first_index + n)
        if self.config.mode == "replay":
            return [read_response(self.config.transcript_dir, key)
                    for key in transcript_keys(shared, indices)]

        payload = self._payload(bundle, temperature)

        def fetch(index: int) -> str:
            return self._call_with_retry(payload, index)

        if n == 1:
            texts = [fetch(first_index)]
        else:
            with ThreadPoolExecutor(max_workers=min(self.config.fanout, n)) as pool:
                texts = list(pool.map(fetch, indices))

        if self.config.mode == "record":
            stamp = datetime.now(timezone.utc).isoformat()
            for index, key, text in zip(indices, transcript_keys(shared, indices), texts):
                write_transcript(self.config.transcript_dir, key,
                                 dict(shared, candidate_index=index), text, stamp)
        return texts

    def ping(self) -> bool:
        """Round-trip connectivity probe for live backends."""
        probe = PromptBundle(system="You are a connectivity probe.",
                             user="Reply with the single word OK.")
        return bool(self._call_with_retry(dict(self._payload(probe, 0.0), max_tokens=8), 0))


@dataclass(frozen=True)
class ExtractionFailure:
    """Returned instead of a Layout when a response holds no layout with
    elements."""

    reason: str


def extract_layout(response: str, vocabulary: Iterable[str],
                   fallback_canvas: Canvas | None = None,
                   layout_id: str = "") -> Layout | ExtractionFailure:
    """Lenient response-to-layout parsing; failures are values, not errors.
    A layout without elements is a failure too."""
    try:
        layout = parse_html(response, vocabulary, layout_id=layout_id,
                            fallback_canvas=fallback_canvas)
    except (ParseFailure, LayoutLoomError) as exc:
        return ExtractionFailure(reason=str(exc))
    return layout if layout.elements else ExtractionFailure(reason="no elements extracted")


def replay_check(transcript_dir: str | Path) -> list[str]:
    """Verify every stored transcript's request hashes to its key and file
    name; return problems."""
    problems = []
    directory = Path(transcript_dir)
    for path in sorted(directory.glob("*.json")):
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            derived = transcript_key(data["request"])
        except (ValueError, KeyError, TypeError) as exc:
            # ValueError covers malformed JSON, bytes that are not UTF-8 and
            # an integer past Python's digit limit.
            problems.append(f"{path.name}: unreadable transcript ({exc})")
            continue
        if derived != data.get("key") or path.stem != derived:
            problems.append(f"{path.name}: key does not match request content")
    return problems
