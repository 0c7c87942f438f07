"""Candidate corrections from a language model, over a pluggable backend.

The prompt asks the model to return only the input text with spelling fixed,
leaving grammar and proper names alone; the record text goes between
triple-backtick fences, unescaped (embedded backticks are logged, not
escaped). Backends: a generic HTTP chat-completion client and a
deterministic mock driven by a fixture table; ``--backend identity`` is the
mock with no fixtures, which echoes every text. Per-record processing never
raises; every outcome is encoded in the result. This module only fetches
candidates: judging them, the whole-text rewrite check included, is the
classify stage's job. The HTTP backend uses the standard library's
``http.client``, imported only when one is built, so mock and identity runs
load no HTTP stack.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from pathlib import Path
from typing import Callable, Generator, NamedTuple, Protocol

from . import __version__
from .records import (
    OUTCOME_CONTENT_POLICY,
    OUTCOME_OK,
    OUTCOME_OVER_LENGTH,
    OUTCOME_TRANSPORT_ERROR,
    CorpusError,
    _read_rows,
    lone_surrogate,
)

logger = logging.getLogger(__name__)

SPANISH_PROMPT = (
    "Dado el texto del siglo XIX entre ```, retorna únicamente el texto "
    "corrigiendo los errores ortográficos sin cambiar la gramática. "
    "No corrijas la ortografía de nombres:\n\n```\n{text}\n```"
)

REFUSAL_SENTINEL = "__CONTENT_POLICY_REFUSAL__"
TRANSPORT_ERROR_SENTINEL = "__TRANSPORT_ERROR__"
HTTP_TIMEOUT_S = 60.0


class ContentPolicyRefusal(Exception):
    """The backend declined to process the text (flagged content)."""


class TransportError(Exception):
    """Transient failure talking to the backend; retryable.

    ``retry_after`` is the server's requested delay in seconds, when it sent
    one (the ``Retry-After`` header).
    """

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class FatalTransportError(TransportError):
    """A failure that a retry cannot fix (bad request, bad key, no access, wrong URL)."""


class _PromptTemplateFields(NamedTuple):
    template_text: str


class PromptTemplate(_PromptTemplateFields):
    """A prompt with exactly one {text} placeholder."""

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        if self.template_text.count("{text}") != 1:
            raise ValueError("template must contain exactly one {text} placeholder")

    @classmethod
    def for_language(cls, language: str) -> "PromptTemplate":
        """The shipped prompt; the corpora are Spanish, so that is the only language."""
        if language != "spanish":
            raise ValueError(f"unknown prompt language {language!r}")
        return cls(SPANISH_PROMPT)


class _BackendResultFields(NamedTuple):
    outcome: str
    corrected_text: str | None = None
    detail: str = ""


class BackendResult(_BackendResultFields):
    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        if (self.corrected_text is not None) != (self.outcome == OUTCOME_OK):
            raise ValueError("corrected_text must be present exactly when outcome is ok")


class CorrectionBackend(Protocol):
    """Turns a prompt (and the raw record text) into a model response."""

    def complete(self, prompt: str, text: str) -> str: ...


class MockBackend:
    """Deterministic fixture-driven backend for offline runs.

    The fixture file is line-delimited ``{"input_hash": ..., "output": ...}``
    where ``input_hash`` is the SHA-256 hex digest of the record text, read
    with the same line loader as the stage files. Sentinel outputs simulate
    refusals and transport failures; texts without a fixture entry are echoed
    unchanged, so a malformed fixture row is a :class:`CorpusError` rather
    than a skipped line that would silently turn into an echo.
    """

    def __init__(self, fixture_path: str | Path | None = None):
        self.table: dict[str, str] = {}
        if fixture_path is not None:
            diagnostics = []
            for _, (input_hash, output) in _read_rows(fixture_path, "fixture", _fixture_row, diagnostics):
                self.table[input_hash] = output
            if diagnostics:
                raise CorpusError(f"{fixture_path}: {diagnostics[0]}")

    @staticmethod
    def hash_text(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def complete(self, prompt: str, text: str) -> str:
        output = self.table.get(self.hash_text(text))
        if output is None:
            return text
        if output == REFUSAL_SENTINEL:
            raise ContentPolicyRefusal("fixture marked this text as refused")
        if output == TRANSPORT_ERROR_SENTINEL:
            raise TransportError("fixture marked this text as failing")
        return output


def _fixture_row(obj: dict) -> tuple[str, str]:
    input_hash, output = obj["input_hash"], obj["output"]
    if not isinstance(input_hash, str) or not isinstance(output, str):
        raise ValueError("'input_hash' and 'output' must be strings")
    return input_hash, output


class HttpChatBackend:
    """Generic chat-completion endpoint (OpenAI-style JSON shape), over ``http.client``.

    Each request thread keeps one connection alive, to the endpoint or to the
    proxy that ``urllib.request.getproxies()`` names for its scheme unless
    ``proxy_bypass`` exempts the host: an https endpoint is tunnelled through
    it with ``CONNECT``, an http one is sent the absolute URL. HTTPS trusts
    the system store (``ssl.create_default_context()``). A redirect is a
    :class:`FatalTransportError`, not followed.
    """

    def __init__(self, endpoint: str, model: str, api_key: str | None = None, temperature: float = 0.0):
        import threading
        from base64 import b64encode
        from functools import partial
        from http.client import HTTPConnection, HTTPSConnection
        from urllib.parse import unquote, urlsplit
        from urllib.request import getproxies, proxy_bypass

        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self.temperature = temperature
        self._headers = {"Content-Type": "application/json", "User-Agent": f"histocr/{__version__}"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"
        url = urlsplit(endpoint)
        https = url.scheme == "https"
        self._address = (url.hostname, url.port or (443 if https else 80))
        self._target = url._replace(scheme="", netloc="", fragment="").geturl() or "/"
        self._open = HTTPConnection
        if https:
            import ssl

            self._open = partial(HTTPSConnection, context=ssl.create_default_context())
        self._tunnel = self._tunnel_headers = None
        proxy = getproxies().get(url.scheme)
        if proxy and not proxy_bypass(url.netloc.rpartition("@")[2]):
            proxy_url = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            proxy_headers = {}
            if proxy_url.username is not None:
                credentials = f"{unquote(proxy_url.username)}:{unquote(proxy_url.password or '')}"
                proxy_headers["Proxy-Authorization"] = f"Basic {b64encode(credentials.encode()).decode()}"
            if https:
                self._tunnel, self._tunnel_headers = self._address, proxy_headers
            else:
                self._target = url._replace(fragment="").geturl()
                self._headers.update(proxy_headers)
            self._address = (proxy_url.hostname, proxy_url.port or 80)
        self._local = threading.local()

    def _connection(self):
        """The calling thread's connection, which opens a new socket whenever its last one was closed."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = self._open(*self._address, timeout=HTTP_TIMEOUT_S)
            if self._tunnel:
                connection.set_tunnel(*self._tunnel, headers=self._tunnel_headers)
        return connection

    def _post(self, connection, body: bytes):
        """Send the request and read the status line and headers. A kept-alive
        socket that fails before the status line gets the request once more on
        a fresh socket, as ``xmlrpc.client.Transport.request`` does: the server
        may have closed it while it was idle."""
        reused = connection.sock is not None
        try:
            connection.request("POST", self._target, body, self._headers)
            return connection.getresponse()
        except (ConnectionResetError, BrokenPipeError):  # http.client.RemoteDisconnected included
            if not reused:
                raise
            connection.close()
        connection.request("POST", self._target, body, self._headers)
        return connection.getresponse()

    def complete(self, prompt: str, text: str) -> str:
        from http.client import HTTPException

        payload = {
            "model": self.model,
            "temperature": self.temperature,
            "messages": [{"role": "user", "content": prompt}],
        }
        connection = self._connection()
        try:
            response = self._post(connection, json.dumps(payload).encode())
            status, data = response.status, response.read()
        except (OSError, HTTPException) as exc:  # a timeout and an ssl.SSLError are OSErrors
            connection.close()
            raise TransportError(f"{type(exc).__name__}: {exc}") from exc
        if 300 <= status < 400:
            raise FatalTransportError(f"HTTP {status}: redirect to {response.getheader('Location')} not followed")
        if status >= 400:
            reply = data.decode("utf-8", "replace")
            refusal_markers = ("content_filter", "content_policy", "content policy",
                               "responsibleaipolicy")
            if status == 400 and any(marker in reply.lower() for marker in refusal_markers):
                raise ContentPolicyRefusal(reply[:500])
            # a client error other than a timeout or a rate limit recurs on every retry
            if status < 500 and status not in (408, 429):
                raise FatalTransportError(f"HTTP {status}: {reply[:500]}")
            raise TransportError(
                f"HTTP {status}: {reply[:500]}",
                retry_after=_delay_seconds(response.getheader("Retry-After")),
            )
        try:
            choice = json.loads(data)["choices"][0]
            if choice.get("finish_reason") == "content_filter":
                raise ContentPolicyRefusal("finish_reason=content_filter")
            content = choice["message"]["content"]
        except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
            raise TransportError(f"malformed backend response: {exc}") from exc
        if not isinstance(content, str):
            raise TransportError(f"malformed backend response: content is {type(content).__name__}")
        return content


def _delay_seconds(value: str | None) -> float | None:
    """A ``Retry-After`` value in its delay-seconds form; None for an
    HTTP-date, a malformed value or no header."""
    value = (value or "").strip()
    return float(value) if value.isascii() and value.isdigit() else None


class RetryPolicy(NamedTuple):
    """Capped exponential backoff for transient transport errors only."""

    max_attempts: int = 3
    backoff_base: float = 0.5
    backoff_cap: float = 8.0
    sleep: Callable[[float], None] = time.sleep

    def delay(self, attempt: int) -> float:
        return min(self.backoff_base * (2 ** (attempt - 1)), self.backoff_cap)


def strip_fences(response: str) -> str:
    """Remove surrounding triple-backtick fences and outer whitespace only."""
    text = response.strip()
    if text.startswith("```") and text.endswith("```") and len(text) >= 6:
        inner = text[3:-3]
        # drop a language tag on the opening fence line ("```text\n...")
        first_newline = inner.find("\n")
        if first_newline != -1 and inner[:first_newline].strip().isalnum():
            inner = inner[first_newline + 1 :]
        elif first_newline == -1:
            return inner.strip()
        text = inner.strip()
    return text


def correction_attempts(
    text: str,
    backend: CorrectionBackend,
    retry_policy: RetryPolicy | None = None,
    template: PromptTemplate | None = None,
    max_chars: int | None = None,
) -> Generator[float, None, BackendResult]:
    """The attempts of :func:`correct_text`, one backend call per step.

    Each step that ends in a retryable :class:`TransportError` yields the
    seconds to wait before the next attempt; the generator returns the
    :class:`BackendResult`. The caller waits out each delay, so a scheduler
    can run other records' calls meanwhile; ``retry_policy.sleep`` is not
    called here.
    """
    if not text:
        return BackendResult(OUTCOME_TRANSPORT_ERROR, detail="empty text: nothing to correct")
    retry_policy = retry_policy or RetryPolicy()
    template = template or PromptTemplate.for_language("spanish")
    if max_chars is not None and len(text) > max_chars:
        return BackendResult(
            OUTCOME_OVER_LENGTH,
            detail=f"text length {len(text)} exceeds budget {max_chars}",
        )
    if "```" in text:
        logger.warning("record text contains triple backticks; embedded unescaped")
    prompt = template.template_text.replace("{text}", text)
    last_error = ""
    for attempt in range(1, retry_policy.max_attempts + 1):
        try:
            raw = backend.complete(prompt, text)
        except ContentPolicyRefusal as exc:
            return BackendResult(OUTCOME_CONTENT_POLICY, detail=str(exc))
        except FatalTransportError as exc:
            return BackendResult(OUTCOME_TRANSPORT_ERROR, detail=f"not retried: {exc}")
        except TransportError as exc:
            last_error, retry_after = str(exc), exc.retry_after or 0.0
        except Exception as exc:
            # a backend bug costs this record, not the stage; --verbose shows the traceback
            logger.warning("backend raised %s; recorded as transport_error", type(exc).__name__,
                           exc_info=logger.isEnabledFor(logging.DEBUG))
            return BackendResult(OUTCOME_TRANSPORT_ERROR, detail=f"not retried: {type(exc).__name__}: {exc}")
        else:
            if not isinstance(raw, str):
                detail = f"not retried: backend returned {type(raw).__name__}, not str"
                return BackendResult(OUTCOME_TRANSPORT_ERROR, detail=detail)
            if surrogate := lone_surrogate(raw):
                detail = f"not retried: response holds a lone surrogate at index {surrogate.start()}"
                return BackendResult(OUTCOME_TRANSPORT_ERROR, detail=f"{detail}, which UTF-8 cannot encode")
            return BackendResult(OUTCOME_OK, corrected_text=strip_fences(raw))
        # yielded outside the handler, so a suspended attempt holds no exception
        if attempt < retry_policy.max_attempts:
            yield min(max(retry_after, retry_policy.delay(attempt)), retry_policy.backoff_cap)
    return BackendResult(
        OUTCOME_TRANSPORT_ERROR,
        detail=f"exhausted {retry_policy.max_attempts} attempts: {last_error}",
    )


def correct_text(
    text: str,
    backend: CorrectionBackend,
    retry_policy: RetryPolicy | None = None,
    template: PromptTemplate | None = None,
    max_chars: int | None = None,
) -> BackendResult:
    """Fetch a corrected candidate for one record; never raises on backend trouble.

    Texts over the character budget are flagged ``over_length`` without a
    backend call (the pipeline does not split records into chunks), and an
    empty text is a ``transport_error`` without one. A
    :class:`FatalTransportError` is not retried. Before a retry it sleeps
    the backoff delay, or the server's ``Retry-After`` if that is longer,
    but never more than ``backoff_cap``. Any other exception from the
    backend, or a response that is not a ``str`` or holds a lone surrogate,
    is one ``transport_error`` whose detail names the cause; none is retried.
    The attempts are :func:`correction_attempts`, each delay slept through
    ``retry_policy.sleep`` in the calling thread.
    """
    retry_policy = retry_policy or RetryPolicy()
    steps = correction_attempts(text, backend, retry_policy, template, max_chars)
    try:
        while True:
            retry_policy.sleep(next(steps))
    except StopIteration as done:
        return done.value
