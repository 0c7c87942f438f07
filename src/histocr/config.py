"""Pipeline configuration: file-backed with CLI overrides, validated all at once."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, replace
from pathlib import Path
from urllib.parse import urlsplit

from .classify import ClassifierConfig
from .cleaning import TOKENIZERS
from .records import BOOL, INTEGER, NULL, NUMBER, STRING, Field

BACKEND_KINDS = ("mock", "identity", "http")

# what each field annotation admits
_ADMITTED = {"str": Field(STRING), "str | None": Field(STRING + NULL), "int": Field(INTEGER),
             "int | None": Field(INTEGER + NULL), "float": Field(NUMBER), "bool": Field(BOOL)}


@dataclass(frozen=True)
class PipelineConfig:
    input: str = ""
    output_dir: str = ""
    # backend
    backend: str = "identity"
    endpoint: str = ""
    model: str = ""
    api_key_env: str = "HISTOCR_API_KEY"
    mock_fixtures: str | None = None
    temperature: float = 0.0
    # request handling; the retry defaults are RetryPolicy's
    concurrency: int = 4
    retry_attempts: int = 3
    backoff_base: float = 0.5
    max_chars: int = 12000
    hallucination_threshold: float = 0.5
    # cleaning
    min_tokens: int = 4
    max_nonalpha: float = 0.5
    count_whitespace: bool = False
    tokenizer: str = "unicode_words"
    # classification; the threshold defaults are ClassifierConfig's
    rules_path: str | None = None
    ratio_threshold: float = 0.55
    max_corrected_words: int = 3
    promote_min_frequency: int | None = None
    # behavior
    modernize: bool = False
    strict: bool = False

    def validate(self) -> list[str]:
        """Collect every configuration problem instead of failing on the first.

        Each field's type is checked first, as row fields are. The ranges are
        then checked with the default in place of every wrong-typed value, so a
        wrong type hides no other problem.
        """
        errors, defaults = [], {}
        for f in fields(self):
            try:
                _ADMITTED[f.type].check(f.name, getattr(self, f.name))
            except ValueError as exc:
                errors.append(str(exc))
                defaults[f.name] = f.default
        c = replace(self, **defaults)
        errors += ClassifierConfig.range_errors(c.ratio_threshold, c.max_corrected_words)
        if not 0.0 <= c.max_nonalpha <= 1.0:
            errors.append(f"max_nonalpha must be in [0, 1], got {c.max_nonalpha}")
        if not 0.0 <= c.hallucination_threshold <= 1.0:
            errors.append(f"hallucination_threshold must be in [0, 1], got {c.hallucination_threshold}")
        if c.min_tokens < 0:
            errors.append(f"min_tokens must be >= 0, got {c.min_tokens}")
        if c.concurrency < 1:
            errors.append(f"concurrency must be >= 1, got {c.concurrency}")
        if c.retry_attempts < 1:
            errors.append(f"retry_attempts must be >= 1, got {c.retry_attempts}")
        if c.max_chars < 1:
            errors.append(f"max_chars must be >= 1, got {c.max_chars}")
        if c.backend not in BACKEND_KINDS:
            errors.append(f"backend must be one of {BACKEND_KINDS}, got {c.backend!r}")
        if c.backend == "http":
            if not c.endpoint:
                errors.append("http backend requires an endpoint")
            elif not _web_url(c.endpoint):
                errors.append(f"endpoint must be an http:// or https:// URL with a host, got {c.endpoint!r}")
            if not c.model:
                errors.append("http backend requires a model name")
        if c.backend == "mock" and c.mock_fixtures and not Path(c.mock_fixtures).exists():
            errors.append(f"mock_fixtures file not found: {c.mock_fixtures}")
        if c.tokenizer not in TOKENIZERS:
            errors.append(f"tokenizer must be one of {sorted(TOKENIZERS)}, got {c.tokenizer!r}")
        if c.rules_path and not Path(c.rules_path).exists():
            errors.append(f"rules_path file not found: {c.rules_path}")
        return errors

    @property
    def api_key(self) -> str | None:
        return os.environ.get(self.api_key_env) or None


def _web_url(text: str) -> bool:
    try:
        url = urlsplit(text)
        return url.scheme in ("http", "https") and bool(url.hostname) and url.port != 0
    except ValueError:  # a malformed IPv6 host, or a port that is not a number below 65536
        return False


def load_config(path: str | Path) -> PipelineConfig:
    """Read a JSON config file; unknown keys are rejected. A UTF-8 byte order mark may open it.

    An undecodable or malformed file is a ``ValueError`` that names it.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    known = {f.name for f in fields(PipelineConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
    return PipelineConfig(**data)

