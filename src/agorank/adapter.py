"""HTTP adapter for external ranking agents, plus its in-process mock.

Wire contract (JSON bodies, UTF-8):
  request   POST <endpoint>/generate
            {"query_id", "query_text", "persona", "candidates": [{"id",
            "description"}], "k"}
  response  200 {"items": [str, ...], "justification": str}, items best
            first, at most k of them

Anything else — non-200 status, unparseable body, missing or duplicated
field, non-string ids, too many items — raises AdapterMalformed; a missed
deadline raises AdapterTimeout.  Endpoints with the "mock://" scheme are
served in process by a deterministic ranker that exercises the exact same
request/response validation path as real HTTP.
"""

from __future__ import annotations

import http.client
import json
import os
import urllib.error
import urllib.request
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import AdapterMalformed, AdapterTimeout
from .model import Ballot, Item, Query

if TYPE_CHECKING:  # pragma: no cover
    from .agents import AgentSpec

ENV_URL = "FAIR_AGENTS_ADAPTER_URL"
DEFAULT_TIMEOUT_S = 10.0

FNV_OFFSET = 14695981039346656037
FNV_PRIME = 1099511628211
_MASK64 = (1 << 64) - 1


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash, the mock's ordering key; ``fnv1a64_many`` is its vector form."""
    h = FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * FNV_PRIME) & _MASK64
    return h


def fnv1a64_many(prefix: bytes, middles: Sequence[bytes], suffix: bytes) -> np.ndarray:
    """``fnv1a64(prefix + m + suffix)`` for every ``m`` in ``middles``, as uint64.

    The prefix is hashed once in Python.  The middles are laid out as a
    NUL-padded byte matrix and hashed column by column, each row stopping at
    its own length; the lengths come from the bytes objects, because a
    middle may itself end in NUL.  The suffix is then hashed over the whole
    vector.  uint64 array arithmetic wraps mod 2**64, as ``& _MASK64`` does.
    """
    n = len(middles)
    padded = np.array(middles, dtype=bytes)
    matrix = padded.view(np.uint8).reshape(n, padded.itemsize)
    lengths = np.fromiter(map(len, middles), dtype=np.intp, count=n)
    h = np.full(n, fnv1a64(prefix), dtype=np.uint64)
    for j in range(padded.itemsize):
        np.copyto(h, (h ^ matrix[:, j]) * FNV_PRIME, where=lengths > j)
    for byte in suffix:
        h ^= byte
        h *= FNV_PRIME
    return h


def resolve_endpoint(spec: "AgentSpec", url_override: str | None = None) -> str:
    """Endpoint precedence: explicit override, then environment, then params."""
    if url_override:
        return url_override
    env = os.environ.get(ENV_URL)
    if env:
        return env
    endpoint = spec.params.get("endpoint")
    if not isinstance(endpoint, str) or not endpoint:
        raise AdapterMalformed(f"agent {spec.agent_id}: no adapter endpoint configured")
    return endpoint


def build_request(spec: "AgentSpec", query: Query, items: Sequence[Item], k: int) -> bytes:
    persona = spec.params.get("persona", "")
    body = {
        "query_id": query.id,
        "query_text": query.text,
        "persona": persona,
        "candidates": [{"id": it.id, "description": it.description} for it in items],
        "k": k,
    }
    return json.dumps(body, sort_keys=True).encode("utf-8")


def _reject_duplicate_keys(pairs: list[tuple[str, object]]) -> dict:
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise AdapterMalformed(f"duplicated field {key!r} in response")
        obj[key] = value
    return obj


def parse_response(raw: bytes, k: int) -> tuple[tuple[str, ...], str]:
    """Validate a response body against the wire contract."""
    try:
        payload = json.loads(raw.decode("utf-8"), object_pairs_hook=_reject_duplicate_keys)
    except AdapterMalformed:
        raise
    except (ValueError, UnicodeDecodeError) as exc:
        raise AdapterMalformed(f"response is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise AdapterMalformed("response is not a JSON object")
    if "items" not in payload:
        raise AdapterMalformed("response missing field 'items'")
    if "justification" not in payload:
        raise AdapterMalformed("response missing field 'justification'")
    items = payload["items"]
    justification = payload["justification"]
    if not isinstance(items, list) or any(not isinstance(i, str) for i in items):
        raise AdapterMalformed("'items' must be a list of strings")
    if len(items) > k:
        raise AdapterMalformed(f"response has {len(items)} items, limit is {k}")
    if not isinstance(justification, str):
        raise AdapterMalformed("'justification' must be a string")
    return tuple(items), justification


def mock_serve(request_body: bytes) -> bytes:
    """In-process stand-in for the external service.

    Reads only ``query_id``, ``persona``, ``candidates[].id`` and ``k``.
    Ranks the candidates by the FNV-1a 64 hash of the concatenated UTF-8 of
    (query_id, candidate id, persona), ties by id, and returns the first k.
    The hashes come from ``fnv1a64_many`` in one numpy pass and equal
    ``fnv1a64`` bit for bit.  An ``np.partition`` threshold keeps the
    candidates that hash at most the k-th smallest value, ties included, and
    only those are sorted by (hash, id).  Deterministic across processes and
    implementations.
    """
    req = json.loads(request_body.decode("utf-8"))
    k = req["k"]
    ids = [c["id"] for c in req["candidates"]]
    n = len(ids)
    hashes = fnv1a64_many(
        req["query_id"].encode("utf-8"),
        [item_id.encode("utf-8") for item_id in ids],
        req["persona"].encode("utf-8"),
    )
    if 0 < k < n:
        threshold = np.partition(hashes, k - 1)[k - 1]
        keep = np.flatnonzero(hashes <= threshold)
        hashes, ids = hashes[keep], [ids[i] for i in keep.tolist()]
    keyed = sorted(zip(hashes.tolist(), ids))
    items = [item_id for _, item_id in keyed[:k]]
    body = {
        "items": items,
        "justification": f"mock hash ranking over {n} candidates",
    }
    return json.dumps(body, sort_keys=True).encode("utf-8")


def request_external(
    spec: "AgentSpec",
    query: Query,
    catalog_slice: Sequence[Item],
    k: int,
    url_override: str | None = None,
    timeout_s: float | None = None,
) -> Ballot:
    """Fetch one raw ballot from the configured endpoint.

    The returned ballot is exactly what the service said — grounding against
    the catalog is the caller's job.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    endpoint = resolve_endpoint(spec, url_override)
    if timeout_s is None:
        raw = spec.params.get("timeout_s", DEFAULT_TIMEOUT_S)
        timeout_s = float(raw)  # type: ignore[arg-type]
    request_body = build_request(spec, query, catalog_slice, k)

    if endpoint.startswith("mock://"):
        response_body = mock_serve(request_body)
    else:
        url = endpoint.rstrip("/") + "/generate"
        http_req = urllib.request.Request(
            url, data=request_body, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(http_req, timeout=timeout_s) as resp:
                if resp.status != 200:
                    raise AdapterMalformed(f"unexpected status {resp.status}")
                response_body = resp.read()
        except AdapterMalformed:
            raise
        except urllib.error.HTTPError as exc:
            raise AdapterMalformed(f"unexpected status {exc.code}") from exc
        except TimeoutError as exc:
            raise AdapterTimeout(f"no response within {timeout_s}s") from exc
        except urllib.error.URLError as exc:
            if isinstance(exc.reason, TimeoutError):
                raise AdapterTimeout(f"no response within {timeout_s}s") from exc
            raise AdapterMalformed(f"request failed: {exc.reason}") from exc
        except (OSError, http.client.HTTPException) as exc:
            raise AdapterMalformed(f"request failed: {exc}") from exc

    items, justification = parse_response(response_body, k)
    return Ballot(agent_id=spec.agent_id, ranking=items, justification=justification)
