"""HTTP adapter for external ranking agents, plus its in-process mock.

Wire contract (JSON bodies, UTF-8):
  request   POST <endpoint>/generate
            {"query_id", "query_text", "persona", "candidates": [{"id",
            "description"}], "k"}, sent as exactly the bytes of
            ``json.dumps(body, sort_keys=True)`` in UTF-8
  response  200 {"items": [str, ...], "justification": str}, items best
            first, at most k of them

Anything else — non-200 status, unparseable body, missing or duplicated
field, non-string ids, too many items — raises AdapterMalformed; a missed
deadline raises AdapterTimeout.  Endpoints with the "mock://" scheme are
served in process by a deterministic ranker that exercises the exact same
request/response validation path as real HTTP.
"""

from __future__ import annotations

import json
import os
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


def _id_matrix(middles: Sequence[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """The NUL-padded ``uint8`` matrix of ``middles``, one row each, and their lengths.

    The lengths come from the bytes objects, because a middle may itself end
    in NUL.
    """
    n = len(middles)
    padded = np.array(middles, dtype=bytes)
    matrix = padded.view(np.uint8).reshape(n, padded.itemsize)
    lengths = np.fromiter(map(len, middles), dtype=np.intp, count=n)
    return matrix, lengths


def _fnv1a64_rows(
    prefix: bytes, matrix: np.ndarray, lengths: np.ndarray, suffix: bytes
) -> np.ndarray:
    """``fnv1a64(prefix + row + suffix)`` for every row of an ``_id_matrix``."""
    h = np.full(len(lengths), fnv1a64(prefix), dtype=np.uint64)
    for j in range(matrix.shape[1]):
        np.copyto(h, (h ^ matrix[:, j]) * FNV_PRIME, where=lengths > j)
    for byte in suffix:
        h ^= byte
        h *= FNV_PRIME
    return h


def fnv1a64_many(prefix: bytes, middles: Sequence[bytes], suffix: bytes) -> np.ndarray:
    """``fnv1a64(prefix + m + suffix)`` for every ``m`` in ``middles``, as uint64.

    ``_id_matrix`` lays the middles out as a NUL-padded byte matrix, and
    ``_fnv1a64_rows`` hashes it: the prefix once in Python, then the matrix
    column by column, each row stopping at its own length, then the suffix
    over the whole vector.  The mock keeps the matrix of the last candidate
    array it decoded and calls the hasher alone.  uint64 array arithmetic
    wraps mod 2**64, as ``& _MASK64`` does.
    """
    return _fnv1a64_rows(prefix, *_id_matrix(middles), suffix)


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


# the last candidates sent and their encoding: a council sends the same catalog
# with every query, so it is encoded once, not once per request.  Only the
# encoded fields are kept, so no Item outlives its catalog here.
_last_candidates: tuple[list[str], list[str], str] = ([], [], "[]")


def _candidates_json(items: Sequence[Item]) -> str:
    """``json.dumps`` of the request's candidate array, reused while the
    candidates' ids and descriptions stay the same."""
    global _last_candidates
    ids = [it.id for it in items]
    descriptions = [it.description for it in items]
    sent_ids, sent_descriptions, encoded = _last_candidates
    if ids != sent_ids or descriptions != sent_descriptions:
        encoded = json.dumps(
            [{"id": i, "description": d} for i, d in zip(ids, descriptions)],
            sort_keys=True,
        )
        _last_candidates = (ids, descriptions, encoded)
    return encoded


_CANDIDATES_KEY = '{"candidates": '


def build_request(spec: "AgentSpec", query: Query, items: Sequence[Item], k: int) -> bytes:
    """The request body: exactly ``json.dumps(body, sort_keys=True)`` in UTF-8.

    The candidate array is encoded once and reused for as long as the same
    ids and descriptions are sent.  ``"candidates"`` sorts before every
    other key, so the array is spliced in where the header, dumped with an
    empty array, opens it.  ``tests/golden/adapter_request.json`` pins the
    bytes.
    """
    header = json.dumps(
        {
            "query_id": query.id,
            "query_text": query.text,
            "persona": spec.params.get("persona", ""),
            "candidates": [],
            "k": k,
        },
        sort_keys=True,
    )
    assert header.startswith(_CANDIDATES_KEY + "[]"), "a body key sorts before candidates"
    rest = header[len(_CANDIDATES_KEY) + len("[]") :]
    return (_CANDIDATES_KEY + _candidates_json(items) + rest).encode("utf-8")


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
    except (ValueError, UnicodeDecodeError, RecursionError) as exc:
        # too deep a nesting makes the decoder raise RecursionError
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


# the last candidate array the mock decoded: the body bytes from the start
# through the array's closing "]", its ids, and their ``_id_matrix``.  A
# council resends one catalog with every query, so a repeat is answered from
# here.  One tuple, replaced whole, so concurrent callers read a consistent one.
_last_decoded: tuple[bytes, list[str], np.ndarray, np.ndarray] | None = None
_JSON_DECODER = json.JSONDecoder()


def _decode_mock_request(request_body: bytes) -> tuple[dict, list[str], np.ndarray, np.ndarray]:
    """The request object, its candidate ids and their ``_id_matrix``.

    A body that starts with the last decoded array and continues with ``, ``
    decodes only ``{`` plus the rest; every other body is decoded whole.  The
    rest falls back to the whole body if it holds a ``candidates`` key (a
    full parse keeps the last duplicate) or no key at all (``, }`` is not
    JSON), so the answer, or the exception, is the full parse's.
    """
    global _last_decoded
    last = _last_decoded
    if last is not None:
        head, ids, matrix, lengths = last
        if request_body.startswith(head) and request_body.startswith(b", ", len(head)):
            req = json.loads("{" + request_body[len(head) + 2 :].decode("utf-8"))
            if req and "candidates" not in req:
                return req, ids, matrix, lengths
    text = request_body.decode("utf-8")
    req = json.loads(text)
    ids = [c["id"] for c in req["candidates"]]
    matrix, lengths = _id_matrix([item_id.encode("utf-8") for item_id in ids])
    if text.startswith(_CANDIDATES_KEY + "["):
        first, end = _JSON_DECODER.raw_decode(text, len(_CANDIDATES_KEY))
        # a repeated key answers from its last array; remember the first
        # only when it is that same array
        if first == req["candidates"]:
            _last_decoded = (text[:end].encode("utf-8"), ids, matrix, lengths)
    return req, ids, matrix, lengths


def mock_serve(request_body: bytes) -> bytes:
    """In-process stand-in for the external service.

    Reads only ``query_id``, ``persona``, ``candidates[].id`` and ``k``.
    Ranks the candidates by the FNV-1a 64 hash of the concatenated UTF-8 of
    (query_id, candidate id, persona), ties by id, and returns the first k.
    It remembers the last candidate array it decoded, with its ids' byte
    matrix, so a request that resends those bytes decodes only the fields
    after the array; the answer is the same either way.  The hashes come
    from ``_fnv1a64_rows`` in one numpy pass over that matrix and equal
    ``fnv1a64`` bit for bit.  An ``np.partition`` threshold keeps the
    candidates that hash at most the k-th smallest value, ties included, and
    only those are sorted by (hash, id).  Deterministic across processes and
    implementations.
    """
    req, ids, matrix, lengths = _decode_mock_request(request_body)
    k = req["k"]
    n = len(ids)
    hashes = _fnv1a64_rows(
        req["query_id"].encode("utf-8"), matrix, lengths, req["persona"].encode("utf-8")
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
        # imported here: they pull in ssl and email, which no other agent needs
        import http.client
        import urllib.error
        import urllib.request

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
