import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agorank.adapter import (
    ENV_URL,
    build_request,
    fnv1a64,
    fnv1a64_many,
    mock_serve,
    parse_response,
    request_external,
    resolve_endpoint,
)
from agorank.agents import AgentObjective, AgentSpec
from agorank.errors import AdapterMalformed, AdapterTimeout
from agorank.metrics import MetricId
from agorank.model import Item, Query, StakeholderRole


def external_spec(**params):
    return AgentSpec(
        agent_id="ext",
        role=StakeholderRole.THIRD_PARTY,
        objective=AgentObjective.EXTERNAL,
        objective_metric=MetricId.NDCG,
        objective_target=0.5,
        params=params,
    )


ITEMS = [
    Item(id="a", provider_id="p", description="first"),
    Item(id="b", provider_id="p", description="second"),
    Item(id="c", provider_id="p", description="third"),
]
QUERY = Query(id="q7", text="weekend plans")


class TestFnv1a64:
    def test_known_vectors(self):
        assert fnv1a64(b"") == 14695981039346656037
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C

    def test_stays_64_bit(self):
        assert fnv1a64(b"some much longer input string" * 10) < 1 << 64


# ids that stress the padded byte matrix: non-ASCII, empty, NUL-terminated
_IDS = st.one_of(
    st.text(max_size=12),
    st.text(max_size=6).map(lambda s: s + "\x00"),
    st.sampled_from(["", "a", "a\x00", "é", "item-00042"]),
)


@st.composite
def _candidate_ids(draw):
    """Candidate ids with duplicates, in no particular order."""
    ids = draw(st.lists(_IDS, max_size=16))
    if ids:
        ids += draw(st.lists(st.sampled_from(ids), max_size=4))
    return draw(st.permutations(ids))


class TestFnv1a64Many:
    @settings(max_examples=200, deadline=None)
    @given(prefix=st.text(max_size=6), ids=_candidate_ids(), suffix=st.text(max_size=6))
    def test_matches_scalar_hash(self, prefix, ids, suffix):
        middles = [i.encode("utf-8") for i in ids]
        hashes = fnv1a64_many(prefix.encode("utf-8"), middles, suffix.encode("utf-8"))
        assert hashes.dtype == np.uint64
        expected = [fnv1a64((prefix + i + suffix).encode("utf-8")) for i in ids]
        assert hashes.tolist() == expected


class TestResolveEndpoint:
    def test_override_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_URL, "http://env")
        spec = external_spec(endpoint="http://params")
        assert resolve_endpoint(spec, "http://override") == "http://override"

    def test_env_beats_params(self, monkeypatch):
        monkeypatch.setenv(ENV_URL, "http://env")
        assert resolve_endpoint(external_spec(endpoint="http://params")) == "http://env"

    def test_params_fallback(self, monkeypatch):
        monkeypatch.delenv(ENV_URL, raising=False)
        assert resolve_endpoint(external_spec(endpoint="http://params")) == "http://params"

    def test_unconfigured(self, monkeypatch):
        monkeypatch.delenv(ENV_URL, raising=False)
        with pytest.raises(AdapterMalformed):
            resolve_endpoint(external_spec())


class TestRequestBody:
    def test_fields(self):
        body = json.loads(build_request(external_spec(persona="foodie"), QUERY, ITEMS, 2))
        assert body == {
            "query_id": "q7",
            "query_text": "weekend plans",
            "persona": "foodie",
            "candidates": [
                {"id": "a", "description": "first"},
                {"id": "b", "description": "second"},
                {"id": "c", "description": "third"},
            ],
            "k": 2,
        }

    def test_persona_defaults_empty(self):
        body = json.loads(build_request(external_spec(), QUERY, ITEMS, 1))
        assert body["persona"] == ""


class TestParseResponse:
    def test_valid(self):
        raw = json.dumps({"items": ["b", "a"], "justification": "why"}).encode()
        assert parse_response(raw, 2) == (("b", "a"), "why")

    @pytest.mark.parametrize(
        "payload",
        [
            b"not json",
            b"[1, 2]",
            b'{"items": ["a"]}',
            b'{"justification": "x"}',
            b'{"items": "a", "justification": "x"}',
            b'{"items": [1], "justification": "x"}',
            b'{"items": ["a"], "justification": 5}',
            b'{"items": ["a", "b", "c"], "justification": "x"}',
        ],
    )
    def test_malformed(self, payload):
        with pytest.raises(AdapterMalformed):
            parse_response(payload, 2)

    def test_duplicate_key_rejected(self):
        raw = b'{"items": ["a"], "items": ["b"], "justification": "x"}'
        with pytest.raises(AdapterMalformed):
            parse_response(raw, 2)

    def test_fewer_than_k_accepted(self):
        raw = json.dumps({"items": ["a"], "justification": "x"}).encode()
        assert parse_response(raw, 5)[0] == ("a",)


class TestMock:
    def test_hash_order_matches_manual_computation(self):
        request = build_request(external_spec(persona="px"), QUERY, ITEMS, 3)
        response = json.loads(mock_serve(request))
        expected = [
            item_id
            for _, item_id in sorted(
                (fnv1a64(("q7" + it.id + "px").encode()), it.id) for it in ITEMS
            )
        ]
        assert response["items"] == expected

    def test_request_external_via_mock_scheme(self):
        ballot = request_external(external_spec(endpoint="mock://"), QUERY, ITEMS, 2)
        assert ballot.agent_id == "ext"
        assert len(ballot.ranking) == 2

    def test_mock_is_deterministic(self):
        first = request_external(external_spec(endpoint="mock://"), QUERY, ITEMS, 3)
        second = request_external(external_spec(endpoint="mock://"), QUERY, ITEMS, 3)
        assert first.ranking == second.ranking


def _reference_mock_serve(request_body: bytes) -> bytes:
    """The scalar mock as first written: one fnv1a64 call and a full sort."""
    req = json.loads(request_body.decode("utf-8"))
    query_id = req["query_id"]
    persona = req["persona"]
    k = req["k"]
    keyed = sorted(
        (
            (fnv1a64((query_id + c["id"] + persona).encode("utf-8")), c["id"])
            for c in req["candidates"]
        ),
    )
    items = [item_id for _, item_id in keyed[:k]]
    body = {
        "items": items,
        "justification": f"mock hash ranking over {len(req['candidates'])} candidates",
    }
    return json.dumps(body, sort_keys=True).encode("utf-8")


def _mock_request(query_id, persona, ids, k):
    candidates = [{"id": i, "description": f"about {i}"} for i in ids]
    body = {"query_id": query_id, "query_text": "t", "persona": persona,
            "candidates": candidates, "k": k}
    return json.dumps(body, sort_keys=True).encode("utf-8")


class TestMockMatchesScalarRanking:
    @settings(max_examples=300, deadline=None)
    @given(
        query_id=st.text(max_size=6),
        persona=st.text(max_size=6),
        ids=_candidate_ids(),
        data=st.data(),
    )
    def test_same_bytes(self, query_id, persona, ids, data):
        k = data.draw(st.integers(1, len(ids) + 3))
        request = _mock_request(query_id, persona, ids, k)
        assert mock_serve(request) == _reference_mock_serve(request)

    def test_zero_candidates(self):
        request = _mock_request("q7", "px", [], 3)
        assert mock_serve(request) == (
            b'{"items": [], "justification": "mock hash ranking over 0 candidates"}'
        )


class _Handler(BaseHTTPRequestHandler):
    behavior = "ok"

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = self.rfile.read(length)
        kind = type(self).behavior
        if kind == "ok":
            request = json.loads(body)
            items = [c["id"] for c in request["candidates"]][: request["k"]]
            payload = json.dumps({"items": items, "justification": "echo order"})
            self._reply(200, payload.encode())
        elif kind == "error":
            self._reply(500, b"boom")
        elif kind == "bad-json":
            self._reply(200, b"{nope")
        elif kind == "slow":
            time.sleep(2.0)
            self._reply(200, b"{}")

    def _reply(self, status, body):
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class _QuietServer(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        # client may hang up mid-request in the timeout tests
        pass


@pytest.fixture
def http_endpoint():
    server = _QuietServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()


class TestHttpTransport:
    def test_success(self, http_endpoint):
        _Handler.behavior = "ok"
        ballot = request_external(
            external_spec(endpoint=http_endpoint), QUERY, ITEMS, 2
        )
        assert ballot.ranking == ("a", "b")
        assert ballot.justification == "echo order"

    def test_trailing_slash_normalized(self, http_endpoint):
        _Handler.behavior = "ok"
        ballot = request_external(
            external_spec(endpoint=http_endpoint + "/"), QUERY, ITEMS, 1
        )
        assert ballot.ranking == ("a",)

    def test_server_error(self, http_endpoint):
        _Handler.behavior = "error"
        with pytest.raises(AdapterMalformed):
            request_external(external_spec(endpoint=http_endpoint), QUERY, ITEMS, 2)

    def test_bad_json_body(self, http_endpoint):
        _Handler.behavior = "bad-json"
        with pytest.raises(AdapterMalformed):
            request_external(external_spec(endpoint=http_endpoint), QUERY, ITEMS, 2)

    def test_timeout(self, http_endpoint):
        _Handler.behavior = "slow"
        with pytest.raises(AdapterTimeout):
            request_external(
                external_spec(endpoint=http_endpoint), QUERY, ITEMS, 2, timeout_s=0.2
            )

    def test_connection_refused(self):
        with pytest.raises(AdapterMalformed):
            request_external(
                external_spec(endpoint="http://127.0.0.1:1"), QUERY, ITEMS, 2,
                timeout_s=1.0,
            )

    def test_timeout_param_from_spec(self, http_endpoint):
        _Handler.behavior = "slow"
        spec = external_spec(endpoint=http_endpoint, timeout_s=0.2)
        started = time.monotonic()
        with pytest.raises(AdapterTimeout):
            request_external(spec, QUERY, ITEMS, 2)
        assert time.monotonic() - started < 1.5
