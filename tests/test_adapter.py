import json
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agorank import adapter
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


def _reference_build_request(spec, query, items, k) -> bytes:
    """The encoder as first written: one ``json.dumps`` of the whole body."""
    body = {
        "query_id": query.id,
        "query_text": query.text,
        "persona": spec.params.get("persona", ""),
        "candidates": [{"id": it.id, "description": it.description} for it in items],
        "k": k,
    }
    return json.dumps(body, sort_keys=True).encode("utf-8")


# text that JSON escapes or that looks like the body's own structure
_WIRE_PIECES = [
    '"', "\\", "\x00", "\x1f", "\n", "\u2028", "\U0001f600", "é", "[]",
    '"candidates"', "}", '{"candidates": [', ", ", ": ",
]
_WIRE_TEXT = st.one_of(
    st.text(max_size=8),
    st.lists(st.one_of(st.sampled_from(_WIRE_PIECES), st.text(max_size=2)), max_size=4).map(
        "".join
    ),
)
_WIRE_ITEMS = st.lists(
    st.builds(lambda i, d: Item(id=i, provider_id="p", description=d),
              _WIRE_TEXT.filter(bool), _WIRE_TEXT),
    max_size=6,
)
_WIRE_REQUESTS = st.tuples(
    st.builds(Query, id=_WIRE_TEXT.filter(bool), text=_WIRE_TEXT),
    _WIRE_ITEMS,
    st.integers(1, 100),
    st.one_of(st.none(), _WIRE_TEXT),
)


class TestRequestBytes:
    """``build_request`` against the one-``json.dumps`` encoder, call after call."""

    @staticmethod
    def check(query, items, k, persona):
        spec = external_spec() if persona is None else external_spec(persona=persona)
        got = build_request(spec, query, items, k)
        assert got == _reference_build_request(spec, query, items, k)
        return got

    @settings(max_examples=300, deadline=None)
    @given(requests=st.lists(_WIRE_REQUESTS, min_size=1, max_size=4), repeat=st.booleans())
    def test_equals_reference_encoder(self, requests, repeat):
        for query, items, k, persona in requests + requests[-1:] * repeat:
            self.check(query, items, k, persona)

    def test_empty_item_list(self):
        assert self.check(QUERY, [], 1, None).startswith(b'{"candidates": [], "k": 1,')

    def test_one_id_with_two_descriptions(self):
        old = [Item(id="a", provider_id="p", description="old")]
        new = [Item(id="a", provider_id="p", description="new")]
        for items in (old, new, old):
            assert items[0].description.encode() in self.check(QUERY, items, 3, None)

    def test_item_list_changed_in_place(self):
        items = list(ITEMS)
        self.check(QUERY, items, 2, "px")
        items[1] = Item(id="b", provider_id="p", description="changed")
        assert b"changed" in self.check(QUERY, items, 2, "px")

    def test_candidates_encoded_once_while_items_repeat(self):
        items = [Item(id=f"i{n}", provider_id="p", description=f"d{n}") for n in range(5)]
        queries = [Query(id=qid, text="t") for qid in ("q1", "q2", "q3")]
        build_request(external_spec(), QUERY, ITEMS, 2)  # a different list before
        with mock.patch.object(adapter.json, "dumps", wraps=json.dumps) as dumps:
            bodies = [build_request(external_spec(), q, list(items), 4) for q in queries]
        # one header per request, and the candidate array once
        assert dumps.call_count == len(queries) + 1
        for query, body in zip(queries, bodies):
            assert body == _reference_build_request(external_spec(), query, items, 4)


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

    def test_deep_nesting_is_malformed(self):
        # the JSON decoder gives up with RecursionError, not ValueError
        with pytest.raises(AdapterMalformed, match="not valid JSON"):
            parse_response(b"[" * 100000, 5)

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


def _array_bytes(ids) -> bytes:
    candidates = [{"id": i, "description": f"about {i}"} for i in ids]
    return json.dumps(candidates, sort_keys=True).encode("utf-8")


def _assert_same_answer(request):
    """``mock_serve`` answers, or raises, as the reference does."""
    try:
        expected = _reference_mock_serve(request)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        with pytest.raises(type(exc)):
            mock_serve(request)
    else:
        assert mock_serve(request) == expected


class TestMockMemo:
    """A resent candidate array is answered from the mock's memo, as a full parse would."""

    A = ["a", "b", "c", "é", "d\x00"]
    B = ["x", "y"]

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(adapter, "_last_decoded", None)

    @settings(max_examples=200, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(st.booleans(), _candidate_ids(), st.text(max_size=6),
                      st.text(max_size=6), st.integers(1, 20)),
            min_size=1, max_size=6,
        )
    )
    def test_request_sequences_match_reference(self, steps):
        ids: list[str] = []
        for share, new_ids, query_id, persona, k in steps:
            if not share:
                ids = new_ids
            request = _mock_request(query_id, persona, ids, k)
            assert mock_serve(request) == _reference_mock_serve(request)

    def test_repeated_array_decoded_once(self):
        requests = [_mock_request(q, "px", self.A, 3) for q in ("q1", "q2", "q3")]
        with mock.patch.object(adapter, "_id_matrix", wraps=adapter._id_matrix) as build:
            for request in requests:
                assert mock_serve(request) == _reference_mock_serve(request)
        assert build.call_count == 1

    @pytest.mark.parametrize("memo_first", [False, True])
    def test_duplicate_candidates_key(self, memo_first):
        # json keeps the last duplicate; the memo must neither answer from the
        # first array nor remember the first array under the last one's ids
        duplicated = (
            b'{"candidates": ' + _array_bytes(self.A)
            + b', "candidates": ' + _array_bytes(self.B)
            + b', "k": 2, "persona": "px", "query_id": "q1", "query_text": "t"}'
        )
        plain = _mock_request("q2", "px", self.A, 4)
        for request in [plain, duplicated, plain] if memo_first else [duplicated, plain]:
            _assert_same_answer(request)

    def test_array_as_only_key(self):
        only = b'{"candidates": ' + _array_bytes(self.A) + b"}"
        for request in (only, _mock_request("q1", "px", self.A, 2), only):
            _assert_same_answer(request)

    def test_array_then_no_key(self):
        # ", }" after the array is not JSON, though "{" + "}" is
        _assert_same_answer(_mock_request("q1", "px", self.A, 2))
        _assert_same_answer(b'{"candidates": ' + _array_bytes(self.A) + b", }")

    def test_compact_separators_take_the_full_parse(self):
        body = {"query_id": "q1", "query_text": "t", "persona": "px", "k": 2,
                "candidates": [{"id": i, "description": "d"} for i in self.A]}
        compact = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
        for request in (_mock_request("q0", "px", self.A, 3), compact, compact):
            assert mock_serve(request) == _reference_mock_serve(request)

    @pytest.mark.parametrize("bad", [b"\xff", b"\xed\xa0\x80"], ids=["0xff", "surrogate"])
    def test_invalid_utf8_after_the_array(self, bad):
        _assert_same_answer(_mock_request("q1", "px", self.A, 2))
        request = (
            b'{"candidates": ' + _array_bytes(self.A)
            + b', "k": 2, "persona": "p' + bad + b'", "query_id": "q1", "query_text": "t"}'
        )
        with pytest.raises(UnicodeDecodeError):
            _reference_mock_serve(request)
        with pytest.raises(UnicodeDecodeError):
            mock_serve(request)

    def test_threads_alternating_two_arrays(self):
        requests = [
            [_mock_request(f"q{n}", "px", self.A if (n + t) % 2 else self.B, 3)
             for n in range(200)]
            for t in range(2)
        ]
        expected = [[_reference_mock_serve(r) for r in rs] for rs in requests]
        got: list[list[bytes]] = [[], []]

        def serve(t):
            for request in requests[t]:
                got[t].append(mock_serve(request))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=serve, args=(t,)) for t in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == expected


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


# a council with a mock:// agent, run in a fresh interpreter; prints the
# HTTP-stack modules loaded by the end and whether the external agent voted
_MOCK_COUNCIL = """
import json, sys
from agorank import dataio, orchestrator
from agorank.agents import AgentObjective, AgentSpec
from agorank.metrics import MetricId
from agorank.model import StakeholderRole

scenario = dataio.load_scenario("builtin:tourism")
remote = AgentSpec(
    agent_id="remote",
    role=StakeholderRole.THIRD_PARTY,
    objective=AgentObjective.EXTERNAL,
    objective_metric=MetricId.NDCG,
    objective_target=0.5,
    params={"endpoint": "mock://", "persona": "guide"},
)
outcomes, _ = orchestrator.run_stream(
    scenario.queries, scenario.agents + (remote,), scenario.catalog,
    scenario.policy, scenario.rule_config,
)
voted = all("remote" in {b.agent_id for b in o.per_agent_ballots} for o in outcomes)
loaded = [m for m in ("http.client", "urllib.request", "ssl", "email") if m in sys.modules]
print(json.dumps({"voted": voted, "loaded": loaded}))
"""


def test_mock_council_loads_no_http_stack():
    proc = subprocess.run(
        [sys.executable, "-c", _MOCK_COUNCIL], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"voted": True, "loaded": []}
