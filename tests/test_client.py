import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from tkgrag.client import (
    EndpointError,
    GenParams,
    MalformedResponseError,
    TransportError,
    generate,
    generate_batch,
    parse_predictions,
    rule_score_predict,
)
from tkgrag.kg import Quadruple
from tkgrag.prompts import Prompt
from tkgrag.retrieval import Provenance, Query, retrieve, queries_from_split
from tkgrag.rules import MiningParams, RuleBank, TemporalRule

from conftest import history_of, reference_rule_scores
from golden_fixture import golden_kg


class _StubServer(ThreadingHTTPServer):
    """Handler threads are joined by `server_close`, so none outlives its
    test; a client that hung up early (a "delay" past its timeout) is not
    reported, since its broken pipe is expected."""

    daemon_threads = False

    def handle_error(self, request, client_address):
        pass


class StubEndpoint:
    """Local HTTP endpoint with programmable failure behaviors.

    `script` maps request ordinal (per server, 0-based) to one of:
    ok | drop | delay | malformed | error-payload | http-500 | truncated
    (the "ok" response, cut off after 5 bytes of its body as the connection
    closes). Anything beyond the script acts as "ok". Every request payload
    is kept in `payloads`.
    An "ok" request gets `sequences`, or, with a `responder`, the sequences
    it returns for the request's payload; either is cut to the payload's
    `num_sequences`.
    """

    def __init__(self, script=(), sequences=("0.France]",), delay=1.0, hold=0.0,
                 responder=None):
        self.script = list(script)
        self.sequences = list(sequences)
        self.responder = responder
        self.delay = delay
        self.hold = hold
        self.attempts = 0
        self.active = 0
        self.peak_active = 0
        self.payloads = []
        self._lock = threading.Lock()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_POST(self):
                with stub._lock:
                    index = stub.attempts
                    stub.attempts += 1
                    stub.active += 1
                    stub.peak_active = max(stub.peak_active, stub.active)
                try:
                    behavior = stub.script[index] if index < len(stub.script) else "ok"
                    length = int(self.headers.get("Content-Length", 0))
                    payload = json.loads(self.rfile.read(length)) if length else {}
                    with stub._lock:
                        stub.payloads.append(payload)
                    if stub.hold:
                        time.sleep(stub.hold)
                    if behavior == "drop":
                        self.connection.close()
                        return
                    if behavior == "delay":
                        time.sleep(stub.delay)
                        behavior = "ok"
                    if behavior == "malformed":
                        body = b"this is not json{"
                        self.send_response(200)
                    elif behavior == "error-payload":
                        body = json.dumps({"error": "model exploded"}).encode()
                        self.send_response(200)
                    elif behavior == "http-500":
                        body = json.dumps({"error": "internal"}).encode()
                        self.send_response(500)
                    else:
                        n = payload.get("num_sequences", 1)
                        sequences = stub.responder(payload) if stub.responder else stub.sequences
                        body = json.dumps({"sequences": sequences[:n]}).encode()
                        self.send_response(200)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body[:5] if behavior == "truncated" else body)
                finally:
                    with stub._lock:
                        stub.active -= 1

        self.server = _StubServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    @property
    def url(self):
        host, port = self.server.server_address
        return f"http://{host}:{port}/"

    def close(self):
        """Stop serving and wait for every request in progress to end."""
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def fast_params():
    return GenParams(num_sequences=3, timeout=2.0, retries=2, backoff=0.01)


class TestGenerate:
    def test_round_trip(self, fast_params):
        stub = StubEndpoint(sequences=["0.France]", "1.Germany]", "2.Spain]"])
        try:
            got = generate("prompt text", fast_params, stub.url)
            assert got == ["0.France]", "1.Germany]", "2.Spain]"]
            assert stub.attempts == 1
        finally:
            stub.close()

    def test_sequence_order_and_truncation(self):
        stub = StubEndpoint(sequences=[f"{i}.x]" for i in range(10)])
        try:
            got = generate("p", GenParams(num_sequences=2, timeout=2.0, retries=0), stub.url)
            assert got == ["0.x]", "1.x]"]
        finally:
            stub.close()

    def test_drop_exhausts_retry_budget(self, fast_params):
        stub = StubEndpoint(script=["drop"] * 10)
        try:
            with pytest.raises(TransportError, match="3 attempts"):
                generate("p", fast_params, stub.url)
            assert stub.attempts == 1 + fast_params.retries
        finally:
            stub.close()

    def test_transient_drop_recovers(self, fast_params):
        stub = StubEndpoint(script=["drop", "ok"])
        try:
            assert generate("p", fast_params, stub.url) == ["0.France]"] * 1
            assert stub.attempts == 2
        finally:
            stub.close()

    def test_truncated_response_is_retried(self, fast_params):
        stub = StubEndpoint(script=["truncated", "ok"])
        try:
            assert generate("p", fast_params, stub.url) == ["0.France]"]
            assert stub.attempts == 2
        finally:
            stub.close()

    def test_truncated_responses_exhaust_retry_budget(self, fast_params):
        stub = StubEndpoint(script=["truncated"] * 10)
        try:
            with pytest.raises(TransportError, match="3 attempts.*IncompleteRead"):
                generate("p", fast_params, stub.url)
            assert stub.attempts == 1 + fast_params.retries
        finally:
            stub.close()

    def test_timeout_is_transport_error(self):
        stub = StubEndpoint(script=["delay"] * 3, delay=2.0)
        try:
            params = GenParams(timeout=0.2, retries=1, backoff=0.01)
            with pytest.raises(TransportError):
                generate("p", params, stub.url)
            assert stub.attempts == 2
        finally:
            stub.close()

    def test_malformed_response_fails_fast(self, fast_params):
        stub = StubEndpoint(script=["malformed"])
        try:
            with pytest.raises(MalformedResponseError):
                generate("p", fast_params, stub.url)
            assert stub.attempts == 1
        finally:
            stub.close()

    def test_error_payload_fails_fast(self, fast_params):
        stub = StubEndpoint(script=["error-payload"])
        try:
            with pytest.raises(EndpointError, match="model exploded"):
                generate("p", fast_params, stub.url)
            assert stub.attempts == 1
        finally:
            stub.close()

    def test_http_error_status(self, fast_params):
        stub = StubEndpoint(script=["http-500"])
        try:
            with pytest.raises(EndpointError):
                generate("p", fast_params, stub.url)
        finally:
            stub.close()

    def test_unreachable_endpoint(self):
        params = GenParams(timeout=0.5, retries=1, backoff=0.01)
        with pytest.raises(TransportError):
            generate("p", params, "http://127.0.0.1:9/")


class TestGenerateBatch:
    def test_bounded_concurrency_and_order(self):
        stub = StubEndpoint(hold=0.05, sequences=["a]"])
        try:
            params = GenParams(num_sequences=1, timeout=5.0, retries=0, in_flight=4)
            prompts = [f"prompt {i}" for i in range(24)]
            results = generate_batch(prompts, params, stub.url)
            assert results == [["a]"]] * 24
            assert stub.peak_active <= 4
            assert stub.attempts == 24
        finally:
            stub.close()

    def test_flaky_batch_never_deadlocks(self):
        # interleaved drops may or may not exhaust a request's budget; either
        # way the batch must terminate promptly with a classified outcome
        script = (["drop", "ok"] * 20)[:40]
        stub = StubEndpoint(script=script, sequences=["a]"])
        try:
            params = GenParams(num_sequences=1, timeout=1.0, retries=3,
                               backoff=0.01, in_flight=3)
            start = time.time()
            try:
                results = generate_batch([f"p{i}" for i in range(10)], params, stub.url)
                assert len(results) == 10
            except TransportError:
                pass
            assert time.time() - start < 30
        finally:
            stub.close()

    def test_empty_batch(self):
        assert generate_batch([], GenParams(), "http://unused/") == []

    @pytest.mark.parametrize("behavior, error", [
        ("error-payload", EndpointError),
        ("http-500", EndpointError),
        ("malformed", MalformedResponseError),
        ("drop", TransportError),
    ])
    def test_first_failure_stops_the_batch(self, behavior, error):
        """From the first failed request on, no further prompt is sent, even
        while an earlier prompt is still open: request 1 is slow, requests 2
        to n - 1 succeed and request n fails, so at most the in_flight - 1
        others already open reach the endpoint after it."""
        n, in_flight = 6, 3
        stub = StubEndpoint(script=["delay"] + ["ok"] * (n - 2) + [behavior] * 40,
                            delay=0.5, hold=0.02, sequences=["a]"])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, to bring out a race
        try:
            params = GenParams(num_sequences=1, timeout=5.0, retries=0, in_flight=in_flight)
            with pytest.raises(error):
                generate_batch([f"p{i}" for i in range(40)], params, stub.url)
            assert stub.attempts <= n - 1 + in_flight
        finally:
            sys.setswitchinterval(interval)
            stub.close()


def prompt_with_map(index_map, fmt="index"):
    return Prompt(text="irrelevant", index_map=index_map, query_prefix="", format=fmt)


class TestParsePredictions:
    # golden_kg entities: 0 Abdul, 1 France, 2 Germany, 3 "New Entity"

    def test_index_form_with_dedup(self):
        prompt = prompt_with_map({1: 0, 2: 1})
        got = parse_predictions(
            ["1.Germany]", "0.France]", "1.Germany]"], prompt, golden_kg()
        )
        assert got.ranked == (2, 1)
        assert got.n_skipped == 0

    def test_lexical_name_match(self):
        got = parse_predictions(["France]"], prompt_with_map({}, "lexical"), golden_kg())
        assert got.ranked == (1,)

    def test_unresolvable_index_skipped(self):
        got = parse_predictions(["7.Unknown]"], prompt_with_map({1: 0, 2: 1}), golden_kg())
        assert got.ranked == ()
        assert got.n_skipped == 1

    def test_bare_index(self):
        got = parse_predictions(["1"], prompt_with_map({1: 0, 2: 1}), golden_kg())
        assert got.ranked == (2,)

    def test_fresh_index_resolved_by_name(self):
        got = parse_predictions(["2.New_Entity]"], prompt_with_map({1: 0, 2: 1}), golden_kg())
        assert got.ranked == (3,)

    def test_name_wins_on_crosscheck_mismatch(self):
        got = parse_predictions(["1.France]"], prompt_with_map({1: 0, 2: 1}), golden_kg())
        assert got.ranked == (1,)

    def test_clipping_at_bracket_and_newline(self):
        prompt = prompt_with_map({1: 0, 2: 1})
        got = parse_predictions(["0.France] 1.Germany]", "1.Germany\nextra"], prompt, golden_kg())
        assert got.ranked == (1, 2)

    def test_space_normalization(self):
        got = parse_predictions(["New Entity]"], prompt_with_map({}, "lexical"), golden_kg())
        assert got.ranked == (3,)

    def test_cap_at_ten(self, synthetic_dataset):
        kg = synthetic_dataset.train
        completions = [f"e{i:02d}]" for i in range(15)]
        got = parse_predictions(completions, prompt_with_map({}, "lexical"), kg)
        assert len(got.ranked) == 10

    def test_idempotent_over_reserialized_output(self):
        prompt = prompt_with_map({1: 0, 2: 1})
        first = parse_predictions(["1.Germany]", "0.France]"], prompt, golden_kg())
        rendered = [
            f"{prompt.index_map[e]}.{golden_kg().entities[e]}]" for e in first.ranked
        ]
        second = parse_predictions(rendered, prompt, golden_kg())
        assert second.ranked == first.ranked

    def test_empty_and_garbage(self):
        got = parse_predictions(["", "]", "   ", "?!"], prompt_with_map({}), golden_kg())
        assert got.ranked == ()
        assert got.n_skipped == 4


def history_with(query, *facts_with_prov):
    """`conftest.history_of` over (fact, provenance) pairs."""
    return history_of(query, [f for f, _ in facts_with_prov], [p for _, p in facts_with_prov])


class TestRuleScorePredict:
    def bank(self):
        return RuleBank(
            {0: [TemporalRule(0, 1, 100, 90, 0.9)]}, MiningParams()
        )

    def test_single_head_fact(self):
        query = Query(0, 0, 5)
        history = history_with(query, (Quadruple(0, 0, 1, 3), Provenance(0)))
        assert rule_score_predict(history, self.bank()).ranked == (1,)

    def test_head_outranks_body(self):
        query = Query(0, 0, 9)
        history = history_with(
            query,
            (Quadruple(0, 0, 1, 3), Provenance(0)),
            (Quadruple(0, 1, 2, 8), Provenance(1, 1, 0.9)),
        )
        assert rule_score_predict(history, self.bank()).ranked == (1, 2)

    def test_recency_breaks_ties(self):
        query = Query(0, 0, 9)
        history = history_with(
            query,
            (Quadruple(0, 1, 1, 5), Provenance(1, 1, 0.9)),
            (Quadruple(0, 1, 2, 2), Provenance(1, 1, 0.9)),
        )
        assert rule_score_predict(history, self.bank()).ranked == (1, 2)

    def test_entity_id_is_final_tiebreak(self):
        query = Query(0, 0, 9)
        history = history_with(
            query,
            (Quadruple(0, 1, 2, 5), Provenance(1, 1, 0.9)),
            (Quadruple(0, 1, 1, 5), Provenance(1, 1, 0.9)),
        )
        assert rule_score_predict(history, self.bank()).ranked == (1, 2)

    def test_empty_history(self):
        query = Query(0, 0, 9)
        assert rule_score_predict(history_with(query), self.bank()).ranked == ()

    def test_matches_reference_on_synthetic(self, synthetic_dataset, synthetic_bank):
        kg = synthetic_dataset.union_kg()
        for query in queries_from_split(synthetic_dataset, "test")[:60]:
            history = retrieve(kg, synthetic_bank, query)
            got = rule_score_predict(history, synthetic_bank)
            assert list(got.ranked) == reference_rule_scores(history, synthetic_bank)


class TestGenParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenParams(num_sequences=0)
        with pytest.raises(ValueError):
            GenParams(retries=-1)
        with pytest.raises(ValueError):
            GenParams(in_flight=0)
        with pytest.raises(ValueError):
            GenParams(timeout=0)
