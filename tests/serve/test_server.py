"""Cache-correctness suite for the served simulate/compile/explore paths.

The acceptance bar from the issue, verified over real HTTP traffic:

* a served ``simulate`` response is bit-identical to a direct
  :func:`~repro.harness.experiments.run_workload` call (counters AND
  outputs digest);
* a second identical request is a ``hit`` that performs zero
  simulations;
* N concurrent duplicate requests simulate exactly once (single-flight).
"""

import json
import socket
import threading

import pytest

from repro.compiler.pipeline import placement_memo
from repro.explore.runner import run_campaign
from repro.explore.spec import CampaignSpec
from repro.harness.experiments import run_workload
from repro.serve.app import MAX_BODY_BYTES
from repro.serve.client import LocalServer

BODY = {"workload": "matrixMul", "variant": "dmt", "params": {"dim": 8}}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    store = tmp_path_factory.mktemp("serve-store")
    with LocalServer(store_dir=store) as live:
        yield live


def _simulations(server):
    return server.service.metrics.counter("serve.simulations")


def test_healthz(server):
    status, payload = server.request("GET", "/healthz")
    assert status == 200 and payload["status"] == "ok"


def test_served_response_is_bit_identical_to_direct_run(server):
    status, payload = server.request("POST", "/v1/simulate", BODY)
    assert status == 200 and payload["status"] == "ok"
    served = payload["record"]["result"]

    direct = run_workload("matrixMul", "dmt", params={"dim": 8}, seed=0, engine="auto").to_record()
    assert served["counters"] == direct["counters"]
    assert served["outputs_digest"] == direct["outputs_digest"]
    assert served["cycles"] == direct["cycles"]
    assert served["energy_pj"] == direct["energy_pj"]
    assert served["energy"] == direct["energy"]


def test_second_identical_request_is_a_hit_with_zero_simulations(server):
    _, first = server.request("POST", "/v1/simulate", BODY)
    before = _simulations(server)
    status, second = server.request("POST", "/v1/simulate", BODY)
    assert status == 200 and second["cache"] == "hit"
    assert _simulations(server) == before  # no new simulation ran
    assert second["record"] == first["record"]
    assert second["key"] == first["key"]


def test_concurrent_duplicate_requests_simulate_once(server):
    body = {**BODY, "seed": 7}  # fresh key, guaranteed cold
    before = _simulations(server)
    fan_out = 4
    barrier = threading.Barrier(fan_out)
    responses = []
    lock = threading.Lock()

    def fire():
        barrier.wait()
        response = server.request("POST", "/v1/simulate", body)
        with lock:
            responses.append(response)

    threads = [threading.Thread(target=fire) for _ in range(fan_out)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)

    assert len(responses) == fan_out
    assert all(status == 200 for status, _ in responses)
    assert _simulations(server) == before + 1  # single flight: one simulation
    caches = [payload["cache"] for _, payload in responses]
    assert caches.count("miss") == 1
    assert set(caches) <= {"miss", "coalesced", "hit"}
    records = [payload["record"] for _, payload in responses]
    assert all(record == records[0] for record in records)


def test_served_requests_share_the_explore_key_space(server):
    spec_dict = {
        "name": "served",
        "workloads": ["convolution"],
        "variants": ["dmt"],
        "params": {"convolution": {"n": 64}},
        "sweep": {"grid": {"token_buffer.entries": [8, 16]}},
    }
    status, cold = server.request("POST", "/v1/explore", spec_dict)
    assert status == 200
    assert cold["points"] == 2 and cold["misses"] == 2 and cold["errors"] == 0

    before = _simulations(server)
    status, warm = server.request("POST", "/v1/explore", spec_dict)
    assert status == 200 and warm["hits"] == 2 and warm["misses"] == 0
    assert _simulations(server) == before

    # A /v1/simulate request for one of the campaign's points is a hit:
    # server and campaign runner address the same store by the same keys.
    status, payload = server.request(
        "POST",
        "/v1/simulate",
        {
            "workload": "convolution",
            "variant": "dmt",
            "params": {"n": 64},
            "overrides": {"token_buffer.entries": 8},
        },
    )
    assert status == 200 and payload["cache"] == "hit"
    assert _simulations(server) == before

    # And the offline campaign runner reads the server-written records.
    offline = run_campaign(
        CampaignSpec.from_dict(spec_dict), jobs=1, cache_dir=server.service.store.root
    )
    assert offline.hits == 2 and offline.misses == 0


def test_characterization_table_aggregates_cached_records(server):
    status, payload = server.request(
        "POST",
        "/v1/simulate",
        {
            "workload": "convolution",
            "variant": "dmt",
            "params": {"n": 64},
            "overrides": {"token_buffer.entries": 16},
        },
    )
    assert status == 200
    digest = payload["kernel_digest"]

    status, table = server.request("GET", f"/v1/kernels/{digest}/characterization")
    assert status == 200
    assert table["workload"] == "convolution" and table["variant"] == "dmt"
    assert len(table["rows"]) >= 2  # both sweep configs of the campaign
    config_digests = {row["config_digest"] for row in table["rows"]}
    assert len(config_digests) >= 2
    for row in table["rows"]:
        assert isinstance(row["cycles"], int) and row["cycles"] > 0
        assert row["energy_pj"] > 0
        assert row["outputs_digest"]

    status, index = server.request("GET", "/v1/kernels")
    assert status == 200
    assert digest in {kernel["kernel_digest"] for kernel in index["kernels"]}


def test_characterization_unknown_digest_is_404(server):
    status, payload = server.request("GET", f"/v1/kernels/{'0' * 64}/characterization")
    assert status == 404 and "no cached records" in payload["error"]


def test_compile_endpoint_memoises_in_the_kernel_lru(server):
    body = {"workload": "matrixMul", "variant": "dmt"}
    status, cold = server.request("POST", "/v1/compile", body)
    assert status == 200 and cold["cache"] in {"miss", "hit"}
    assert cold["kernel"]["nodes"] > 0 and cold["kernel"]["num_threads"] > 0
    assert cold["analysis"]["engine"]
    assert isinstance(cold["analysis"]["diagnostics"], list)

    before = server.service.metrics.counter("serve.compiles")
    status, warm = server.request("POST", "/v1/compile", body)
    assert status == 200 and warm["cache"] == "hit"
    assert server.service.metrics.counter("serve.compiles") == before
    assert warm["analysis"] == cold["analysis"]
    assert warm["kernel"] == cold["kernel"]
    assert server.service.kernels.stats()["hits"] >= 1


def test_failing_point_yields_a_cached_error_record(server):
    # A legal point that fails at build time: convolution's windowed
    # graph rejects this size only when it is built.
    body = {"workload": "convolution", "variant": "dmt_win", "params": {"n": 10}}
    status, first = server.request("POST", "/v1/simulate", body)
    assert status == 200 and first["status"] == "error"
    assert "WorkloadError" in first["record"]["error"]

    before = _simulations(server)
    status, second = server.request("POST", "/v1/simulate", body)
    assert second["cache"] == "hit" and _simulations(server) == before


def test_a_variant_the_workload_does_not_build_is_400_before_any_work(server):
    records = len(server.service.store)
    simulations = _simulations(server)
    compiles = server.service.metrics.counter("serve.compiles")
    bpnn = {"workload": "bpnn", "variant": "dmt_win"}  # bpnn has no dmt_win build
    for path in ("/v1/simulate", "/v1/compile"):
        status, payload = server.request("POST", path, bpnn)
        assert status == 400 and "'bpnn' has no variant 'dmt_win'" in payload["error"]
    spec = {"name": "bad", "workloads": ["scan"], "variants": ["dmt_win"]}
    status, payload = server.request("POST", "/v1/explore", spec)
    assert status == 400 and "'scan' has no variant 'dmt_win'" in payload["error"]
    assert len(server.service.store) == records
    assert _simulations(server) == simulations
    assert server.service.metrics.counter("serve.compiles") == compiles


def test_a_campaign_with_an_empty_axis_is_400(server):
    records = len(server.service.store)
    for axis in ("variants", "engines", "seeds"):
        spec = {"name": "empty", "workloads": ["matrixMul"], axis: []}
        status, payload = server.request("POST", "/v1/explore", spec)
        assert status == 400 and f"lists no {axis}" in payload["error"]
    assert len(server.service.store) == records


def test_stats_reports_counters_and_hit_ratio(server):
    status, stats = server.request("GET", "/v1/stats")
    assert status == 200
    cache = stats["cache"]
    assert cache["lookups"] == cache["hits"] + cache["misses"] + cache["coalesced"]
    assert 0.0 < cache["hit_ratio"] < 1.0
    assert stats["simulations"] >= 1
    assert stats["store"]["records"] >= 1
    assert stats["inflight"] == 0
    assert stats["kernel_lru"]["size"] >= 1


def test_core_count_sweep_places_the_kernel_once(server):
    placement_memo.cache_clear()
    body = {**BODY, "seed": 11}  # fresh keys, guaranteed cold
    _, two = server.request("POST", "/v1/simulate", {**body, "config": {"cores": 2}})
    _, four = server.request("POST", "/v1/simulate", {**body, "config": {"cores": 4}})
    assert two["cache"] == four["cache"] == "miss"
    assert two["record"]["result"]["outputs_digest"] == four["record"]["result"]["outputs_digest"]

    status, stats = server.request("GET", "/v1/stats")
    assert status == 200
    placements = stats["placements"]
    assert (placements["misses"], placements["hits"]) == (1, 1)
    assert placements["size"] == 1
    assert placements["capacity"] >= 1


def test_http_error_paths(server):
    status, payload = server.request("GET", "/v1/nope")
    assert status == 404

    status, payload = server.request("POST", "/healthz", {})
    assert status == 405

    status, payload = server.request("POST", "/v1/simulate", {"workload": "noSuch"})
    assert status == 400 and "noSuch" in payload["error"]

    for dim in ("x", None, -3, True):
        body = {"workload": "matrixMul", "variant": "fermi", "params": {"dim": dim}}
        status, payload = server.request("POST", "/v1/simulate", body)
        assert status == 400 and "'dim'" in payload["error"]

    status, payload = server.request("POST", "/v1/explore", {"bogus": True})
    assert status == 400


def test_malformed_json_body_is_400(server):
    import http.client

    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        connection.request(
            "POST",
            "/v1/simulate",
            body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        assert response.status == 400
        assert b"not valid JSON" in response.read()
    finally:
        connection.close()


def _raw_reply(server, request: bytes) -> tuple[int, dict]:
    """Send ``request`` bytes as they are; read the reply until the server closes."""
    with socket.create_connection((server.host, server.port), timeout=30) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


@pytest.mark.parametrize(
    ("request_bytes", "status", "message"),
    [
        (b"NOT-HTTP\r\n\r\n", 400, "malformed request line"),
        (b"POST /v1/simulate HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 400, "Content-Length"),
        # Only the header: the server must refuse before reading a body.
        (
            b"POST /v1/simulate HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1),
            413,
            "too large",
        ),
    ],
    ids=["request-line", "content-length", "oversized-body"],
)
def test_http_framing_errors(server, request_bytes, status, message):
    got, payload = _raw_reply(server, request_bytes)
    assert got == status and message in payload["error"]
