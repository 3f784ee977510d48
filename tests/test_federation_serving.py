"""Federated serving end to end: router + per-region workers.

Starts a real :class:`FederationSupervisor` over a two-region
federation — forked workers each holding one shard plus the border
index — and checks the two routing classes against a monolithic
planner: intra-region requests are proxied whole to the owning worker
(``meta.worker`` is the region id, no fan-out), cross-region requests
are stitched by the router (``meta.worker`` is ``-1``), and both give
exactly the monolithic answers.  Ends with a chaos kill + respawn and
a clean drain, like the CI federation smoke job.
"""

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro
from repro.core import TTLPlanner, build_index
from repro.core.batch import batch_plan
from repro.query import BatchQuery
from repro.datasets import QueryWorkload, load_dataset
from repro.federation import (
    build_federation,
    region_map_from_names,
)
from repro.federation.serve import FederationSupervisor
from repro.resilience import ResilienceConfig


def get(port, path):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=10
    ) as response:
        return response.status, json.loads(response.read())


def post(port, path, body):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    """A running two-region federation plus the monolithic oracle."""
    out = str(tmp_path_factory.mktemp("fed_serving"))
    graph = load_dataset("TwinCities")
    partition = region_map_from_names(graph)
    manifest = build_federation(graph, partition, out)
    sup = FederationSupervisor(
        graph,
        os.path.join(out, "federation.json"),
        heartbeat_interval_s=0.1,
    )
    port = sup.start()
    try:
        sup.wait_ready(timeout_s=60)
        mono = TTLPlanner(graph)
        mono.preprocess()
        yield {
            "sup": sup,
            "port": port,
            "graph": graph,
            "manifest": manifest,
            "mono": mono,
        }
    finally:
        sup.stop()


def split_queries(cluster, count=15):
    """Deterministic workload split into intra / cross pairs."""
    graph = cluster["graph"]
    manifest = cluster["manifest"]
    intra, cross = [], []
    for q in QueryWorkload(graph, seed=9).generate(60):
        same = manifest.stop_region(q.source) == manifest.stop_region(
            q.destination
        )
        bucket = intra if same else cross
        if len(bucket) < count:
            bucket.append(q)
    assert len(intra) == count and len(cross) == count
    return intra, cross


class TestFederatedServing:
    def test_healthz_reports_shards(self, cluster):
        status, body = get(cluster["port"], "/v1/healthz")
        assert status == 200
        data = body["data"]
        assert data["status"] == "ok"
        assert data["planner"] == "TTL-fed"
        assert data["federation"] is True
        assert data["ready"] is True
        assert data["epoch"] == cluster["manifest"].epoch
        assert data["regions"] == 2
        shards = data["shards"]
        assert [s["region"] for s in shards] == [0, 1]
        for shard in shards:
            assert shard["alive"]
            assert shard["pid"] > 0
            assert shard["stations"] > 0
            assert shard["borders"] > 0
            assert shard["labels"] > 0
            assert shard["port"] == cluster["sup"].worker_ports[
                shard["region"]
            ]

    def test_ready_endpoint(self, cluster):
        status, body = get(cluster["port"], "/v1/healthz/ready")
        assert status == 200
        assert body["data"]["ready"] is True

    def test_intra_is_proxied_and_exact(self, cluster):
        """Same-region queries hit the owning worker directly — one
        hop, no router stitching — and still match the monolith."""
        manifest = cluster["manifest"]
        mono = cluster["mono"]
        intra, _ = split_queries(cluster)
        for q in intra:
            status, body = get(
                cluster["port"],
                f"/v1/eap?from={q.source}&to={q.destination}"
                f"&t={q.t_start}",
            )
            assert status == 200
            assert body["meta"]["worker"] == manifest.stop_region(
                q.source
            )
            expected = mono.earliest_arrival(
                q.source, q.destination, q.t_start
            )
            journey = body["data"]["journey"]
            assert (journey is None) == (expected is None)
            if journey is not None:
                assert journey["arr"] == expected.arr

    def test_cross_is_stitched_and_exact(self, cluster):
        mono = cluster["mono"]
        _, cross = split_queries(cluster)
        for q in cross:
            status, body = get(
                cluster["port"],
                f"/v1/eap?from={q.source}&to={q.destination}"
                f"&t={q.t_start}",
            )
            assert status == 200
            assert body["meta"]["worker"] == -1
            expected = mono.earliest_arrival(
                q.source, q.destination, q.t_start
            )
            journey = body["data"]["journey"]
            assert (journey is None) == (expected is None)
            if journey is not None:
                assert journey["arr"] == expected.arr

            status, body = get(
                cluster["port"],
                f"/v1/ldp?from={q.source}&to={q.destination}"
                f"&t={q.t_end}",
            )
            expected = mono.latest_departure(
                q.source, q.destination, q.t_end
            )
            journey = body["data"]["journey"]
            assert (journey is None) == (expected is None)
            if journey is not None:
                assert journey["dep"] == expected.dep

    def test_cross_profile_and_sdp(self, cluster):
        mono = cluster["mono"]
        _, cross = split_queries(cluster, count=6)
        for q in cross:
            status, body = get(
                cluster["port"],
                f"/v1/profile?from={q.source}&to={q.destination}"
                f"&t={q.t_start}&t_end={q.t_end}",
            )
            assert status == 200
            expected = mono.profile(
                q.source, q.destination, q.t_start, q.t_end
            )
            assert body["data"]["pairs"] == [list(p) for p in expected]

            status, body = get(
                cluster["port"],
                f"/v1/sdp?from={q.source}&to={q.destination}"
                f"&t={q.t_start}&t_end={q.t_end}",
            )
            expected = mono.shortest_duration(
                q.source, q.destination, q.t_start, q.t_end
            )
            journey = body["data"]["journey"]
            assert (journey is None) == (expected is None)
            if journey is not None:
                duration = journey["arr"] - journey["dep"]
                assert duration == expected.arr - expected.dep

    def test_batch_matches_monolith(self, cluster):
        graph = cluster["graph"]
        index = build_index(graph)
        targets = list(range(graph.n))
        t = 30000
        status, body = post(
            cluster["port"],
            "/v1/batch",
            {
                "kind": "one_to_many",
                "source": 0,
                "targets": targets,
                "t": t,
            },
        )
        assert status == 200
        [monolith] = batch_plan(
            index,
            [
                BatchQuery(
                    kind="one_to_many",
                    sources=(0,),
                    targets=tuple(targets),
                    t=t,
                )
            ],
        )
        expected = {str(k): v for k, v in monolith.items()}
        assert body["data"]["arrivals"] == expected

        status, body = post(
            cluster["port"],
            "/v1/batch",
            {"kind": "isochrone", "source": 0, "t": t, "budget": 3600},
        )
        assert status == 200
        [ring] = batch_plan(
            index,
            [BatchQuery(kind="isochrone", sources=(0,), t=t, budget=3600)],
        )
        assert body["data"]["stations"] == ring

    def test_router_metrics_count_both_paths(self, cluster):
        status, body = get(cluster["port"], "/v1/metrics")
        assert status == 200
        router = body["data"]["federation"]["router"]
        assert router["intra_proxied"] > 0
        assert router["cross_stitched"] > 0
        assert router["batch_requests"] >= 2
        assert router["subrequests"] > 0

    def test_kill_respawn_requery(self, cluster):
        """A dead region worker comes back on the same port and
        answers again — the chaos drill the smoke job runs."""
        sup = cluster["sup"]
        port_before = sup.worker_ports[0]
        old_pid = sup.kill_worker(0)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            pids = sup.worker_pids()
            if pids.get(0) not in (None, old_pid):
                break
            time.sleep(0.05)
        sup.wait_ready(timeout_s=30)
        assert sup.worker_ports[0] == port_before
        stops = cluster["manifest"].region_entry(0).stops
        u, v = stops[0], stops[-1]
        status, body = get(
            cluster["port"], f"/v1/eap?from={u}&to={v}&t=0"
        )
        assert status == 200
        assert body["meta"]["worker"] == 0

    def test_drain_is_clean(self, cluster):
        # Runs last: drains the cluster; the fixture's stop() is then
        # a no-op on already-exited workers.
        assert cluster["sup"].drain(grace_s=10)


@pytest.fixture(scope="module")
def strict_router(cluster):
    """The same shards behind a second router with tight request caps."""
    sup = FederationSupervisor(
        cluster["graph"],
        cluster["sup"].manifest_path,
        resilience=ResilienceConfig(max_body_bytes=1024, max_batch_pairs=8),
        heartbeat_interval_s=0.1,
    )
    port = sup.start()
    try:
        sup.wait_ready(timeout_s=60)
        yield port
    finally:
        sup.stop()


def raw_request(port, method, path, body=None, headers=None):
    """One request with exactly the given headers; a short timeout
    turns a router that never answers into a failure."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=3)
    try:
        conn.putrequest(method, path)
        headers = dict(headers or {})
        if body is not None:
            headers.setdefault("Content-Length", str(len(body)))
        for key, value in headers.items():
            conn.putheader(key, value)
        conn.endheaders(body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


OVER_CAP_BATCH = json.dumps(
    {"kind": "one_to_many", "source": 0, "targets": list(range(9)), "t": 0}
).encode()


@pytest.mark.parametrize(
    "method, path, body, headers, status, field",
    [
        pytest.param(
            "POST", "/v1/batch", b"x" * 4096, None, 413, None,
            id="body-over-cap",
        ),
        pytest.param(
            "POST", "/v1/batch", None, {"Content-Length": "-1"}, 400,
            "Content-Length", id="negative-content-length",
        ),
        pytest.param(
            "POST", "/v1/batch", b"{not json", None, 400, None,
            id="malformed-json",
        ),
        pytest.param(
            "GET", "/v1/nowhere", None, None, 404, None, id="unknown-path"
        ),
        pytest.param("PUT", "/v1/eap", b"", None, 501, None, id="put"),
        pytest.param(
            "POST", "/v1/batch", OVER_CAP_BATCH, None, 400, "targets",
            id="batch-over-pair-cap",
        ),
    ],
)
def test_router_error_contract(
    strict_router, method, path, body, headers, status, field
):
    """The router answers errors exactly as a worker does: the
    worker's status, in the {"error", "field", "hint"} shape."""
    got, payload = raw_request(strict_router, method, path, body, headers)
    assert got == status
    assert set(payload) == {"error", "field", "hint"}
    assert payload["field"] == field
    if field == "targets":
        assert "max_batch_pairs" in payload["hint"]


def test_cli_serve_federation_applies_chaos_plan(cluster, tmp_path):
    """``serve --federation DIR --chaos PLAN`` hands the fault plan to
    the region workers: the first query each worker plans fails with
    the injected 500, the next one answers."""
    plan = tmp_path / "plan.json"
    plan.write_text(
        json.dumps(
            {
                "seed": 3,
                "rules": [
                    {"site": "planner.query", "kind": "error", "times": 1}
                ],
            }
        )
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro.cli", "serve", "TwinCities",
            "--federation", os.path.dirname(cluster["sup"].manifest_path),
            "--chaos", str(plan), "--port", "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        start_new_session=True,
    )

    def kill_group():
        """SIGKILL the CLI and any region worker it left behind."""
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(120, kill_group)
    watchdog.start()
    try:
        banner = []
        port = None
        for line in proc.stdout:
            banner.append(line)
            match = re.search(r"federation on http://[\d.]+:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
        assert port is not None, "".join(banner)
        assert "chaos plan active: 1 rules, seed 3\n" in banner

        stops = cluster["manifest"].region_entry(0).stops
        query = f"/v1/eap?from={stops[0]}&to={stops[-1]}&t=0"
        with pytest.raises(urllib.error.HTTPError) as failed:
            get(port, query)
        assert failed.value.code == 500
        assert "injected fault" in json.loads(failed.value.read())["error"]
        status, body = get(port, query)
        assert status == 200 and body["meta"]["worker"] == 0

        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
        assert "drained" in proc.stdout.read()
    finally:
        watchdog.cancel()
        kill_group()
        proc.wait(timeout=30)
        proc.stdout.close()
