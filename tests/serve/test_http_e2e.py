"""End-to-end: the HTTP daemon, the client, and cross-client coalescing.

Boots a real :class:`ServeHTTPServer` on an ephemeral port, talks to it
through :class:`repro.client.ServeClient`, and pins the acceptance
criterion: two clients submitting the same rob-scaling sweep concurrently
share one set of simulations — the engine stats of one job show
``simulations_run == 0``.
"""

from __future__ import annotations

import http.client
import threading
import time

import pytest

from repro.client import ServeClient, ServeError
from repro.engine.store import ArtifactStore
from repro.serve import make_server, serve_until_shutdown
from repro.serve.service import ExperimentService

#: One cached-after-first-run cell, for the long-poll tests.
ONE_CELL = {"cells": [{"benchmark": "gzip", "scheme": "conventional"}], "instructions": 1500}

#: Small but real: rob-scaling at 2000 instructions is 24 simulations
#: (4 rob sizes x 2 schemes x 3 benchmarks) over 3 builds/traces.
ROB_SCALING = {"scenario": "rob-scaling", "instructions": 2000}


@pytest.fixture
def server(tmp_path):
    store = ArtifactStore(str(tmp_path / "cache"))
    service = ExperimentService(store, jobs=1, workers=2, default_instructions=2000)
    server = make_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(
        target=serve_until_shutdown, args=(server, False), daemon=True
    )
    thread.start()
    yield server
    server.shutdown()
    thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.fixture
def client(server):
    port = server.server_address[1]
    return ServeClient(f"http://127.0.0.1:{port}", timeout=120)


class TestAPI:
    def test_health(self, client):
        payload = client.health()
        assert payload["status"] == "ok"
        assert payload["version"] == "v1"
        assert payload["workers_lost"] == 0
        assert payload["jobs_timed_out"] == 0
        assert payload["quarantined"] == {"count": 0, "bytes": 0}
        assert payload["recovered_jobs"] == 0

    def test_unknown_routes_are_404(self, client):
        for path in ("/v1/nope", "/v2/jobs", "/v1/jobs/nope"):
            with pytest.raises(ServeError) as excinfo:
                client._request(path)
            assert excinfo.value.status == 404

    def test_invalid_submission_is_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.submit({"cells": [{"benchmark": "no-such-workload"}]})
        assert excinfo.value.status == 400
        assert "unknown workload" in excinfo.value.message

    def test_result_before_completion_is_409(self, client):
        job = client.submit(ROB_SCALING)
        try:
            client.result(job["id"])
        except ServeError as error:
            assert error.status == 409
        # else: the job finished before we asked — also a valid outcome.
        client.wait(job["id"], timeout=120)

    def test_cells_job_lifecycle(self, client):
        job = client.submit(
            {
                "cells": [
                    {"benchmark": "gzip", "scheme": "conventional"},
                    {"benchmark": "gzip", "scheme": "predicate"},
                ],
                "instructions": 1500,
            }
        )
        assert job["state"] in ("queued", "running")
        done = client.wait(job["id"], timeout=120)
        assert done["state"] == "done", done["error"]
        assert done["planned"] == {"builds": 1, "traces": 1, "simulations": 2}
        assert done["stats"]["simulations_run"] == 2

        table = client.result(job["id"])
        assert "gzip" in table and "IPC" in table

        raw = client.result(job["id"], format="json")
        assert raw["id"] == job["id"]
        assert len(raw["cells"]) == 2
        for row in raw["cells"]:
            assert row["instructions"] == 1500
            assert row["ipc"] > 0

        listed = client.jobs()
        assert job["id"] in {entry["id"] for entry in listed}

    def test_store_stats_endpoint(self, client):
        job = client.submit(
            {"cells": [{"benchmark": "gzip"}], "instructions": 1500}
        )
        client.wait(job["id"], timeout=120)
        stats = client.store_stats()
        assert stats["kinds"]["total"]["count"] >= 3  # binary + trace + result
        assert stats["max_store_bytes"] is None
        assert stats["evicted"] == {"count": 0, "bytes": 0}


class TestCoalescing:
    def test_concurrent_duplicate_sweeps_share_one_simulation_set(self, client):
        # The acceptance criterion, over the wire: submit the same
        # rob-scaling sweep twice back-to-back (two scheduler workers, so
        # they race), and the engine stats must show that only one job ran
        # simulations while the other was served via coalescing + store.
        first = client.submit(ROB_SCALING)
        second = client.submit(ROB_SCALING)
        a = client.wait(first["id"], timeout=300)
        b = client.wait(second["id"], timeout=300)
        assert a["state"] == "done", a["error"]
        assert b["state"] == "done", b["error"]

        planned = a["planned"]["simulations"]
        assert planned == 24
        runs = sorted([a["stats"]["simulations_run"], b["stats"]["simulations_run"]])
        assert runs[0] == 0  # the coalesced job ran nothing new
        assert sum(runs) == planned  # and nothing was simulated twice
        coalesced = a["coalesced_keys"] + b["coalesced_keys"]
        assert coalesced == planned

        # Both clients get the same rendered sweep (the trailing "engine:"
        # accounting line legitimately differs: one ran, one loaded).
        def body(report):
            return [line for line in report.splitlines() if not line.startswith("engine:")]

        table_a = client.result(first["id"])
        table_b = client.result(second["id"])
        assert "rob-scaling" in table_a
        assert body(table_a) == body(table_b)


@pytest.fixture
def gate(client, monkeypatch):
    """Warm the store with ``ONE_CELL``, then hold every later job at its
    start until the returned event is set (the run itself is a cache hit)."""
    import repro.serve.service as service_mod

    warm = client.wait(client.submit(ONE_CELL)["id"], timeout=120)
    assert warm["state"] == "done", warm["error"]
    release = threading.Event()
    real_run_cells = service_mod.run_cells

    def gated_run_cells(*args, **kwargs):
        assert release.wait(60), "gate never released"
        return real_run_cells(*args, **kwargs)

    monkeypatch.setattr(service_mod, "run_cells", gated_run_cells)
    yield release
    release.set()


class TestLongPoll:
    def test_returns_promptly_when_the_job_finishes(self, client, gate):
        job = client.submit(ONE_CELL)
        box = {}

        def poll():
            box["snapshot"] = client._request(f"/v1/jobs/{job['id']}?wait=30")
            box["at"] = time.monotonic()

        thread = threading.Thread(target=poll)
        thread.start()
        time.sleep(0.3)
        assert thread.is_alive()  # blocked on the unfinished job
        released = time.monotonic()
        gate.set()
        thread.join(30)
        assert not thread.is_alive()
        assert box["snapshot"]["state"] == "done"
        assert box["at"] - released < 5.0  # well before the 10 s server cap

    def test_returns_the_unfinished_snapshot_after_wait(self, client, gate):
        job = client.submit(ONE_CELL)
        started = time.monotonic()
        snapshot = client._request(f"/v1/jobs/{job['id']}?wait=0.3")
        assert time.monotonic() - started >= 0.3
        assert snapshot["state"] in ("queued", "running")

    def test_unknown_id_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._request("/v1/jobs/nope?wait=5")
        assert excinfo.value.status == 404

    @pytest.mark.parametrize("wait", ["-1", "soon", "nan", ""])
    def test_bad_wait_is_400(self, client, wait):
        job = client.submit(ONE_CELL)
        with pytest.raises(ServeError) as excinfo:
            client._request(f"/v1/jobs/{job['id']}?wait={wait}")
        assert excinfo.value.status == 400
        assert "wait" in excinfo.value.message
        client.wait(job["id"], timeout=120)

    def test_client_wait_on_a_finished_job_is_one_request(self, client):
        job_id = client.submit(ONE_CELL)["id"]
        client.wait(job_id, timeout=120)

        class CountingClient(ServeClient):
            requests = 0

            def _request(self, path, payload=None):
                self.requests += 1
                return super()._request(path, payload)

        counting = CountingClient(client.base_url, timeout=30)
        assert counting.wait(job_id, timeout=30)["state"] == "done"
        assert counting.requests == 1

    def test_wait_works_with_a_one_argument_job_override(self, client):
        class PollCountingClient(ServeClient):
            polls = 0

            def job(self, job_id):
                self.polls += 1
                return super().job(job_id)

        counting = PollCountingClient(client.base_url, timeout=30)
        job = counting.submit(ONE_CELL)
        assert counting.wait(job["id"], timeout=120)["state"] == "done"
        assert counting.job(job["id"])["state"] == "done"


class TestKeepAlive:
    def test_requests_on_one_connection_do_not_stall(self, server):
        # Nagle plus delayed ACK used to hold each response ~40 ms.
        connection = http.client.HTTPConnection("127.0.0.1", server.server_address[1])
        try:
            started = time.monotonic()
            for _ in range(20):
                connection.request("GET", "/v1/jobs")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
            elapsed = time.monotonic() - started
        finally:
            connection.close()
        assert elapsed < 0.4  # 20 x 40 ms would be 0.8 s
