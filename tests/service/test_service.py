"""The analysis daemon: lifecycle, fingerprint dedup, ECO diffs, crashes.

Most tests run the server with ``num_workers=0`` (a single in-process
thread), which keeps them fast and lets them prove the strongest dedup
property directly: a fingerprint hit never reaches the compute path at all.
The crash test boots a real 2-process spawn pool and kills a worker with the
fault-injection machinery from :mod:`repro.faults`.
"""

import json
import os
import socket
import threading

import pytest

from repro import faults
from repro.api import SCHEMA_VERSION, AnalysisConfig
from repro.sna import ExtractionConfig, SyntheticChip
from repro.experiments import figure1_cluster
from repro.service import (
    AnalysisServer,
    ServiceClient,
    ServiceError,
    cluster_fingerprint,
    start_server_in_thread,
    technology_library_fingerprint,
)
from repro.service.protocol import PROTOCOL_VERSION, dump_message

CONFIG = AnalysisConfig(methods=("macromodel",), vccs_grid=5, check_nrc=False, dt=4e-12)


def cluster(length_um=200.0):
    return figure1_cluster(length_um=length_um, num_segments=3)


def stripped(report):
    """A cluster report's wire payload with the merge-time provenance cleared."""
    payload = report.to_json()
    payload["payload"]["fields"]["provenance"] = ""
    return json.dumps(payload, sort_keys=True)


@pytest.fixture()
def service():
    handle = start_server_in_thread(config=CONFIG, num_workers=0)
    client = ServiceClient(handle.address)
    try:
        yield handle.server, client
    finally:
        client.close()
        handle.stop()


# ---------------------------------------------------------------------------
# Fingerprints


class TestFingerprint:
    def test_deterministic(self):
        lib_fp = technology_library_fingerprint("cmos130")
        a = cluster_fingerprint(cluster(), CONFIG, library_fingerprint=lib_fp)
        b = cluster_fingerprint(cluster(), CONFIG, library_fingerprint=lib_fp)
        assert a == b
        assert len(a) == 64  # sha256 hex

    def test_spec_config_and_library_all_matter(self):
        lib_fp = technology_library_fingerprint("cmos130")
        base = cluster_fingerprint(cluster(), CONFIG, library_fingerprint=lib_fp)
        assert (
            cluster_fingerprint(cluster(300.0), CONFIG, library_fingerprint=lib_fp)
            != base
        )
        assert (
            cluster_fingerprint(
                cluster(), CONFIG.replace(vccs_grid=7), library_fingerprint=lib_fp
            )
            != base
        )
        other_lib = technology_library_fingerprint("cmos90")
        assert other_lib != lib_fp
        assert (
            cluster_fingerprint(cluster(), CONFIG, library_fingerprint=other_lib)
            != base
        )

    def test_execution_only_fields_are_ignored(self):
        """Where a job runs must not change what it is."""
        lib_fp = technology_library_fingerprint("cmos130")
        base = cluster_fingerprint(cluster(), CONFIG, library_fingerprint=lib_fp)
        moved = CONFIG.replace(max_workers=8, cache_dir="/tmp/elsewhere")
        assert cluster_fingerprint(cluster(), moved, library_fingerprint=lib_fp) == base


# ---------------------------------------------------------------------------
# Lifecycle


def greeting_server(hello):
    """A one-connection stub server that sends ``hello`` and waits for close."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        connection, _ = listener.accept()
        with connection:
            connection.sendall(dump_message(hello))
            connection.recv(1)  # returns b"" once the client hangs up
        listener.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener.getsockname(), thread


class TestLifecycle:
    def test_hello_ping_status_submit_shutdown(self, service):
        server, client = service
        assert client.hello["server_version"]
        assert client.hello["schema_version"] == SCHEMA_VERSION
        client.ping()

        status = client.status()
        assert status["num_workers"] == 0
        assert status["jobs"] == {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "active": 0,
            "lost": 0,
        }
        assert status["queue_depth"] == 0
        assert status["in_flight"] == 0
        assert status["uptime_seconds"] >= 0.0
        assert "worker_crashes" in status["health"]

        events = []
        result = client.submit_design(
            [("c200", cluster(200.0)), ("c300", cluster(300.0))],
            design_name="lifecycle",
            on_progress=events.append,
        )
        assert sorted(result.recomputed) == ["c200", "c300"]
        assert result.reused == [] and result.failed == []
        assert len(result.report) == 2
        assert result.report.design_name == "lifecycle"
        assert all(r.provenance == "recomputed" for r in result.report)
        assert result.report.cluster("c200").primary.peak != 0.0

        assert len(events) == 2
        assert {e["label"] for e in events} == {"c200", "c300"}
        assert all(e["total"] == 2 for e in events)
        assert [e["completed"] for e in sorted(events, key=lambda e: e["completed"])] == [1, 2]

        status = client.status()
        assert status["jobs"]["submitted"] == 1
        assert status["jobs"]["completed"] == 1
        assert status["jobs"]["lost"] == 0

        # A client-requested shutdown is acknowledged before the server exits
        # its run loop; the fixture's handle.stop() then joins the thread.
        client.shutdown()

    def test_bad_jobs_fail_loudly_and_server_survives(self, service):
        _, client = service
        with pytest.raises(ServiceError, match="non-empty list"):
            client.submit_design([])
        with pytest.raises(ServiceError, match="duplicate cluster label"):
            client.submit_design([("same", cluster()), ("same", cluster(300.0))])
        client.ping()  # the connection and the daemon both survive
        status = client.status()
        assert status["jobs"]["failed"] == 2
        assert status["jobs"]["lost"] == 0

    def test_unix_socket_endpoint(self, tmp_path):
        handle = start_server_in_thread(
            config=CONFIG, num_workers=0, unix_path=str(tmp_path / "svc.sock")
        )
        try:
            assert handle.address == str(tmp_path / "svc.sock")
            with ServiceClient(handle.address) as client:
                client.ping()
                result = client.submit_design({"c200": cluster(200.0)})
                assert result.recomputed == ["c200"]
        finally:
            handle.stop()

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="num_workers"):
            AnalysisServer(num_workers=-1)
        with pytest.raises(ValueError, match="max_retries"):
            AnalysisServer(max_retries=-1)
        with pytest.raises(ValueError, match="not both"):
            start_server_in_thread(AnalysisServer(), num_workers=2)


# ---------------------------------------------------------------------------
# Fingerprint dedup

    def test_a_server_writing_another_wire_schema_is_refused_at_hello(self):
        address, thread = greeting_server(
            {
                "type": "hello",
                "protocol_version": PROTOCOL_VERSION,
                "schema_version": 1,
                "server_version": "0.3.0",
            }
        )
        with pytest.raises(ServiceError, match=f"server writes 1, client reads {SCHEMA_VERSION}"):
            ServiceClient(address, timeout=10.0)
        thread.join(timeout=10.0)
        assert not thread.is_alive()  # the refused client closed its connection


class TestDedup:
    def test_identical_resubmit_never_reaches_the_compute_path(self, service):
        server, client = service
        clusters = [("c200", cluster(200.0)), ("c300", cluster(300.0))]
        first = client.submit_design(clusters)
        assert sorted(first.recomputed) == ["c200", "c300"]

        async def poisoned_compute(*args, **kwargs):
            raise AssertionError("dedup hit must not reach the compute path")

        server._compute = poisoned_compute
        second = client.submit_design(clusters)
        assert sorted(second.reused) == ["c200", "c300"]
        assert second.recomputed == []

        status = client.status()
        assert status["dedup"]["hits"] == 2
        assert status["dedup"]["entries"] == 2
        assert status["dedup"]["hit_rate"] == pytest.approx(0.5)

    def test_reused_reports_are_byte_identical(self, service):
        _, client = service
        clusters = {"c200": cluster(200.0)}
        first = client.submit_design(clusters)
        second = client.submit_design(clusters)
        assert first.report.cluster("c200").provenance == "recomputed"
        assert second.report.cluster("c200").provenance == "reused"
        assert stripped(second.report.cluster("c200")) == stripped(
            first.report.cluster("c200")
        )


# ---------------------------------------------------------------------------
# Incremental ECO re-analysis


class TestECO:
    def test_revision_with_one_change_recomputes_exactly_one_cluster(self, service):
        _, client = service
        revision1 = [
            ("c200", cluster(200.0)),
            ("c300", cluster(300.0)),
            ("c400", cluster(400.0)),
        ]
        first = client.submit_design(revision1, design_name="eco-rev1")
        assert sorted(first.recomputed) == ["c200", "c300", "c400"]

        # ECO: only c300 changes (the bus grows to 350 um).
        revision2 = [
            ("c200", cluster(200.0)),
            ("c300", cluster(350.0)),
            ("c400", cluster(400.0)),
        ]
        second = client.submit_design(revision2, design_name="eco-rev2")
        assert second.recomputed == ["c300"]
        assert sorted(second.reused) == ["c200", "c400"]
        assert second.counters["reused"] == 2
        assert second.counters["recomputed"] == 1

        # Reused clusters are byte-identical to revision 1; the changed one
        # genuinely re-ran against its new spec.
        for label in ("c200", "c400"):
            assert stripped(second.report.cluster(label)) == stripped(
                first.report.cluster(label)
            )
        assert stripped(second.report.cluster("c300")) != stripped(
            first.report.cluster("c300")
        )
        merged = second.report
        assert {r.label: r.provenance for r in merged} == {
            "c200": "reused",
            "c300": "recomputed",
            "c400": "reused",
        }

    def test_progress_events_carry_provenance(self, service):
        _, client = service
        client.submit_design({"c200": cluster(200.0)})
        events = []
        client.submit_design(
            [("c200", cluster(200.0)), ("c500", cluster(500.0))],
            on_progress=events.append,
        )
        provenance = {e["label"]: e["provenance"] for e in events}
        assert provenance == {"c200": "reused", "c500": "recomputed"}


# ---------------------------------------------------------------------------
# Worker crashes


class TestWorkerCrash:
    def test_crash_is_retried_and_surfaced_without_losing_jobs(self, tmp_path):
        """A worker killed mid-job (real spawn pool) must not lose the job.

        The fault plan crashes the worker analysing ``crashy`` exactly once
        (cross-process trip ledger); the rebuilt pool's retry must complete
        it, the innocent sibling must complete too, and the crash must be
        visible in the status health ledger.
        """
        plan = {
            "ledger_dir": str(tmp_path / "ledger"),
            "faults": [
                {"site": "scenario", "kind": "crash", "match": "crashy", "max_trips": 1}
            ],
        }
        os.environ[faults.FAULT_PLAN_ENV] = json.dumps(plan)
        try:
            handle = start_server_in_thread(
                config=CONFIG, num_workers=2, max_retries=2
            )
            try:
                with ServiceClient(handle.address) as client:
                    result = client.submit_design(
                        [("crashy", cluster(200.0)), ("innocent", cluster(300.0))]
                    )
                    assert result.failed == []
                    assert sorted(result.recomputed) == ["crashy", "innocent"]
                    assert result.report.cluster("crashy").ok
                    assert result.report.cluster("innocent").ok

                    status = client.status()
                    assert status["jobs"]["lost"] == 0
                    assert status["jobs"]["completed"] == 1
                    assert status["health"]["worker_crashes"] >= 1
                    assert status["health"]["pool_rebuilds"] >= 1
                    assert status["health"]["quarantined"] == []
            finally:
                handle.stop()
        finally:
            del os.environ[faults.FAULT_PLAN_ENV]
            faults.clear_plan()

    def test_unrecoverable_crash_is_quarantined_as_an_error_report(self, tmp_path):
        """A cluster that kills its worker on every attempt ends up as a
        structured error report, not a hang or a lost job."""
        plan = {
            "ledger_dir": str(tmp_path / "ledger"),
            "faults": [{"site": "scenario", "kind": "crash", "match": "doomed"}],
        }
        os.environ[faults.FAULT_PLAN_ENV] = json.dumps(plan)
        try:
            handle = start_server_in_thread(
                config=CONFIG, num_workers=2, max_retries=1
            )
            try:
                with ServiceClient(handle.address) as client:
                    result = client.submit_design({"doomed": cluster(200.0)})
                    assert result.failed == ["doomed"]
                    report = result.report.cluster("doomed")
                    assert not report.ok
                    assert report.error.exception_type == "WorkerCrash"

                    status = client.status()
                    assert status["jobs"]["lost"] == 0
                    assert "doomed" in status["health"]["quarantined"]

                    # The quarantined error payload is not stored: a resubmit
                    # gets a fresh chance instead of a cached failure.
                    assert status["dedup"]["entries"] == 0
            finally:
                handle.stop()
        finally:
            del os.environ[faults.FAULT_PLAN_ENV]
            faults.clear_plan()


# ---------------------------------------------------------------------------
# Streaming full-chip ingest


class TestStreamingSubmit:
    def extractions(self, chip):
        from repro.sna import StreamingClusterExtractor
        from repro.technology import get_technology

        technology = get_technology("cmos130")
        extractor = StreamingClusterExtractor(
            chip, technology, config=ExtractionConfig(num_segments=3, max_aggressors=2)
        )
        return extractor.extract(chip.spef_lines(technology, style="dnet"))

    def test_streamed_design_is_submitted_in_chunks(self, service):
        server, client = service
        chip = SyntheticChip(num_nets=8, bus_width=4, topology="bus", seed=9)
        result = client.submit_design_stream(
            self.extractions(chip), chunk_size=3, design_name="fullchip"
        )
        labels = sorted(f"cluster_n{i}" for i in range(8))
        assert sorted(result.recomputed) == labels
        assert result.reused == [] and result.failed == []
        assert sorted(r.label for r in result.report.clusters) == labels
        assert result.counters["recomputed"] == 8
        # 8 clusters in chunks of 3 -> 3 submit_design revisions.
        assert client.status()["jobs"]["submitted"] == 3
        assert result.report.total_runtime_seconds > 0.0

    def test_second_stream_is_fully_deduplicated(self, service):
        _, client = service
        chip = SyntheticChip(num_nets=8, bus_width=4, topology="bus", seed=9)
        client.submit_design_stream(self.extractions(chip), chunk_size=3)
        again = client.submit_design_stream(self.extractions(chip), chunk_size=5)
        assert again.recomputed == []
        assert sorted(again.reused) == sorted(f"cluster_n{i}" for i in range(8))

    def test_empty_stream(self, service):
        _, client = service
        result = client.submit_design_stream(iter([]))
        assert result.job_id == -1
        assert result.report.clusters == []
