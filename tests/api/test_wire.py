"""The versioned wire format round-trips every report type losslessly.

Codec unit tests run on synthetic values; the report round-trip tests run a
*real* analysis (under both solver backends) and assert the re-encoded JSON
strings are byte-identical -- the property the service's dedup store and the
ECO bit-identity guarantee are built on.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import AnalysisConfig, NoiseAnalysisSession
from repro.api import wire
from repro.api.report import ClusterError, ClusterReport, SessionReport
from repro.experiments import figure1_cluster
from repro.scenarios.report import ScenarioResult, SweepHealth, SweepReport
from repro.technology import build_default_library
from repro.waveform import Waveform


def round_trip(value):
    """encode -> JSON text -> decode, exercising the real serialisation."""
    return wire.decode(json.loads(json.dumps(wire.encode(value))))


class TestCodec:
    def test_primitives_pass_through(self):
        for value in (None, True, False, 0, -7, 1.5, "text", ""):
            assert round_trip(value) == value
            assert type(round_trip(value)) is type(value)

    def test_tuple_and_list_stay_distinct(self):
        assert round_trip((1, 2, 3)) == (1, 2, 3)
        assert round_trip([1, 2, 3]) == [1, 2, 3]
        nested = ("a", [1, (2.5, None)], {"k": (True,)})
        decoded = round_trip(nested)
        assert decoded == nested
        assert isinstance(decoded[1][1], tuple)
        assert isinstance(decoded[2]["k"], tuple)

    def test_numpy_scalars_become_python(self):
        assert round_trip(np.float64(0.25)) == 0.25
        assert type(round_trip(np.float64(0.25))) is float
        assert round_trip(np.int64(9)) == 9
        assert round_trip(np.bool_(True)) is True

    @pytest.mark.parametrize("dtype", ["float64", "int32", "bool"])
    def test_ndarray_preserves_dtype_and_shape(self, dtype):
        array = np.arange(6).reshape(2, 3).astype(dtype)
        decoded = round_trip(array)
        assert decoded.dtype == np.dtype(dtype)
        assert decoded.shape == (2, 3)
        np.testing.assert_array_equal(decoded, array)

    def test_float64_values_survive_exactly(self):
        array = np.array([0.1, 1.0 / 3.0, 1e-300, math.pi])
        decoded = round_trip(array)
        assert decoded.tolist() == array.tolist()  # exact, not approx

    def test_nan_and_infinity(self):
        decoded = round_trip([math.nan, math.inf, -math.inf])
        assert math.isnan(decoded[0])
        assert decoded[1] == math.inf
        assert decoded[2] == -math.inf

    def test_waveform(self):
        wave = Waveform([0.0, 1e-12, 2e-12], [0.0, 0.4, 0.1])
        decoded = round_trip(wave)
        assert isinstance(decoded, Waveform)
        np.testing.assert_array_equal(decoded.times, wave.times)
        np.testing.assert_array_equal(decoded.values, wave.values)

    def test_non_string_keys_use_the_mapping_tag(self):
        mapping = {(0.5, 1.5): "grid point", 3: "three"}
        encoded = wire.encode(mapping)
        assert encoded["__wire__"] == "mapping"
        decoded = round_trip(mapping)
        assert decoded == mapping
        assert (0.5, 1.5) in decoded

    def test_a_key_colliding_with_the_tag_is_escaped(self):
        tricky = {"__wire__": "not a tag", "other": 1}
        decoded = round_trip(tricky)
        assert decoded == tricky

    def test_dataclass_round_trip_reruns_validation(self):
        config = AnalysisConfig(methods=("macromodel",), vccs_grid=5, dt=2e-12)
        decoded = round_trip(config)
        assert isinstance(decoded, AnalysisConfig)
        assert decoded == config

    def test_unencodable_type_raises(self):
        with pytest.raises(wire.WireFormatError, match="cannot encode"):
            wire.encode({1, 2, 3})
        with pytest.raises(wire.WireFormatError, match="cannot encode"):
            wire.encode(object())

    def test_untrusted_class_is_never_imported(self):
        payload = {
            "__wire__": "dataclass",
            "class": "os:environ",
            "fields": {},
        }
        with pytest.raises(wire.WireFormatError, match="refusing to import"):
            wire.decode(payload)

    def test_unknown_field_rejected(self):
        encoded = wire.encode(AnalysisConfig(vccs_grid=5))
        encoded["fields"]["not_a_field"] = 1
        with pytest.raises(wire.WireFormatError, match="unknown field"):
            wire.decode(encoded)

    def test_invalid_field_value_rejected_by_constructor(self):
        encoded = wire.encode(AnalysisConfig(vccs_grid=5))
        encoded["fields"]["vccs_grid"] = 1  # __post_init__ requires >= 3
        with pytest.raises(wire.WireFormatError, match="cannot reconstruct"):
            wire.decode(encoded)

    def test_unknown_tag_rejected(self):
        with pytest.raises(wire.WireFormatError, match="unknown wire tag"):
            wire.decode({"__wire__": "hologram"})


#: Tagged payloads malformed in one way each, with the error each one
#: caused before decode turned it into a ``WireFormatError`` (None: the
#: payload is refused outright).
MALFORMED = {
    "tuple-without-items": ({"__wire__": "tuple"}, KeyError),
    "ndarray-shape-does-not-fit-data": (
        {"__wire__": "ndarray", "dtype": "float64", "shape": [2, 2], "data": [1.0, 2.0, 3.0]},
        ValueError,
    ),
    "ndarray-unknown-dtype": (
        {"__wire__": "ndarray", "dtype": "float77", "shape": [1], "data": [1.0]},
        TypeError,
    ),
    "ndarray-object-dtype": (
        {"__wire__": "ndarray", "dtype": "object", "shape": [1], "data": [1.0]},
        None,
    ),
    "ndarray-data-overflows-its-dtype": (
        {"__wire__": "ndarray", "dtype": "float64", "shape": [1], "data": [10**400]},
        OverflowError,
    ),
    "mapping-with-a-list-key": ({"__wire__": "mapping", "items": [[[1, 2], "v"]]}, TypeError),
    "dataclass-fields-not-a-dict": (
        {"__wire__": "dataclass", "class": "repro.api.config:AnalysisConfig", "fields": [1]},
        AttributeError,
    ),
    "waveform-lengths-differ": (
        {"__wire__": "waveform", "times": [0.0, 1e-12], "values": [0.0]},
        ValueError,
    ),
}


class TestMalformedPayloads:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_raises_wire_format_error_chained_to_its_cause(self, case):
        payload, cause = MALFORMED[case]
        with pytest.raises(wire.WireFormatError) as excinfo:
            wire.decode(payload)
        if cause is None:
            assert excinfo.value.__cause__ is None
        else:
            assert isinstance(excinfo.value.__cause__, cause)

    def test_a_nested_error_is_not_wrapped_again(self):
        payload = {"__wire__": "tuple", "items": [{"__wire__": "hologram"}]}
        with pytest.raises(wire.WireFormatError) as excinfo:
            wire.decode(payload)
        assert str(excinfo.value) == "unknown wire tag 'hologram'"

    def test_envelope_without_payload(self):
        envelope = {"schema_version": wire.SCHEMA_VERSION, "kind": "cluster_report"}
        with pytest.raises(wire.WireFormatError, match="no payload"):
            wire.unwrap(envelope, "cluster_report")


_TAGS = ["tuple", "mapping", "ndarray", "waveform", "dataclass", "hologram"]
_CLASSES = [
    "repro.api.config:AnalysisConfig",
    "repro.noise.analysis:NRCCheck",
    "repro.circuit.transient:TransientStats",
    "repro.waveform:GlitchMetrics",
    "repro.sna.extraction:ExtractionConfig",
    "repro.api:NoiseAnalysisSession",
    "os:environ",
]
_DTYPES = ["float64", "int32", "bool", "complex128", "<U3", "object", "O", "float77"]
_KEYS = [
    "items", "dtype", "shape", "data", "times", "values", "class", "fields",
    "vccs_grid", "methods", "dt", "fails", "height", "num_segments", "max_aggressors",
]

_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.just(10**400)
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(_TAGS + _CLASSES + _DTYPES + _KEYS)
)


def _containers(children):
    tagged = st.builds(
        lambda tag, body: {**body, "__wire__": tag},
        st.sampled_from(_TAGS),
        st.dictionaries(st.sampled_from(_KEYS), children, max_size=4),
    )
    return (
        st.lists(children, max_size=4)
        | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), children, max_size=4)
        | tagged
    )


_json_payloads = st.recursive(_leaves, _containers, max_leaves=25)


@settings(max_examples=400, deadline=None)
@given(payload=_json_payloads)
def test_any_json_payload_decodes_or_raises_wire_format_error(payload):
    """JSON built from the real tags and ``repro`` dataclass names never
    escapes decode with anything but ``WireFormatError``."""
    try:
        wire.decode(json.loads(json.dumps(payload)))
    except wire.WireFormatError:
        pass


class TestEnvelope:
    def test_wrap_carries_version_and_kind(self):
        envelope = wire.wrap("cluster_report", (1, 2))
        assert envelope["schema_version"] == wire.SCHEMA_VERSION
        assert envelope["kind"] == "cluster_report"
        assert wire.unwrap(envelope, "cluster_report") == (1, 2)

    def test_schema_version_mismatch_rejected(self):
        envelope = wire.wrap("cluster_report", 1)
        envelope["schema_version"] = 99
        with pytest.raises(wire.WireFormatError, match="schema_version"):
            wire.unwrap(envelope, "cluster_report")

    def test_kind_mismatch_rejected(self):
        envelope = wire.wrap("cluster_report", 1)
        with pytest.raises(wire.WireFormatError, match="session_report"):
            wire.unwrap(envelope, "session_report")

    def test_non_dict_rejected(self):
        with pytest.raises(wire.WireFormatError, match="envelope"):
            wire.unwrap([1, 2], "cluster_report")


# ---------------------------------------------------------------------------
# Report round trips on real analysis results


def canonical(payload):
    return json.dumps(payload, sort_keys=True)


@pytest.fixture(scope="module", params=["dense", "sparse"])
def analyzed(request):
    """One real ClusterReport per solver backend."""
    library = build_default_library("cmos130")
    config = AnalysisConfig(
        methods=("macromodel",),
        vccs_grid=5,
        check_nrc=True,
        dt=4e-12,
        solver_backend=request.param,
    )
    session = NoiseAnalysisSession(library, config)
    spec = figure1_cluster(length_um=200.0, num_segments=3)
    return session.analyze(spec, label=f"fig1-{request.param}")


class TestClusterReportRoundTrip:
    def test_bit_identical_under_both_backends(self, analyzed):
        payload = analyzed.to_json()
        # The payload must be genuinely JSON-serialisable.
        text = json.dumps(payload)
        decoded = ClusterReport.from_json(json.loads(text))
        assert isinstance(decoded, ClusterReport)
        assert canonical(decoded.to_json()) == canonical(payload)

    def test_decoded_report_is_usable(self, analyzed):
        decoded = ClusterReport.from_json(analyzed.to_json())
        assert decoded.label == analyzed.label
        assert decoded.primary.peak == analyzed.primary.peak
        assert decoded.primary.victim_waveform.values.tolist() == (
            analyzed.primary.victim_waveform.values.tolist()
        )
        assert decoded.nrc_checks.keys() == analyzed.nrc_checks.keys()
        assert decoded.fails == analyzed.fails

    def test_error_collected_report_round_trips(self):
        spec = figure1_cluster(length_um=200.0, num_segments=3)
        report = ClusterReport(
            label="broken",
            spec=spec,
            results={},
            error=ClusterError(
                exception_type="SingularMatrixError",
                message="matrix is singular",
                traceback_text="Traceback ...",
                method="macromodel",
                cause_chain=("RuntimeError: builder failed", "SingularMatrixError: x"),
            ),
            degradation=("rejected dense attempt", "fell back to sparse"),
        )
        decoded = ClusterReport.from_json(report.to_json())
        assert decoded.error == report.error
        assert decoded.degradation == report.degradation
        assert not decoded.ok
        assert canonical(decoded.to_json()) == canonical(report.to_json())

    def test_wrong_kind_payload_rejected(self, analyzed):
        envelope = analyzed.to_json()
        with pytest.raises(wire.WireFormatError):
            SessionReport.from_json(envelope)


class TestSessionReportRoundTrip:
    def test_lossless(self, analyzed):
        report = SessionReport(
            clusters=[analyzed],
            methods=("macromodel",),
            total_runtime_seconds=1.25,
            design_name="wiretest",
        )
        payload = report.to_json()
        decoded = SessionReport.from_json(json.loads(json.dumps(payload)))
        assert canonical(decoded.to_json()) == canonical(payload)
        assert decoded.design_name == "wiretest"
        assert decoded.methods == ("macromodel",)
        assert len(decoded) == 1
        assert decoded.cluster(analyzed.label).primary.peak == analyzed.primary.peak
        # The behavioural surface survives serialisation.
        assert decoded.text() == report.text()


class TestSweepReportRoundTrip:
    def build_report(self):
        results = [
            ScenarioResult(
                scenario_id="fig1/cmos130/tt/nom",
                axes=(("corner", "tt"), ("geometry", "nom")),
                peaks={"macromodel": 0.31, "golden": 0.3},
                areas_v_ps={"macromodel": 41.0, "golden": 40.0},
                widths_ps={"macromodel": 120.0, "golden": 118.0},
                nrc_fails={"macromodel": False},
                runtime_seconds=0.4,
                session_key="('cmos130', 'tt')",
            ),
            ScenarioResult(
                scenario_id="fig1/cmos130/ff/nom",
                axes=(("corner", "ff"), ("geometry", "nom")),
                ok=False,
                error="InjectedFault: boom",
                traceback_text="Traceback ...",
                error_chain=("InjectedFault: boom",),
                attempts=3,
                quarantined=True,
            ),
            ScenarioResult(
                scenario_id="fig1/cmos130/ss/nom",
                axes=(("corner", "ss"), ("geometry", "nom")),
                peaks={"macromodel": -0.28},
                areas_v_ps={"macromodel": 35.0},
                widths_ps={"macromodel": 110.0},
                nrc_fails={"macromodel": True},
                degradation=("retried on sparse rung",),
            ),
        ]
        health = SweepHealth(
            retries=2,
            shard_splits=1,
            pool_rebuilds=1,
            worker_crashes=1,
            quarantined=["fig1/cmos130/ff/nom"],
            degraded_scenarios=["fig1/cmos130/ss/nom"],
            fallback_triggers={"numerical: singular": 1},
            max_tasks_per_child=8,
            batch_groups=2,
            batched_solves=5,
            factorizations_saved=3,
            events=["worker pool broke; rebuilding"],
        )
        return SweepReport(
            results,
            methods=("macromodel", "golden"),
            elapsed_seconds=2.5,
            num_workers=2,
            num_shards=4,
            cache_stats={"disk_hits": 3, "disk_misses": 1, "characterizations": 1},
            health=health,
        )

    def test_lossless_including_health(self):
        report = self.build_report()
        payload = report.to_json()
        decoded = SweepReport.from_json(json.loads(json.dumps(payload)))
        assert canonical(decoded.to_json()) == canonical(payload)
        assert len(decoded) == 3
        assert decoded.result("fig1/cmos130/ff/nom").quarantined
        assert decoded.result("fig1/cmos130/ff/nom").error_chain == (
            "InjectedFault: boom",
        )
        assert decoded.result("fig1/cmos130/ss/nom").degradation == (
            "retried on sparse rung",
        )
        assert decoded.health.worker_crashes == 1
        assert decoded.health.fallback_triggers == {"numerical: singular": 1}
        assert decoded.health.max_tasks_per_child == 8
        assert decoded.health.events == ["worker pool broke; rebuilding"]
        assert decoded.cache_stats == report.cache_stats
        assert decoded.worst_case().scenario_id == report.worst_case().scenario_id

    def test_legacy_summary_keys_survive(self):
        """Dashboards and CI gates keep reading the pre-wire summary keys."""
        payload = self.build_report().to_json()
        assert payload["num_scenarios"] == 3
        assert payload["num_errors"] == 1
        assert payload["nrc_failures"] == 1
        assert payload["worst_case"]["scenario_id"] == "fig1/cmos130/tt/nom"
        assert "tt" in payload["by_corner"]
        assert payload["health"]["worker_crashes"] == 1
        assert payload["scenarios_per_second"] > 0

    def test_envelope_validation(self):
        payload = self.build_report().to_json()
        bad_version = dict(payload, schema_version=99)
        with pytest.raises(wire.WireFormatError, match="schema_version"):
            SweepReport.from_json(bad_version)
        bad_kind = dict(payload, kind="cluster_report")
        with pytest.raises(wire.WireFormatError, match="sweep_report"):
            SweepReport.from_json(bad_kind)
