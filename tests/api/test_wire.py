"""The versioned wire format round-trips every report type losslessly.

Codec unit tests run on synthetic values; the report round-trip tests run a
*real* analysis (under both solver backends) and assert the re-encoded JSON
strings are byte-identical -- the property the service's dedup store and the
ECO bit-identity guarantee are built on.
"""

import base64
import binascii
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


def packed(values, dtype="<f8"):
    """Base64 of ``values`` as little-endian ``dtype`` bytes, as the wire packs them."""
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode("ascii")


#: Tagged payloads malformed in one way each, with the error each one
#: caused before decode turned it into a ``WireFormatError``.
MALFORMED = {
    "tuple-without-items": ({"__wire__": "tuple"}, KeyError),
    "ndarray-shape-does-not-fit-data": (
        {"__wire__": "ndarray", "dtype": "<f8", "shape": [2, 2], "data": packed([1.0, 2.0, 3.0])},
        ValueError,
    ),
    "ndarray-bytes-do-not-fit-itemsize": (
        {"__wire__": "ndarray", "dtype": "<f8", "shape": [1], "data": packed(range(7), "u1")},
        ValueError,
    ),
    "ndarray-negative-shape": (
        {"__wire__": "ndarray", "dtype": "<f8", "shape": [-1], "data": packed([1.0])},
        ValueError,
    ),
    "ndarray-invalid-base64": (
        {"__wire__": "ndarray", "dtype": "<f8", "shape": [1], "data": "AAAA!AAAAAA="},
        binascii.Error,
    ),
    "ndarray-unknown-dtype": (
        {"__wire__": "ndarray", "dtype": "float77", "shape": [1], "data": packed([1.0])},
        TypeError,
    ),
    "ndarray-object-dtype": (
        {"__wire__": "ndarray", "dtype": "object", "shape": [1], "data": packed([1.0])},
        TypeError,
    ),
    "ndarray-unicode-dtype": (
        {"__wire__": "ndarray", "dtype": "<U4", "shape": [1], "data": packed([1.0, 2.0])},
        TypeError,
    ),
    "ndarray-void-dtype": (
        {"__wire__": "ndarray", "dtype": "V8", "shape": [1], "data": packed([1.0])},
        TypeError,
    ),
    "ndarray-data-in-the-v1-list-layout": (
        {"__wire__": "ndarray", "dtype": "float64", "shape": [1], "data": [10**400]},
        TypeError,
    ),
    "mapping-with-a-list-key": ({"__wire__": "mapping", "items": [[[1, 2], "v"]]}, TypeError),
    "dataclass-fields-not-a-dict": (
        {"__wire__": "dataclass", "class": "repro.api.config:AnalysisConfig", "fields": [1]},
        AttributeError,
    ),
    "waveform-lengths-differ": (
        {"__wire__": "waveform", "times": packed([0.0, 1e-12]), "values": packed([0.0])},
        ValueError,
    ),
    "waveform-axis-without-a-table": (
        {"__wire__": "waveform", "axis": 0, "values": packed([0.0, 1.0])},
        LookupError,
    ),
}


def envelope_with(waveform, axes):
    """A ``cluster_report`` envelope around ``waveform`` with an ``axes`` table."""
    return {
        "schema_version": wire.SCHEMA_VERSION,
        "kind": "cluster_report",
        "axes": axes,
        "payload": waveform,
    }


#: Envelopes whose axes table or axis reference is malformed, with the
#: error each one causes.
MALFORMED_ENVELOPES = {
    "axis-out-of-range": (
        envelope_with({"__wire__": "waveform", "axis": 1, "values": packed([0.0, 1.0])},
                      [packed([0.0, 1e-12])]),
        IndexError,
    ),
    "axis-negative": (
        envelope_with({"__wire__": "waveform", "axis": -1, "values": packed([0.0, 1.0])},
                      [packed([0.0, 1e-12])]),
        IndexError,
    ),
    "axis-not-an-int": (
        envelope_with({"__wire__": "waveform", "axis": "0", "values": packed([0.0, 1.0])},
                      [packed([0.0, 1e-12])]),
        TypeError,
    ),
    "axis-a-bool": (
        envelope_with({"__wire__": "waveform", "axis": False, "values": packed([0.0, 1.0])},
                      [packed([0.0, 1e-12])]),
        TypeError,
    ),
    "axes-not-a-list": (envelope_with(1, {"0": packed([0.0, 1e-12])}), TypeError),
    "axes-missing": (envelope_with(1, None), TypeError),
    "axes-invalid-base64": (envelope_with(1, ["AA=A"]), binascii.Error),
    "axes-bytes-do-not-fit-float64": (envelope_with(1, [packed([1, 2, 3], "u1")]), ValueError),
}


class TestMalformedPayloads:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_raises_wire_format_error_chained_to_its_cause(self, case):
        payload, cause = MALFORMED[case]
        with pytest.raises(wire.WireFormatError) as excinfo:
            wire.decode(payload)
        assert isinstance(excinfo.value.__cause__, cause)

    @pytest.mark.parametrize("case", sorted(MALFORMED_ENVELOPES))
    def test_malformed_axes_raise_wire_format_error_chained_to_its_cause(self, case):
        envelope, cause = MALFORMED_ENVELOPES[case]
        with pytest.raises(wire.WireFormatError) as excinfo:
            wire.unwrap(envelope, "cluster_report")
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
_DTYPES = [
    "float64", "int32", "bool", "complex128", "<U3", "object", "O", "float77",
    "<f8", ">f8", "|b1", "<i4", "<u2", "<c16", "<U4", "V8",
]
_KEYS = [
    "items", "dtype", "shape", "data", "times", "values", "axis", "class", "fields",
    "vccs_grid", "methods", "dt", "fails", "height", "num_segments", "max_aggressors",
]

#: Base64 strings: packed bytes of any length, and a few invalid ones.
_packed = st.binary(max_size=40).map(lambda raw: base64.b64encode(raw).decode("ascii")) | (
    st.sampled_from(["!", "AAA", "AA=A", "AAAA AAAA", "é"])
)
_shapes = st.lists(st.integers(min_value=-2, max_value=5) | st.just(10**400), max_size=3)

_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.just(10**400)
    | st.floats()
    | st.text(max_size=4)
    | _packed
    | st.sampled_from(_TAGS + _CLASSES + _DTYPES + _KEYS)
)


def _containers(children):
    tagged = st.builds(
        lambda tag, body: {**body, "__wire__": tag},
        st.sampled_from(_TAGS),
        st.dictionaries(st.sampled_from(_KEYS), children, max_size=4),
    )
    # Well-formed v2 bodies with one field at a time drawn from anywhere.
    ndarray = st.fixed_dictionaries(
        {"__wire__": st.just("ndarray"), "dtype": st.sampled_from(_DTYPES),
         "shape": _shapes, "data": _packed | children},
    )
    waveform = st.fixed_dictionaries(
        {"__wire__": st.just("waveform"), "values": _packed | children},
        optional={"times": _packed | children, "axis": st.integers(-1, 3) | children},
    )
    return (
        st.lists(children, max_size=4)
        | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), children, max_size=4)
        | tagged
        | ndarray
        | waveform
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


@settings(max_examples=200, deadline=None)
@given(axes=st.lists(_packed, max_size=3) | _leaves, payload=_json_payloads)
def test_any_envelope_unwraps_or_raises_wire_format_error(axes, payload):
    """The same holds under an envelope, whose ``axes`` table gives the
    waveforms' ``axis`` references something to resolve."""
    envelope = {
        "schema_version": wire.SCHEMA_VERSION,
        "kind": "cluster_report",
        "axes": axes,
        "payload": payload,
    }
    try:
        wire.unwrap(json.loads(json.dumps(envelope)), "cluster_report")
    except wire.WireFormatError:
        pass


#: Float64 bit patterns the decimal v1 format could not all carry.
_special_floats = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, 5e-324, -2.2250738585072e-308, math.nan]
).map(lambda value: np.float64(value).view(np.uint64)) | st.integers(0, 2**64 - 1)


@settings(max_examples=200, deadline=None)
@given(bits=st.lists(_special_floats.map(int), min_size=2, max_size=16))
def test_float64_bit_patterns_survive_exactly(bits):
    """NaN payloads, -0.0, infinities and subnormals come back bit for bit,
    as an ndarray and as waveform values under an envelope."""
    array = np.array(bits, dtype=np.uint64).view(np.float64)
    decoded = round_trip(array)
    assert decoded.dtype == np.float64 and decoded.tobytes() == array.tobytes()
    assert decoded.flags.writeable and decoded.flags.owndata
    wave = Waveform(np.arange(array.size) * 1e-12, array)
    envelope = json.loads(json.dumps(wire.wrap("cluster_report", wave)))
    assert wire.unwrap(envelope, "cluster_report").values.tobytes() == array.tobytes()


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


class TestV2Layout:
    def test_ndarray_is_packed_little_endian_and_decodes_native(self):
        encoded = wire.encode(np.array([1.5, -2.0], dtype=">f8"))
        assert encoded["dtype"] == "<f8" and encoded["shape"] == [2]
        assert encoded["data"] == packed([1.5, -2.0])
        decoded = wire.decode(encoded)
        assert decoded.dtype == np.float64 and decoded.dtype.isnative
        assert decoded.flags.writeable and decoded.flags.owndata
        assert decoded.tolist() == [1.5, -2.0]

    def test_non_numeric_arrays_are_refused_on_encode(self):
        with pytest.raises(wire.WireFormatError, match="cannot encode"):
            wire.encode(np.array(["a", "b"]))

    def test_bare_encode_packs_times_inline(self):
        encoded = wire.encode(Waveform([0.0, 1e-12], [0.5, 0.25]))
        assert encoded == {
            "__wire__": "waveform",
            "times": packed([0.0, 1e-12]),
            "values": packed([0.5, 0.25]),
        }

    def test_wrap_stores_each_axis_once_in_order_of_first_appearance(self):
        first, second = [0.0, 1e-12, 3e-12], [0.0, 2e-12, 3e-12]
        waves = [
            Waveform(first, [0.0, 1.0, 2.0]),
            Waveform(second, [0.0, 1.0, 2.0]),
            Waveform(list(first), [3.0, 4.0, 5.0]),
        ]
        envelope = wire.wrap("cluster_report", waves)
        assert envelope["axes"] == [packed(first), packed(second)]
        assert [wave["axis"] for wave in envelope["payload"]] == [0, 1, 0]
        decoded = wire.unwrap(json.loads(json.dumps(envelope)), "cluster_report")
        assert decoded == waves


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


def test_a_24_cluster_session_report_holds_one_axis():
    library = build_default_library("cmos130")
    config = AnalysisConfig(methods=("macromodel",), vccs_grid=5, check_nrc=False, dt=4e-12)
    session = NoiseAnalysisSession(library, config)
    specs = [figure1_cluster(length_um=150.0 + 10.0 * i, num_segments=3) for i in range(24)]
    labels = [f"net{i}" for i in range(24)]
    report = SessionReport(session.analyze_many(specs, labels=labels), ("macromodel",), 1.0)
    payload = report.to_json()
    assert len(payload["axes"]) == 1
    decoded = SessionReport.from_json(json.loads(json.dumps(payload)))
    assert canonical(decoded.to_json()) == canonical(payload)


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
