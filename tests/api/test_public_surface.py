"""The declared public surface is complete, importable and leak-free."""

import importlib

import pytest

import repro
from repro.circuit import Circuit, transient
from repro.units import fF, ps


class TestPublicSurface:
    def test_every_exported_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_no_private_names_leak(self):
        for name in repro.__all__:
            assert name == "__version__" or not name.startswith("_"), name

    def test_all_covers_the_lazy_export_tables(self):
        assert set(repro._API_EXPORTS) <= set(repro.__all__)
        assert set(repro._SERVICE_EXPORTS) <= set(repro.__all__)

    def test_service_entry_points_are_exported(self):
        assert "ServiceClient" in repro.__all__
        assert "AnalysisServer" in repro.__all__
        from repro.service import AnalysisServer, ServiceClient

        assert repro.ServiceClient is ServiceClient
        assert repro.AnalysisServer is AnalysisServer

    def test_lazy_names_resolve_to_their_home_modules(self):
        api = importlib.import_module("repro.api")
        for name in repro._API_EXPORTS:
            assert getattr(repro, name) is getattr(api, name), name

    def test_dir_lists_the_full_surface(self):
        listed = dir(repro)
        for name in repro.__all__:
            assert name in listed, name

    def test_unknown_attribute_raises(self):
        try:
            repro.not_a_real_export
        except AttributeError as exc:
            assert "not_a_real_export" in str(exc)
        else:
            raise AssertionError("expected AttributeError")

    def test_version_is_current(self):
        assert repro.__version__ == "0.4.0"


class TestDeletedIn040:
    """The retired facades and the bench-only transient knob are gone."""

    @pytest.mark.parametrize(
        "module, name",
        [
            ("repro", "RemovedAPIError"),
            ("repro.api", "RemovedAPIError"),
            ("repro.sna", "StaticNoiseAnalysisFlow"),
            ("repro.sna", "SNAReport"),
            ("repro.sna", "NetNoiseReport"),
            ("repro.noise", "ClusterNoiseAnalyzer"),
            ("repro.circuit", "assemble_legacy"),
        ],
    )
    def test_deleted_names_raise_attribute_error(self, module, name):
        with pytest.raises(AttributeError):
            getattr(importlib.import_module(module), name)

    @pytest.mark.parametrize("module", ["repro.sna.flow", "repro.api.errors"])
    def test_deleted_modules_are_gone(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    def test_transient_has_no_solver_option(self):
        circuit = Circuit("rc")
        circuit.add_voltage_source("V1", "in", "0", 1.0)
        circuit.add_resistor("R1", "in", "out", 1e3)
        circuit.add_capacitor("C1", "out", "0", fF(1))
        with pytest.raises(TypeError, match="solver"):
            transient(circuit, ps(50), ps(1), solver="fast")
        assert not hasattr(transient(circuit, ps(50), ps(1)).stats, "solver")
