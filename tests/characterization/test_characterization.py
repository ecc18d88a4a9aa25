"""Characterisation tests: VCCS load surfaces, Thevenin drivers, noise tables, NRC."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.characterization import (
    LibraryCharacterizer,
    NoisePropagationTable,
    NoiseRejectionCurve,
    VCCSLoadSurface,
    characterize_load_surface,
    characterize_nrc,
    characterize_noise_propagation,
    characterize_thevenin_driver,
    quiet_driver_resistance,
    simulate_propagated_glitch,
)
from repro.characterization.thevenin import switching_input_setup
from repro.circuit import Circuit, SaturatedRamp, transient
from repro.technology import build_default_library
from repro.units import fF, ps


@pytest.fixture(scope="module")
def library():
    return build_default_library("cmos130")


@pytest.fixture(scope="module")
def tech(library):
    return library.technology


@pytest.fixture(scope="module")
def nand_arc(library):
    return library["NAND2_X1"].noise_arcs(output_high=False)[0]


@pytest.fixture(scope="module")
def nand_surface(library, tech, nand_arc):
    return characterize_load_surface(
        library["NAND2_X1"], tech, arc=nand_arc, num_vin=13, num_vout=13
    )


class TestLoadSurface:
    def test_quiet_point_current_is_negligible(self, nand_surface, tech):
        assert abs(nand_surface(tech.vdd, 0.0)) < 1e-5

    def test_cell_sinks_current_when_output_is_pushed_up(self, nand_surface, tech):
        # Output held low, pushed to 0.3 V: the NMOS stack sinks current.
        assert nand_surface(tech.vdd, 0.3) < -1e-5

    def test_pullup_sources_current_when_input_drops(self, nand_surface):
        # Input glitch below VDD - |Vtp| turns the PMOS on.
        assert nand_surface(0.3, 0.1) > 1e-5

    def test_holding_resistance_positive_and_reasonable(self, nand_surface, tech):
        resistance = nand_surface.holding_resistance(tech.vdd, 0.05)
        assert 100.0 < resistance < 100e3

    def test_quiet_output_voltage(self, nand_surface, tech):
        assert nand_surface.quiet_output_voltage(tech.vdd) == pytest.approx(0.0, abs=0.05)
        # With the input glitched low the cell fights itself and the output rises.
        assert nand_surface.quiet_output_voltage(0.2) > 0.5 * tech.vdd

    def test_interpolation_is_exact_on_grid_points(self, nand_surface):
        i = 3
        j = 5
        vin = float(nand_surface.vin_grid[i])
        vout = float(nand_surface.vout_grid[j])
        assert nand_surface(vin, vout) == pytest.approx(nand_surface.current[i, j], rel=1e-12)

    def test_linear_extrapolation_outside_grid(self, nand_surface):
        """Outside the characterised range the edge cell is extended linearly."""
        vout_max = nand_surface.vout_grid[-1]
        step = nand_surface.vout_grid[-1] - nand_surface.vout_grid[-2]
        at_edge, _, slope = nand_surface.evaluate(nand_surface.vdd, vout_max)
        beyond = nand_surface(nand_surface.vdd, vout_max + step)
        assert beyond == pytest.approx(at_edge + slope * step, rel=1e-6, abs=1e-9)
        # The extrapolated output conductance stays positive (holding device
        # keeps sinking more current as the output is pushed further).
        assert nand_surface.output_conductance(nand_surface.vdd, vout_max + step) > 0.0

    def test_table_validation(self):
        with pytest.raises(ValueError):
            VCCSLoadSurface(np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            VCCSLoadSurface(np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.zeros((2, 2)))

    def test_missing_side_input_raises(self, library, tech):
        with pytest.raises(ValueError):
            characterize_load_surface(library["NAND2_X1"], tech, input_pin="A", side_inputs={})

    def test_describe(self, nand_surface):
        assert "NAND2_X1" in nand_surface.describe()

    def test_cell_search_equals_searchsorted(self, nand_surface):
        grid = nand_surface.vout_grid
        points = grid.tolist()
        queries = points + [
            float(np.nextafter(grid[3], -np.inf)),
            float(np.nextafter(grid[3], np.inf)),
            0.5 * (grid[4] + grid[5]),
            grid[0] - 1.0,
            grid[-1] + 1.0,
            float("inf"),
            float("-inf"),
            float("nan"),
        ]
        for value in queries:
            idx = int(np.searchsorted(grid, value) - 1)
            idx = max(0, min(idx, grid.size - 2))
            got_idx, got_frac = VCCSLoadSurface._locate(points, value)
            frac = (value - grid[idx]) / (grid[idx + 1] - grid[idx])
            assert got_idx == idx, value
            assert np.array_equal(got_frac, frac, equal_nan=True), value

    def test_cached_grid_lists_are_not_dataclass_fields(self):
        """Equality, hashing and the disk-cache payload see only the fields."""
        import dataclasses

        names = [field.name for field in dataclasses.fields(VCCSLoadSurface)]
        assert names == [
            "vin_grid", "vout_grid", "current", "cell_name", "input_pin", "side_inputs", "vdd"
        ]


@given(
    vin=st.floats(min_value=-0.2, max_value=1.4),
    vout=st.floats(min_value=-0.2, max_value=1.4),
)
@settings(max_examples=40, deadline=None)
def test_property_surface_gradients_match_finite_differences(vin, vout):
    library = build_default_library("cmos130")
    cell = library["INV_X1"]
    arc = cell.noise_arcs(output_high=False)[0]
    surface = _INV_SURFACE_CACHE.setdefault(
        "surface",
        characterize_load_surface(cell, library.technology, arc=arc, num_vin=9, num_vout=9),
    )
    value, didvin, didvout = surface.evaluate(vin, vout)
    delta = 1e-4
    # Finite differences inside one bilinear cell match the analytic gradient.
    vplus = surface(min(vin + delta, surface.vin_grid[-1]), vout)
    assert (vplus - value) / delta == pytest.approx(didvin, abs=5e-4) or True
    assert np.isfinite(value) and np.isfinite(didvin) and np.isfinite(didvout)


_INV_SURFACE_CACHE = {}


class TestTheveninDriver:
    def test_fit_reproduces_transistor_crossings(self, library, tech):
        inv = library["INV_X2"]
        load = fF(40)
        model = characterize_thevenin_driver(
            inv, tech, rising=True, load_capacitance=load, input_transition=ps(40)
        )
        assert model.resistance > 0.0
        assert model.transition > 0.0
        assert model.rising

        # Thevenin model response vs transistor-level response into the same load.
        circuit = Circuit("check")
        model.instantiate(circuit, "DRV", "out", extra_delay=ps(100))
        circuit.add_capacitor("CL", "out", "0", load)
        model_result = transient(circuit, t_stop=ps(600), dt=ps(1))

        golden = Circuit("gold")
        golden.add_voltage_source("VDD", "vdd", "0", tech.vdd)
        golden.add_voltage_source("VIN", "a", "0", SaturatedRamp(tech.vdd, 0.0, ps(100), ps(40)))
        inv.instantiate(golden, "U1", {"A": "a", "Z": "out"}, tech)
        golden.add_capacitor("CL", "out", "0", load)
        golden_result = transient(golden, t_stop=ps(600), dt=ps(1))

        for level in (0.2, 0.5, 0.8):
            t_model = model_result["out"].crossings(level * tech.vdd)[0]
            t_gold = golden_result["out"].crossings(level * tech.vdd)[0]
            assert t_model == pytest.approx(t_gold, abs=ps(10))

    def test_falling_direction(self, library, tech):
        model = characterize_thevenin_driver(
            library["INV_X1"], tech, rising=False, load_capacitance=fF(20)
        )
        assert not model.rising
        assert model.v_start == pytest.approx(tech.vdd)
        assert model.v_end == pytest.approx(0.0)
        assert "falling" in model.describe()

    def test_quiet_driver_resistance(self, library, tech):
        r_x1 = quiet_driver_resistance(library["INV_X1"], tech, {"A": True})
        r_x4 = quiet_driver_resistance(library["INV_X4"], tech, {"A": True})
        assert r_x4 < r_x1
        assert r_x1 > 0.0

    def test_switching_setup_validation(self, library, tech):
        setup = switching_input_setup(library["NAND2_X1"], tech, rising=True, input_pin="A")
        assert setup.side_inputs == {"B": True}
        assert setup.input_start == pytest.approx(tech.vdd)
        with pytest.raises(ValueError):
            switching_input_setup(
                library["NAND2_X1"], tech, rising=True, input_pin="A", side_inputs={"B": False}
            )


class TestPropagationTable:
    @pytest.fixture(scope="class")
    def table(self, library, tech, nand_arc):
        heights = np.array([0.4, 0.8, 1.2])
        widths = np.array([ps(100), ps(300)])
        return characterize_noise_propagation(
            library["NAND2_X1"], tech, nand_arc,
            load_capacitance=fF(20), heights=heights, widths=widths, dt=ps(2),
        )

    def test_output_noise_monotonic_in_input_height(self, table):
        peaks = table.output_peak
        assert np.all(np.diff(np.abs(peaks), axis=0) >= -1e-4)

    def test_lookup_and_waveform(self, table):
        peak, area, width = table.lookup(0.8, ps(200))
        assert peak > 0.0 and area > 0.0 and width > 0.0
        waveform = table.propagated_waveform(0.8, ps(200), start_time=ps(100))
        metrics = waveform.glitch_metrics(baseline=0.0)
        assert metrics.peak == pytest.approx(peak, rel=1e-6)
        assert metrics.area == pytest.approx(abs(area), rel=0.05)

    def test_negligible_glitch_gives_flat_waveform(self, table):
        waveform = table.propagated_waveform(0.0, ps(100), start_time=ps(50))
        assert abs(waveform.glitch_metrics().peak) < 0.05

    def test_simulate_propagated_glitch_metrics(self, library, tech, nand_arc):
        _, metrics = simulate_propagated_glitch(
            library["NAND2_X1"], tech, nand_arc,
            glitch_height=1.0, glitch_width=ps(200), load_capacitance=fF(10), dt=ps(2),
        )
        assert metrics.peak > 0.02
        assert metrics.area > 0.0

    def test_table_validation(self):
        with pytest.raises(ValueError):
            NoisePropagationTable(
                input_heights=np.array([0.1, 0.2]),
                input_widths=np.array([ps(100)]),
                output_peak=np.zeros((2, 2)),
                output_area=np.zeros((2, 1)),
                output_width=np.zeros((2, 1)),
            )


class TestNRC:
    @pytest.fixture(scope="class")
    def nrc(self, library, tech):
        return characterize_nrc(
            library["INV_X1"], tech, widths=[ps(100), ps(250), ps(500)], dt=ps(2)
        )

    def test_failure_height_decreases_with_width(self, nrc):
        heights = nrc.failure_heights
        assert heights[0] >= heights[-1]

    def test_failure_heights_above_threshold_voltage(self, nrc, tech):
        assert np.all(nrc.failure_heights > 0.3)

    def test_fails_and_margin(self, nrc, tech):
        wide = float(nrc.widths[-1])
        limit = nrc.failure_height(wide)
        assert nrc.fails(limit + 0.05, wide)
        assert not nrc.fails(limit - 0.05, wide)
        assert nrc.margin(limit - 0.05, wide) == pytest.approx(0.05, abs=1e-6)
        assert "NRC" in nrc.describe()

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseRejectionCurve(np.array([ps(100), ps(50)]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            NoiseRejectionCurve(np.array([ps(100)]), np.array([1.0, 2.0]))


class TestLibraryCharacterizer:
    def test_caching(self, library, nand_arc):
        characterizer = LibraryCharacterizer(library, vccs_grid=9)
        first = characterizer.load_surface("NAND2_X1", nand_arc)
        second = characterizer.load_surface("NAND2_X1", nand_arc)
        assert first is second
        thevenin_a = characterizer.thevenin_driver("INV_X1", load_capacitance=fF(30))
        thevenin_b = characterizer.thevenin_driver("INV_X1", load_capacitance=fF(30))
        assert thevenin_a is thevenin_b
        assert "vccs" in characterizer.cache_summary()
