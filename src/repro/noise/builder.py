"""Shared model construction for the noise analysis methods.

The golden simulation, the paper's macromodel, the linear-superposition
baseline and the iterative-Thevenin baseline all analyse the *same*
:class:`~repro.noise.cluster.NoiseClusterSpec`.  The
:class:`ClusterModelBuilder` centralises everything they share -- the
characterised victim VCCS surface, the aggressor Thevenin models, receiver
input capacitances and the (full or reduced) wiring network -- so the methods
differ only in how they model the victim driver and combine the noise, which
is exactly the comparison the paper makes.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..characterization.characterizer import LibraryCharacterizer
from ..characterization.loadsurface import VCCSLoadSurface
from ..characterization.thevenin import TheveninDriverModel
from ..circuit.netlist import Circuit
from ..interconnect.pimodel import CoupledPiModel, reduce_to_coupled_pi
from ..interconnect.rcnetwork import CoupledRCNetwork, build_coupled_rc_network
from ..technology.cells import NoiseArc, StandardCell
from ..technology.library import CellLibrary
from .cluster import AggressorSpec, NoiseClusterSpec
from .vccs import TableVCCS, victim_input_waveform

__all__ = ["ClusterModelBuilder"]


class ClusterModelBuilder:
    """Builds and caches the characterised pieces of one noise cluster."""

    def __init__(
        self,
        library: CellLibrary,
        spec: NoiseClusterSpec,
        *,
        characterizer: Optional[LibraryCharacterizer] = None,
        vccs_grid: int = 17,
        coupling_switching_factor: float = 0.5,
    ):
        """
        Parameters
        ----------
        coupling_switching_factor:
            Fraction of the net-to-net coupling capacitance included in the
            *effective load* used to fit the aggressor Thevenin drivers.  The
            weakly-held victim moves in the same direction as a switching
            aggressor, so the aggressor does not see the full coupling
            capacitance during its transition; 0.5 is the classical Miller
            switching-factor assumption and keeps the fitted drivers accurate
            for weak and strong aggressors alike.  The wiring network itself
            always keeps the full coupling capacitance.
        """
        self.library = library
        self.technology = library.technology
        self.spec = spec
        self.characterizer = characterizer or LibraryCharacterizer(library, vccs_grid=vccs_grid)
        self.coupling_switching_factor = coupling_switching_factor
        self._full_network: Optional[CoupledRCNetwork] = None
        self._reduced_model: Optional[CoupledPiModel] = None
        self._reduced_network: Optional[CoupledRCNetwork] = None
        self._capacitance_totals: Optional[Tuple[dict, dict]] = None

    # ------------------------------------------------------------------ victim

    @property
    def victim_cell(self) -> StandardCell:
        return self.library.cell(self.spec.victim.driver_cell)

    @property
    def victim_arc(self) -> NoiseArc:
        return self.spec.victim.arc(self.victim_cell)

    def victim_quiet_level(self) -> float:
        """Quiescent voltage of the victim net (0 V when held low, VDD when high)."""
        return self.technology.vdd if self.spec.victim.output_high else 0.0

    def victim_surface(self) -> VCCSLoadSurface:
        """The characterised VCCS load surface of the victim driver arc."""
        return self.characterizer.load_surface(self.spec.victim.driver_cell, self.victim_arc)

    def victim_vccs(self) -> TableVCCS:
        """The victim driver as a table VCCS with its input glitch waveform."""
        arc = self.victim_arc
        quiet_input = self.technology.vdd if not arc.glitch_rising else 0.0
        waveform = victim_input_waveform(quiet_input, arc.glitch_rising, self.spec.victim.input_glitch)
        return TableVCCS(self.victim_surface(), waveform)

    def victim_holding_resistance(self) -> float:
        """Linear holding resistance of the quiet victim driver.

        This is the victim model of the conventional (linear-superposition)
        flow: the small-signal output resistance at the quiescent bias.
        """
        surface = self.victim_surface()
        arc = self.victim_arc
        vin_quiet = self.technology.vdd if not arc.glitch_rising else 0.0
        vout_quiet = surface.quiet_output_voltage(vin_quiet)
        return surface.holding_resistance(vin_quiet, vout_quiet)

    # --------------------------------------------------------------- receivers

    def receiver_capacitance(self, net: str) -> float:
        """Input capacitance loading the far end of ``net``."""
        if net == self.spec.victim.net:
            cell = self.library.cell(self.spec.victim.receiver_cell)
            return cell.input_capacitance(self.technology, self.spec.victim.receiver_pin)
        aggressor = self.spec.aggressor(net)
        cell = self.library.cell(aggressor.receiver_cell)
        return cell.input_capacitance(self.technology, aggressor.receiver_pin)

    # ------------------------------------------------------------------ wiring

    def full_network(self) -> CoupledRCNetwork:
        """The distributed coupled RC network, with receiver caps attached."""
        if self._full_network is None:
            network = build_coupled_rc_network(
                self.spec.geometry, self.technology, self.spec.num_segments
            )
            for net in network.net_names:
                receiver_node = network.receiver_nodes[net]
                network.add_capacitor(receiver_node, "0", self.receiver_capacitance(net), net=net)
            self._full_network = network
        return self._full_network

    def reduced_model(self) -> CoupledPiModel:
        """The coupled pi (S-model) reduction of the wiring + receiver loads."""
        if self._reduced_model is None:
            self._reduced_model = reduce_to_coupled_pi(self.full_network())
        return self._reduced_model

    def reduced_network(self) -> CoupledRCNetwork:
        """The realised reduced network (driving-point accurate)."""
        if self._reduced_network is None:
            self._reduced_network = self.reduced_model().realize(
                name=f"{self.spec.name}_reduced"
            )
        return self._reduced_network

    def wiring_network(self, reduction: str = "coupled_pi") -> CoupledRCNetwork:
        """The wiring model requested by an analysis (``"coupled_pi"``/``"full"``)."""
        if reduction == "full":
            return self.full_network()
        if reduction in ("coupled_pi", "pi", "reduced"):
            return self.reduced_network()
        raise ValueError(f"unknown reduction '{reduction}' (use 'coupled_pi' or 'full')")

    # --------------------------------------------------------------- aggressors

    def net_total_capacitance(self, net: str, coupling_factor: float = 1.0) -> float:
        """Total capacitance attached to ``net``.

        ``coupling_factor`` scales the net-to-net coupling contribution (1.0
        counts it fully; the aggressor Thevenin fit uses the builder's
        ``coupling_switching_factor`` instead).  The receiver input
        capacitance is already folded into the network's ground capacitance.

        The sums equal ``total_ground_cap(net)`` and the per-pair
        ``total_coupling_cap(net, other)`` over ``net_names`` bit for bit:
        each total adds its elements in network order, and the pairs are
        added in ``net_names`` order.
        """
        ground, coupling = self._net_capacitance_totals()
        return ground.get(net, 0.0) + coupling_factor * sum(
            coupling.get(frozenset((net, other)), 0.0)
            for other in self.full_network().net_names
            if other != net
        )

    def _net_capacitance_totals(self):
        """Per-net ground and per-net-pair coupling capacitance, in one pass."""
        if self._capacitance_totals is None:
            network = self.full_network()
            ground: Dict[Optional[str], float] = {}
            coupling: Dict[frozenset, float] = {}
            for element in network.elements:
                if element.kind != "C":
                    continue
                a = Circuit.canonical_node_name(element.node_a)
                b = Circuit.canonical_node_name(element.node_b)
                if a == "0" or b == "0":
                    net = network.node_net.get(a if b == "0" else b)
                    ground[net] = ground.get(net, 0.0) + element.value
                    continue
                nets = frozenset((network.node_net.get(a), network.node_net.get(b)))
                if len(nets) == 2:
                    coupling[nets] = coupling.get(nets, 0.0) + element.value
            self._capacitance_totals = ground, coupling
        return self._capacitance_totals

    def aggressor_thevenin(self, aggressor: AggressorSpec) -> TheveninDriverModel:
        """The fitted Thevenin model of an aggressor driver."""
        load = self.net_total_capacitance(
            aggressor.net, coupling_factor=self.coupling_switching_factor
        )
        return self.characterizer.thevenin_driver(
            aggressor.driver_cell,
            rising=aggressor.rising,
            input_pin=aggressor.input_pin,
            load_capacitance=load,
            input_transition=aggressor.input_transition,
        )

    def aggressor_quiet_level(self, aggressor: AggressorSpec) -> float:
        """Pre-switch (quiescent) voltage of an aggressor net."""
        return 0.0 if aggressor.rising else self.technology.vdd

    # ------------------------------------------------------------ time window

    def simulation_window(self, dt: Optional[float] = None) -> Tuple[float, float]:
        t_stop, default_dt = self.spec.simulation_window()
        return t_stop, (dt if dt is not None else default_dt)
