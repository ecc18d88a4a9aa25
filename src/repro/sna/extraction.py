"""Noise-cluster extraction from an annotated design.

Extraction is the first stage of the industrial SNA pipeline (cluster
extraction -> per-cluster noise evaluation -> NRC check -> violation
report).  :class:`ClusterExtractor` stands alone, so the unified
:class:`~repro.api.session.NoiseAnalysisSession` -- and anything else, e.g. a
future sharded dispatcher -- can extract clusters without an analysis
session.

The cluster-building policy itself (aggressor ranking, budget, wire
placement, spec assembly) lives in the module-level :func:`build_cluster` so
the streaming extractor in :mod:`repro.sna.stream` produces byte-identical
specs from its windowed state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from ..interconnect.geometry import ParallelBusGeometry, WireSpec
from ..noise.cluster import AggressorSpec, InputGlitchSpec, NoiseClusterSpec, VictimSpec
from ..units import ps
from .design import Design, DesignConnectivity

__all__ = ["ClusterExtraction", "ExtractionConfig", "ClusterExtractor", "build_cluster"]


@dataclass
class ClusterExtraction:
    """One extracted noise cluster and its provenance in the design."""

    victim_net: str
    spec: NoiseClusterSpec
    aggressor_nets: List[str]
    skipped_aggressors: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class ExtractionConfig:
    """Knobs of the cluster-extraction stage.

    Parameters
    ----------
    max_aggressors:
        At most this many *usable* aggressors (coupled nets that have a
        driver), taken in decreasing coupled-length order, make it into the
        cluster -- the standard cluster-filtering simplification.  Driverless
        couplings never consume budget slots.
    """

    num_segments: int = 8
    aggressor_switch_time: float = ps(200)
    aggressor_input_transition: float = ps(40)
    max_aggressors: int = 4

    def __post_init__(self):
        if self.num_segments < 1:
            raise ValueError(f"num_segments must be at least 1, got {self.num_segments}")
        if self.max_aggressors < 1:
            raise ValueError(f"max_aggressors must be at least 1, got {self.max_aggressors}")
        if not self.aggressor_switch_time > 0 or not self.aggressor_input_transition > 0:
            raise ValueError("aggressor timing parameters must be positive")


def build_cluster(
    victim_net: str,
    *,
    config: ExtractionConfig,
    victim_length_um: float,
    victim_layer_index: int,
    victim_quiet_high: bool,
    victim_driver_cell: str,
    receiver_cell: str,
    receiver_pin: str,
    couplings: Sequence[Tuple[str, float]],
    aggressor_info: Callable[[str], Optional[Tuple[str, float]]],
    input_glitch: Optional[InputGlitchSpec] = None,
) -> ClusterExtraction:
    """Assemble one noise cluster from resolved victim/aggressor facts.

    ``couplings`` is the victim's coupled-net list in design insertion order;
    ``aggressor_info(net)`` returns ``(driver_cell, length_um)`` for a
    driven net or ``None`` for a driverless one.  Both the in-memory and the
    streaming extractor funnel through here, which is what guarantees their
    specs are identical.
    """
    ranked = sorted(couplings, key=lambda item: item[1], reverse=True)
    aggressor_specs: List[AggressorSpec] = []
    aggressor_nets: List[str] = []
    skipped: List[str] = []
    wires: List[WireSpec] = []
    for aggressor_net, coupled_length in ranked:
        info = aggressor_info(aggressor_net)
        # Driverless couplings are unusable; past the budget everything is
        # dropped.  Neither may consume a budget slot of the other (a
        # driverless strongest coupling must not evict a usable weaker one).
        if info is None or len(aggressor_specs) >= config.max_aggressors:
            skipped.append(aggressor_net)
            continue
        driver_cell, aggressor_length = info
        aggressor_specs.append(
            AggressorSpec(
                net=aggressor_net,
                driver_cell=driver_cell,
                # Worst case: aggressors push the victim away from its
                # quiet rail, all in phase.
                rising=not victim_quiet_high,
                input_transition=config.aggressor_input_transition,
                switch_time=config.aggressor_switch_time,
            )
        )
        aggressor_nets.append(aggressor_net)
        wires.append(
            WireSpec(
                aggressor_net,
                length_um=max(aggressor_length, coupled_length),
                coupled_length_um=coupled_length,
            )
        )

    if not aggressor_specs:
        raise ValueError(f"net '{victim_net}' has no usable aggressors")

    # Place the strongest aggressors adjacent to the victim (one per side).
    victim_wire = WireSpec(victim_net, length_um=victim_length_um)
    ordered = [victim_wire]
    for index, wire in enumerate(wires):
        if index % 2 == 0:
            ordered.insert(0, wire)
        else:
            ordered.append(wire)
    geometry = ParallelBusGeometry(
        wires=ordered,
        layer_index=victim_layer_index,
        name=f"cluster_{victim_net}",
    )

    spec = NoiseClusterSpec(
        victim=VictimSpec(
            net=victim_net,
            driver_cell=victim_driver_cell,
            output_high=victim_quiet_high,
            input_glitch=input_glitch,
            receiver_cell=receiver_cell,
            receiver_pin=receiver_pin,
        ),
        aggressors=aggressor_specs,
        geometry=geometry,
        num_segments=config.num_segments,
        name=f"cluster_{victim_net}",
    )
    return ClusterExtraction(
        victim_net=victim_net,
        spec=spec,
        aggressor_nets=aggressor_nets,
        skipped_aggressors=skipped,
    )


class ClusterExtractor:
    """Builds noise-cluster specifications from design connectivity/coupling.

    Parameters
    ----------
    input_glitches:
        Optional per-victim-net propagated glitches at the victim driver
        input (e.g. computed by an upstream propagation pass).
    """

    def __init__(
        self,
        design: Design,
        *,
        config: Optional[ExtractionConfig] = None,
        input_glitches: Optional[Mapping[str, InputGlitchSpec]] = None,
    ):
        self.design = design
        self.config = config or ExtractionConfig()
        self.input_glitches = dict(input_glitches or {})

    def victim_candidates(self) -> List[str]:
        """Nets that have a driver, at least one receiver and some coupling."""
        index = self.design.connectivity()
        candidates = []
        for net in self.design.nets:
            if net in self.design.primary_inputs:
                continue
            if not index.aggressors_of(net):
                continue
            if index.driver_of(net) is None:
                continue
            if not index.receivers_of(net):
                continue
            candidates.append(net)
        return sorted(candidates)

    def extract_cluster(
        self, victim_net: str, index: Optional[DesignConnectivity] = None
    ) -> ClusterExtraction:
        """Build the noise-cluster specification for one victim net."""
        design = self.design
        if index is None:
            index = design.connectivity()
        victim_driver = index.driver_of(victim_net)
        if victim_driver is None:
            raise ValueError(f"net '{victim_net}' has no driver")
        receivers = index.receivers_of(victim_net)
        if not receivers:
            raise ValueError(f"net '{victim_net}' has no receivers")
        receiver_instance, receiver_pin = receivers[0]
        victim_info = design.nets[victim_net]

        def aggressor_info(net: str) -> Optional[Tuple[str, float]]:
            driver = index.driver_of(net)
            if driver is None:
                return None
            return driver.cell, design.nets[net].length_um

        return build_cluster(
            victim_net,
            config=self.config,
            victim_length_um=victim_info.length_um,
            victim_layer_index=victim_info.layer_index,
            victim_quiet_high=design.net_quiet_level(victim_net),
            victim_driver_cell=victim_driver.cell,
            receiver_cell=receiver_instance.cell,
            receiver_pin=receiver_pin,
            couplings=index.aggressors_of(victim_net),
            aggressor_info=aggressor_info,
            input_glitch=self.input_glitches.get(victim_net),
        )

    def extract_clusters(self) -> List[ClusterExtraction]:
        index = self.design.connectivity()
        return [self.extract_cluster(net, index) for net in self.victim_candidates()]
