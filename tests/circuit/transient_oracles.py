"""Reference transients the circuit tests compare the library with.

* :data:`legacy_kernel` -- ``benchmarks/legacy_kernel.py``, loaded by path:
  the element-by-element assembly and the dense transient built on it.
* :func:`run_lanes` -- the lane stepper on any circuit, linear ones
  included, with a chosen time axis, method, Newton budget and backend.
"""

import importlib.util
import os

from repro.circuit.stamping import resolve_backend
from repro.circuit.transient import _initial_state, _run_lanes, build_time_axis
from repro.units import ps

_MODULE_PATH = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "legacy_kernel.py"
)
_spec = importlib.util.spec_from_file_location("legacy_kernel", _MODULE_PATH)
legacy_kernel = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(legacy_kernel)


def run_lanes(
    circuit, lanes, *, t_stop=ps(200), dt=ps(4), method="trap", x0=None, max_newton=50,
    backend="auto",
):
    """:func:`transient_lanes` with a chosen time axis, method, Newton budget
    and backend."""
    circuit.prepare()
    backend = resolve_backend(backend, circuit.kernel.n)
    times = build_time_axis(circuit, t_stop, dt, waveforms=lanes[0])
    x = _initial_state(circuit, x0, None, False, backend)
    return _run_lanes(
        circuit, times, x, lanes, backend=backend, method=method, max_newton=max_newton
    )
