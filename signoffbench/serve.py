"""Run an ``AnalysisServer`` with one spawn worker until a client shuts it down.

Prints ``READY <host> <port>`` once the socket is bound.  With
``--trace-out`` the daemon's in-process layers are traced and their
per-layer table is written to that file when the server stops.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args()

    from repro.service import AnalysisServer, start_server_in_thread
    from tracer import Tracer, install_server_layers

    tracer = None
    if args.trace_out is not None:
        tracer = Tracer(install_server_layers)
        tracer.layers(tracer)
    handle = start_server_in_thread(AnalysisServer(num_workers=1, host="127.0.0.1", port=0))
    host, port = handle.address
    print(f"READY {host} {port}", flush=True)
    handle.thread.join()
    if tracer is not None:
        tracer.uninstall()
        args.trace_out.write_text(json.dumps(tracer.layer_table()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
