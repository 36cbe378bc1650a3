"""In-memory networking with byte accounting.

The paper's §VI-A evaluation reports *communication overhead* (request
≈29 MB, PU update ≈0.05 MB, response ≈4.1 kb).  This subpackage provides
an in-memory transport that counts every message's exact serialised
size per message kind, so benchmarks can report bytes on the wire
without real sockets; the simulator's link model turns them into time.
"""

from repro.net.latency import ConstantLatency
from repro.net.transport import InMemoryTransport

__all__ = [
    "ConstantLatency",
    "InMemoryTransport",
]
