"""Socket error taxonomy mapping and TLS path validation."""

import errno
import socket

import pytest

from repro.errors import (
    ConfigurationError,
    HandshakeTimeoutError,
    IntegrityError,
    LinkDownError,
    PortInUseError,
    TransportError,
)
from repro.netd.transport import TlsSpec, classify_network_error


class TestErrorClassification:
    @pytest.mark.parametrize(
        "raw",
        [
            ConnectionRefusedError("refused"),
            ConnectionResetError("reset"),
            BrokenPipeError("pipe"),
            EOFError("peer closed the connection mid-frame"),
            socket.timeout("timed out"),
            OSError(errno.EHOSTUNREACH, "unreachable"),
        ],
    )
    def test_dead_links_map_to_link_down(self, raw):
        exc = classify_network_error(raw, "shard-0")
        assert isinstance(exc, LinkDownError)
        assert "shard-0" in str(exc)

    def test_addr_in_use_maps_to_port_in_use(self):
        exc = classify_network_error(OSError(errno.EADDRINUSE, "in use"), "stp")
        assert isinstance(exc, PortInUseError)
        assert not isinstance(exc, LinkDownError)  # not retryable in place

    def test_typed_errors_pass_through_unchanged(self):
        original = IntegrityError("frame CRC mismatch")
        # IntegrityError is not a TransportError: corruption must surface,
        # not be retried as a link fault.
        assert not isinstance(original, TransportError)
        kept = classify_network_error(HandshakeTimeoutError("slow"), "p")
        assert isinstance(kept, HandshakeTimeoutError)

    def test_unknown_exceptions_degrade_to_transport_error(self):
        exc = classify_network_error(RuntimeError("?"), "peer")
        assert type(exc) is TransportError

    def test_taxonomy_shape(self):
        # The retry policies key on these subtype relationships.
        assert issubclass(LinkDownError, TransportError)
        assert issubclass(PortInUseError, TransportError)
        assert issubclass(HandshakeTimeoutError, TransportError)
        assert not issubclass(PortInUseError, LinkDownError)


class TestTlsSpec:
    def test_tls_paths_must_exist(self, tmp_path):
        cert = tmp_path / "cert.pem"
        cert.write_text("x", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="keyfile"):
            TlsSpec(certfile=str(cert), keyfile=str(tmp_path / "missing.pem"))
