"""Tests for key-directory persistence (shard state: tests/cluster, tests/store)."""

import pytest

from repro.errors import SerializationError
from repro.pisa.storage import restore_directory, serialize_directory


class TestDirectorySnapshot:
    def test_roundtrip(self, coordinator, pisa_scenario):
        directory = coordinator.stp.directory
        restored = restore_directory(serialize_directory(directory))
        assert restored.group_public_key == directory.group_public_key
        for su in pisa_scenario.sus:
            assert restored.su_key(su.su_id) == directory.su_key(su.su_id)
        assert restored.signing_key("sdc") == directory.signing_key("sdc")

    def test_bad_blob_rejected(self):
        with pytest.raises(SerializationError):
            restore_directory(b"garbage")

    def test_trailing_bytes_rejected(self, coordinator):
        blob = serialize_directory(coordinator.stp.directory)
        with pytest.raises(SerializationError):
            restore_directory(blob + b"\x00")
