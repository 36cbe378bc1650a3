"""Unit tests for power/ratio conversions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.radio.units import (
    db_to_linear,
    dbm_to_mw,
    linear_to_db,
    mw_to_dbm,
)


class TestDbmConversions:
    def test_reference_points(self):
        assert dbm_to_mw(0.0) == pytest.approx(1.0)
        assert dbm_to_mw(30.0) == pytest.approx(1000.0)
        assert dbm_to_mw(-30.0) == pytest.approx(0.001)

    def test_inverse(self):
        for dbm in (-120.0, -84.0, 0.0, 36.0):
            assert mw_to_dbm(dbm_to_mw(dbm)) == pytest.approx(dbm)

    def test_mw_to_dbm_rejects_non_positive(self):
        with pytest.raises(ValueError):
            mw_to_dbm(0.0)
        with pytest.raises(ValueError):
            mw_to_dbm(-1.0)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-150, max_value=90))
    def test_roundtrip_property(self, dbm):
        assert mw_to_dbm(dbm_to_mw(dbm)) == pytest.approx(dbm, abs=1e-9)


class TestDbConversions:
    def test_reference_points(self):
        assert db_to_linear(0.0) == pytest.approx(1.0)
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert db_to_linear(3.0) == pytest.approx(1.995, abs=0.01)

    def test_inverse(self):
        for db in (-40.0, 0.0, 15.0):
            assert linear_to_db(db_to_linear(db)) == pytest.approx(db)

    def test_rejects_non_positive_ratio(self):
        with pytest.raises(ValueError):
            linear_to_db(0.0)

