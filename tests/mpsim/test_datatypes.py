"""Tests for message envelopes and payload sizing."""

import numpy as np

from repro.mpsim.datatypes import Envelope, payload_nbytes


class TestPayloadNbytes:
    def test_numpy_array(self):
        assert payload_nbytes(np.zeros(10, dtype=np.int64)) == 80

    def test_bytes(self):
        assert payload_nbytes(b"abcd") == 4

    def test_none(self):
        assert payload_nbytes(None) == 0

    def test_scalar(self):
        assert payload_nbytes(3.14) == 8
        assert payload_nbytes(7) == 8

    def test_numeric_tuple(self):
        assert payload_nbytes((1, 2, 3)) == 24

    def test_generic_object_uses_pickle_size(self):
        size = payload_nbytes({"key": "value"})
        assert size > 0


class TestEnvelope:
    def test_ordering_by_time_then_seq(self):
        early = Envelope(deliver_at=1.0, seq=2, source=0, dest=0, tag=0, payload=None)
        late = Envelope(deliver_at=2.0, seq=1, source=0, dest=0, tag=0, payload=None)
        tie = Envelope(deliver_at=1.0, seq=3, source=0, dest=0, tag=0, payload=None)
        assert sorted([late, tie, early]) == [early, tie, late]
