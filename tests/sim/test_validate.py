"""The shared numeric check and the constructors that call it.

Each field below fed a float fold (the DES clock, the ICAP chunk
pipeline, the recovery backoff) and used to accept NaN, and some inf,
because a plain ``value < 0`` test is false for NaN.
"""

from __future__ import annotations

import math

import pytest

from repro.faults import CrcChecker, FaultConfig, RecoveryPolicy
from repro.hardware.icap_controller import IcapTimings
from repro.sim import BandwidthChannel, Simulator
from repro.sim.validate import check_number

NAN = float("nan")
INF = math.inf


class TestCheckNumber:
    @pytest.mark.parametrize("value", [0.0, 1.5, 1e300])
    def test_accepts_finite_non_negative(self, value):
        assert check_number("x", value) == value

    @pytest.mark.parametrize("value", [NAN, INF, -INF, -1e-300])
    def test_rejects(self, value):
        with pytest.raises(ValueError, match="x must be a finite number"):
            check_number("x", value)

    def test_positive(self):
        assert check_number("x", 2.0, positive=True) == 2.0
        with pytest.raises(ValueError, match="> 0"):
            check_number("x", 0.0, positive=True)

    def test_infinite_allowed_on_request(self):
        assert check_number("x", INF, finite=False) == INF
        with pytest.raises(ValueError):
            check_number("x", NAN, finite=False)


def _timings(**kwargs) -> IcapTimings:
    fields = dict(icap_bandwidth=66e6, chunk_bytes=16384, chunk_handshake=1e-4)
    fields.update(kwargs)
    return IcapTimings(**fields)


class TestConstructors:
    @pytest.mark.parametrize("value", [NAN, INF])
    def test_fault_config_seu_rate(self, value):
        with pytest.raises(ValueError, match="seu_rate"):
            FaultConfig(seu_rate=value)

    def test_icap_bandwidth(self):
        with pytest.raises(ValueError, match="icap_bandwidth"):
            _timings(icap_bandwidth=NAN)

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_icap_chunk_handshake(self, value):
        with pytest.raises(ValueError, match="chunk_handshake"):
            _timings(chunk_handshake=value)

    def test_channel_rate(self):
        with pytest.raises(ValueError, match="channel rate"):
            BandwidthChannel(Simulator(), "x", rate=NAN)

    def test_channel_overhead(self):
        with pytest.raises(ValueError, match="channel overhead"):
            BandwidthChannel(Simulator(), "x", rate=1.0, overhead=NAN)

    def test_recovery_backoff(self):
        with pytest.raises(ValueError, match="backoff"):
            RecoveryPolicy(backoff=NAN)

    def test_recovery_cap_may_be_infinite(self):
        assert RecoveryPolicy(backoff=0.1, cap=INF).cap == INF
        with pytest.raises(ValueError, match="cap"):
            RecoveryPolicy(backoff=0.1, cap=NAN)

    def test_recovery_factor(self):
        with pytest.raises(ValueError, match="factor"):
            RecoveryPolicy(backoff=0.1, factor=NAN)

    def test_crc_bandwidth(self):
        with pytest.raises(ValueError, match="CRC bandwidth"):
            CrcChecker(bandwidth=NAN)
