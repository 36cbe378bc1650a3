"""SU-side license lifecycle management.

Licenses carry a validity window (§IV-B's signed license includes the
operation parameters; ours adds ``issued_at``/``valid_seconds`` so a
stale grant cannot be replayed forever).  A transmitting SU therefore
needs a small state machine: hold a valid license, renew it before
expiry using the cheap re-randomised request path, stop transmitting
the moment renewal is denied (the spectrum situation changed — e.g. a
PU tuned in nearby).

:class:`SuSession` implements that machine over any coordinator with
the PISA round API, with an injectable clock for testability.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import ProtocolError
from repro.pisa.license import TransmissionLicense

__all__ = ["SessionState", "SessionStatus", "SuSession"]


class SessionState(Enum):
    """Where the SU stands with respect to transmission rights."""

    IDLE = "idle"              # never requested, or gave up
    LICENSED = "licensed"      # holds a currently valid license
    EXPIRED = "expired"        # held one; validity window passed
    DENIED = "denied"          # last request was refused


@dataclass(frozen=True)
class SessionStatus:
    """Snapshot returned by :meth:`SuSession.ensure_license`."""

    state: SessionState
    may_transmit: bool
    license: TransmissionLicense | None
    renewals: int
    denials: int


class SuSession:
    """Keeps one SU's transmission rights current.

    Parameters
    ----------
    coordinator:
        Any PISA coordinator (baseline / two-server / packed) whose
        ``run_request_round`` returns a report with ``granted`` and
        ``outcome.license``.
    su_id:
        The enrolled SU this session manages.
    renew_margin_s:
        Renew when less than this many seconds of validity remain —
        covering the round-trip so rights never lapse mid-transmission.
    clock:
        Injectable time source (seconds).
    """

    def __init__(
        self,
        coordinator,
        su_id: str,
        renew_margin_s: int = 300,
        clock=None,
    ) -> None:
        import time

        if renew_margin_s < 0:
            raise ProtocolError("renewal margin cannot be negative")
        self.coordinator = coordinator
        self.su_id = su_id
        self.renew_margin_s = renew_margin_s
        self._clock = clock or time.time
        self._license: TransmissionLicense | None = None
        self._granted = False
        self.renewals = 0
        self.denials = 0
        self._requested_once = False

    # -- state inspection -----------------------------------------------------

    def _license_valid(self, now: float) -> bool:
        return (
            self._granted
            and self._license is not None
            and self._license.is_valid_at(int(now))
        )

    def _needs_renewal(self, now: float) -> bool:
        if not self._license_valid(now):
            return True
        remaining = (
            self._license.issued_at + self._license.valid_seconds - now
        )
        return remaining < self.renew_margin_s

    @property
    def state(self) -> SessionState:
        now = self._clock()
        if self._license_valid(now):
            return SessionState.LICENSED
        if self._granted and self._license is not None:
            return SessionState.EXPIRED
        if self._requested_once:
            return SessionState.DENIED
        return SessionState.IDLE

    @property
    def may_transmit(self) -> bool:
        """True only while a valid, unexpired license is held."""
        return self._license_valid(self._clock())

    # -- the lifecycle driver ----------------------------------------------------

    def ensure_license(self) -> SessionStatus:
        """Request or renew as needed; returns the resulting status.

        The first call runs a full request round; renewals reuse the
        cached encrypted request (the §VI-A fast path).  A denial drops
        transmission rights immediately.
        """
        now = self._clock()
        if self._needs_renewal(now):
            report = self.coordinator.run_request_round(
                self.su_id, reuse_cached_request=self._requested_once
            )
            self._requested_once = True
            if report.granted:
                self._license = report.outcome.license
                self._granted = True
                self.renewals += 1
            else:
                self._license = None
                self._granted = False
                self.denials += 1
        return SessionStatus(
            state=self.state,
            may_transmit=self.may_transmit,
            license=self._license,
            renewals=self.renewals,
            denials=self.denials,
        )
