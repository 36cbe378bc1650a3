"""PISA — the paper's privacy-preserving spectrum-access protocol (§IV).

Four parties (Figure 3):

* :class:`~repro.pisa.pu_client.PUClient` — encrypts channel-reception
  updates under the group key (Figure 4);
* :class:`~repro.pisa.su_client.SUClient` — prepares encrypted
  transmission requests and decrypts license responses (Figure 5);
* :class:`~repro.pisa.sdc_server.SdcServer` — performs the spectrum
  computation homomorphically, eqs. (9)-(12), (14), (16), (17);
* :class:`~repro.pisa.stp_server.StpServer` — the semi-trusted third
  party holding the group secret key: sign extraction (eq. (15)) and key
  conversion to each SU's personal key.

:class:`~repro.pisa.protocol.PisaCoordinator` wires them together over an
accounted transport and runs complete protocol rounds.

The package re-exports only what a socket worker loads anyway (keys,
blinding, licences, the STP); the clients, the SDC front and every
coordinator (:mod:`~repro.pisa.protocol`, :mod:`~repro.pisa.packed`,
:mod:`~repro.pisa.two_server`, :mod:`~repro.pisa.negotiation`,
:mod:`~repro.pisa.session`) are imported from their own modules, so an
STP worker never loads the plaintext map or numpy.
"""

from repro.pisa.blinding import BlindingFactory, BlindingParameters
from repro.pisa.keys import KeyDirectory
from repro.pisa.license import TransmissionLicense
from repro.pisa.stp_server import StpServer

__all__ = [
    "BlindingFactory",
    "BlindingParameters",
    "KeyDirectory",
    "TransmissionLicense",
    "StpServer",
]
