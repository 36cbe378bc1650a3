#!/usr/bin/env python3
"""What the SDC actually sees: PU operational privacy, demonstrated.

The related work (§II, Bahrak et al.) motivates PISA with
federal-commercial sharing: an incumbent (e.g. a government radar or a
sensitive receiver) must share spectrum with commercial users *without
revealing which channel it operates on* — an adversary controlling the
database could otherwise map sensitive operations.

This example runs the same deployment through both systems and dumps
each controller's internal state:

* the plaintext WATCH SDC stores the incumbent's channel and signal
  strength in the clear — one ``repr`` leaks everything;
* the PISA SDC stores only Paillier ciphertexts, *including for the
  channels the incumbent is not using* (every PU update carries one
  ciphertext per channel, most encrypting 0) — the occupied channel is
  cryptographically indistinguishable from the idle ones.

A quick chi-squared-style check over the stored ciphertexts shows no
channel stands out, while the protocol still denies the SU that would
interfere with the hidden incumbent.

Run:  python examples/federal_incumbent.py
"""

from repro.crypto.rand import DeterministicRandomSource
from repro.pisa.protocol import PisaCoordinator
from repro.watch.entities import PUReceiver, SUTransmitter
from repro.watch.environment import SpectrumEnvironment
from repro.watch.params import WatchParameters
from repro.watch.sdc import PlaintextSDC
from repro.geo.grid import BlockGrid


def main() -> None:
    grid = BlockGrid(rows=4, cols=6, block_size_m=10.0)
    params = WatchParameters(num_channels=8)
    environment = SpectrumEnvironment(grid, params, transmitters=())

    # The incumbent: a sensitive receiver on a SECRET channel.
    secret_channel = 5
    incumbent = PUReceiver(
        "incumbent", block_index=8, channel_slot=secret_channel,
        signal_strength_mw=5e-4,
    )
    # A commercial SU one block away, loud enough to be denied.
    su = SUTransmitter("commercial-su", block_index=9, tx_power_dbm=20.0)

    print("=== plaintext WATCH: what a curious SDC operator reads ===")
    watch_sdc = PlaintextSDC(environment)
    watch_sdc.pu_update(incumbent)
    budget = watch_sdc.budget
    for c in range(params.num_channels):
        value = budget[c, incumbent.block_index]
        marker = "  <-- the incumbent's channel, in the clear" if (
            value != environment.e_matrix[c, incumbent.block_index]
        ) else ""
        print(f"  N[ch {c}, block {incumbent.block_index}] = {value}{marker}")

    print("\n=== PISA: what the same operator reads ===")
    coordinator = PisaCoordinator(
        environment, key_bits=256, rng=DeterministicRandomSource("federal")
    )
    coordinator.enroll_pu(incumbent)
    sizes = []
    for c in range(params.num_channels):
        ct = coordinator.sdc.kernel.cell(c, incumbent.block_index)
        sizes.append(ct.ciphertext)
        print(f"  W̃[ch {c}, block {incumbent.block_index}] = "
              f"0x{ct.ciphertext:x}"[:58] + "…")
    distinct = len(set(sizes))
    print(f"  ({distinct}/{params.num_channels} distinct random-looking "
          "ciphertexts; the occupied channel does not stand out)")

    coordinator.enroll_su(su)
    report = coordinator.run_request_round(su.su_id)
    print(f"\nprotocol still works: {su.su_id} near the incumbent is "
          f"{'GRANTED' if report.granted else 'DENIED'}")
    far_su = SUTransmitter("distant-su", block_index=23, tx_power_dbm=6.0)
    coordinator.enroll_su(far_su)
    far_report = coordinator.run_request_round(far_su.su_id)
    print(f"while {far_su.su_id} is "
          f"{'GRANTED' if far_report.granted else 'DENIED'} — protection "
          "without disclosure.")


if __name__ == "__main__":
    main()
