"""The WATCH dynamic spectrum-sharing system (plaintext baseline).

Implements Zhang & Knightly's WATCH as described in §III-A and §IV-A of
the PISA paper: the SDC precomputes per-block maximum SU EIRP, PUs update
their channel reception, and SUs request transmission permission, decided
by the interference-budget comparison of eqs. (1)-(7).

This plaintext implementation serves two roles:

1. the *baseline* the paper compares against (no privacy, raw data at
   the SDC);
2. the *correctness oracle* for PISA — the encrypted protocol must reach
   exactly the same grant/deny decisions.
"""
