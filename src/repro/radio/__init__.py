"""Radio-propagation substrate.

WATCH's interference computations (§III-A, §IV-A1) rest on a propagation
stack: unit conversions, path-loss models (including the Extended Hata
sub-urban model the paper cites for the initialisation step and the
Longley–Rice irregular terrain model used for mean TV signal strength),
terrain data, antenna/EIRP arithmetic, and UHF/WiFi channel maps.  This
subpackage implements all of it from scratch.
"""
