"""Plaintext WATCH matrices (eqs. (3)-(7) and the §IV-B W-variant).

All protocol state is a ``C × B`` integer matrix (channels × blocks).
Values are quantised mW fixed-point integers (see
:class:`repro.watch.params.WatchParameters.encoder`), held in numpy
``object`` arrays so entries are exact Python big-ints — 60-bit values
multiplied by the SINR constant would overflow ``int64``.

Matrix glossary (paper notation):

========  ==========================================================
``T_i``   PU *i*'s private input: mean TV signal strength at its
          (channel, block), zero elsewhere.
``W_i``   The §IV-B variant ``T_i − E`` at the PU's cell, zero
          elsewhere — this is what the PU actually submits, so the
          SDC can build N without secure comparisons.
``E``     Max SU EIRP per (channel, block), precomputed publicly.
``N``     Interference budget: ``Σ W_i + E``  (= T where a PU is
          present, = E elsewhere) — eq. (4) via eqs. (9)/(10).
``F_j``   SU *j*'s request: ``EIRP · h(d_{i,j})`` per (channel,
          block) within the exclusion distance — eq. (5).
``R_j``   ``F_j · (Δ_SINR + Δ_redn)`` — eq. (6).
``I_j``   ``N − R_j`` — eq. (7); grant iff all entries > 0.
========  ==========================================================
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError, GridError
from repro.geo.grid import BlockGrid
from repro.geo.region import PrivacyRegion
from repro.radio.pathloss import PathLossModel
from repro.radio.units import dbm_to_mw
from repro.watch.entities import PUReceiver, SUTransmitter, TVTransmitter
from repro.watch.params import WatchParameters

__all__ = [
    "zeros_matrix",
    "pu_signal_matrix",
    "pu_update_matrix",
    "aggregate",
    "budget_matrix",
    "su_request_matrix",
    "scaled_interference_matrix",
    "indicator_matrix",
    "initialize_e_matrix",
    "all_positive",
]


def zeros_matrix(num_channels: int, num_blocks: int) -> np.ndarray:
    """A ``C × B`` matrix of exact integer zeros."""
    matrix = np.empty((num_channels, num_blocks), dtype=object)
    matrix[:] = 0
    return matrix


# -- PU side -------------------------------------------------------------------


def pu_signal_matrix(
    pu: PUReceiver, params: WatchParameters, num_blocks: int
) -> np.ndarray:
    """``T_i``: the PU's quantised signal strength at its (channel, block)."""
    if pu.block_index >= num_blocks:
        raise GridError("PU block outside the service area")
    matrix = zeros_matrix(params.num_channels, num_blocks)
    if pu.is_active:
        if pu.channel_slot >= params.num_channels:
            raise ConfigurationError("PU channel outside the channel plan")
        quantised = params.encoder.encode(pu.signal_strength_mw)
        if quantised > params.max_quantised_value:
            raise ConfigurationError("PU signal exceeds the integer representation")
        matrix[pu.channel_slot, pu.block_index] = quantised
    return matrix


def pu_update_matrix(
    pu: PUReceiver, e_matrix: np.ndarray, params: WatchParameters
) -> np.ndarray:
    """``W_i = T_i − E`` at the PU's cell, zero elsewhere (§IV-B, eq. (9) input).

    Submitting ``W`` instead of ``T`` is the paper's trick for building
    the budget matrix without a secure equality test on ``T'(c,b) = 0``.
    An inactive PU submits an all-zero matrix (its previous contribution
    is superseded because the SDC re-aggregates from scratch).
    """
    num_blocks = e_matrix.shape[1]
    matrix = zeros_matrix(params.num_channels, num_blocks)
    if pu.is_active:
        t = pu_signal_matrix(pu, params, num_blocks)
        c, b = pu.channel_slot, pu.block_index
        matrix[c, b] = t[c, b] - e_matrix[c, b]
    return matrix


def aggregate(matrices: Iterable[np.ndarray]) -> np.ndarray:
    """Entry-wise sum of matrices — eq. (3)/(9)'s Σ over all PUs."""
    iterator = iter(matrices)
    try:
        total = next(iterator).copy()
    except StopIteration:
        raise ConfigurationError("aggregate needs at least one matrix") from None
    for matrix in iterator:
        total = total + matrix
    return total


def budget_matrix(w_sum: np.ndarray, e_matrix: np.ndarray) -> np.ndarray:
    """``N = Σ W_i + E`` — eq. (10), realising eq. (4).

    Where a PU receives channel ``c`` in block ``b``, ``W`` cancels the
    ``E`` term and the budget is the TV signal strength ``T'(c,b)``;
    elsewhere the budget is the precomputed max SU EIRP ``E(c,b)``.
    """
    if w_sum.shape != e_matrix.shape:
        raise ConfigurationError("W and E shapes differ")
    return w_sum + e_matrix


# -- SU side --------------------------------------------------------------------


def su_request_matrix(
    su: SUTransmitter,
    grid: BlockGrid,
    params: WatchParameters,
    pathloss_for_channel: Callable[[int], PathLossModel],
    exclusion_distance_for_channel: Callable[[int], float],
    region: PrivacyRegion | None = None,
    channels: Sequence[int] | None = None,
) -> np.ndarray:
    """``F_j(c, i) = S^SU_{c,j} · h(d^c_{i,j})`` — eq. (5).

    ``F`` holds the SU's interference (quantised mW) at every block ``i``
    within the exclusion distance ``d^c`` of the SU's block; entries
    beyond ``d^c``, outside the disclosed ``region``, or on channels the
    SU is not requesting are zero.

    Parameters
    ----------
    pathloss_for_channel:
        Maps a channel slot to the secondary-signal path-loss model
        ``h(·)`` at that channel's frequency.
    exclusion_distance_for_channel:
        Maps a channel slot to ``d^c`` from eq. (1).
    region:
        The disclosed privacy region; ``None`` means full privacy (all
        blocks).  The matrix keeps full ``B`` width — the region only
        limits which entries are non-zero here; the PISA layer shrinks
        the transmitted matrix itself.
    channels:
        Channel slots the SU requests; default all.
    """
    if su.block_index >= grid.num_blocks:
        raise GridError("SU block outside the service area")
    matrix = zeros_matrix(params.num_channels, grid.num_blocks)
    eirp_quantised = params.encoder.encode(su.eirp_mw)
    if eirp_quantised > params.max_quantised_value:
        raise ConfigurationError("SU EIRP exceeds the integer representation")
    requested = range(params.num_channels) if channels is None else channels
    eirp_mw = su.eirp_mw
    for c in requested:
        if not 0 <= c < params.num_channels:
            raise ConfigurationError(f"channel slot {c} outside the plan")
        model = pathloss_for_channel(c)
        d_c = exclusion_distance_for_channel(c)
        for i in grid.blocks_within(su.block_index, d_c):
            if region is not None and i not in region:
                continue
            gain = model.gain_linear(grid.distance_m(su.block_index, i))
            matrix[c, i] = params.encoder.encode(eirp_mw * gain)
    return matrix


def scaled_interference_matrix(f_matrix: np.ndarray, params: WatchParameters) -> np.ndarray:
    """``R_j = F_j · (Δ_TV_SINR + Δ_redn)`` — eq. (6), integer scalar."""
    return f_matrix * params.sinr_plus_redn_int


def indicator_matrix(n_matrix: np.ndarray, r_matrix: np.ndarray) -> np.ndarray:
    """``I_j = N − R_j`` — eq. (7)."""
    if n_matrix.shape != r_matrix.shape:
        raise ConfigurationError("N and R shapes differ")
    return n_matrix - r_matrix


def all_positive(i_matrix: np.ndarray) -> bool:
    """Grant criterion: every entry of ``I`` strictly positive."""
    return bool(all(value > 0 for value in i_matrix.flat))


# -- initialisation ---------------------------------------------------------------


def initialize_e_matrix(
    grid: BlockGrid,
    transmitters: Sequence[TVTransmitter],
    params: WatchParameters,
    tv_pathloss_for_channel: Callable[[int], PathLossModel],
    su_pathloss_for_channel: Callable[[int], PathLossModel],
    channel_of_slot: Callable[[int], int] | None = None,
) -> np.ndarray:
    """Precompute ``E(c, b)``: max SU EIRP per block and channel (§IV-A1).

    Public computation using public data only.  For every channel slot
    and block, a *hypothetical* TV receiver co-located with the block is
    assumed wherever the strongest tower on that slot's physical channel
    still delivers at least the protection threshold ``S^PU_sv_min``.
    Inside such coverage, eq. (2) caps the SU EIRP at

    ``E = S_tv(c, b) / ((Δ_SINR + Δ_redn) · h(d_block))``

    with ``d_block`` one block size (nearest distinct victim site);
    outside all coverage, the cap is the regulatory ``S^SU_max``.

    ``channel_of_slot`` maps virtual slots to a physical channel id so
    slots sharing a physical channel share tower coverage; identity by
    default.
    """
    e_matrix = zeros_matrix(params.num_channels, grid.num_blocks)
    encoder = params.encoder
    s_max_mw = dbm_to_mw(params.max_su_eirp_dbm)
    s_min_mw = dbm_to_mw(params.min_tv_signal_dbm)
    x_linear = params.sinr_plus_redn_linear
    slot_to_physical = channel_of_slot if channel_of_slot is not None else (lambda s: s)

    towers_by_physical: dict[int, list[TVTransmitter]] = {}
    for tower in transmitters:
        towers_by_physical.setdefault(slot_to_physical(tower.channel_slot), []).append(tower)

    max_quantised = encoder.encode(s_max_mw)
    for c in range(params.num_channels):
        physical = slot_to_physical(c)
        towers = towers_by_physical.get(physical, [])
        tv_model = tv_pathloss_for_channel(c)
        su_model = su_pathloss_for_channel(c)
        victim_gain = su_model.gain_linear(grid.block_size_m)
        for block in grid.blocks():
            strongest_mw = 0.0
            for tower in towers:
                distance = math.hypot(
                    tower.x_m - block.center_x_m, tower.y_m - block.center_y_m
                )
                received = dbm_to_mw(tower.eirp_dbm) * tv_model.gain_linear(distance)
                strongest_mw = max(strongest_mw, received)
            if strongest_mw >= s_min_mw:
                cap_mw = min(s_max_mw, strongest_mw / (x_linear * victim_gain))
                quantised = max(1, encoder.encode(cap_mw))
            else:
                quantised = max(1, max_quantised)
            e_matrix[c, block.index] = min(quantised, params.max_quantised_value)
    return e_matrix
