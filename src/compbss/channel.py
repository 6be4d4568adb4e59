"""Path loss, antenna pattern, shadowing, received power and the MCS lookup.

The paper simulates one channel setup, so its parameters are the module
constants below, which every stage reads instead of taking an argument.

The channel stages end in dB: a fading draw is the shadowed link budget
``budget - sigma * n`` of every (user, sector) link.  SINRs and link rates
are computed by the scheduler stages, in linear units, on the rows that
:func:`received_power_w` converts, and dB appears otherwise only at the
interfaces.  Channels are frequency flat: one gain per (user, sector) link
serves every subchannel.

The drop stage (:func:`drop_link_budget`) and the fading stage
(:func:`draw_gain_matrix`) write each of their (U, S) arrays once and run
every later step in place.  The drop gathers the bearings into one array,
which becomes the antenna gain, and the path losses into a second, which
serves the angle wrap as scratch first and becomes the budget.  A fading
draw fills one buffer with the standard normal draw, which becomes the
shadowed budget.  :func:`received_power_w` then turns the rows the
scheduler reads into watts: ``/10``, ``10**`` and ``x P_s``, in that order.
Each step is the operation of the expression it replaces, in the same
order, so every bit is kept, and a converted row has the bits it has in a
conversion of the whole draw.  The draw is the floor of a realization on
one thread, but ``standard_normal(out=)`` fills its buffer without the
interpreter lock.  So the realization stream (``campaign._realizations``)
makes the draws on a helper thread while the caller schedules, when a core
is free for it.  Within a drop each next draw goes into the other of two
draw buffers while the current draw is read: the ``desk`` benchmark went from
193 to 247 realizations/s (medians of 10 alternating 30 s pairs on a 2-core
Xeon, all 10 won).  A drop's first draw is split: the helper makes its
standard normal draw (:func:`_standard_normal`) while the caller schedules
the drop before and builds this one, and the caller turns it into gains
(:func:`_shadowed`), which gives a drop of one draw, as in the fig4 sweep
and every traffic step, a draw to overlap too: ``traffic_day`` went from
97.4 to 116.9 realizations/s (medians of 10 alternating 30 s pairs, all 10
won).

Given the campaign's :class:`~compbss.geometry.DropScratch`, both stages
write into it instead of allocating (its roles are laid out in
:mod:`compbss.geometry`): the path loss follows the drop's bearings and the
budget the path loss, and the antenna gain's table becomes the draw table
(:func:`draw_gain_matrix`).  The realization stream puts a drop's odd draws
there and its even ones, the first included, in the scratch's first-draw
buffer.  The budget stays valid until the next drop on the scratch, and a
draw until the next draw into its table (or buffer) or the next drop.
Without a scratch each call returns fresh arrays, with the same bits.  In
the fig4 benchmark grid the link budget's fresh arrays took 1.6k-2.3k minor
page faults per CLI campaign whenever glibc returned its heap pages, and
about 6 in the scratch (2-core Xeon, means of 30 in-process campaigns).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (_BUDGET, _DRAW, _PATH_LOSS, DropScratch, NetworkLayout, UserDrop,
                       _array, _wrap_angle_in_place)


# 3GPP-style urban macro parameters (uniform power, reuse factor 1).
P_BS_DBM = 46.0
NUM_SUBCHANNELS = 99
NOISE_W = 2.2661e-15                 # per subchannel
PENETRATION_LOSS_DB = 20.0
USER_ANTENNA_GAIN_DBI = 0.0
SHADOWING_STDDEV_DB = 8.0
PL_INTERCEPT_DB = 136.8245
PL_SLOPE_DB = 39.086
# Link rate in bits/s per bits/symbol of MCS efficiency: 12 subcarriers x 14
# symbols per subchannel in each 1 ms subframe.
RATE_PER_BITS_SYMBOL = 12 * 14 * NUM_SUBCHANNELS / 1e-3
# Transmit power per sector per subchannel: P_BS / (3 M), in watts.
PER_SUBCHANNEL_POWER_W = 10.0 ** ((P_BS_DBM - 30.0) / 10.0) / (3.0 * NUM_SUBCHANNELS)


def path_loss_db(d_m, out=None):
    """Distance-to-path-loss in dB; valid for d >= 1 m (clamp upstream).
    Written into ``out`` when given."""
    pl = np.log10(d_m, out=out)
    pl -= 3.0
    pl *= PL_SLOPE_DB
    pl += PL_INTERCEPT_DB
    return pl


def _directivity_gain_in_place(phi):
    """Sector antenna gain 25 - min{12*(phi/70)^2, 20} dB, written over the
    offsets ``phi``."""
    phi /= 70.0
    np.square(phi, out=phi)
    phi *= 12.0
    np.minimum(phi, 20.0, out=phi)
    return np.subtract(25.0, phi, out=phi)


def _link_budget_in_place(budget, sector_gain_db):
    """-PL + G_s + G_u - penetration in dB, written over the path loss in
    ``budget``.  The terms are added left to right and the shadowing comes
    off last, so one budget per drop gives each draw the bits of the sum."""
    np.negative(budget, out=budget)
    budget += sector_gain_db
    budget += USER_ANTENNA_GAIN_DBI
    budget -= PENETRATION_LOSS_DB
    return budget


@dataclass(frozen=True, eq=False)
class McsTable:
    """Adaptive modulation and coding lookup (step function, left closed)."""

    thresholds_db: np.ndarray
    bits_per_symbol: np.ndarray

    def efficiency(self, snr_db):
        """bits/symbol for the given SINR(s); 0 below the first threshold."""
        snr = np.asarray(snr_db, dtype=float)
        idx = np.searchsorted(self.thresholds_db, snr, side="right") - 1
        out = np.where(idx >= 0, self.bits_per_symbol[np.maximum(idx, 0)], 0.0)
        return out if snr.ndim else float(out)


# The one table of every link rate: its first threshold is also the SINR
# coverage floor and the lowest CoMP threshold gamma_d.
MCS_TABLE = McsTable(
    thresholds_db=np.array([-6.5, -4.0, -2.6, -1.0, 1.0, 3.0, 6.6, 10.0,
                            11.4, 11.8, 13.0, 13.8, 15.6, 16.8, 17.6]),
    bits_per_symbol=np.array([0.15, 0.23, 0.38, 0.60, 0.88, 1.18, 1.48, 1.91,
                              2.41, 2.73, 3.32, 3.90, 4.52, 5.12, 5.55]))


def drop_link_budget(layout: NetworkLayout, drop: UserDrop,
                     scratch: DropScratch | None = None) -> np.ndarray:
    """Drop-level stage: the (U, S) link budget in dB of every link.

    Distance, bearing, path loss and antenna gain do not depend on fading, so
    one budget serves every fading draw of the drop.  Distance and bearing
    come from the drop itself, which kept them from its image search.  The
    stage takes two (U, S) arrays and the (U, B) path loss: fresh ones, or
    the drop's ``scratch``, where the budget stays valid until its next drop.
    """
    table = drop.link_dist_m.size
    shape = (drop.n_users, layout.n_sectors)
    # mode="clip" (the indices are in range) writes straight into out;
    # mode="raise" would buffer a copy.
    gain_db = np.take(drop.link_az_deg, layout.sector_bs, axis=1, mode="clip",
                      out=_array(scratch, _DRAW * table, shape))
    gain_db -= layout.sector_boresight_deg
    budget = _array(scratch, _BUDGET * table, shape)  # the wrap's scratch, then the path loss
    _directivity_gain_in_place(_wrap_angle_in_place(gain_db, budget))
    pl = path_loss_db(drop.link_dist_m,
                      out=_array(scratch, _PATH_LOSS * table, drop.link_dist_m.shape))
    np.take(pl, layout.sector_bs, axis=1, out=budget, mode="clip")
    del pl
    return _link_budget_in_place(budget, gain_db)


def draw_gain_matrix(budget_db: np.ndarray, seed,
                     scratch: DropScratch | None = None) -> np.ndarray:
    """Fading-level stage: the (U, S) gains in dB of a drop's link budget
    under shadowing, ``budget - sigma * n``.

    Shadowing is an i.i.d. lognormal term per link, redrawn per realization;
    the same seed reproduces the matrix exactly.  The standard normal draw
    is scaled by sigma (the bits of ``normal(0, sigma)``) and subtracted
    from the budget in place, in one (U, S) array: a fresh one, or the draw
    table of the budget's ``scratch``, the table that held the antenna gain,
    where the draw stays valid until the next draw into it or the next drop.
    The realization stream makes every other draw of a drop in the same two
    steps, :func:`_standard_normal` and :func:`_shadowed`, in the scratch's
    ``first_draw`` buffer instead.
    """
    table = budget_db.size // 3     # one (U, B) table: S = 3 B
    return _shadowed(budget_db, _standard_normal(
        seed, _array(scratch, _DRAW * table, budget_db.shape)))


def _standard_normal(seed, out: np.ndarray) -> np.ndarray:
    """The standard normal draw of the shadowing under ``seed``, in ``out``."""
    return np.random.default_rng(seed).standard_normal(out=out)


def _shadowed(budget_db: np.ndarray, shadow: np.ndarray) -> np.ndarray:
    """``budget - sigma * n`` in the array of the standard normal draw n."""
    shadow *= SHADOWING_STDDEV_DB
    return np.subtract(budget_db, shadow, out=shadow)


def build_gain_matrix(layout: NetworkLayout, drop: UserDrop, seed,
                      scratch: DropScratch | None = None) -> np.ndarray:
    """Gains in dB of every (user, sector) link: both stages in one call, in
    the drop's ``scratch`` when given."""
    return draw_gain_matrix(drop_link_budget(layout, drop, scratch), seed, scratch)


def received_power_w(gain_db: np.ndarray, rows=None) -> np.ndarray:
    """Per-subchannel received power P_s * 10^(g/10) in watts, of every link
    or of the draw rows in the index array ``rows``.

    The gains are divided by 10, raised and scaled in that order, in one new
    array, so each row has the same bits whichever rows are converted.
    """
    power = gain_db.copy() if rows is None else np.take(gain_db, rows, axis=0)
    power /= 10.0
    np.power(10.0, power, out=power)
    power *= PER_SUBCHANNEL_POWER_W
    return power


def to_db(linear):
    return 10.0 * np.log10(linear)


def from_db(db):
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)
