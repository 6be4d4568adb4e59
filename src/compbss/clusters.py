"""CoMP virtual-cluster configurations for the centre cluster.

A configuration partitions the 21 centre-cluster sectors into virtual
clusters; only groups with more than one sector perform joint transmission.
Sector ids are 1-based everywhere in this module.
"""

from __future__ import annotations

import numpy as np

from .geometry import NetworkLayout

PRESET_NAMES = ("none", "C1", "C2", "C3")

# Same-boresight sectors across the 7 sites cooperate (three groups of 7).
_C1_GROUPS = (
    tuple(range(1, 22, 3)),
    tuple(range(2, 23, 3)),
    tuple(range(3, 24, 3)),
)

# Pairs join facing sectors of adjacent sites, matched by how often the
# partner is the dominant second server of the sector's weak users; the
# three outward-facing edge sectors (1, 15, 17) stay singleton.  Best-effort
# reading of the published pairing, and the one place that holds it.
_C2_PAIRS = (
    (2, 7), (3, 4), (5, 13), (6, 12), (8, 16),
    (9, 10), (11, 20), (14, 21), (18, 19),
)

# Published triples of converging sectors.
_C3_TRIPLES = ((2, 9, 10), (5, 12, 13), (11, 18, 19))


# The multi-sector groups of each preset; every other sector is a singleton.
PRESET_GROUPS = {"none": (), "C1": _C1_GROUPS, "C2": _C2_PAIRS, "C3": _C3_TRIPLES}


def sector_vclusters(name: str, layout: NetworkLayout):
    """Assign a virtual-cluster id to every sector in the field under preset
    ``name``: its multi-sector groups first, in table order, then every other
    sector as a singleton, in sector order.

    Returns (vc_of_sector (S,), vc_sizes (K,), multi_vc_ids) with 0-based ids.
    """
    if name not in PRESET_GROUPS:
        raise ValueError(f"unknown CoMP configuration {name!r} (presets: {PRESET_NAMES})")
    groups = PRESET_GROUPS[name]
    vc_of_sector = np.full(layout.n_sectors, -1, dtype=int)
    for vc, g in enumerate(groups):
        vc_of_sector[np.subtract(g, 1)] = vc
    singles = np.flatnonzero(vc_of_sector < 0)
    vc_of_sector[singles] = len(groups) + np.arange(singles.size)
    return vc_of_sector, np.bincount(vc_of_sector), np.arange(len(groups))
