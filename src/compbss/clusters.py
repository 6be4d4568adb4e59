"""CoMP virtual-cluster configurations for the centre cluster.

A configuration partitions the 21 centre-cluster sectors into virtual
clusters; only groups with more than one sector perform joint transmission.
Sector ids are 1-based everywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class CompConfiguration:
    """Partition of the centre-cluster sectors into virtual clusters."""

    name: str
    groups: tuple[tuple[int, ...], ...]   # full partition, singletons included

    def __post_init__(self):
        seen = [s for g in self.groups for s in g]
        if len(seen) != len(set(seen)):
            raise ValueError("a sector appears in more than one virtual cluster")

    @property
    def multi_groups(self) -> tuple[tuple[int, ...], ...]:
        return tuple(g for g in self.groups if len(g) > 1)

    def validate_against(self, layout: NetworkLayout) -> None:
        want = set(int(s) for s in layout.center_cluster_sector_ids)
        got = set(s for g in self.groups for s in g)
        if got != want:
            raise ValueError(
                f"configuration {self.name!r} does not partition the centre-cluster "
                f"sectors (missing {sorted(want - got)}, extra {sorted(got - want)})"
            )


def _with_singletons(name: str, multi: tuple[tuple[int, ...], ...],
                     sector_ids) -> CompConfiguration:
    used = {s for g in multi for s in g}
    singles = tuple((int(s),) for s in sector_ids if int(s) not in used)
    return CompConfiguration(name=name, groups=tuple(tuple(g) for g in multi) + singles)


def preset(name: str, layout: NetworkLayout) -> CompConfiguration:
    """Build one of the shipped configurations: none, C1, C2, or C3."""
    ids = layout.center_cluster_sector_ids
    if name == "none":
        return _with_singletons("none", (), ids)
    if name == "C1":
        return _with_singletons("C1", _C1_GROUPS, ids)
    if name == "C2":
        return _with_singletons("C2", _C2_PAIRS, ids)
    if name == "C3":
        return _with_singletons("C3", _C3_TRIPLES, ids)
    raise ValueError(f"unknown CoMP configuration {name!r} (presets: {PRESET_NAMES})")


def sector_vclusters(config: CompConfiguration, layout: NetworkLayout):
    """Assign a virtual-cluster id to every sector in the field.

    Sectors outside the centre cluster (and unlisted ones) are singletons.
    Returns (vc_of_sector (S,), vc_sizes (K,), multi_vc_ids) with 0-based ids.
    """
    config.validate_against(layout)
    n = layout.n_sectors
    vc_of_sector = np.full(n, -1, dtype=int)
    sizes = []
    multi_ids = []
    for g in config.groups:
        if len(g) > 1:
            vc = len(sizes)
            sizes.append(len(g))
            multi_ids.append(vc)
            for s in g:
                vc_of_sector[s - 1] = vc
    for s in range(n):
        if vc_of_sector[s] < 0:
            vc_of_sector[s] = len(sizes)
            sizes.append(1)
    return vc_of_sector, np.asarray(sizes, dtype=int), np.asarray(multi_ids, dtype=int)
