"""Darknet (blackhole / network telescope) sensors.

A darknet is a routed but unused address block: any packet arriving
there is misconfiguration, backscatter, or scanning.  The IMS sensors
the paper deploys additionally answer TCP SYNs to elicit payloads,
which lets them identify which worm sent a probe; for simulation
purposes a probe arriving at the block *is* an identified observation.

:class:`DarknetSensor` records, per destination /24 inside its block,
both raw probe counts and unique source addresses — the quantities
plotted in Figures 1, 2, 3 and 4.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from repro.net.cidr import CIDRBlock

#: Pending unique (source, bin) pairs tolerated before the per-batch
#: chunks are merged; bounds both memory and the worst-case merge.
PAIR_COMPACT_THRESHOLD = 262_144


class DarknetSensor:
    """One monitored address block with per-/24 accounting.

    Parameters
    ----------
    name:
        Label, e.g. ``"D"`` for the paper's D/20 block.
    block:
        The monitored CIDR block (must be /24 or larger to have /24
        sub-bins; smaller blocks get a single bin).
    """

    def __init__(self, name: str, block: CIDRBlock):
        self.name = name
        self.block = block
        self._bin_count = max(1, block.size // 256)
        self._probe_counts = np.zeros(self._bin_count, dtype=np.int64)
        # Unique (source, /24-bin) pairs accumulate as packed uint64s
        # and deduplicate lazily; chunks merge once the pending volume
        # crosses PAIR_COMPACT_THRESHOLD so long runs stay bounded.
        self._pair_chunks: list[np.ndarray] = []
        self._pending_pairs = 0
        self._unique_pairs: Optional[np.ndarray] = None

    @property
    def num_slash24(self) -> int:
        """Number of /24 bins inside the block."""
        return self._bin_count

    def observe(self, sources: np.ndarray, targets: np.ndarray) -> int:
        """Record the probes that land inside this block.

        Returns how many of the given probes the sensor saw.
        """
        sources = np.asarray(sources, dtype=np.uint32).ravel()
        targets = np.asarray(targets, dtype=np.uint32).ravel()
        inside = self.block.contains_array(targets)
        if not inside.any():
            return 0
        return self.ingest(sources[inside], targets[inside])

    def ingest(self, hit_sources: np.ndarray, hit_targets: np.ndarray) -> int:
        """Record probes already known to land inside this block.

        The fast path behind :class:`~repro.sensors.index.SensorIndex`:
        the shared dispatch already proved containment, so this skips
        the per-sensor membership scan.  Callers must guarantee every
        target lies inside :attr:`block`.
        """
        if not len(hit_targets):
            return 0
        bins = ((hit_targets - np.uint32(self.block.first)) >> np.uint32(8)).astype(
            np.int64
        )
        np.add.at(self._probe_counts, bins, 1)
        packed = (bins.astype(np.uint64) << np.uint64(32)) | hit_sources.astype(
            np.uint64
        )
        chunk = np.unique(packed)
        self._pair_chunks.append(chunk)
        self._pending_pairs += len(chunk)
        self._unique_pairs = None
        if len(self._pair_chunks) > 1 and self._pending_pairs >= PAIR_COMPACT_THRESHOLD:
            self._compact_pairs()
        return int(len(hit_targets))

    def _compact_pairs(self) -> None:
        """Merge pending pair chunks into one deduplicated baseline."""
        merged = np.unique(np.concatenate(self._pair_chunks))
        self._pair_chunks = [merged]
        self._pending_pairs = 0

    def _pairs(self) -> np.ndarray:
        if self._unique_pairs is None:
            if self._pair_chunks:
                self._compact_pairs()
                self._unique_pairs = self._pair_chunks[0]
            else:
                self._unique_pairs = np.empty(0, dtype=np.uint64)
        return self._unique_pairs

    @property
    def total_probes(self) -> int:
        """All probes observed."""
        return int(self._probe_counts.sum())

    def probes_by_slash24(self) -> np.ndarray:
        """Probe count per /24 bin (index 0 = first /24 of the block)."""
        return self._probe_counts.copy()

    def unique_sources_by_slash24(self) -> np.ndarray:
        """Unique source-address count per /24 bin.

        This is the y-axis of the paper's Figures 1, 2 and 4(a).
        """
        pairs = self._pairs()
        counts = np.zeros(self._bin_count, dtype=np.int64)
        if len(pairs):
            bins = (pairs >> np.uint64(32)).astype(np.int64)
            unique_bins, bin_counts = np.unique(bins, return_counts=True)
            counts[unique_bins] = bin_counts
        return counts

    def unique_sources_total(self) -> int:
        """Unique sources seen anywhere in the block."""
        pairs = self._pairs()
        if not len(pairs):
            return 0
        return len(np.unique(pairs & np.uint64(0xFFFFFFFF)))

    def reset(self) -> None:
        """Clear all recorded observations."""
        self._probe_counts[:] = 0
        self._pair_chunks = []
        self._pending_pairs = 0
        self._unique_pairs = None

    # -- checkpoint support -------------------------------------------

    def state_snapshot(self) -> dict:
        """Copy of the observation state, without compacting.

        Chunk layout is internal bookkeeping — two states with
        different chunkings answer every query identically — so the
        snapshot preserves the chunks as-is rather than forcing a
        merge on the checkpoint path.
        """
        return {
            "probe_counts": self._probe_counts.copy(),
            "pair_chunks": [chunk.copy() for chunk in self._pair_chunks],
            "pending_pairs": int(self._pending_pairs),
        }

    def state_restore(self, snapshot: dict) -> None:
        """Overwrite the observation state from a snapshot."""
        counts = np.asarray(snapshot["probe_counts"], dtype=np.int64)
        if len(counts) != self._bin_count:
            raise ValueError(
                f"DarknetSensor.state_restore: snapshot has "
                f"{len(counts)} /24 bins, sensor {self.name!r} has "
                f"{self._bin_count}"
            )
        self._probe_counts[:] = counts
        self._pair_chunks = [
            np.asarray(chunk, dtype=np.uint64).copy()
            for chunk in snapshot["pair_chunks"]
        ]
        self._pending_pairs = int(snapshot["pending_pairs"])
        self._unique_pairs = None


#: Anonymized IMS blocks from the paper with their published sizes.
#: True locations are confidential; these synthetic positions are
#: chosen in distinct /8s, with M inside 192/8 (the paper localizes M
#: there — it is the block that catches the CodeRedII NAT hotspot).
IMS_BLOCK_SPECS: Mapping[str, str] = {
    "A": "61.11.22.0/23",
    "B": "81.44.55.0/24",
    "C": "96.77.88.0/24",
    "D": "133.101.0.0/20",
    "E": "145.66.8.0/21",
    "F": "162.33.4.0/22",
    "G": "176.99.2.0/25",
    "H": "185.23.0.0/18",
    "I": "203.128.0.0/17",
    "M": "192.5.40.0/22",
    "Z": "41.0.0.0/8",
}


def ims_standard_deployment(
    overrides: Optional[Mapping[str, str]] = None,
) -> list[DarknetSensor]:
    """The 11-block IMS-style deployment used throughout the paper.

    ``overrides`` replaces individual block positions (experiments
    that need specific address structure — e.g. the Slammer cycle
    study — pass their own positions for D, H, I).
    """
    specs = dict(IMS_BLOCK_SPECS)
    if overrides:
        specs.update(overrides)
    return [
        DarknetSensor(name, CIDRBlock.parse(text)) for name, text in specs.items()
    ]
