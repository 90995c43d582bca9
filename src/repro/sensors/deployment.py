"""Grids of small /24 sensors and placement strategies.

Figure 5's detection experiments deploy thousands of /24 sensors and
alert each one after it observes ``n`` worm payloads.  A grid keeps
every sensor's state in parallel arrays so observing a million-probe
batch is a single ``searchsorted``.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.net.cidr import BlockSet, CIDRBlock


class SensorGrid:
    """Many /24 sensors with threshold alerting.

    Parameters
    ----------
    slash24_prefixes:
        The ``address >> 8`` prefix of each sensor's /24 block.
        Duplicate prefixes are collapsed.
    alert_threshold:
        A sensor alerts once it has observed this many worm payloads
        ("our detector ... was set to generate an alert after
        observing 5 threat payloads").
    """

    def __init__(self, slash24_prefixes: np.ndarray, alert_threshold: int = 5):
        if alert_threshold < 1:
            raise ValueError("alert threshold must be at least 1")
        prefixes = np.unique(np.asarray(slash24_prefixes, dtype=np.uint32))
        if len(prefixes) == 0:
            raise ValueError("a sensor grid needs at least one sensor")
        if prefixes.max() >= (1 << 24):
            raise ValueError("slash24 prefixes are 24-bit values (addr >> 8)")
        self._prefixes = prefixes
        self.alert_threshold = alert_threshold
        self._payload_counts = np.zeros(len(prefixes), dtype=np.int64)
        self._alert_times = np.full(len(prefixes), np.nan)

    @property
    def num_sensors(self) -> int:
        """Number of distinct /24 sensors in the grid."""
        return len(self._prefixes)

    @property
    def prefixes(self) -> np.ndarray:
        """Sorted /24 prefixes (``addr >> 8``)."""
        return self._prefixes

    def monitored_addresses(self) -> int:
        """Total addresses under observation (256 per sensor)."""
        return self.num_sensors * 256

    def observe(self, targets: np.ndarray, time: float) -> int:
        """Count probes landing on sensors; stamp new alerts at ``time``.

        Returns the number of observed probes.
        """
        targets = np.asarray(targets, dtype=np.uint32).ravel()
        if not len(targets):
            return 0
        probe_prefixes = targets >> np.uint32(8)
        idx = np.searchsorted(self._prefixes, probe_prefixes)
        idx = np.clip(idx, 0, len(self._prefixes) - 1)
        hit = self._prefixes[idx] == probe_prefixes
        if not hit.any():
            return 0
        return self.ingest(targets[hit], time)

    def ingest(self, hit_targets: np.ndarray, time: float) -> int:
        """Record probes already known to land on grid sensors.

        The fast path behind :class:`~repro.sensors.index.SensorIndex`:
        callers must guarantee every target's /24 is one of this
        grid's sensors, so the batch-wide membership scan is skipped.
        """
        if not len(hit_targets):
            return 0
        probe_prefixes = np.asarray(hit_targets, dtype=np.uint32) >> np.uint32(8)
        idx = np.searchsorted(self._prefixes, probe_prefixes)
        sensor_ids, hit_counts = np.unique(idx, return_counts=True)
        below_before = self._payload_counts[sensor_ids] < self.alert_threshold
        self._payload_counts[sensor_ids] += hit_counts
        crossed = below_before & (
            self._payload_counts[sensor_ids] >= self.alert_threshold
        )
        newly_alerted = sensor_ids[crossed]
        self._alert_times[newly_alerted] = time
        return int(len(hit_targets))

    def payload_counts(self) -> np.ndarray:
        """Observed payloads per sensor."""
        return self._payload_counts.copy()

    def alert_times(self) -> np.ndarray:
        """Alert time per sensor (NaN = never alerted)."""
        return self._alert_times.copy()

    def fraction_alerted(self, at_time: Optional[float] = None) -> float:
        """Fraction of sensors alerted (optionally: by ``at_time``)."""
        times = self._alert_times
        alerted = ~np.isnan(times)
        if at_time is not None:
            alerted &= times <= at_time
        return float(alerted.mean())

    def reset(self) -> None:
        """Clear counts and alerts."""
        self._payload_counts[:] = 0
        self._alert_times[:] = np.nan

    # -- checkpoint support -------------------------------------------

    def state_snapshot(self) -> dict:
        """Copy of the per-sensor counts and alert times."""
        return {
            "payload_counts": self._payload_counts.copy(),
            "alert_times": self._alert_times.copy(),
        }

    def state_restore(self, snapshot: dict) -> None:
        """Overwrite counts and alert times from a snapshot."""
        counts = np.asarray(snapshot["payload_counts"], dtype=np.int64)
        times = np.asarray(snapshot["alert_times"], dtype=np.float64)
        if len(counts) != len(self._prefixes) or len(times) != len(
            self._prefixes
        ):
            raise ValueError(
                f"SensorGrid.state_restore: snapshot covers "
                f"{len(counts)} sensors, this grid has "
                f"{len(self._prefixes)}"
            )
        self._payload_counts[:] = counts
        self._alert_times[:] = times


def place_one_per_block(
    blocks: Iterable[CIDRBlock], rng: np.random.Generator
) -> np.ndarray:
    """One random /24 sensor inside each given block.

    The Figure 5(b) placement: "we randomly placed a /24 detector in
    each of the 4481 /16 networks with at least one vulnerable host."
    """
    prefixes = []
    for block in blocks:
        if block.prefix_len > 24:
            raise ValueError(f"block {block} is smaller than a /24")
        candidates = block.slash24_prefixes()
        prefixes.append(candidates[rng.integers(0, len(candidates))])
    if not prefixes:
        raise ValueError("no blocks given")
    return np.array(prefixes, dtype=np.uint32)


def place_random(
    count: int,
    rng: np.random.Generator,
    within: Optional[BlockSet] = None,
) -> np.ndarray:
    """``count`` random /24 sensors, optionally confined to a region.

    Used for Figure 5(c)'s "10,000 /24 sensors randomly throughout
    the IPv4 space" and "randomly inside the top 20 /8 networks".
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if within is None:
        return rng.integers(0, 1 << 24, size=count, dtype=np.uint64).astype(np.uint32)
    addrs = within.random_addresses(count, rng)
    return (addrs >> np.uint32(8)).astype(np.uint32)


def place_within_blocks(
    blocks: Iterable[CIDRBlock],
    rng: np.random.Generator,
    exclude: Optional[BlockSet] = None,
) -> np.ndarray:
    """One random /24 inside each block, skipping excluded blocks.

    The Figure 5(c) targeted placement: one sensor in each /16 of
    192/8, avoiding 192.168/16.
    """
    prefixes = []
    for block in blocks:
        if exclude is not None and block.first in exclude:
            continue
        candidates = block.slash24_prefixes()
        prefixes.append(candidates[rng.integers(0, len(candidates))])
    if not prefixes:
        raise ValueError("every candidate block was excluded")
    return np.array(prefixes, dtype=np.uint32)
