"""Checkpoint → restore → continue must be bitwise-identical.

The contract of :mod:`repro.runtime.checkpoint` at the engine level:
a run that checkpoints is undisturbed by the capture; a run restored
from any checkpoint finishes with the same ``SimulationResult`` and
the same sensor/grid/containment state as one that never stopped —
across unsharded runs and in-process shards (K in {1,2,4,8}), which
share one tick loop and one snapshot layout.  Snapshots that do not
belong to the run (another spec, a retired format version, a
truncated file) refuse by field name, and the
``kernel_override(False)`` reference oracle refuses checkpointing.
"""

import hashlib
import json
import pickle

import numpy as np
import pytest

from repro.env.environment import NetworkEnvironment
from repro.env.failures import LossModel, RegionLoss
from repro.env.filtering import FilterRule, FilteringPolicy
from repro.net.cidr import BlockSet, CIDRBlock
from repro.net.kernels import kernel_override
from repro.population.model import HostPopulation
from repro.runtime.checkpoint import (
    FORMAT_NAME,
    CheckpointError,
    checkpoint_filename,
    latest_checkpoint,
    recovery_collection,
    spec_hash,
)
from repro.sensors.darknet import ims_standard_deployment
from repro.sensors.deployment import SensorGrid
from repro.sim.containment import QuorumTriggeredContainment
from repro.sim.spec import SimulationSpec, simulate
from repro.worms.hitlist import HitListWorm
from repro.worms.uniform import UniformScanWorm

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def figure_spec(seed=2006, num_hosts=3000, shards=None, **overrides):
    """A small figure1-shaped outbreak: policy, loss, IMS, a grid."""
    rng = np.random.default_rng(seed)
    addrs = np.unique(
        rng.integers(
            1 << 24, 224 << 24, size=num_hosts, dtype=np.uint64
        ).astype(np.uint32)
    )
    policy = FilteringPolicy(
        [
            FilterRule("egress", CIDRBlock.parse("20.0.0.0/8")),
            FilterRule("ingress", CIDRBlock.parse("60.0.0.0/8")),
        ]
    )
    loss = LossModel(
        base_rate=0.05,
        region_losses=[RegionLoss(CIDRBlock.parse("100.0.0.0/8"), 0.5)],
    )
    grid = SensorGrid(
        np.random.default_rng(seed + 1)
        .integers(0, 1 << 24, size=400, dtype=np.uint64)
        .astype(np.uint32),
        alert_threshold=3,
    )
    kwargs = dict(
        worm=UniformScanWorm(),
        population=HostPopulation(addrs),
        environment=NetworkEnvironment(policy=policy, loss=loss),
        sensors=tuple(ims_standard_deployment()),
        sensor_grids=(grid,),
        scan_rate=10.0,
        max_time=20.0,
        seed_count=300,
        shards=shards,
    )
    kwargs.update(overrides)
    return SimulationSpec(**kwargs)


def hitlist_spec(seed=7, shards=None, **overrides):
    """Hit-list growth across two /16s in different halves of space."""
    rng = np.random.default_rng(seed)
    hitlist = BlockSet(
        [CIDRBlock.parse("10.1.0.0/16"), CIDRBlock.parse("200.7.0.0/16")]
    )
    addrs = np.unique(hitlist.random_addresses(4_000, rng))
    kwargs = dict(
        worm=HitListWorm(hitlist),
        population=HostPopulation(addrs),
        scan_rate=5.0,
        max_time=40.0,
        seed_count=5,
        stop_at_fraction=0.9,
        shards=shards,
    )
    kwargs.update(overrides)
    return SimulationSpec(**kwargs)


def assert_sensor_state_equal(spec_a, spec_b):
    for sensor_a, sensor_b in zip(spec_a.sensors, spec_b.sensors):
        assert np.array_equal(
            sensor_a.probes_by_slash24(), sensor_b.probes_by_slash24()
        )
        assert np.array_equal(
            sensor_a.unique_sources_by_slash24(),
            sensor_b.unique_sources_by_slash24(),
        )
    for grid_a, grid_b in zip(spec_a.sensor_grids, spec_b.sensor_grids):
        assert np.array_equal(
            grid_a.payload_counts(), grid_b.payload_counts()
        )
        assert np.array_equal(
            grid_a.alert_times(), grid_b.alert_times(), equal_nan=True
        )


def checkpoint_restore_roundtrip(
    build, tmp_path, *, shards=None, every=7, **overrides
):
    """Clean vs checkpointed vs restored — all three must agree."""
    reference_spec = build(shards=shards, **overrides)
    reference = simulate(reference_spec, 42)

    checkpointed_spec = build(
        shards=shards, checkpoint_every=every, **overrides
    )
    checkpointed = simulate(
        checkpointed_spec,
        42,
        checkpoint_dir=tmp_path,
    )
    assert checkpointed == reference, "capture disturbed the run"
    assert_sensor_state_equal(reference_spec, checkpointed_spec)

    restored_spec = build(shards=shards, **overrides)
    restored = simulate(restored_spec, 42, restore_from=tmp_path)
    assert restored == reference, "restored run diverged"
    assert_sensor_state_equal(reference_spec, restored_spec)
    return reference


class TestSerialRoundtrip:
    def test_serial(self, tmp_path):
        checkpoint_restore_roundtrip(figure_spec, tmp_path)

    def test_serial_fractional_rate_and_patching(self, tmp_path):
        # The accumulator carry and the patch RNG stage both live in
        # the snapshot; a fractional budget exercises the carry.
        checkpoint_restore_roundtrip(
            figure_spec, tmp_path, scan_rate=2.5, patch_rate=0.01
        )

    def test_serial_hitlist(self, tmp_path):
        checkpoint_restore_roundtrip(hitlist_spec, tmp_path)

    def test_serial_containment(self, tmp_path):
        def build(shards=None, **overrides):
            spec = figure_spec(shards=shards, **overrides)
            return spec.with_(
                containment=QuorumTriggeredContainment(
                    spec.sensor_grids[0],
                    quorum_fraction=0.02,
                    reaction_delay=3.0,
                )
            )

        checkpoint_restore_roundtrip(build, tmp_path)

    def test_restore_from_every_checkpoint(self, tmp_path):
        # Not just the latest: any snapshot continues identically.
        reference = simulate(figure_spec(), 42)
        simulate(
            figure_spec(checkpoint_every=5),
            42,
            checkpoint_dir=tmp_path,
        )
        files = sorted(tmp_path.glob("tick-*.ckpt"))
        assert len(files) >= 2
        for file in files:
            assert simulate(figure_spec(), 42, restore_from=file) == (
                reference
            )


class TestShardedRoundtrip:
    @pytest.mark.parametrize("shards", [1, 2, 4, 8])
    def test_sharded(self, tmp_path, shards):
        checkpoint_restore_roundtrip(figure_spec, tmp_path, shards=shards)

    def test_sharded_fractional_rate_and_patching(self, tmp_path):
        checkpoint_restore_roundtrip(
            figure_spec,
            tmp_path,
            shards=4,
            scan_rate=2.5,
            patch_rate=0.01,
        )

    def test_sharded_hitlist(self, tmp_path):
        checkpoint_restore_roundtrip(hitlist_spec, tmp_path, shards=2)

    def test_sharded_containment(self, tmp_path):
        def build(shards=None, **overrides):
            spec = figure_spec(shards=shards, **overrides)
            return spec.with_(
                containment=QuorumTriggeredContainment(
                    spec.sensor_grids[0],
                    quorum_fraction=0.02,
                    reaction_delay=3.0,
                )
            )

        checkpoint_restore_roundtrip(build, tmp_path, shards=4)


class TestUnshardedIsOneShard:
    """``shards=None`` and ``shards=1`` are one run: they hash alike
    and restore each other's checkpoints bitwise."""

    @pytest.mark.parametrize(
        "written, restored", [(None, 1), (1, None)]
    )
    def test_checkpoints_cross_restore(self, tmp_path, written, restored):
        reference_spec = figure_spec(shards=restored)
        reference = simulate(reference_spec, 42)
        simulate(
            figure_spec(shards=written, checkpoint_every=7),
            42,
            checkpoint_dir=tmp_path,
        )
        restored_spec = figure_spec(shards=restored)
        assert simulate(restored_spec, 42, restore_from=tmp_path) == (
            reference
        )
        assert_sensor_state_equal(reference_spec, restored_spec)


def write_version_1_checkpoint(directory, spec, mode, payload):
    """Write a version 1 checkpoint file (header ``mode``, matching
    spec hash) for tick 6 under ``directory``."""
    data = pickle.dumps(payload)
    header = {
        "format": FORMAT_NAME,
        "version": 1,
        "spec_hash": spec_hash(spec),
        "mode": mode,
        "tick": 6,
        "payload_bytes": len(data),
        "payload_sha256": hashlib.sha256(data).hexdigest(),
    }
    (directory / checkpoint_filename(6)).write_bytes(
        json.dumps(header).encode() + b"\n" + data
    )


class TestRestoreValidation:
    def test_wrong_spec_refuses(self, tmp_path):
        simulate(
            figure_spec(checkpoint_every=7), 42, checkpoint_dir=tmp_path
        )
        with pytest.raises(CheckpointError, match="checkpoint.spec_hash"):
            simulate(figure_spec(scan_rate=9.0), 42, restore_from=tmp_path)

    def test_serial_checkpoint_refuses_shard_restore(self, tmp_path):
        # Version 1 wrote serial runs as header mode "serial"; one
        # layout replaced the modes, so such a file refuses a sharded
        # restore at the version check even when its spec hash matches.
        spec = figure_spec(shards=4)
        write_version_1_checkpoint(
            tmp_path, spec, "serial", {"times": [], "accumulator": None}
        )
        with pytest.raises(CheckpointError, match="checkpoint.version"):
            simulate(spec, 42, restore_from=tmp_path)

    def test_pool_layout_checkpoint_refuses(self, tmp_path):
        # Process-pool shard runs wrote version 1 files with per-worker
        # sensor clones under layout "pool"; such a file must refuse
        # by name, never mis-restore.
        spec = figure_spec(shards=4)
        write_version_1_checkpoint(
            tmp_path,
            spec,
            "shard",
            {"layout": "pool", "engines": [], "sensors": None},
        )
        with pytest.raises(CheckpointError, match="checkpoint.version"):
            simulate(spec, 42, restore_from=tmp_path)

    def test_different_shard_plan_refuses(self, tmp_path):
        # Shard boundaries shape the payload, so they are part of the
        # spec identity: a different K refuses at the hash check.
        simulate(
            figure_spec(shards=4, checkpoint_every=7),
            42,
            checkpoint_dir=tmp_path,
        )
        with pytest.raises(CheckpointError, match="checkpoint.spec_hash"):
            simulate(figure_spec(shards=2), 42, restore_from=tmp_path)

    def test_truncated_snapshot_refuses(self, tmp_path):
        simulate(
            figure_spec(checkpoint_every=7), 42, checkpoint_dir=tmp_path
        )
        target = latest_checkpoint(tmp_path)
        target.write_bytes(target.read_bytes()[:-10])
        with pytest.raises(
            CheckpointError, match="checkpoint.payload_bytes"
        ):
            simulate(figure_spec(), 42, restore_from=target)

    def test_checkpoint_dir_needs_a_cadence(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every"):
            simulate(figure_spec(), 42, checkpoint_dir=tmp_path)

    def test_cadence_validation(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            figure_spec(checkpoint_every=0)
        with pytest.raises(TypeError, match="checkpoint_every"):
            figure_spec(checkpoint_every=2.5)

    @pytest.mark.parametrize(
        "argument", ["checkpoint_dir", "restore_from"]
    )
    def test_reference_oracle_refuses_checkpoints(self, tmp_path, argument):
        spec = figure_spec(checkpoint_every=7)
        with kernel_override(False):
            with pytest.raises(ValueError, match=argument):
                simulate(spec, 42, **{argument: tmp_path})


class TestRecoveryEvents:
    def test_recovery_events_include_checkpoints_and_restores(
        self, tmp_path
    ):
        with recovery_collection() as log:
            simulate(
                figure_spec(checkpoint_every=5),
                42,
                checkpoint_dir=tmp_path,
            )
            simulate(figure_spec(), 42, restore_from=tmp_path)
        kinds = [event["kind"] for event in log.events]
        assert kinds.count("checkpoint") >= 2
        assert "restore" in kinds
        restore = next(
            event for event in log.events if event["kind"] == "restore"
        )
        assert restore["path"] == str(tmp_path)
