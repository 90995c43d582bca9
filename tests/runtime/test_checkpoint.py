"""The mid-run checkpoint format: writes, validation, recovery events.

Restore must either reconstruct exactly or refuse with an error
naming the offending field — silent divergence is the one failure
mode this format exists to rule out.  The engine-level
checkpoint→restore→continue bitwise guarantees live in
``tests/sim/test_checkpoint_restore.py``; this file covers the format
itself.
"""

import json

import numpy as np
import pytest

from repro.population.model import HostPopulation
from repro.runtime.checkpoint import (
    FORMAT_VERSION,
    CheckpointError,
    Checkpointer,
    JOURNAL_NAME,
    checkpoint_filename,
    latest_checkpoint,
    load_checkpoint,
    record_recovery,
    recovery_collection,
    spec_hash,
)
from repro.runtime.faults import MIDRUN_FAULT_ENV
from repro.sim.spec import SimulationSpec
from repro.worms.uniform import UniformScanWorm

SPEC_HASH = "a" * 64


@pytest.fixture
def checkpointer(tmp_path):
    return Checkpointer(tmp_path, every=5, spec_hash=SPEC_HASH)


def small_spec(**overrides):
    rng = np.random.default_rng(3)
    addrs = np.unique(
        rng.integers(1 << 24, 200 << 24, size=500, dtype=np.uint64).astype(
            np.uint32
        )
    )
    kwargs = dict(
        worm=UniformScanWorm(),
        population=HostPopulation(addrs),
        scan_rate=5.0,
        max_time=10.0,
        seed_count=3,
    )
    kwargs.update(overrides)
    return SimulationSpec(**kwargs)


class TestCadence:
    def test_due_fires_every_n_ticks(self, checkpointer):
        due = [tick for tick in range(20) if checkpointer.due(tick)]
        assert due == [4, 9, 14, 19]

    def test_every_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="at least 1"):
            Checkpointer(tmp_path, every=0, spec_hash=SPEC_HASH)


class TestWriteAndLoad:
    def test_round_trip(self, checkpointer, tmp_path):
        payload = {"rng_state": {"state": 7}, "times": [0.0, 1.0]}
        path = checkpointer.write(9, payload)
        assert path.name == checkpoint_filename(9)

        loaded = load_checkpoint(path, expected_spec_hash=SPEC_HASH)
        assert loaded["rng_state"] == {"state": 7}
        assert loaded["times"] == [0.0, 1.0]
        # Header facts ride into the payload for the restore path.
        assert loaded["tick"] == 9

    def test_write_is_indexed_in_the_journal(self, checkpointer, tmp_path):
        checkpointer.write(4, {"x": 1})
        checkpointer.write(9, {"x": 2})
        lines = (tmp_path / JOURNAL_NAME).read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [record["tick"] for record in records] == [4, 9]
        assert all(record["spec_hash"] == SPEC_HASH for record in records)

    def test_latest_checkpoint_picks_the_highest_tick(
        self, checkpointer, tmp_path
    ):
        for tick in (4, 19, 9):
            checkpointer.write(tick, {"tick_was": tick})
        assert latest_checkpoint(tmp_path).name == checkpoint_filename(19)
        # load_checkpoint accepts the directory directly.
        loaded = load_checkpoint(tmp_path)
        assert loaded["tick_was"] == 19

    def test_empty_directory_names_the_path(self, tmp_path):
        with pytest.raises(CheckpointError, match="checkpoint.path"):
            latest_checkpoint(tmp_path)

    def test_no_stale_temp_files_after_write(self, checkpointer, tmp_path):
        checkpointer.write(4, {"x": 1})
        assert not list(tmp_path.glob("*.tmp"))


class TestValidationNamesTheField:
    """Satellite contract: every refusal names what failed."""

    def write_one(self, tmp_path, tick=4, payload=None):
        checkpointer = Checkpointer(tmp_path, every=5, spec_hash=SPEC_HASH)
        return checkpointer.write(tick, payload or {"x": 1})

    def test_wrong_spec_hash(self, tmp_path):
        path = self.write_one(tmp_path)
        with pytest.raises(CheckpointError, match="checkpoint.spec_hash"):
            load_checkpoint(path, expected_spec_hash="b" * 64)

    def test_truncated_payload(self, tmp_path):
        path = self.write_one(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(
            CheckpointError, match="checkpoint.payload_bytes"
        ):
            load_checkpoint(path)

    def test_corrupted_payload_byte(self, tmp_path):
        path = self.write_one(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(
            CheckpointError, match="checkpoint.payload_sha256"
        ):
            load_checkpoint(path)

    def test_future_format_version(self, tmp_path):
        path = self.write_one(tmp_path)
        raw = path.read_bytes()
        newline = raw.find(b"\n")
        header = json.loads(raw[:newline])
        header["version"] = FORMAT_VERSION + 1
        path.write_bytes(
            json.dumps(header).encode() + b"\n" + raw[newline + 1 :]
        )
        with pytest.raises(CheckpointError, match="checkpoint.version"):
            load_checkpoint(path)

    def test_foreign_format(self, tmp_path):
        path = self.write_one(tmp_path)
        raw = path.read_bytes()
        newline = raw.find(b"\n")
        header = json.loads(raw[:newline])
        header["format"] = "other-tool"
        path.write_bytes(
            json.dumps(header).encode() + b"\n" + raw[newline + 1 :]
        )
        with pytest.raises(CheckpointError, match="checkpoint.format"):
            load_checkpoint(path)

    def test_garbage_header(self, tmp_path):
        path = tmp_path / checkpoint_filename(0)
        path.write_bytes(b"\x80\x04not json\nwhatever")
        with pytest.raises(CheckpointError, match="checkpoint.header"):
            load_checkpoint(path)

    def test_headerless_file(self, tmp_path):
        path = tmp_path / checkpoint_filename(0)
        path.write_bytes(b"no newline at all")
        with pytest.raises(CheckpointError, match="checkpoint.header"):
            load_checkpoint(path)

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(CheckpointError, match="checkpoint.path"):
            load_checkpoint(tmp_path / "missing.ckpt")


class TestInjectedWriterFaults:
    """The env-injected chaos hooks corrupt real writes, and the
    loader's validation catches both end to end."""

    def test_corrupt_checkpoint_fault(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            MIDRUN_FAULT_ENV,
            json.dumps({"kind": "corrupt-checkpoint", "tick": 4}),
        )
        checkpointer = Checkpointer(tmp_path, every=5, spec_hash=SPEC_HASH)
        path = checkpointer.write(4, {"x": 1})
        with pytest.raises(
            CheckpointError, match="checkpoint.payload_sha256"
        ):
            load_checkpoint(path)

    def test_stale_version_fault(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            MIDRUN_FAULT_ENV,
            json.dumps({"kind": "stale-checkpoint-version", "tick": 4}),
        )
        checkpointer = Checkpointer(tmp_path, every=5, spec_hash=SPEC_HASH)
        path = checkpointer.write(4, {"x": 1})
        with pytest.raises(CheckpointError, match="checkpoint.version"):
            load_checkpoint(path)

    def test_fault_only_fires_on_its_tick(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            MIDRUN_FAULT_ENV,
            json.dumps({"kind": "corrupt-checkpoint", "tick": 4}),
        )
        checkpointer = Checkpointer(tmp_path, every=5, spec_hash=SPEC_HASH)
        clean = checkpointer.write(9, {"x": 1})
        assert load_checkpoint(clean)["x"] == 1


class TestSpecHash:
    def test_cadence_is_excluded(self):
        # The cadence is an execution knob: a run may be restored
        # under a different one, so it must not change the identity.
        assert spec_hash(small_spec(checkpoint_every=5)) == spec_hash(
            small_spec(checkpoint_every=50)
        )

    def test_result_knobs_change_the_hash(self):
        assert spec_hash(small_spec()) != spec_hash(
            small_spec(scan_rate=6.0)
        )
        assert spec_hash(small_spec()) != spec_hash(small_spec(shards=4))


class TestRecoveryCollection:
    def test_events_reach_every_active_log(self):
        with recovery_collection() as outer:
            record_recovery("checkpoint", tick=4)
            with recovery_collection() as inner:
                record_recovery("restore", tick=4, path="ckpt")
            record_recovery("restore", tick=4)
        assert [event["kind"] for event in outer.events] == [
            "checkpoint",
            "restore",
            "restore",
        ]
        assert inner.events == [{"kind": "restore", "tick": 4, "path": "ckpt"}]

    def test_recording_without_a_collection_is_a_no_op(self):
        record_recovery("checkpoint", tick=0)  # must not raise
