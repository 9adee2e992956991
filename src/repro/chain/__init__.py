"""Sharded blockchain substrate: the paper's execution environment.

Implements the Zilliqa-style architecture of Sec. 4 — lookup-node
dispatch, shards, DS committee, MicroBlocks/StateDeltas/FinalBlocks —
as a deterministic simulator that really executes every transaction
through the Scilla interpreter.
"""

from .blocks import (
    BlockBodyReleased, BlockHeader, FinalBlock, MicroBlock, Receipt,
)
from .consensus import CostModel, DEFAULT_COST_MODEL
from .delta import DeltaEntry, StateDelta, compute_delta, merge_deltas
from .dispatch import (
    DS, DeployedSignature, DispatchDecision, Dispatcher, key_token,
    shard_hash, value_from_token,
)
from .faults import (
    FaultEvent, FaultInjector, FaultKind, FaultPlan,
)
from .lookup import LookupNode, TxPacket, packets_to_epoch
from .network import BacklogEntry, DeployedContract, EpochStats, Network
from .recovery import (
    DeltaViolation, NetworkCheckpoint, fingerprint_digest,
    network_fingerprint, state_fingerprint, validate_delta,
)
from .store import (
    SnapshotError, SnapshotStore, network_from_snapshot,
    snapshot_network,
)
from .transaction import NonceTracker, Transaction, call, payment
from .wal import (
    FSYNC_POLICIES, WALCorruption, WALError, WALRecord, WriteAheadLog,
    read_wal,
)

__all__ = [
    "BlockBodyReleased", "BlockHeader", "FinalBlock", "MicroBlock",
    "Receipt",
    "CostModel", "DEFAULT_COST_MODEL",
    "DeltaEntry", "StateDelta", "compute_delta", "merge_deltas",
    "DS", "DeployedSignature", "DispatchDecision", "Dispatcher",
    "key_token", "shard_hash", "value_from_token",
    "FaultEvent", "FaultInjector", "FaultKind", "FaultPlan",
    "LookupNode", "TxPacket", "packets_to_epoch",
    "BacklogEntry", "DeployedContract", "EpochStats", "Network",
    "DeltaViolation", "NetworkCheckpoint", "fingerprint_digest",
    "network_fingerprint", "state_fingerprint", "validate_delta",
    "SnapshotError", "SnapshotStore", "network_from_snapshot",
    "snapshot_network",
    "NonceTracker", "Transaction", "call", "payment",
    "FSYNC_POLICIES", "WALCorruption", "WALError", "WALRecord",
    "WriteAheadLog", "read_wal",
]
