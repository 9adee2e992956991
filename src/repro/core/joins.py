"""Per-field join operations ⊎f (Fig. 9) and the state-delta PCM.

Two joins are supported, matching the paper:

* ``OwnOverwrite`` — disjoint union of written entries: each shard owns
  the entries it writes, and the merge overwrites them in the global
  state (deletes included).  Defined only when shards wrote disjoint
  entries — which the ownership constraints guarantee.
* ``IntMerge``     — integer deltas: each shard contributes the signed
  difference against the epoch-start value; the merge sums deltas.
  Commutative and associative by construction.

The DS committee's three-way merge is
:func:`repro.chain.delta.merge_deltas`.
"""

from __future__ import annotations

import enum

from ..scilla.errors import ExecError
from ..scilla.state import MISSING, _Missing
from ..scilla.values import IntVal, Value


class JoinKind(enum.Enum):
    OWN_OVERWRITE = "OwnOverwrite"
    INT_MERGE = "IntMerge"

    def __str__(self) -> str:
        return self.value


class MergeConflict(ExecError):
    """Raised when two shard deltas are not logically disjoint.

    Under a valid sharding signature this never happens; it is an
    assertion of the paper's soundness claim and is exercised by tests
    that deliberately mis-shard.

    Carries a structured payload so callers (the DS committee, the
    recovery layer, tests) can tell *what* conflicted: the contract
    address, the state location, and the shard ids involved.  All
    fields are optional because some conflicts lack part of the
    context.
    """

    def __init__(self, message: str, *, contract: str | None = None,
                 key=None, shards: tuple[int, ...] = ()):
        super().__init__(message)
        self.contract = contract
        self.key = key
        self.shards = tuple(shards)


class MergeOverflow(MergeConflict):
    """An IntMerge total out of its integer type's bounds.

    Each shard's contribution was in bounds on its own; their sum is
    not.  ``shards`` names every shard that contributed to ``key``: the
    network excludes those lanes (a view change) and re-runs their
    queues on the DS lane, where the overflowing transaction fails.
    """


def int_delta(base: Value | _Missing, new: Value | _Missing) -> int:
    """The signed contribution of one shard to an IntMerge field."""
    base_v = base.value if isinstance(base, IntVal) else 0
    new_v = new.value if isinstance(new, IntVal) else 0
    return new_v - base_v
