"""Per-field join operations ⊎f (Fig. 9) and the state-delta PCM.

Two joins are supported, matching the paper:

* ``OwnOverwrite`` — disjoint union of written entries: each shard owns
  the entries it writes, and the merge overwrites them in the global
  state (deletes included).  Defined only when shards wrote disjoint
  entries — which the ownership constraints guarantee.
* ``IntMerge``     — integer deltas: each shard contributes the signed
  difference against the epoch-start value; the merge sums deltas.
  Commutative and associative by construction.

:func:`merge_leaf` is the three-way merge used by the DS committee.
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
    fields are optional because some conflicts (e.g. a type error
    inside ``apply_int_delta``) lack part of the context.
    """

    def __init__(self, message: str, *, contract: str | None = None,
                 key=None, shards: tuple[int, ...] = ()):
        super().__init__(message)
        self.contract = contract
        self.key = key
        self.shards = tuple(shards)


def int_delta(base: Value | _Missing, new: Value | _Missing) -> int:
    """The signed contribution of one shard to an IntMerge field."""
    base_v = base.value if isinstance(base, IntVal) else 0
    new_v = new.value if isinstance(new, IntVal) else 0
    return new_v - base_v


def apply_int_delta(base: Value | _Missing, delta: int,
                    template: Value) -> Value:
    """Apply a summed delta to the epoch-start value.

    ``template`` supplies the integer type (some shard's final value).
    Absent entries count as zero, matching the ``None => amount``
    convention of token contracts.
    """
    if not isinstance(template, IntVal):
        raise MergeConflict(f"IntMerge on non-integer value {template}")
    base_v = base.value if isinstance(base, IntVal) else 0
    total = base_v + delta
    if total == template.value:
        # Some shard's final value — the location's only writer's,
        # nearly always: in bounds and of this type, so shared, not
        # rebuilt.
        return template
    return IntVal(total, template.typ)
