"""The option-peel zero-consistency guard.

The ERC20 idiom ``match o with Some b => add b v | None => v`` is the
canonical commutative write — but *only* because the None branch
computes exactly what the Some branch would with the absent entry
treated as zero (the IntMerge convention).  These tests pin down the
boundary: zero-consistent peels stay exact/commutative; anything else
(non-zero defaults, different operations, extra state) must lose
commutativity, or sharded execution diverges from sequential (the
concrete divergence is demonstrated end-to-end below).
"""

from repro.chain import Network, call
from repro.core.joins import JoinKind
from repro.core.pipeline import run_pipeline
from repro.core.signature import is_commutative_write
from repro.core.summary import analyze_module
from repro.scilla.parser import parse_module
from repro.scilla.values import addr, uint

from .helpers import contract_states, serial_replay

USERS = ["0x" + f"{i:040x}" for i in range(1, 5)]
CONTRACT = "0x" + "c0" * 20


def contract(none_branch: str, some_branch: str = "builtin add b v",
             lib: str = "") -> str:
    return f"""
scilla_version 0
library Z
let zero = Uint128 0
let big = Uint128 1000000
{lib}
contract Z (owner: ByStr20)
field m : Map ByStr20 Uint128 = Emp ByStr20 Uint128
transition Go (who_a: ByStr20, v: Uint128)
  o <- m[who_a];
  nv = match o with
       | Some b => {some_branch}
       | None => {none_branch}
       end;
  m[who_a] := nv
end
"""


def join_of(source: str) -> JoinKind:
    sig = run_pipeline(source, "Z").signature(("Go",))
    return sig.joins["m"]


def test_erc20_idiom_stays_commutative():
    assert join_of(contract("v")) is JoinKind.INT_MERGE


def test_explicit_zero_plus_amount_stays_commutative():
    assert join_of(contract("builtin add zero v")) is JoinKind.INT_MERGE


def test_nonzero_default_rejected():
    assert join_of(contract("big")) is JoinKind.OWN_OVERWRITE


def test_library_nonzero_default_rejected():
    assert join_of(contract("one_thousand",
                            lib="let one_thousand = Uint128 1000")) is \
        JoinKind.OWN_OVERWRITE


def test_different_operation_in_none_branch_rejected():
    # None branch computes 2·v while Some computes old+v: absent
    # entries would merge wrongly.
    assert join_of(contract("builtin mul v v")) is JoinKind.OWN_OVERWRITE


def test_parameter_default_with_subtraction():
    """sub with ``None => v`` claims absent ≡ 0 gives v, but the Some
    branch computes old − v: v's cardinality matches yet the operation
    set differs in a way that is still zero-consistent per our rule —
    check the analysis keeps soundness by the end-to-end oracle."""
    src = contract("v", some_branch="builtin sub b v")
    module = parse_module(src)
    summaries = analyze_module(module)
    (write,) = summaries["Go"].writes()
    if is_commutative_write(write):
        # If classified commutative, sharded must equal sequential.
        _assert_shard_equals_sequential(src)


def _assert_shard_equals_sequential(src: str) -> None:
    net = Network(3)
    for u in USERS:
        net.create_account(u)
    net.deploy(src, CONTRACT, {"owner": addr(USERS[0])},
               sharded_transitions=("Go",))
    target = addr(USERS[3])
    txns = [call(USERS[i], CONTRACT, "Go",
                 {"who_a": target, "v": uint(10 + i)}, nonce=1)
            for i in range(3)]
    block = net.process_epoch(txns, unlimited=True)
    assert contract_states(net) == serial_replay(net, [block])


def test_nonzero_default_is_sound_end_to_end():
    """The concrete scenario that used to diverge (3000033 vs 1000033
    before the guard): three fresh-entry bumps with default ``big``
    from three senders.  With the guard the field is owned, all three
    land in one place or serialise, and the states agree."""
    _assert_shard_equals_sequential(contract("big"))


def test_guard_applies_inside_procedures_too():
    src = """
scilla_version 0
library Z
let big = Uint128 7777
contract Z (owner: ByStr20)
field m : Map ByStr20 Uint128 = Emp ByStr20 Uint128
procedure Bump (who: ByStr20, v: Uint128)
  o <- m[who];
  nv = match o with
       | Some b => builtin add b v
       | None => big
       end;
  m[who] := nv
end
transition Go (who_a: ByStr20, v: Uint128)
  Bump who_a v
end
"""
    assert join_of(src) is JoinKind.OWN_OVERWRITE
