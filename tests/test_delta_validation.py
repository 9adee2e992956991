"""The DS committee's delta validation ≡ its per-row specification.

``validate_delta`` resolves a delta's contract once and asks for one
owner per distinct first key; ``validate_delta_reference``
(tests/helpers.py) asks ``Dispatcher.component_shard`` once per row.
Both must return the identical ``DeltaViolation`` — shard, key and
reason, the first one found — or None, on every delta: the deltas of
Fig. 14-mix epochs, every corruption the fault injector would try on
them, and hand-built deltas for the cases the epochs never produce.
"""

import pytest

from repro.chain import Network, NetworkConfig, validate_delta
from repro.chain.delta import DeltaEntry, StateDelta
from repro.chain.dispatch import Dispatcher
from repro.chain.faults import (
    FaultEvent, FaultInjector, FaultKind, FaultPlan,
)
from repro.contracts import CORPUS
from repro.core.domain import PseudoField
from repro.core.joins import JoinKind
from repro.obs import Tracer
from repro.scilla import types as ty
from repro.scilla.values import IntVal, MsgVal, StringVal, addr, uint
from repro.workloads.generators import (
    CFDonate, FTTransfer, NFTMint, NFTTransfer, ProofIPFSRegister,
    UDBestow, UDConfig,
)

from .helpers import validate_delta_reference

MIX = (FTTransfer, CFDonate, NFTMint, NFTTransfer, ProofIPFSRegister,
       UDBestow, UDConfig)
OWN = JoinKind.OWN_OVERWRITE


def verdict(net, delta):
    """The validator's verdict on ``delta``, checked against the
    specification's."""
    contract = net.contracts[delta.contract]
    got = validate_delta(delta, contract, net.dispatcher)
    assert got == validate_delta_reference(delta, contract, net.dispatcher)
    return got


def mix_network(use_signatures: bool, epochs: int = 3):
    """The seven Fig. 14 workloads on one 4-shard network, each at its
    own contract address and user range; returns the network and the
    blocks of ``epochs`` epochs."""
    net = Network(4, NetworkConfig(use_signatures=use_signatures))
    workloads = []
    for i, cls in enumerate(MIX):
        w = cls(txns_per_epoch=16, seed=7 + i, n_users=40)
        w.contract_addr = "0x" + f"{0xc0 + i:02x}" * 20
        w.admin = "0x" + f"{0xa0 + i:02x}" * 20
        w.users = ["0x" + f"{((i + 1) << 24) + j:040x}"
                   for j in range(w.n_users)]
        w.setup(net)
        workloads.append(w)
    blocks = []
    for epoch in range(epochs):
        per = [w.transactions(epoch) for w in workloads]
        blocks.append(net.process_epoch(
            [tx for group in zip(*per) for tx in group]))
    return net, blocks


@pytest.fixture(scope="module", params=[True, False],
                ids=["signatures", "baseline"])
def mix(request):
    return mix_network(request.param)


def test_every_mix_delta_has_the_specifications_verdict(mix):
    net, blocks = mix
    deltas = [d for b in blocks for mb in b.microblocks for d in mb.deltas]
    assert len(deltas) >= 10
    assert all(verdict(net, d) is None for d in deltas)
    # The same deltas sent by every other shard.
    foreign = [StateDelta(d.contract, shard, d.columns)
               for d in deltas for shard in range(net.n_shards)
               if shard != d.shard]
    assert any(verdict(net, d) is not None for d in foreign)


@pytest.mark.parametrize("kind", [FaultKind.CORRUPT_DELTA,
                                  FaultKind.FORGE_DELTA])
def test_every_corruption_candidate_has_the_specifications_verdict(
        mix, kind):
    """Foreign re-keys, join-kind flips and fabricated whole-field
    writes, in the order the injector tries them."""
    net, blocks = mix
    injector = FaultInjector(FaultPlan())
    rejected = seen = 0
    for block in blocks:
        for mb in block.microblocks:
            for preview, _, _ in injector._corruption_candidates(
                    mb.shard, kind, mb.deltas, net):
                seen += 1
                rejected += verdict(net, preview) is not None
    assert seen > 500 and 0 < rejected < seen


def test_a_delta_asks_for_one_owner_per_distinct_first_key(monkeypatch):
    """UD's ``records`` / ``resolvers`` / ``registered_at`` columns share
    their node keys: each key's owner is hashed once per delta."""
    net, blocks = mix_network(True, epochs=1)
    asked = []
    entry_shard = Dispatcher.entry_shard

    def counting(self, contract, first):
        asked.append(first)
        return entry_shard(self, contract, first)
    monkeypatch.setattr(Dispatcher, "entry_shard", counting)
    shared = 0
    for mb in blocks[0].microblocks:
        for delta in mb.deltas:
            asked.clear()
            assert verdict(net, delta) is None
            own = [c for c in delta.columns if c.kind is OWN]
            firsts = {keys[0] for c in own for keys in c.rows if keys}
            rows = sum(len(c.rows) for c in own)
            # The reference asked once per row, the validator once per key.
            assert len(asked) == rows + len(firsts)
            shared += rows > len(firsts)
    assert shared


# -- hand-built deltas -------------------------------------------------------

TOKEN = "0x" + "c0" * 20
ADMIN = "0x" + "ad" * 20
USERS = [addr("0x" + f"{i:040x}") for i in range(1, 41)]


def ft_network(**config) -> Network:
    """FungibleToken with every write an overwrite: ``total_supply`` is
    owned whole (Mint), ``balances[a]`` and ``allowances[a][b]`` by the
    shard of ``a``."""
    net = Network(3, NetworkConfig(**config))
    net.create_account(ADMIN)
    net.deploy(CORPUS["FungibleToken"], TOKEN, {
        "contract_owner": addr(ADMIN), "name": StringVal("T"),
        "symbol": StringVal("T"), "decimals": IntVal(6, ty.UINT32),
        "init_supply": uint(0),
    }, sharded_transitions=("Mint", "Transfer", "TransferFrom"),
        allow_commutativity=False)
    return net


def owner(net, user) -> int:
    return net.dispatcher.home_shard(user.hex)


def delta(shard, *keys) -> StateDelta:
    """``TOKEN``'s delta from ``shard`` overwriting ``keys``."""
    return StateDelta.from_entries(TOKEN, shard, [
        DeltaEntry(key, OWN, new_value=uint(1)) for key in keys])


@pytest.fixture(scope="module")
def ft():
    net = ft_network()
    assert net.dispatcher.contracts[TOKEN].field_level() == {"total_supply"}
    return net


def test_an_entry_owned_by_another_shard(ft):
    user = USERS[0]
    home = owner(ft, user)
    assert verdict(ft, delta(home, ("balances", (user,)))) is None
    foreign = (home + 1) % ft.n_shards
    got = verdict(ft, delta(foreign, ("balances", (user,))))
    assert got.key == ("balances", (user,))
    assert got.reason == f"component owned by shard {home}"


def test_a_field_level_column_on_the_wrong_shard(ft):
    whole = ft.dispatcher.component_shard(TOKEN, PseudoField("total_supply"),
                                          ())
    assert verdict(ft, delta(whole, ("total_supply", ()))) is None
    wrong = (whole + 1) % ft.n_shards
    got = verdict(ft, delta(wrong, ("total_supply", ())))
    assert got.key == ("total_supply", ())
    assert got.reason == f"component owned by shard {whole}"
    # A row's keys must have tokens, owner or not.
    unusable = ("total_supply", (MsgVal([("tag", uint(1))]),))
    got = verdict(ft, delta(whole, unusable))
    assert got.reason == "key not usable for ownership"


def test_a_two_key_row_whose_second_key_is_not_usable(ft):
    user = USERS[1]
    home = owner(ft, user)
    row = ("allowances", (user, MsgVal([("tag", uint(1))])))
    got = verdict(ft, delta(home, ("balances", (user,)), row))
    assert got.key == row
    assert got.reason == "key not usable for ownership"
    # Every key is checked before the owner, on any shard.
    got = verdict(ft, delta((home + 1) % ft.n_shards, row))
    assert got.key == row
    assert got.reason == "key not usable for ownership"


def test_columns_sharing_a_first_key_where_only_the_second_is_forged(ft):
    user = USERS[2]
    home = owner(ft, user)
    other = next(u for u in USERS if owner(ft, u) != home)
    forged = ("allowances", (other, user))
    got = verdict(ft, delta(home, ("balances", (user,)),
                            ("allowances", (user, other)), forged))
    assert got.key == forged
    assert got.reason == f"component owned by shard {owner(ft, other)}"
    # Sent by the shard owning ``other``, the shared key fails first.
    got = verdict(ft, delta(owner(ft, other), ("balances", (user,)),
                            ("allowances", (user, other)), forged))
    assert got.key == ("balances", (user,))


def test_a_second_key_is_not_owned_as_a_first_key(ft):
    """``allowances[user][other]`` is the shard of ``user``'s; a later
    ``balances[other]`` row is still the shard of ``other``'s."""
    user = USERS[4]
    home = owner(ft, user)
    other = next(u for u in USERS if owner(ft, u) != home)
    got = verdict(ft, delta(home, ("allowances", (user, other)),
                            ("balances", (other,))))
    assert got.key == ("balances", (other,))
    assert got.reason == f"component owned by shard {owner(ft, other)}"


def test_an_unpadded_address_is_owned_as_its_canonical_form(ft):
    balances = PseudoField("balances")
    user = USERS[3]
    home = owner(ft, user)
    spelled = TOKEN.upper().replace("0X", "0x")
    for shard in range(ft.n_shards):
        entries = delta(shard, ("balances", (user,)),
                        ("balances", (StringVal("k"),)))
        entries.contract = spelled
        contract = ft.contracts[TOKEN]
        got = validate_delta(entries, contract, ft.dispatcher)
        assert got == validate_delta_reference(entries, contract,
                                               ft.dispatcher)
        assert (got is None) == (shard == home == ft.dispatcher
                                 .component_shard(TOKEN, balances,
                                                  ("String|k",)))


def test_a_baseline_contract_is_owned_by_its_home_shard():
    net = ft_network(use_signatures=False)
    home = net.dispatcher.home_shard(TOKEN)
    rows = (("balances", (USERS[0],)), ("total_supply", ()))
    assert verdict(net, delta(home, *rows)) is None
    got = verdict(net, delta((home + 1) % net.n_shards, *rows))
    assert got.key == ("balances", (USERS[0],))
    assert got.reason == f"component owned by shard {home}"


# -- attribution -------------------------------------------------------------

@pytest.mark.parametrize("crashed", [(), (1,)])
def test_a_traced_epoch_validates_each_live_lane_once(crashed):
    tracer = Tracer()
    plan = FaultPlan([FaultEvent(2, FaultKind.CRASH_SHARD, s)
                      for s in crashed])
    net = Network(3, NetworkConfig(fault_plan=plan), tracer=tracer)
    workload = FTTransfer(txns_per_epoch=30, n_users=30)
    workload.setup(net)             # epoch 1 mints
    tracer.clear()
    block = net.process_epoch(workload.transactions(0))
    assert set(block.excluded_lanes) == set(crashed)
    (epoch,) = tracer.to_obj()
    names = [child["name"] for child in epoch["children"]]
    live = [s for s in range(net.n_shards) if s not in crashed]
    assert [n for n in names if n.startswith("validate")] == \
        [f"validate {s}" for s in live]
    for s in live:
        assert names.index(f"validate {s}") == \
            names.index(f"lane {s}") + 1
