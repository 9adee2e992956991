"""The eight workloads of the paper's throughput evaluation (Fig. 14).

Each workload deploys one of the five evaluation contracts (with or
without a sharding signature), runs any setup epochs it needs (e.g.
pre-minting NFTs), and then emits a sustained stream of transactions
per epoch.  All randomness is seeded, so runs are reproducible.
"""

from __future__ import annotations

import random

from ..chain.network import Network
from ..chain.transaction import Transaction, call
from ..contracts import CORPUS
from ..scilla.values import ADTVal, IntVal, StringVal, Value, addr, uint
from ..scilla import types as ty


def _user(i: int) -> str:
    return "0x" + f"{i + 0x1000:040x}"


class Workload:
    """Base class: deploys a contract and streams transactions."""

    name = "base"
    contract_name = ""
    selection: tuple[str, ...] = ()
    contract_addr = "0x" + "c0" * 20

    def __init__(self, n_users: int = 240, txns_per_epoch: int = 400,
                 seed: int = 7):
        self.n_users = n_users
        self.txns_per_epoch = txns_per_epoch
        self.seed = seed
        self.rng = random.Random(seed)
        self.users = [_user(i) for i in range(n_users)]
        self.admin = "0x" + "ad" * 20
        self._nonces: dict[str, int] = {}

    # -- helpers ---------------------------------------------------------------

    def next_nonce(self, sender: str) -> int:
        n = self._nonces.get(sender, 0) + 1
        self._nonces[sender] = n
        return n

    def contract_params(self) -> dict[str, Value]:
        raise NotImplementedError

    def setup(self, net: Network) -> None:
        """Create accounts, deploy, run preparation epochs."""
        self.rng = random.Random(self.seed)
        self._nonces = {}
        net.create_account(self.admin)
        for u in self.users:
            net.create_account(u)
        sharded = self.selection if net.config.use_signatures else None
        net.deploy(CORPUS[self.contract_name], self.contract_addr,
                   self.contract_params(), sharded_transitions=sharded)
        self.prepare(net)

    def prepare(self, net: Network) -> None:
        """Optional setup epochs (e.g. minting initial state)."""

    def transactions(self, epoch: int) -> list[Transaction]:
        raise NotImplementedError


class FTFund(Workload):
    """Single-source token distribution: all transfers from one account.

    Every transaction touches ``balances[_sender]`` of the same sender,
    so all of them are owned by one shard — the workload that does not
    scale in Fig. 14.
    """

    name = "FT fund"
    contract_name = "FungibleToken"
    selection = ("Mint", "Transfer", "TransferFrom")

    def contract_params(self) -> dict[str, Value]:
        return {
            "contract_owner": addr(self.admin), "name": StringVal("Fund"),
            "symbol": StringVal("FND"), "decimals": IntVal(6, ty.UINT32),
            "init_supply": uint(10**15),
        }

    def prepare(self, net: Network) -> None:
        # The admin holds the initial supply and is the single source.
        pass

    def transactions(self, epoch: int) -> list[Transaction]:
        out = []
        for _ in range(self.txns_per_epoch):
            to = self.rng.choice(self.users)
            out.append(call(
                self.admin, self.contract_addr, "Transfer",
                {"to": addr(to), "amount": uint(1)},
                nonce=self.next_nonce(self.admin)))
        return out


class FTTransfer(Workload):
    """Random-to-random token transfers — the headline linear-scaling
    workload."""

    name = "FT transfer"
    contract_name = "FungibleToken"
    selection = ("Mint", "Transfer", "TransferFrom")

    def contract_params(self) -> dict[str, Value]:
        return {
            "contract_owner": addr(self.admin), "name": StringVal("Gold"),
            "symbol": StringVal("GLD"), "decimals": IntVal(6, ty.UINT32),
            "init_supply": uint(0),
        }

    def prepare(self, net: Network) -> None:
        txns = [
            call(self.admin, self.contract_addr, "Mint",
                 {"recipient": addr(u), "amount": uint(10**9)},
                 nonce=self.next_nonce(self.admin))
            for u in self.users
        ]
        net.process_epoch(txns, unlimited=True)
        net.blocks.pop()  # setup epoch is not part of the measurement

    def transactions(self, epoch: int) -> list[Transaction]:
        out = []
        for _ in range(self.txns_per_epoch):
            sender = self.rng.choice(self.users)
            to = self.rng.choice(self.users)
            if to == sender:
                to = self.users[(self.users.index(to) + 1) % self.n_users]
            out.append(call(
                sender, self.contract_addr, "Transfer",
                {"to": addr(to), "amount": uint(1)},
                nonce=self.next_nonce(sender)))
        return out


class CFDonate(Workload):
    """Crowdfund donations from distinct backers."""

    name = "CF donate"
    contract_name = "Crowdfunding"
    selection = ("Donate", "ClaimBack")

    def contract_params(self) -> dict[str, Value]:
        from ..scilla.values import BNumVal
        return {
            "campaign_owner": addr(self.admin),
            "goal": uint(10**12),
            "deadline": BNumVal(10**6),
        }

    def __init__(self, **kwargs):
        kwargs.setdefault("n_users", 6000)
        super().__init__(**kwargs)
        self._next_donor = 0

    def setup(self, net: Network) -> None:
        self._next_donor = 0
        super().setup(net)

    def transactions(self, epoch: int) -> list[Transaction]:
        # Each backer donates once; iterate through fresh donors.
        out = []
        for _ in range(self.txns_per_epoch):
            donor = self.users[self._next_donor % self.n_users]
            self._next_donor += 1
            out.append(call(
                donor, self.contract_addr, "Donate", {},
                nonce=self.next_nonce(donor), amount=100))
        return out


class NFTMint(Workload):
    """Single-sender mints of fresh token ids.

    Although every transaction comes from the minter, the footprint is
    keyed by the token id, so the paper's revised account model lets
    this single-source workload scale linearly.
    """

    name = "NFT mint"
    contract_name = "NonfungibleToken"
    selection = ("Mint", "Transfer")

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._next_token = 0

    def contract_params(self) -> dict[str, Value]:
        return {
            "contract_owner": addr(self.admin),
            "name": StringVal("Kitties"), "symbol": StringVal("KIT"),
        }

    def setup(self, net: Network) -> None:
        self._next_token = 0
        super().setup(net)

    def transactions(self, epoch: int) -> list[Transaction]:
        out = []
        for _ in range(self.txns_per_epoch):
            token = self._next_token
            self._next_token += 1
            to = self.rng.choice(self.users)
            out.append(call(
                self.admin, self.contract_addr, "Mint",
                {"to": addr(to), "token_id": IntVal(token, ty.UINT256)},
                nonce=self.next_nonce(self.admin)))
        return out


class NFTTransfer(Workload):
    """Owners move their pre-minted tokens around."""

    name = "NFT transfer"
    contract_name = "NonfungibleToken"
    selection = ("Mint", "Transfer")

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.token_owner: dict[int, str] = {}

    def contract_params(self) -> dict[str, Value]:
        return {
            "contract_owner": addr(self.admin),
            "name": StringVal("Plots"), "symbol": StringVal("PLT"),
        }

    def prepare(self, net: Network) -> None:
        self.token_owner = {}
        n_tokens = self.txns_per_epoch * 2
        txns = []
        for token in range(n_tokens):
            owner = self.users[token % self.n_users]
            self.token_owner[token] = owner
            txns.append(call(
                self.admin, self.contract_addr, "Mint",
                {"to": addr(owner),
                 "token_id": IntVal(token, ty.UINT256)},
                nonce=self.next_nonce(self.admin)))
        net.process_epoch(txns, unlimited=True)
        net.blocks.pop()

    def transactions(self, epoch: int) -> list[Transaction]:
        out = []
        tokens = self.rng.sample(sorted(self.token_owner),
                                 min(self.txns_per_epoch,
                                     len(self.token_owner)))
        for token in tokens:
            owner = self.token_owner[token]
            to = self.rng.choice(self.users)
            if to == owner:
                to = self.users[(self.users.index(to) + 1) % self.n_users]
            out.append(call(
                owner, self.contract_addr, "Transfer",
                {"token_owner": addr(owner), "to": addr(to),
                 "token_id": IntVal(token, ty.UINT256)},
                nonce=self.next_nonce(owner)))
            self.token_owner[token] = to
        return out


class ProofIPFSRegister(Workload):
    """Hash notarisation: two state components in different shards, so
    most transactions land in the DS committee (flat in Fig. 14)."""

    name = "ProofIPFS register"
    contract_name = "ProofIPFS"
    selection = ("Register",)

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._next_hash = 0

    def contract_params(self) -> dict[str, Value]:
        return {"initial_admin": addr(self.admin)}

    def setup(self, net: Network) -> None:
        self._next_hash = 0
        super().setup(net)

    def transactions(self, epoch: int) -> list[Transaction]:
        from ..scilla.values import ByStrVal
        out = []
        for _ in range(self.txns_per_epoch):
            h = self._next_hash
            self._next_hash += 1
            sender = self.rng.choice(self.users)
            ipfs_hash = ByStrVal("0x" + f"{h:064x}", ty.BYSTR32)
            out.append(call(
                sender, self.contract_addr, "Register",
                {"ipfs_hash": ipfs_hash}, nonce=self.next_nonce(sender)))
        return out


class UDBestow(Workload):
    """Registrar grants fresh domain names (single sender, keyed by
    the domain node — scales like NFT mint)."""

    name = "UD bestow"
    contract_name = "UD_registry"
    selection = ("Bestow", "ConfigureNode", "ConfigureResolver")

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._next_node = 0

    def contract_params(self) -> dict[str, Value]:
        return {"initial_admin": addr(self.admin),
                "initial_registrar": addr(self.admin)}

    def setup(self, net: Network) -> None:
        self._next_node = 0
        super().setup(net)

    def transactions(self, epoch: int) -> list[Transaction]:
        from ..scilla.values import ByStrVal
        out = []
        for _ in range(self.txns_per_epoch):
            node_id = self._next_node
            self._next_node += 1
            owner = self.rng.choice(self.users)
            node = ByStrVal("0x" + f"{node_id:064x}", ty.BYSTR32)
            out.append(call(
                self.admin, self.contract_addr, "Bestow",
                {"node": node, "owner": addr(owner),
                 "resolver": addr(owner)},
                nonce=self.next_nonce(self.admin)))
        return out


class UDConfig(Workload):
    """Domain owners update the records of their pre-granted names."""

    name = "UD config"
    contract_name = "UD_registry"
    selection = ("Bestow", "ConfigureNode", "ConfigureResolver")

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.node_owner: dict[int, str] = {}

    def contract_params(self) -> dict[str, Value]:
        return {"initial_admin": addr(self.admin),
                "initial_registrar": addr(self.admin)}

    def prepare(self, net: Network) -> None:
        from ..scilla.values import ByStrVal
        self.node_owner = {}
        n_nodes = self.txns_per_epoch * 2
        txns = []
        for node_id in range(n_nodes):
            owner = self.users[node_id % self.n_users]
            self.node_owner[node_id] = owner
            node = ByStrVal("0x" + f"{node_id:064x}", ty.BYSTR32)
            txns.append(call(
                self.admin, self.contract_addr, "Bestow",
                {"node": node, "owner": addr(owner),
                 "resolver": addr(owner)},
                nonce=self.next_nonce(self.admin)))
        net.process_epoch(txns, unlimited=True)
        net.blocks.pop()

    def transactions(self, epoch: int) -> list[Transaction]:
        from ..scilla.values import ByStrVal
        out = []
        nodes = self.rng.sample(sorted(self.node_owner),
                                min(self.txns_per_epoch,
                                    len(self.node_owner)))
        for node_id in nodes:
            owner = self.node_owner[node_id]
            node = ByStrVal("0x" + f"{node_id:064x}", ty.BYSTR32)
            new_resolver = self.rng.choice(self.users)
            out.append(call(
                owner, self.contract_addr, "ConfigureResolver",
                {"node": node, "new_resolver": addr(new_resolver)},
                nonce=self.next_nonce(owner)))
        return out


class Payments(Workload):
    """Plain user-to-user payments — the transaction class every
    sharded chain handles natively (Sec. 1's motivating example).
    Deterministically assigned to the sender's home shard, so the
    workload scales with shard count even without CoSplit."""

    name = "payments"
    contract_name = "FungibleToken"  # deployed but unused
    selection = ()

    def contract_params(self):
        from ..scilla.values import StringVal, IntVal
        from ..scilla import types as ty
        return {
            "contract_owner": addr(self.admin), "name": StringVal("X"),
            "symbol": StringVal("X"), "decimals": IntVal(6, ty.UINT32),
            "init_supply": uint(0),
        }

    def setup(self, net: Network) -> None:
        self.rng = random.Random(self.seed)
        self._nonces = {}
        net.create_account(self.admin)
        for u in self.users:
            net.create_account(u)

    def transactions(self, epoch: int):
        from ..chain.transaction import payment
        out = []
        for _ in range(self.txns_per_epoch):
            sender = self.rng.choice(self.users)
            to = self.rng.choice(self.users)
            if to == sender:
                to = self.users[(self.users.index(to) + 1) % self.n_users]
            out.append(payment(sender, to, amount=1,
                               nonce=self.next_nonce(sender)))
        return out


class FTHammer(Workload):
    """Single-key hammer: distinct senders all crediting ONE shared
    recipient's ``balances`` entry.  The senders' home shards differ,
    so every lane ``IntMerge``s the *same* key — the only workload
    that does (an input of tests/test_parallel_equivalence.py)."""

    name = "FT hammer"
    contract_name = "FungibleToken"
    selection = ("Mint", "Transfer", "TransferFrom")
    hot = "0x" + "07" * 20   # never a sender

    def contract_params(self) -> dict[str, Value]:
        return {
            "contract_owner": addr(self.admin), "name": StringVal("Hot"),
            "symbol": StringVal("HOT"), "decimals": IntVal(6, ty.UINT32),
            "init_supply": uint(0),
        }

    def prepare(self, net: Network) -> None:
        txns = [
            call(self.admin, self.contract_addr, "Mint",
                 {"recipient": addr(u), "amount": uint(10**9)},
                 nonce=self.next_nonce(self.admin))
            for u in self.users
        ]
        net.process_epoch(txns, unlimited=True)
        net.blocks.pop()  # setup epoch is not part of the measurement

    def transactions(self, epoch: int) -> list[Transaction]:
        out = []
        for k in range(self.txns_per_epoch):
            sender = self.users[k % self.n_users]   # round-robin senders
            out.append(call(
                sender, self.contract_addr, "Transfer",
                {"to": addr(self.hot), "amount": uint(1)},
                nonce=self.next_nonce(sender)))
        return out


ALL_WORKLOADS: list[type[Workload]] = [
    FTFund, FTTransfer, CFDonate, NFTMint, NFTTransfer,
    ProofIPFSRegister, UDBestow, UDConfig,
]

# Workloads registered outside the Fig. 14 battery (the service-mode
# scale workload lives in repro.workloads.scale); resolvable by name
# without enlarging every ALL_WORKLOADS-driven differential battery.
EXTRA_WORKLOADS: list[type[Workload]] = [FTHammer]


def workload_by_name(name: str) -> type[Workload]:
    for cls in ALL_WORKLOADS + EXTRA_WORKLOADS:
        if cls.name == name:
            return cls
    raise KeyError(f"unknown workload {name!r}")
