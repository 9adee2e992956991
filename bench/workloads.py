"""The four benchmark workloads and the ledger that checks them.

Every workload runs 4 shards, the serial executor and the default
``CostModel``; nothing is gas-deferred and no transaction fails.  Why
each exists is in bench/README.md and in BENCHMARK.json's ``why``.

A workload hands out batches (generated outside the timed unit) and
runs one *timed unit* per batch: one ``process_epoch`` call, or for the
service workload the batch's ``submit`` calls plus one ``tick``.
"""

from __future__ import annotations

import shutil
import tempfile
import time

from repro.chain.mempool import MempoolConfig
from repro.chain.network import Network
from repro.chain.recovery import fingerprint_digest
from repro.chain.service import ServiceConfig, ServiceLoop
from repro.chain.transaction import Transaction, call
from repro.obs.metrics import MetricsRegistry
from repro.scilla import types as ty
from repro.scilla.values import ByStrVal, IntVal, addr, uint
from repro.workloads import (
    CFDonate, FTTransfer, NFTMint, NFTTransfer, ProofIPFSRegister,
    ScaledFTTransfer, UDBestow, UDConfig,
)

N_SHARDS = 4
WARMUP_UNITS = 5
# Timed units after which the deterministic check values are taken
# (bench/golden.json); every run, however short, gets this far.
CHECK_UNITS = 4

_now = time.perf_counter_ns


class Ledger:
    """What the contracts' maps must hold, worked out from the
    committed transactions alone — the benchmark's own model of the
    five evaluation contracts, independent of the interpreter."""

    def __init__(self):
        # (contract address, field) -> {key Value: int | Value}
        self.maps: dict[tuple[str, str], dict] = {}
        self.kinds: dict[str, str] = {}

    def track(self, contract_addr: str, kind: str,
              initial: dict[str, dict]) -> None:
        self.kinds[contract_addr] = kind
        for field, entries in initial.items():
            self.maps[(contract_addr, field)] = dict(entries)

    def apply(self, tx: Transaction) -> None:
        kind, to, t = self.kinds[tx.to], tx.to, tx.transition
        a = tx.args_dict()
        sender = addr(tx.sender)
        if kind == "FungibleToken":
            bal = self.maps[(to, "balances")]
            if t == "Mint":
                bal[a["recipient"]] = \
                    bal.get(a["recipient"], 0) + a["amount"].value
            else:  # Transfer
                bal[sender] -= a["amount"].value
                bal[a["to"]] = bal.get(a["to"], 0) + a["amount"].value
        elif kind == "Crowdfunding":  # Donate
            self.maps[(to, "backers")][sender] = tx.amount
        elif kind == "NonfungibleToken":  # Mint / Transfer
            self.maps[(to, "token_owners")][a["token_id"]] = a["to"]
        elif kind == "ProofIPFS":  # Register
            self.maps[(to, "registry")][a["ipfs_hash"]] = sender
        elif t == "Bestow":  # UD_registry
            self.maps[(to, "records")][a["node"]] = a["owner"]
            self.maps[(to, "resolvers")][a["node"]] = a["resolver"]
        else:  # UD_registry ConfigureResolver
            self.maps[(to, "resolvers")][a["node"]] = a["new_resolver"]

    def mismatches(self, net: Network, limit: int = 5) -> list[str]:
        """Entries of the live contract state that differ from the
        ledger (at most ``limit``, as readable strings)."""
        out: list[str] = []
        for (contract, field), entries in self.maps.items():
            state = net.contracts[contract].state
            for key, want in entries.items():
                got = state.read((field, (key,)))
                if isinstance(want, int):
                    got = getattr(got, "value", None)
                if got != want:
                    out.append(f"{contract[:6]}.{field}[{key}] is "
                               f"{got}, ledger says {want}")
                    if len(out) >= limit:
                        return out
        return out


class Bench:
    """One workload instance: a network, a transaction stream, a
    ledger.  ``setup`` is timed by the caller as ``setup_s``."""

    name = ""
    # Timed units per requested second: a run of ``--seconds S`` is a
    # *fixed* round(S x units_per_second) units, about S seconds long
    # on a machine running the reference kernel in REF_SECONDS.  Fixed
    # work keeps every count, fingerprint and drift (state grows as
    # the run proceeds) identical from run to run; a time box would
    # let the machine's speed pick the inputs.
    units_per_second = 1.0
    # Whether the workload runs with an enabled MetricsRegistry (and
    # takes ``metrics=False`` to switch it off for the obs probe).
    metered = False
    # Open loop: offered tx per reference second (None: closed loop).
    rate: float | None = None
    # Blocks before this one were committed by ``setup``.
    first_block = 0

    def __init__(self, seed: int, units: int, tracer=None,
                 out_dir: str = "."):
        self.seed = seed
        self.units = units
        self.tracer = tracer
        self.out_dir = out_dir
        self.net: Network | None = None
        self.ledger = Ledger()
        # (span name, start_ns, end_ns) sub-spans of the last unit,
        # for the traced pass.
        self.unit_spans: list[tuple[str, int, int]] = []
        self.refused = 0
        self.deferred = 0

    @classmethod
    def units_for(cls, seconds: float) -> int:
        return max(CHECK_UNITS, round(cls.units_per_second * seconds))

    def setup(self) -> None:
        raise NotImplementedError

    def next_batch(self) -> list[Transaction]:
        raise NotImplementedError

    def run_unit(self, batch: list[Transaction]):
        """The timed unit; returns the block it committed, or None."""
        return self.net.process_epoch(batch)

    def modeled_tps(self) -> float:
        """The paper's clock: committed per ``CostModel`` second."""
        return self.net.average_tps()

    def check_values(self) -> dict:
        """Deterministic per seed; compared with bench/golden.json and
        between the traced and untraced passes."""
        blocks = self.net.blocks[self.first_block:]
        dispatched = sum(b.stats.dispatched for b in blocks)
        to_ds = sum(b.stats.to_ds for b in blocks)
        return {
            "digest": fingerprint_digest(self.net),
            "committed": sum(b.n_committed for b in blocks),
            "modeled_tps": round(self.modeled_tps(), 9),
            "sharded_share": round(1 - to_ds / dispatched, 9),
        }

    def accounting_errors(self) -> list[str]:
        return []

    def close(self) -> None:
        self.net = None


def _fig14_instance(cls, index: int, seed: int, txns: int, **kwargs):
    """A Fig. 14 workload moved to its own contract address, admin and
    user range, so several can share one network."""
    w = cls(txns_per_epoch=txns, seed=seed + index, **kwargs)
    w.contract_addr = "0x" + f"{0xc0 + index:02x}" * 20
    w.admin = "0x" + f"{0xa0 + index:02x}" * 20
    w.users = ["0x" + f"{((index + 1) << 24) + j:040x}"
               for j in range(w.n_users)]
    return w


def _initial_maps(w) -> dict[str, dict]:
    """The map entries a Fig. 14 workload's setup leaves behind."""
    if isinstance(w, FTTransfer):
        return {"balances": {addr(u): 10**9 for u in w.users}}
    if isinstance(w, CFDonate):
        return {"backers": {}}
    if isinstance(w, NFTTransfer):
        return {"token_owners": {
            IntVal(t, ty.PrimType("Uint256")): addr(o)
            for t, o in w.token_owner.items()}}
    if isinstance(w, NFTMint):
        return {"token_owners": {}}
    if isinstance(w, ProofIPFSRegister):
        return {"registry": {}}
    if isinstance(w, UDConfig):
        owners = {ByStrVal("0x" + f"{n:064x}", ty.PrimType("ByStr32")):
                  addr(o) for n, o in w.node_owner.items()}
        return {"records": dict(owners), "resolvers": dict(owners)}
    return {"records": {}, "resolvers": {}}  # UDBestow


class EpochBench(Bench):
    """Closed loop, one client: the next batch is offered only after
    ``process_epoch`` returned the previous one."""

    parts: list = []        # workload classes sharing the network
    n_users = 240
    txns_each = 0

    def setup(self) -> None:
        self.net = Network(N_SHARDS, executor="serial",
                           tracer=self.tracer)
        # CF donors give once each: one fresh donor per Donate sent.
        donors = self.txns_each * (self.units + WARMUP_UNITS)
        self.workloads = [
            _fig14_instance(cls, i, self.seed, self.txns_each,
                            n_users=(donors if cls is CFDonate
                                     else self.n_users))
            for i, cls in enumerate(self.parts)]
        for w in self.workloads:
            w.setup(self.net)
            self.ledger.track(w.contract_addr, w.contract_name,
                              _initial_maps(w))
        self._epoch = 0

    def next_batch(self) -> list[Transaction]:
        per = [w.transactions(self._epoch) for w in self.workloads]
        self._epoch += 1
        # Round-robin interleave: a shuffle would break per-sender
        # nonce order (23% "bad nonce" in the prototype).
        return [tx for group in zip(*per) for tx in group]


class FTTransfer1k(EpochBench):
    name = "ft_transfer_1k"
    units_per_second = 12
    parts = [FTTransfer]
    n_users = 1_000
    txns_each = 400


class FTTransfer30k(EpochBench):
    name = "ft_transfer_30k"
    units_per_second = 7
    parts = [FTTransfer]
    n_users = 30_000
    txns_each = 100


class Fig14Mix(EpochBench):
    name = "fig14_mix"
    units_per_second = 6
    parts = [FTTransfer, CFDonate, NFTMint, NFTTransfer,
             ProofIPFSRegister, UDBestow, UDConfig]
    txns_each = 60


class SteadyScaledFT(ScaledFTTransfer):
    """``ScaledFTTransfer``'s population model, made failure-free and
    near-stationary: a sender transfers only from the batch *after* its
    mint (the credit merges at epoch end), recipients are senders
    already funded, and ``revisit`` is high — so the balances map grows
    by a few entries per batch instead of one per transaction.  It
    keeps its own books of who holds a balance and takes from the base
    class only the deployment, ``rng``, ``next_nonce`` and the
    addresses."""

    def setup(self, net) -> None:
        super().setup(net)
        self.minted: set[str] = set()   # every sender ever minted to
        self.ready: list[str] = []      # those whose mint has merged
        self.debuts: list[str] = []     # minted in the current batch

    def mints(self, n: int) -> list[Transaction]:
        """Mint to ``n`` fresh senders; they may send only after
        :meth:`admit_debuts`."""
        out: list[Transaction] = []
        while len(out) < n:
            index = self.rng.randrange(self.population)
            sender = "0x" + f"{index + 0x1000:040x}"
            if sender in self.minted:
                continue
            self.minted.add(sender)
            self.debuts.append(sender)
            out.append(call(
                self.admin, self.contract_addr, "Mint",
                {"recipient": addr(sender), "amount": uint(self.grant)},
                nonce=self.next_nonce(self.admin)))
        return out

    def admit_debuts(self) -> None:
        self.ready.extend(self.debuts)
        self.debuts.clear()

    def transactions(self, epoch: int) -> list[Transaction]:
        rng, ready = self.rng, self.ready
        n_mints = sum(rng.random() >= self.revisit
                      for _ in range(self.txns_per_epoch))
        out = self.mints(n_mints)
        while len(out) < self.txns_per_epoch:
            sender = ready[rng.randrange(len(ready))]
            to = ready[rng.randrange(len(ready))]
            if to == sender:
                continue
            out.append(call(
                sender, self.contract_addr, "Transfer",
                {"to": addr(to), "amount": uint(1)},
                nonce=self.next_nonce(sender)))
        self.admit_debuts()
        return out


class SvcDurable(Bench):
    """The ``repro serve`` path under an open loop on a virtual clock
    (see bench/README.md): ServiceLoop + Mempool + WAL + snapshots +
    an enabled MetricsRegistry."""

    name = "svc_durable"
    units_per_second = 16
    metered = True
    batch = 100
    population = 100_000
    prefund = 3_000
    revisit = 0.95
    # Offered rate in tx per reference second; about 60% of what the
    # path sustains at this batch size (bench/README.md).
    rate = 1100.0

    def __init__(self, seed: int, units: int, tracer=None,
                 out_dir: str = ".", metrics: bool = True):
        super().__init__(seed, units, tracer, out_dir)
        self.metrics = metrics
        self.data_dir: str | None = None
        self.loop: ServiceLoop | None = None

    def setup(self) -> None:
        self.data_dir = tempfile.mkdtemp(prefix="svc-", dir=self.out_dir)
        self.net = Network(
            N_SHARDS, executor="serial", data_dir=self.data_dir,
            fsync="commit", snapshot_every=8, tracer=self.tracer,
            metrics=MetricsRegistry() if self.metrics else None)
        self.gen = SteadyScaledFT(
            population=self.population, txns_per_epoch=self.batch,
            seed=self.seed, revisit=self.revisit)
        self.gen.setup(self.net)
        self.ledger.track(self.gen.contract_addr, "FungibleToken",
                          {"balances": {}})
        # One setup epoch mints the starting population, the way the
        # Fig. 14 workloads prepare theirs.
        mints = self.gen.mints(self.prefund)
        block = self.net.process_epoch(mints, unlimited=True,
                                       wal_tag="setup")
        if block.n_committed != len(mints):
            raise RuntimeError("svc_durable setup: prefund mints failed")
        for tx in mints:
            self.ledger.apply(tx)
        self.gen.admit_debuts()
        # The check values and the block a tick returns count from here.
        self.first_block = len(self.net.blocks)
        # The admin's mints all queue under one sender.
        self.loop = ServiceLoop(
            self.net, config=ServiceConfig(auto_fund=True),
            pool_config=MempoolConfig(per_sender=2 * self.batch))
        self._epoch = 0

    def next_batch(self) -> list[Transaction]:
        self._epoch += 1
        return self.gen.transactions(self._epoch)

    def run_unit(self, batch: list[Transaction]):
        submit = self.loop.submit
        t0 = _now()
        admitted = sum(submit(tx).admitted for tx in batch)
        t1 = _now()
        report = self.loop.tick()
        t2 = _now()
        self.unit_spans = [("service.submit_batch", t0, t1),
                           ("service.tick", t1, t2)]
        self.refused += len(batch) - admitted
        self.deferred += report.deferred
        return self.net.blocks[-1] if report.epoch else None

    def modeled_tps(self) -> float:
        return self.loop.tps

    def accounting_errors(self) -> list[str]:
        pool = self.loop.mempool
        if pool.accounted() != pool.counters["submitted"]:
            return [f"Mempool.accounted() {pool.accounted()} != "
                    f"submitted {pool.counters['submitted']}"]
        return []

    def close(self) -> None:
        if self.net is not None:
            self.net.close()
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)
            self.data_dir = None
        super().close()


WORKLOADS = {cls.name: cls for cls in
             (FTTransfer1k, FTTransfer30k, Fig14Mix, SvcDurable)}
