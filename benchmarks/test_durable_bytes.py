"""What the durable service path writes, per transaction and per row.

Forty ticks of the ``svc_durable`` benchmark's traffic shape (scaled
token transfers over a 10^5-address space, 3 000 senders pre-funded,
100 a tick, a restore point every 8 ticks): the WAL holds a
transaction's body once, as one positional row — 263 B per transaction
here, 362 B when the body was an object and 708 B when the ``epoch``
record repeated it — and a delta restore point spends 84 B on a row,
143 B before values travelled under their field's declared type
(EXPERIMENTS.md E13, E14).  Counts of bytes, so exact and
machine-independent.
"""

import json

from repro.chain.mempool import MempoolConfig
from repro.chain.network import Network
from repro.chain.service import ServiceConfig, ServiceLoop
from repro.chain.store import SnapshotStore
from repro.chain.transaction import Transaction, call
from repro.chain.wal import _segment_files, read_wal
from repro.obs import MetricsRegistry
from repro.scilla.values import addr, uint
from repro.workloads import ScaledFTTransfer

TICKS, BATCH, EVERY = 40, 100, 8


class SteadyScaledFT(ScaledFTTransfer):
    """bench/workloads.py's stream, copied (a benchmark under
    ``benchmarks/`` does not import ``bench/``): a sender transfers only
    from the batch after its mint, to recipients already funded."""

    def setup(self, net) -> None:
        super().setup(net)
        self.minted: set[str] = set()
        self.ready: list[str] = []
        self.debuts: list[str] = []

    def mints(self, n: int) -> list[Transaction]:
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


def test_wal_bytes_per_transaction_and_delta_bytes_per_row(tmp_path):
    # Every restore point is kept, so the log stays whole from the
    # first one on: the ticks after it are what gets counted.
    net = Network(4, data_dir=str(tmp_path),
                  snapshot_every=EVERY, keep_snapshots=10**6,
                  metrics=MetricsRegistry())
    gen = SteadyScaledFT(population=100_000, txns_per_epoch=BATCH,
                         seed=7, revisit=0.95)
    gen.setup(net)
    mints = gen.mints(3_000)
    assert net.process_epoch(mints, unlimited=True,
                             wal_tag="setup").n_committed == len(mints)
    gen.admit_debuts()
    loop = ServiceLoop(net, config=ServiceConfig(auto_fund=True),
                       pool_config=MempoolConfig(per_sender=2 * BATCH))
    for tick in range(1, TICKS + 1):
        for tx in gen.transactions(tick):
            assert loop.submit(tx).admitted
        assert loop.tick().committed == BATCH
    net.close()

    served = sum(len(r.data["txns"]) for r in read_wal(tmp_path)
                 if r.type == "epoch" and r.data["tag"] == "serve")
    assert served >= (TICKS - EVERY) * BATCH
    wal_bytes = sum(p.stat().st_size for p in _segment_files(tmp_path))
    per_tx = wal_bytes / served

    deltas = [p for p in SnapshotStore(tmp_path).paths()
              if p.name.endswith(".delta.json")]
    assert len(deltas) >= 2
    rows = sum(json.loads(p.read_text())["snapshot"]["rows"]
               for p in deltas)
    per_row = sum(p.stat().st_size for p in deltas) / rows

    print(f"\nWAL {per_tx:.0f} B/tx over {served} transactions; delta "
          f"restore points {per_row:.0f} B/row over {rows} rows in "
          f"{len(deltas)} files")
    assert per_tx <= 280
    assert per_row <= 100
