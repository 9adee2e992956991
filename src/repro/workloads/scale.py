"""Population-scale workloads for service mode (10^5–10^6 senders).

The Fig. 14 workloads pre-create every user account and pre-mint every
balance, which caps them at toy populations — setup alone would be
O(population) epochs.  ``ScaledFTTransfer`` reaches million-account
populations with O(1) work per transaction:

* **No upfront anything.**  Senders are drawn from an address space of
  ``population`` indices; accounts come into existence only when first
  touched (service-mode admission auto-funds unknown senders, a
  WAL-logged input).
* **Mint-on-first-use.**  The first time a sender is drawn, the admin
  mints its token balance; the sender starts transferring on its next
  visit.  The separation matters: a mint's credit is a commutative
  accrual, applied at the epoch-end FSD merge — a transfer in the
  *same* epoch would still read the pre-mint balance and fail with
  ``InsufficientFunds``, even on the same lane.  Revisits land epochs
  later, after the credit has merged.
* **O(touched) memory.**  The generator tracks only the senders it has
  already drawn (funded set + nonce counters); memory grows with
  *committed traffic*, never with the configured population.

The stream mixes revisits of known senders (exercising nonce sequences
and warm balances) with fresh senders (exercising admission, funding,
and population spread) at a seeded ratio.
"""

from __future__ import annotations

import random

from ..chain.transaction import Transaction, call
from ..contracts import CORPUS
from ..scilla.values import IntVal, StringVal, Value, addr, uint
from ..scilla import types as ty
from .generators import EXTRA_WORKLOADS, Workload, _user


class ScaledFTTransfer(Workload):
    """Random token transfers over an arbitrarily large population."""

    name = "FT transfer @scale"
    contract_name = "FungibleToken"
    selection = ("Mint", "Transfer", "TransferFrom")

    def __init__(self, population: int = 100_000,
                 n_users: int | None = None,
                 txns_per_epoch: int = 400, seed: int = 7,
                 revisit: float = 0.5, grant: int = 10**9):
        # Harnesses built for the Fig. 14 battery pass ``n_users``;
        # here it is just the population knob under another name.
        if n_users is not None:
            population = n_users
        # The base class would materialise ``users`` as a list — at
        # 10^6 addresses that alone defeats the point.  Addresses are
        # derived on demand from indices instead.
        super().__init__(n_users=0, txns_per_epoch=txns_per_epoch,
                         seed=seed)
        if population < 2:
            raise ValueError("population must be >= 2")
        if not (0.0 <= revisit < 1.0):
            raise ValueError("revisit must be in [0, 1)")
        self.population = population
        self.revisit = revisit
        self.grant = grant
        self._funded: set[str] = set()
        self._funded_list: list[str] = []

    def contract_params(self) -> dict[str, Value]:
        return {
            "contract_owner": addr(self.admin),
            "name": StringVal("Scale"), "symbol": StringVal("SCL"),
            "decimals": IntVal(6, ty.UINT32), "init_supply": uint(0),
        }

    def setup(self, net) -> None:
        self.rng = random.Random(self.seed)
        self._nonces = {}
        self._funded = set()
        self._funded_list = []
        net.create_account(self.admin)
        sharded = self.selection if net.config.use_signatures else None
        net.deploy(CORPUS[self.contract_name], self.contract_addr,
                   self.contract_params(), sharded_transitions=sharded)

    def touched_senders(self) -> int:
        return len(self._funded)

    def transactions(self, epoch: int) -> list[Transaction]:
        out: list[Transaction] = []
        rng = self.rng
        while len(out) < self.txns_per_epoch:
            if self._funded_list and rng.random() < self.revisit:
                sender = self._funded_list[
                    rng.randrange(len(self._funded_list))]
            else:
                sender = _user(rng.randrange(self.population))
            if sender not in self._funded:
                # Debut: mint only.  Transfers wait for a revisit, so
                # the accrued credit has merged by then (see module
                # docstring).
                out.append(call(
                    self.admin, self.contract_addr, "Mint",
                    {"recipient": addr(sender),
                     "amount": uint(self.grant)},
                    nonce=self.next_nonce(self.admin)))
                self._funded.add(sender)
                self._funded_list.append(sender)
                continue
            to = _user(rng.randrange(self.population))
            if to == sender:
                to = _user((int(sender, 16) - 0x1000 + 1)
                           % self.population)
            out.append(call(
                sender, self.contract_addr, "Transfer",
                {"to": addr(to), "amount": uint(1)},
                nonce=self.next_nonce(sender)))
        return out


EXTRA_WORKLOADS.append(ScaledFTTransfer)
