"""A transaction is one positional row, in every place it is stored.

``transaction_to_obj`` gives ``[id, sender, to, nonce, amount,
gas_limit, gas_price, transition, args]`` and ``transaction_from_obj``
reads only that: the ``svc-admit`` and ``epoch`` WAL records, the
restore point's transaction sections (version 4) and the loadgen stream
(version 2) all hold rows, and each refuses the older object form by
name — a WAL record by its sequence number, a restore point or a stream
by its version.
"""

import io
import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.chain.mempool import PoolEntry
from repro.chain.network import Network
from repro.chain.serialization import (
    TransactionRowError, transaction_from_obj, transaction_to_obj,
)
from repro.chain.store import SnapshotError, SnapshotStore
from repro.chain.transaction import Transaction, payment
from repro.chain.wal import WALError, WALRecord, _encode, _segment_files, \
    read_wal
from repro.eval.service import iter_stream
from repro.scilla import types as ty
from repro.scilla.values import (
    BNumVal, ByStrVal, IntVal, StringVal, bool_val, list_to_value, none,
    pad_address, pair, some, type_of_value,
)

from .test_service import make_loop, make_net

# -- the round trip -----------------------------------------------------------

WIDTHS = (32, 64, 128, 256)


def ints():
    def of(name):
        lo, hi = ty.int_bounds(ty.prim(name))
        return st.integers(lo, hi).map(lambda v: IntVal(v, ty.prim(name)))
    return st.one_of(*(of(f"{sign}{w}") for sign in ("Int", "Uint")
                       for w in WIDTHS))


def hex_of(nbytes):
    return st.binary(min_size=nbytes, max_size=nbytes).map(
        lambda b: "0x" + b.hex())


scalars = st.one_of(
    ints(),
    hex_of(20).map(lambda h: ByStrVal(h, ty.BYSTR20)),
    hex_of(32).map(lambda h: ByStrVal(h, ty.BYSTR32)),
    # Quotes, backslashes, control and non-ASCII characters included.
    st.text().map(StringVal),
    st.integers(0, 2**64).map(BNumVal),
)


def adts(children):
    """Option / Bool / Pair / List around already-built values."""
    return st.one_of(
        st.booleans().map(bool_val),
        children.map(lambda v: some(v, type_of_value(v))),
        children.map(lambda v: none(type_of_value(v))),
        st.tuples(children, children).map(lambda ab: pair(
            *ab, type_of_value(ab[0]), type_of_value(ab[1]))),
        st.tuples(children, st.integers(0, 3)).map(
            lambda vn: list_to_value([vn[0]] * vn[1],
                                     type_of_value(vn[0]))),
    )


values = st.recursive(scalars, adts, max_leaves=6)
names = st.sampled_from(["to", "amount", "spender", "from", "note", "x"])
spellings = st.one_of(
    hex_of(20), hex_of(20).map(str.upper).map(lambda h: "0x" + h[2:]),
    st.integers(0, 2**40).map(hex))

transactions = st.builds(
    Transaction,
    sender=spellings, to=spellings, nonce=st.integers(0, 2**40),
    amount=st.integers(0, 10**30), gas_limit=st.integers(0, 10**9),
    gas_price=st.integers(0, 10**6),
    transition=st.none() | st.sampled_from(["Transfer", "Mint", "Note"]),
    args=st.lists(st.tuples(names, values), max_size=4).map(tuple),
    tx_id=st.integers(1, 2**53))


@settings(max_examples=200, deadline=None)
@given(transactions)
def test_a_row_round_trips_through_json(tx):
    row = transaction_to_obj(tx)
    assert isinstance(row, list) and len(row) == 9
    assert row[0] == tx.tx_id
    back = transaction_from_obj(json.loads(json.dumps(row)))
    assert back == tx and back.tx_id == tx.tx_id
    assert transaction_to_obj(back) == row


def test_payments_and_empty_args_round_trip():
    for tx in (payment("0x12", "0x" + "CD" * 20, 5, nonce=3),
               Transaction("0x" + "ab" * 20, "0x" + "c0" * 20, 1,
                           transition="Ping")):
        row = transaction_to_obj(tx)
        assert row[1:3] == [tx.sender, tx.to] == \
            [pad_address(tx.sender), pad_address(tx.to)]
        assert row[8] == []
        assert transaction_from_obj(json.loads(json.dumps(row))) == tx


def test_anything_but_a_row_is_refused():
    row = transaction_to_obj(payment("0x12", "0x34", 5, nonce=1))
    as_object = dict(zip(("id", "sender", "to", "nonce", "amount",
                          "gas_limit", "gas_price", "transition", "args"),
                         row))
    for data in (as_object, row[:8], [*row, 0], None, "tx"):
        with pytest.raises(TransactionRowError):
            transaction_from_obj(data)
    with pytest.raises(TransactionRowError):
        PoolEntry.from_obj({"tx": as_object, "deferrals": 0})
    entry = PoolEntry.from_obj([*row, 2])
    assert (entry.tx, entry.deferrals) == (transaction_from_obj(row), 2)


# -- the older object form, refused where it is stored ------------------------

def object_form(row: list) -> dict:
    """What ``transaction_to_obj`` returned before rows."""
    tx_id, sender, to, nonce, amount, gas_limit, gas_price, transition, \
        args = row
    return {"sender": sender, "to": to, "nonce": nonce, "amount": amount,
            "gas_limit": gas_limit, "gas_price": gas_price,
            "transition": transition, "args": args, "id": tx_id}


def rewrite_wal(data_dir, change) -> None:
    """Re-frame every record of a one-segment log through ``change``."""
    (segment,) = _segment_files(data_dir)
    records = [change(r) for r in read_wal(data_dir)]
    segment.write_bytes(b"".join(map(_encode, records)))


def funded_net(data_dir) -> Network:
    net = make_net(data_dir=str(data_dir), snapshot_every=10**9)
    for user in ("0x" + "aa" * 20, "0x" + "bb" * 20):
        net.create_account(user)
    return net


def test_an_object_body_in_an_epoch_record_stops_the_resume(tmp_path):
    net = funded_net(tmp_path)
    net.process_epoch([payment("0x" + "aa" * 20, "0x" + "bb" * 20, 5,
                               nonce=1)])
    net.close()
    seqs = []

    def to_objects(record):
        if record.type != "epoch":
            return record
        seqs.append(record.seq)
        data = dict(record.data)
        data["txns"] = [object_form(row) for row in data["txns"]]
        return WALRecord(record.seq, record.type, data)
    rewrite_wal(tmp_path, to_objects)
    with pytest.raises(WALError, match=f"log record {seqs[0]} \\(epoch\\)"):
        Network.resume(str(tmp_path))


@pytest.mark.parametrize("older", ["entries", "object-rows"])
def test_an_object_body_in_an_admission_record_stops_the_resume(
        tmp_path, older):
    net = funded_net(tmp_path)
    loop = make_loop(net)
    assert loop.submit(payment("0x" + "aa" * 20, "0x" + "bb" * 20, 5,
                               nonce=1)).admitted
    loop.sync()
    net.close()
    seqs = []

    def to_objects(record):
        if record.type != "svc-admit":
            return record
        seqs.append(record.seq)
        if older == "entries":      # the whole record as it was
            data = {"entries": [{"tx": object_form(row[:-1]),
                                 "deferrals": row[-1]}
                                for row in record.data]}
        else:
            data = [object_form(row[:-1]) for row in record.data]
        return WALRecord(record.seq, record.type, data)
    rewrite_wal(tmp_path, to_objects)
    with pytest.raises(WALError,
                       match=f"log record {seqs[0]} \\(svc-admit\\)"):
        Network.resume(str(tmp_path))


def test_a_version_3_restore_point_is_refused_by_version(tmp_path):
    net = funded_net(tmp_path)
    net.process_epoch([payment("0x" + "aa" * 20, "0x" + "bb" * 20, 5,
                               nonce=1)])
    net.snapshot()
    net.close()
    store = SnapshotStore(tmp_path)
    for path in store.paths():
        body = json.loads(path.read_text())["snapshot"]
        assert body["version"] == 4
        body["version"] = 3
        path.unlink()
        store.save(body)
    with pytest.raises(SnapshotError, match="version 3"):
        Network.resume(str(tmp_path))


def test_a_version_1_loadgen_stream_is_refused():
    header = {"kind": "header", "version": 1, "workload": "FT transfer",
              "population": 10, "ticks": 1, "txns_per_tick": 1, "seed": 7}
    tick = {"kind": "tick", "tick": 1, "txns": [object_form(
        transaction_to_obj(payment("0x12", "0x34", 5, nonce=1)))]}
    stream = io.StringIO(json.dumps(header) + "\n" + json.dumps(tick) + "\n")
    with pytest.raises(ValueError, match="version 1"):
        iter_stream(stream)
