"""The byte-at-a-time transaction encoder, kept as a test oracle.

:func:`repro.blockchain.varint.encode` answers values below 128 from a
table, and :meth:`~repro.blockchain.transactions.Transaction.serialize`
collects its fields in one list and joins it once. These are the
versions they replaced: every varint built in a ``bytearray`` seven bits
at a time, and the transaction appended field by field into one growing
buffer. ``tests/test_blockchain_block.py`` checks production against
them byte for byte.
"""

from __future__ import annotations


def varint_encode(value: int) -> bytes:
    """Encode a non-negative integer as a Monero varint."""
    if value < 0:
        raise ValueError(f"varint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def serialize(tx) -> bytes:
    """The wire bytes of a :class:`~repro.blockchain.transactions.Transaction`."""
    out = bytearray()
    out += varint_encode(tx.version)
    out += varint_encode(tx.unlock_time)
    out += varint_encode(len(tx.inputs))
    for txin in tx.inputs:
        if txin[0] == "gen":
            out += b"\xff"  # txin_gen tag
            out += varint_encode(txin[1])
        else:
            out += b"\x02"  # txin_to_key tag (simplified)
            key_image = txin[1]
            out += key_image if isinstance(key_image, bytes) else str(key_image).encode()
    out += varint_encode(len(tx.outputs))
    for amount, address in tx.outputs:
        out += varint_encode(amount)
        raw = address.encode("utf-8") if isinstance(address, str) else address
        out += varint_encode(len(raw)) + raw
    out += varint_encode(len(tx.extra)) + tx.extra
    return bytes(out)
