"""Bit-granular readers and writers used by the compression codecs.

The hardware units in the paper (delta encoder, BPC) produce bit- and
byte-aligned variable-length streams.  ``BitWriter``/``BitReader`` give the
codecs an explicit, testable stream abstraction with MSB-first bit order,
which mirrors how the BPC bitplane symbols are laid out.
"""

from __future__ import annotations


class BitWriter:
    """Accumulates bits MSB-first into a growing byte buffer."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._bitpos = 0  # bits already used in the trailing byte

    def __len__(self) -> int:
        """Total number of bits written so far."""
        return len(self._bytes) * 8 - (8 - self._bitpos if self._bitpos else 0)

    def write_bit(self, bit: int) -> None:
        if self._bitpos == 0:
            self._bytes.append(0)
        if bit:
            self._bytes[-1] |= 0x80 >> self._bitpos
        self._bitpos = (self._bitpos + 1) & 7

    def write_bits(self, value: int, nbits: int) -> None:
        """Write the low ``nbits`` of ``value``, most significant bit first."""
        if nbits < 0:
            raise ValueError("nbits must be non-negative")
        if nbits and value >> nbits:
            raise ValueError(
                f"value {value} does not fit in {nbits} bits"
            )
        for shift in range(nbits - 1, -1, -1):
            self.write_bit((value >> shift) & 1)

    def align_byte(self) -> None:
        """Pad with zero bits to the next byte boundary."""
        self._bitpos = 0

    def getvalue(self) -> bytes:
        return bytes(self._bytes)


class BitReader:
    """Reads bits MSB-first from a byte buffer produced by ``BitWriter``."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0  # absolute bit position

    @property
    def bits_remaining(self) -> int:
        return len(self._data) * 8 - self._pos

    def read_bit(self) -> int:
        byte_index, bit_index = divmod(self._pos, 8)
        if byte_index >= len(self._data):
            raise EOFError("bit stream exhausted")
        self._pos += 1
        return (self._data[byte_index] >> (7 - bit_index)) & 1

    def read_bits(self, nbits: int) -> int:
        value = 0
        for _ in range(nbits):
            value = (value << 1) | self.read_bit()
        return value

    def peek_bits(self, nbits: int) -> int:
        """Read without consuming."""
        saved = self._pos
        value = self.read_bits(nbits)
        self._pos = saved
        return value

    def align_byte(self) -> None:
        self._pos = (self._pos + 7) & ~7
