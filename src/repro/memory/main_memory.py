"""Sparse paged main memory holding the architectural state."""

import struct

_PAGE_BITS = 12
_PAGE_SIZE = 1 << _PAGE_BITS
_PAGE_MASK = _PAGE_SIZE - 1


class MainMemory:
    """Byte-addressable sparse memory (4 KiB pages, zero-initialized).

    All multi-byte accesses are little-endian, matching RISC-V.
    """

    #: None, or a list :meth:`store` appends each ``(addr, value,
    #: size)`` write to, value truncated to ``size`` bytes (the
    #: lockstep oracle's write streams, ``repro.verify.lockstep``)
    write_log = None

    def __init__(self):
        self._pages = {}

    def _page(self, addr):
        index = addr >> _PAGE_BITS
        page = self._pages.get(index)
        if page is None:
            page = bytearray(_PAGE_SIZE)
            self._pages[index] = page
        return page

    def read_bytes(self, addr, size):
        out = bytearray(size)
        pos = 0
        while pos < size:
            offset = (addr + pos) & _PAGE_MASK
            chunk = min(size - pos, _PAGE_SIZE - offset)
            page = self._pages.get((addr + pos) >> _PAGE_BITS)
            if page is not None:
                out[pos:pos + chunk] = page[offset:offset + chunk]
            pos += chunk
        return bytes(out)

    def write_bytes(self, addr, data):
        pos = 0
        size = len(data)
        while pos < size:
            offset = (addr + pos) & _PAGE_MASK
            chunk = min(size - pos, _PAGE_SIZE - offset)
            page = self._page(addr + pos)
            page[offset:offset + chunk] = data[pos:pos + chunk]
            pos += chunk

    def read_word(self, addr):
        return struct.unpack("<I", self.read_bytes(addr, 4))[0]

    def write_word(self, addr, value):
        self.write_bytes(addr, struct.pack("<I", value & 0xFFFFFFFF))

    def read_half(self, addr):
        return struct.unpack("<H", self.read_bytes(addr, 2))[0]

    def read_byte(self, addr):
        page = self._pages.get(addr >> _PAGE_BITS)
        return page[addr & _PAGE_MASK] if page is not None else 0

    def write_byte(self, addr, value):
        self._page(addr)[addr & _PAGE_MASK] = value & 0xFF

    def load(self, addr, size, signed=False):
        """Read ``size`` bytes as an integer; optionally sign-extend."""
        offset = addr & _PAGE_MASK
        if offset + size <= _PAGE_SIZE:
            page = self._pages.get(addr >> _PAGE_BITS)
            raw = 0 if page is None else int.from_bytes(
                page[offset:offset + size], "little")
        else:
            raw = int.from_bytes(self.read_bytes(addr, size), "little")
        if signed:
            sign = 1 << (size * 8 - 1)
            raw = (raw & (sign - 1)) - (raw & sign)
        return raw

    def store(self, addr, value, size):
        """Write the low ``size`` bytes of ``value``."""
        value &= (1 << (size * 8)) - 1
        if self.write_log is not None:
            self.write_log.append((addr, value, size))
        data = value.to_bytes(size, "little")
        offset = addr & _PAGE_MASK
        if offset + size <= _PAGE_SIZE:
            page = self._pages.get(addr >> _PAGE_BITS)
            if page is None:
                page = self._page(addr)
            page[offset:offset + size] = data
        else:
            self.write_bytes(addr, data)

    def snapshot_words(self, addr, count):
        """Read ``count`` consecutive 32-bit words (test/debug helper)."""
        return [self.read_word(addr + 4 * i) for i in range(count)]
