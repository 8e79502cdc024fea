"""Byte rank tables: one byte per subset of an n-atom space, indexed by mask.

An entry is a rank, the position of a value in an ascending tuple, so
the order of ranks is the order of values and a max or min of values is
a max or min of bytes.  The primitives here build such tables and
combine them lane by lane, eight bits a lane, in pure Python: the byte
strings are read as integers (``int.from_bytes``) a fixed-size chunk at
a time, and one compare of two integers decides every lane of a chunk
(SWAR, SIMD within a register).  Chunking bounds the integers each step
allocates, so time and peak memory stay proportional to the table.
"""

from __future__ import annotations

from typing import Sequence

from .spaces import check_enum_cap

__all__ = ["NONZERO", "max_rank_table", "lane_max", "lane_min", "subset_min"]

_IDENTITY = bytes(range(256))
NONZERO = b"\0" + b"\1" * 255  # translate table: rank 0 stays 0, every other rank is 1
_CHUNK = 1 << 13  # bytes per integer in the lane-wise kernels


def max_rank_table(ranks: Sequence[int]) -> bytes:
    """table[mask] = the max of ranks[i] over the atoms i in mask; 0 at ∅.

    ``ranks`` lists one rank per atom, in the order that gives the atoms
    their mask bits, so a caller that wants the atoms in another order
    passes the ranks in that order.  One byte per subset (every rank
    below 256).  The table doubles once per atom: the masks whose highest
    atom is i take the entry of the rest of the mask clamped from below
    at ranks[i], by one translate through a slice of one identity table.
    More than ENUM_CAP ranks are refused before anything is built.
    """
    check_enum_cap(len(ranks))
    table = b"\0"
    for r in ranks:
        table += table.translate(bytes((r,)) * r + _IDENTITY[r:])  # x ↦ max(x, r)
    return table


def _lanes(size: int, byte: bytes) -> int:
    """The integer whose ``size`` bytes all equal ``byte``."""
    return int.from_bytes(byte * size, "little")


_HIGH = _lanes(_CHUNK, b"\x80")  # 0x80 in every lane of a chunk


def _min_lanes(a: int, b: int, high: int) -> int:
    """The lane-wise min of two integers of at most the lanes of ``high``.

    ``high`` holds 0x80 in every lane.  In each lane (a | 0x80) − (b & 0x7f)
    borrows from no other lane and keeps its high bit exactly when a's
    low seven bits are ≥ b's; with the high bits of a and b themselves
    that gives the lanes where a ≥ b as unsigned bytes, and the lane is
    then taken from b.  Only non-negative integers occur.
    """
    differ = a ^ b
    low_ge = (a | high) - (b ^ (b & high))
    ge = ((a & differ) | (low_ge ^ (low_ge & differ))) & high
    flags = ge >> 7
    return a ^ (differ & ((flags << 8) - flags))  # 0xff in every lane where a ≥ b


def _lane_wise(a: bytes, b: bytes, larger: bool) -> bytes:
    if len(a) != len(b):
        raise ValueError("lane-wise operands must have equal length")
    pieces = []
    for lo in range(0, len(a), _CHUNK):
        x = int.from_bytes(a[lo:lo + _CHUNK], "little")
        y = int.from_bytes(b[lo:lo + _CHUNK], "little")
        size = min(_CHUNK, len(a) - lo)
        least = _min_lanes(x, y, _HIGH >> 8 * (_CHUNK - size))
        # each lane of x ^ y ^ min(x, y) is the other one of x and y
        pieces.append((x ^ y ^ least if larger else least).to_bytes(size, "little"))
    return b"".join(pieces)


def lane_max(a: bytes, b: bytes) -> bytes:
    """The byte-wise max of two byte strings of equal length."""
    return _lane_wise(a, b, True)


def lane_min(a: bytes, b: bytes) -> bytes:
    """The byte-wise min of two byte strings of equal length."""
    return _lane_wise(a, b, False)


def subset_min(ranks: bytes, bits: int) -> bytearray:
    """least[B] = the min of ranks[B ∖ I] over every I ⊆ B ∩ ``bits``.

    The subset-min transform: one pass per bit i of ``bits`` lowers the
    entry of every mask holding i to that of the mask without it, so
    after the passes each entry is the least over every way of removing
    some of its ``bits``: t·2^n lane operations over t bits, against
    2^(n−t)·3^t reads for the literal minimum.  A bit below the chunk
    size pairs the lanes of one chunk with the chunk shifted up by 2^i
    lanes; a higher bit pairs whole chunks 2^i bytes apart.
    """
    least = bytearray(ranks)
    size = len(least)
    chunk = min(_CHUNK, size)
    inner = [i for i in range(chunk.bit_length() - 1) if bits >> i & 1]
    if inner:
        high = _HIGH >> 8 * (_CHUNK - chunk)
        full = _lanes(chunk, b"\xff")
        passes = []
        for i in inner:
            # the lanes of a chunk whose mask holds bit i, and the others
            keep = _lanes(chunk >> (i + 1), b"\0" * (1 << i) + b"\xff" * (1 << i))
            passes.append((8 << i, keep, full ^ keep))
        for lo in range(0, size, chunk):
            x = int.from_bytes(least[lo:lo + chunk], "little")
            for shift, keep, rest in passes:
                x = (x & rest) | _min_lanes(x & keep, (x << shift) & keep, high)
            least[lo:lo + chunk] = x.to_bytes(chunk, "little")
    step = chunk
    while step < size:
        if bits & step:
            for c in range(step, size, chunk):
                if c & step:
                    least[c:c + chunk] = lane_min(least[c:c + chunk],
                                                  least[c - step:c - step + chunk])
        step <<= 1
    return least
