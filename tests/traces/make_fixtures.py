#!/usr/bin/env python3
"""Regenerate the committed ChampSim trace fixtures.

The fixtures are deliberately tiny (well under 100KB each) and fully
deterministic: running this script always reproduces the committed
bytes, so the golden cell pinned to stream_gups.champsim never moves
unless the generator changes on purpose.

  stream_gups.champsim     strided streams interleaved with seeded
                           random updates (GUPS-style), plain format
  linked_walk.champsim.xz  repeated pointer-style walks over a small
                           shuffled node set, xz-compressed (the
                           format real ChampSim traces ship in)
  empty.dolins             a DOLINS01 instruction trace with zero
                           records, which --replay and --fuzz-replay
                           must reject (tests/usage_errors.cmake)

Usage: python3 make_fixtures.py   (from this directory)
"""

import struct
import subprocess
from pathlib import Path

HERE = Path(__file__).resolve().parent
RECORD = struct.Struct("<QBB2B4s2Q4Q")


def record(ip, is_branch=0, taken=0, dest_regs=(0, 0),
           src_regs=(0, 0, 0, 0), dest_mem=(0, 0),
           src_mem=(0, 0, 0, 0)):
    return RECORD.pack(ip, is_branch, taken, dest_regs[0], dest_regs[1],
                       bytes(src_regs), dest_mem[0], dest_mem[1],
                       src_mem[0], src_mem[1], src_mem[2], src_mem[3])


def lcg(seed):
    state = seed
    while True:
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        yield state


def stream_gups():
    out = []
    rng = lcg(0x5EED)
    stream_base = 0x10000
    table_base = 0x800000
    ip = 0x400000
    for i in range(220):
        # Three strided stream loads (T2 food)...
        for lane in range(3):
            addr = stream_base + lane * 0x4000 + i * 64
            out.append(record(ip + lane * 4, dest_regs=(2 + lane, 0),
                              src_regs=(10, 0, 0, 0),
                              src_mem=(addr, 0, 0, 0)))
        # ...one GUPS-style random read-modify-write...
        slot = next(rng) % 512
        addr = table_base + slot * 64
        out.append(record(ip + 12, dest_regs=(6, 0),
                          src_regs=(11, 0, 0, 0),
                          src_mem=(addr, 0, 0, 0)))
        out.append(record(ip + 16, src_regs=(6, 11, 0, 0),
                          dest_mem=(addr, 0)))
        # ...and a loop-closing backward branch.
        out.append(record(ip + 20, is_branch=1, taken=1))
    return b"".join(out)


def linked_walk():
    out = []
    rng = lcg(0xC0FFEE)
    nodes = list(range(256))
    # Deterministic shuffle: the walk order is irregular but repeats
    # exactly, the pattern temporal prefetchers feed on.
    for i in range(len(nodes) - 1, 0, -1):
        j = next(rng) % (i + 1)
        nodes[i], nodes[j] = nodes[j], nodes[i]
    heap = 0x2000000
    ip = 0x401000
    for _ in range(4):
        for step, node in enumerate(nodes):
            addr = heap + node * 128
            out.append(record(ip, dest_regs=(4, 0),
                              src_regs=(4, 0, 0, 0),
                              src_mem=(addr, 0, 0, 0)))
            if step % 16 == 15:
                out.append(record(ip + 4, is_branch=1, taken=1))
    return b"".join(out)


def main():
    plain = HERE / "stream_gups.champsim"
    plain.write_bytes(stream_gups())
    print(f"{plain.name}: {plain.stat().st_size} bytes")

    raw = linked_walk()
    xz_path = HERE / "linked_walk.champsim.xz"
    compressed = subprocess.run(
        ["xz", "-9", "-c"], input=raw, stdout=subprocess.PIPE,
        check=True).stdout
    xz_path.write_bytes(compressed)
    print(f"{xz_path.name}: {xz_path.stat().st_size} bytes "
          f"({len(raw)} raw)")

    # The DOLINS01 header alone: the magic, then a u64 count of zero.
    empty = HERE / "empty.dolins"
    empty.write_bytes(b"DOLINS01" + struct.pack("<Q", 0))
    print(f"{empty.name}: {empty.stat().st_size} bytes")


if __name__ == "__main__":
    main()
