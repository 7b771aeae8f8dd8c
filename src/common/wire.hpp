/**
 * @file
 * Little-endian byte codec of every binary format: the DOLCKPT1
 * journal, DOLTRC01 event traces, DOLINS01 instruction traces and
 * ChampSim records.
 *
 * Every integer is stored byte by byte, independent of host order,
 * and doubles travel bit-exact through u64 so no text round trip can
 * perturb a resumed or merged value. store/load read and write a
 * fixed-layout record at known offsets; put appends to a growing
 * payload. The Cursor is a bounds-checked reader: any shortfall flips
 * `ok` and every later read returns zero, so record decoders can run
 * a straight-line sequence of reads and check `ok` once at the end.
 */

#ifndef DOL_COMMON_WIRE_HPP
#define DOL_COMMON_WIRE_HPP

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

namespace dol::wire
{

inline void
storeU32(unsigned char *out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out[i] = static_cast<unsigned char>(v >> (8 * i));
}

inline void
storeU64(unsigned char *out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out[i] = static_cast<unsigned char>(v >> (8 * i));
}

inline std::uint32_t
loadU32(const unsigned char *in)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(in[i]) << (8 * i);
    return v;
}

inline std::uint64_t
loadU64(const unsigned char *in)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
    return v;
}

inline void
putU32(std::string &out, std::uint32_t v)
{
    unsigned char bytes[4];
    storeU32(bytes, v);
    out.append(reinterpret_cast<const char *>(bytes), sizeof bytes);
}

inline void
putU64(std::string &out, std::uint64_t v)
{
    unsigned char bytes[8];
    storeU64(bytes, v);
    out.append(reinterpret_cast<const char *>(bytes), sizeof bytes);
}

inline void
putF64(std::string &out, double v)
{
    putU64(out, std::bit_cast<std::uint64_t>(v));
}

inline void
putString(std::string &out, const std::string &s)
{
    putU32(out, static_cast<std::uint32_t>(s.size()));
    out += s;
}

/** Bounds-checked little-endian reader over a payload. */
struct Cursor
{
    const unsigned char *data;
    std::size_t size;
    std::size_t pos = 0;
    bool ok = true;

    bool
    need(std::size_t n)
    {
        if (!ok || size - pos < n)
            ok = false;
        return ok;
    }

    std::uint32_t
    u32()
    {
        if (!need(4))
            return 0;
        const std::uint32_t v = loadU32(data + pos);
        pos += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        if (!need(8))
            return 0;
        const std::uint64_t v = loadU64(data + pos);
        pos += 8;
        return v;
    }

    double f64() { return std::bit_cast<double>(u64()); }

    std::string
    str()
    {
        const std::uint32_t n = u32();
        if (!need(n))
            return {};
        std::string s(reinterpret_cast<const char *>(data + pos), n);
        pos += n;
        return s;
    }
};

} // namespace dol::wire

#endif // DOL_COMMON_WIRE_HPP
