#include "trace/trace_io.hpp"

#include <cstring>

#include "common/hash.hpp"
#include "common/wire.hpp"

namespace dol
{

namespace
{

/** Flush granularity: large enough to amortize fwrite, small enough
 *  to keep short traces cheap. */
constexpr std::size_t kFlushBytes = 64 * 1024;

} // namespace

const char *
traceEventName(TraceEventType type)
{
    switch (type) {
      case TraceEventType::kPrefetchIssued: return "pf_issued";
      case TraceEventType::kPrefetchFilled: return "pf_filled";
      case TraceEventType::kPrefetchUsed: return "pf_used";
      case TraceEventType::kPrefetchLate: return "pf_late";
      case TraceEventType::kPrefetchDropped: return "pf_dropped";
      case TraceEventType::kPrefetchDemoted: return "pf_demoted";
      case TraceEventType::kCacheHit: return "cache_hit";
      case TraceEventType::kCacheMiss: return "cache_miss";
      case TraceEventType::kCacheEvict: return "cache_evict";
      case TraceEventType::kT2Transition: return "t2_transition";
      case TraceEventType::kP1ChainStart: return "p1_chain_start";
      case TraceEventType::kP1ChainAdvance: return "p1_chain_advance";
      case TraceEventType::kP1ChainResync: return "p1_chain_resync";
      case TraceEventType::kP1ProducerConfirm:
        return "p1_producer_confirm";
      case TraceEventType::kC1RegionDense: return "c1_region_dense";
      case TraceEventType::kC1Verdict: return "c1_verdict";
      case TraceEventType::kC1CarpetFire: return "c1_carpet_fire";
      case TraceEventType::kCoordClaim: return "coord_claim";
      case TraceEventType::kCoordUnclaim: return "coord_unclaim";
      case TraceEventType::kCoreMispredict: return "core_mispredict";
      case TraceEventType::kAdaptDegree: return "adapt_degree";
      case TraceEventType::kAdaptDemote: return "adapt_demote";
      case TraceEventType::kAdaptReadmit: return "adapt_readmit";
      case TraceEventType::kNumTraceEventTypes: break;
    }
    return "unknown";
}

void
encodeTraceEvent(const TraceEvent &event, unsigned char *out)
{
    out[0] = static_cast<unsigned char>(event.type);
    out[1] = event.comp;
    out[2] = event.level;
    out[3] = event.arg;
    wire::storeU64(out + 4, event.cycle);
    wire::storeU64(out + 12, event.addr);
    wire::storeU64(out + 20, event.aux);
}

bool
decodeTraceEvent(const unsigned char *in, TraceEvent &out)
{
    if (in[0] >= kNumTraceEventTypes)
        return false;
    out.type = static_cast<TraceEventType>(in[0]);
    out.comp = in[1];
    out.level = in[2];
    out.arg = in[3];
    out.cycle = wire::loadU64(in + 4);
    out.addr = wire::loadU64(in + 12);
    out.aux = wire::loadU64(in + 20);
    return true;
}

// --- TraceWriter --------------------------------------------------

bool
TraceWriter::open(const std::string &path)
{
    close();
    _count = 0;
    _digest = kFnv64Basis;
    _ok = true;
    _error.clear();
    if (path.empty()) {
        _error = "empty trace path";
        _ok = false;
        return false;
    }
    _file = std::fopen(path.c_str(), "wb");
    if (!_file) {
        _error = "cannot open " + path;
        _ok = false;
        return false;
    }
    unsigned char header[kTraceHeaderBytes];
    std::memcpy(header, kTraceMagic, sizeof kTraceMagic);
    wire::storeU32(header + 8, kTraceVersion);
    wire::storeU32(header + 12, 0);
    _buffer.assign(reinterpret_cast<const char *>(header),
                   sizeof header);
    return true;
}

void
TraceWriter::append(const TraceEvent &event)
{
    unsigned char record[kTraceRecordBytes];
    encodeTraceEvent(event, record);
    _digest = fnv64(record, sizeof record, _digest);
    ++_count;
    if (_file) {
        _buffer.append(reinterpret_cast<const char *>(record),
                       sizeof record);
        if (_buffer.size() >= kFlushBytes)
            flushBuffer();
    }
}

void
TraceWriter::flushBuffer()
{
    if (!_file || _buffer.empty())
        return;
    if (std::fwrite(_buffer.data(), 1, _buffer.size(), _file) !=
        _buffer.size()) {
        _ok = false;
        _error = "trace write failed";
    }
    _buffer.clear();
}

bool
TraceWriter::close()
{
    if (_file) {
        flushBuffer();
        if (std::fclose(_file) != 0) {
            _ok = false;
            if (_error.empty())
                _error = "trace close failed";
        }
        _file = nullptr;
    }
    return _ok;
}

// --- TraceReader --------------------------------------------------

TraceReader::~TraceReader()
{
    if (_file)
        std::fclose(_file);
}

bool
TraceReader::open(const std::string &path)
{
    if (_file) {
        std::fclose(_file);
        _file = nullptr;
    }
    _read = 0;
    _error.clear();
    _file = std::fopen(path.c_str(), "rb");
    if (!_file) {
        _error = "cannot open " + path;
        return false;
    }
    unsigned char header[kTraceHeaderBytes];
    if (std::fread(header, 1, sizeof header, _file) != sizeof header) {
        _error = "truncated trace header";
        return false;
    }
    if (std::memcmp(header, kInstrTraceMagic, sizeof kInstrTraceMagic) ==
        0) {
        _error = path + " is an instruction trace (DOLINS01, written by "
                        "--record), not an event trace (DOLTRC01); "
                        "replay it with --replay";
        return false;
    }
    if (std::memcmp(header, kTraceMagic, sizeof kTraceMagic) != 0) {
        _error = "bad trace magic (not a dol event trace file)";
        return false;
    }
    if (const std::uint32_t version = wire::loadU32(header + 8);
        version != kTraceVersion) {
        _error = "unsupported trace version " + std::to_string(version);
        return false;
    }
    return true;
}

bool
TraceReader::next(TraceEvent &out)
{
    if (!_file || !_error.empty())
        return false;
    unsigned char record[kTraceRecordBytes];
    const std::size_t got = std::fread(record, 1, sizeof record, _file);
    if (got == 0)
        return false; // clean end of stream
    if (got != sizeof record) {
        _error = "truncated record after " + std::to_string(_read) +
                 " events";
        return false;
    }
    if (!decodeTraceEvent(record, out)) {
        _error = "corrupt record (bad event type " +
                 std::to_string(record[0]) + ") after " +
                 std::to_string(_read) + " events";
        return false;
    }
    ++_read;
    return true;
}

bool
readTraceFile(const std::string &path, std::vector<TraceEvent> &out,
              std::string *error)
{
    TraceReader reader;
    if (!reader.open(path)) {
        if (error)
            *error = reader.error();
        return false;
    }
    TraceEvent event;
    while (reader.next(event))
        out.push_back(event);
    if (!reader.ok()) {
        if (error)
            *error = reader.error();
        return false;
    }
    return true;
}

std::string
traceEventToText(const TraceEvent &event)
{
    char line[160];
    std::snprintf(line, sizeof line,
                  "%12llu %-20s comp=%u level=%u arg=%u "
                  "addr=0x%llx aux=0x%llx",
                  static_cast<unsigned long long>(event.cycle),
                  traceEventName(event.type), event.comp, event.level,
                  event.arg,
                  static_cast<unsigned long long>(event.addr),
                  static_cast<unsigned long long>(event.aux));
    return line;
}

bool
dumpTraceText(const std::string &path, std::FILE *out,
              std::string *error)
{
    TraceReader reader;
    if (!reader.open(path)) {
        if (error)
            *error = reader.error();
        return false;
    }
    TraceEvent event;
    while (reader.next(event)) {
        const std::string line = traceEventToText(event);
        std::fprintf(out, "%s\n", line.c_str());
    }
    if (!reader.ok()) {
        if (error)
            *error = reader.error();
        return false;
    }
    return true;
}

} // namespace dol
