#include "runner/checkpoint.hpp"

#include "common/wire.hpp"

namespace dol::runner
{

namespace
{

void
putRow(std::string &out, const MetricsRow &row)
{
    wire::putString(out, row.workload);
    wire::putString(out, row.prefetcher);
    wire::putString(out, row.variant);
    wire::putU64(out, row.seed);
    wire::putF64(out, row.baselineIpc);
    wire::putF64(out, row.ipc);
    wire::putF64(out, row.speedup);
    wire::putF64(out, row.baselineMpkiL1);
    wire::putU64(out, row.prefetchesIssued);
    wire::putF64(out, row.scope);
    wire::putF64(out, row.effAccuracyL1);
    wire::putF64(out, row.effCoverageL1);
    wire::putF64(out, row.effAccuracyL2);
    wire::putF64(out, row.effCoverageL2);
    wire::putF64(out, row.trafficNormalized);
    wire::putU64(out, row.instructions);
    const auto counters = row.counters.entries();
    wire::putU32(out, static_cast<std::uint32_t>(counters.size()));
    for (const auto &[scope, name, value] : counters) {
        wire::putString(out, scope);
        wire::putString(out, name);
        wire::putU64(out, value);
    }
}

MetricsRow
readRow(wire::Cursor &in)
{
    MetricsRow row;
    row.workload = in.str();
    row.prefetcher = in.str();
    row.variant = in.str();
    row.seed = in.u64();
    row.baselineIpc = in.f64();
    row.ipc = in.f64();
    row.speedup = in.f64();
    row.baselineMpkiL1 = in.f64();
    row.prefetchesIssued = in.u64();
    row.scope = in.f64();
    row.effAccuracyL1 = in.f64();
    row.effCoverageL1 = in.f64();
    row.effAccuracyL2 = in.f64();
    row.effCoverageL2 = in.f64();
    row.trafficNormalized = in.f64();
    row.instructions = in.u64();
    const std::uint32_t counters = in.u32();
    for (std::uint32_t i = 0; i < counters && in.ok; ++i) {
        const std::string scope = in.str();
        const std::string name = in.str();
        row.counters.set(scope, name, in.u64());
    }
    return row;
}

wire::Cursor
cursorOver(const std::string &payload)
{
    return wire::Cursor{
        reinterpret_cast<const unsigned char *>(payload.data()),
        payload.size()};
}

} // namespace

std::string
encodePlanPayload(const JournalPlan &plan)
{
    std::string payload;
    wire::putU64(payload, plan.itemCount);
    wire::putU64(payload, plan.gridHash);
    wire::putU64(payload, plan.maxInstrs);
    return payload;
}

std::string
encodeJobDonePayload(const JournalJobDone &job)
{
    std::string payload;
    wire::putU64(payload, job.jobIndex);
    wire::putString(payload, job.label);
    wire::putString(payload, job.variant);
    wire::putU64(payload, job.seed);
    wire::putF64(payload, job.wallMs);
    wire::putU32(payload, static_cast<std::uint32_t>(job.rows.size()));
    for (const MetricsRow &row : job.rows)
        putRow(payload, row);
    return payload;
}

std::string
encodeCellFailedPayload(const JournalCellFailed &failed)
{
    std::string payload;
    wire::putU64(payload, failed.jobIndex);
    wire::putString(payload, failed.cell.label);
    wire::putString(payload, failed.cell.variant);
    wire::putU64(payload, failed.cell.seed);
    wire::putU64(payload, 1); // retired attempts slot
    wire::putString(payload, failed.cell.kind);
    wire::putString(payload, failed.cell.error);
    return payload;
}

bool
decodePlanPayload(const std::string &payload, JournalPlan &out)
{
    wire::Cursor in = cursorOver(payload);
    out.itemCount = in.u64();
    out.gridHash = in.u64();
    out.maxInstrs = in.u64();
    return in.ok;
}

bool
decodeJobDonePayload(const std::string &payload, JournalJobDone &out)
{
    wire::Cursor in = cursorOver(payload);
    out.jobIndex = in.u64();
    out.label = in.str();
    out.variant = in.str();
    out.seed = in.u64();
    out.wallMs = in.f64();
    out.rows.clear();
    const std::uint32_t rows = in.u32();
    for (std::uint32_t i = 0; i < rows && in.ok; ++i)
        out.rows.push_back(readRow(in));
    return in.ok;
}

bool
decodeCellFailedPayload(const std::string &payload,
                        JournalCellFailed &out)
{
    wire::Cursor in = cursorOver(payload);
    out.jobIndex = in.u64();
    out.cell.label = in.str();
    out.cell.variant = in.str();
    out.cell.seed = in.u64();
    (void)in.u64(); // retired attempts slot
    out.cell.kind = in.str();
    out.cell.error = in.str();
    return in.ok;
}

bool
CheckpointJournal::create(const std::string &path,
                          const JournalPlan &plan, std::string *error)
{
    if (!_file.create(path, kCheckpointMagic, error))
        return false;
    if (!_file.appendRecord(
            static_cast<std::uint8_t>(JournalRecord::kPlan),
            encodePlanPayload(plan))) {
        if (error)
            *error = "cannot write checkpoint plan to " + path;
        return false;
    }
    return true;
}

bool
CheckpointJournal::openAppend(const std::string &path,
                              std::uint64_t good_bytes,
                              std::string *error)
{
    return _file.openAppend(path, good_bytes, error);
}

bool
CheckpointJournal::appendJobDone(const JournalJobDone &record)
{
    return _file.appendRecord(
        static_cast<std::uint8_t>(JournalRecord::kJobDone),
        encodeJobDonePayload(record));
}

bool
CheckpointJournal::appendCellFailed(const JournalCellFailed &record)
{
    return _file.appendRecord(
        static_cast<std::uint8_t>(JournalRecord::kCellFailed),
        encodeCellFailedPayload(record));
}

CheckpointJournal::Load
CheckpointJournal::load(const std::string &path)
{
    Load out;
    FramedReader reader;
    if (!reader.open(path, kCheckpointMagic)) {
        out.fileExists = reader.fileExists();
        out.error = out.fileExists
                        ? path + " is not a DOLCKPT1 checkpoint"
                        : "no checkpoint at " + path;
        return out;
    }
    out.fileExists = true;
    out.valid = true;
    out.goodBytes = reader.goodBytes();

    // A record whose checksum verifies but whose payload does not
    // decode is as suspect as a torn tail: stop before it, so a
    // resuming writer truncates it away. Unknown record types with a
    // valid checksum are skipped instead — a journal written by a
    // newer tool must not make the clean prefix end early (and then
    // get truncated mid-file by openAppend).
    bool decodeFailed = false;
    FramedReader::Record rec;
    while (reader.next(rec)) {
        bool parsed = true;
        switch (static_cast<JournalRecord>(rec.type)) {
        case JournalRecord::kPlan: {
            JournalPlan plan;
            parsed = decodePlanPayload(rec.payload, plan);
            if (parsed)
                out.plan = plan;
            break;
        }
        case JournalRecord::kJobDone: {
            JournalJobDone job;
            parsed = decodeJobDonePayload(rec.payload, job);
            if (parsed)
                out.jobs.push_back(std::move(job));
            break;
        }
        case JournalRecord::kCellFailed: {
            JournalCellFailed failed;
            parsed = decodeCellFailedPayload(rec.payload, failed);
            if (parsed)
                out.failedCells.push_back(std::move(failed));
            break;
        }
        default:
            break;
        }
        if (!parsed) {
            decodeFailed = true;
            break;
        }
        out.goodBytes = reader.goodBytes();
    }
    out.cleanTail = !decodeFailed && !reader.tornTail();
    return out;
}

} // namespace dol::runner
