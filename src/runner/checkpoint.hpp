/**
 * @file
 * Crash-safe checkpoint journal for sweeps and fuzz campaigns (a
 * campaign is a sweep of one job per case).
 *
 * The journal is an append-only binary file ("DOLCKPT1" magic) of
 * length-prefixed, FNV-1a-checksummed records (the framing lives in
 * runner/framed_file.hpp), fsync'd
 * after every append, so at any kill point — SIGKILL included — the
 * file holds a prefix of whole records plus at most one torn tail.
 * The loader stops at the first short or checksum-failing record,
 * reports how many clean bytes precede it, and a resuming writer
 * truncates the tail away before appending.
 *
 * Record kinds:
 *   kPlan       sweep identity: job count, grid hash, instr budget.
 *               Written first; resume refuses a journal whose plan
 *               does not match the sweep being resumed.
 *   kJobDone    one completed sweep job: index, label, variant, seed,
 *               wall time, and every metric row the job produced —
 *               enough to merge the job into the final dol-sweep-v1
 *               document byte-identically without re-simulating.
 *               Doubles are stored bit-exact and counters as raw
 *               (scope, name, u64) triples, so no text round trip can
 *               perturb the resumed output.
 *   kCellFailed one quarantined cell (a fuzz case that found a diff
 *               is one). A resuming sweep re-runs these cells; the
 *               record exists so `dolsim --merge` can surface a
 *               shard's losses in the merged document's failed_cells
 *               section, exactly as a single-process run reports
 *               them. Its payload keeps a retired u64 attempts slot,
 *               written as 1 and skipped on read.
 *
 * Type 3 once journaled passing campaign cases by index; loaders skip
 * it like any unknown type, so such a journal still loads, and its
 * plan makes resume refuse it.
 *
 * In-flight work is never journaled and re-runs on resume; the
 * journal never has to encode an exception mid-flight.
 *
 * CheckpointJournal::load() is the one reader: `--resume` and
 * `dolsim --merge` both read a journal through it, so both agree on
 * where its clean prefix ends.
 */

#ifndef DOL_RUNNER_CHECKPOINT_HPP
#define DOL_RUNNER_CHECKPOINT_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "runner/framed_file.hpp"
#include "runner/result_store.hpp"

namespace dol::runner
{

constexpr char kCheckpointMagic[8] = {'D', 'O', 'L', 'C',
                                      'K', 'P', 'T', '1'};

/** Wire record types of the DOLCKPT1 format. */
enum class JournalRecord : std::uint8_t
{
    kPlan = 1,
    kJobDone = 2,
    kCellFailed = 4,
};

/** Identity of the sweep a journal belongs to. */
struct JournalPlan
{
    /** Total jobs. */
    std::uint64_t itemCount = 0;
    /** FNV-1a over every job's (label, variant, seed). */
    std::uint64_t gridHash = 0;
    std::uint64_t maxInstrs = 0;

    bool
    operator==(const JournalPlan &other) const
    {
        return itemCount == other.itemCount &&
               gridHash == other.gridHash &&
               maxInstrs == other.maxInstrs;
    }
};

/** One completed sweep job, with everything needed to merge it. */
struct JournalJobDone
{
    std::uint64_t jobIndex = 0;
    std::string label;
    std::string variant;
    std::uint64_t seed = 0;
    double wallMs = 0.0;
    std::vector<MetricsRow> rows;
};

/** One quarantined cell. */
struct JournalCellFailed
{
    std::uint64_t jobIndex = 0;
    FailedCell cell;
};

// Payload codecs, shared by the journal writer and load(). Decoders
// return false on a short or malformed payload and leave @p out
// unspecified.
std::string encodePlanPayload(const JournalPlan &plan);
std::string encodeJobDonePayload(const JournalJobDone &job);
std::string encodeCellFailedPayload(const JournalCellFailed &failed);
bool decodePlanPayload(const std::string &payload, JournalPlan &out);
bool decodeJobDonePayload(const std::string &payload,
                          JournalJobDone &out);
bool decodeCellFailedPayload(const std::string &payload,
                             JournalCellFailed &out);

class CheckpointJournal
{
  public:
    CheckpointJournal() = default;

    CheckpointJournal(const CheckpointJournal &) = delete;
    CheckpointJournal &operator=(const CheckpointJournal &) = delete;

    /** Truncate/create @p path and write the plan record. */
    bool create(const std::string &path, const JournalPlan &plan,
                std::string *error = nullptr);

    /**
     * Reopen an existing journal for appending, first truncating it
     * to @p good_bytes (from Load::goodBytes) so a torn tail from the
     * previous crash never precedes new records.
     */
    bool openAppend(const std::string &path, std::uint64_t good_bytes,
                    std::string *error = nullptr);

    /** Append + fsync one completed job. Thread-safe. */
    bool appendJobDone(const JournalJobDone &record);

    /** Append + fsync one quarantined cell. Thread-safe. */
    bool appendCellFailed(const JournalCellFailed &record);

    bool isOpen() const { return _file.isOpen(); }
    void close() { _file.close(); }

    struct Load
    {
        bool fileExists = false;
        /** Header parsed (magic ok). False => not a journal at all. */
        bool valid = false;
        /** False when a torn/corrupt tail was dropped. */
        bool cleanTail = true;
        /** Bytes of clean prefix (header + whole good records). */
        std::uint64_t goodBytes = 0;
        std::optional<JournalPlan> plan;
        std::vector<JournalJobDone> jobs;
        std::vector<JournalCellFailed> failedCells;
        std::string error;
    };

    /**
     * Read every intact record of @p path. Never throws: a missing
     * file reports fileExists=false, garbage reports valid=false, and
     * a torn tail is dropped with cleanTail=false.
     */
    static Load load(const std::string &path);

  private:
    FramedWriter _file;
};

} // namespace dol::runner

#endif // DOL_RUNNER_CHECKPOINT_HPP
