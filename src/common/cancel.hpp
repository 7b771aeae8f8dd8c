/**
 * @file
 * Cooperative cancellation for long-running simulation work.
 *
 * A CancelToken carries a per-attempt wall-clock deadline: the
 * runner's per-cell timeout. Work that wants to be cancellable polls
 * expired() at natural checkpoints — the simulator does so every few
 * thousand instructions — and throws CancelledError, which the
 * runner's supervision layer records as "timed out".
 *
 * A sweep's stop flag (graceful drain) is not part of the token: a
 * stop request skips queued jobs and lets running ones finish. Each
 * token belongs to one attempt and is read only on the thread that
 * runs it.
 */

#ifndef DOL_COMMON_CANCEL_HPP
#define DOL_COMMON_CANCEL_HPP

#include <chrono>
#include <stdexcept>
#include <string>

namespace dol
{

struct CancelToken
{
    /** Per-attempt deadline; the epoch value means "no deadline". */
    std::chrono::steady_clock::time_point deadline{};

    bool
    hasDeadline() const
    {
        return deadline != std::chrono::steady_clock::time_point{};
    }

    bool
    expired() const
    {
        return hasDeadline() &&
               std::chrono::steady_clock::now() >= deadline;
    }
};

/** Thrown from a cancellation point once a token has expired. */
class CancelledError : public std::runtime_error
{
  public:
    explicit CancelledError(const std::string &what)
        : std::runtime_error(what)
    {}
};

} // namespace dol

#endif // DOL_COMMON_CANCEL_HPP
