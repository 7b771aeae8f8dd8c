/**
 * @file
 * Error-reporting helpers in the gem5 spirit: panic() for internal
 * invariant violations, fatal() for user/configuration errors.
 */

#ifndef DOL_COMMON_LOG_HPP
#define DOL_COMMON_LOG_HPP

#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace dol
{

/** Abort on an internal bug; never reachable in a correct build. */
[[noreturn]] inline void
panic(std::string_view msg)
{
    std::fprintf(stderr, "panic: %.*s\n",
                 static_cast<int>(msg.size()), msg.data());
    std::abort();
}

/** Exit on a user error (bad configuration or arguments). */
[[noreturn]] inline void
fatal(std::string_view msg)
{
    std::fprintf(stderr, "fatal: %.*s\n",
                 static_cast<int>(msg.size()), msg.data());
    std::exit(1);
}

} // namespace dol

#endif // DOL_COMMON_LOG_HPP
