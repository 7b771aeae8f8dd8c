/**
 * @file
 * Runtime kill-switch for the event-driven hot-path fast paths
 * (MSHR/DRAM-queue scan skipping).
 *
 * The switch resolves once per process from the environment and can
 * be overridden in-process by tests, so a single binary can run the
 * optimised and the reference path back to back and compare results
 * byte for byte: DOL_FASTPATH=0 disables the quiescence
 * short-circuits (every scan runs in full).
 *
 * Components *cache* the flag at construction (a member bool), so the
 * override must be set before the component is built. The fast paths
 * are provably result-identical; the switch exists so CI can prove it
 * on every host rather than trust the proof.
 */

#ifndef DOL_COMMON_HOTPATH_HPP
#define DOL_COMMON_HOTPATH_HPP

#include <cstdlib>
#include <cstring>

namespace dol::hotpath
{

namespace detail
{

inline bool
envDisabled(const char *name)
{
    const char *value = std::getenv(name);
    return value && std::strcmp(value, "0") == 0;
}

/** Inline variable (pre-main dynamic init), not a function-local
 *  static — readers never pay the static-init guard. */
inline bool g_fastPath = !envDisabled("DOL_FASTPATH");

} // namespace detail

/** Are the event-driven scan short-circuits enabled? */
inline bool
fastPath()
{
    return detail::g_fastPath;
}

/**
 * Test hook: force the fast paths on or off for components built
 * after this call. Not thread-safe; call before spawning sweeps.
 */
inline void
overrideFastPath(bool enabled)
{
    detail::g_fastPath = enabled;
}

} // namespace dol::hotpath

#endif // DOL_COMMON_HOTPATH_HPP
