# Layout guard for the per-access train path (tier1).
#
# The flat-table PR's contract: no node-based std:: containers and no
# string-keyed lookups on the hot headers that the per-access loop
# probes (T2/P1/C1/composite state, the SIT, the accounting maps and
# the stratifier that classifies every prefetched line).
# A reintroduced std::unordered_map<Pc, ...> would silently undo the
# data-layout work, so this scripted test greps for the forbidden
# spellings and fails with the offending line.
#
# Usage: cmake -DSRC_DIR=<repo>/src -P hot_path_layout.cmake

if(NOT DEFINED SRC_DIR)
    message(FATAL_ERROR "pass -DSRC_DIR=<repo src dir>")
endif()

# Every prefetcher header is hot: each one's train() runs per access.
file(GLOB prefetch_headers RELATIVE "${SRC_DIR}" "${SRC_DIR}/prefetch/*.hpp")
set(hot_headers
    common/arena.hpp
    common/ring_buffer.hpp
    core/t2.hpp
    core/sit.hpp
    core/p1.hpp
    core/c1.hpp
    core/composite.hpp
    metrics/accounting.hpp
    metrics/stratify.hpp
    mem/memory_image.hpp
    ${prefetch_headers}
)

# Forbidden container spellings. std::map is allowed only in cold
# registries (counters.hpp resolves handles outside the loop), which
# is why these patterns scan the hot headers alone.
set(banned_patterns
    "std::unordered_map"
    "std::unordered_set<[^>]*Pc"
    "std::map<"
    "std::multimap"
)

set(failures "")
foreach(header ${hot_headers})
    set(path "${SRC_DIR}/${header}")
    if(NOT EXISTS "${path}")
        list(APPEND failures "missing hot header: ${path}")
        continue()
    endif()
    file(STRINGS "${path}" lines)
    set(lineno 0)
    foreach(line IN LISTS lines)
        math(EXPR lineno "${lineno} + 1")
        foreach(pattern ${banned_patterns})
            if(line MATCHES "${pattern}")
                list(APPEND failures
                     "${header}:${lineno}: banned '${pattern}': ${line}")
            endif()
        endforeach()
    endforeach()
endforeach()

if(failures)
    string(JOIN "\n  " msg ${failures})
    message(FATAL_ERROR
        "node-based/string-keyed containers back on the hot path:\n  ${msg}")
endif()
message(STATUS "hot-path layout clean: ${hot_headers}")
