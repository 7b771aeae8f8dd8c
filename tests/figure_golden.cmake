# Figure-table golden check, run as a ctest via `cmake -P`.
#
# Runs a bench binary at the DOL_QUICK budget with --jobs 2 --quiet
# and requires its stdout (the paper-style figure tables) to match the
# checked-in golden file byte for byte. On a mismatch it prints the
# unified diff. With DOL_UPDATE_GOLDEN=1 in the environment it rewrites
# the golden file instead, like the golden-trace harness.
#
# Usage:
#   cmake -DBENCH=<path-to-bench-binary> -DGOLDEN=<golden-file>
#         -DWORKDIR=<scratch-dir> [-DARGS=<arguments>]
#         -P figure_golden.cmake
#
# ARGS replaces the default arguments (--jobs 2 --quiet); an empty
# -DARGS= runs the binary with none, as the examples take none.

foreach(required BENCH GOLDEN WORKDIR)
    if(NOT DEFINED ${required})
        message(FATAL_ERROR "figure_golden: -D${required}= not set")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
set(actual "${WORKDIR}/stdout.txt")
if(NOT DEFINED ARGS)
    set(ARGS --jobs 2 --quiet)
endif()

set(ENV{DOL_QUICK} 1)
execute_process(
    COMMAND "${BENCH}" ${ARGS}
    RESULT_VARIABLE rc
    OUTPUT_FILE "${actual}")
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "figure_golden: ${BENCH} exited ${rc}")
endif()

if("$ENV{DOL_UPDATE_GOLDEN}" STREQUAL "1")
    execute_process(
        COMMAND "${CMAKE_COMMAND}" -E copy "${actual}" "${GOLDEN}")
    message(STATUS "figure_golden: rewrote ${GOLDEN}")
    return()
endif()

if(NOT EXISTS "${GOLDEN}")
    message(FATAL_ERROR "figure_golden: ${GOLDEN} missing - regenerate "
                        "with DOL_UPDATE_GOLDEN=1")
endif()
execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${actual}"
    RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
    # The diff goes straight to stdout: message() would reflow it.
    find_program(DIFF diff)
    if(DIFF)
        execute_process(COMMAND "${DIFF}" -u "${GOLDEN}" "${actual}")
    endif()
    message(FATAL_ERROR
            "figure_golden: ${BENCH} output differs from ${GOLDEN}; "
            "regenerate with DOL_UPDATE_GOLDEN=1 if intentional")
endif()

message(STATUS "figure_golden: output matches ${GOLDEN}")
