# Repeated list flags, run as a ctest via `cmake -P`.
#
# --workload, --suite, --mix, --prefetcher and --arbitration each add
# to their list when given again, so a flag given twice must print the
# rows of both lists: the same stdout as one flag naming both.
#
# Usage:
#   cmake -DDOLSIM=<path-to-dolsim> -P repeated_list_flags.cmake

if(NOT DEFINED DOLSIM)
    message(FATAL_ERROR "repeated_list_flags: -DDOLSIM= not set")
endif()

# run_csv(<out-var> <args...>): dolsim's CSV stdout; it must exit 0.
function(run_csv out)
    execute_process(
        COMMAND "${DOLSIM}" ${ARGN} --instrs 1000 --csv --quiet
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE csv
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        string(JOIN " " command ${ARGN})
        message(FATAL_ERROR "repeated_list_flags: `${command}` exited "
                            "${rc}; stderr was:\n${err}")
    endif()
    set(${out} "${csv}" PARENT_SCOPE)
endfunction()

# expect_same_rows(ROWS <substring>... REPEATED <args>... JOINED <args>...)
function(expect_same_rows)
    cmake_parse_arguments(PARSE_ARGV 0 arg "" "" "ROWS;REPEATED;JOINED")
    run_csv(repeated ${arg_REPEATED})
    run_csv(joined ${arg_JOINED})
    string(JOIN " " command ${arg_REPEATED})
    foreach(row IN LISTS arg_ROWS)
        string(FIND "${repeated}" "${row}" at)
        if(at EQUAL -1)
            message(FATAL_ERROR "repeated_list_flags: `${command}` "
                                "printed no ${row} row:\n${repeated}")
        endif()
    endforeach()
    if(NOT repeated STREQUAL joined)
        string(JOIN " " other ${arg_JOINED})
        message(FATAL_ERROR
                "repeated_list_flags: `${command}` printed\n${repeated}\n"
                "but `${other}` printed\n${joined}")
    endif()
endfunction()

expect_same_rows(
    ROWS "mcf.syn,TPC," "mcf.syn,SPP,"
    REPEATED --workload mcf.syn --prefetcher TPC --prefetcher SPP
    JOINED --workload mcf.syn --prefetcher TPC,SPP)
expect_same_rows(
    ROWS ":arb=fifo," ":arb=rr,"
    REPEATED --mix stream_starves_pchase --arbitration fifo
             --arbitration rr
    JOINED --mix stream_starves_pchase --arbitration fifo,rr)

message(STATUS "repeated_list_flags: both lists of every repeated flag ran")
