# Repeated list flags, run as a ctest via `cmake -P`.
#
# --workload, --suite, --mix, --prefetcher and --arbitration each add
# to their list when given again, so a flag given twice must print the
# rows of both lists: the same stdout as one flag naming both. So does
# --merge: two flags naming one shard journal each must write the
# document that one flag naming both writes.
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

# --merge: the two journals of a 2-shard sweep, merged both ways.
set(dir "${CMAKE_CURRENT_BINARY_DIR}/repeated_list_flags_merge")
file(REMOVE_RECURSE "${dir}")
file(MAKE_DIRECTORY "${dir}")
foreach(shard 0 1)
    execute_process(
        COMMAND "${DOLSIM}" --workload libquantum.syn,mcf.syn
                --prefetcher TPC,SPP --instrs 1000 --quiet
                --shard ${shard}/2 --checkpoint "${dir}/s${shard}.ckpt"
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "repeated_list_flags: shard ${shard}/2 "
                            "exited ${rc}")
    endif()
endforeach()

# merge(<out-var> <args...>): the document `dolsim <args...>` writes.
function(merge out)
    execute_process(
        COMMAND "${DOLSIM}" ${ARGN} --json "${dir}/${out}.json" --quiet
        RESULT_VARIABLE rc
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        string(JOIN " " command ${ARGN})
        message(FATAL_ERROR "repeated_list_flags: `${command}` exited "
                            "${rc}; stderr was:\n${err}")
    endif()
    file(READ "${dir}/${out}.json" document)
    set(${out} "${document}" PARENT_SCOPE)
endfunction()

merge(merged_repeated --merge "${dir}/s0.ckpt" --merge "${dir}/s1.ckpt")
merge(merged_joined --merge "${dir}/s0.ckpt,${dir}/s1.ckpt")
if(NOT merged_repeated STREQUAL merged_joined)
    message(FATAL_ERROR "repeated_list_flags: `--merge s0.ckpt --merge "
                        "s1.ckpt` wrote\n${merged_repeated}\nbut "
                        "`--merge s0.ckpt,s1.ckpt` wrote\n${merged_joined}")
endif()
file(REMOVE_RECURSE "${dir}")

message(STATUS "repeated_list_flags: both lists of every repeated flag ran")
