# Usage-error smoke, run as a ctest via `cmake -P`.
#
# Each command below is malformed and must exit 1 with an error that
# names the bad value, before any simulation starts:
#  - the bench program given a negative or non-numeric --jobs (it must
#    not wrap "-1" to four billion workers or read "abc" as "all
#    cores");
#  - a fuzz campaign given a mutation its checker cannot plant (it
#    must not report "0 failures" for a self-test that never ran);
#  - an instruction trace with no records given to --replay or
#    --fuzz-replay (it must not print a 0-instruction row or "ok");
#  - a contention mix given an option that only single-core runs
#    honour (it must not run the mix and drop the option);
#  - a contention mix or a fuzz campaign given --workload, --suite or
#    --prefetcher (each defines its own cores or cases, and must not
#    run them and drop the selection);
#  - every dolsim mode given a flag its path does not read, or a second
#    mode flag: the message names the mode and the flag, and no such
#    command may leave a file behind;
#  - an empty --workload or --mix list, a --suite that names no
#    workload after a --workload, and a --record of more than one
#    workload;
#  - a name given twice in the workload list (every --workload and
#    --suite together), --prefetcher, --mix or --arbitration, in one
#    flag or across repeated flags, which add to one list (it must
#    not run the same cells twice under one seed), and a journal
#    given twice to --merge, under one spelling or two (it must name
#    the journal, not report an uncovered cell);
#  - --cell-timeout given to a contention mix or a fuzz campaign,
#    whose jobs never poll its deadline.
#
# Last, the bench program whose --json file cannot be written must
# exit 1 naming the file once its (quick) sweep has run, not report
# success, and so must a shard whose checkpoint journal stops growing
# (a one-block file-size limit stands in for a full disk): the journal
# is a shard's only output.
#
# Usage:
#   cmake -DDOLSIM=<path-to-dolsim> -DBENCH=<path-to-fig_suite_grid>
#         -P usage_errors.cmake

foreach(required DOLSIM BENCH)
    if(NOT DEFINED ${required})
        message(FATAL_ERROR "usage_errors: -D${required}= not set")
    endif()
endforeach()

# The bench program runs its quick sweep if it wrongly accepts a value.
set(ENV{DOL_QUICK} 1)

# expect_usage_error(<expected stderr substring> <command...>)
function(expect_usage_error expected)
    execute_process(
        COMMAND ${ARGN}
        RESULT_VARIABLE rc
        OUTPUT_QUIET
        ERROR_VARIABLE err)
    string(FIND "${err}" "${expected}" at)
    if(NOT rc EQUAL 1 OR at EQUAL -1)
        string(JOIN " " command ${ARGN})
        message(FATAL_ERROR
                "usage_errors: `${command}` exited ${rc}, want 1 with "
                "\"${expected}\" on stderr; stderr was:\n${err}")
    endif()
endfunction()

expect_usage_error("bad --jobs value: '-1'" "${BENCH}" --jobs -1)
expect_usage_error("bad --jobs value: 'abc'" "${BENCH}" --jobs abc)
expect_usage_error("--fuzz cannot plant mutation arbdrift"
                   "${DOLSIM}" --fuzz 5 --fuzz-mutate arbdrift)
expect_usage_error("--fuzz-multicore cannot plant mutation lru"
                   "${DOLSIM}" --fuzz-multicore 5 --fuzz-mutate lru)
expect_usage_error("--fuzz-adaptive cannot plant mutation rebind"
                   "${DOLSIM}" --fuzz-adaptive 5 --fuzz-mutate rebind)
set(empty_trace "${CMAKE_CURRENT_LIST_DIR}/traces/empty.dolins")
expect_usage_error("empty trace: ${empty_trace}"
                   "${DOLSIM}" --replay "${empty_trace}" --prefetcher TPC)
expect_usage_error("empty trace: ${empty_trace}"
                   "${DOLSIM}" --fuzz-replay "${empty_trace}"
                   --fuzz-case-seed 1)
# A readable instruction trace, so --replay fails only for the mix.
set(mix_trace "${CMAKE_CURRENT_BINARY_DIR}/usage_errors_mix.ins")
execute_process(COMMAND "${DOLSIM}" --record "${mix_trace}" --instrs 100
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "usage_errors: cannot record ${mix_trace}")
endif()
set(mix "${DOLSIM}" --mix hetero_quad --instrs 5000 --quiet)
expect_usage_error("--mix does not take --trace"
                   ${mix} --trace "${mix_trace}.trc")
expect_usage_error("--mix does not take --record"
                   ${mix} --record "${mix_trace}.again")
expect_usage_error("--mix does not take --replay"
                   ${mix} --replay "${mix_trace}")
expect_usage_error("--mix does not take --trace-in"
                   ${mix} --trace-in
                   "${CMAKE_CURRENT_LIST_DIR}/traces/stream_gups.champsim")
expect_usage_error("--mix does not take --dest" ${mix} --dest l2)
expect_usage_error("--mix does not take --coordinator adaptive"
                   ${mix} --coordinator adaptive)
foreach(mode "--mix hetero_quad --instrs 5000" "--fuzz 2" "--fuzz-adaptive 2"
             "--fuzz-multicore 2")
    separate_arguments(mode_args UNIX_COMMAND "${mode}")
    list(GET mode_args 0 mode_flag)
    expect_usage_error("${mode_flag} does not take --cell-timeout 1"
                       "${DOLSIM}" ${mode_args} --cell-timeout 1 --quiet)
endforeach()
foreach(mode "--mix hetero_quad" "--fuzz 2" "--fuzz-adaptive 2"
             "--fuzz-multicore 2")
    separate_arguments(mode_args UNIX_COMMAND "${mode}")
    list(GET mode_args 0 mode_flag)
    foreach(selection "--workload mcf.syn" "--suite spec"
                      "--prefetcher SPP")
        separate_arguments(selection_args UNIX_COMMAND "${selection}")
        list(GET selection_args 0 selection_flag)
        expect_usage_error("${mode_flag} does not take ${selection_flag}"
                           "${DOLSIM}" ${mode_args} ${selection_args}
                           --instrs 5000 --quiet)
    endforeach()
endforeach()

# One refused flag per mode, each a command that ran and dropped it
# before. Their outputs would land in ${out}, which must stay empty.
set(out "${CMAKE_CURRENT_BINARY_DIR}/usage_errors_out")
file(REMOVE_RECURSE "${out}")
file(MAKE_DIRECTORY "${out}")
set(event_trace "${CMAKE_CURRENT_BINARY_DIR}/usage_errors.trc")
set(journal "${CMAKE_CURRENT_BINARY_DIR}/usage_errors_j.ckpt")
set(repro_dir "${CMAKE_CURRENT_BINARY_DIR}/usage_errors_repro")
execute_process(COMMAND "${DOLSIM}" --instrs 1000 --quiet
                        --trace "${event_trace}"
                RESULT_VARIABLE trace_rc OUTPUT_QUIET)
execute_process(COMMAND "${DOLSIM}" --instrs 1000 --quiet
                        --shard 0/1 --checkpoint "${journal}"
                RESULT_VARIABLE journal_rc)
# A planted bug makes this campaign fail and write a reproducer.
execute_process(COMMAND "${DOLSIM}" --fuzz 1 --fuzz-seed 7 --quiet
                        --fuzz-mutate lru --fuzz-dir "${repro_dir}"
                OUTPUT_QUIET)
set(repro "${repro_dir}/repro_case0.trc")
if(NOT trace_rc EQUAL 0 OR NOT journal_rc EQUAL 0 OR NOT EXISTS "${repro}")
    message(FATAL_ERROR "usage_errors: cannot make the mode fixtures")
endif()
set(champsim "${CMAKE_CURRENT_LIST_DIR}/traces/stream_gups.champsim")
expect_usage_error("--list does not take --workload mcf.syn"
                   "${DOLSIM}" --list --workload mcf.syn)
expect_usage_error("--list does not take --list-mixes"
                   "${DOLSIM}" --list --list-mixes)
expect_usage_error("--list-mixes does not take --instrs 5000"
                   "${DOLSIM}" --list-mixes --instrs 5000)
expect_usage_error("--dump-trace does not take --counters"
                   "${DOLSIM}" --dump-trace "${event_trace}" --counters)
expect_usage_error("--merge does not take --jobs 2"
                   "${DOLSIM}" --merge "${journal}"
                   --json "${out}/merged.json" --jobs 2)
expect_usage_error("journal ${journal} given twice"
                   "${DOLSIM}" --merge "${journal},${journal}"
                   --json "${out}/merged.json")
expect_usage_error("journal ${journal} given twice"
                   "${DOLSIM}" --merge "${journal}" --merge "${journal}"
                   --json "${out}/merged.json")
# Two spellings of one file are one journal.
expect_usage_error(
    "journal ${CMAKE_CURRENT_BINARY_DIR}/./usage_errors_j.ckpt given twice"
    "${DOLSIM}" --merge "${journal},${CMAKE_CURRENT_BINARY_DIR}/./usage_errors_j.ckpt"
    --json "${out}/merged.json")
expect_usage_error("--fuzz-replay does not take --checkpoint"
                   "${DOLSIM}" --fuzz-replay "${repro}" --fuzz-case-seed 1
                   --checkpoint "${out}/replay.ckpt")
expect_usage_error("--fuzz does not take --json"
                   "${DOLSIM}" --fuzz 2 --json "${out}/fuzz.json")
expect_usage_error("--fuzz does not take --instrs 5000"
                   "${DOLSIM}" --fuzz 2 --instrs 5000)
expect_usage_error("--fuzz does not take --fuzz-adaptive 2"
                   "${DOLSIM}" --fuzz 2 --fuzz-adaptive 2)
expect_usage_error("--fuzz-adaptive does not take --fuzz-dir"
                   "${DOLSIM}" --fuzz-adaptive 2 --fuzz-dir "${out}/d")
expect_usage_error("--fuzz-multicore does not take --fuzz-dir"
                   "${DOLSIM}" --fuzz-multicore 2 --fuzz-dir "${out}/d")
expect_usage_error("--mix does not take --fuzz-seed 3"
                   ${mix} --fuzz-seed 3)
expect_usage_error("--record does not take --prefetcher SPP"
                   "${DOLSIM}" --record "${out}/rec.ins" --instrs 100
                   --prefetcher SPP)
expect_usage_error("--record does not take --suite npb"
                   "${DOLSIM}" --suite npb --record "${out}/rec.ins"
                   --instrs 100)
expect_usage_error("--record takes one workload, not 2"
                   "${DOLSIM}" --record "${out}/rec.ins" --instrs 100
                   --workload mcf.syn,milc.syn)
expect_usage_error("--shard does not take --arbitration fifo"
                   "${DOLSIM}" --shard 0/1 --checkpoint "${out}/shard.ckpt"
                   --instrs 5000 --arbitration fifo)
expect_usage_error("--replay does not take --workload mcf.syn"
                   "${DOLSIM}" --replay "${mix_trace}" --instrs 50
                   --workload mcf.syn)
expect_usage_error("--trace-in does not take --suite npb"
                   "${DOLSIM}" --trace-in "${champsim}" --instrs 5000
                   --suite npb)
expect_usage_error("--trace does not take --arbitration rr"
                   "${DOLSIM}" --trace "${out}/run.trc" --instrs 5000
                   --arbitration rr)
expect_usage_error("a sweep does not take --arbitration fifo"
                   "${DOLSIM}" --workload mcf.syn --instrs 5000
                   --arbitration fifo --csv)
# CMake drops empty arguments, so the shell passes the empty lists.
expect_usage_error("empty --workload list"
    sh -c "exec '${DOLSIM}' --workload '' --instrs 1000 --csv")
expect_usage_error("empty --mix list"
    sh -c "exec '${DOLSIM}' --mix '' --instrs 1000 --csv")
expect_usage_error("unknown suite: bogus"
                   "${DOLSIM}" --workload mcf.syn --suite bogus
                   --instrs 1000 --csv)
expect_usage_error("workload mcf.syn given twice"
                   "${DOLSIM}" --workload mcf.syn,mcf.syn --instrs 1000 --csv)
expect_usage_error("workload cg.syn given twice"
                   "${DOLSIM}" --suite npb --workload cg.syn --instrs 1000
                   --csv)
expect_usage_error("prefetcher TPC given twice"
                   "${DOLSIM}" --prefetcher TPC,TPC --instrs 1000 --csv)
expect_usage_error("mix hetero_quad given twice"
                   "${DOLSIM}" --mix hetero_quad,hetero_quad --instrs 1000
                   --csv)
expect_usage_error("arbitration fifo given twice"
                   "${DOLSIM}" --mix stream_starves_pchase
                   --arbitration fifo,fifo --instrs 1000 --csv)
expect_usage_error("prefetcher TPC given twice"
                   "${DOLSIM}" --prefetcher TPC --prefetcher TPC
                   --instrs 1000 --csv)
expect_usage_error("arbitration fifo given twice"
                   "${DOLSIM}" --mix stream_starves_pchase
                   --arbitration fifo --arbitration fifo --instrs 1000
                   --csv)
file(GLOB_RECURSE left "${out}/*")
if(left)
    message(FATAL_ERROR "usage_errors: refused commands wrote ${left}")
endif()
file(REMOVE_RECURSE "${out}" "${repro_dir}")
file(REMOVE "${mix_trace}" "${event_trace}" "${journal}")

expect_usage_error("cannot write /dev/full"
                   "${BENCH}" --quiet --json /dev/full)
# CMake splits arguments at ';', so the shell steps join with '&&'.
set(full_journal "${CMAKE_CURRENT_BINARY_DIR}/usage_errors_full.ckpt")
expect_usage_error("checkpoint ${full_journal}: cannot append a record"
    sh -c "trap '' XFSZ && ulimit -f 1 && exec '${DOLSIM}' --workload libquantum.syn,mcf.syn,milc.syn --prefetcher TPC,SPP --instrs 20000 --jobs 1 --shard 0/1 --checkpoint '${full_journal}'")
file(REMOVE "${full_journal}")

message(STATUS "usage_errors: every malformed command exited 1")
