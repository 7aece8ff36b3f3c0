# Run one figure bench on the sim with its environment pinned and
# byte-compare its stdout against the committed golden:
#
#   cmake -DBENCH=<bench binary> -DGOLDEN=<golden .txt> -DACTUAL=<out .txt> \
#         -P compare.cmake
#
# Virtual time makes every printed figure deterministic, so any
# difference is a real change in a count or a makespan. On a mismatch
# the bench's output is left at ACTUAL; diff it against GOLDEN, and
# replace GOLDEN with it only when the change is intended.

set(ENV{PARBOX_BACKEND} "sim")
set(ENV{PARBOX_BENCH_BYTES} "6291456")
set(ENV{PARBOX_BENCH_SEED} "42")
unset(ENV{PARBOX_TRACE})
unset(ENV{PARBOX_BENCH_JSON_DIR})

execute_process(COMMAND "${BENCH}"
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
file(WRITE "${ACTUAL}" "${actual}")
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${status}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "${BENCH} output differs from ${GOLDEN}; "
                      "diff it against ${ACTUAL}")
endif()
