# Runs `bbb_sim --histogram=1 --reps=2` once per replicate engine — the
# streaming core (plain and under the shards[1]: name prefix), the sharded
# engine, batched[c]'s LW rounds and the law tier — plus one m = 0 run.
# Every run must exit 0 and print the replicate-0 load histogram; the
# m = 0 run must print no nan.
#
#   cmake -DBBB_SIM=path/to/bbb_sim -P check_sim_histogram.cmake

set(runs
    "--protocol=greedy[2] --m=2000"
    "--protocol=shards[1]:adaptive --m=2000"
    "--protocol=shards[2]:greedy[2] --m=2000"
    "--protocol=batched[2] --m=2000"
    "--protocol=one-choice --tier=law --m=2000"
    "--protocol=greedy[2] --m=0")
foreach(run IN LISTS runs)
  string(REPLACE " " ";" args "${run}")
  execute_process(
    COMMAND "${BBB_SIM}" ${args} --n=1000 --reps=2 --threads=1 --histogram=1
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bbb_sim ${run}: exit ${rc}\n${out}${err}")
  endif()
  if(NOT out MATCHES "load histogram \\(replicate 0\\):\n")
    message(FATAL_ERROR "bbb_sim ${run}: no load histogram\n${out}")
  endif()
  if(run MATCHES "--m=0" AND out MATCHES "nan")
    message(FATAL_ERROR "bbb_sim ${run}: prints nan\n${out}")
  endif()
endforeach()
