# ctest script: the per-layer work counts must repeat exactly.
#
#   cmake -DBENCH=<fpsm_bench> -DCLI=<fuzzypsm> -DWORK=<dir> -P repeat_counts.cmake
#
# Runs the traced audit-unique workload twice on one seed and compares the
# counts an optimisation may claim a gain on: allocations per password in
# the scoring walk and in the serving unit, and segments per parse. They
# are counted, not timed, so any difference between the runs is a bug in
# the count (or in the determinism of the code it counts).
set(counts core.allocs_per_pw serve.allocs_per_score core.segments_per_pw)
foreach(run 1 2)
  execute_process(
    COMMAND ${BENCH} --workload audit-unique --seed 7 --seconds 0.3 --trace 1
            --smoke --fuzzypsm ${CLI} --work ${WORK}/run${run} --out ${WORK}/out
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "run ${run} exited with ${rc}:\n${out}")
  endif()
  foreach(name ${counts})
    string(REPLACE "." "\\." pattern "${name}")
    if(NOT out MATCHES "\"${pattern}\": {\"value\": ([^,]+),")
      message(FATAL_ERROR "run ${run} printed no ${name}:\n${out}")
    endif()
    set(value_${run}_${name} "${CMAKE_MATCH_1}")
  endforeach()
endforeach()
foreach(name ${counts})
  if(NOT value_1_${name} STREQUAL value_2_${name})
    message(FATAL_ERROR
      "${name} differs between runs: ${value_1_${name}} vs ${value_2_${name}}")
  endif()
  message(STATUS "${name} = ${value_1_${name}} in both runs")
endforeach()
