# Online-vs-batch check through the CLI: train a grammar over T, fold a
# stream S into it with `update-loop`, retrain over T followed by S, and
# require the generation update-loop serves to equal the retrain byte for
# byte. It is the correctness check of fpsm_bench's retrain-compact
# workload at test scale, so the compaction writer and `fuzzypsm train`
# cannot disagree without a tier-1 failure.
#
#   cmake -DFUZZYPSM=path/to/fuzzypsm -DBASE=B -DTRAINING=T -DSTREAM=S \
#         -DWORK=scratch/dir -P tools/online_matches_batch.cmake
foreach(var FUZZYPSM BASE TRAINING STREAM WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "online_matches_batch: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

# Runs one command; fails the script on a nonzero exit. Leaves the
# command's stdout in `run_stdout`.
function(run)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "exit ${rc}: ${ARGN}\n${out}${err}")
  endif()
  set(run_stdout "${out}" PARENT_SCOPE)
endfunction()

run(${FUZZYPSM} train --base ${BASE} --training ${TRAINING} --reverse
    --threads 2 --out ${WORK}/trained.fpsmb)
run(${FUZZYPSM} update-loop --log ${WORK}/log --grammar ${WORK}/trained.fpsmb
    --stream ${STREAM} --compact-every 3)
if(NOT run_stdout MATCHES "serving sequence ([0-9]+) \\(([^)]+)\\)")
  message(FATAL_ERROR "update-loop printed no served generation:\n"
                      "${run_stdout}")
endif()
set(served_sequence ${CMAKE_MATCH_1})
set(served ${CMAKE_MATCH_2})
if(served_sequence LESS 2)
  message(FATAL_ERROR "update-loop published no compaction")
endif()

file(READ ${TRAINING} training)
file(READ ${STREAM} stream)
file(WRITE ${WORK}/combined.txt "${training}${stream}")
run(${FUZZYPSM} train --base ${BASE} --training ${WORK}/combined.txt
    --reverse --threads 2 --out ${WORK}/batch.fpsmb)

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${served} ${WORK}/batch.fpsmb RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "online generation ${served_sequence} (${served}) "
                      "differs from a batch retrain over training + stream")
endif()
message(STATUS "online generation ${served_sequence} matches a batch retrain")
