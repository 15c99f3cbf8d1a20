# Pins what the CLI prints over the golden grammar: the top guesses, the
# Monte Carlo guess numbers of `measure` (which sample the grammar), and the
# derivations of `explain`. tests/data/golden_small.fpsmb has the reverse
# rule on, so every production type shows up. The transcript must equal the
# committed one byte for byte; on a mismatch the new transcript is written
# to ACTUAL for diffing.
#
#   cmake -DFUZZYPSM=path/to/fuzzypsm -DGRAMMAR=golden_small.fpsmb \
#         -DEXPECTED=golden_small_cli.txt -DACTUAL=out.txt \
#         -P tests/cli_golden_outputs.cmake
foreach(var FUZZYPSM GRAMMAR EXPECTED ACTUAL)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_golden_outputs: -D${var}=... is required")
  endif()
endforeach()

set(passwords password1 Password1 p@ssw0rd drowssap1 123abc monkey99
              Dr@gon99 "zQ#9vLp2x!" qwerty Shadow2020)

set(transcript "")
# Runs one command, failing on a nonzero exit, and appends its stdout to
# the transcript under a `== <label>` line.
function(record label)
  execute_process(COMMAND ${FUZZYPSM} ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "exit ${rc}: ${ARGN}\n${out}${err}")
  endif()
  set(transcript "${transcript}== ${label}\n${out}" PARENT_SCOPE)
endfunction()

record("guesses --n 200" guesses --grammar ${GRAMMAR} --n 200)
record("measure --seed 7 --samples 2000" measure --grammar ${GRAMMAR}
       --seed 7 --samples 2000 ${passwords})
record("explain" explain --grammar ${GRAMMAR} ${passwords})

file(READ ${EXPECTED} expected)
if(NOT transcript STREQUAL expected)
  file(WRITE ${ACTUAL} "${transcript}")
  message(FATAL_ERROR "CLI output over ${GRAMMAR} differs from ${EXPECTED}; "
                      "this run's output is in ${ACTUAL}")
endif()
message(STATUS "CLI output over the golden grammar matches ${EXPECTED}")
