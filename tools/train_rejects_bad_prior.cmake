# `fuzzypsm train` refuses a transformation prior outside [0, 1e9] before
# it reads a corpus or writes --out: the artifact loader would refuse the
# Config section, so an accepted prior must be one that loads.
#
#   cmake -DFUZZYPSM=path/to/fuzzypsm -DBASE=B -DTRAINING=T \
#         -DWORK=scratch/dir -P tools/train_rejects_bad_prior.cmake
foreach(var FUZZYPSM BASE TRAINING WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "train_rejects_bad_prior: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

foreach(prior nan 1e10)
  set(out ${WORK}/prior_${prior}.fpsmb)
  execute_process(COMMAND ${FUZZYPSM} train --base ${BASE}
                          --training ${TRAINING} --prior ${prior} --out ${out}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE stdout
                  ERROR_VARIABLE stderr)
  if(rc EQUAL 0)
    message(FATAL_ERROR "train --prior ${prior} succeeded")
  endif()
  if(NOT stderr MATCHES "transformationPrior")
    message(FATAL_ERROR "train --prior ${prior} failed for another reason:\n"
                        "${stdout}${stderr}")
  endif()
  if(EXISTS ${out})
    message(FATAL_ERROR "train --prior ${prior} wrote ${out}")
  endif()
endforeach()
message(STATUS "train rejects an out-of-range prior before writing --out")
