# Build file of the benchmark suite. It is injected into the root project
#   cmake -S . -B .bench_build -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_INCLUDE=$PWD/fpsm_bench/build.cmake
# so the suite links the library targets exactly as the root build defines
# them (same flags, same FPSM_LIBS) without the root CMakeLists.txt naming
# the benchmark. The include runs right after project(); the targets are
# defined by a deferred call, once the root file has defined every library.
include_guard(GLOBAL)
set(FPSM_BENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(fpsm_bench_targets)
  file(GLOB sources CONFIGURE_DEPENDS ${FPSM_BENCH_DIR}/src/*.cpp)
  add_executable(fpsm_bench ${sources})
  target_link_libraries(fpsm_bench PRIVATE ${FPSM_LIBS})
  target_compile_definitions(fpsm_bench PRIVATE
    FPSM_BENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")

  # ctest -L bench: every workload traced at smoke size with its
  # correctness checks, and the work counts' run-to-run determinism.
  set(scratch ${CMAKE_BINARY_DIR}/bench_ctest)
  foreach(workload register-zipf audit-unique tenant-churn retrain-compact)
    add_test(NAME fpsm_bench_smoke.${workload}
      COMMAND fpsm_bench --workload ${workload} --seed 7 --seconds 0.5
              --trace 1 --smoke --fuzzypsm $<TARGET_FILE:fuzzypsm>
              --work ${scratch}/${workload} --out ${scratch}/out)
    set_tests_properties(fpsm_bench_smoke.${workload} PROPERTIES
      LABELS bench
      PASS_REGULAR_EXPRESSION "\"correct\": true")
  endforeach()
  add_test(NAME fpsm_bench_counts_repeat
    COMMAND ${CMAKE_COMMAND} -DBENCH=$<TARGET_FILE:fpsm_bench>
            -DCLI=$<TARGET_FILE:fuzzypsm> -DWORK=${scratch}/repeat
            -P ${FPSM_BENCH_DIR}/repeat_counts.cmake)
  set_tests_properties(fpsm_bench_counts_repeat PROPERTIES LABELS bench)
endfunction()

cmake_language(DEFER CALL fpsm_bench_targets)
