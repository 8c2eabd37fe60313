# Build file of the end-to-end benchmark driver.
#
# The driver links the repository's libraries exactly as the repository
# configures them, so this file is not a top-level project: run.py
# configures the repository root with it as CMAKE_PROJECT_INCLUDE, and it
# adds the driver target once the root directory has been processed
# (tests, figure benches and examples off):
#
#   cmake -S . -B .bench_build/release -DCMAKE_BUILD_TYPE=Release \
#     -DEXW_BUILD_TESTS=OFF -DEXW_BUILD_BENCH=OFF -DEXW_BUILD_EXAMPLES=OFF \
#     -DCMAKE_PROJECT_INCLUDE=$PWD/e2ebench/build.cmake
#   cmake --build .bench_build/release --target e2ebench
#
# run.py makes a second, instrumented build the same way with every check
# layer on (see README.md).

function(exw_e2ebench_target)
  set(dir "${CMAKE_CURRENT_FUNCTION_LIST_DIR}")
  add_executable(e2ebench "${dir}/driver.cpp" "${dir}/probes.cpp")
  target_link_libraries(e2ebench PRIVATE exawind::exawind exw_warnings)
  # bench_util.hpp carries the paper-scale pricing the figure benches use.
  target_include_directories(e2ebench PRIVATE "${CMAKE_SOURCE_DIR}/bench"
                                              "${dir}")
endfunction()

cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}"
  CALL exw_e2ebench_target)
