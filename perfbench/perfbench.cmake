# Build fragment of the repository benchmark.  perfbench/run.py configures
# the repository with -DCMAKE_PROJECT_onespec_INCLUDE=<this file>, which
# adds the measuring program as one more target beside the repository's
# libraries, without touching any of the repository's own build files.

file(GLOB PERFBENCH_SOURCES CONFIGURE_DEPENDS
     ${CMAKE_CURRENT_LIST_DIR}/src/*.cpp)
add_executable(onespec_perfbench ${PERFBENCH_SOURCES})
# This file is included right after project(), before the repository
# selects its language standard.
target_compile_features(onespec_perfbench PRIVATE cxx_std_20)
target_compile_options(onespec_perfbench PRIVATE -Wall -Wextra)
target_link_libraries(onespec_perfbench PRIVATE
    onespec_service onespec_parallel onespec_timing onespec_ckpt
    onespec_codegen onespec_workload onespec_isa onespec_obs
    "$<LINK_LIBRARY:WHOLE_ARCHIVE,onespec_gen>")
