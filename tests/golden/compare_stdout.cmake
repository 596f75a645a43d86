# Runs PROG with the space-separated ARGS and fails unless it exits 0
# and its standard output equals the file EXPECTED byte for byte. The
# output is kept in ACTUAL for diffing.
#
#   cmake -DPROG=<exe> "-DARGS=<args>" -DEXPECTED=<file> -DACTUAL=<file>
#         -P compare_stdout.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROG}" ${args}
    OUTPUT_FILE "${ACTUAL}"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${PROG} ${ARGS} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
        "${ACTUAL}" "${EXPECTED}"
    RESULT_VARIABLE differs)
if(differs)
    message(FATAL_ERROR "${PROG} ${ARGS}: stdout differs from "
        "${EXPECTED} (diff it against ${ACTUAL})")
endif()
