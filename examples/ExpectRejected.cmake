# Run PROGRAM with ARGS (one space-separated string) and pass only if
# it rejects them: exit code 2, a reason on stderr, nothing on stdout.
separate_arguments(argv UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${argv}
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code STREQUAL "2" OR err STREQUAL "" OR NOT out STREQUAL "")
    message(FATAL_ERROR "${PROGRAM} ${ARGS}: exit ${code}, expected 2\n"
        "stdout: ${out}\nstderr: ${err}")
endif()
