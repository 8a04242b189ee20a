# Run PROGRAM with ARGS (one space-separated string) and pass only if
# it exits with EXIT (default 2) and a reason on stderr. Exit 2 rejects
# the arguments before any work, so it must also print nothing on
# stdout.
separate_arguments(argv UNIX_COMMAND "${ARGS}")
if(NOT DEFINED EXIT)
    set(EXIT 2)
endif()
execute_process(COMMAND "${PROGRAM}" ${argv}
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXIT}" OR err STREQUAL "" OR
        (EXIT STREQUAL "2" AND NOT out STREQUAL ""))
    message(FATAL_ERROR "${PROGRAM} ${ARGS}: exit ${code}, expected ${EXIT}\n"
        "stdout: ${out}\nstderr: ${err}")
endif()
