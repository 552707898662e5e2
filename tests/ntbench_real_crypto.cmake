# Runs the Ed25519 protocol path end to end: every header, vote and
# certificate signature is real RFC 8032. Passes only if ntbench exits 0 and
# prints a complete CSV row that shows committed transactions (tps > 0).
# Run via ctest as a script test with -DNTBENCH=<path to the ntbench binary>.
execute_process(COMMAND ${NTBENCH} --real-crypto --system tusk --nodes 4 --duration 3
                        --warmup 1 --csv
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ntbench exited with ${rc}:\n${out}")
endif()
# The eight columns after tps (CMake regexes have no {n} repetition).
set(col ",[0-9]+(\\.[0-9]+)?")
if(NOT out MATCHES "\nTusk,4,1,0,10000,[1-9][0-9]*${col}${col}${col}${col}${col}${col}${col}${col}\n")
  message(FATAL_ERROR "no complete CSV row with tps > 0:\n${out}")
endif()
