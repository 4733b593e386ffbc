# CTest script behind the `advisord_flag_check` test (registered in
# tools/CMakeLists.txt): every malformed or out-of-range numeric flag of
# hetsched_advisord is refused with the usage message and exit 2 while
# the arguments are parsed, before the model is loaded and before any
# pool or listener thread starts. Inputs (via -D): ADVISORD, WORK_DIR.
#
# Each case also names a model file that does not exist. A daemon that
# let the bad value through would fail to load it and exit 1 before it
# built its worker pool, so even a regressed daemon never starts the
# SIZE_MAX - 1 threads a --threads=-1 cast would ask for.

set(socket "${WORK_DIR}/advisord_flag_check.sock")
set(model "${WORK_DIR}/advisord_flag_check.no-such-model")
file(REMOVE "${socket}")

foreach(bad
    --threads=-1 --threads=x --threads=257 --threads=
    --max-frame=-1 --max-frame=0 --max-frame=4294967296 --max-frame=1k
    --tcp=x --tcp=-1 --tcp=65536
    --prewarm=x --prewarm=0 --prewarm=1073741825 --prewarm=400,,800
    --prewarm=400,
    --refit-interval=-1 --refit-interval=nan --refit-interval=x
    --mpi=123)
  execute_process(
    COMMAND "${ADVISORD}" "--socket=${socket}" "--model=${model}" "${bad}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 60)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${bad} must exit 2, got ${rc}:\n${out}\n${err}")
  endif()
  if(NOT err MATCHES "usage: hetsched_advisord")
    message(FATAL_ERROR "${bad} must print usage on stderr, got:\n${err}")
  endif()
  # The first line after argument parsing announces the model load.
  if(err MATCHES "loading" OR NOT out STREQUAL "")
    message(FATAL_ERROR "${bad} got past argument parsing:\n${out}\n${err}")
  endif()
  if(EXISTS "${socket}")
    message(FATAL_ERROR "${bad} bound the listener socket")
  endif()
endforeach()

# The edges of each range pass parsing (and then fail on the model).
foreach(good --threads=0 --threads=256 --max-frame=1 --max-frame=4294967295
    --tcp=0 --prewarm=1,1073741824 --refit-interval=0.5)
  execute_process(
    COMMAND "${ADVISORD}" "--socket=${socket}" "--model=${model}" "${good}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 60)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "cannot open model file")
    message(FATAL_ERROR "${good} must pass parsing and fail on the missing "
                        "model, got ${rc}:\n${out}\n${err}")
  endif()
endforeach()
