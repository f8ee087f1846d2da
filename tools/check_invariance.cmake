# The one driver behind every invariance gate: a bench's stdout must be
# byte-identical whichever mechanism produced it.  ctest (tools/CMakeLists.txt)
# invokes it in two roles per bench:
#
#   cmake -DBENCH=<exe> -DBASE_OUT=<file> -P check_invariance.cmake
#       Base run (a fixture setup): runs the bench once under the base
#       environment and stores its stdout in BASE_OUT.
#
#   cmake -DBENCH=<exe> -DBASE_OUT=<file> -DVARIANT=<VAR=value>
#         -P check_invariance.cmake
#       Variant run: the base environment with one more variable set.  Its
#       stdout is byte-compared with the stored base; on a mismatch the
#       failure names the variant and dumps both outputs.
#
# The base environment is QIP_ROUNDS=2 (at least two cells per x for the
# parallel runner to interleave), QIP_JOBS=1 and QIP_TRACE_FILE unset.  The
# variants and the contract each pins:
#
#   QIP_TRACE_FILE=<path>  tracing observes and never perturbs; the run must
#                          also write the trace (docs/OBSERVABILITY.md)
#   QIP_JOBS=4             the worker count is mechanism (docs/PARALLELISM.md)
if(NOT DEFINED BENCH OR NOT DEFINED BASE_OUT)
  message(FATAL_ERROR
      "check_invariance.cmake needs -DBENCH=... and -DBASE_OUT=...")
endif()

set(ENV{QIP_ROUNDS} 2)
set(ENV{QIP_JOBS} 1)
unset(ENV{QIP_TRACE_FILE})

if(NOT DEFINED VARIANT)
  get_filename_component(out_dir "${BASE_OUT}" DIRECTORY)
  file(MAKE_DIRECTORY "${out_dir}")
  file(REMOVE "${BASE_OUT}")
  execute_process(
    COMMAND "${BENCH}"
    OUTPUT_FILE "${BASE_OUT}.tmp"
    RESULT_VARIABLE rc
  )
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} (base) exited with status ${rc}")
  endif()
  # Published only once complete, so a variant never compares against a
  # truncated base.
  file(RENAME "${BASE_OUT}.tmp" "${BASE_OUT}")
  return()
endif()

if(NOT EXISTS "${BASE_OUT}")
  message(FATAL_ERROR "base output ${BASE_OUT} is missing — its fixture "
      "setup test did not run or failed")
endif()
string(FIND "${VARIANT}" "=" eq)
if(eq LESS 1)
  message(FATAL_ERROR "expected VARIANT=VAR=value, got '${VARIANT}'")
endif()
string(SUBSTRING "${VARIANT}" 0 ${eq} env_var)
math(EXPR start "${eq} + 1")
string(SUBSTRING "${VARIANT}" ${start} -1 env_value)
set(ENV{${env_var}} "${env_value}")
string(MAKE_C_IDENTIFIER "${VARIANT}" tag)
set(variant_out "${BASE_OUT}.${tag}")
if(env_var STREQUAL "QIP_TRACE_FILE")
  file(REMOVE "${env_value}")
endif()
execute_process(
  COMMAND "${BENCH}"
  OUTPUT_FILE "${variant_out}"
  RESULT_VARIABLE rc
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} (${VARIANT}) exited with status ${rc}")
endif()

# A traced run that recorded nothing would make the comparison vacuous.
if(env_var STREQUAL "QIP_TRACE_FILE")
  if(NOT EXISTS "${env_value}")
    message(FATAL_ERROR
        "QIP_TRACE_FILE was set but ${BENCH} wrote no trace to ${env_value}")
  endif()
  file(REMOVE "${env_value}")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${BASE_OUT}" "${variant_out}"
  RESULT_VARIABLE differs
)
if(NOT differs EQUAL 0)
  file(READ "${BASE_OUT}" base_text)
  file(READ "${variant_out}" variant_text)
  message(FATAL_ERROR
      "${BENCH} output changes under ${VARIANT} — the mechanism it selects "
      "perturbed the results.\n"
      "base: ${BASE_OUT}\n${VARIANT}: ${variant_out}\n"
      "----- base -----\n${base_text}"
      "----- ${VARIANT} -----\n${variant_text}")
endif()
file(REMOVE "${variant_out}")
