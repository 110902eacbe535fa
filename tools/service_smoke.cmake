# Client/server smoke test: generates a dataset, then drives one hdidx_client
# session against a spawned hdidx_serve and asserts the summary line.
#
#   cmake -DGEN=<hdidx_gen> -DCLIENT=<hdidx_client> -DSERVE=<hdidx_serve>
#         -DDATA=<scratch .hdx path> [-DFRAMING=json] -P service_smoke.cmake
#
# FRAMING=json runs the session as JSON lines; anything else uses the
# binary wire protocol. Passes only if the client exits 0 and reports
# "8/8 predictions ok" and "4 cache hits".
execute_process(
  COMMAND ${GEN} --out ${DATA} --kind clustered --n 20000 --dim 16 --seed 7
  RESULT_VARIABLE gen_status OUTPUT_QUIET)
if(NOT gen_status EQUAL 0)
  message(FATAL_ERROR "hdidx_gen failed: ${gen_status}")
endif()

set(json_flag "")
if(FRAMING STREQUAL "json")
  set(json_flag "--json")
endif()
execute_process(
  COMMAND ${CLIENT} ${json_flag} --serve "${SERVE} --shards 2 --threads 4"
          --data ${DATA} --method resampled --memory 1000
          --k 5 --queries 50 --requests 4
  RESULT_VARIABLE client_status
  OUTPUT_VARIABLE client_out
  ERROR_VARIABLE client_err)
file(REMOVE ${DATA})
message("${client_out}${client_err}")
if(NOT client_status EQUAL 0)
  message(FATAL_ERROR "hdidx_client failed: ${client_status}")
endif()
foreach(expected "8/8 predictions ok" "4 cache hits")
  string(FIND "${client_out}" "${expected}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "missing '${expected}' in the session summary")
  endif()
endforeach()
