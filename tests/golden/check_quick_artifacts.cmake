# Regenerates the quick traced artifacts of the given bench binaries into
# OUT_DIR and checks every file they write against its line in MANIFEST, a
# `sha256sum` manifest of all quick artifacts
# (bench/baselines/quick_artifacts.sha256).
#
#   cmake -DMANIFEST=<file> -DOUT_DIR=<dir> "-DBENCHES=<bin>;<bin>" \
#         -P check_quick_artifacts.cmake
#
# OUT_DIR is emptied first and removed when every digest matches; on a
# mismatch it is kept so the diverging file can be inspected.
cmake_minimum_required(VERSION 3.16)

foreach(_var MANIFEST OUT_DIR BENCHES)
  if(NOT DEFINED ${_var})
    message(FATAL_ERROR "check_quick_artifacts: -D${_var}= is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
foreach(_bench IN LISTS BENCHES)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
            VMSTORM_QUICK=1 VMSTORM_TRACE=1 "VMSTORM_BENCH_DIR=${OUT_DIR}"
            "${_bench}"
    OUTPUT_QUIET
    RESULT_VARIABLE _rc)
  if(NOT _rc EQUAL 0)
    message(FATAL_ERROR "${_bench} failed: ${_rc}")
  endif()
endforeach()

file(STRINGS "${MANIFEST}" _lines)
set(_expected "")
foreach(_line IN LISTS _lines)
  if(_line MATCHES "^([0-9a-f]+) [ *](.+)$")
    set(_digest_${CMAKE_MATCH_2} "${CMAKE_MATCH_1}")
    list(APPEND _expected "${CMAKE_MATCH_2}")
  endif()
endforeach()

file(GLOB _produced RELATIVE "${OUT_DIR}" "${OUT_DIR}/*")
if(NOT _produced)
  message(FATAL_ERROR "the benches wrote no artifact into ${OUT_DIR}")
endif()
set(_failed 0)
foreach(_name IN LISTS _produced)
  if(NOT _name IN_LIST _expected)
    message(SEND_ERROR "${_name}: no line in ${MANIFEST}")
    set(_failed 1)
    continue()
  endif()
  file(SHA256 "${OUT_DIR}/${_name}" _got)
  if(_got STREQUAL "${_digest_${_name}}")
    message(STATUS "${_name}: OK")
  else()
    message(SEND_ERROR
            "${_name}: sha256 ${_got}, manifest has ${_digest_${_name}}")
    set(_failed 1)
  endif()
endforeach()
if(NOT _failed)
  file(REMOVE_RECURSE "${OUT_DIR}")
endif()
