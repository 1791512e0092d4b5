# vmlint integration: one ctest per rule, the framework self-test, and the
# header self-containment build target. Included from the top-level
# CMakeLists.txt after all src/ targets exist.

# ---- Per-rule lints + framework self-test (need python3) --------------------
find_program(VMSTORM_PYTHON3 python3)
if(VMSTORM_PYTHON3)
  # One test per rule `vmlint.py --list-rules` prints ("<name>: <summary>"
  # lines), so a rule registered in rules/__init__.py is tested here too.
  set(_vmlint_py ${CMAKE_SOURCE_DIR}/tools/vmlint/vmlint.py)
  execute_process(COMMAND ${VMSTORM_PYTHON3} ${_vmlint_py} --list-rules
                  OUTPUT_VARIABLE _vmlint_listing
                  RESULT_VARIABLE _vmlint_rc)
  if(NOT _vmlint_rc EQUAL 0)
    message(FATAL_ERROR "vmlint.py --list-rules failed: ${_vmlint_rc}")
  endif()
  set_property(DIRECTORY APPEND PROPERTY CMAKE_CONFIGURE_DEPENDS
               ${CMAKE_SOURCE_DIR}/tools/vmlint/rules/__init__.py)
  string(REGEX MATCHALL "(^|\n)[a-z-]+:" _vmlint_rules "${_vmlint_listing}")
  foreach(_rule IN LISTS _vmlint_rules)
    string(REGEX REPLACE "[\n:]" "" _rule "${_rule}")
    string(REPLACE "-" "_" _rule_id "${_rule}")
    add_test(NAME vmlint_${_rule_id}
             COMMAND ${VMSTORM_PYTHON3} ${_vmlint_py}
                     --root ${CMAKE_SOURCE_DIR} --rules ${_rule} --strict)
  endforeach()
  add_test(NAME vmlint_selftest
           COMMAND ${VMSTORM_PYTHON3}
                   ${CMAKE_SOURCE_DIR}/tests/tools/test_vmlint.py)
else()
  message(STATUS "python3 not found: vmlint tests not registered")
endif()

# ---- Header self-containment (the compiled half of header-hygiene) ----------
# One generated TU per src/**/*.hpp that includes the header twice: compiling
# the target proves every header is self-contained and idempotent. The TUs
# are only regenerated when their content changes, so no-op reconfigures do
# not trigger rebuilds.
file(GLOB_RECURSE _vmlint_headers RELATIVE ${CMAKE_SOURCE_DIR}/src
     CONFIGURE_DEPENDS ${CMAKE_SOURCE_DIR}/src/*.hpp)
set(_vmlint_hdr_tus "")
foreach(_hdr IN LISTS _vmlint_headers)
  string(REPLACE "/" "__" _tu_base "${_hdr}")
  set(_tu "${CMAKE_BINARY_DIR}/vmlint_header_check/${_tu_base}.cpp")
  string(CONCAT _content
         "// Generated by tools/vmlint/vmlint.cmake — do not edit.\n"
         "#include \"${_hdr}\"\n"
         "#include \"${_hdr}\"  // reinclusion must be a no-op\n")
  set(_old "")
  if(EXISTS ${_tu})
    file(READ ${_tu} _old)
  endif()
  if(NOT _old STREQUAL _content)
    file(WRITE ${_tu} "${_content}")
  endif()
  list(APPEND _vmlint_hdr_tus ${_tu})
endforeach()
add_library(vmstorm_header_check OBJECT EXCLUDE_FROM_ALL ${_vmlint_hdr_tus})
target_link_libraries(vmstorm_header_check PRIVATE vmstorm_common)
add_test(NAME vmlint_header_selfcontained
         COMMAND ${CMAKE_COMMAND} --build ${CMAKE_BINARY_DIR}
                 --target vmstorm_header_check --config $<CONFIG>)
