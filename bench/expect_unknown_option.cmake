# Runs each (driver, flag) pair in COMMANDS ("exe|flag|exe|flag...") and
# fails unless every run exits with a non-zero exit code (not a signal)
# and prints "Unknown option <flag>".
# Usage: cmake -DCOMMANDS=... -P expect_unknown_option.cmake
string(REPLACE "|" ";" args "${COMMANDS}")
list(LENGTH args n)
math(EXPR last "${n} - 1")
foreach(i RANGE 0 ${last} 2)
  math(EXPR j "${i} + 1")
  list(GET args ${i} exe)
  list(GET args ${j} flag)
  execute_process(COMMAND ${exe} ${flag}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(REGEX REPLACE "=.*" "" name "${flag}")
  if(rc EQUAL 0)
    message(FATAL_ERROR "${exe} ${flag} succeeded; expected it to be rejected")
  endif()
  if(NOT rc MATCHES "^[0-9]+$")
    message(FATAL_ERROR "${exe} ${flag} died (${rc}) instead of exiting "
                        "with an error code")
  endif()
  string(FIND "${out}${err}" "Unknown option ${name}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
            "${exe} ${flag} failed (${rc}) without naming the unknown option:\n"
            "${out}${err}")
  endif()
  message(STATUS "${exe} ${flag}: rejected (${rc})")
endforeach()
