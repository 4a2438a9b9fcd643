# Runs the command given after `--` and checks what it did: its exit code,
# the SHA-256 of its stdout, and the SHA-256 of each file it wrote.
#
#   cmake [-DEXIT=<code>] [-DSTDOUT_SHA256=<hex>] [-DMAKE_DIR=<path>]
#         [-DCLEAN_DIR=<path>]
#         -P check_run.cmake [<file>=<sha256>...] -- <program> <args>...
#
# EXIT defaults to 0. Each listed file is deleted before the run, so only
# bytes the command wrote can match. MAKE_DIR is created before the run (a
# test can use it to put a directory where the program wants a file).
# CLEAN_DIR is deleted with its contents before the run (a test can use it
# to start a cache cold).
cmake_minimum_required(VERSION 3.16)  # quoted if() operands are literals

set(files)
set(command)
set(stage options)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  set(arg "${CMAKE_ARGV${i}}")
  if(stage STREQUAL "command")
    list(APPEND command "${arg}")
  elseif(arg STREQUAL "--")
    set(stage command)
  elseif(stage STREQUAL "files")
    list(APPEND files "${arg}")
  elseif(arg STREQUAL "-P")
    set(stage script)
  elseif(stage STREQUAL "script")
    set(stage files)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "check_run.cmake: no command after --")
endif()
if(NOT DEFINED EXIT)
  set(EXIT 0)
endif()

if(DEFINED CLEAN_DIR)
  file(REMOVE_RECURSE "${CLEAN_DIR}")
endif()
if(DEFINED MAKE_DIR)
  file(MAKE_DIRECTORY "${MAKE_DIR}")
endif()
foreach(pair IN LISTS files)
  string(FIND "${pair}" "=" at REVERSE)
  string(SUBSTRING "${pair}" 0 ${at} path)
  file(REMOVE "${path}")
endforeach()

string(RANDOM LENGTH 12 tag)
set(stdout_file "${CMAKE_CURRENT_BINARY_DIR}/check_run_${tag}.out")
execute_process(COMMAND ${command}
                OUTPUT_FILE "${stdout_file}"
                RESULT_VARIABLE rc)
file(SHA256 "${stdout_file}" stdout_sha)
file(REMOVE "${stdout_file}")

if(NOT rc STREQUAL EXIT)
  message(FATAL_ERROR "exit ${rc}, expected ${EXIT}")
endif()
if(DEFINED STDOUT_SHA256 AND NOT stdout_sha STREQUAL STDOUT_SHA256)
  message(FATAL_ERROR "stdout sha256 ${stdout_sha}, expected ${STDOUT_SHA256}")
endif()
foreach(pair IN LISTS files)
  string(FIND "${pair}" "=" at REVERSE)
  string(SUBSTRING "${pair}" 0 ${at} path)
  math(EXPR at "${at} + 1")
  string(SUBSTRING "${pair}" ${at} -1 want)
  if(NOT EXISTS "${path}")
    message(FATAL_ERROR "${path}: not written")
  endif()
  file(SHA256 "${path}" got)
  if(NOT got STREQUAL want)
    message(FATAL_ERROR "${path}: sha256 ${got}, expected ${want}")
  endif()
  message(STATUS "${path}: sha256 ${got} OK")
endforeach()
message(STATUS "exit ${rc}, stdout sha256 ${stdout_sha} OK")
