# Checks that a fresh build stamps the checkout's commit: the git_sha in
# `mvsim run --manifest -` must equal `git rev-parse --short HEAD`.
# Prints "SKIP: ..." (which the test treats as skipped) outside a git
# checkout.
#
#   cmake -DMVSIM=<mvsim binary> -DSOURCE_DIR=<checkout> -P check_git_sha.cmake
execute_process(
  COMMAND git rev-parse --short HEAD
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_VARIABLE head
  RESULT_VARIABLE rc
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT rc EQUAL 0 OR NOT head)
  message("SKIP: no git checkout at ${SOURCE_DIR}")
  return()
endif()
execute_process(
  COMMAND ${MVSIM} run virus1-baseline --reps 1 --quiet --manifest -
  OUTPUT_VARIABLE manifest
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mvsim run exited ${rc}")
endif()
if(NOT manifest MATCHES "\"git_sha\": \"([^\"]*)\"")
  message(FATAL_ERROR "no git_sha in the manifest:\n${manifest}")
endif()
if(NOT CMAKE_MATCH_1 STREQUAL head)
  message(FATAL_ERROR "manifest git_sha ${CMAKE_MATCH_1} != HEAD ${head}: stale build provenance")
endif()
message("manifest git_sha ${CMAKE_MATCH_1} == HEAD")
