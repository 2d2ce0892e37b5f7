# Writes obs/version.h from version.h.in with the checkout's current git
# SHA. Runs on every build (see CMakeLists.txt), so an incremental build
# after a commit stamps the new SHA; configure_file leaves the output
# untouched when its content is unchanged, so a no-op build recompiles
# nothing.
#
#   cmake -DGIT_DIR=<dir in the checkout> -DTEMPLATE=<version.h.in>
#         -DOUTPUT=<version.h> -DMVSIM_COMPILER=<id version>
#         -DMVSIM_BUILD_TYPE=<type> -P version.cmake
execute_process(
  COMMAND git rev-parse --short HEAD
  WORKING_DIRECTORY ${GIT_DIR}
  OUTPUT_VARIABLE MVSIM_GIT_SHA
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT MVSIM_GIT_SHA)
  set(MVSIM_GIT_SHA "unknown")
endif()
configure_file(${TEMPLATE} ${OUTPUT} @ONLY)
