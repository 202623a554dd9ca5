# Runs one line of baselines/IDENTITY (see the loop in CMakeLists.txt):
#
#   cmake -DBUILD=<build tree> -DNAME=<name> -DSHA=<sha256>
#         -DCMD=<command> -P identity.cmake
#
# The command runs through sh in <build tree>/identity/<name>, made
# afresh, with the tree's bench, tools and examples directories first
# on PATH. @OUT@ names the artifact file; without it the artifact is
# the command's stdout. A non-zero exit or an artifact whose SHA-256 is
# not <sha256> fails the entry and keeps the directory; a pass removes
# it.

set(dir ${BUILD}/identity/${NAME})
file(REMOVE_RECURSE ${dir})
file(MAKE_DIRECTORY ${dir})
if(CMD MATCHES "@OUT@")
    set(artifact ${dir}/out)
else()
    set(artifact ${dir}/stdout)
endif()
string(REPLACE "@OUT@" "out" cmd "${CMD}")
set(ENV{PATH} "${BUILD}/bench:${BUILD}/tools:${BUILD}/examples:$ENV{PATH}")
execute_process(COMMAND sh -c "${cmd}" WORKING_DIRECTORY ${dir}
                OUTPUT_FILE ${dir}/stdout RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NAME}: exit ${rc}\n"
                        "  command: ${cmd}\n  kept:    ${dir}")
endif()
file(SHA256 ${artifact} got)
if(NOT got STREQUAL SHA)
    message(FATAL_ERROR "${NAME}: the artifact moved\n"
                        "  command:  ${cmd}\n"
                        "  expected: ${SHA}\n  got:      ${got}\n"
                        "  kept:     ${artifact}")
endif()
file(REMOVE_RECURSE ${dir})
