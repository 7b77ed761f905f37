# Keeps src/util/env.h's knob registry comment in step with the code: fails
# when a quoted "GEOLOC_*" literal in a .h/.cpp file under src/, bench/ or
# examples/ is missing from the registry, or when the registry names a knob
# no such file reads any more.
#
#   cmake -DROOT=<repo root> -P tests/knob_registry_check.cmake

if(NOT ROOT)
  message(FATAL_ERROR "usage: cmake -DROOT=<repo root> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

# A knob name ends in a letter or digit, so the "GEOLOC_" prefix test in a
# strncmp and the "GEOLOC_THREADS-cap" warn_once key read as what they are.
set(knob_re "GEOLOC_[A-Z0-9_]*[A-Z0-9]")

file(GLOB_RECURSE sources
     ${ROOT}/src/*.h ${ROOT}/src/*.cpp
     ${ROOT}/bench/*.h ${ROOT}/bench/*.cpp
     ${ROOT}/examples/*.h ${ROOT}/examples/*.cpp)
set(read_knobs "")
foreach(source ${sources})
  file(READ ${source} text)
  string(REGEX MATCHALL "\"${knob_re}" quoted "${text}")
  foreach(literal ${quoted})
    string(SUBSTRING "${literal}" 1 -1 knob)
    list(APPEND read_knobs ${knob})
  endforeach()
endforeach()
list(REMOVE_DUPLICATES read_knobs)

file(STRINGS ${ROOT}/src/util/env.h comment_lines REGEX "^//")
string(REGEX MATCHALL "${knob_re}" registered "${comment_lines}")
list(REMOVE_DUPLICATES registered)

set(unregistered ${read_knobs})
list(REMOVE_ITEM unregistered ${registered})
set(unread ${registered})
list(REMOVE_ITEM unread ${read_knobs})

if(unregistered OR unread)
  message(FATAL_ERROR
          "knob registry (src/util/env.h) out of step with the code\n"
          "  read but not registered: ${unregistered}\n"
          "  registered but never read: ${unread}")
endif()
list(LENGTH registered count)
message(STATUS "knob registry: ${count} knobs, all read, all registered")
