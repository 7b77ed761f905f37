# Keeps src/util/env.h's knob registry comment in step with the code and the
# docs: fails when a quoted "GEOLOC_*" literal in a .h/.cpp file under src/,
# bench/ or examples/ is missing from the registry, when the registry names a
# knob no such file reads any more, when README.md's knob table does not list
# exactly the registered knobs, or when DESIGN.md or EXPERIMENTS.md names an
# unregistered knob.
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

# README's knob table: the first cell of every row that starts with a knob.
file(STRINGS ${ROOT}/README.md table_rows REGEX "^\\| `GEOLOC_")
set(tabled "")
foreach(row ${table_rows})
  string(REGEX MATCH "^\\|[^|]*" first_cell "${row}")
  string(REGEX MATCHALL "${knob_re}" names "${first_cell}")
  list(APPEND tabled ${names})
endforeach()
list(REMOVE_DUPLICATES tabled)
set(untabled ${registered})
list(REMOVE_ITEM untabled ${tabled})
set(tabled_unregistered ${tabled})
list(REMOVE_ITEM tabled_unregistered ${registered})

# DESIGN.md and EXPERIMENTS.md may name only registered knobs. GEOLOC_SANITIZE
# is a CMake cache option, not an environment variable.
set(documented "")
foreach(doc DESIGN.md EXPERIMENTS.md)
  file(READ ${ROOT}/${doc} text)
  string(REGEX MATCHALL "${knob_re}" names "${text}")
  list(APPEND documented ${names})
endforeach()
list(REMOVE_DUPLICATES documented)
list(REMOVE_ITEM documented GEOLOC_SANITIZE)
set(documented_unregistered ${documented})
list(REMOVE_ITEM documented_unregistered ${registered})

if(unregistered OR unread OR untabled OR tabled_unregistered
   OR documented_unregistered)
  message(FATAL_ERROR
          "knob registry (src/util/env.h) out of step with the code or docs\n"
          "  read but not registered: ${unregistered}\n"
          "  registered but never read: ${unread}\n"
          "  registered but missing from README's table: ${untabled}\n"
          "  in README's table but not registered: ${tabled_unregistered}\n"
          "  in DESIGN.md / EXPERIMENTS.md but not registered: "
          "${documented_unregistered}")
endif()
list(LENGTH registered count)
message(STATUS "knob registry: ${count} knobs, all read, all registered, "
               "all documented")
