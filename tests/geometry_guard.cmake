# Geometry guard: every size under src/ comes from the chip's
# noc::Topology (DESIGN.md §14). Fails, listing each offending line, when
# src/ names an SCC-only size outside the allowlist:
#   * kNumCores, the one named SCC alias, outside common/types.h and the
#     race checker (check/checker.{h,cpp}, whose 48-core cap is ROADMAP
#     open item 1);
#   * kNumTiles, kMeshCols, kMeshRows, kNumLinkSlots, kMcTiles or
#     kNumMemoryControllers anywhere;
#   * an include of the deleted SCC shim headers noc/geometry.h or
#     noc/memctrl.h.
#
# Usage: cmake -DSRC_DIR=<repo>/src -P tests/geometry_guard.cmake
cmake_minimum_required(VERSION 3.20)
if(NOT IS_DIRECTORY "${SRC_DIR}")
  message(FATAL_ERROR "geometry guard: pass -DSRC_DIR=<path to src>")
endif()

set(core_alias_allowed common/types.h check/checker.h check/checker.cpp)
set(scc_only
    "kNumTiles|kMesh(Cols|Rows)|kNumLinkSlots|kMcTiles|kNumMemoryControllers|noc/(geometry|memctrl)\\.h")

file(GLOB_RECURSE sources RELATIVE "${SRC_DIR}"
     "${SRC_DIR}/*.h" "${SRC_DIR}/*.cpp")
set(report "")
foreach(rel IN LISTS sources)
  file(READ "${SRC_DIR}/${rel}" text)
  # One list element per source line: neutralize CMake's list syntax.
  string(REPLACE ";" "," text "${text}")
  string(REPLACE "[" "(" text "${text}")
  string(REPLACE "]" ")" text "${text}")
  string(REPLACE "\n" ";" lines "${text}")
  set(line_no 0)
  foreach(line IN LISTS lines)
    math(EXPR line_no "${line_no} + 1")
    if(line MATCHES "${scc_only}" OR
       (line MATCHES "kNumCores" AND NOT rel IN_LIST core_alias_allowed))
      string(STRIP "${line}" line)
      string(APPEND report "  src/${rel}:${line_no}: ${line}\n")
    endif()
  endforeach()
endforeach()

if(report)
  message(FATAL_ERROR
          "SCC-only sizes under src/ (ask chip.topology(), or "
          "noc::Topology::scc() where the paper's chip is meant):\n${report}")
endif()
list(LENGTH sources scanned)
message(STATUS "geometry guard: ${scanned} files under src/ are clean")
