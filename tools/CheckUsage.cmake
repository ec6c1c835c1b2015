# Asserts a tool's --help text documents every user-facing contract:
# every flag the parser accepts (scraped from the tool source, so a new
# flag cannot land undocumented), the exit codes, and the doc pointers.
# Invoked by ctest as:
#   cmake -DTOOL=<thistle-opt> -DSOURCE=<thistle-opt.cpp> -DWORK_DIR=<dir>
#         [-DMODE=serve -DQUERY=<thistle-query>] -P CheckUsage.cmake
# The default mode audits thistle-opt (docs/THISTLE_OPT.md mirrors its
# usage text); MODE=serve audits the thistle-serve daemon against
# docs/SERVING.md instead. Both modes also feed malformed numeric flag
# values to the tools and expect exit 2 naming the flag.

if(MODE STREQUAL "serve")
  # Known-important flags, pinned explicitly so a parser-scrape
  # regression cannot silently weaken the audit.
  set(PINNED
      --port --port-file --max-clients --threads
      --cache-dir --cache-capacity --snapshot-every --trace-json)
  set(EXIT_PAIRS "0  clean shutdown" "2  invalid arguments")
  set(DOC_POINTER "docs/SERVING.md")
  set(BAD_NUMBERS
      "TOOL --port abc" "TOOL --port 70000" "TOOL --threads abc"
      "TOOL --threads -1" "TOOL --max-clients 0" "TOOL --cache-capacity 1e3"
      "TOOL --snapshot-every -1" "QUERY --port 0" "QUERY --port 8080x")
else()
  set(PINNED
      --layer --resnet --yolo --pipeline --network
      --mode --objective --candidates --threads --deadline-ms --hierarchy
      --evaluator
      --pes --regs --sram-words --area-budget
      --export-timeloop --metrics --profile --trace-json)
  set(EXIT_PAIRS
      "0  success" "1  partial/degraded" "2  invalid input"
      "3  no feasible design")
  set(DOC_POINTER "docs/OBSERVABILITY.md")
  set(BAD_NUMBERS
      "TOOL --threads abc" "TOOL --threads 4x" "TOOL --threads 99999999999"
      "TOOL --candidates 0" "TOOL --candidates 99999999999"
      "TOOL --deadline-ms 0" "TOOL --pes abc" "TOOL --regs -8"
      "TOOL --sram-words +4" "TOOL --resnet 13" "TOOL --cache-capacity -1"
      "TOOL --shard 1/x" "TOOL --layer 16,8,14,14,3,99999999999"
      "TOOL --area-budget abc" "TOOL --area-budget 0"
      "TOOL --area-budget 12x" "TOOL --area-budget -5"
      "TOOL --area-budget nan")
endif()

execute_process(
  COMMAND ${TOOL} --help
  OUTPUT_VARIABLE OUT
  ERROR_VARIABLE ERR
  RESULT_VARIABLE CODE)
if(NOT CODE EQUAL 0)
  message(FATAL_ERROR "--help: expected exit code 0, got '${CODE}'\n${ERR}")
endif()

foreach(FLAG ${PINNED})
  if(NOT OUT MATCHES "${FLAG}")
    message(FATAL_ERROR "--help: flag ${FLAG} undocumented\n${OUT}")
  endif()
endforeach()

# Every flag the parser compares against (the `Arg == "--x"` chain in
# the tool source) must appear in the usage table.
if(SOURCE)
  file(READ ${SOURCE} SRC)
  string(REGEX MATCHALL "Arg == \"(--[a-z-]+)\"" PARSED "${SRC}")
  foreach(MATCH ${PARSED})
    string(REGEX REPLACE "Arg == \"(--[a-z-]+)\"" "\\1" FLAG "${MATCH}")
    if(NOT OUT MATCHES "${FLAG}")
      message(FATAL_ERROR
        "--help: parsed flag ${FLAG} missing from usage\n${OUT}")
    endif()
  endforeach()
endif()

if(NOT OUT MATCHES "exit codes:")
  message(FATAL_ERROR "--help: missing exit-code section\n${OUT}")
endif()
foreach(PAIR ${EXIT_PAIRS})
  if(NOT OUT MATCHES "${PAIR}")
    message(FATAL_ERROR "--help: missing exit code entry '${PAIR}'\n${OUT}")
  endif()
endforeach()

if(NOT OUT MATCHES "${DOC_POINTER}")
  message(FATAL_ERROR "--help: missing doc pointer ${DOC_POINTER}\n${OUT}")
endif()

# An unknown option must print the same usage text and exit 2.
execute_process(
  COMMAND ${TOOL} --no-such-flag
  OUTPUT_VARIABLE OUT
  ERROR_VARIABLE ERR
  RESULT_VARIABLE CODE)
if(NOT CODE EQUAL 2)
  message(FATAL_ERROR
    "unknown option: expected exit code 2, got '${CODE}'")
endif()
if(NOT ERR MATCHES "unknown option")
  message(FATAL_ERROR "unknown option: missing diagnostic\n${ERR}")
endif()

# Numeric flag values are parsed strictly (tools/NumericFlag.h): a value
# that is not one whole in-range integer (for --area-budget, one finite
# positive number) exits 2 naming the flag before any work starts. The
# timeout keeps a regression that accepts a bad --port from leaving a
# daemon running.
foreach(CASE ${BAD_NUMBERS})
  separate_arguments(ARGS UNIX_COMMAND "${CASE}")
  list(POP_FRONT ARGS WHICH)
  list(GET ARGS 0 FLAG)
  execute_process(
    COMMAND ${${WHICH}} ${ARGS}
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR
    RESULT_VARIABLE CODE
    TIMEOUT 60)
  if(NOT CODE EQUAL 2)
    message(FATAL_ERROR "'${CASE}': expected exit code 2, got '${CODE}'")
  endif()
  if(NOT ERR MATCHES "error: ${FLAG} ")
    message(FATAL_ERROR "'${CASE}': diagnostic does not name ${FLAG}\n${ERR}")
  endif()
endforeach()

# Flags that do not apply to the workload or the machine exit 2 naming
# the flag before any work (no output), as --groups without --layer does:
# --export-timeloop exports one layer's design on the classic3 machine,
# and a hierarchy file fixes the machine the architecture flags build.
if(NOT MODE STREQUAL "serve")
  set(MACHINE ${WORK_DIR}/usage-machine.txt)
  file(WRITE ${MACHINE} "pes 64\nmac-pj 2.2\nfanout 1\n"
    "level RF 64 0.5 1e9\nlevel SRAM 16384 2.0 16\nlevel DRAM - 128 4\n")
  set(ON_FILE "--layer 16,8,14,14,3,3 --hierarchy ${MACHINE}")
  foreach(CASE "--network dcgan --export-timeloop"
               "--pipeline resnet --export-timeloop"
               "--layer 16,8,14,14,3,3 --hierarchy spad4 --export-timeloop"
               "${ON_FILE} --pes 256" "${ON_FILE} --regs 8"
               "${ON_FILE} --sram-words 4096")
    string(REGEX REPLACE ".*(--[a-z-]+).*" "\\1" FLAG "${CASE}")
    separate_arguments(ARGS UNIX_COMMAND "${CASE}")
    execute_process(COMMAND ${TOOL} ${ARGS}
      OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE CODE
      TIMEOUT 60)
    if(NOT CODE EQUAL 2 OR NOT ERR MATCHES "error: ${FLAG} "
       OR NOT OUT STREQUAL "")
      message(FATAL_ERROR "'${CASE}': expected exit 2 "
        "naming ${FLAG} and no output, got '${CODE}'\n${OUT}\n${ERR}")
    endif()
  endforeach()
endif()
