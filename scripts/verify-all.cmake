# verify-all: run the default, sanitize and tsan verification workflows
# in sequence, stopping at the first failure.
#
#   cmake -P scripts/verify-all.cmake
#
# A CMake workflow preset cannot chain steps across different configure
# presets, so "verify-all" is this driver over the three single-preset
# workflows (verify-default, verify-sanitize, verify-tsan) defined in
# CMakePresets.json. Run from the repository root. Everything labelled
# tier1 rides along automatically:
#
# - the execution-cache suite (exec_cache_test, cache_differential_test,
#   bench_cache_smoke), which the tsan leg exercises with contended
#   shard leases and the pool's round barriers under real concurrency;
# - the serve-daemon suite (serve_protocol_test, server_test,
#   serve_concurrency_test, serve_smoke_test). serve_smoke_test drives
#   the real `dfence serve` binary over pipes and over a unix socket
#   through tools/dfence_client, so on the tsan leg the submit /
#   dispatcher-slot / transport threads and the SIGTERM drain all run
#   under TSan. serve_concurrency_test is the concurrent-dispatcher
#   gate: multi-slot slice leases, sharded-cache locking, cheap requests
#   overtaking an expensive one at two slots, and the interleaved
#   byte-identity differential;
# - the flight-recorder suite: flight_recorder_differential_test (the
#   read-only gate) and bench_obs_smoke (obs_overhead --smoke, which
#   validates BENCH_obs.json; the <=2% recorder-off CPU-time budget is
#   enforced by the full `obs_overhead` run, not here: timing bars are
#   meaningless under sanitizers);
# - the fuzz suite (fuzz_determinism_test, litmus_corpus_test,
#   fuzz_serve_test). Its fingerprint-drift checks are deterministic, so
#   they hold under sanitizers alike, and fuzz_serve_test hammers the
#   multi-slot dispatcher on the tsan leg.
#
# Speed is not measured here; perfbench/ is the benchmark of record.

foreach(preset IN ITEMS verify-default verify-sanitize verify-tsan)
  message(STATUS "==== workflow: ${preset} ====")
  execute_process(
    COMMAND ${CMAKE_COMMAND} --workflow --preset ${preset}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "workflow ${preset} failed (exit ${rc})")
  endif()
endforeach()
message(STATUS "verify-all: all three workflows passed")
