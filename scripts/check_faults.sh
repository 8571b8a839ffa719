#!/usr/bin/env bash
# Build the tree with AddressSanitizer and run the fault-tolerance
# suite: retry policy, fault-injection harness, and the sweep engine
# (quarantine, deadlines, checkpoint/resume, and the strict mapOrdered
# path, which runs through the same fault-handling engine). Injected faults
# exercise every error path, so a clean exit means the retry loops,
# exception capture, and journal replay leak and corrupt nothing even
# while faults are firing. The simulated-cache tests ride along: the
# cache's 16-byte vector loads over padded directory lanes must stay
# inside its slab.
#
# Usage: scripts/check_faults.sh [build_dir]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build-asan}"

cmake -B "${build_dir}" -S "${repo_root}" \
    -DMEMSENSE_SANITIZE=address \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo

# Only the fault-tolerance targets: the rest of the suite has its own
# sanitizer passes (check_tsan.sh, check_ubsan.sh). The serve targets
# joined this pass when MS_FAULT_POINT grew through the server's
# accept/read/parse/enqueue/solve/write path.
cmake --build "${build_dir}" -j \
    --target util_retry_test util_fault_injection_test \
    measure_resilience_test measure_parallel_test serve_evaluator_test \
    serve_server_test serve_loadgen_test serve_soak_test \
    sim_cache_test sim_cache_reference_test sim_equivalence_test

export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 ${ASAN_OPTIONS:-}"

ctest --test-dir "${build_dir}" --output-on-failure \
    -R 'Retry|FaultInjection|MeasureResilienceTest|MeasureParallelTest|EvaluatorFault|ServeServer|ServeSoak|LoadgenRun|LoadgenRequestLine|^Cache\.|CacheVsReference|CacheLanes|SimEquivalence'

echo "Fault check passed: retry, injection, checkpoint, serving and" \
     "simulated-cache paths are clean under ASan."
