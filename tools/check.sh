#!/usr/bin/env bash
# Tier-1 gate, run four times:
#
#   pass 1  default Release configuration, full ctest — what CI and the
#           driver run.
#   pass 2  UBSan build (ARRAYTRACK_SANITIZE=undefined) with the kernel
#           layer forced to its scalar paths via ARRAYTRACK_FORCE_SCALAR=1.
#           The dispatch tests force AVX2 programmatically (simd::force
#           beats the environment), so on an AVX2 host the intrinsics
#           paths still execute under UBSan even though the ambient
#           level is scalar.
#   pass 3  AddressSanitizer build (ARRAYTRACK_SANITIZE=address), full
#           ctest with leak checking — the untrusted-byte parsers (wire,
#           handoff, link framing) and the ring buffers under hostile
#           input.
#   pass 4  ThreadSanitizer build (ARRAYTRACK_SANITIZE=thread) running
#           only the concurrency-bearing suites — the shared thread
#           pool, the multi-worker location service (plus its
#           single-backend realtime suite and lock-free histogram),
#           the elastic pool's spawn/retire paths, and the cluster/auth tier — since TSan
#           slows everything ~10x and the rest of the tree is
#           single-threaded. Before its tests run, every |-separated
#           alternative of the filter is checked with ctest -N and the
#           script fails if one matches no test, so renaming a suite
#           cannot silently drop it from the TSan tier.
#
# Usage: tools/check.sh [build-dir-prefix]   (default: build-check)
set -euo pipefail
cd "$(dirname "$0")/.."

prefix="${1:-build-check}"
jobs="$(nproc 2>/dev/null || echo 2)"

# Fails unless every |-separated alternative of a ctest -R filter
# matches at least one test in the build dir.
check_filter() {
  local dir="$1" filter="$2" alt count
  local -a alts
  IFS='|' read -ra alts <<< "${filter}"
  for alt in "${alts[@]}"; do
    count="$(ctest --test-dir "${dir}" -N -R "${alt}" |
             sed -n 's/^Total Tests: //p')"
    if [[ "${count:-0}" -eq 0 ]]; then
      echo "stale test filter: '${alt}' matches no test in ${dir}" >&2
      exit 1
    fi
  done
}

run_pass() {
  local dir="$1"; shift
  local label="$1"; shift
  local filter="$1"; shift
  echo "=== ${label} (${dir}) ==="
  cmake -B "${dir}" -S . "$@"
  cmake --build "${dir}" -j "${jobs}"
  if [[ -n "${filter}" ]]; then
    check_filter "${dir}" "${filter}"
    ctest --test-dir "${dir}" --output-on-failure -R "${filter}"
  else
    ctest --test-dir "${dir}" --output-on-failure
  fi
}

run_pass "${prefix}" "pass 1: default build + ctest" ""

ARRAYTRACK_FORCE_SCALAR=1 \
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  run_pass "${prefix}-ubsan" \
           "pass 2: UBSan build + ctest (scalar dispatch)" "" \
           -DARRAYTRACK_SANITIZE=undefined

ASAN_OPTIONS=detect_leaks=1:halt_on_error=1 \
  run_pass "${prefix}-asan" \
           "pass 3: ASan build + ctest (leak checking)" "" \
           -DARRAYTRACK_SANITIZE=address

TSAN_OPTIONS=halt_on_error=1 \
  run_pass "${prefix}-tsan" \
           "pass 4: TSan build + concurrency suites" \
           'ThreadPool|Realtime|Service|StreamingHistogram|MpscRing|Ingest|Batch|Subspace|Delivery|Query|Geofence|Cluster|Elastic|Auth|Quant' \
           -DARRAYTRACK_SANITIZE=thread

echo "=== all checks passed ==="
