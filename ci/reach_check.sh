#!/usr/bin/env bash
# Reachability gate: every out-of-line function of libecovisor.a must be
# linked into at least one product binary, or be listed with its reason
# in ci/reach_allow.txt.
#
# The products are ecovisord, ecobench, the six examples, and
# bench/perf's ecoperf and perf_smoke. They are built at -O0 with
# -ffunction-sections -fdata-sections and linked with -Wl,--gc-sections,
# so a function stays in a binary only if something in that binary
# calls it. bench/perf is built through its own CMake project; its
# forced Release type is set to -O0 with -DCMAKE_CXX_FLAGS_RELEASE.
#
# The check sees out-of-line functions only: the global text symbols
# (nm type T) of the library. Functions defined in headers are inline
# (weak, type W) or local, and are not checked.
#
#   ./ci/reach_check.sh                 # builds into build-reach{,-perf}/
#
# ECOV_JOBS sets the build parallelism, as for ci/build_and_test.sh.
# Exits 1 and prints the unlisted functions when any is unreached, and
# also when an allow-list entry is reached, gone, or names no reason.
set -euo pipefail
export LC_ALL=C

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${REPO_ROOT}/build-reach"
PERF_DIR="${BUILD_DIR}-perf"
JOBS="${ECOV_JOBS:-$(nproc)}"
ALLOW="${REPO_ROOT}/ci/reach_allow.txt"

SECTIONS="-ffunction-sections -fdata-sections"
GC="-Wl,--gc-sections"
EXAMPLES=(quickstart carbon_aware_batch geo_shifting remote_quickstart
          slo_web_service solar_microgrid)

cmake -S "${REPO_ROOT}" -B "${BUILD_DIR}" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS_DEBUG=-O0 -DECOV_BUILD_TESTS=OFF \
    "-DCMAKE_CXX_FLAGS=${SECTIONS}" \
    "-DCMAKE_EXE_LINKER_FLAGS=${GC}" >/dev/null
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target ecovisor ecovisord \
    ecobench "${EXAMPLES[@]/#/example_}" >/dev/null

cmake -S "${REPO_ROOT}/bench/perf" -B "${PERF_DIR}" \
    "-DCMAKE_CXX_FLAGS=${SECTIONS}" -DCMAKE_CXX_FLAGS_RELEASE=-O0 \
    "-DCMAKE_EXE_LINKER_FLAGS=${GC}" >/dev/null
cmake --build "${PERF_DIR}" -j "${JOBS}" --target ecoperf perf_smoke \
    >/dev/null

PRODUCTS=("${BUILD_DIR}/src/net/ecovisord" "${BUILD_DIR}/bench/ecobench"
          "${EXAMPLES[@]/#/${BUILD_DIR}/examples/}"
          "${PERF_DIR}/ecoperf" "${PERF_DIR}/perf_smoke")

# Demangled names of the global text symbols, one a line.
text_symbols() {
    nm -C --defined-only "$@" | sed -n 's/^[0-9a-f]* T //p' | sort -u
}

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT
text_symbols "${BUILD_DIR}/src/libecovisor.a" >"${tmp}/library"
text_symbols "${PRODUCTS[@]}" >"${tmp}/products"
comm -23 "${tmp}/library" "${tmp}/products" >"${tmp}/unreached"

status=0
if grep -Ev '^(#|$|\((a|b|c|d|e)\) )' "${ALLOW}" >"${tmp}/bad"; then
    echo "reach_check: allow-list entries without a reason (a)-(e):"
    cat "${tmp}/bad"
    status=1
fi
{ grep -E '^\([a-e]\) ' "${ALLOW}" || true; } | cut -c5- | sort -u \
    >"${tmp}/allowed"

comm -23 "${tmp}/unreached" "${tmp}/allowed" >"${tmp}/new"
if [[ -s "${tmp}/new" ]]; then
    echo "reach_check: library functions no product reaches; delete them" \
         "or list them with a reason in ci/reach_allow.txt:"
    sed 's/^/  /' "${tmp}/new"
    status=1
fi
comm -13 "${tmp}/unreached" "${tmp}/allowed" >"${tmp}/stale"
if [[ -s "${tmp}/stale" ]]; then
    echo "reach_check: allow-list entries that a product reaches or the" \
         "library no longer defines; remove them:"
    sed 's/^/  /' "${tmp}/stale"
    status=1
fi

echo "reach_check: $(wc -l <"${tmp}/library") library functions," \
     "$(wc -l <"${tmp}/unreached") unreached," \
     "$(wc -l <"${tmp}/allowed") allowed"
if [[ ${status} -eq 0 ]]; then
    echo "reach_check: PASS"
fi
exit "${status}"
