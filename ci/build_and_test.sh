#!/usr/bin/env bash
# Tier-1 verify, as CI runs it: configure with -Werror on the library,
# build everything, run the full CTest suite. On failure the ctest log
# is copied to $ECOV_ARTIFACT_DIR (default: ci/artifacts) so the run
# can be inspected offline.
#
# Knobs (all optional, used by the GitHub Actions matrix):
#   CC / CXX          compiler pair (e.g. gcc/g++, clang/clang++)
#   ECOV_BUILD_TYPE   CMake build type (default RelWithDebInfo)
#   ECOV_BUILD_DIR    build tree (default build-ci)
#   ECOV_CMAKE_ARGS   extra -D flags, space separated
#   ECOV_JOBS         parallelism (default nproc)
# ccache is picked up automatically when installed.
set -uo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${ECOV_BUILD_DIR:-${REPO_ROOT}/build-ci}"
ARTIFACT_DIR="${ECOV_ARTIFACT_DIR:-${REPO_ROOT}/ci/artifacts}"
JOBS="${ECOV_JOBS:-$(nproc)}"
BUILD_TYPE="${ECOV_BUILD_TYPE:-RelWithDebInfo}"

CMAKE_ARGS=(-DECOV_WERROR=ON "-DCMAKE_BUILD_TYPE=${BUILD_TYPE}")
if command -v ccache >/dev/null 2>&1; then
    CMAKE_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi
if [[ -n "${ECOV_CMAKE_ARGS:-}" ]]; then
    # Intentionally word-split: the variable carries -D flags.
    # shellcheck disable=SC2206
    CMAKE_ARGS+=(${ECOV_CMAKE_ARGS})
fi

upload_log() {
    mkdir -p "${ARTIFACT_DIR}"
    local log="${BUILD_DIR}/Testing/Temporary/LastTest.log"
    if [[ -f "${log}" ]]; then
        cp "${log}" "${ARTIFACT_DIR}/LastTest.log"
        echo "ctest log uploaded to ${ARTIFACT_DIR}/LastTest.log" >&2
    fi
}

set -e
cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" "${CMAKE_ARGS[@]}"
cmake --build "${BUILD_DIR}" -j "${JOBS}"

# The checkpoint suites remove every state directory they make. Count
# them before and after the run, since /tmp need not start empty.
count_state_dirs() {
    find /tmp -maxdepth 1 -type d -name 'ecov_ckpt_*' 2>/dev/null | wc -l
}
dirs_before=$(count_state_dirs)

set +e
(cd "${BUILD_DIR}" && ctest --output-on-failure -j "${JOBS}")
status=$?
dirs_after=$(count_state_dirs)
if [[ ${dirs_after} -gt ${dirs_before} ]]; then
    echo "ctest left $((dirs_after - dirs_before)) new /tmp/ecov_ckpt_*" \
         "state directories behind" >&2
    status=1
fi
if [[ ${status} -ne 0 ]]; then
    upload_log
fi
exit "${status}"
