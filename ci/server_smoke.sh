#!/usr/bin/env bash
# ecovisord end-to-end smoke, as the CI server-smoke job runs it:
#
#   1. start ecovisord on 127.0.0.1 with an OS-assigned port,
#   2. run examples/remote_quickstart against it (must exit 0),
#   3. run it again with --inject-protocol-error (must exit nonzero:
#      the server has to reject broken framing and drop the peer),
#   4. SIGTERM the daemon and require a clean (0) drain/shutdown,
#   5. kill-and-restart leg: a lease-enabled daemon is SIGKILLed
#      while a --chaos client is mid-session, restarted on the same
#      port, and the client must ride it out (resume against a live
#      daemon for its self-inflicted drop, re-register against the
#      restarted one, exit 0). See docs/FAULTS.md.
#   6. durable kill-and-restart leg: same shape, but both daemon
#      incarnations share a --state-dir. Sessions now survive the
#      restart, so the client must report ZERO re-registrations —
#      every recovery is a resume. See docs/CHECKPOINT.md. Leg 6 and
#      leg 7's first pass run the daemon's default --fsync=always, so
#      the WAL's sync thread is live when SIGKILL lands.
#   7. digest-match leg: one bounded run split across a SIGKILL +
#      restart (--state-dir, recovery sized from the "recovered to
#      tick" banner) must print the same final state digest as an
#      uninterrupted reference run of the same length; once with every
#      daemon at --fsync=always, then again at --fsync=never.
#   8. idle-CPU leg: with no tenants, 2000 ticks at --tick-ms=1 must
#      keep to schedule (>= 1.9 s of wall time) while the daemon
#      sleeps between ticks (user + system CPU under 25% of the wall
#      time). A wait truncated to whole milliseconds spins through
#      the last ~1 ms of every tick, which reads ~99% here.
#   9. durability-failure leg: a tick whose endTick fails ends the
#      daemon (exit 1) before any of that tick's replies leaves, so a
#      client waiting on RegisterApp sees the connection drop, not an
#      answer for a tick that may not be on disk.
#
# Expects a built tree; pass it as $1 or via ECOV_BUILD_DIR
# (default: build-ci, matching build_and_test.sh).
set -uo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-${ECOV_BUILD_DIR:-${REPO_ROOT}/build-ci}}"
DAEMON="${BUILD_DIR}/src/net/ecovisord"
EXAMPLE="${BUILD_DIR}/examples/remote_quickstart"
LOG="$(mktemp /tmp/ecovisord_smoke.XXXXXX.log)"

fail() {
    echo "server_smoke: FAIL: $*" >&2
    echo "--- ecovisord log ---" >&2
    cat "${LOG}" >&2
    [[ -n "${daemon_pid:-}" ]] && kill -9 "${daemon_pid}" 2>/dev/null
    exit 1
}

[[ -x "${DAEMON}" ]] || fail "missing binary ${DAEMON}"
[[ -x "${EXAMPLE}" ]] || fail "missing binary ${EXAMPLE}"

# 1. Start the daemon on an ephemeral port and scrape it from the
#    one-line startup banner.
"${DAEMON}" --port=0 --tick-ms=20 >"${LOG}" 2>&1 &
daemon_pid=$!

port=""
for _ in $(seq 1 100); do
    port="$(sed -n 's/^ecovisord: listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "${LOG}")"
    [[ -n "${port}" ]] && break
    kill -0 "${daemon_pid}" 2>/dev/null || fail "daemon exited early"
    sleep 0.05
done
[[ -n "${port}" ]] || fail "no listening banner in daemon output"
echo "server_smoke: ecovisord up on port ${port} (pid ${daemon_pid})"

# 2. The happy path must succeed end to end.
if ! "${EXAMPLE}" "${port}"; then
    fail "remote_quickstart exited nonzero on the happy path"
fi

# 3. Broken framing must be rejected: nonzero exit, daemon survives.
"${EXAMPLE}" "${port}" --inject-protocol-error
inject_status=$?
if [[ ${inject_status} -eq 0 ]]; then
    fail "remote_quickstart --inject-protocol-error exited 0"
fi
kill -0 "${daemon_pid}" 2>/dev/null \
    || fail "daemon died from a client protocol error"
echo "server_smoke: protocol error rejected (exit ${inject_status})"

# 4. Clean drain on SIGTERM.
kill -TERM "${daemon_pid}"
shutdown_status=1
for _ in $(seq 1 100); do
    if ! kill -0 "${daemon_pid}" 2>/dev/null; then
        wait "${daemon_pid}"
        shutdown_status=$?
        break
    fi
    sleep 0.05
done
kill -0 "${daemon_pid}" 2>/dev/null && fail "daemon ignored SIGTERM"
[[ ${shutdown_status} -eq 0 ]] \
    || fail "daemon exited ${shutdown_status} on SIGTERM"
daemon_pid=""

# 5. Kill-and-restart: leases on, fast ticks. The chaos client keeps
#    a session going while the daemon is SIGKILLed out from under it
#    and a fresh one takes the port; the client's backoff + resume /
#    re-register loop must absorb both the outage and the lost
#    server state, and exit 0.
"${DAEMON}" --port=0 --tick-ms=20 --lease-ticks=500 >"${LOG}" 2>&1 &
daemon_pid=$!
port=""
for _ in $(seq 1 100); do
    port="$(sed -n 's/^ecovisord: listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "${LOG}")"
    [[ -n "${port}" ]] && break
    kill -0 "${daemon_pid}" 2>/dev/null || fail "daemon exited early"
    sleep 0.05
done
[[ -n "${port}" ]] || fail "no listening banner (restart leg)"
echo "server_smoke: lease daemon up on port ${port} (pid ${daemon_pid})"

"${EXAMPLE}" "${port}" --chaos &
chaos_pid=$!

# Let the client enroll and make progress, then yank the daemon.
sleep 0.15
kill -KILL "${daemon_pid}" 2>/dev/null
wait "${daemon_pid}" 2>/dev/null
daemon_pid=""

# Restart on the SAME port; retry while the kernel releases it.
restarted=""
for _ in $(seq 1 60); do
    "${DAEMON}" --port="${port}" --tick-ms=20 --lease-ticks=500 \
        >"${LOG}" 2>&1 &
    daemon_pid=$!
    sleep 0.1
    if kill -0 "${daemon_pid}" 2>/dev/null &&
        grep -q "listening on 127\.0\.0\.1:${port}" "${LOG}"; then
        restarted=1
        break
    fi
    wait "${daemon_pid}" 2>/dev/null
    daemon_pid=""
done
[[ -n "${restarted}" ]] || fail "could not rebind port ${port}"
echo "server_smoke: daemon restarted on port ${port} (pid ${daemon_pid})"

if ! wait "${chaos_pid}"; then
    fail "--chaos client did not survive the daemon restart"
fi
echo "server_smoke: chaos client rode out kill-and-restart"

kill -TERM "${daemon_pid}" 2>/dev/null
for _ in $(seq 1 100); do
    kill -0 "${daemon_pid}" 2>/dev/null || break
    sleep 0.05
done
kill -9 "${daemon_pid}" 2>/dev/null
daemon_pid=""

# 6. Durable kill-and-restart: identical choreography, but with a
#    shared --state-dir the restarted daemon recovers the session
#    plane, so the client's resume() succeeds against it and the
#    re-registration fallback must never fire (docs/CHECKPOINT.md).
STATE_DIR="$(mktemp -d /tmp/ecovisord_state.XXXXXX)"
CLOG="$(mktemp /tmp/ecovisord_chaos.XXXXXX.log)"
"${DAEMON}" --port=0 --tick-ms=20 --lease-ticks=500 \
    --state-dir="${STATE_DIR}" --fsync=always \
    --checkpoint-every-ticks=4 >"${LOG}" 2>&1 &
daemon_pid=$!
port=""
for _ in $(seq 1 100); do
    port="$(sed -n 's/^ecovisord: listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "${LOG}")"
    [[ -n "${port}" ]] && break
    kill -0 "${daemon_pid}" 2>/dev/null || fail "daemon exited early"
    sleep 0.05
done
[[ -n "${port}" ]] || fail "no listening banner (durable leg)"
echo "server_smoke: durable daemon up on port ${port} (pid ${daemon_pid})"

"${EXAMPLE}" "${port}" --chaos >"${CLOG}" 2>&1 &
chaos_pid=$!

# Kill only once the session is durable: the daemon answers
# RegisterApp only after the committing tick's endTick barrier (its
# WAL record fsync'd), and the client prints this line when that
# answer arrives.
registered=""
for _ in $(seq 1 250); do
    grep -q "^chaos: registered " "${CLOG}" && registered=1 && break
    kill -0 "${chaos_pid}" 2>/dev/null || break
    sleep 0.02
done
[[ -n "${registered}" ]] || {
    cat "${CLOG}" >&2
    fail "chaos client never registered (durable leg)"
}
kill -KILL "${daemon_pid}" 2>/dev/null
wait "${daemon_pid}" 2>/dev/null
daemon_pid=""

restarted=""
for _ in $(seq 1 60); do
    "${DAEMON}" --port="${port}" --tick-ms=20 --lease-ticks=500 \
        --state-dir="${STATE_DIR}" --fsync=always \
        --checkpoint-every-ticks=4 >"${LOG}" 2>&1 &
    daemon_pid=$!
    sleep 0.1
    if kill -0 "${daemon_pid}" 2>/dev/null &&
        grep -q "listening on 127\.0\.0\.1:${port}" "${LOG}"; then
        restarted=1
        break
    fi
    wait "${daemon_pid}" 2>/dev/null
    daemon_pid=""
done
[[ -n "${restarted}" ]] || fail "could not rebind port ${port} (durable leg)"
grep -q "^ecovisord: recovered to tick" "${LOG}" \
    || fail "restarted daemon printed no recovery banner"
echo "server_smoke: durable daemon restarted on port ${port} (pid ${daemon_pid})"

if ! wait "${chaos_pid}"; then
    cat "${CLOG}" >&2
    fail "--chaos client did not survive the durable restart"
fi
# The whole point of --state-dir: the restarted daemon still holds the
# session, so recovery is resume-only. A single re-registration means
# a lease was lost across the restart.
grep -q " 0 re-registration(s)" "${CLOG}" || {
    cat "${CLOG}" >&2
    fail "chaos client re-registered across a --state-dir restart"
}
resumes="$(sed -n 's/^chaos survived: .* \([0-9]*\) resume(s).*$/\1/p' "${CLOG}")"
[[ -n "${resumes}" && "${resumes}" -ge 1 ]] || {
    cat "${CLOG}" >&2
    fail "chaos client reported no resumes (durable leg)"
}
echo "server_smoke: durable restart rode out with ${resumes} resume(s), 0 re-registrations"

kill -TERM "${daemon_pid}" 2>/dev/null
for _ in $(seq 1 100); do
    kill -0 "${daemon_pid}" 2>/dev/null || break
    sleep 0.05
done
kill -9 "${daemon_pid}" 2>/dev/null
daemon_pid=""

# 7. Digest match: a bounded run SIGKILLed mid-flight and finished by
#    a recovered incarnation must land on the same full-state digest
#    as an uninterrupted run of the same length. This is the
#    daemon-level face of the bit-identical-recovery contract. The leg
#    runs twice: every daemon it starts (reference, SIGKILLed run,
#    recovery probe, finishing run) takes --fsync=always, then
#    --fsync=never, where no snapshot, WAL record or directory is
#    fsync'd and the page cache alone carries the state across the
#    SIGKILL.
TOTAL_TICKS=200
DIGEST_DIRS=()

digest_leg() {
    local fsync="$1"
    local ref_dir split_dir ref_digest recovered probe_status remaining
    local split_digest
    ref_dir="$(mktemp -d /tmp/ecovisord_ref.XXXXXX)"
    split_dir="$(mktemp -d /tmp/ecovisord_split.XXXXXX)"
    DIGEST_DIRS+=("${ref_dir}" "${split_dir}")

    "${DAEMON}" --port=0 --tick-ms=10 --max-ticks="${TOTAL_TICKS}" \
        --lease-ticks=500 --state-dir="${ref_dir}" --fsync="${fsync}" \
        --checkpoint-every-ticks=16 >"${LOG}" 2>&1
    [[ $? -eq 0 ]] || fail "reference run exited nonzero (--fsync=${fsync})"
    ref_digest="$(sed -n 's/^ecovisord: state digest \([0-9a-f]*\)$/\1/p' "${LOG}")"
    [[ -n "${ref_digest}" ]] || fail "reference run printed no digest (--fsync=${fsync})"
    echo "server_smoke: --fsync=${fsync} reference digest ${ref_digest} (${TOTAL_TICKS} ticks)"

    "${DAEMON}" --port=0 --tick-ms=10 --max-ticks="${TOTAL_TICKS}" \
        --lease-ticks=500 --state-dir="${split_dir}" --fsync="${fsync}" \
        --checkpoint-every-ticks=16 >"${LOG}" 2>&1 &
    daemon_pid=$!
    sleep 0.5
    kill -0 "${daemon_pid}" 2>/dev/null \
        || fail "split run finished before the kill (raise TOTAL_TICKS)"
    kill -KILL "${daemon_pid}" 2>/dev/null
    wait "${daemon_pid}" 2>/dev/null
    daemon_pid=""

    # Zero-tick probe: recover, scrape the recovered-to tick, SIGTERM
    # before the (deliberately distant) first tick fires. It exits
    # cleanly at tick R, so the final incarnation below needs exactly
    # TOTAL - R more ticks.
    "${DAEMON}" --port=0 --tick-ms=60000 --state-dir="${split_dir}" \
        --fsync="${fsync}" --checkpoint-every-ticks=16 --lease-ticks=500 \
        >"${LOG}" 2>&1 &
    daemon_pid=$!
    recovered=""
    for _ in $(seq 1 100); do
        recovered="$(sed -n 's/^ecovisord: recovered to tick \([0-9]*\) .*$/\1/p' "${LOG}")"
        [[ -n "${recovered}" ]] && break
        kill -0 "${daemon_pid}" 2>/dev/null || break
        sleep 0.05
    done
    [[ -n "${recovered}" ]] || fail "restarted split run printed no recovery banner (--fsync=${fsync})"
    kill -TERM "${daemon_pid}" 2>/dev/null
    probe_status=1
    for _ in $(seq 1 100); do
        if ! kill -0 "${daemon_pid}" 2>/dev/null; then
            wait "${daemon_pid}"
            probe_status=$?
            break
        fi
        sleep 0.05
    done
    daemon_pid=""
    [[ ${probe_status} -eq 0 ]] || fail "probe incarnation exited ${probe_status} (--fsync=${fsync})"
    remaining=$((TOTAL_TICKS - recovered))
    [[ "${remaining}" -gt 0 ]] || fail "split run crashed too late (recovered=${recovered})"
    echo "server_smoke: --fsync=${fsync} split run recovered to tick ${recovered}, ${remaining} to go"

    "${DAEMON}" --port=0 --tick-ms=10 --max-ticks="${remaining}" \
        --lease-ticks=500 --state-dir="${split_dir}" --fsync="${fsync}" \
        --checkpoint-every-ticks=16 >"${LOG}" 2>&1
    [[ $? -eq 0 ]] || fail "recovered split run exited nonzero (--fsync=${fsync})"
    split_digest="$(sed -n 's/^ecovisord: state digest \([0-9a-f]*\)$/\1/p' "${LOG}")"
    [[ -n "${split_digest}" ]] || fail "split run printed no digest (--fsync=${fsync})"
    [[ "${split_digest}" == "${ref_digest}" ]] \
        || fail "digest mismatch (--fsync=${fsync}): split ${split_digest} != reference ${ref_digest}"
    echo "server_smoke: --fsync=${fsync} split-run digest matches reference (${split_digest})"
}

digest_leg always
digest_leg never

# 8. Idle CPU: bash's time keyword reports wall, user and system
#    seconds for the daemon's whole life, with the '.' decimal point
#    awk reads under LC_NUMERIC=C.
LC_NUMERIC=C
TIMEFORMAT='%R %U %S'
idle_times="$( { time "${DAEMON}" --port=0 --tick-ms=1 --max-ticks=2000 \
    --quiet >"${LOG}" 2>&1; } 2>&1 )" \
    || fail "idle run exited nonzero"
read -r idle_wall idle_user idle_sys <<<"${idle_times}"
awk -v w="${idle_wall}" -v u="${idle_user}" -v s="${idle_sys}" 'BEGIN {
    printf "server_smoke: idle daemon used %.3f s of CPU in %.3f s " \
           "(%.1f%%)\n", u + s, w, 100 * (u + s) / w
    exit !(w >= 1.9 && u + s < 0.25 * w)
}' || fail "idle daemon off schedule or spinning: ${idle_times} (wall user sys)"

# 9. Durability failure. A directory where snapshot.eckp goes makes
#    every snapshot's rename fail, and this daemon snapshots every
#    tick, so its first tick's endTick fails: the same exit a failed
#    WAL fsync takes. That tick is a second away, so the client's ping
#    is answered and its RegisterApp commits in it; the client must
#    then see the connection drop instead of the answer.
FAIL_DIR="$(mktemp -d /tmp/ecovisord_fail.XXXXXX)"
"${DAEMON}" --port=0 --tick-ms=1000 --state-dir="${FAIL_DIR}" \
    --checkpoint-every-ticks=1 >"${LOG}" 2>&1 &
daemon_pid=$!
port=""
for _ in $(seq 1 100); do
    port="$(sed -n 's/^ecovisord: listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "${LOG}")"
    [[ -n "${port}" ]] && break
    kill -0 "${daemon_pid}" 2>/dev/null \
        || fail "durability-failure daemon exited early"
    sleep 0.05
done
[[ -n "${port}" ]] || fail "no listening banner (durability-failure leg)"
rm -f "${FAIL_DIR}/snapshot.eckp"
mkdir "${FAIL_DIR}/snapshot.eckp"
client_out="$("${EXAMPLE}" "${port}" 2>&1)"
fail_status=""
for _ in $(seq 1 100); do
    if ! kill -0 "${daemon_pid}" 2>/dev/null; then
        wait "${daemon_pid}"
        fail_status=$?
        break
    fi
    sleep 0.05
done
[[ -n "${fail_status}" ]] || fail "daemon outlived its durability failure"
daemon_pid=""
[[ ${fail_status} -eq 1 ]] \
    || fail "durability failure exited ${fail_status}, not 1"
grep -q "^ecovisord: durability failed: " "${LOG}" \
    || fail "no durability failure reported"
grep -q "^connected to ecovisord" <<<"${client_out}" \
    || fail "client never reached the daemon: ${client_out}"
grep -q "^registerApp failed: " <<<"${client_out}" \
    || fail "a reply of the failed tick reached the client: ${client_out}"
echo "server_smoke: durability failure sent no reply of its tick"

echo "server_smoke: PASS"
rm -f "${LOG}" "${CLOG}"
rm -rf "${STATE_DIR}" "${DIGEST_DIRS[@]}" "${FAIL_DIR}"
exit 0
