#!/usr/bin/env bash
# One writer at a time, and readers never repair (DESIGN.md §9).
#
# Reader vs writer: `hds_tool list` runs in a loop while six backups run
# one after another. Every list must succeed, every backup must commit,
# nothing may land in quarantine/, every version must restore
# byte-exactly, and fsck must end clean.
#
# Writer vs writer: while another process holds <repo>/LOCK, a backup must
# fail at once with "repository in use" and a list must still succeed;
# once the lock is released the backup commits.
#
#   tools/lock_smoke.sh <build-dir>
#
# Exits 0 when every check holds, 1 otherwise, 2 when hds_tool is missing.
set -eu

build_dir="${1:-build}"
tool="${build_dir}/examples/hds_tool"
if [ ! -x "${tool}" ]; then
  echo "lock_smoke: ${tool} not built" >&2
  exit 2
fi

work="$(mktemp -d)"
loop_pid=""
holder_pid=""
cleanup() {
  touch "${work}/stop" "${work}/release" 2> /dev/null || true
  for pid in ${loop_pid} ${holder_pid}; do
    wait "${pid}" 2> /dev/null || true
  done
  rm -rf "${work}"
}
trap cleanup EXIT
repo="${work}/repo"
source="${work}/source"
mkdir -p "${source}"
fail() {
  echo "lock_smoke: $*" >&2
  exit 1
}

"${tool}" init "${repo}" > /dev/null

# Six 4 MiB versions: a stable 3 MiB head plus a fresh 1 MiB tail each, so
# no chunk that goes cold ever comes back (the class_exclusivity caveat).
head -c $((3 << 20)) /dev/urandom > "${work}/stable"
for v in 1 2 3 4 5 6; do
  cat "${work}/stable" > "${work}/v${v}.bin"
  head -c $((1 << 20)) /dev/urandom >> "${work}/v${v}.bin"
done

echo "lock_smoke: list loop against six backups"
(
  lists=0
  failures=0
  while [ ! -e "${work}/stop" ]; do
    if ! "${tool}" list "${repo}" > /dev/null 2>> "${work}/list.err"; then
      failures=$((failures + 1))
    fi
    lists=$((lists + 1))
  done
  echo "${lists} ${failures}" > "${work}/list.result"
) &
loop_pid=$!
for v in 1 2 3 4 5 6; do
  cp "${work}/v${v}.bin" "${source}/data.bin"
  "${tool}" backup "${repo}" "${source}/data.bin" > /dev/null ||
    fail "backup ${v} failed"
done
touch "${work}/stop"
wait "${loop_pid}"
loop_pid=""
read -r lists failures < "${work}/list.result"
[ "${failures}" -eq 0 ] ||
  fail "${failures} of ${lists} lists failed: $(head -3 "${work}/list.err")"
[ "${lists}" -gt 0 ] || fail "the list loop never ran"
if [ -d "${repo}/quarantine" ] && [ -n "$(ls -A "${repo}/quarantine")" ]; then
  fail "files were quarantined: $(ls "${repo}/quarantine" | head -3)"
fi
for v in 1 2 3 4 5 6; do
  "${tool}" restore "${repo}" "${v}" "${work}/out" > /dev/null ||
    fail "restore of version ${v} failed"
  cmp -s "${work}/out" "${work}/v${v}.bin" ||
    fail "version ${v} does not restore byte-exactly"
done
"${tool}" fsck "${repo}" > "${work}/fsck.txt" ||
  fail "fsck found violations: $(cat "${work}/fsck.txt")"
echo "lock_smoke: ${lists} lists, 6 backups, every version exact, fsck clean"

echo "lock_smoke: a second writer fails while the lock is held"
flock "${repo}/LOCK" -c "touch '${work}/held'; \
  while [ ! -e '${work}/release' ]; do sleep 0.05; done" &
holder_pid=$!
for _ in $(seq 1 200); do
  [ -e "${work}/held" ] && break
  sleep 0.05
done
[ -e "${work}/held" ] || fail "could not take the lock"
status=0
"${tool}" backup "${repo}" "${source}/data.bin" > /dev/null \
  2> "${work}/writer.err" || status=$?
[ "${status}" -eq 1 ] || fail "second writer exited ${status}, expected 1"
grep -q "repository in use" "${work}/writer.err" ||
  fail "second writer said: $(cat "${work}/writer.err")"
"${tool}" list "${repo}" > /dev/null || fail "list failed under the lock"
touch "${work}/release"
wait "${holder_pid}"
holder_pid=""
"${tool}" backup "${repo}" "${source}/data.bin" > /dev/null ||
  fail "backup after the lock was released failed"
"${tool}" fsck "${repo}" > /dev/null || fail "fsck after the last backup"
echo "lock_smoke: clean"
