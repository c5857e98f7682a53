#!/usr/bin/env bash
# End-to-end smoke test for the multi-tenant serve front end: starts
# `hds_tool serve` on a fresh repository, drives two tenants concurrently
# through backup/restore round trips over the loopback protocol, requires
# every restore to be bit-identical, checks tenant isolation (a tenant never
# written stays empty), scrapes the /metrics endpoint for the per-tenant
# counters, requires a clean SIGTERM shutdown, and finally opens a tenant
# directory with `hds_tool list` and `hds_tool fsck`: every tenant is a
# standalone repository (DESIGN.md §15.2).
#
# Runs two legs: one shard, then --shards=4 (DESIGN.md §16), whose leg
# additionally checks the tenant's shards gauge, its {tenant,shard}
# store samples, and its per-shard on-disk layout.
#
#   tools/serve_smoke.sh <build-dir> [port] [metrics-port]
set -eu

build_dir="${1:-build}"
base_port="${2:-19821}"
base_metrics_port="${3:-19822}"
tool="${build_dir}/examples/hds_tool"
if [ ! -x "${tool}" ]; then
  echo "serve_smoke: ${tool} not built" >&2
  exit 2
fi

work="$(mktemp -d)"
srv_pid=""
cleanup() {
  if [ -n "${srv_pid}" ] && kill -0 "${srv_pid}" 2> /dev/null; then
    kill -KILL "${srv_pid}" 2> /dev/null || true
  fi
  rm -rf "${work}"
}
trap cleanup EXIT

# Two distinct payloads with a shared prefix so the tenants' dedup state
# would collide if it were not isolated.
head -c 262144 /dev/urandom > "${work}/shared.bin"
cat "${work}/shared.bin" > "${work}/alpha.bin"
echo "alpha only" >> "${work}/alpha.bin"
cat "${work}/shared.bin" > "${work}/bravo.bin"
echo "bravo only" >> "${work}/bravo.bin"

# smoke_leg <tag> <repo> <port> <metrics-port> [extra serve flags...]
smoke_leg() {
  local tag="$1" repo="$2" port="$3" metrics_port="$4"
  shift 4

  "${tool}" serve "${repo}" --port="${port}" \
    --metrics-port="${metrics_port}" "$@" &
  srv_pid=$!

  # Wait for the listener (the client retries its TCP connect via the tool).
  for _ in $(seq 1 50); do
    if "${tool}" client ping --port="${port}" > /dev/null 2>&1; then
      break
    fi
    sleep 0.1
  done
  "${tool}" client ping --port="${port}"

  # Two concurrent tenant round trips.
  run_tenant() {
    local tenant="$1"
    "${tool}" client backup "${tenant}" "${work}/${tenant}.bin" \
      --port="${port}" > /dev/null
    "${tool}" client backup "${tenant}" "${work}/${tenant}.bin" \
      --port="${port}" > /dev/null
    "${tool}" client restore "${tenant}" latest "${work}/${tenant}.out" \
      --port="${port}" > /dev/null
  }
  run_tenant alpha &
  local alpha_job=$!
  run_tenant bravo &
  local bravo_job=$!
  wait "${alpha_job}"
  wait "${bravo_job}"

  cmp "${work}/alpha.bin" "${work}/alpha.out"
  cmp "${work}/bravo.bin" "${work}/bravo.out"
  echo "serve_smoke[${tag}]: both tenants restored bit-identical"
  rm -f "${work}/alpha.out" "${work}/bravo.out"

  # Isolation: a tenant nobody wrote to has no versions to restore.
  if "${tool}" client restore charlie 1 "${work}/charlie.out" \
      --port="${port}" > /dev/null 2>&1; then
    echo "serve_smoke[${tag}]: expected restore failure for empty tenant" >&2
    exit 1
  fi

  # Per-tenant state must be internally consistent.
  "${tool}" client fsck alpha --port="${port}" > /dev/null
  "${tool}" client fsck bravo --port="${port}" > /dev/null
  echo "serve_smoke[${tag}]: per-tenant fsck clean"

  # The metrics endpoint must expose each tenant's own counters, its
  # store's cache counters included, under a tenant label.
  local metrics
  metrics="$(curl -fsS "http://127.0.0.1:${metrics_port}/metrics")"
  local name
  for name in 'backups_completed{tenant="alpha"' \
      'backups_completed{tenant="bravo"' 'restored_bytes{tenant="alpha"' \
      'sessions{tenant="alpha"}' 'io_block_cache_hits{tenant="alpha"' \
      serve_sessions_accepted; do
    if ! printf '%s\n' "${metrics}" | grep -q "${name}"; then
      echo "serve_smoke[${tag}]: /metrics missing ${name}" >&2
      exit 1
    fi
  done
  if printf '%s\n' "${metrics}" | grep -q 'tenant_\|shard_'; then
    echo "serve_smoke[${tag}]: /metrics has name-mangled copies" >&2
    exit 1
  fi
  echo "serve_smoke[${tag}]: /metrics exposes tenant counters"

  if [ "${tag}" = "shards4" ]; then
    # Sharded leg: the tenant's shards gauge, every one of its shard
    # stores' counters, and one container directory per shard on disk.
    for name in 'shards{tenant="alpha"} 4' \
        'store_container_writes{tenant="alpha",shard="0"}' \
        'store_container_writes{tenant="alpha",shard="1"}' \
        'store_container_writes{tenant="alpha",shard="2"}' \
        'store_container_writes{tenant="alpha",shard="3"}'; do
      if ! printf '%s\n' "${metrics}" | grep -qF "${name}"; then
        echo "serve_smoke[${tag}]: /metrics missing ${name}" >&2
        exit 1
      fi
    done
    local i
    for i in 0 1 2 3; do
      if [ ! -d "${repo}/tenants/alpha/shard_${i}/archival" ]; then
        echo "serve_smoke[${tag}]: missing" \
          "${repo}/tenants/alpha/shard_${i}/archival" >&2
        exit 1
      fi
    done
    echo "serve_smoke[${tag}]: per-shard stores and metrics present"
  fi

  # Clean shutdown on SIGTERM.
  kill -TERM "${srv_pid}"
  wait "${srv_pid}"
  srv_pid=""
  echo "serve_smoke[${tag}]: clean SIGTERM shutdown"

  # A tenant is a standalone repository: the CLI lists and checks it under
  # the serve's shard flags.
  "${tool}" list "${repo}/tenants/alpha" "$@" > /dev/null
  "${tool}" fsck "${repo}/tenants/alpha" "$@" > /dev/null
  echo "serve_smoke[${tag}]: hds_tool list and fsck open a tenant"
}

smoke_leg single "${work}/repo" "${base_port}" "${base_metrics_port}"
smoke_leg shards4 "${work}/repo4" "$((base_port + 4))" \
  "$((base_metrics_port + 4))" --shards=4
