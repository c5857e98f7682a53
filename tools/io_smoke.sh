#!/usr/bin/env bash
# End-to-end smoke test of the container read path (DESIGN.md §10) and the
# restore path above it (§13): builds a 10-version hds_tool repository,
# restores every version once per leg —
#   * --threads=1: serial assembly, the baseline,
#   * --threads=4: each assembly area filled from 4 containers at once,
# and requires:
#   * every restored version byte-identical across both legs,
#   * the parallel leg to report block-cache hits (io_block_cache_hits > 0)
#     at the default budget,
#   * each removed read-path flag (--io-backend, --io-depth, --direct-io,
#     --auto-tune, --block-cache-mb, --no-partial-reads) to be rejected
#     with exit status 2 and "unknown option",
#   * fsck clean afterwards.
#
#   tools/io_smoke.sh <build-dir>
set -eu

build_dir="${1:-build}"
tool="${build_dir}/examples/hds_tool"
if [ ! -x "${tool}" ]; then
  echo "io_smoke: ${tool} not built" >&2
  exit 2
fi

work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT
repo="${work}/repo"
source="${work}/source"
mkdir -p "${source}" "${work}/serial" "${work}/parallel"

"${tool}" init "${repo}"

# Same forward-moving content shape as fsck_smoke.sh: high dedup across
# versions, fresh suffix chunks per version, so old versions live in
# archival containers behind the block cache.
for version in $(seq 1 10); do
  for file in a b c; do
    {
      seq 1 4000
      echo "version ${version} file ${file}"
      seq "$((100000 + version * 5000))" "$((100000 + version * 5000 + 800))"
    } > "${source}/${file}.txt"
  done
  echo "generation ${version}" > "${source}/rotating_${version}.txt"
  rm -f "${source}/rotating_$((version - 2)).txt"
  "${tool}" backup "${repo}" "${source}" > /dev/null
done

echo "io_smoke: baseline restore-all (--threads=1)"
"${tool}" restore "${repo}" all "${work}/serial/v" --threads=1 > /dev/null

echo "io_smoke: parallel restore-all (--threads=4)"
"${tool}" restore "${repo}" all "${work}/parallel/v" \
  --threads=4 --metrics-out="${work}/metrics.json" > /dev/null

for version in $(seq 1 10); do
  if ! cmp -s "${work}/serial/v${version}" "${work}/parallel/v${version}"; then
    echo "io_smoke: restored v${version} differs (serial vs parallel)" >&2
    exit 1
  fi
done
echo "io_smoke: all 10 versions byte-identical across both legs"

hits="$(grep -o '"io_block_cache_hits": *[0-9]*' "${work}/metrics.json" |
  grep -o '[0-9]*$')"
if [ -z "${hits}" ] || [ "${hits}" -eq 0 ]; then
  echo "io_smoke: expected io_block_cache_hits > 0, got '${hits}'" >&2
  exit 1
fi
echo "io_smoke: block cache hit ${hits} times"

# Old scripts passing a removed flag must fail loudly, not run with it
# silently ignored.
for flag in --io-backend=threads --io-depth=8 --direct-io --auto-tune \
  --block-cache-mb=4 --no-partial-reads; do
  status=0
  "${tool}" restore "${repo}" 1 "${work}/removed" "${flag}" \
    > /dev/null 2> "${work}/removed.err" || status=$?
  if [ "${status}" -ne 2 ] ||
    ! grep -q "unknown option ${flag}" "${work}/removed.err"; then
    echo "io_smoke: ${flag} gave status ${status}, want 2 + unknown option" >&2
    exit 1
  fi
done
echo "io_smoke: removed read-path flags are rejected"

echo "io_smoke: verifying repository"
"${tool}" fsck "${repo}"
echo "io_smoke: clean"
