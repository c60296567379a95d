#!/usr/bin/env bash
# Static-analysis + sanitizer + cache + serve + perf CI for the tier-1
# test suite.
#
#   ./scripts/ci.sh [static|thread|address|undefined|cache|serve|advise|perf|all]
#   (default: all)
#
# The static job runs FIRST and needs no test execution: it builds the
# opm_analyze checker and runs its ten passes once over src/ tools/
# bench/ tests/ docs/MODEL.md scripts/ci.sh, fail-fast — four cross-file
# passes (lock-order cycles, protocol taxonomy exhaustiveness,
# metrics-name consistency, layering) and six per-line rules
# (seeded-RNG-only, thread ownership, canonical %a serialization,
# OPM_GUARDED_BY coverage, #pragma once, no std::endl; docs/MODEL.md
# §10). A line marker that silences nothing is a finding too. It then
# self-checks that five seeded violations still trip the checker, and
# builds every target with -Werror, so a new compiler warning fails CI.
# When a clang++ with -Wthread-safety is available it also compiles the
# full tree with the thread-safety annotations promoted to errors,
# proving every lock acquisition at compile time; without clang the gate
# is skipped with a notice (GCC does not implement the analysis).
#
# Sanitizer jobs build the full test suite with -DOPM_SANITIZE=<mode> into
# their own build trees (build-tsan / build-asan / build-ubsan) and run
# ctest. TSan guards the work-stealing deques in util::ThreadPool;
# ASan+UBSan guard everything else; the standalone UBSan tree isolates UB
# findings from ASan's address-space noise. Any sanitizer report fails the
# ctest invocation (halt_on_error). Sanitizer jobs run with the result
# cache DISABLED (OPM_NO_CACHE=1): a cache hit would short-circuit the
# compute path the sanitizers exist to instrument.
#
# The cache job builds the plain tree, then runs the Table 4/5 summaries
# against a scratch cache dir — once cold, once warm with telemetry on
# (its cache_totals line must report "misses":0, so a process exit that
# lost write-behind records fails), once warm muted — and diffs the muted
# outputs byte for byte. Warm results that differ in any byte fail CI.
#
# The serve job exercises the serve tier end to end: the self-contained
# serve_loadgen gates (byte-identity vs offline, >= 4x request
# deduplication, structured overload rejections), the same gates against
# an external server over its Unix socket, a SIGTERM mid-load that must
# drain gracefully — exit 0, no orphaned socket file, its cache records
# on disk and no .tmp-* scratch file left — and the sharded
# tier: two token-gated opm_serve shards on loopback TCP behind an
# opm_router, a zipf v2 load driven through the router (byte-identity
# gate vs the offline library), and a SIGTERM drain of the whole mesh.
#
# The advise job gates the tuning advisor (src/advise): the
# advise_accuracy harness must report >= 7/8 recommendations per paper
# platform confirmed-or-marginal by the measured sweeps, and the served
# {"type":"advise"} payload from a live 2-shard router must be
# byte-identical to the offline `opm_advise --json` output for the same
# question — the same byte-identity contract the sweep types carry.
#
# The perf job is the statistical perf contract (docs/MODEL.md §12): it
# builds Release, runs every bench harness in --quick mode (sampled
# measurement — warmup, repeats, per-iteration ns samples), and diffs the
# fresh BENCH_<name>.json against the committed baselines in the repo
# root with tools/opm_benchdiff. A metric fails only when its median
# moves beyond max(rel_floor, k·CV) in the harmful direction, so the gate
# tightens exactly as far as the measurement is stable; coverage is also
# gated both ways (a baseline metric gone from the harness, or a harness
# metric absent from the baseline, fails — regenerate the baseline with
# --update-baseline). Harness-internal gates still apply (sim
# behavior-identity + CV-adjusted speedup floor, sampled-sim speedup +
# <=1% extrapolation error, cache >= 10x disk-warm, serve
# dedup/byte-identity); BENCH_micro.json has
# no committed baseline and is schema-validated instead. The sanitizer
# jobs above keep instrumenting the reference-model path too: ctest runs
# test_sim_differential, which drives SetAssociativeCache and
# ReferenceMemorySystem alongside the flat core.
#
# Fail-fast: set -e aborts on the first failing job; the EXIT trap prints
# a summary of which jobs ran and where the run stopped.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
mode="${1:-all}"

declare -a job_status=()
ci_summary() {
  local rc=$?
  if [ "${#job_status[@]}" -gt 0 ]; then
    echo "ci: summary — ${job_status[*]}"
  fi
  return "$rc"
}
trap ci_summary EXIT

# Marks the job FAIL up front, runs it, then flips the mark to ok — so the
# EXIT-trap summary is truthful even when set -e aborts mid-job.
run_job() {
  local name="$1"; shift
  job_status+=("$name:FAIL")
  "$@"
  job_status[$(( ${#job_status[@]} - 1 ))]="$name:ok"
}

run_static() {
  local dir="build-static"
  echo "== [static] configure & build opm_analyze ($dir)"
  # Compile commands are exported so editor tooling / clang-tidy sessions
  # can piggyback on the CI configure. -Werror holds for the whole tree:
  # the warning-clean build below reuses this configuration.
  cmake -B "$root/$dir" -G Ninja -S "$root" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCMAKE_CXX_FLAGS=-Werror \
        -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
  cmake --build "$root/$dir" --target opm_analyze
  echo "== [static] opm_analyze (ten passes, docs/MODEL.md §10)"
  # Fail-fast: any finding (a stale suppression marker included) aborts
  # the job here, before the expensive sanitizer builds. Per-pass timing
  # is printed by the tool itself.
  (cd "$root" && "$root/$dir/tools/opm_analyze" \
      src tools bench tests docs/MODEL.md scripts/ci.sh)
  echo "== [static] checker self-check (five seeded violations must be caught)"
  local afix="$root/$dir/analyze-selfcheck"
  rm -rf "$afix"
  mkdir -p "$afix/src/core" "$afix/src/serve" "$afix/src/util" "$afix/docs"
  # Five seeds: a rand() call, an ABBA lock cycle, an undocumented error
  # kind, a one-edit metric typo, and a util → serve include.
  printf 'int f() { return rand(); }\n' > "$afix/src/core/bad.cpp"
  printf 'void fa() { util::MutexLock a(mu_a); util::MutexLock b(mu_b); }\n' \
      > "$afix/src/core/a.cpp"
  printf 'void fb() { util::MutexLock b(mu_b); util::MutexLock a(mu_a); }\n' \
      > "$afix/src/core/b.cpp"
  printf 'void r() { err->category = "vanished"; }\n' > "$afix/src/serve/server.cpp"
  printf 'no such kind is documented here\n' > "$afix/docs/MODEL.md"
  printf 'void m() { counter("core.hits").add(1); counter("core.hitz").add(1); }\n' \
      > "$afix/src/core/m.cpp"
  printf '#include "serve/server.hpp"\n' > "$afix/src/util/u.cpp"
  local aout
  if aout=$(cd "$afix" && "$root/$dir/tools/opm_analyze" src docs/MODEL.md); then
    echo "ci: FAIL — opm_analyze exited 0 on seeded violations" >&2
    exit 1
  fi
  for pass in rng lock-order protocol metrics layering; do
    if ! grep -q "\[$pass\]" <<< "$aout"; then
      echo "ci: FAIL — seeded $pass violation not caught; output:" >&2
      echo "$aout" >&2
      exit 1
    fi
  done
  echo "   all five seeded violations caught (nonzero exit, file:line diagnostics)"
  echo "== [static] warning-clean build (every target, -Werror)"
  cmake --build "$root/$dir"
  echo "   every target builds without a compiler warning"
  if command -v clang++ > /dev/null 2>&1; then
    echo "== [static] clang -Wthread-safety -Werror full-tree compile"
    local tsdir="build-threadsafety"
    cmake -B "$root/$tsdir" -G Ninja -S "$root" \
          -DCMAKE_CXX_COMPILER=clang++ \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
    cmake --build "$root/$tsdir"
    echo "   thread-safety annotations prove clean under clang"
  else
    echo "== [static] clang++ not found — thread-safety compile gate skipped"
    echo "   (GCC has no -Wthread-safety; annotations compile as no-ops)"
  fi
}

run_one() {
  local sanitizer="$1" dir="$2"
  echo "== [$sanitizer] configure & build ($dir)"
  cmake -B "$root/$dir" -G Ninja -S "$root" -DOPM_SANITIZE="$sanitizer" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$root/$dir"
  echo "== [$sanitizer] ctest (result cache disabled)"
  OPM_NO_CACHE=1 \
  TSAN_OPTIONS="halt_on_error=1 history_size=7" \
  ASAN_OPTIONS="halt_on_error=1 detect_leaks=0" \
  UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
    ctest --test-dir "$root/$dir" --output-on-failure -j "$(nproc)"
}

run_cache() {
  local dir="build-cache"
  echo "== [cache] configure & build ($dir)"
  cmake -B "$root/$dir" -G Ninja -S "$root" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$root/$dir" --target table4_edram_summary table5_mcdram_summary \
        cache_effectiveness
  local scratch="$root/$dir/ci-cache-scratch"
  rm -rf "$scratch"
  echo "== [cache] cold vs warm byte-for-byte diff (telemetry muted)"
  local totals
  for b in table4_edram_summary table5_mcdram_summary; do
    "$root/$dir/bench/$b" --cache-dir="$scratch" --no-sweep-stats \
        > "$root/$dir/$b.cold.out"
    # The disk tier is write-behind: a cold process that exits before its
    # queued records are on disk would leave this warm run misses that
    # the byte diff below cannot see (a miss recomputes the same bytes).
    totals="$("$root/$dir/bench/$b" --cache-dir="$scratch" | grep '"cache_totals"' || true)"
    if ! grep -q '"misses":0,' <<< "$totals"; then
      echo "ci: FAIL — $b warm run missed records the cold run stored: $totals" >&2
      exit 1
    fi
    "$root/$dir/bench/$b" --cache-dir="$scratch" --no-sweep-stats \
        > "$root/$dir/$b.warm.out"
    if ! cmp "$root/$dir/$b.cold.out" "$root/$dir/$b.warm.out"; then
      echo "ci: FAIL — $b warm output differs from cold output" >&2
      exit 1
    fi
    echo "   $b: warm run misses 0, cold == warm"
  done
  echo "== [cache] effectiveness gate (>= 10x disk-warm speedup, bit-identical)"
  "$root/$dir/bench/cache_effectiveness" --cache-dir="$scratch"
}

run_serve() {
  local dir="build-serve"
  echo "== [serve] configure & build ($dir)"
  cmake -B "$root/$dir" -G Ninja -S "$root" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$root/$dir" --target opm_serve opm_router serve_loadgen
  local scratch="$root/$dir/serve-ci-scratch"
  rm -rf "$scratch" "$scratch-ext"
  echo "== [serve] self-contained gates (byte-identity, coalescing, overload)"
  (cd "$root/$dir" && ./bench/serve_loadgen --cache-dir="$scratch")
  echo "== [serve] external server: duplicate-heavy load over the socket"
  local sock="$root/$dir/opm-serve-ci.sock"
  "$root/$dir/serve/opm_serve" --listen="unix:$sock" --cache-dir="$scratch-ext" \
      --no-sweep-stats &
  local server_pid=$!
  for _ in $(seq 1 100); do [ -S "$sock" ] && break; sleep 0.1; done
  if ! [ -S "$sock" ]; then
    echo "ci: FAIL — opm_serve socket never appeared" >&2
    exit 1
  fi
  (cd "$root/$dir" && ./bench/serve_loadgen --connect="unix:$sock")
  echo "== [serve] SIGTERM mid-load must drain cleanly"
  (cd "$root/$dir" && ./bench/serve_loadgen --connect="unix:$sock" --tolerant --dup=8) &
  local load_pid=$!
  sleep 0.3
  kill -TERM "$server_pid"
  local server_rc=0
  wait "$server_pid" || server_rc=$?
  wait "$load_pid" || true  # tolerant: draining rejections and cut streams are expected
  if [ "$server_rc" -ne 0 ]; then
    echo "ci: FAIL — opm_serve exited $server_rc after SIGTERM (want 0)" >&2
    exit 1
  fi
  if [ -e "$sock" ]; then
    echo "ci: FAIL — orphaned socket file left after drain" >&2
    exit 1
  fi
  # The drain flushes the write-behind disk tier: records on disk, and no
  # scratch file of a publish cut short.
  if ! compgen -G "$scratch-ext/*.opmrec" > /dev/null; then
    echo "ci: FAIL — no .opmrec record in $scratch-ext after the drain" >&2
    exit 1
  fi
  if [ -n "$(find "$scratch-ext" -name '.tmp-*' -print -quit)" ]; then
    echo "ci: FAIL — .tmp-* scratch file left in $scratch-ext after the drain" >&2
    exit 1
  fi
  echo "   opm_serve drained: exit 0, socket removed, records flushed"

  echo "== [serve] sharded tier: 2 TCP shards + opm_router, zipf v2 load"
  local token="ci-serve-token" l2="$scratch-l2"
  local -a shard_pids=() shard_ports=()
  local i log port
  for i in 0 1; do
    log="$root/$dir/shard$i.log"
    "$root/$dir/serve/opm_serve" --listen=127.0.0.1:0 --token="$token" \
        --shard-id="$i" --shard-count=2 --cache-dir="$l2" \
        --cache-max-bytes=$((64 * 1024 * 1024)) --no-sweep-stats > "$log" 2>&1 &
    shard_pids+=($!)
    for _ in $(seq 1 100); do
      grep -q 'listening on' "$log" && break
      sleep 0.1
    done
    port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$log" | head -1)"
    if [ -z "$port" ]; then
      echo "ci: FAIL — shard $i never reported its port (see $log)" >&2
      exit 1
    fi
    shard_ports+=("$port")
    echo "   shard $i on 127.0.0.1:$port"
  done
  local router_log="$root/$dir/router.log"
  "$root/$dir/serve/opm_router" --listen=127.0.0.1:0 --token="$token" \
      --shards="127.0.0.1:${shard_ports[0]},127.0.0.1:${shard_ports[1]}" \
      > "$router_log" 2>&1 &
  local router_pid=$!
  for _ in $(seq 1 100); do
    grep -q 'listening on' "$router_log" && break
    sleep 0.1
  done
  local router_port
  router_port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$router_log" | head -1)"
  if [ -z "$router_port" ]; then
    echo "ci: FAIL — opm_router never reported its port (see $router_log)" >&2
    exit 1
  fi
  echo "   router on 127.0.0.1:$router_port -> shards ${shard_ports[*]}"
  (cd "$root/$dir" && ./bench/serve_loadgen --connect="127.0.0.1:$router_port" \
      --token="$token" --v2 --zipf --dup=6)
  echo "== [serve] SIGTERM drains the mesh (router first, then shards)"
  local rc=0
  kill -TERM "$router_pid"; wait "$router_pid" || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "ci: FAIL — opm_router exited $rc after SIGTERM (want 0)" >&2
    exit 1
  fi
  for i in 0 1; do
    rc=0
    kill -TERM "${shard_pids[$i]}"; wait "${shard_pids[$i]}" || rc=$?
    if [ "$rc" -ne 0 ]; then
      echo "ci: FAIL — shard $i exited $rc after SIGTERM (want 0)" >&2
      exit 1
    fi
  done
  echo "   mesh drained: router + 2 shards all exit 0"
}

run_advise() {
  local dir="build-advise"
  echo "== [advise] configure & build ($dir)"
  cmake -B "$root/$dir" -G Ninja -S "$root" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$root/$dir" --target advise_accuracy opm_advise_cli opm_serve opm_router
  local scratch="$root/$dir/advise-ci-scratch"
  rm -rf "$scratch" "$scratch-cli"
  echo "== [advise] accuracy gate (>= 7/8 confirmed-or-marginal per platform)"
  (cd "$root/$dir" && ./bench/advise_accuracy --quick --cache-dir="$scratch" \
      --no-sweep-stats --out="$root/$dir/BENCH_advise.json")

  echo "== [advise] e2e: served payload vs offline --json (2 shards + router)"
  local token="ci-advise-token"
  local -a shard_pids=() shard_ports=()
  local i log port
  for i in 0 1; do
    log="$root/$dir/advise-shard$i.log"
    "$root/$dir/serve/opm_serve" --listen=127.0.0.1:0 --token="$token" \
        --shard-id="$i" --shard-count=2 --cache-dir="$scratch" \
        --no-sweep-stats > "$log" 2>&1 &
    shard_pids+=($!)
    for _ in $(seq 1 100); do
      grep -q 'listening on' "$log" && break
      sleep 0.1
    done
    port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$log" | head -1)"
    if [ -z "$port" ]; then
      echo "ci: FAIL — advise shard $i never reported its port (see $log)" >&2
      exit 1
    fi
    shard_ports+=("$port")
    echo "   shard $i on 127.0.0.1:$port"
  done
  local router_log="$root/$dir/advise-router.log"
  "$root/$dir/serve/opm_router" --listen=127.0.0.1:0 --token="$token" \
      --shards="127.0.0.1:${shard_ports[0]},127.0.0.1:${shard_ports[1]}" \
      > "$router_log" 2>&1 &
  local router_pid=$!
  for _ in $(seq 1 100); do
    grep -q 'listening on' "$router_log" && break
    sleep 0.1
  done
  local router_port
  router_port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$router_log" | head -1)"
  if [ -z "$router_port" ]; then
    echo "ci: FAIL — opm_router never reported its port (see $router_log)" >&2
    exit 1
  fi
  echo "   router on 127.0.0.1:$router_port -> shards ${shard_ports[*]}"
  local kernel
  for kernel in spmv gemm stream; do
    "$root/$dir/tools/opm_advise" --kernel "$kernel" --platform knl-ddr --json \
        --cache-dir="$scratch-cli" --no-sweep-stats \
        > "$root/$dir/advise-$kernel-offline.json"
    "$root/$dir/tools/opm_advise" --kernel "$kernel" --platform knl-ddr \
        --connect="127.0.0.1:$router_port" --token="$token" \
        > "$root/$dir/advise-$kernel-served.json"
    if ! cmp "$root/$dir/advise-$kernel-offline.json" \
             "$root/$dir/advise-$kernel-served.json"; then
      echo "ci: FAIL — served advise payload differs from offline --json ($kernel)" >&2
      exit 1
    fi
    echo "   $kernel: served == offline (byte-identical)"
  done
  echo "== [advise] SIGTERM drains the mesh (router first, then shards)"
  local rc=0
  kill -TERM "$router_pid"; wait "$router_pid" || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "ci: FAIL — opm_router exited $rc after SIGTERM (want 0)" >&2
    exit 1
  fi
  for i in 0 1; do
    rc=0
    kill -TERM "${shard_pids[$i]}"; wait "${shard_pids[$i]}" || rc=$?
    if [ "$rc" -ne 0 ]; then
      echo "ci: FAIL — advise shard $i exited $rc after SIGTERM (want 0)" >&2
      exit 1
    fi
  done
  echo "   mesh drained: router + 2 shards all exit 0"
}

run_perf() {
  local dir="build-perf"
  echo "== [perf] configure & build Release ($dir)"
  cmake -B "$root/$dir" -G Ninja -S "$root" \
        -DCMAKE_BUILD_TYPE=Release > /dev/null
  cmake --build "$root/$dir" --target sim_hotpath sweep_engine cache_effectiveness \
        serve_loadgen advise_accuracy micro_bench opm_benchdiff
  local scratch="$root/$dir/perf-cache-scratch"
  rm -rf "$scratch"

  echo "== [perf] quick-mode sampled runs (BENCH_<name>.json artifacts in $dir)"
  # --sample fast arms the WindowSampler gates inside the harness: sampled
  # speedup >= 3x over the flat core AND extrapolated traffic within 1% of
  # the exact report, per platform config — on top of the trajectory diff.
  "$root/$dir/bench/sim_hotpath" --quick --sample fast --out="$root/$dir/BENCH_sim.json"
  "$root/$dir/bench/sweep_engine" --quick --out="$root/$dir/BENCH_sweep.json"
  "$root/$dir/bench/cache_effectiveness" --quick --cache-dir="$scratch" \
      --out="$root/$dir/BENCH_cache.json"
  (cd "$root/$dir" && ./bench/serve_loadgen --quick --cache-dir="$scratch-serve" \
      --out="$root/$dir/BENCH_serve.json")
  # Router scaling: in-process router over 1 vs 2 single-worker shards on
  # a zipf mix. The harness's own gate is hardware-aware (>= 1.7x with
  # >= 4 hardware threads, sanity floor 0.75x on the shared single-core
  # CI runner); the benchdiff below tracks the recorded trajectory either
  # way.
  (cd "$root/$dir" && ./bench/serve_loadgen --router-bench --quick \
      --rb-out="$root/$dir/BENCH_router.json")
  "$root/$dir/bench/advise_accuracy" --quick --cache-dir="$scratch-advise" \
      --no-sweep-stats --out="$root/$dir/BENCH_advise.json"

  echo "== [perf] trajectory diff vs committed baselines (CV-aware tolerance)"
  # The CI container is a single shared hardware thread: measured
  # run-to-run drift of quick-mode throughput medians is ~±25% even
  # back-to-back, more than the in-run CV predicts. The floor reflects
  # that reality; k·CV widens the band further for metrics that are noisy
  # within a run. A real regression (the harness tests inject 50%) still
  # clears both. Tighten on dedicated hardware.
  local tolerance=(--k=4 --rel-floor=0.30)
  local bench
  for bench in sim sweep cache serve router advise; do
    echo "-- opm_benchdiff BENCH_$bench.json"
    "$root/$dir/tools/opm_benchdiff" "${tolerance[@]}" "$root/BENCH_$bench.json" \
        "$root/$dir/BENCH_$bench.json"
  done

  echo "== [perf] micro_bench --quick (schema-validated, no committed baseline)"
  "$root/$dir/bench/micro_bench" --quick --out="$root/$dir/BENCH_micro.json"
  "$root/$dir/tools/opm_benchdiff" --validate "$root/$dir/BENCH_micro.json"
  echo "   baseline update: tools/opm_benchdiff --update-baseline BENCH_<x>.json <fresh>"
}

case "$mode" in
  static)    run_job static run_static ;;
  thread)    run_job thread run_one thread build-tsan ;;
  address)   run_job address run_one address build-asan ;;
  undefined) run_job undefined run_one undefined build-ubsan ;;
  cache)     run_job cache run_cache ;;
  serve)     run_job serve run_serve ;;
  advise)    run_job advise run_advise ;;
  perf)      run_job perf run_perf ;;
  all)       run_job static run_static
             run_job thread run_one thread build-tsan
             run_job address run_one address build-asan
             run_job undefined run_one undefined build-ubsan
             run_job cache run_cache
             run_job serve run_serve
             run_job advise run_advise
             run_job perf run_perf ;;
  *) echo "usage: $0 [static|thread|address|undefined|cache|serve|advise|perf|all]" >&2; exit 2 ;;
esac

echo "ci: suite(s) green"
