#!/usr/bin/env bash
# Sanitizer gate: build the whole tree (library, tools, tests, benches)
# under ASan + UBSan and run the full test suite, including
# fuzz_compiler_test and resilience_test, with sanitizer reports
# promoted to hard failures. Then build the concurrency-sensitive
# subset (the compile service and the fault registry it leans on)
# under ThreadSanitizer and run service_test + resilience_test, so
# data races in the worker pool fail the gate too. In between, a
# crash-consistency torture loop SIGKILLs dioscc mid-store and
# bit-flips cache entries to prove the disk cache self-heals. A Debug
# build (the only one without NDEBUG) runs the e-graph, strategy and
# width-sweep tests with the runner's per-rebuild invariant checks on.
# Last, the perf gates of bench/perf_gates.json run from the default
# build, then the Figure-6 strategy gate and an ASan native differential;
# these three legs all run even when one fails, and the script then
# exits non-zero naming each failed leg. Run from anywhere; ~10-15
# minutes.
#
#   tools/check.sh            # ASan+UBSan + TSan gates
#   tools/check.sh --fast     # reuse existing build dirs without reconfigure
#                             # (build/ still reconfigures without -Werror)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$repo/build-asan"
build_tsan="$repo/build-tsan"
build_debug="$repo/build-debug"
jobs="$(nproc 2>/dev/null || echo 4)"

if [[ "${1:-}" != "--fast" || ! -d "$build" ]]; then
    cmake --preset asan -S "$repo"
fi
cmake --build "$build" -j "$jobs"

export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
ctest --test-dir "$build" --output-on-failure -j "$jobs"

echo "check.sh: all tests passed under ASan+UBSan"

# Rule soundness: every registered rewrite must prove equivalent under
# the exact validator (non-zero exit on any unsound rule). Strategy lint:
# every built-in saturation strategy must resolve all its rule references
# against the default rule set and round-trip through its canonical DSL
# text. Both run at every supported vector width.
for w in 2 4 8 16; do
    "$build/tools/dioscc" --lint-rules --width "$w" > /dev/null
    "$build/tools/dioscc" --lint-strategies --width "$w" > /dev/null
done
echo "check.sh: rule soundness + strategy lint passed (widths 2/4/8/16)"

# Machine-verifier corpus gate (DESIGN.md §5i): every kernel in
# tools/kernels compiles under ASan with the full machine-code
# verification chain engaged — structural M001-M007 checks on the
# emitted program, the M008 scheduler-preservation proof, and symbolic
# machine-level translation validation of the scheduled code against
# the spec. --strict turns any degradation into a hard failure.
for ksp in "$repo"/tools/kernels/*.ksp; do
    "$build/tools/dioscc" "$ksp" \
        --verify-machine --validate --strict > /dev/null
done
echo "check.sh: machine verifier corpus gate passed"

# Crash-consistency torture (DESIGN.md §5e): SIGKILL dioscc --batch
# mid-store dozens of times via the DIOS_CACHE_KILL hook, then damage a
# quarter-plus of the surviving entries, and prove the store self-heals:
# warm runs serve artifacts byte-identical to a cold compile, the healed
# entries are byte-identical to a store filled cold, damaged entries land
# in quarantine/ (never served), and no torn .tmp files survive recovery.
torture="$build/torture"
rm -rf "$torture"
mkdir -p "$torture"
cache="$torture/cache"
for n in 4 8 12; do
    cat > "$torture/vadd$n.dios" <<EOF
(kernel vadd$n
  (param n $n) (input A n) (input B n) (output C n)
  (for i 0 n (store C i (+ (load A i) (load B i)))))
EOF
    echo "$torture/vadd$n.dios" >> "$torture/manifest"
done

# Cold (cache-less) reference artifacts; the JSON line carries wall-clock
# timings, so only the emitted C below it is compared.
for n in 4 8 12; do
    "$build/tools/dioscc" "$torture/vadd$n.dios" \
        --json --emit-c 2> /dev/null | tail -n +2 > "$torture/cold$n.c"
done
# A reference store filled cold: an entry holds no wall-clock time, so the
# healed store must match it byte for byte.
"$build/tools/dioscc" --batch "$torture/manifest" \
    --cache-dir "$torture/cold-cache" > /dev/null 2>&1

mkdir -p "$cache"
kills=0
for i in $(seq 1 60); do
    # Evict one entry so every round performs at least one store, and
    # cycle the kill target over both kill points of all three stores
    # (targets past the last visit simply complete the run). Entries
    # live under key-sharded directories (shard/<2-hex>/); quarantined
    # files are not entries.
    find "$cache" -name '*.sexpr' -not -path '*/quarantine/*' \
        | head -n 1 | xargs -r rm -f
    status=0
    DIOS_CACHE_KILL=$((i % 6 + 1)) \
        "$build/tools/dioscc" --batch "$torture/manifest" \
        --cache-dir "$cache" > /dev/null 2>&1 || status=$?
    if [[ "$status" -eq 137 ]]; then
        kills=$((kills + 1))
    elif [[ "$status" -ne 0 ]]; then
        echo "check.sh: torture run $i failed with status $status" >&2
        exit 1
    fi
done
if [[ "$kills" -lt 10 ]]; then
    echo "check.sh: torture loop killed only $kills/60 runs" >&2
    exit 1
fi

# One clean run lets the recovery scan reclaim the orphans of the 60
# crashes and refill the store.
"$build/tools/dioscc" --batch "$torture/manifest" \
    --cache-dir "$cache" > /dev/null 2>&1

# Damage 2 of the 3 entries (>25%): truncate one, zero a span in another.
mapfile -t entries < <(find "$cache" -name '*.sexpr' \
    -not -path '*/quarantine/*' | sort)
if [[ "${#entries[@]}" -ne 3 ]]; then
    echo "check.sh: expected 3 cache entries, found ${#entries[@]}" >&2
    exit 1
fi
size=$(stat -c %s "${entries[0]}")
head -c $((size / 2)) "${entries[0]}" > "${entries[0]}.trunc"
mv "${entries[0]}.trunc" "${entries[0]}"
size=$(stat -c %s "${entries[1]}")
dd if=/dev/zero of="${entries[1]}" bs=1 seek=$((size / 2)) count=16 \
    conv=notrunc status=none

# The warm runs over the damaged store must still be byte-identical to
# the cold reference — corrupt entries are quarantined and recompiled,
# never served.
for n in 4 8 12; do
    "$build/tools/dioscc" "$torture/vadd$n.dios" \
        --json --emit-c --cache-dir "$cache" 2> /dev/null \
        | tail -n +2 > "$torture/warm$n.c"
    cmp "$torture/cold$n.c" "$torture/warm$n.c"
done
mapfile -t entries < <(find "$cache" -name '*.sexpr' \
    -not -path '*/quarantine/*' | sort)
if [[ "${#entries[@]}" -ne 3 ]]; then
    echo "check.sh: expected 3 healed entries, found ${#entries[@]}" >&2
    exit 1
fi
for entry in "${entries[@]}"; do
    cmp "$entry" "$torture/cold-cache/${entry#"$cache"/}"
done

if find "$cache" -name '*.tmp.*' | grep -q .; then
    echo "check.sh: torn .tmp files survived recovery" >&2
    exit 1
fi
quarantined=$(find "$cache" -path '*/quarantine/*' -name '*.sexpr' \
    2> /dev/null | wc -l)
if [[ "$quarantined" -lt 2 ]]; then
    echo "check.sh: expected >=2 quarantined entries, got $quarantined" >&2
    exit 1
fi
echo "check.sh: crash-consistency torture passed" \
     "($kills/60 runs killed mid-store, $quarantined entries quarantined)"

# clang-tidy (repo-root .clang-tidy profile) over the analysis, machine,
# and VIR layers, using the ASan build's compile_commands.json. Optional:
# skipped when clang-tidy is not installed.
if command -v clang-tidy > /dev/null 2>&1; then
    clang-tidy -p "$build" --quiet \
        "$repo"/src/analysis/*.cpp "$repo"/src/machine/*.cpp \
        "$repo"/src/vir/*.cpp
    echo "check.sh: clang-tidy passed on src/analysis + src/machine + src/vir"
else
    echo "check.sh: clang-tidy not installed; skipping lint"
fi

# ASan and TSan cannot share a build; the threaded tests get their own.
if [[ "${1:-}" != "--fast" || ! -d "$build_tsan" ]]; then
    cmake --preset tsan -S "$repo"
fi
cmake --build "$build_tsan" -j "$jobs" \
      --target service_test resilience_test analysis_test \
               durability_test overload_test strategy_test daemon_test

export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
ctest --test-dir "$build_tsan" --output-on-failure \
      -R '^(service_test|resilience_test|analysis_test|durability_test|overload_test|strategy_test|daemon_test)$'

echo "check.sh: service + resilience + analysis + durability + overload" \
     "+ strategy + daemon tests passed under TSan"

# Debug leg: every other tree defines NDEBUG, so only here does the
# saturation runner call check_invariants() after each rebuild.
if [[ "${1:-}" != "--fast" || ! -d "$build_debug" ]]; then
    cmake --preset debug -S "$repo"
fi
cmake --build "$build_debug" -j "$jobs" \
      --target egraph_test strategy_test width_sweep_test
ctest --test-dir "$build_debug" --output-on-failure \
      -R '^(egraph_test|strategy_test|width_sweep_test)$'

echo "check.sh: egraph + strategy + width-sweep tests passed in the Debug build"

# Perf gates (bench/perf_gates.json, run by tools/perf_gate.py): the
# e-matching microbenchmarks, the chaos soaks and the native
# differential, from the default RelWithDebInfo tree. The table says what
# each gate runs and checks; re-capture after an intended change with
# `tools/perf_gate.py capture`. The tree is configured with -Werror (also
# under --fast when an earlier configure dropped it).
build_bench="$repo/build"
if [[ "${1:-}" != "--fast" ]] ||
       ! grep -qs -- '-Werror' "$build_bench/CMakeCache.txt"; then
    cmake --preset default -S "$repo" -DCMAKE_CXX_FLAGS=-Werror
fi
# The perf leg and the two legs after it each run whatever the others
# returned; a failure is recorded, named at the end and fails the script.
failed=()
if python3 "$repo/tools/perf_gate.py" check --build "$build_bench"; then
    echo "check.sh: perf gates passed (bench/perf_gates.json)"
else
    failed+=("perf gates")
fi

# Figure-6 strategy gate (DESIGN.md §5h): sweep kernel sizes with and
# without the explosive full-AC rules, monolithic saturation vs the
# built-in phased strategy, and write BENCH_fig6.json. The bench exits
# non-zero when the phased strategy regresses extracted cost on any
# size, or fails to reach a fixed point / goal stop (or a strictly
# better extraction) on a size where the monolithic run was truncated
# by its budget — the "break the timeout wall" claim, enforced.
fig6_json="$build_bench/BENCH_fig6.json"
if cmake --build "$build_bench" -j "$jobs" --target fig6_timeout &&
       "$build_bench/bench/fig6_timeout" --out "$fig6_json" > /dev/null; then
    echo "check.sh: fig6 strategy gate passed ($fig6_json)"
else
    failed+=("fig6 strategy gate")
fi

# A quick ASan pass of the harness itself (one kernel, all widths,
# correctness only): the dlopen/dlsym loader, the memory-image
# round-trip, and the ULP comparator all run instrumented. The emitted
# kernel .so stays uninstrumented (plain host cc), which ASan tolerates
# in the dlopen direction.
if "$build/bench/native_diff" --check-only --filter QProd \
       --out "$build/BENCH_native_asan.json" > /dev/null; then
    echo "check.sh: native differential passed under ASan (QProd subset)"
else
    failed+=("native differential under ASan")
fi

if [[ "${#failed[@]}" -gt 0 ]]; then
    joined=$(printf '%s; ' "${failed[@]}")
    echo "check.sh: failed legs: ${joined%; }" >&2
    exit 1
fi
