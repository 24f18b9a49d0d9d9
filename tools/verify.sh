#!/bin/sh
# Tier-1 verification gate — the exact command sequence from ROADMAP.md.
# Exits nonzero on any configure, build or test failure.
#
# Usage: tools/verify.sh [--docs] [--outofcore] [--analyze] [--threads N]
#                        [--sanitize] [--tidy] [extra ctest args...]
#   tools/verify.sh                 # full run: tier-1 + tier-2 ctest,
#                                   # out-of-core and epochs (kill-resume)
#                                   # smokes, architecture analyzer, the
#                                   # Release -Werror build (build-release/),
#                                   # docs check
#   tools/verify.sh -L tier1        # the full run with ctest limited to
#                                   # tier-1
#   tools/verify.sh --docs          # docs/golden-coverage check (no build)
#   tools/verify.sh --outofcore     # build + out-of-core smoke: a small
#                                   # sharded spill-merge census diffed
#                                   # byte-for-byte against the in-memory
#                                   # census output
#   tools/verify.sh --analyze       # build + architecture analyzer, the
#                                   # one static gate: include-graph
#                                   # layering against tools/layers.txt,
#                                   # IWYU-lite header hygiene, the five
#                                   # determinism lint rules and the
#                                   # tools/ nondet self-scan; emits
#                                   # build/depgraph.{json,dot}
#   tools/verify.sh --threads 8     # engine-determinism gate: runs tier-1
#                                   # twice (CERTQUIC_THREADS=1 and =N),
#                                   # diffs the golden bench outputs between
#                                   # the serial and parallel engine runs,
#                                   # then runs the out-of-core and epochs
#                                   # smokes and the analyzer
#   tools/verify.sh --sanitize      # sanitizer gate: tier-1 under
#                                   # ASan+UBSan (build-asan/), then the
#                                   # threaded suites under TSan
#                                   # (build-tsan/). Both with -Werror and
#                                   # CERTQUIC_ASSERT enabled; zero
#                                   # suppressions outside
#                                   # tools/lint_waivers.txt.
#   tools/verify.sh --tidy          # opt-in: additionally run clang-tidy
#                                   # (the checked-in .clang-tidy) over
#                                   # src/ via run-clang-tidy and the
#                                   # exported compile_commands.json;
#                                   # skipped with a notice when
#                                   # run-clang-tidy is not installed.
#                                   # Alone, it adds to the full run.
# Flags combine in any order and every named stage runs; with no stage
# flag the full run runs. The docs check runs last in every mode.
# Other arguments go to ctest, so they need a stage that runs ctest (the
# full run, --threads or --sanitize); any other combination exits 2 and
# names what it refuses. All builds configure with -DCERTQUIC_WERROR=ON
# — the tree is warning-clean and stays that way.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

# Static documentation / golden-coverage check:
#  * every golden file under tests/golden/ must correspond to exactly one
#    bench target (bench/<name>.cpp) and be exercised by golden_test;
#  * every relative markdown link in README.md and docs/ must resolve.
docs_check() {
  docs_status=0
  for golden in tests/golden/*.txt; do
    name=$(basename "$golden" .txt)
    if [ ! -f "bench/$name.cpp" ]; then
      echo "FAIL docs: $golden has no matching bench/$name.cpp target"
      docs_status=1
    fi
    if ! grep -q "\"$name\"" tests/golden_test.cpp; then
      echo "FAIL docs: $golden is not exercised by tests/golden_test.cpp"
      docs_status=1
    fi
  done
  for doc in README.md docs/*.md; do
    [ -f "$doc" ] || continue
    doc_dir=$(dirname "$doc")
    # Markdown targets of the form ](path) — URLs and pure anchors skip.
    for link in $(grep -o '](\([^)]*\))' "$doc" 2>/dev/null \
                    | sed 's/^](//; s/)$//'); do
      case $link in
        http://*|https://*|mailto:*|'#'*) continue ;;
      esac
      target=${link%%#*}
      [ -n "$target" ] || continue
      if [ ! -e "$doc_dir/$target" ]; then
        echo "FAIL docs: $doc links to missing file: $link"
        docs_status=1
      fi
    done
  done
  if [ "$docs_status" -eq 0 ]; then
    echo "OK   docs: golden<->bench coverage and markdown links"
  fi
  return "$docs_status"
}

# Out-of-core smoke: the sharded spill → merge pipeline must print the
# byte-identical census table that the in-memory aggregator prints on
# the same population (certquic_scan exits nonzero itself when the two
# paths' aggregates diverge internally). Expects cwd = build/.
outofcore_check() {
  ooc_dir=$(mktemp -d)
  ooc_status=0
  ./tools/certquic_scan census --domains 2000 --sample 300 \
    > "$ooc_dir/census.txt" || ooc_status=1
  ./tools/certquic_scan outofcore --domains 2000 --sample 300 --shards 3 \
    --spill-dir "$ooc_dir/spill" > "$ooc_dir/outofcore.txt" \
    2> "$ooc_dir/outofcore.log" || ooc_status=1
  if [ "$ooc_status" -eq 0 ] &&
     cmp -s "$ooc_dir/census.txt" "$ooc_dir/outofcore.txt"; then
    echo "OK   outofcore: spill-merge census == in-memory census"
  else
    echo "FAIL outofcore: spill-merge output differs from in-memory census"
    diff -u "$ooc_dir/census.txt" "$ooc_dir/outofcore.txt" || true
    cat "$ooc_dir/outofcore.log" || true
    ooc_status=1
  fi
  rm -rf "$ooc_dir"
  return "$ooc_status"
}

# Longitudinal-service smoke: a 3-epoch run killed after 4 shard slices
# (with the last written shard additionally cut mid-record, as a crash
# mid-write would leave it) and then resumed must print the
# byte-identical epoch tables of an uninterrupted run. Expects cwd =
# build/.
epochs_check() {
  ep_dir=$(mktemp -d)
  ep_status=0
  ep_flags="--domains 2000 --sample 150 --shards 3 --epochs 3"
  ./tools/certquic_scan epochs $ep_flags --store "$ep_dir/full" \
    > "$ep_dir/full.txt" 2> /dev/null || ep_status=1
  # The aborted run must itself exit nonzero (incomplete, resumable).
  if ./tools/certquic_scan epochs $ep_flags --store "$ep_dir/resume" \
       --abort-after-shards 4 > /dev/null 2>&1; then
    echo "FAIL epochs: crash-injected run exited zero"
    ep_status=1
  fi
  last_shard=$(find "$ep_dir/resume" -name 'shard_*.spill' | sort | tail -1)
  if [ -n "$last_shard" ]; then
    head -c 64 "$last_shard" > "$last_shard.cut"
    mv "$last_shard.cut" "$last_shard"
  else
    echo "FAIL epochs: crash-injected run left no shard files"
    ep_status=1
  fi
  ./tools/certquic_scan epochs $ep_flags --store "$ep_dir/resume" \
    > "$ep_dir/resumed.txt" 2> /dev/null || ep_status=1
  if [ "$ep_status" -eq 0 ] &&
     cmp -s "$ep_dir/full.txt" "$ep_dir/resumed.txt"; then
    echo "OK   epochs: killed-and-resumed run == uninterrupted run"
  else
    echo "FAIL epochs: resumed output differs from uninterrupted run"
    diff -u "$ep_dir/full.txt" "$ep_dir/resumed.txt" || true
    ep_status=1
  fi
  rm -rf "$ep_dir"
  return "$ep_status"
}

# Architecture analyzer over the module-registered sources — the one
# static gate: layering against tools/layers.txt, IWYU-lite header
# hygiene (pragma-once / self-contained / unused-include), the five
# token-level lint rules and the tools/ nondet-source self-scan — one
# run against every waiver, depgraph.{json,dot} written into build/.
# The `analyze` target depends on (and builds) the certquic_analyze
# binary. Expects cwd = repo root.
analyze_check() {
  if cmake --build build --target analyze; then
    echo "OK   analyze: lint + layering + hygiene clean;" \
         "build/depgraph.json written"
  else
    echo "FAIL analyze: unwaived findings or stale waivers"
    return 1
  fi
}

# Release -Werror build of every target, in build-release/: the -O3
# configuration perfbench measures. GCC warns differently per
# optimization level (-Wrestrict, -Wmaybe-uninitialized), so the
# RelWithDebInfo tree building clean does not prove this one does.
# Builds only; the tests run in build/. Expects cwd = repo root.
release_check() {
  if cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release \
       -DCERTQUIC_WERROR=ON > /dev/null &&
     cmake --build build-release -j "$jobs"; then
    echo "OK   release: Release -Werror build of every target"
  else
    echo "FAIL release: the Release -Werror build failed"
    return 1
  fi
}

# Opt-in clang-tidy stage: the checked-in .clang-tidy over src/,
# driven by build/compile_commands.json (exported unconditionally by
# the root CMakeLists). Skips with a notice when run-clang-tidy is
# not on PATH — the gate must not depend on tools the container may
# lack. Expects cwd = repo root.
tidy_check() {
  tidy_runner=$(command -v run-clang-tidy || true)
  if [ -z "$tidy_runner" ]; then
    tidy_runner=$(command -v run-clang-tidy-18 || true)
  fi
  if [ -z "$tidy_runner" ]; then
    echo "SKIP tidy: run-clang-tidy not found on PATH"
    return 0
  fi
  if "$tidy_runner" -p build -quiet "$repo_root/src/.*" \
       > build/tidy.log 2>&1; then
    echo "OK   tidy: clang-tidy clean over src/"
  else
    echo "FAIL tidy: clang-tidy reported findings (build/tidy.log)"
    tail -40 build/tidy.log
    return 1
  fi
}

# The engine-determinism gate: tier-1 must pass with the serial engine
# and with N worker threads, and the golden bench binaries — plus
# fig09, whose spoofed-amplification pass runs on the engine's
# shared-world backscatter backend — must print byte-identical output
# under both settings. Extra arguments go to ctest. Expects cwd =
# build/.
threads_check() {
  th_status=0
  for t in 1 "$engine_threads"; do
    echo "== tier-1 with CERTQUIC_THREADS=$t =="
    CERTQUIC_THREADS=$t ctest --output-on-failure -j "$jobs" -L tier1 "$@" \
      || th_status=1
  done
  # Same knobs as CERTQUIC_SMOKE_KNOBS in the root CMakeLists (the
  # values the checked-in goldens are captured with).
  smoke_env="CERTQUIC_DOMAINS=2000 CERTQUIC_SEED=42 CERTQUIC_SAMPLE=200 \
CERTQUIC_PQ_PROFILE=classical"
  th_dir=$(mktemp -d)
  for bin in fig02_cert_field_sizes fig04_amplification_cdf \
             fig06_chain_size_cdf tab01_browser_profiles \
             tab02_crypto_algorithms fig09_spoofed_amplification \
             fig_pqc_chain_impact fig_outofcore_rss \
             fig_ttfb_cdf fig_ttfb_pqc fig_epoch_deltas; do
    if env $smoke_env CERTQUIC_THREADS=1 "./bench/$bin" \
         > "$th_dir/$bin.serial.txt" &&
       env $smoke_env CERTQUIC_THREADS="$engine_threads" "./bench/$bin" \
         > "$th_dir/$bin.parallel.txt" &&
       cmp -s "$th_dir/$bin.serial.txt" "$th_dir/$bin.parallel.txt"; then
      echo "OK   $bin: serial == $engine_threads-thread output"
    else
      echo "FAIL $bin: failed or output differs between 1 and" \
           "$engine_threads threads"
      diff -u "$th_dir/$bin.serial.txt" "$th_dir/$bin.parallel.txt" || true
      th_status=1
    fi
  done
  rm -rf "$th_dir"
  return "$th_status"
}

# Every argument is either a stage flag or passed on to ctest, in any
# order: the loop re-appends the ctest arguments to "$@".
docs=0
outofcore=0
analyze=0
sanitize=0
tidy=0
engine_threads=""
want_threads=0
for arg do
  shift
  if [ "$want_threads" -eq 1 ]; then
    engine_threads=${arg:-empty}
    want_threads=0
    continue
  fi
  case $arg in
    --docs) docs=1 ;;
    --outofcore) outofcore=1 ;;
    --analyze) analyze=1 ;;
    --sanitize) sanitize=1 ;;
    --tidy) tidy=1 ;;
    --threads) want_threads=1 ;;
    *) set -- "$@" "$arg" ;;
  esac
done
if [ "$want_threads" -eq 1 ]; then
  echo "verify.sh: --threads needs a value" >&2
  exit 2
fi
case $engine_threads in
  *[!0-9]*|0*)
    echo "verify.sh: --threads needs a positive integer, got" \
         "'$engine_threads'" >&2
    exit 2
    ;;
esac

full=0
if [ "$docs$outofcore$analyze$sanitize" = "0000" ] &&
   [ -z "$engine_threads" ]; then
  full=1
fi
if [ $# -gt 0 ] && [ "$full" -eq 0 ] && [ "$sanitize" -eq 0 ] &&
   [ -z "$engine_threads" ]; then
  echo "verify.sh: refusing ctest arguments '$*': the named stages run" \
       "no ctest (pass them with no stage flag, --threads or" \
       "--sanitize)" >&2
  exit 2
fi

jobs=$(nproc 2>/dev/null || echo 4)
status=0

if [ "$full$outofcore$analyze$tidy" != "0000" ] ||
   [ -n "$engine_threads" ]; then
  cmake -B build -S . -DCERTQUIC_WERROR=ON
  cmake --build build -j "$jobs"
fi

if [ "$full" -eq 1 ]; then
  # ROADMAP's bare `-j` greedily eats any following argument, so pass
  # the job count explicitly to keep extra ctest args (e.g. -L tier1)
  # working.
  (cd build && ctest --output-on-failure -j "$jobs" "$@") || status=1
fi
if [ -n "$engine_threads" ]; then
  (cd build && threads_check "$@") || status=1
fi
if [ "$full" -eq 1 ] || [ "$outofcore" -eq 1 ] ||
   [ -n "$engine_threads" ]; then
  (cd build && outofcore_check) || status=1
fi
if [ "$full" -eq 1 ] || [ -n "$engine_threads" ]; then
  (cd build && epochs_check) || status=1
fi
if [ "$full" -eq 1 ] || [ "$analyze" -eq 1 ] || [ -n "$engine_threads" ]; then
  analyze_check || status=1
fi
if [ "$full" -eq 1 ]; then
  release_check || status=1
fi
if [ "$tidy" -eq 1 ]; then
  tidy_check || status=1
fi

if [ "$sanitize" -eq 1 ]; then
  # Sanitizer gate. Two builds (the ASan and TSan runtimes cannot link
  # together): tier-1 under ASan+UBSan, then the suites that actually
  # spin up worker threads under TSan. CERTQUIC_ASSERT is on in both
  # (CERTQUIC_SANITIZE implies it), UBSan findings are hard failures
  # (-fno-sanitize-recover), and there are no suppression files — the
  # only sanctioned waiver mechanism in this repo is
  # tools/lint_waivers.txt, which governs the analyzer, not the
  # sanitizers.
  echo "== ASan+UBSan: tier-1 =="
  cmake -B build-asan -S . -DCERTQUIC_WERROR=ON \
        -DCERTQUIC_SANITIZE="address;undefined"
  cmake --build build-asan -j "$jobs"
  san_status=0
  (cd build-asan && ctest --output-on-failure -j "$jobs" -L tier1 "$@") ||
    san_status=1

  echo "== TSan: threaded suites =="
  cmake -B build-tsan -S . -DCERTQUIC_WERROR=ON -DCERTQUIC_SANITIZE=thread
  cmake --build build-tsan -j "$jobs"
  (cd build-tsan && ctest --output-on-failure -j "$jobs" "$@" -R \
    '^(engine_test|backend_test|executor_test|outofcore_test|service_test|ttfb_test|stats_test|net_test)$') ||
    san_status=1

  if [ "$san_status" -eq 0 ]; then
    echo "OK   sanitize: ASan+UBSan tier-1 and TSan threaded suites clean"
  else
    echo "FAIL sanitize: a sanitized suite failed"
    status=1
  fi
fi

docs_check || status=1
exit "$status"
