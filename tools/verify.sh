#!/bin/sh
# Tier-1 verification gate — the exact command sequence from ROADMAP.md.
# Exits nonzero on any configure, build or test failure.
#
# Usage: tools/verify.sh [--docs] [--outofcore] [--threads N] [--sanitize]
#                        [--bench] [--analyze] [--tidy] [extra ctest args...]
#   tools/verify.sh                 # full tier-1 + tier-2 run + determinism
#                                   # lint + architecture analyzer + out-of-
#                                   # core and epochs (kill-resume) smokes +
#                                   # docs check
#   tools/verify.sh -L tier1        # tier-1 only (+ lint/smokes/docs)
#   tools/verify.sh --docs          # docs/golden-coverage check only (no build)
#   tools/verify.sh --outofcore     # build + out-of-core smoke only: a small
#                                   # sharded spill-merge census diffed
#                                   # byte-for-byte against the in-memory
#                                   # census output
#   tools/verify.sh --threads 8     # engine-determinism gate: runs tier-1
#                                   # twice (CERTQUIC_THREADS=1 and =N),
#                                   # diffs the golden bench outputs between
#                                   # the serial and parallel engine runs,
#                                   # then runs the docs check
#   tools/verify.sh --sanitize      # sanitizer gate: tier-1 under
#                                   # ASan+UBSan (build-asan/), then the
#                                   # threaded suites under TSan
#                                   # (build-tsan/). Both with -Werror and
#                                   # CERTQUIC_ASSERT enabled; zero
#                                   # suppressions outside
#                                   # tools/lint_waivers.txt.
#   tools/verify.sh --bench         # throughput gate: build, run the
#                                   # bench/throughput_* suite (census,
#                                   # corpus, spill, epochs) on the smoke
#                                   # population, assemble
#                                   # build/BENCH_throughput.json and
#                                   # sanity-check its keys.
#   tools/verify.sh --analyze       # build + architecture analyzer only:
#                                   # include-graph layering against
#                                   # tools/layers.txt, IWYU-lite header
#                                   # hygiene, the token-level lint rules
#                                   # and the tools/ nondet self-scan;
#                                   # emits build/depgraph.{json,dot}.
#                                   # Runs in the default gate too.
#   tools/verify.sh --tidy          # opt-in: additionally run clang-tidy
#                                   # (the checked-in .clang-tidy) over
#                                   # src/ via run-clang-tidy and the
#                                   # exported compile_commands.json;
#                                   # skipped with a notice when
#                                   # run-clang-tidy is not installed.
# Flags combine in any order; the docs and out-of-core checks run in
# every build mode. All builds configure with -DCERTQUIC_WERROR=ON —
# the tree is warning-clean and stays that way.
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

# Determinism lint over the module-registered sources, against the
# checked-in waiver file. The `lint` target depends on (and builds)
# the certquic_lint binary. Expects cwd = repo root.
lint_check() {
  if cmake --build build --target lint; then
    echo "OK   lint: src/ clean against tools/lint_waivers.txt"
  else
    echo "FAIL lint: determinism lint found unwaived findings"
    return 1
  fi
}

# Architecture analyzer over the module-registered sources: layering
# against tools/layers.txt, IWYU-lite header hygiene (pragma-once /
# self-contained / unused-include), the token-level lint rules and the
# tools/ nondet-source self-scan — one run, every rule in waiver
# scope, depgraph.{json,dot} written into build/. The `analyze` target
# depends on (and builds) the certquic_analyze binary. Expects cwd =
# repo root.
analyze_check() {
  if cmake --build build --target analyze; then
    echo "OK   analyze: layering + hygiene clean; build/depgraph.json written"
  else
    echo "FAIL analyze: architecture analyzer found unwaived findings"
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

# Throughput gate: each bench/throughput_* binary runs on the smoke
# population and writes one single-line JSON object; the objects are
# assembled into build/BENCH_throughput.json and the required keys are
# checked. Expects cwd = build/.
bench_check() {
  tp_dir=$(mktemp -d)
  tp_status=0
  tp_env="CERTQUIC_DOMAINS=2000 CERTQUIC_SEED=42 CERTQUIC_SAMPLE=200 \
CERTQUIC_PQ_PROFILE=classical"
  printf '{"bench": "throughput", "paths": [\n' > "$tp_dir/assembled.json"
  tp_sep=""
  for tp_path in census corpus spill epochs; do
    if ! env $tp_env CERTQUIC_BENCH_JSON="$tp_dir/$tp_path.json" \
         "./bench/throughput_$tp_path" > "$tp_dir/$tp_path.txt" 2>&1; then
      echo "FAIL bench: throughput_$tp_path exited nonzero"
      cat "$tp_dir/$tp_path.txt"
      tp_status=1
      continue
    fi
    for key in '"path": "'"$tp_path"'"' '"probes_per_sec"' \
               '"records_per_sec"' '"wall_seconds"' '"threads"'; do
      if ! grep -q "$key" "$tp_dir/$tp_path.json"; then
        echo "FAIL bench: throughput_$tp_path JSON missing key $key"
        tp_status=1
      fi
    done
    printf '%s  ' "$tp_sep" >> "$tp_dir/assembled.json"
    cat "$tp_dir/$tp_path.json" >> "$tp_dir/assembled.json"
    tp_sep=","
  done
  printf ']}\n' >> "$tp_dir/assembled.json"
  if [ "$tp_status" -eq 0 ]; then
    cp "$tp_dir/assembled.json" BENCH_throughput.json
    echo "OK   bench: BENCH_throughput.json written (census/corpus/spill/epochs)"
  fi
  rm -rf "$tp_dir"
  return "$tp_status"
}

# Flags may appear in any order; everything unrecognized is passed on
# to ctest.
docs_only=0
outofcore_only=0
sanitize=0
bench=0
analyze_only=0
tidy=0
engine_threads=""
while [ $# -gt 0 ]; do
  case $1 in
    --docs)
      docs_only=1
      shift
      ;;
    --outofcore)
      outofcore_only=1
      shift
      ;;
    --sanitize)
      sanitize=1
      shift
      ;;
    --bench)
      bench=1
      shift
      ;;
    --analyze)
      analyze_only=1
      shift
      ;;
    --tidy)
      tidy=1
      shift
      ;;
    --threads)
      engine_threads=${2:?--threads needs a value}
      shift 2
      ;;
    *)
      break
      ;;
  esac
done

if [ "$docs_only" -eq 1 ] && [ "$outofcore_only" -eq 0 ] &&
   [ "$sanitize" -eq 0 ] && [ "$bench" -eq 0 ] &&
   [ -z "$engine_threads" ]; then
  docs_check
  exit $?
fi

jobs=$(nproc 2>/dev/null || echo 4)

if [ "$sanitize" -eq 1 ]; then
  # Sanitizer gate. Two builds (the ASan and TSan runtimes cannot link
  # together): tier-1 under ASan+UBSan, then the suites that actually
  # spin up worker threads under TSan. CERTQUIC_ASSERT is on in both
  # (CERTQUIC_SANITIZE implies it), UBSan findings are hard failures
  # (-fno-sanitize-recover), and there are no suppression files — the
  # only sanctioned waiver mechanism in this repo is
  # tools/lint_waivers.txt, which governs the lint, not the sanitizers.
  echo "== ASan+UBSan: tier-1 =="
  cmake -B build-asan -S . -DCERTQUIC_WERROR=ON \
        -DCERTQUIC_SANITIZE="address;undefined"
  cmake --build build-asan -j "$jobs"
  (cd build-asan && ctest --output-on-failure -j "$jobs" -L tier1 "$@")

  echo "== TSan: threaded suites =="
  cmake -B build-tsan -S . -DCERTQUIC_WERROR=ON -DCERTQUIC_SANITIZE=thread
  cmake --build build-tsan -j "$jobs"
  (cd build-tsan && ctest --output-on-failure -j "$jobs" "$@" -R \
    '^(engine_test|backend_test|executor_test|outofcore_test|service_test|ttfb_test|stats_test|net_test)$')

  echo "OK   sanitize: ASan+UBSan tier-1 and TSan threaded suites clean"
  exit 0
fi

cmake -B build -S . -DCERTQUIC_WERROR=ON
cmake --build build -j "$jobs"
cd build

if [ "$analyze_only" -eq 1 ] && [ "$outofcore_only" -eq 0 ] &&
   [ "$bench" -eq 0 ] && [ -z "$engine_threads" ]; then
  cd "$repo_root"
  status=0
  analyze_check || status=1
  if [ "$tidy" -eq 1 ]; then
    tidy_check || status=1
  fi
  docs_check || status=1
  exit "$status"
fi

if [ "$outofcore_only" -eq 1 ] && [ -z "$engine_threads" ]; then
  status=0
  outofcore_check || status=1
  cd "$repo_root"
  docs_check || status=1
  exit "$status"
fi

if [ "$bench" -eq 1 ] && [ -z "$engine_threads" ]; then
  status=0
  bench_check || status=1
  cd "$repo_root"
  docs_check || status=1
  exit "$status"
fi

if [ -z "$engine_threads" ]; then
  # ROADMAP's bare `-j` greedily eats any following argument, so pass the
  # job count explicitly to keep extra ctest args (e.g. -L tier1) working.
  ctest --output-on-failure -j "$jobs" "$@"
  outofcore_check
  epochs_check
  cd "$repo_root"
  status=0
  lint_check || status=1
  analyze_check || status=1
  if [ "$tidy" -eq 1 ]; then
    tidy_check || status=1
  fi
  docs_check || status=1
  exit "$status"
fi

# --threads N: the engine-determinism gate. Tier-1 must pass with the
# serial engine and with N worker threads, and the golden bench
# binaries — plus fig09, whose spoofed-amplification pass runs on the
# engine's shared-world backscatter backend — must print byte-identical
# output under both settings.
for t in 1 "$engine_threads"; do
  echo "== tier-1 with CERTQUIC_THREADS=$t =="
  CERTQUIC_THREADS=$t ctest --output-on-failure -j "$jobs" -L tier1 "$@"
done

# Same knobs as CERTQUIC_SMOKE_KNOBS in the root CMakeLists (the values
# the checked-in goldens are captured with).
smoke_env="CERTQUIC_DOMAINS=2000 CERTQUIC_SEED=42 CERTQUIC_SAMPLE=200 \
CERTQUIC_PQ_PROFILE=classical"
out_dir=$(mktemp -d)
trap 'rm -rf "$out_dir"' EXIT
status=0
for bin in fig02_cert_field_sizes fig04_amplification_cdf \
           fig06_chain_size_cdf tab01_browser_profiles \
           tab02_crypto_algorithms fig09_spoofed_amplification \
           fig_pqc_chain_impact fig_outofcore_rss \
           fig_ttfb_cdf fig_ttfb_pqc fig_epoch_deltas; do
  # fig_ttfb_pqc / fig_epoch_deltas additionally drop machine-readable
  # perf records (BENCH_ttfb.json / BENCH_epochs.json) next to the
  # build tree.
  bench_json=""
  if [ "$bin" = "fig_ttfb_pqc" ]; then
    bench_json="CERTQUIC_BENCH_JSON=$PWD/BENCH_ttfb.json"
  fi
  if [ "$bin" = "fig_epoch_deltas" ]; then
    bench_json="CERTQUIC_BENCH_JSON=$PWD/BENCH_epochs.json"
  fi
  env $smoke_env $bench_json CERTQUIC_THREADS=1 "./bench/$bin" \
    > "$out_dir/$bin.serial.txt"
  env $smoke_env $bench_json CERTQUIC_THREADS="$engine_threads" "./bench/$bin" \
    > "$out_dir/$bin.parallel.txt"
  if cmp -s "$out_dir/$bin.serial.txt" "$out_dir/$bin.parallel.txt"; then
    echo "OK   $bin: serial == $engine_threads-thread output"
  else
    echo "FAIL $bin: output differs between 1 and $engine_threads threads"
    diff -u "$out_dir/$bin.serial.txt" "$out_dir/$bin.parallel.txt" || true
    status=1
  fi
done
outofcore_check || status=1
epochs_check || status=1
if [ "$bench" -eq 1 ]; then
  bench_check || status=1
fi
cd "$repo_root"
lint_check || status=1
if [ "$analyze_only" -eq 1 ]; then
  analyze_check || status=1
fi
if [ "$tidy" -eq 1 ]; then
  tidy_check || status=1
fi
docs_check || status=1
exit "$status"
