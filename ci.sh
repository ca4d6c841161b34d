#!/usr/bin/env bash
# CI entry point: lints, tier-1 verify, the full test suite
# single-threaded, a sharded-replay smoke test (worker count must never
# change the figure CSV, with and without an explicit logical-shard
# grain), a telemetry smoke test (the trace must parse and agree with
# the run manifest), a forensics gate (the `analyze` report must
# pass its schema/conservation validation on a real fig15 trace), a
# time-resolved telemetry gate (per-epoch window sums must conserve and
# the series must be worker-count invariant), and a native-execution
# gate (sim and native backends must agree on every semantic outcome,
# the measured-telemetry path must analyze clean, and a corrupted block
# file must die with a contextful error), an MLP gate (the fig_mlp
# sweep must match its golden and --mlp-width 1 must be byte-identical
# to the serial engine), a cycle-accounting gate (the fig_breakdown
# sweep must match its golden, a traced run must pass the breakdown
# conservation rows in `analyze --validate`, and a sed-forged stall
# component must fail naming the broken identity), a doc-link check
# (every binary, flag and results/ file named in the docs must exist),
# and the benchmark package's own tests (forged-report negative
# controls, determinism, the metric list against BENCHMARK.json).
set -euo pipefail
cd "$(dirname "$0")"

echo "== lint: cargo fmt --check =="
cargo fmt --all --check

echo "== lint: cargo clippy -D warnings =="
cargo clippy --workspace -- -D warnings

echo "== docs: cargo doc --no-deps (rustdoc warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== tier-1: cargo build --release =="
cargo build --release

# Tier-1 (`cargo build --release && cargo test -q`) covers the whole
# workspace through `default-members`; this pass reruns every test
# single-threaded. Build test targets first so the timed run is
# compile-free.
echo "== full workspace tests (single-threaded) =="
cargo test -q --workspace --no-run
cargo test -q --workspace -- --test-threads=1

echo "== sharded-replay smoke: fig18_speedup, shards 1 vs 4 =="
cargo build --release -p metal-bench --bin fig18_speedup
out1=$(mktemp) && out4=$(mktemp)
trap 'rm -f "$out1" "$out4"' EXIT
# Default (unbounded) grain: the serial single-engine methodology.
t0=$(date +%s%N)
./target/release/fig18_speedup --scale ci --shards 1 > "$out1"
t1=$(date +%s%N)
./target/release/fig18_speedup --scale ci --shards 4 > "$out4"
t2=$(date +%s%N)
if ! diff -q "$out1" "$out4" > /dev/null; then
    echo "FAIL: fig18_speedup (default grain) differs between shards=1 and shards=4" >&2
    diff "$out1" "$out4" >&2 || true
    exit 1
fi
echo "default grain: shards=1 $(( (t1 - t0) / 1000000 )) ms, shards=4 $(( (t2 - t1) / 1000000 )) ms, CSV identical"
# Explicit logical sharding (partitioned-accelerator semantics): still
# worker-count invariant.
./target/release/fig18_speedup --scale ci --shards 1 --shard-walks 512 > "$out1"
./target/release/fig18_speedup --scale ci --shards 4 --shard-walks 512 > "$out4"
if ! diff -q "$out1" "$out4" > /dev/null; then
    echo "FAIL: fig18_speedup (--shard-walks 512) differs between shards=1 and shards=4" >&2
    diff "$out1" "$out4" >&2 || true
    exit 1
fi
echo "shard-walks=512: CSV identical across worker counts"

echo "== telemetry smoke: fig20_breakdown --trace-out / --metrics-out =="
cargo build --release -p metal-bench --bin fig20_breakdown --bin trace_dump
tdir=$(mktemp -d)
trap 'rm -f "$out1" "$out4"; rm -rf "$tdir"' EXIT
# A traced run must produce the same CSV as an untraced one…
./target/release/fig20_breakdown --scale ci > "$tdir/plain.csv"
./target/release/fig20_breakdown --scale ci \
    --trace-out "$tdir/trace.jsonl" --metrics-out "$tdir/manifest.json" \
    > "$tdir/traced.csv"
if ! diff -q "$tdir/plain.csv" "$tdir/traced.csv" > /dev/null; then
    echo "FAIL: --trace-out changed the figure CSV" >&2
    diff "$tdir/plain.csv" "$tdir/traced.csv" >&2 || true
    exit 1
fi
echo "tracing does not perturb the CSV"
# …every trace line must parse, and the per-level hit counts derived
# from raw probe events must match the manifest's statistics exactly.
./target/release/trace_dump "$tdir/trace.jsonl" \
    --check-hits "$tdir/manifest.json" > "$tdir/dump.txt"
grep -q "check-hits: per-level hit counts match" "$tdir/dump.txt"
echo "trace parses; trace-derived hit levels match the manifest"

echo "== telemetry cross-check: fig15 + fig24 traces vs manifests =="
cargo build --release -p metal-bench --bin fig15_miss_rate --bin fig24_design_sweep
for fig in fig15_miss_rate fig24_design_sweep; do
    ./target/release/"$fig" --scale ci \
        --trace-out "$tdir/$fig.jsonl" --metrics-out "$tdir/$fig.manifest.json" \
        > /dev/null
    ./target/release/trace_dump "$tdir/$fig.jsonl" \
        --check-hits "$tdir/$fig.manifest.json" > "$tdir/$fig.dump.txt"
    grep -q "check-hits: per-level hit counts match" "$tdir/$fig.dump.txt"
    echo "$fig: trace-derived hit levels match the manifest"
done
# Negative control: a corrupted trace (one forged probe hit) must make
# trace_dump exit nonzero, or the checks above prove nothing.
cp "$tdir/fig15_miss_rate.jsonl" "$tdir/forged.jsonl"
printf '%s\n' '{"ev":"ix_probe","run":"scan","design":"metal-ix","shard":0,"index":0,"set":0,"level":0,"hit":true,"scan":false,"short_circuit":1}' \
    >> "$tdir/forged.jsonl"
if ./target/release/trace_dump "$tdir/forged.jsonl" \
    --check-hits "$tdir/fig15_miss_rate.manifest.json" > "$tdir/forged.txt"; then
    echo "FAIL: trace_dump exited 0 on a forged trace/manifest mismatch" >&2
    exit 1
fi
grep -q "MISMATCH" "$tdir/forged.txt"
echo "negative control: forged trace fails check-hits with nonzero exit"
# Second negative control: a forged admission event leaves the hit counts
# intact but must trip the reason-counter diff re-derived from the trace.
cp "$tdir/fig15_miss_rate.jsonl" "$tdir/forged_reason.jsonl"
printf '%s\n' '{"ev":"insert","run":"scan","design":"metal-ix","shard":0,"index":0,"level":0,"set":0,"life":64,"reason":"node-level"}' \
    >> "$tdir/forged_reason.jsonl"
if ./target/release/trace_dump "$tdir/forged_reason.jsonl" \
    --check-hits "$tdir/fig15_miss_rate.manifest.json" > "$tdir/forged_reason.txt"; then
    echo "FAIL: trace_dump exited 0 on a forged insert-reason counter" >&2
    exit 1
fi
grep -q "MISMATCH inserts_by_reason" "$tdir/forged_reason.txt"
echo "negative control: forged reason counter fails check-reasons with nonzero exit"

echo "== forensics: analyze the fig15 trace + schema gate =="
# The offline analyzer must digest the ci-scale fig15 trace into a
# schema-valid, conservation-checked ANALYSIS.json and an HTML report.
cargo build --release -p metal-bench --bin analyze
./target/release/analyze "$tdir/fig15_miss_rate.jsonl" \
    --manifest "$tdir/fig15_miss_rate.manifest.json" \
    --out "$tdir/ANALYSIS.json" --html "$tdir/ANALYSIS.html" > "$tdir/analyze.txt"
grep -q "analyze: wrote" "$tdir/analyze.txt"
./target/release/analyze --validate "$tdir/ANALYSIS.json"
grep -q "<svg" "$tdir/ANALYSIS.html"
echo "fig15 trace analyzed; ANALYSIS.json passes the schema/conservation gate"

echo "== examples: all build, quickstart runs, run_figures.sh --dry-run =="
# The examples are documentation that must keep compiling; quickstart is
# cheap enough to actually execute. The figure driver's dry-run checks
# every binary it references still builds, without touching results/.
cargo build --release --examples
./target/release/examples/quickstart > /dev/null
./run_figures.sh --dry-run > "$tdir/dryrun.txt"
grep -q "ALL_DONE" "$tdir/dryrun.txt"
echo "examples compile and quickstart runs; run_figures.sh --dry-run reaches ALL_DONE"

echo "== differential verification: fuzz smoke + figure cross-check =="
# Debug build on purpose: overflow checks armed, and 600 cases take
# seconds. Zero divergences required; failures land minimized repros in
# crates/verify/corpus/ (replayed by the corpus_replay test above).
cargo build -p metal-verify --bin ix_fuzz
./target/debug/ix_fuzz --cases 600 --seed 42
# Mutation smoke: the CRUD swarm (inserts, deletes, range invalidations,
# cross-design write runs) through the mutation-aware oracle — the
# coherence gate for the write path. Fixed seed, overflow checks armed.
./target/debug/ix_fuzz --cases 600 --seed 43 --mutate
echo "mutation fuzz smoke: 600 CRUD cases, zero divergences"
# Native-backend swarm: seeded CRUD walk mixes run end-to-end through
# the paged native executor and every semantic counter is diffed
# against the (oracle-verified) simulator; failures shrink to
# crates/verify/corpus/ like the IX-cache swarms.
./target/debug/ix_fuzz --cases 600 --seed 44 --backend native
echo "native fuzz smoke: 600 end-to-end cases, zero sim/native divergences"
# The --verify flag cross-checks a subsample of every figure workload
# against the reference accounting model, without touching the CSV.
./target/release/fig15_miss_rate --scale ci --verify > "$tdir/verify.csv" 2> /dev/null
./target/release/fig15_miss_rate --scale ci > "$tdir/plain15.csv" 2> /dev/null
if ! diff -q "$tdir/plain15.csv" "$tdir/verify.csv" > /dev/null; then
    echo "FAIL: --verify changed the figure CSV" >&2
    exit 1
fi
echo "--verify passes and leaves the CSV byte-identical"

echo "== mutation sweep: write-ratio invariants + forged-stale-hit control =="
# The CRUD sweep must keep result/structural counters design-invariant
# (the binary aborts otherwise) and its trace must reconcile with the
# manifest exactly, invalidations included.
cargo build --release -p metal-bench --bin fig_write_sweep
./target/release/fig_write_sweep --scale ci --write-ratio 25 \
    --trace-out "$tdir/wsweep.jsonl" --metrics-out "$tdir/wsweep.manifest.json" \
    > "$tdir/wsweep.csv"
./target/release/trace_dump "$tdir/wsweep.jsonl" \
    --check-hits "$tdir/wsweep.manifest.json" > "$tdir/wsweep.dump.txt"
grep -q "check-hits: per-level hit counts match" "$tdir/wsweep.dump.txt"
echo "mutated run: trace-derived hit levels match the manifest"
# Negative control: hand-corrupt the mutated trace by forging one probe
# miss into a stale hit. check-hits must fail, or the reconciliation
# above proves nothing about the invalidation protocol.
sed '0,/"hit":false/s//"hit":true/' "$tdir/wsweep.jsonl" > "$tdir/wsweep_forged.jsonl"
if ./target/release/trace_dump "$tdir/wsweep_forged.jsonl" \
    --check-hits "$tdir/wsweep.manifest.json" > "$tdir/wsweep_forged.txt"; then
    echo "FAIL: trace_dump exited 0 on a forged stale hit in a mutated trace" >&2
    exit 1
fi
grep -q "MISMATCH" "$tdir/wsweep_forged.txt"
echo "negative control: forged stale hit fails check-hits with nonzero exit"

echo "== time-resolved telemetry: window conservation + shard invariance =="
# Epoch-windowed series (--epoch): per-window counters must sum exactly
# to the whole-run aggregates (analyze --validate enforces the
# conservation), the series must be byte-identical across worker
# counts, and windowing must not perturb the figure CSV.
./target/release/fig15_miss_rate --scale ci --shards 1 --epoch walks:512 \
    --analyze-out "$tdir/A_series.json" --series-out "$tdir/S1.json" \
    > "$tdir/f15_series1.csv" 2> /dev/null
./target/release/fig15_miss_rate --scale ci --shards 4 --epoch walks:512 \
    --series-out "$tdir/S4.json" > "$tdir/f15_series4.csv" 2> /dev/null
if ! diff -q "$tdir/plain15.csv" "$tdir/f15_series1.csv" > /dev/null; then
    echo "FAIL: --epoch/--series-out changed the figure CSV" >&2
    diff "$tdir/plain15.csv" "$tdir/f15_series1.csv" >&2 || true
    exit 1
fi
echo "windowed telemetry does not perturb the CSV"
if ! diff -q "$tdir/S1.json" "$tdir/S4.json" > /dev/null; then
    echo "FAIL: telemetry series differs between shards=1 and shards=4" >&2
    diff "$tdir/S1.json" "$tdir/S4.json" >&2 || true
    exit 1
fi
echo "series byte-identical across worker counts"
./target/release/analyze --validate "$tdir/A_series.json"
echo "window sums conserve against whole-run aggregates"
# Negative control: perturb one per-window counter ("walks" appears
# only inside series windows; whole-run aggregates key on "walk_end")
# and the conservation gate must go red, or it proves nothing.
sed '0,/"walks":[0-9]*/s//"walks":9999999/' "$tdir/A_series.json" \
    > "$tdir/A_forged.json"
if ./target/release/analyze --validate "$tdir/A_forged.json" 2> /dev/null; then
    echo "FAIL: analyze --validate passed a forged window counter" >&2
    exit 1
fi
echo "negative control: forged window counter fails validation with nonzero exit"

echo "== native execution: backend equivalence + out-of-core gate =="
# fig_native runs every native-capable design through both backends;
# the ci-scale CSV is pinned to a committed golden and --check
# re-verifies sim/native equivalence row pair by row pair.
cargo build --release -p metal-bench --bin fig_native
./target/release/fig_native --scale ci > "$tdir/native.csv" 2> /dev/null
if ! grep -v '^#' "$tdir/native.csv" | diff - tests/goldens/fig_native_ci.csv; then
    echo "FAIL: fig_native ci CSV drifted from tests/goldens/fig_native_ci.csv" >&2
    exit 1
fi
./target/release/fig_native --check "$tdir/native.csv" > /dev/null
echo "fig_native matches the golden; --check confirms backend equivalence"
# Negative control: forge one native outcome cell (found 4000 -> 3999);
# --check must exit nonzero naming the divergent column, or the
# equivalence gate above proves nothing.
sed 's/^where,stream,native,4000,4000,/where,stream,native,4000,3999,/' \
    "$tdir/native.csv" > "$tdir/native_forged.csv"
if ./target/release/fig_native --check "$tdir/native_forged.csv" \
    > /dev/null 2> "$tdir/native_forged.txt"; then
    echo "FAIL: fig_native --check exited 0 on a forged native outcome" >&2
    exit 1
fi
grep -q "BACKEND DIVERGENCE where/stream: found" "$tdir/native_forged.txt"
echo "negative control: forged native found-count fails --check with nonzero exit"
# Measured telemetry: a traced native run must pass the same
# schema/conservation gate as the simulator traces, and the HTML report
# must carry the measured-vs-modeled table.
./target/release/fig_native --scale ci \
    --trace-out "$tdir/native.jsonl" --metrics-out "$tdir/native.manifest.json" \
    > /dev/null 2> /dev/null
./target/release/analyze "$tdir/native.jsonl" \
    --manifest "$tdir/native.manifest.json" \
    --out "$tdir/NATIVE.json" --html "$tdir/NATIVE.html" > /dev/null
./target/release/analyze --validate "$tdir/NATIVE.json"
grep -q "Measured vs modeled" "$tdir/NATIVE.html"
echo "native trace passes the conservation gate; HTML has the measured table"
# Out-of-core round trip: persist the trees as block files, reopen and
# re-walk them, then corrupt one page — the reload must die with a
# contextful error and exit 2 (usage/IO), not a panic or a wrong answer.
./target/release/fig_native --scale ci --store "$tdir/blocks" > /dev/null 2> /dev/null
./target/release/fig_native --scale ci --load "$tdir/blocks" > /dev/null 2> /dev/null
echo "block files persist and reopen; re-walks agree with the in-memory build"
blk=$(ls "$tdir"/blocks/*.blk | head -1)
printf 'XXXXXXXX' | dd of="$blk" bs=1 seek=4096 conv=notrunc 2> /dev/null
set +e
./target/release/fig_native --scale ci --load "$tdir/blocks" \
    > /dev/null 2> "$tdir/load_err.txt"
rc=$?
set -e
if [ "$rc" -ne 2 ]; then
    echo "FAIL: corrupted block file should exit 2 (usage/IO), got $rc" >&2
    cat "$tdir/load_err.txt" >&2
    exit 1
fi
grep -q "error: --load .*corrupted" "$tdir/load_err.txt"
echo "negative control: corrupted page fails --load with exit 2 and a contextful error"

echo "== MLP window: fig_mlp golden + width-1 identity =="
# fig_mlp sweeps --mlp-width 1/2/4/8 through both backends; the modeled
# CSV on stdout must match its pinned golden (measured walks/sec stay on
# stderr), and the fig_mlp_golden test additionally pins shard
# invariance of the same rows.
cargo build --release -p metal-bench --bin fig_mlp
./target/release/fig_mlp --scale ci > "$tdir/mlp.csv" 2> /dev/null
if ! grep -v '^#' "$tdir/mlp.csv" | diff - tests/goldens/fig_mlp_ci.csv; then
    echo "FAIL: fig_mlp ci CSV drifted from tests/goldens/fig_mlp_ci.csv" >&2
    exit 1
fi
echo "fig_mlp matches the golden"
# --mlp-width 1 must be the serial pre-MLP engine bit for bit: an
# explicit width-1 run of a figure binary is byte-identical to a plain
# one.
./target/release/fig18_speedup --scale ci > "$tdir/f18_plain.csv" 2> /dev/null
./target/release/fig18_speedup --scale ci --mlp-width 1 > "$tdir/f18_w1.csv" 2> /dev/null
if ! diff -q "$tdir/f18_plain.csv" "$tdir/f18_w1.csv" > /dev/null; then
    echo "FAIL: --mlp-width 1 changed the fig18 CSV" >&2
    diff "$tdir/f18_plain.csv" "$tdir/f18_w1.csv" >&2 || true
    exit 1
fi
echo "--mlp-width 1 leaves the figure CSV byte-identical"

echo "== cycle accounting: fig_breakdown golden + conservation forge =="
# fig_breakdown decomposes every simulated cycle into the five
# attribution components (ix_probe/compute/queue/stall/hidden); the
# ci-scale CSV is pinned to a golden and the binary itself re-checks
# the partition identity on every row before printing it.
cargo build --release -p metal-bench --bin fig_breakdown
./target/release/fig_breakdown --scale ci > "$tdir/breakdown.csv" 2> /dev/null
if ! grep -v '^#' "$tdir/breakdown.csv" | diff - tests/goldens/fig_breakdown_ci.csv; then
    echo "FAIL: fig_breakdown ci CSV drifted from tests/goldens/fig_breakdown_ci.csv" >&2
    exit 1
fi
echo "fig_breakdown matches the golden"
# A traced, windowed run must leave the CSV byte-identical (telemetry
# stays observe-only) and produce an ANALYSIS.json whose breakdown
# sections pass the conservation rows: components sum to the walk
# latencies, the busiest lane reconciles with the exec horizon, and the
# per-epoch cycle columns sum to the section totals.
./target/release/fig_breakdown --scale ci --epoch walks:512 \
    --trace-out "$tdir/bkdn.jsonl" --metrics-out "$tdir/bkdn.manifest.json" \
    > "$tdir/breakdown_traced.csv" 2> /dev/null
if ! diff -q "$tdir/breakdown.csv" "$tdir/breakdown_traced.csv" > /dev/null; then
    echo "FAIL: tracing changed the fig_breakdown CSV" >&2
    diff "$tdir/breakdown.csv" "$tdir/breakdown_traced.csv" >&2 || true
    exit 1
fi
echo "tracing does not perturb the breakdown CSV"
./target/release/analyze "$tdir/bkdn.jsonl" \
    --manifest "$tdir/bkdn.manifest.json" --out "$tdir/BKDN.json" > /dev/null
./target/release/analyze --validate "$tdir/BKDN.json"
grep -q '"schema":"metal-breakdown-v1"' "$tdir/BKDN.json"
echo "breakdown conservation rows validate on a traced run"
# The offline reducer must render the same attribution from raw events.
./target/release/trace_dump "$tdir/bkdn.jsonl" --breakdown > "$tdir/bkdn.txt"
grep -q "cycles attributed" "$tdir/bkdn.txt"
echo "trace_dump --breakdown renders the attribution table"
# Negative control: inflate the first design's stall component; the
# validator must go red naming the broken partition identity, or the
# conservation rows above prove nothing.
sed '0,/"stall":{"cycles":[0-9]*/s//"stall":{"cycles":99999999/' "$tdir/BKDN.json" \
    > "$tdir/BKDN_forged.json"
if ./target/release/analyze --validate "$tdir/BKDN_forged.json" \
    2> "$tdir/bkdn_forged.txt"; then
    echo "FAIL: analyze --validate passed a forged stall component" >&2
    exit 1
fi
grep -q "components sum to" "$tdir/bkdn_forged.txt"
echo "negative control: inflated stall cycles fail validation naming the identity"

echo "== docs: link/flag/binary existence check =="
# Grep-based drift gate over README.md, DESIGN.md and ARCHITECTURE.md:
# every binary-shaped name, CLI flag and results/ file a doc mentions
# must exist somewhere in the tree (generated results/ files count when
# run_figures.sh produces them), so the docs cannot silently rot as
# binaries and flags are renamed.
docs="README.md DESIGN.md ARCHITECTURE.md"
docfail=0
# Binary-shaped identifiers (fig*/table*/abl_* plus the named tools):
# each must be a bin target, a pinned golden, or a real identifier.
for name in $(grep -ohE '\b(fig|table|abl)[a-z0-9]*_[a-z0-9_]+\b' $docs \
              | sort -u) analyze bench_suite trace_dump ix_fuzz; do
    if ls crates/*/src/bin/"$name".rs > /dev/null 2>&1; then continue; fi
    if [ -e "tests/goldens/$name.csv" ]; then continue; fi
    if grep -rqF "$name" crates/ tests/ ./*.sh; then continue; fi
    echo "FAIL: docs name '$name' but nothing in the tree defines it" >&2
    docfail=1
done
# CLI flags: every --flag a doc names must appear in the source or a
# script (substring match: catches renamed, removed and typo'd flags).
for flag in $(grep -ohE '\-\-[a-z][a-z-]+' $docs | sort -u); do
    if grep -rqF -- "$flag" crates/ ./*.sh; then continue; fi
    echo "FAIL: docs name flag '$flag' but no source or script knows it" >&2
    docfail=1
done
# results/ files: committed, or generated by run_figures.sh.
for f in $(grep -ohE 'results/[A-Za-z0-9_.]+' $docs | sort -u); do
    if [ -e "$f" ]; then continue; fi
    if grep -qF "$(basename "$f")" run_figures.sh; then continue; fi
    echo "FAIL: docs name '$f' but it is neither committed nor generated" >&2
    docfail=1
done
[ "$docfail" -eq 0 ]
echo "doc-link check: every named binary, flag and results/ file exists"

echo "== benchmark package: perfbench tests =="
# perfbench is its own Cargo workspace, so the workspace test run above
# does not reach it. Its tests feed forged reports to the output checks
# (each must be caught), run one seed twice (bit-identical model
# metrics) and check every workload reports exactly the metrics
# BENCHMARK.json lists.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
echo "perfbench tests pass"

echo "== bench smoke: bench_suite schema + regression gate =="
# Runs the microbenchmark suite at ci scale (min-of-3 timing),
# validates the emitted BENCH JSON against the metal-bench-suite/1
# schema, and fails when any metric is both >2x worse AND past its
# absolute noise floor vs the committed baseline (exit 4 = regression,
# exit 3 = schema error). This runner's effective speed swings up to
# ~1.9x between measurement windows (shared 1-vCPU host), so a tripped
# gate gets one retry in a fresh window: red means two independent >2x
# readings. See PERFORMANCE.md for the workflow.
cargo build --release -p metal-bench --bin bench_suite
if ! ./target/release/bench_suite --scale ci \
    --out "$tdir/BENCH_ci_new.json" --compare BENCH_ci.json; then
    echo "bench gate tripped; retrying once in a fresh measurement window..."
    sleep 10
    ./target/release/bench_suite --scale ci \
        --out "$tdir/BENCH_ci_new.json" --compare BENCH_ci.json
fi
echo "bench smoke: schema valid, no regression past ratio + noise floor vs BENCH_ci.json"

echo "== ci.sh: all checks passed =="
