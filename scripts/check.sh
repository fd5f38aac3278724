#!/usr/bin/env bash
# Tier-1 gate: whether the repository still works. Every gate is
# deterministic except `--bench ratios`, whose three are quotients taken
# inside one process. How *fast* it is, is benchmark/run.sh's to say.
#
#   scripts/check.sh            the full gate
#   scripts/check.sh --fast     lints and debug tests only
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
started=${EPOCHREALTIME/./}
bin=$root/target/release
R=$root/results

# Every step and row prints its wall time when it passes.
took() { # START: prints the wall time since START, a ${EPOCHREALTIME/./} reading
    local us=$((${EPOCHREALTIME/./} - $1))
    printf '    %d.%d s\n' $((us / 1000000)) $((us % 1000000 / 100000))
}
step() {
    echo "==> $*"
    local start=${EPOCHREALTIME/./}
    "$@"
    took "$start"
}
# Lints first: they fail in seconds, tests take minutes. Rustdoc is part of
# the contract: every crate carries #![deny(missing_docs)], and none may ship
# a broken intra-doc link. The mutation table must name lines that exist, and
# each replacement must compile — rechecked where the entry or its package
# changed since its last check (stamps under target/mutants/checked).
step cargo fmt --check
step scripts/mutants.sh --check
step cargo clippy --workspace --all-targets -- -D warnings
# benchmark/ is a workspace of its own over these crates, built by its
# run.sh only if it can be: an API change that breaks it, or that would
# rewrite benchmark/Cargo.lock, fails here instead.
step cargo check --locked --offline --manifest-path benchmark/Cargo.toml --workspace
RUSTDOCFLAGS="-D warnings" step cargo doc --no-deps --workspace --quiet
if [[ "${1:-}" != --fast ]]; then
    # Built once: every gate below runs a binary under target/release.
    step cargo build --release --workspace --bins --examples
fi
step cargo test --workspace -q
if [[ "${1:-}" == --fast ]]; then
    echo "==> total" && took "$started"
    echo "OK: lints and tests passed"
    exit 0
fi
step cargo bench -q -p asynoc-bench --bench ratios

# A filter a comparison looks through: FILTER FILE -> stdout.
records() { # the records of a trace file (after its meta line) or of a stream's trace lines
    sed -n -e 's/^{"type":"trace","seq":[0-9]*,"record":\(.*\)}$/\1/p' -e t -e '/^{"t_ps":/p' "$1"
}

# The first 500 records of a trace, and the events past them: the count a
# capped trace's meta line carries, or what an uncapped trace holds beyond.
capped() {
    local past
    records "$1" | sed -n 1,500p
    past=$(grep -o '"dropped_events":[0-9]*' "$1" | cut -d: -f2)
    [[ $past != 0 ]] || past=$(($(records "$1" | wc -l) - 500))
    echo "past the first 500: $past"
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fail() {
    echo "FAIL [$name] $*"
    exit 1
}
run_bin() { # OUT BIN ARGS..: target/release/BIN (or examples/BIN) must exit 0
    local exe=$bin/$2
    [[ -x $exe ]] || exe=$bin/examples/$2
    "$exe" "${@:3}" >"$1" || fail "exit $?: ${*:2}"
}
# One row: its steps run in order in an empty scratch directory.
#   BIN ARGS [> FILE]       run the binary, stdout to FILE
#   same FILTER A B [C..]   B, C.. equal A, each seen through FILTER (cat: same stdout, same file)
#   has FILE TAG            FILE contains the text TAG
#   exits N BIN ARGS        BIN exits with status N; its stderr is kept in the file stderr
#   reproduces F BIN ARGS   BIN's stdout is results/F, byte for byte
gate() {
    local name=$1 steps step w out code start=${EPOCHREALTIME/./}
    echo "==> $name"
    rm -rf "$tmp/row" && mkdir "$tmp/row" && cd "$tmp/row"
    IFS=';' read -ra steps <<<"$2"
    for step in "${steps[@]}"; do
        read -ra w <<<"$step"
        case ${w[0]} in
        same)
            for out in "${w[@]:3}"; do
                diff <("${w[1]}" "${w[2]}") <("${w[1]}" "$out") ||
                    fail "$out differs from ${w[2]} (both through ${w[1]})"
            done
            ;;
        exits)
            code=0
            "$bin/${w[2]}" "${w[@]:3}" >/dev/null 2>stderr || code=$?
            [[ $code == "${w[1]}" ]] || fail "exit $code, not ${w[1]}: ${w[*]:2}"
            ;;
        has) grep -qF -- "${step#*"${w[1]}" }" "${w[1]}" || fail "${w[1]} lacks ${step#*"${w[1]}" }" ;;
        reproduces)
            run_bin stdout "${w[@]:2}"
            diff "$R/${w[1]}" stdout ||
                fail "results/${w[1]} is stale; if intended: cargo run --release -p asynoc-bench --bin ${w[*]:2} > results/${w[1]}"
            ;;
        *)
            out=/dev/null
            [[ ${#w[@]} -gt 2 && ${w[-2]} == ">" ]] && out=${w[-1]} && w=("${w[@]::${#w[@]}-2}")
            run_bin "$out" "${w[@]}"
            ;;
        esac
    done
    took "$start"
}

# One small run per substrate, the two 64-endpoint runs, the oracle's window and fabrics.
mot='--arch BasicHybridSpeculative --benchmark Multicast10 --rate 0.3 --warmup-ns 40 --measure-ns 400'
mesh='--substrate mesh --benchmark Uniform-random --rate 0.1 --size 4 --warmup-ns 40 --measure-ns 400'
vcmesh='--substrate vcmesh --mcast dpm --benchmark Multicast5 --rate 0.1 --size 4 --warmup-ns 40 --measure-ns 400'
big_mot='--arch OptHybridSpeculative --benchmark Multicast5 --rate 0.2 --size 64'
big_mesh='--benchmark Uniform-random --rate 0.1 --cols 8 --rows 8'
sat='--arch Baseline --benchmark Hotspot --quick --jobs 2'
pair='--warmup-ns 20 --measure-ns 150 --oracle'
fmot='--arch BasicHybridSpeculative --benchmark Multicast5 --rate 0.2'
fmesh='--substrate mesh --benchmark Uniform-random --rate 0.1 --size 4'
fvcmesh='--substrate vcmesh --mcast dpm --benchmark Multicast5 --rate 0.1 --size 4'
traced='--trace-limit 200000'

while IFS='|' read -r name steps <&3; do
    [[ $name == \#* ]] || gate "${name% }" "$steps"
done 3<<EOF
# metrics -> trace -> analyze; the stream's trace lines wrap the very records the trace file holds
trace round-trip (mot) | asynoc metrics $mot $traced --metrics-out m.json --trace-out t.ndjson ;\
 asynoc analyze --trace-in t.ndjson --report-out a.json --top 5 ;\
 asynoc metrics $mot $traced --stream s.ndjson --stream-trace ; same records t.ndjson s.ndjson
trace round-trip (mesh) | asynoc metrics $mesh $traced --metrics-out m.json --trace-out t.ndjson ;\
 asynoc analyze --trace-in t.ndjson --report-out a.json --top 5 ;\
 asynoc metrics $mesh $traced --stream s.ndjson --stream-trace ; same records t.ndjson s.ndjson
trace round-trip (vcmesh) | asynoc metrics $vcmesh $traced --metrics-out m.json --trace-out t.ndjson ;\
 asynoc analyze --trace-in t.ndjson --report-out a.json --top 5 ;\
 asynoc metrics $vcmesh $traced --stream s.ndjson --stream-trace ; same records t.ndjson s.ndjson
# a capped trace learns its count at the end: its meta line is rewritten in place over an intact body
trace round-trip (mot, capped) | asynoc metrics $mot --trace-limit 500 --metrics-out m.json --trace-out t.ndjson ;\
 asynoc analyze --trace-in t.ndjson --report-out a.json --top 5 ;\
 asynoc metrics $mot $traced --trace-out full.ndjson ; same capped t.ndjson full.ndjson
# --profile writes its document without moving stdout
--profile (mot 64x64) | asynoc run $big_mot > 1 ; asynoc run $big_mot --profile p.json > p ;\
 same cat 1 p ; has p.json "schema": "asynoc-profile-v1"
--profile (mesh 8x8) | asynoc mesh $big_mesh > 1 ; asynoc mesh $big_mesh --profile p.json > p ;\
 same cat 1 p ; has p.json "schema": "asynoc-profile-v1"
--profile (saturate --quick) | asynoc saturate $sat > 1 ; asynoc saturate $sat --profile p.json > p ;\
 same cat 1 p ; has p.json "schema": "asynoc-profile-v1"
--profile (faults --oracle) | asynoc faults $fmot $pair > 1 ; asynoc faults $fmot $pair --profile p.json > p ;\
 same cat 1 p ; has p.json "schema": "asynoc-profile-v1"
# every run is one thread; --shards is still accepted (benchmark/ passes it) and changes nothing
--shards is accepted and ignored | asynoc run $big_mot > 1 ; asynoc run $big_mot --shards 4 > 4 ; same cat 1 4
# clean vs faulted under one seed: the command exits non-zero when the oracle fails
fault oracle (mot) | asynoc faults $fmot $pair --report-out 1.json ; has 1.json "pass": true
fault oracle (mesh) | asynoc faults $fmesh $pair --report-out 1.json ; has 1.json "pass": true
fault oracle (vcmesh) | asynoc faults $fvcmesh $pair --report-out 1.json ; has 1.json "pass": true
# a plan entry aimed at a channel, source or symbol site the fabric does not have never fires: it is
# refused before any run, not reported as a fault the fabric shrugged off
fault plan outside the fabric is refused | exits 1 asynoc faults $fmot $pair --plan stall:99999:1:10 ; has stderr error: --plan: entry 1
# a widened route off the sites the fabric recovers it at would deliver a copy twice: refused the same way
widened fault off the recoverable sites is refused | exits 1 asynoc faults --arch OptHybridSpeculative --benchmark Multicast5 --rate 0.2 --plan corrupt:4:1:both --measure-ns 3000 ;\
 has stderr error: --plan: entry 1 "corrupt:4:1:both": a widened route at symbol site 4
# a trace file and a stream are written by their own writer thread, which keeps the first write error
# for the command to report; under --stream - stdout carries the stream alone, the command's output
# goes to stderr
trace writer error reaches the command | exits 1 asynoc metrics $mot $traced --trace-out /dev/full ;\
 has stderr error: --trace-out /dev/full: No space left on device
stream writer error reaches the command | exits 1 asynoc metrics $mot $traced --stream /dev/full --stream-trace ;\
 has stderr error: --stream /dev/full: No space left on device
stream to stdout (mot) | asynoc metrics $mot $traced --metrics-out m.json --stream - --stream-trace > out ;\
 asynoc metrics $mot $traced --metrics-out m.json --stream s.ndjson --stream-trace ; same cat s.ndjson out
run --stream - folds (mot) | asynoc run $mot --stream - > out ; asynoc watch --stream-in out --once --fold f.json
# saturate probes on its own schedule; a window flag it would ignore is a usage error, not a no-op
saturate refuses the window flags | exits 2 asynoc saturate --arch Baseline --benchmark Shuffle --quick --measure-ns 3 ; has stderr error:
# every seed S … S+K−1 of run --seeds must exist and a sweep's ends must be finite: both are usage
# errors, refused before anything reaches stdout
run refuses seeds past the largest u64 | exits 2 asynoc run --arch Baseline --benchmark Shuffle --rate 0.1 --measure-ns 100 --seeds 2 --seed 18446744073709551615 ;\
 has stderr error: --seed 18446744073709551615 and --seeds 2
sweep refuses an infinite --to | exits 2 asynoc sweep --arch Baseline --benchmark Shuffle --from 0.1 --to inf --steps 2 ; has stderr error: --to must be finite
# a rate that is not positive and finite is a usage error, refused before any output file is created
metrics refuses --rate 0 | exits 2 asynoc metrics --arch Baseline --benchmark Shuffle --rate 0 --metrics-out m.json ; has stderr error: --rate 0 must be positive and finite
# 900 000 events a twin: the oracle judges from the stream and keeps no trace, so its verdict
# holds however long the run is (it kept 500 000 records once, and was wrong past them)
fault oracle past the old trace cap | asynoc faults --arch OptHybridSpeculative --benchmark Multicast5 --rate 0.2 --plan lose:0:2000 --oracle --measure-ns 60000 --report-out r.json ;\
 has r.json "pass": true
# the built-in guard exits non-zero if OptHybridSpeculative drifts off the Pareto front's envelope
explore guard, --jobs 1 == 2 | asynoc explore --smoke --jobs 1 > 1 ; asynoc explore --smoke --jobs 2 > 2 ;\
 same cat 1 2 ; has 1 "schema": "asynoc-explore-v1"
# at 4x4 OptAllSpeculative and OptHybridSpeculative are one map: the guard finds a preset by its map, not its label
explore guard on an aliased preset | asynoc explore --smoke --size 4 --guard OptAllSpeculative > g ; has g "arch": "OptAllSpeculative"
# folded stream == batch document
fold-back (mot) | asynoc metrics $mot --metrics-out b.json --stream s.ndjson ;\
 asynoc watch --stream-in s.ndjson --once --fold f.json ; same cat b.json f.json
fold-back (mesh) | asynoc metrics $mesh --metrics-out b.json --stream s.ndjson ;\
 asynoc watch --stream-in s.ndjson --once --fold f.json ; same cat b.json f.json
fold-back (vcmesh) | asynoc metrics $vcmesh --metrics-out b.json --stream s.ndjson ;\
 asynoc watch --stream-in s.ndjson --once --fold f.json ; same cat b.json f.json
# every run closes with copies in flight (the drain stops at the last measured header); that is no
# watchpoint, so --watch-fatal exits 0 on a clean run of every substrate
clean run under --watch-fatal (mot) | asynoc metrics $mot --metrics-out m.json --stream s.ndjson --watch-fatal ; has s.ndjson "watchpoints":0
clean run under --watch-fatal (mesh) | asynoc metrics $mesh --metrics-out m.json --stream s.ndjson --watch-fatal ; has s.ndjson "watchpoints":0
clean run under --watch-fatal (vcmesh) | asynoc metrics $vcmesh --metrics-out m.json --stream s.ndjson --watch-fatal ; has s.ndjson "watchpoints":0
# every file under results/ is what its generator writes today (paper quality, seed 42)
results/metrics_schema.golden.json | reproduces metrics_schema.golden.json schema metrics
results/analysis_schema.golden.json | reproduces analysis_schema.golden.json schema analysis
results/faults_schema.golden.json | reproduces faults_schema.golden.json schema faults
results/profile_schema.golden.json | reproduces profile_schema.golden.json schema profile
results/explore_schema.golden.json | reproduces explore_schema.golden.json schema explore
results/node_results.txt | reproduces node_results.txt node_results
results/addressing.txt | reproduces addressing.txt addressing
results/fig3_architectures.txt | reproduces fig3_architectures.txt fig3_architectures
results/fig4_routing.txt | reproduces fig4_routing.txt fig4_routing
results/packet_trace.txt | reproduces packet_trace.txt packet_trace
results/table1_throughput.txt | reproduces table1_throughput.txt table1_throughput
results/table1_power.txt | reproduces table1_power.txt table1_power
results/fig6a_latency.txt | reproduces fig6a_latency.txt fig6a_latency
results/fig6b_latency.txt | reproduces fig6b_latency.txt fig6b_latency
results/ablation.txt | reproduces ablation.txt ablation
results/patterns.txt | reproduces patterns.txt patterns
results/scaling.txt | reproduces scaling.txt scaling
results/mot_vs_mesh.txt | reproduces mot_vs_mesh.txt mot_vs_mesh
results/speculative_fork.vcd | gate_level ; same cat $R/speculative_fork.vcd results/speculative_fork.vcd
EOF

echo "==> total" && took "$started"
echo "OK: all tier-1 checks passed"
