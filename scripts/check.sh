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
bin=$root/target/release
R=$root/results

step() {
    echo "==> $*"
    "$@"
}
# Lints first: they fail in seconds, tests take minutes. Rustdoc is part of
# the contract: most crates carry #![deny(missing_docs)], and none may ship
# a broken intra-doc link.
step cargo fmt --check
step cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" step cargo doc --no-deps --workspace --quiet
if [[ "${1:-}" != --fast ]]; then
    # Built once: every gate below runs a binary under target/release.
    step cargo build --release --workspace --bins --examples
fi
step cargo test --workspace -q
if [[ "${1:-}" == --fast ]]; then
    echo "OK: lints and tests passed"
    exit 0
fi
step cargo bench -q -p asynoc-bench --bench ratios

# Filters a comparison looks through: FILTER FILE -> stdout.
no_shards() { # a metrics document minus the fields that record the shard layout
    sed -e '/"shard_events": \[/,/\]/d' -e '/"shards":/d' "$1"
}
no_end() { # a stream minus its end record, whose counters name the shard split
    sed '$d' "$1"
}
records() { # the records of a trace file (after its meta line) or of a stream's trace lines
    sed -n -e 's/^{"type":"trace","seq":[0-9]*,"record":\(.*\)}$/\1/p' -e t -e '/^{"t_ps":/p' "$1"
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
    local name=$1 steps step w out code
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
}

# One small run per substrate, the two 64-endpoint runs, the oracle's window and fabrics.
mot='--arch BasicHybridSpeculative --benchmark Multicast10 --rate 0.3 --warmup-ns 40 --measure-ns 400'
mesh='--substrate mesh --benchmark Uniform-random --rate 0.1 --size 4 --warmup-ns 40 --measure-ns 400'
vcmesh='--substrate vcmesh --mcast dpm --benchmark Multicast5 --rate 0.1 --size 4 --warmup-ns 40 --measure-ns 400'
big_mot='--arch OptHybridSpeculative --benchmark Multicast5 --rate 0.2 --size 64'
big_mesh='--benchmark Uniform-random --rate 0.1 --cols 8 --rows 8'
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
# sharded == serial, and --profile writes its document without moving stdout
shards 1/2/4 and --profile (mot 64x64) | asynoc run $big_mot --shards 1 > 1 ; asynoc run $big_mot --shards 2 > 2 ;\
 asynoc run $big_mot --shards 4 > 4 ; asynoc run $big_mot --shards 2 --profile p.json > p ;\
 same cat 1 2 4 p ; has p.json "schema": "asynoc-profile-v1"
shards 1/2/4 and --profile (mesh 8x8) | asynoc mesh $big_mesh --shards 1 > 1 ; asynoc mesh $big_mesh --shards 2 > 2 ;\
 asynoc mesh $big_mesh --shards 4 > 4 ; asynoc mesh $big_mesh --shards 2 --profile p.json > p ;\
 same cat 1 2 4 p ; has p.json "schema": "asynoc-profile-v1"
shards 1/2/4 (vcmesh 4x4 metrics) | asynoc metrics $vcmesh --shards 1 --metrics-out 1.json ;\
 asynoc metrics $vcmesh --shards 2 --metrics-out 2.json ;\
 asynoc metrics $vcmesh --shards 4 --metrics-out 4.json ; same no_shards 1.json 2.json 4.json
# clean vs faulted under one seed: the command exits non-zero when the oracle fails, and
# the report it writes is the same on one shard and on two (--shards defaults to 1)
fault oracle, --shards 1 == 2 (mot) | asynoc faults $fmot $pair --shards 1 --report-out 1.json ;\
 asynoc faults $fmot $pair --shards 2 --report-out 2.json ; same cat 1.json 2.json
fault oracle, --shards 1 == 2 (mesh) | asynoc faults $fmesh $pair --shards 1 --report-out 1.json ;\
 asynoc faults $fmesh $pair --shards 2 --report-out 2.json ; same cat 1.json 2.json
fault oracle, --shards 1 == 2 (vcmesh) | asynoc faults $fvcmesh $pair --shards 1 --report-out 1.json ;\
 asynoc faults $fvcmesh $pair --shards 2 --report-out 2.json ; same cat 1.json 2.json
# a plan entry aimed at a channel, source or symbol site the fabric does not have never fires: it is
# refused before any run, not reported as a fault the fabric shrugged off
fault plan outside the fabric is refused | exits 1 asynoc faults $fmot $pair --plan stall:99999:1:10 ; has stderr error: --plan: entry 1
# 900 000 events a twin: the oracle judges from the stream and keeps no trace, so its verdict
# holds however long the run is (it kept 500 000 records once, and was wrong past them)
fault oracle past the old trace cap | asynoc faults --arch OptHybridSpeculative --benchmark Multicast5 --rate 0.2 --plan lose:0:2000 --oracle --measure-ns 60000 --report-out r.json ;\
 has r.json "pass": true
# the built-in guard exits non-zero if OptHybridSpeculative drifts off the Pareto front's envelope
explore guard, --jobs 1 == 2, --shards 1 == 2 | asynoc explore --smoke --jobs 1 --shards 1 > 1 ; asynoc explore --smoke --jobs 2 --shards 1 > 2 ;\
 asynoc explore --smoke --jobs 2 --shards 2 > s ; same cat 1 2 s ; has 1 "schema": "asynoc-explore-v1"
# at 4x4 OptAllSpeculative and OptHybridSpeculative are one map: the guard finds a preset by its map, not its label
explore guard on an aliased preset | asynoc explore --smoke --size 4 --guard OptAllSpeculative > g ; has g "arch": "OptAllSpeculative"
# folded stream == batch document at --shards 1 and 2; the streams agree up to their end record
fold-back (mot) | asynoc metrics $mot --shards 1 --metrics-out b1.json --stream s1.ndjson ;\
 asynoc watch --stream-in s1.ndjson --once --fold f1.json ; same cat b1.json f1.json ;\
 asynoc metrics $mot --shards 2 --metrics-out b2.json --stream s2.ndjson ;\
 asynoc watch --stream-in s2.ndjson --once --fold f2.json ; same cat b2.json f2.json ; same no_end s1.ndjson s2.ndjson
fold-back (mesh) | asynoc metrics $mesh --shards 1 --metrics-out b1.json --stream s1.ndjson ;\
 asynoc watch --stream-in s1.ndjson --once --fold f1.json ; same cat b1.json f1.json ;\
 asynoc metrics $mesh --shards 2 --metrics-out b2.json --stream s2.ndjson ;\
 asynoc watch --stream-in s2.ndjson --once --fold f2.json ; same cat b2.json f2.json ; same no_end s1.ndjson s2.ndjson
fold-back (vcmesh) | asynoc metrics $vcmesh --shards 1 --metrics-out b1.json --stream s1.ndjson ;\
 asynoc watch --stream-in s1.ndjson --once --fold f1.json ; same cat b1.json f1.json ;\
 asynoc metrics $vcmesh --shards 2 --metrics-out b2.json --stream s2.ndjson ;\
 asynoc watch --stream-in s2.ndjson --once --fold f2.json ; same cat b2.json f2.json ; same no_end s1.ndjson s2.ndjson
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

echo "OK: all tier-1 checks passed"
