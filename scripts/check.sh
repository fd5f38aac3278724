#!/usr/bin/env bash
# Tier-1 gate: everything that must be green before a commit lands.
#
#   scripts/check.sh            run the full gate
#   scripts/check.sh --fast     skip the release build, benches, the
#                               analyze round-trips, and schema diffs
#                               (debug test cycle)
#   scripts/check.sh --smoke    run only the guarded benches, recording
#                               results/BENCH_*.json (seeded on first
#                               run; a >20% ns/event regression fails
#                               with a per-case diff) and folding them
#                               into results/BENCH_summary.json
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
smoke=0
case "${1:-}" in
--fast) fast=1 ;;
--smoke) smoke=1 ;;
esac

# Bench binaries run with the package directory as CWD, so hand them
# absolute record paths.
run_benches() {
    echo "==> observer-overhead bench (smoke, baseline-guarded)"
    cargo bench -q -p asynoc-bench --bench observer_overhead -- --smoke \
        --json "$PWD/results/BENCH_observer_overhead.json"
    echo "==> analyze bench (smoke, baseline-guarded)"
    cargo bench -q -p asynoc-bench --bench analyze -- --smoke \
        --json "$PWD/results/BENCH_analyze.json"
    echo "==> faults bench (smoke, baseline-guarded: disarmed hooks stay free)"
    cargo bench -q -p asynoc-bench --bench faults -- --smoke \
        --json "$PWD/results/BENCH_faults.json"
    echo "==> scheduler bench (smoke, baseline-guarded: calendar queue >= 1.3x its heap reference at depth 4096)"
    cargo bench -q -p asynoc-bench --bench scheduler -- --smoke \
        --json "$PWD/results/BENCH_scheduler.json"
    echo "==> sharded bench (smoke, baseline-guarded; speedup gate arms at >= 4 threads)"
    cargo bench -q -p asynoc-bench --bench sharded -- --smoke \
        --json "$PWD/results/BENCH_sharded.json"
    echo "==> vcmesh bench (smoke, baseline-guarded: credit-loop per-event cost)"
    cargo bench -q -p asynoc-bench --bench vcmesh -- --smoke \
        --json "$PWD/results/BENCH_vcmesh.json"
    echo "==> explore bench (smoke, baseline-guarded: scoring layer stays thin)"
    cargo bench -q -p asynoc-bench --bench explore -- --smoke \
        --json "$PWD/results/BENCH_explore.json"
    echo "==> folding bench records into results/BENCH_summary.json"
    scripts/bench_summary
}

if [[ "$smoke" -eq 1 ]]; then
    run_benches
    echo "OK: bench smoke passed"
    exit 0
fi

# Lints first: they fail in seconds, tests take minutes.
echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

# Rustdoc is part of the contract: probe, kernel, engine, topology,
# telemetry, analysis and faults carry #![deny(missing_docs)], and no
# crate may ship broken intra-doc links.
echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

if [[ "$fast" -eq 0 ]]; then
    echo "==> cargo build --release"
    cargo build --release
fi

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

if [[ "$fast" -eq 0 ]]; then
    run_benches

    tmpdir="$(mktemp -d)"
    trap 'rm -rf "$tmpdir"' EXIT
    # One small run per substrate, shared by the round-trips here and the
    # fold-back gate below.
    sub_args_for() {
        case "$1" in
        mot)
            sub_args=(--arch BasicHybridSpeculative --benchmark Multicast10 --rate 0.3)
            ;;
        mesh)
            sub_args=(--substrate mesh --benchmark Uniform-random --rate 0.1 --size 4)
            ;;
        vcmesh)
            sub_args=(--substrate vcmesh --mcast dpm --benchmark Multicast5 --rate 0.1 --size 4)
            ;;
        esac
    }
    for sub in mot mesh vcmesh; do
        echo "==> metrics -> trace -> analyze round-trip ($sub)"
        sub_args_for "$sub"
        cargo run -q --release -p asynoc-cli -- metrics "${sub_args[@]}" \
            --warmup-ns 40 --measure-ns 400 --trace-limit 200000 \
            --metrics-out "$tmpdir/$sub-metrics.json" --trace-out "$tmpdir/$sub-trace.ndjson"
        cargo run -q --release -p asynoc-cli -- analyze --trace-in "$tmpdir/$sub-trace.ndjson" \
            --report-out "$tmpdir/$sub-analysis.json" --top 5
        # The other record sink, same seed: a stream's `trace` lines wrap
        # the very records the trace file holds after its meta line.
        cargo run -q --release -p asynoc-cli -- metrics "${sub_args[@]}" \
            --warmup-ns 40 --measure-ns 400 --trace-limit 200000 \
            --stream "$tmpdir/$sub-traced.ndjson" --stream-trace >/dev/null
        cmp <(sed -n 's/^{"type":"trace","seq":[0-9]*,"record":\(.*\)}$/\1/p' "$tmpdir/$sub-traced.ndjson") \
            <(tail -n +2 "$tmpdir/$sub-trace.ndjson") || {
            echo "$sub: --stream-trace and --trace-out disagree on a record"
            exit 1
        }
    done

    echo "==> sharded vs serial differential (mot, 64x64): --shards 1/2/4 must agree byte-for-byte"
    cargo run -q --release -p asynoc-cli -- run --arch OptHybridSpeculative \
        --benchmark Multicast5 --rate 0.2 --size 64 --shards 1 >"$tmpdir/mot-serial.txt"
    for s in 2 4; do
        cargo run -q --release -p asynoc-cli -- run --arch OptHybridSpeculative \
            --benchmark Multicast5 --rate 0.2 --size 64 --shards "$s" >"$tmpdir/mot-sharded.txt"
        diff "$tmpdir/mot-serial.txt" "$tmpdir/mot-sharded.txt" || {
            echo "64x64 MoT report diverged at --shards $s"
            exit 1
        }
    done

    echo "==> sharded vs serial differential (mesh, 8x8): --shards 1/2/4 must agree byte-for-byte"
    cargo run -q --release -p asynoc-cli -- mesh --benchmark Uniform-random \
        --rate 0.1 --cols 8 --rows 8 --shards 1 >"$tmpdir/mesh-serial.txt"
    for s in 2 4; do
        cargo run -q --release -p asynoc-cli -- mesh --benchmark Uniform-random \
            --rate 0.1 --cols 8 --rows 8 --shards "$s" >"$tmpdir/mesh-sharded.txt"
        diff "$tmpdir/mesh-serial.txt" "$tmpdir/mesh-sharded.txt" || {
            echo "8x8 mesh report diverged at --shards $s"
            exit 1
        }
    done

    echo "==> sharded vs serial differential (vcmesh, 4x4): metrics at --shards 1/2/4 must agree"
    # The metrics document's counters section records the shard layout
    # itself (shards, shard_events), so the comparison drops exactly
    # those fields; every other byte must match.
    strip_shard_layout() {
        sed -e '/"shard_events": \[/,/\]/d' -e '/"shards":/d' "$1"
    }
    cargo run -q --release -p asynoc-cli -- metrics --substrate vcmesh --mcast dpm \
        --benchmark Multicast5 --rate 0.1 --size 4 --warmup-ns 40 --measure-ns 400 \
        --shards 1 --metrics-out "$tmpdir/vcmesh-serial.json" >/dev/null
    for s in 2 4; do
        cargo run -q --release -p asynoc-cli -- metrics --substrate vcmesh --mcast dpm \
            --benchmark Multicast5 --rate 0.1 --size 4 --warmup-ns 40 --measure-ns 400 \
            --shards "$s" --metrics-out "$tmpdir/vcmesh-sharded.json" >/dev/null
        diff <(strip_shard_layout "$tmpdir/vcmesh-serial.json") \
            <(strip_shard_layout "$tmpdir/vcmesh-sharded.json") || {
            echo "4x4 VC mesh metrics diverged at --shards $s"
            exit 1
        }
    done

    echo "==> profiled sharded round-trip (mot): --profile writes the document, stdout unmoved"
    cargo run -q --release -p asynoc-cli -- run --arch OptHybridSpeculative \
        --benchmark Multicast5 --rate 0.2 --size 64 --shards 2 \
        --profile "$tmpdir/mot-profile.json" >"$tmpdir/mot-profiled.txt"
    diff "$tmpdir/mot-serial.txt" "$tmpdir/mot-profiled.txt" || {
        echo "--profile changed the 64x64 MoT report"
        exit 1
    }
    grep -q '"schema": "asynoc-profile-v1"' "$tmpdir/mot-profile.json" || {
        echo "MoT profile document is missing the asynoc-profile-v1 tag"
        exit 1
    }

    echo "==> profiled sharded round-trip (mesh): --profile writes the document, stdout unmoved"
    cargo run -q --release -p asynoc-cli -- mesh --benchmark Uniform-random \
        --rate 0.1 --cols 8 --rows 8 --shards 2 \
        --profile "$tmpdir/mesh-profile.json" >"$tmpdir/mesh-profiled.txt"
    diff "$tmpdir/mesh-serial.txt" "$tmpdir/mesh-profiled.txt" || {
        echo "--profile changed the 8x8 mesh report"
        exit 1
    }
    grep -q '"schema": "asynoc-profile-v1"' "$tmpdir/mesh-profile.json" || {
        echo "mesh profile document is missing the asynoc-profile-v1 tag"
        exit 1
    }

    echo "==> fault oracle round-trip (mot): clean vs faulted under one seed"
    cargo run -q --release -p asynoc-cli -- faults --arch BasicHybridSpeculative \
        --benchmark Multicast5 --rate 0.2 --warmup-ns 20 --measure-ns 150 \
        --oracle --report-out "$tmpdir/mot-faults.json"

    echo "==> fault oracle round-trip (mesh): clean vs faulted under one seed"
    cargo run -q --release -p asynoc-cli -- faults --substrate mesh \
        --benchmark Uniform-random --rate 0.1 --size 4 --warmup-ns 20 --measure-ns 150 \
        --oracle --report-out "$tmpdir/mesh-faults.json"

    echo "==> fault oracle round-trip (vcmesh): clean vs faulted under one seed"
    cargo run -q --release -p asynoc-cli -- faults --substrate vcmesh --mcast dpm \
        --benchmark Multicast5 --rate 0.1 --size 4 --warmup-ns 20 --measure-ns 150 \
        --oracle --report-out "$tmpdir/vcmesh-faults.json"

    echo "==> explore smoke + regression guard (8x8): OptHybridSpeculative must sit on the front"
    # The command's built-in guard exits non-zero if the preset drifts
    # off the tolerance envelope of the Pareto front.
    cargo run -q --release -p asynoc-cli -- explore --smoke --jobs 1 \
        >"$tmpdir/explore-j1.json"
    grep -q '"schema": "asynoc-explore-v1"' "$tmpdir/explore-j1.json" || {
        echo "exploration report is missing the asynoc-explore-v1 tag"
        exit 1
    }

    echo "==> explore jobs differential: --jobs 1 vs --jobs 2 must agree byte-for-byte"
    cargo run -q --release -p asynoc-cli -- explore --smoke --jobs 2 \
        >"$tmpdir/explore-j2.json"
    diff "$tmpdir/explore-j1.json" "$tmpdir/explore-j2.json" || {
        echo "8x8 exploration report diverged between --jobs 1 and 2"
        exit 1
    }

    for name in metrics analysis faults profile explore; do
        echo "==> $name schema vs results/${name}_schema.golden.json"
        diff "results/${name}_schema.golden.json" \
            <(cargo run -q --release -p asynoc-bench --bin schema "$name") \
            || {
                echo "$name schema drifted; if intentional, regenerate with"
                echo "  cargo run --release -p asynoc-bench --bin schema $name > results/${name}_schema.golden.json"
                exit 1
            }
    done

    echo "==> stream fold-back gate: folded stream == batch metrics, byte for byte (all substrates, shards 1/2)"
    for sub in mot mesh vcmesh; do
        sub_args_for "$sub"
        for s in 1 2; do
            cargo run -q --release -p asynoc-cli -- metrics "${sub_args[@]}" \
                --warmup-ns 40 --measure-ns 400 --shards "$s" \
                --metrics-out "$tmpdir/$sub-s$s-batch.json" \
                --stream "$tmpdir/$sub-s$s-stream.ndjson" >/dev/null
            cargo run -q --release -p asynoc-cli -- watch \
                --stream-in "$tmpdir/$sub-s$s-stream.ndjson" --once \
                --fold "$tmpdir/$sub-s$s-folded.json" >/dev/null
            diff "$tmpdir/$sub-s$s-batch.json" "$tmpdir/$sub-s$s-folded.json" || {
                echo "folded $sub stream diverged from the batch document at --shards $s"
                exit 1
            }
        done
        # Everything before the end record (whose counters section names
        # the shard split) must be byte-identical across shard counts.
        diff <(sed '$d' "$tmpdir/$sub-s1-stream.ndjson") \
            <(sed '$d' "$tmpdir/$sub-s2-stream.ndjson") || {
            echo "$sub stream records diverged between --shards 1 and 2"
            exit 1
        }
    done

    echo "==> bounded-memory gate: streamed peak heap independent of run length"
    cargo run -q --release -p asynoc-bench --bin memcheck
fi

echo "OK: all tier-1 checks passed"
