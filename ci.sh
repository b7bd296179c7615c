#!/usr/bin/env sh
# Repo gate: formatting and lints (the workspace and perfbench), rustdoc
# with warnings denied, the full test suite, then twelve smoke steps: the
# tracked BENCH_scale.json / BENCH_stale.json gates; reduced runs of the
# bench_scale, fig4, adversarial and stale binaries; both netd playground
# tours; the obs, adversarial, daemon-core, wire fast-lane and
# serve-stale integration suites; and perfbench's self-tests.
#
#   ./ci.sh            # everything (a few minutes)
#   ./ci.sh smoke      # the twelve smoke steps only
set -eu

smoke() {
    echo "== tracked BENCH files present and gated =="
    # The perf trajectory is tracked in-repo; a missing file means a bench
    # was added without committing its baseline (or one was deleted).
    for f in BENCH_scale.json BENCH_stale.json; do
        test -s "$f" || { echo "tracked bench file missing: $f" >&2; exit 1; }
    done
    # Scale-axis gates on the tracked full run: every schema field
    # present, replay memory bounded at 100k zones, and RSS flat when the
    # query count grows 10x at 1M zones (the trace is never materialized).
    for field in bench schema_version queries_per_scale \
        zones_10k zones_100k zones_1m \
        arena_bytes_10k arena_bytes_100k arena_bytes_1m \
        interned_names_1m heap_bytes_1m build_secs_1m \
        gen_qps_10k gen_qps_100k gen_qps_1m \
        gen_allocs_per_query_1m \
        peak_rss_kb_10k peak_rss_kb_100k peak_rss_kb_1m \
        rss_growth_kb_10x_queries sweep_queries sweep_wall_secs \
        sweep_peak_rss_kb; do
        grep -q "\"$field\"" BENCH_scale.json \
            || { echo "BENCH_scale.json missing field: $field" >&2; exit 1; }
    done
    awk -F': *' '/"peak_rss_kb_100k"/ { v = $2 + 0 }
        END { if (v <= 0 || v >= 120000) {
            print "BENCH_scale.json: peak_rss_kb_100k out of budget (" v " KiB, budget 120000)" > "/dev/stderr"; exit 1 } }' \
        BENCH_scale.json
    awk -F': *' '/"rss_growth_kb_10x_queries"/ { v = $2 + 0 }
        END { if (v >= 20000) {
            print "BENCH_scale.json: streaming 10x queries grew RSS by " v " KiB (gate 20000)" > "/dev/stderr"; exit 1 } }' \
        BENCH_scale.json
    # Serve-stale gates on the tracked full run: the stale path must fire
    # (and only when enabled), and it must actually cut the blackout
    # failure fraction vs vanilla.
    for field in bench schema_version scale vanilla_sr_failed_pct \
        stale_sr_failed_pct vanilla_stale_served stale_served \
        stale_expired_unserved refresh_ahead prefetch_issued \
        prefetch_hits prefetch_wasted stale_msg_overhead_pct \
        torture_legit_failed_pct_vanilla torture_legit_failed_pct_stale; do
        grep -q "\"$field\"" BENCH_stale.json \
            || { echo "BENCH_stale.json missing field: $field" >&2; exit 1; }
    done
    awk -F': *' '/"vanilla_stale_served"/ { v = $2 + 0 }
        END { if (v != 0) {
            print "BENCH_stale.json: stale counters fired in a vanilla scheme (" v ")" > "/dev/stderr"; exit 1 } }' \
        BENCH_stale.json
    awk -F': *' '/"stale_served"/ && !/vanilla/ { v = $2 + 0 }
        END { if (v <= 0) {
            print "BENCH_stale.json: serve-stale scheme never served stale" > "/dev/stderr"; exit 1 } }' \
        BENCH_stale.json
    awk -F': *' '/"vanilla_sr_failed_pct"/ { van = $2 + 0 }
        /"stale_sr_failed_pct"/ { st = $2 + 0 }
        END { if (!(st < van)) {
            print "BENCH_stale.json: serve-stale did not cut blackout failures (" st " vs " van ")" > "/dev/stderr"; exit 1 } }' \
        BENCH_stale.json

    echo "== smoke: bench_scale --smoke (streamed scale sweep) =="
    # Reduced zone counts (1k/10k/50k), same code path: interned
    # namespace build, streamed generation, the 10x-queries RSS probe and
    # an end-to-end streamed attack sweep.
    scale_out=$(mktemp -d)
    DNS_BENCH_OUT="$scale_out/scale.json" \
        cargo run --release -p dns-bench --bin bench_scale --offline -- --smoke
    test -s "$scale_out/scale.json" || { echo "missing scale.json" >&2; exit 1; }
    for field in zones_1k zones_10k zones_50k gen_qps_50k \
        peak_rss_kb_50k rss_growth_kb_10x_queries sweep_queries \
        sweep_peak_rss_kb; do
        grep -q "\"$field\"" "$scale_out/scale.json" \
            || { echo "scale.json missing field: $field" >&2; exit 1; }
    done
    awk -F': *' '/"gen_qps_50k"/ { v = $2 + 0 }
        END { if (v <= 0) { print "scale.json: gen_qps_50k not positive" > "/dev/stderr"; exit 1 } }' \
        "$scale_out/scale.json"
    rm -rf "$scale_out"

    echo "== smoke: fig4 on a tiny trace =="
    out=$(mktemp -d)
    DNS_REPRO_SCALE=0.05 DNS_REPRO_OUT="$out" \
        cargo run --release -p dns-bench --bin fig4 --offline
    for f in fig4_sr fig4_cs run_manifest; do
        test -s "$out/$f.csv" || { echo "missing $out/$f.csv" >&2; exit 1; }
    done
    rm -rf "$out"

    echo "== smoke: netd playground under 10% injected loss =="
    # Boots the loopback internet, resolves through the retry policy with
    # deterministic 10% packet loss, then through a root/TLD blackout;
    # the binary exits non-zero if any scripted resolution deviates. All
    # traffic rides the batched PacketIo worker loop, and the script
    # asserts a repeat hot query is served by the wire fast lane. The
    # --trace flag exercises the per-query explain path, and the script
    # ends by fetching the CHAOS TXT metrics snapshot over the wire.
    DNS_PLAYGROUND_LOSS=0.1 DNS_PLAYGROUND_SEED=7 \
        cargo run --release -p dns-netd --bin dns-playground --offline -- --trace

    echo "== smoke: netd playground, worker pool =="
    # The same scripted tour resolved by 4 workers, each with its own
    # resolver over one 4-shard cache with single-flight coalescing — the
    # concurrent resolver core on real sockets. --trace fails the run if
    # any resolved dig is explained by another query's trace.
    cargo run --release -p dns-netd --bin dns-playground --offline -- --shards 4 --trace

    echo "== smoke: observability exposition =="
    # The live exposition integration test: worker pool on loopback,
    # queries including a blackout-induced SERVFAIL, the CHAOS TXT
    # snapshot reconciled against the daemon's own counters, and the
    # Prometheus text rendering validated by the dns-obs checker.
    cargo test --release -q --offline -p dns-netd --test obs

    echo "== smoke: adversarial survival gates (NXNS + water torture) =="
    # One NXNS delegation-bomb sweep and one water-torture sweep, each
    # against an undefended and a MaxFetch(2)+negcap hardened resolver:
    # asserts the undefended resolver shows real amplification (> 5x),
    # MaxFetch(2) cuts it at least 5x with legitimate failures within
    # 1pp of the attack-free baseline, the negative-cache budget holds
    # under flood without evicting positives, and the sweep is
    # thread-count independent.
    cargo test --release -q --offline -p dns-sim --test adversarial

    echo "== smoke: adversarial head-to-head binary on a tiny trace =="
    adv_out=$(mktemp -d)
    DNS_REPRO_SCALE=0.05 DNS_REPRO_OUT="$adv_out" \
        cargo run --release -p dns-bench --bin adversarial --offline
    for f in adversarial run_manifest; do
        test -s "$adv_out/$f.csv" || { echo "missing $adv_out/$f.csv" >&2; exit 1; }
    done
    # The manifest rows carry the defense counters.
    head -1 "$adv_out/run_manifest.csv" | grep -q "fetches_clamped" \
        || { echo "run_manifest.csv missing defense columns" >&2; exit 1; }
    rm -rf "$adv_out"

    echo "== smoke: daemon core and wire fast lane =="
    # The daemon's serving core stepped single-threaded in virtual time:
    # seeded bursts of valid, mutated, random, CHAOS and response
    # datagrams over a simulated internet blacked out mid-run, one reply
    # per decodable query and byte-identical replays per seed. Then the
    # fast-lane suite: casing echo + wire-cache hits over real UDP,
    # OPT-bearing queries answered with the OPT stripped, and a burst
    # served by a stepped core under fault injection (blackout answered
    # from compiled bytes).
    cargo test --release -q --offline --test daemon_core
    cargo test --release -q --offline -p dns-netd --test wire_fast_lane

    echo "== smoke: serve-stale head-to-head on a tiny trace =="
    # The stale binary at reduced scale: blackout grid, overhead replay
    # and the water-torture cross-check, plus the fresh JSON re-passing
    # the same gates as the tracked baseline (stale fires only when
    # enabled, and cuts the blackout failure fraction).
    stale_out=$(mktemp -d)
    DNS_REPRO_SCALE=0.05 DNS_REPRO_OUT="$stale_out" \
        DNS_BENCH_OUT="$stale_out/stale.json" \
        cargo run --release -p dns-bench --bin stale --offline
    for f in stale_failure stale_overhead stale_adversarial run_manifest; do
        test -s "$stale_out/$f.csv" || { echo "missing $stale_out/$f.csv" >&2; exit 1; }
    done
    # The manifest rows carry the serve-stale counters.
    head -1 "$stale_out/run_manifest.csv" | grep -q "stale_served" \
        || { echo "run_manifest.csv missing stale columns" >&2; exit 1; }
    awk -F': *' '/"vanilla_stale_served"/ { v = $2 + 0 }
        END { if (v != 0) {
            print "stale.json: stale counters fired in a vanilla scheme" > "/dev/stderr"; exit 1 } }' \
        "$stale_out/stale.json"
    awk -F': *' '/"stale_served"/ && !/vanilla/ { v = $2 + 0 }
        END { if (v <= 0) {
            print "stale.json: serve-stale scheme never served stale" > "/dev/stderr"; exit 1 } }' \
        "$stale_out/stale.json"
    awk -F': *' '/"vanilla_sr_failed_pct"/ { van = $2 + 0 }
        /"stale_sr_failed_pct"/ { st = $2 + 0 }
        END { if (!(st < van)) {
            print "stale.json: serve-stale did not cut blackout failures" > "/dev/stderr"; exit 1 } }' \
        "$stale_out/stale.json"
    rm -rf "$stale_out"

    echo "== smoke: serve-stale suites (props, golden transcript, live) =="
    # Property laws (window boundary, TTL clamp, stale-off step-identity),
    # the pinned serve-stale trace transcript, and the live suite: wire
    # fast lane vs stale slow path byte-equivalence plus the loopback
    # water-torture flood with CHAOS/Prometheus reconciliation, both on a
    # stepped daemon core.
    cargo test --release -q --offline -p dns-resolver --test stale_props
    cargo test --release -q --offline --test stale_golden
    cargo test --release -q --offline -p dns-netd --test stale_live

    echo "== smoke: repository benchmark self-tests =="
    # perfbench is a package of its own that builds against the crates'
    # public counter structs (ResolverMetrics, DaemonStats); its tests
    # include a smoke run of every workload.
    cargo test --release --offline --manifest-path perfbench/Cargo.toml

    echo "smoke OK"
}

if [ "${1:-}" = "smoke" ]; then
    smoke
    exit 0
fi

echo "== cargo fmt --check =="
cargo fmt --check
# perfbench is a cargo workspace of its own, outside the one above.
cargo fmt --check --manifest-path perfbench/Cargo.toml

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets --offline -- -D warnings
cargo clippy --offline --all-targets --manifest-path perfbench/Cargo.toml -- -D warnings

echo "== cargo doc -D warnings =="
# A dangling or redundant intra-doc link fails the gate, so docs cannot
# keep pointing at deleted items.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== clippy lock hygiene (resolver concurrency core) =="
# The shard/inflight code must never hold a lock across an await-like
# suspension or wrap lock-free-able state in a mutex; gate the resolver
# crate on clippy's lock-hygiene lints specifically.
cargo clippy -p dns-resolver --all-targets --offline -- -D warnings \
    -D clippy::await_holding_lock \
    -D clippy::mutex_atomic

echo "== cargo test =="
# --workspace: the root package alone would skip every crate's own tests.
cargo test --workspace -q --offline

smoke
