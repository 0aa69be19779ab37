# Development shortcuts. `just smoke` is the CI gate — run it before
# pushing; it must pass with zero warnings.

# Build, test, and lint exactly as CI does.
smoke:
    cargo build --release --offline --workspace
    cargo test -q --offline --workspace
    cargo clippy --offline --workspace --all-targets -- -D warnings

# Tiny traced end-to-end experiment: prints the per-phase breakdown,
# task Gantt, straggler stats, and shuffle matrix; appends a record to
# BENCH_smoke.json (plus smoke_trace.jsonl). Fails if any of the six
# phase timings is missing.
bench-smoke:
    cargo run --release --offline -p gesall-bench --bin experiments -- smoke .

# Kernel microbenches: each bit-parallel map-phase kernel (packed rank,
# banded SW, radix spill sort) timed against its scalar twin; appends a
# record to BENCH_micro.json next to bench-smoke's.
bench-micro:
    cargo run --release --offline -p gesall-microbench -- .

# The BENCHMARK.json benchmark: every workload once at `seed`, 20 s
# each. The last stdout line of each run is its JSON result; per-run
# progress goes to stderr.
bench-perf seed:
    for w in cold-hc rerun-ug tenants-2; do \
        cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload $w --seed {{seed}} --seconds 20 --trace 0; \
    done

# Fast inner-loop check.
check:
    cargo check --offline --workspace --all-targets

# Full test run with output on failure.
test:
    cargo test --offline --workspace

# Lint only.
lint:
    cargo clippy --offline --workspace --all-targets -- -D warnings

# Format (requires rustfmt).
fmt:
    cargo fmt --all
