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

# Microbenches: each bit-parallel aligner kernel (packed rank, banded
# SW) timed against its scalar twin, plus every compressed shuffle codec
# on datagen reads; appends a record to BENCH_micro.json next to
# bench-smoke's.
bench-micro:
    cargo run --release --offline -p gesall-bench --bin experiments -- micro .

# The BENCHMARK.json benchmark: every workload once at `seed`, 20 s
# each. The last stdout line of each run is its JSON result; per-run
# progress goes to stderr.
bench-perf seed:
    for w in cold-hc rerun-ug tenants-2; do \
        cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload $w --seed {{seed}} --seconds 20 --trace 0; \
    done

# Output byte identity: generate a dataset from `seed`, run the
# HaplotypeCaller pipeline over it and the serial HaplotypeCaller over the
# pipeline's BAM, then print the SHA-256 of the BAM and both VCFs. Run at
# two commits and compare the digests. Files go to target/golden/<seed>.
golden seed:
    #!/usr/bin/env bash
    set -euo pipefail
    cargo build --release --offline -q --bin gesall-cli
    cli=target/release/gesall-cli
    d=target/golden/{{seed}}
    rm -rf "$d"
    $cli generate --out-dir "$d/data" --pairs 8000 --chrom-len 200000,100000 --seed {{seed}} > /dev/null
    $cli pipeline --reference "$d/data/reference.fa" --r1 "$d/data/reads_1.fastq" \
        --r2 "$d/data/reads_2.fastq" --out-dir "$d/pipeline" --caller hc > /dev/null
    $cli call --reference "$d/data/reference.fa" --bam "$d/pipeline/aligned.sorted.bam" \
        --out "$d/call.vcf" --caller hc > /dev/null
    cd "$d" && sha256sum pipeline/aligned.sorted.bam pipeline/variants.vcf call.vcf

# Flake hunt: bench-smoke `n` times and the workspace tests `m` times,
# then the failure count per target (and each failed test's name); exits
# non-zero if any run failed. Slow — not part of CI.
soak n="50" m="20":
    #!/usr/bin/env bash
    set -u
    log=$(mktemp)
    mkdir -p target/soak
    cargo build --release --offline -q -p gesall-bench --bin experiments || exit 1
    cargo test --offline --workspace --no-run -q || exit 1
    smoke_failed=0
    for i in $(seq 1 {{n}}); do
        if ! cargo run --release --offline -q -p gesall-bench --bin experiments -- smoke target/soak > "$log" 2>&1; then
            smoke_failed=$((smoke_failed + 1))
            echo "bench-smoke run $i: $(grep -m1 'FAILED' "$log")"
        fi
    done
    tests_failed=0
    for i in $(seq 1 {{m}}); do
        if ! cargo test -q --offline --workspace --no-fail-fast > "$log" 2>&1; then
            tests_failed=$((tests_failed + 1))
            echo "workspace tests run $i: $(grep -- '--- FAILED' "$log" | tr '\n' ' ')"
        fi
    done
    rm -f "$log"
    echo "bench-smoke: $smoke_failed of {{n}} runs failed"
    echo "workspace tests: $tests_failed of {{m}} runs failed"
    [ $((smoke_failed + tests_failed)) -eq 0 ]

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
