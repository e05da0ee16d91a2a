#!/usr/bin/env bash
# Repo lint gate: formatting + clippy with warnings denied + full tests.
# CI and pre-commit entry point; keep it identical to what reviewers run.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings

# The benchmark package is a workspace of its own, so nothing above
# compiles it. Build and test it here: narrowing a `pub` item it imports
# must fail this gate, not the next benchmark run.
cargo build --release --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml
cargo test --release --offline -q --manifest-path crates/bench/src/bin/benchmark/Cargo.toml

# Rustdoc stays warning-free: no broken, private or ambiguous intra-doc
# links in the published API docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Degradation-hardened solver modules must stay unwrap-free outside their
# test blocks: a reintroduced unwrap() reopens the panic paths the fault
# harness exists to close.
hardened=(
    crates/stats/src/kmm.rs
    crates/stats/src/ocsvm.rs
    crates/stats/src/qp/smo.rs
    crates/stats/src/gram.rs
    crates/linalg/src/lu.rs
    crates/linalg/src/qr.rs
    crates/linalg/src/eigen.rs
    crates/linalg/src/vecops.rs
)
if ! awk '
    FNR == 1 { in_tests = 0 }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && (/\.unwrap\(\)/ || /\.expect\(/) {
        found = 1
        print FILENAME ":" FNR ": " $0
    }
    END { exit found }
' "${hardened[@]}"; then
    echo "error: unwrap()/expect() in a hardened hot-path module (use typed errors)" >&2
    exit 1
fi

# Bench binaries are user-facing tools: a bad config or failed fit must
# surface as one readable error line and a nonzero exit code, never a
# panic backtrace. Return errors from run()/main, or use
# sidefp_bench::or_die inside timing closures where ? cannot propagate.
if ! awk '
    FNR == 1 { in_tests = 0 }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && (/\.unwrap\(\)/ || /\.expect\(/) {
        found = 1
        print FILENAME ":" FNR ": " $0
    }
    END { exit found }
' crates/bench/src/bin/*.rs; then
    echo "error: unwrap()/expect() in a bench binary (return an error or use sidefp_bench::or_die)" >&2
    exit 1
fi

# Fit/score split: the scoring engine must never reach back into a
# fit-only stage. A scoring path that refits (or re-runs the experiment)
# silently destroys the fit-once amortization the artifact exists for.
if ! awk '
    FNR == 1 { in_tests = 0 }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    /^[[:space:]]*\/\// { next }  # doc examples may show the fit half
    !in_tests && (/PremanufacturingStage/ || /SiliconStage/ || /PaperExperiment/ || /::fit\(/) {
        found = 1
        print FILENAME ":" FNR ": " $0
    }
    END { exit found }
' crates/core/src/score.rs; then
    echo "error: scoring entry point references a fit-only stage (refitting at score time is forbidden)" >&2
    exit 1
fi

# Populations are scored against a boundary through one path,
# `TrustedBoundary::decision_rows_into`: a standardized block through the
# fused packed-GEMM expansion on every worker. A per-row `.decision(` or
# `.classify(` loop falls back to one worker and one allocation per row,
# so outside boundary.rs (which defines them) the core crate may not call
# them outside tests. The strict per-device `score_into` keeps
# `decision_into`, which this does not match.
mapfile -t core_sources < <(find crates/core/src -name '*.rs' ! -name boundary.rs | sort)
if ! awk '
    FNR == 1 { in_tests = 0 }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    /^[[:space:]]*\/\// { next }
    !in_tests && (/\.decision\(/ || /\.classify\(/) {
        found = 1
        print FILENAME ":" FNR ": " $0
    }
    END { exit found }
' "${core_sources[@]}"; then
    echo "error: per-row boundary scoring in sidefp-core (use TrustedBoundary::decision_rows_into)" >&2
    exit 1
fi

# The kernel layer runs on the packed GEMM with fused epilogues
# (sidefp_linalg::gemm): stats code must go through the GramMatrix entry
# points or `gemm_nt_fused`. Materializing a transpose and feeding
# it to `matmul` silently falls back to an extra O(n·d) copy and skips
# the packed A·Bᵀ path, so new call sites are rejected outside tests.
mapfile -t stats_sources < <(find crates/stats/src -name '*.rs' | sort)
if ! awk '
    FNR == 1 { in_tests = 0 }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && /\.matmul\(&[^)]*\.transpose\(\)/ {
        found = 1
        print FILENAME ":" FNR ": " $0
    }
    END { exit found }
' "${stats_sources[@]}"; then
    echo "error: matmul-of-transpose in sidefp-stats (use a GramMatrix entry point or gemm_nt_fused)" >&2
    exit 1
fi

# Observability is per-run (RunContext); the pipeline crates must not
# grow process-global mutable state.
pattern='static[[:space:]]+[A-Z0-9_]+[[:space:]]*:[[:space:]]*[A-Za-z0-9_:]*(Mutex|RwLock|Atomic[A-Za-z0-9]+|OnceLock|OnceCell|LazyLock|RefCell|UnsafeCell)'
if hits="$(grep -rEn "$pattern" crates/core/src crates/stats/src)"; then
    echo "error: process-global mutable static in a pipeline crate (thread a RunContext instead):" >&2
    echo "$hits" >&2
    exit 1
fi

# The committed BENCH_*.json records are the evidence for the repo's
# performance and correctness claims: their floors, and the seed-count
# floors on BENCH_seeds.json, are a hard gate.
cargo build --release -q -p sidefp-bench --bin bench-gate
./target/release/bench-gate

if [[ "${1:-}" == "--tests" ]]; then
    cargo test --workspace -q
    # Streaming-lot smoke: a short drifted stream must keep deciding lots
    # (accept / recalibrate / refit) without panicking.
    cargo test -q -p sidefp-core --test drift_stream drifted_stream_decisions_are_reproducible
else
    # Fault-matrix smoke: the degradation pipeline must absorb every fault
    # class without panicking even in the quick gate.
    cargo test -q -p sidefp-core --test fault_matrix
    # Box-band QP smoke: the fused column product must keep the solve
    # bit-identical to the `matvec_into` reference (beta bits, iterations,
    # convergence flag and final delta).
    cargo test -q -p sidefp-stats --lib qp::projected_gradient
    # MARS smoke: shared-prefix pruning must pick the same bases with the
    # same coefficient and GCV bits as a pruning that refits every trial.
    cargo test -q -p sidefp-stats --lib mars
    # KDE sampler smoke: rows written in place must match the allocating
    # reference sampler bit for bit at 1 and 2 workers.
    cargo test -q -p sidefp-stats --lib kde::adaptive
    # Fit -> save -> load -> score smoke: the artifact codec must
    # round-trip byte-exactly and the loaded model must score
    # bit-identically to the in-process fit at any thread count.
    cargo test -q -p sidefp-core --test fitted_model
    # One-calibration-path smoke: the lot stream's calibration lot must
    # reproduce the single-shot silicon stage's S3, S4, KMM weights and
    # B3/B4 solves bit for bit.
    cargo test -q -p sidefp-core --test drift_stream calibration_lot_reproduces_the_single_shot_silicon_fit
    # Steady-state allocation smoke: warm KDE density, OCSVM decision,
    # per-device score_into and packed-GEMM loops (the last at the
    # machine's worker count, through the worker pool) must request zero
    # heap blocks, and streamed KDE sampling the same blocks at 10^3 as
    # at 10^5 rows.
    cargo test -q -p sidefp-bench --test steady_state_allocs
    # Seed-sweep smoke: 4 cells x 4 seeds at reduced sizing, among them
    # the full channel stack with the dormant payload, so a channel,
    # Trojan or corner wiring break shows; every run must finish. Writes
    # no record.
    cargo build --release -q -p sidefp-bench --bin sweep
    ./target/release/sweep --smoke >/dev/null
fi
