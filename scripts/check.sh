#!/usr/bin/env bash
# Repo lint gate: formatting + clippy with warnings denied + full tests.
# CI and pre-commit entry point; keep it identical to what reviewers run.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings

# The criterion benches are not exercised by tests or clippy's default
# profile; compile them so bench-only breakage can't land silently.
cargo bench --workspace --no-run -q

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

# The kernel layer runs on the packed GEMM with fused epilogues
# (sidefp_linalg::gemm): stats code must go through `Matrix::matmul_nt`
# or the GramMatrix entry points. Materializing a transpose and feeding
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
    echo "error: matmul-of-transpose in sidefp-stats (use matmul_nt or a fused GramMatrix path)" >&2
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

if [[ "${1:-}" == "--tests" ]]; then
    cargo test --workspace -q
    # Streaming-lot smoke: a short drifted stream must keep deciding lots
    # (accept / recalibrate / refit) without panicking.
    cargo test -q -p sidefp-core --test drift_stream drifted_stream_decisions_are_reproducible
    # Per-stage bench regression vs the committed BENCH_pipeline.json.
    # Advisory here — wall-clock on a shared box is too noisy to block a
    # commit on; run scripts/bench_gate.sh directly for an enforcing check.
    if ! scripts/bench_gate.sh; then
        echo "warning: bench_gate reported a stage regression (non-fatal in check.sh)" >&2
    fi
else
    # Fault-matrix smoke: the degradation pipeline must absorb every fault
    # class without panicking even in the quick gate.
    cargo test -q -p sidefp-core --test fault_matrix
    # Approximation-accuracy smoke: the sub-quadratic kernel paths
    # (Nyström / RFF / binned KDE) must stay inside their pinned
    # approx-vs-exact error bounds and thread-count bit-identity.
    cargo test -q -p sidefp-stats --test approx_accuracy
    # Fit -> save -> load -> score smoke: the artifact codec must
    # round-trip byte-exactly and the loaded model must score
    # bit-identically to the in-process fit at any thread count.
    cargo test -q -p sidefp-core --test fitted_model
    # Scenario-matrix smoke: a reduced grid (<= 4 cells) through the full
    # B1-B5 flow; catches a channel/Trojan/corner wiring break without
    # paying for the committed full-size matrix.
    cargo build --release -q -p sidefp-bench --bin scenario-matrix
    ./target/release/scenario-matrix --smoke >/dev/null
fi
