#!/bin/sh
# CI gate. Tier-1 first (the whole workspace must build and test), then
# style/lint gates on the whole workspace, held to -D warnings.
set -eu

echo "==> tier 1: build (release)"
cargo build --release

echo "==> tier 1: test"
cargo test -q

# Tier-1 tests only the root package. This step gates every crate's own
# unit and integration tests (the vendored stand-ins excluded),
# serialized because several suites bind loopback sockets.
echo "==> whole workspace test (serialized)"
cargo test -q --workspace --exclude criterion --exclude crossbeam --exclude parking_lot \
    --exclude proptest --exclude rand --exclude serde --exclude serde_json -- --test-threads=1

echo "==> fmt check (workspace)"
cargo fmt --all --check

echo "==> clippy -D warnings (workspace)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> datapath bench smoke (release, --quick)"
cargo run --release -p alpha-bench --bin datapath -- --quick

echo "==> digest backend equivalence (forced scalar, then auto-detected)"
ALPHA_DIGEST_BACKEND=scalar cargo test -q -p alpha-crypto --test backend_props
cargo test -q -p alpha-crypto --test backend_props

echo "==> digest throughput bench smoke (release, --quick)"
cargo run --release -p alpha-bench --bin digest_throughput -- --quick

# Every test that binds real loopback sockets runs in this one block,
# serialized (--test-threads=1) so concurrent suites never race on the
# host's ephemeral-port space or fight each other for the single CI
# core mid-measurement. Each test binds port 0 (kernel-assigned unique
# ports); serialization is about timing stability, not port collisions.
echo "==> live loopback, serialized: udp backend equivalence (forced fallback, then auto)"
ALPHA_UDP_BACKEND=fallback cargo test -q -p alpha-transport -- --test-threads=1
cargo test -q -p alpha-transport -- --test-threads=1

echo "==> live loopback, serialized: wait backend equivalence (forced fallback, then forced epoll)"
ALPHA_WAIT_BACKEND=fallback cargo test -q -p alpha-transport --test wait_backend_props -- --test-threads=1
ALPHA_WAIT_BACKEND=epoll cargo test -q -p alpha-transport --test wait_backend_props -- --test-threads=1

echo "==> live loopback, serialized: mesh relay e2e"
cargo test -q --test mesh -- --test-threads=1

echo "==> udp io bench smoke (release, --quick)"
cargo run --release -p alpha-bench --bin udp_io -- --quick

echo "==> loadgen smoke (live engine saturation over loopback, --quick; both wait backends)"
ALPHA_WAIT_BACKEND=fallback cargo run --release -p alpha-cli --bin alpha -- loadgen --quick
ALPHA_WAIT_BACKEND=epoll cargo run --release -p alpha-cli --bin alpha -- loadgen --quick
cargo run --release -p alpha-cli --bin alpha -- loadgen --quick

# Still serialized with the loopback suites above: each forced backend
# saturates the single CI core, and the uring leg additionally owns
# per-worker rings whose registered buffers would skew a concurrent
# measurement. The uring leg is conditional: pre-multishot kernels
# (< 6.0) fail ring setup, and the engine's runtime fallback ladder
# (uring -> mmsg -> portable) is exactly what production would do, so
# CI skips rather than fails there.
echo "==> loadgen smoke: socket backend matrix (forced fallback / mmsg / uring)"
ALPHA_UDP_BACKEND=fallback cargo run --release -p alpha-cli --bin alpha -- loadgen --quick
ALPHA_UDP_BACKEND=mmsg cargo run --release -p alpha-cli --bin alpha -- loadgen --quick
if cargo run --release -p alpha-bench --bin udp_io -- --probe-uring; then
    ALPHA_UDP_BACKEND=uring cargo run --release -p alpha-cli --bin alpha -- loadgen --quick
else
    echo "ci: skipping forced-uring loadgen smoke: io_uring multishot RECVMSG" \
         "unavailable on this kernel ($(uname -r)); engine falls back to mmsg"
fi

echo "==> engine scaling bench smoke (release, --quick; live >=1.5x speedup gate at min(host_cores,4) workers when host_cores >= 2)"
cargo run --release -p alpha-bench --bin engine_scaling -- --quick

echo "==> mesh: chained sim scenarios + per-hop verification tests"
cargo test -q -p alpha-sim mesh_chain

echo "==> mesh: live 2-relay loopback smoke (release)"
cargo run --release --example mesh_smoke

echo "==> mesh chain bench smoke (release, --quick)"
cargo run --release -p alpha-bench --bin mesh_chain -- --quick

echo "==> hibernation: freeze/thaw decision-identity properties"
cargo test -q -p alpha-core --test freeze_thaw

echo "==> flow density bench smoke (release, --quick; gates >=10x assoc/GB and wake p99 < 2 ms)"
cargo run --release -p alpha-bench --bin flow_density -- --quick

echo "==> decoder robustness properties (release)"
cargo test --release --test properties -q -- \
    truncation_at_every_offset_agrees \
    single_flipped_byte_never_diverges \
    view_never_disagrees_with_owned

echo "==> provenance gate: every refreshed BENCH_*.json names its wait backend and kernel"
for f in BENCH_datapath.json BENCH_digest.json BENCH_udp_io.json \
         BENCH_engine_scaling.json BENCH_mesh_chain.json BENCH_flow_density.json; do
    grep -q '"wait_backend"' "$f" || {
        echo "ci: $f lacks wait_backend" >&2
        exit 1
    }
    grep -q '"kernel_release"' "$f" || {
        echo "ci: $f lacks kernel_release (io_uring numbers are kernel-version-sensitive)" >&2
        exit 1
    }
done

echo "==> ci OK"
