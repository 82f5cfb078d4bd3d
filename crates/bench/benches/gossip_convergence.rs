//! Benchmarks of the epidemic layer: gossip-membership convergence
//! (§5.2) with full versus delta digests.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftbb_bench::gossip_sim::simulate_membership;

/// Full membership bootstrap at growing group sizes, full digests vs
/// capped deltas: everyone joins through one server and gossips until
/// every view holds the whole group (plus a steady-state tail). The
/// delta mode processes strictly fewer digest entries end to end, which
/// is what this wall-clock number shows scaling with n.
fn bench_membership_convergence(c: &mut Criterion) {
    let mut group = c.benchmark_group("membership_convergence");
    group.sample_size(10);
    for &n in &[50u32, 100, 250, 500] {
        for (mode, delta, cap) in [("full", false, 0usize), ("delta", true, 32)] {
            let id = BenchmarkId::new(mode, n);
            group.bench_with_input(id, &n, |b, &n| {
                let mut seed = 0;
                b.iter(|| {
                    seed += 1;
                    simulate_membership(n, delta, cap, seed)
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_membership_convergence);
criterion_main!(benches);
