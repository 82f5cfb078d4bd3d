//! Memory-layout hot-path benchmarks: the per-operation costs that the
//! inline-`Code` / arena-`CodeSet` work must answer for. Every expansion
//! touches a code clone (pool push, grant item, report, gossip) and a
//! table walk (`contains` on the grant path, `insert`/`merge` on the
//! report/gossip path), so these are measured raw, plus an end-to-end
//! sequential solve as the integrated number, and the expander that turns
//! each code back into a subproblem (a reused `ProblemExpander`, which
//! replays only what differs from its last path, against a rebuild from
//! the root per code). Before/after numbers are recorded in
//! `BENCH_hotpath.json`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ftbb_bnb::{solve, solve_observed, BranchBound, Pool, PoolEntry, SelectRule, SolveConfig};
use ftbb_bnb::{AnyInstance, BasicTreeProblem, Correlation, KnapsackInstance, MaxSatInstance};
use ftbb_core::{AnyExpander, Expander};
use ftbb_tree::{compress, random_basic_tree, Code, CodeSet, NodeId, TreeConfig};

fn leaf_codes(nodes: usize, seed: u64) -> Vec<Code> {
    let tree = random_basic_tree(&TreeConfig {
        target_nodes: nodes,
        seed,
        ..Default::default()
    });
    (0..tree.len() as NodeId)
        .filter(|&i| tree.node(i).is_leaf())
        .map(|i| tree.code_of(i))
        .collect()
}

/// A code of exactly `depth` decisions (vars 1..=depth, alternating bits).
fn code_of_depth(depth: u16) -> Code {
    let mut c = Code::root();
    for var in 1..=depth {
        c = c.child(var, var % 2 == 0);
    }
    c
}

fn bench_code_clone(c: &mut Criterion) {
    // Clone cost at depths straddling the inline cap: 8 and 12 fit
    // inline after the layout change, 20 spills to the heap.
    const BATCH: usize = 1024;
    let mut group = c.benchmark_group("code_clone");
    group.throughput(Throughput::Elements(BATCH as u64));
    for depth in [8u16, 12, 20] {
        let codes: Vec<Code> = (0..BATCH).map(|_| code_of_depth(depth)).collect();
        group.bench_with_input(BenchmarkId::new("depth", depth), &codes, |b, codes| {
            b.iter(|| {
                let mut keep = 0usize;
                for code in codes {
                    let clone = black_box(code.clone());
                    keep += clone.depth() as usize;
                }
                keep
            });
        });
    }
    group.finish();
}

fn bench_table_insert_contains(c: &mut Criterion) {
    // The grant path (`contains` per grant item) and the report path
    // (`insert` per completed code) combined: build the table from every
    // leaf, then re-check every leaf against the contracted table.
    let mut group = c.benchmark_group("table_insert_contains");
    for &n in &[4_001usize, 20_001] {
        let codes = leaf_codes(n, 7);
        group.throughput(Throughput::Elements(2 * codes.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &codes, |b, codes| {
            b.iter(|| {
                let mut set = CodeSet::new();
                for code in codes {
                    set.insert(code);
                }
                let mut hits = 0usize;
                for code in codes {
                    if set.contains(code) {
                        hits += 1;
                    }
                }
                assert_eq!(hits, codes.len());
                hits
            });
        });
    }
    group.finish();
}

fn bench_table_merge(c: &mut Criterion) {
    // The table-gossip receive path: merge a peer's minimal codes.
    let codes = leaf_codes(20_001, 17);
    let mut a = CodeSet::new();
    let mut b = CodeSet::new();
    for (i, code) in codes.iter().enumerate() {
        if i % 2 == 0 {
            a.insert(code);
        } else {
            b.insert(code);
        }
    }
    let b_codes = b.minimal_codes();
    c.bench_function("table_merge_half_20k", |bench| {
        bench.iter(|| {
            let mut t = a.clone();
            t.merge(b_codes.iter());
            assert!(t.is_root_done());
            t.node_count()
        });
    });
}

fn bench_report_flush(c: &mut Criterion) {
    // The report producer: compress a fresh batch into minimal codes —
    // what `flush_reports` does at every report boundary.
    const BATCH: usize = 64;
    let codes: Vec<Code> = leaf_codes(4_001, 11).into_iter().take(BATCH).collect();
    let mut group = c.benchmark_group("report_flush");
    group.throughput(Throughput::Elements(BATCH as u64));
    group.bench_function("compress_64", |b| {
        b.iter(|| compress(&codes).len());
    });
    group.finish();
}

fn bench_pool_split_off(c: &mut Criterion) {
    // One WorkRequest against a loaded best-first pool: donate the
    // worst k, then give them back so every iteration sees the same
    // pool. The donation must not be O(n log n) in the pool size.
    const N: usize = 10_000;
    const K: usize = 16;
    let mut group = c.benchmark_group("pool_split_off");
    group.throughput(Throughput::Elements(K as u64));
    group.bench_function(BenchmarkId::new("n10000_k", K), |b| {
        let mut pool: Pool<u64> = Pool::new(SelectRule::BestFirst);
        for i in 0..N {
            pool.push(PoolEntry {
                bound: (i as f64 * 7919.0) % 1000.0,
                depth: 0,
                node: i as u64,
            });
        }
        b.iter(|| {
            let donated = pool.split_off(K);
            let got = donated.len();
            for e in donated {
                pool.push(e);
            }
            got
        });
    });
    group.finish();
}

fn bench_e2e_expansions(c: &mut Criterion) {
    // Integrated number: a full sequential best-first solve over a
    // recorded tree (the paper's basic-tree model) — every expansion
    // pays a pool push/pop and a code clone.
    let tree = random_basic_tree(&TreeConfig {
        target_nodes: 8_001,
        seed: 23,
        ..Default::default()
    });
    let problem = BasicTreeProblem::new(tree);
    let cfg = SolveConfig {
        rule: SelectRule::BestFirst,
        ..Default::default()
    };
    let expanded = solve(&problem, &cfg).stats.expanded;
    let mut group = c.benchmark_group("e2e_solve");
    group.throughput(Throughput::Elements(expanded));
    group.bench_function("best_first_8k", |b| {
        b.iter(|| {
            let r = solve(&problem, &cfg);
            assert_eq!(r.best, problem.tree().optimal());
            r.stats.expanded
        });
    });
    group.finish();
}

/// One expansion the way an expander without a path cache does it:
/// replay the code from the root, then bound and decompose. Returns the
/// bounds summed, as the reused expander's loop does.
fn rebuild_and_expand(problem: &AnyInstance, code: &Code) -> f64 {
    let node = problem.rebuild(code).expect("own stream replays");
    let children = match (problem.branching_var(&node), problem.decompose(&node)) {
        (Some(_), Some((l, r))) => problem.bound(&l) + problem.bound(&r),
        _ => 0.0,
    };
    black_box(problem.cost(&node) + problem.solution(&node).unwrap_or(0.0) + children);
    problem.bound(&node)
}

fn bench_expander_stream(c: &mut Criterion) {
    // The protocol's own code stream: depth-first local selection, as one
    // node solving alone expands it. Knapsack n=50 and MAX-SAT 24x200 are
    // the families of the end-to-end benchmark's knapsack and maxsat-solo
    // workloads; each stream is capped at STREAM codes.
    const STREAM: usize = 4_000;
    let instances: [(&str, AnyInstance); 2] = [
        (
            "knapsack_50",
            KnapsackInstance::generate(50, 10_000, Correlation::Strong, 0.5, 3).into(),
        ),
        (
            "maxsat_24x200",
            MaxSatInstance::generate(24, 200, 10_000).into(),
        ),
    ];
    let mut group = c.benchmark_group("expander_stream");
    for (name, instance) in instances {
        let mut stream = Vec::with_capacity(STREAM);
        let cfg = SolveConfig {
            rule: SelectRule::DepthFirst,
            max_expanded: Some(STREAM as u64),
            ..Default::default()
        };
        solve_observed(&instance, &cfg, |code, _| stream.push(code.clone()));
        group.throughput(Throughput::Elements(stream.len() as u64));
        let expander = AnyExpander::new(instance);
        group.bench_with_input(BenchmarkId::new("reused", name), &stream, |b, stream| {
            let mut reused = expander.clone();
            b.iter(|| {
                let mut bound = 0.0;
                for code in stream {
                    bound += reused.expand(code).bound;
                }
                bound
            });
        });
        group.bench_with_input(BenchmarkId::new("rebuild", name), &stream, |b, stream| {
            let problem = expander.problem();
            b.iter(|| {
                let mut bound = 0.0;
                for code in stream {
                    bound += rebuild_and_expand(problem, code);
                }
                bound
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_code_clone,
    bench_table_insert_contains,
    bench_table_merge,
    bench_report_flush,
    bench_pool_split_off,
    bench_e2e_expansions,
    bench_expander_stream
);
criterion_main!(benches);
