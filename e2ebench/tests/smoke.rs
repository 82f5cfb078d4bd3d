//! A smoke run of every workload shape at a tiny size, untraced and
//! traced: each must pass its correctness gate and report its full metric
//! set.
//!
//! The real-cluster runs need the `ftbb-noded` binary: `E2EBENCH_NODED`
//! names it, or it sits beside this test's executable in the target
//! directory (`python3 e2ebench/run.py --self-test` arranges both).

use ftbb_e2ebench::instances::{Band, Family};
use ftbb_e2ebench::layers::{measure_des_traced, measure_real_traced};
use ftbb_e2ebench::output::{correct, missing, result_line};
use ftbb_e2ebench::spans::Spans;
use ftbb_e2ebench::workloads::{measure_des, measure_real, Ctx, DesWorkload, RealWorkload};
use ftbb_tree::TreeConfig;
use std::path::PathBuf;
use std::time::Duration;

fn noded() -> PathBuf {
    if let Ok(path) = std::env::var("E2EBENCH_NODED") {
        return PathBuf::from(path);
    }
    let exe = std::env::current_exe().expect("test executable path");
    let beside = exe
        .parent()
        .and_then(|deps| deps.parent())
        .map(|dir| dir.join("ftbb-noded"))
        .expect("target directory layout");
    assert!(
        beside.is_file(),
        "no ftbb-noded at {}: run `python3 e2ebench/run.py --self-test` or set E2EBENCH_NODED",
        beside.display()
    );
    beside
}

fn ctx(seed: u64) -> Ctx {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    Ctx {
        noded: noded(),
        out_dir,
        seed,
        seconds: 0.2,
        spans: Spans::new(),
    }
}

fn tiny_real(
    name: &'static str,
    nodes: u32,
    family: Family,
    band: Band,
    kill_ms: Option<u64>,
) -> RealWorkload {
    RealWorkload {
        name,
        nodes,
        family,
        band,
        instances: 2,
        scan_from: 1,
        kill_at: kill_ms.map(Duration::from_millis),
    }
}

fn check_both(w: &RealWorkload) {
    for trace in [false, true] {
        let mut c = ctx(3);
        let out = if trace {
            measure_real_traced(w, &mut c)
        } else {
            measure_real(w, &mut c)
        };
        assert!(
            correct(&out, trace),
            "{} trace={trace}: failures {:?}, missing {:?}",
            w.name,
            out.tally.failures,
            missing(&out, trace)
        );
        assert!(result_line(&out, trace).starts_with("{\"correct\": true"));
    }
}

#[test]
fn knapsack_cluster_smoke() {
    let family = Family::Knapsack {
        n: 30,
        range: 1000,
        frac: 0.5,
    };
    check_both(&tiny_real(
        "knapsack-tiny",
        2,
        family,
        Band {
            lo: 2_000,
            hi: 20_000,
        },
        None,
    ));
}

#[test]
fn maxsat_solo_smoke() {
    let family = Family::MaxSat {
        vars: 14,
        clauses: 60,
    };
    check_both(&tiny_real(
        "maxsat-tiny",
        1,
        family,
        Band { lo: 200, hi: 5_000 },
        None,
    ));
}

#[test]
fn knapsack_kill_smoke() {
    let family = Family::Knapsack {
        n: 50,
        range: 10_000,
        frac: 0.5,
    };
    check_both(&tiny_real(
        "kill-tiny",
        2,
        family,
        Band {
            lo: 40_000,
            hi: 80_000,
        },
        Some(50),
    ));
}

#[test]
fn des_smoke() {
    let w = DesWorkload {
        name: "des-tiny",
        procs: 8,
        tree: TreeConfig {
            target_nodes: 401,
            mean_cost: 0.5,
            cost_cv: 0.6,
            balance: 0.35,
            solution_density: 0.25,
            bound_growth: 0.02,
            solution_margin: 0.9,
            seed: 7,
        },
        sim_seed: 5,
    };
    for trace in [false, true] {
        let mut c = ctx(1);
        let out = if trace {
            measure_des_traced(&w, &mut c)
        } else {
            measure_des(&w, &mut c)
        };
        assert!(
            correct(&out, trace),
            "trace={trace}: failures {:?}, missing {:?}",
            out.tally.failures,
            missing(&out, trace)
        );
    }
}
