//! The four workloads and their end-to-end measurement.
//!
//! A *solve* is one `launch` (or one `run_sim`) plus the sequential solve
//! of the same instance in the same run, and every solve is checked
//! against the sequential optimum. Timed solves repeat, cycling over the
//! run's chosen instances, until the next one would overrun the run's
//! measuring time.

use crate::instances::{scan, Band, Chosen, Family};
use crate::procmem::{own_vm_hwm_kb, ChildPeakSampler};
use crate::spans::Spans;
use crate::stats::{geomean, median, summarize, Summary};
use ftbb_bnb::{solve, BasicTreeProblem, SolveConfig};
use ftbb_sim::shared::OverheadModel;
use ftbb_sim::{run_sim, RunReport, SimConfig};
use ftbb_tree::{generator::repair_path_vars, random_basic_tree, BasicTree, TreeConfig};
use ftbb_wire::config::ProblemSpec;
use ftbb_wire::launcher::{launch, ClusterReport, ClusterSpec, GossipTiming, LifecycleEvent};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Launches of a trivial instance per run that time cluster set-up.
pub const SETUP_PROBES: usize = 7;

/// Timed set-up probes per DES run.
pub const DES_SETUP_PROBES: usize = 30;

/// Tree generations per DES set-up probe. One generation takes 5–10 ms and
/// flips between a fast and a slow mode every few calls on a shared host;
/// a probe of several generations averages the modes, so the median of
/// the probes does not jump between them from run to run.
const DES_SETUP_BATCH: usize = 5;

/// How often the `/proc` sampler reads the nodes' peak memory.
const RSS_SAMPLE_EVERY: Duration = Duration::from_millis(25);

/// A real loopback cluster of `ftbb-noded` processes.
#[derive(Debug, Clone)]
pub struct RealWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Node processes.
    pub nodes: u32,
    /// Instance family.
    pub family: Family,
    /// Accepted sequential expansion counts.
    pub band: Band,
    /// Distinct instances per run.
    pub instances: usize,
    /// Generator seed the instance scan starts from.
    pub scan_from: u64,
    /// SIGKILL node 1 this long after wiring; runs gossip membership.
    pub kill_at: Option<Duration>,
}

/// The discrete-event simulation at the paper's 100-processor scale.
#[derive(Debug, Clone)]
pub struct DesWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Simulated processes.
    pub procs: u32,
    /// The recorded tree.
    pub tree: TreeConfig,
    /// `SimConfig::seed`.
    pub sim_seed: u64,
}

/// One of the benchmark's workloads.
#[derive(Debug, Clone)]
pub enum Workload {
    /// A real loopback cluster.
    Real(RealWorkload),
    /// A discrete-event simulation.
    Des(DesWorkload),
}

/// The knapsack family of `knapsack-fine` and `knapsack-kill`: about
/// 1 µs per sequential expansion, so per-expansion engine, table and
/// message costs dominate.
const KNAPSACK: Family = Family::Knapsack {
    n: 50,
    range: 10_000,
    frac: 0.5,
};

/// The 30,001-node tree of the `scale` study.
fn scale_tree() -> TreeConfig {
    TreeConfig {
        target_nodes: 30_001,
        mean_cost: 0.5,
        cost_cv: 0.6,
        balance: 0.35,
        solution_density: 0.25,
        bound_growth: 0.02,
        solution_margin: 0.9,
        seed: 500_500,
    }
}

/// Every workload, in the order the benchmark lists them.
pub fn all() -> Vec<Workload> {
    vec![
        Workload::Real(RealWorkload {
            name: "knapsack-fine",
            nodes: 2,
            family: KNAPSACK,
            band: Band {
                lo: 150_000,
                hi: 350_000,
            },
            instances: 4,
            scan_from: 10_000,
            kill_at: None,
        }),
        Workload::Real(RealWorkload {
            name: "maxsat-solo",
            nodes: 1,
            family: Family::MaxSat {
                vars: 24,
                clauses: 200,
            },
            band: Band {
                lo: 10_000,
                hi: 25_000,
            },
            instances: 3,
            scan_from: 10_000,
            kill_at: None,
        }),
        // Large enough that the survivor's own work is about half of the
        // wall: with 100k-expansion instances the wall was 70% suspicion
        // and recovery timers, so the speedup tracked host speed rather
        // than the program; with 900k ones three solves fit in a run.
        Workload::Real(RealWorkload {
            name: "knapsack-kill",
            nodes: 2,
            family: KNAPSACK,
            band: Band {
                lo: 250_000,
                hi: 400_000,
            },
            instances: 1,
            scan_from: 10_000,
            kill_at: Some(Duration::from_millis(100)),
        }),
        Workload::Des(DesWorkload {
            name: "des-scale-100",
            procs: 100,
            tree: scale_tree(),
            sim_seed: 600,
        }),
    ]
}

impl Workload {
    /// The workload's name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Real(w) => w.name,
            Workload::Des(w) => w.name,
        }
    }
}

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name() == name)
}

/// What a run needs from its invocation.
#[derive(Debug)]
pub struct Ctx {
    /// The `ftbb-noded` binary.
    pub noded: PathBuf,
    /// Directory for node traces and result files.
    pub out_dir: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// The run's spans.
    pub spans: Spans,
}

/// Attempted and failed solves, with the reasons for failures.
#[derive(Debug, Default)]
pub struct Tally {
    /// Solves attempted.
    pub attempted: u64,
    /// Solves that failed a check.
    pub failed: u64,
    /// Why each failed solve failed.
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one solve; a failed one yields `None`, so it contributes to
    /// no timing.
    pub fn record<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Failed share of attempted solves.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// One node's `(terminated, incumbent)` as the correctness gate sees it.
pub type NodeVerdict = (bool, f64);

/// The correctness gate of a cluster solve: every node that was not
/// killed reported, every reporting node terminated, and every terminated
/// node's incumbent is bit-identical to the sequential optimum.
pub fn check_nodes(
    verdicts: &[Option<NodeVerdict>],
    killed: &[u32],
    all_survivors_terminated: bool,
    optimum: f64,
) -> Result<(), String> {
    if !all_survivors_terminated {
        return Err("a survivor did not terminate".into());
    }
    for (id, v) in verdicts.iter().enumerate() {
        match v {
            None if killed.contains(&(id as u32)) => {}
            None => return Err(format!("node {id} reported no outcome")),
            Some((false, _)) => return Err(format!("node {id} did not terminate")),
            Some((true, inc)) if inc.to_bits() != optimum.to_bits() => {
                return Err(format!(
                    "node {id} ended with incumbent {inc:?}, the sequential optimum is {optimum:?}"
                ))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// The correctness gate applied to a launcher report; `expect_kill`
/// additionally requires that the planned SIGKILL landed mid-run.
pub fn check_report(report: &ClusterReport, optimum: f64, expect_kill: bool) -> Result<(), String> {
    let verdicts: Vec<Option<NodeVerdict>> = report
        .outcomes
        .iter()
        .map(|o| o.as_ref().map(|o| (o.terminated, o.incumbent)))
        .collect();
    check_nodes(
        &verdicts,
        &report.killed,
        report.all_survivors_terminated,
        optimum,
    )?;
    if expect_kill && report.killed.is_empty() {
        return Err("the SIGKILL landed after the solve had ended".into());
    }
    Ok(())
}

/// The correctness gate of a simulated solve.
pub fn check_sim(report: &RunReport, optimum: Option<f64>) -> Result<(), String> {
    if !report.all_live_terminated {
        return Err("a live process did not terminate".into());
    }
    if report.best.map(f64::to_bits) != optimum.map(f64::to_bits) {
        return Err(format!(
            "simulated best {:?}, the tree's optimum is {optimum:?}",
            report.best
        ));
    }
    Ok(())
}

/// The launcher spec of one solve of `w` on `problem`.
pub fn cluster_spec(
    w: &RealWorkload,
    ctx: &Ctx,
    problem: ProblemSpec,
    kill: bool,
    trace_dir: Option<PathBuf>,
) -> ClusterSpec {
    let lifecycle = match (kill, w.kill_at) {
        (true, Some(at)) => vec![LifecycleEvent::kill(1, at)],
        _ => Vec::new(),
    };
    ClusterSpec {
        noded: ctx.noded.clone(),
        nodes: w.nodes,
        lifecycle,
        crash_at: Vec::new(),
        problem,
        wire_peers: false,
        service: false,
        jobs: Vec::new(),
        gossip: w.kill_at.map(|_| GossipTiming::default()),
        checkpoint_dir: None,
        checkpoint_every_s: 1.0,
        // A traced solve prints only its final FTBB-METRICS snapshot.
        metrics_every_s: trace_dir.as_ref().map(|_| 3600.0),
        trace_dir,
        deadline: Duration::from_secs(60),
        seed: ctx.seed,
        workers: 1,
    }
}

/// One timed real-cluster solve.
#[derive(Debug)]
pub struct Solve {
    /// Index of the instance among the run's chosen ones.
    pub instance: usize,
    /// `launch` call to report, seconds.
    pub wall_s: f64,
    /// The sequential solve of the same instance, seconds.
    pub seq_s: f64,
    /// Expansions of the nodes that reported.
    pub expanded: u64,
    /// Sequential expansions of the instance.
    pub seq_expansions: u64,
    /// Largest single-node `VmHWM`, KiB.
    pub peak_rss_kb: Option<u64>,
    /// The launcher's report.
    pub report: ClusterReport,
}

/// Time the sequential solve of `c` and check it reproduces the scan's
/// optimum.
pub fn timed_seq(c: &Chosen) -> Result<f64, String> {
    let t = Instant::now();
    let r = solve(&c.instance, &SolveConfig::default());
    let seq_s = t.elapsed().as_secs_f64();
    match r.best {
        Some(b) if b.to_bits() == c.optimum.to_bits() && r.stats.expanded == c.seq_expansions => {
            Ok(seq_s)
        }
        other => Err(format!(
            "sequential solve changed: {other:?} after {} expansions",
            r.stats.expanded
        )),
    }
}

/// One checked solve: the sequential solve, then the cluster.
pub fn solve_once(
    w: &RealWorkload,
    ctx: &mut Ctx,
    instance: usize,
    c: &Chosen,
    trace_dir: Option<PathBuf>,
    parent: Option<usize>,
) -> Result<Solve, String> {
    let seq_s = ctx.spans.leaf("bnb.solve", parent, || timed_seq(c))?;
    let spec = cluster_spec(w, ctx, c.spec.clone(), true, trace_dir);
    let sampler = ChildPeakSampler::start("ftbb-noded", RSS_SAMPLE_EVERY);
    let t = Instant::now();
    let result = ctx.spans.leaf("wire.launch", parent, || launch(&spec));
    let wall_s = t.elapsed().as_secs_f64();
    let peak_rss_kb = sampler.finish();
    let report = result.map_err(|e| e.to_string())?;
    check_report(&report, c.optimum, w.kill_at.is_some())?;
    Ok(Solve {
        instance,
        wall_s,
        seq_s,
        expanded: report.total_expanded(),
        seq_expansions: c.seq_expansions,
        peak_rss_kb,
        report,
    })
}

/// Median seconds of `SETUP_PROBES` launches of the workload's cluster
/// shape on a trivial instance: spawn, `FTBB-READY`, wiring, solve, exit.
pub fn setup_probes(w: &RealWorkload, ctx: &mut Ctx, tally: &mut Tally) -> Vec<f64> {
    let trivial = w.family.trivial();
    let spec = trivial.spec(1);
    let Ok(instance) = spec.instance() else {
        tally.record::<()>("setup", Err("trivial instance does not generate".into()));
        return Vec::new();
    };
    let Some(optimum) = solve(&instance, &SolveConfig::default()).best else {
        tally.record::<()>("setup", Err("trivial instance is infeasible".into()));
        return Vec::new();
    };
    let parent = ctx.spans.open("setup", None);
    let mut samples = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let cluster = cluster_spec(w, ctx, spec.clone(), false, None);
        let t = Instant::now();
        let r = ctx
            .spans
            .leaf("wire.launch", Some(parent), || launch(&cluster));
        let secs = t.elapsed().as_secs_f64();
        let checked = r
            .map_err(|e| e.to_string())
            .and_then(|r| check_report(&r, optimum, false));
        if tally.record("setup launch", checked).is_some() {
            samples.push(secs);
        }
    }
    ctx.spans.close(parent);
    samples
}

/// Run `cycle` repeatedly until the next repetition, expected to take as
/// long as the median one so far, would end after `seconds`; at least
/// once. Whole cycles give every instance of a run the same weight.
pub fn for_cycles(seconds: f64, mut cycle: impl FnMut()) {
    let start = Instant::now();
    let mut durations: Vec<f64> = Vec::new();
    loop {
        if let Some(expected) = median(&durations) {
            if start.elapsed().as_secs_f64() + expected > seconds {
                return;
            }
        }
        let t = Instant::now();
        cycle();
        durations.push(t.elapsed().as_secs_f64());
    }
}

/// Pick the run's instances.
pub fn choose(w: &RealWorkload, ctx: &mut Ctx) -> Result<(Vec<Chosen>, u64), String> {
    let (family, band, count, first) = (w.family, w.band, w.instances, w.scan_from);
    ctx.spans
        .leaf("bnb.scan", None, || scan(family, band, count, first))
}

/// A named metric value with its unit, and the summary of the samples
/// behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// Summary of the samples behind the value.
    pub summary: Option<Summary>,
    /// How the value is formed from the samples, when not their median.
    pub basis: Option<String>,
}

impl Metric {
    /// A median metric; `None` when there are no samples.
    pub fn median_of(name: &'static str, unit: &'static str, samples: &[f64]) -> Option<Metric> {
        let summary = summarize(samples)?;
        Some(Metric {
            name,
            unit,
            value: summary.median,
            summary: Some(summary),
            basis: None,
        })
    }

    /// The geometric mean over a run's instances of a per-instance
    /// statistic, so every instance weighs the same however its solves
    /// spread; `samples` are the per-solve values behind it.
    pub fn across_instances(
        name: &'static str,
        unit: &'static str,
        per_instance: &[f64],
        samples: &[f64],
    ) -> Option<Metric> {
        Some(Metric {
            name,
            unit,
            value: geomean(per_instance)?,
            summary: summarize(samples),
            basis: Some(format!(
                "geometric mean over {} instances of per-instance medians",
                per_instance.len()
            )),
        })
    }

    /// A single value.
    pub fn value(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            summary: None,
            basis: None,
        }
    }
}

/// What one benchmark run measured.
#[derive(Debug, Default)]
pub struct RunOutcome {
    /// Solve counts and failures.
    pub tally: Tally,
    /// The metrics of the requested set (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Further numbers printed and written alongside, not part of the set.
    pub extra: Vec<Metric>,
    /// Provenance entries: chosen instances, sample counts.
    pub provenance: Vec<(String, String)>,
    /// Human-readable report sections.
    pub text: Vec<String>,
}

fn chosen_provenance(out: &mut RunOutcome, chosen: &[Chosen], probed: u64) {
    let seeds: Vec<String> = chosen
        .iter()
        .map(|c| format!("{}:{}", c.seed, c.seq_expansions))
        .collect();
    out.provenance.push((
        "instances (generator seed:sequential expansions)".into(),
        seeds.join(" "),
    ));
    out.provenance
        .push(("generator seeds probed".into(), probed.to_string()));
}

/// Run the end-to-end measurement of a real workload.
pub fn measure_real(w: &RealWorkload, ctx: &mut Ctx) -> RunOutcome {
    let mut out = RunOutcome::default();
    let chosen = match choose(w, ctx) {
        Ok((chosen, probed)) => {
            chosen_provenance(&mut out, &chosen, probed);
            chosen
        }
        Err(e) => {
            out.tally.record::<()>("instance scan", Err(e));
            return out;
        }
    };
    let setup = setup_probes(w, ctx, &mut out.tally);

    let parent = ctx.spans.open("measure", None);
    let mut solves: Vec<Solve> = Vec::new();
    for_cycles(ctx.seconds, || {
        for (i, c) in chosen.iter().enumerate() {
            let solve = solve_once(w, ctx, i, c, None, Some(parent));
            if let Some(s) = out.tally.record(&format!("instance {}", c.seed), solve) {
                solves.push(s);
            }
        }
    });
    ctx.spans.close(parent);

    let per = |f: &dyn Fn(&Solve) -> f64| -> Vec<f64> { solves.iter().map(f).collect() };
    // Per-instance medians: one value per instance, so neither how the
    // run's solves fell across instances nor how their rates differ moves
    // the result.
    let per_instance = |f: &dyn Fn(&Solve) -> f64| -> Vec<f64> {
        (0..chosen.len())
            .filter_map(|i| {
                let v: Vec<f64> = solves.iter().filter(|s| s.instance == i).map(f).collect();
                median(&v)
            })
            .collect()
    };
    let rate = |s: &Solve| s.expanded as f64 / s.wall_s;
    let seq = per_instance(&|s| s.seq_s);
    let wall = per_instance(&|s| s.wall_s);
    let speedups: Vec<f64> = seq.iter().zip(&wall).map(|(q, w)| q / w).collect();
    let rss: Vec<f64> = solves
        .iter()
        .filter_map(|s| s.peak_rss_kb)
        .map(|kb| kb as f64 / 1024.0)
        .collect();
    let complete = wall.len() == chosen.len();
    out.metrics.extend(
        [
            Metric::across_instances(
                "speedup_vs_seq",
                "x",
                &speedups,
                &per(&|s| s.seq_s / s.wall_s),
            )
            .filter(|_| complete),
            Metric::median_of("peak_rss_mb", "MB", &rss),
            Metric::median_of("setup_s", "s", &setup),
        ]
        .into_iter()
        .flatten(),
    );
    out.extra.extend(
        [
            Metric::median_of("wall_s", "s", &per(&|s| s.wall_s)),
            Metric::median_of("seq_s", "s", &per(&|s| s.seq_s)),
            Metric::across_instances("expansions_per_s", "1/s", &per_instance(&rate), &per(&rate))
                .filter(|_| complete),
            Metric::median_of(
                "wall_us_per_seq_expansion",
                "us",
                &per(&|s| s.wall_s * 1e6 / s.seq_expansions as f64),
            ),
        ]
        .into_iter()
        .flatten(),
    );
    out.provenance
        .push(("timed solves".into(), solves.len().to_string()));
    out
}

/// The DES workload's simulation settings: the `scale` study's tuning for
/// hundreds of processes.
pub fn sim_config(w: &DesWorkload, trace: bool) -> SimConfig {
    let mut cfg = SimConfig::new(w.procs);
    cfg.seed = w.sim_seed;
    cfg.protocol.report_batch = 24;
    cfg.protocol.report_fanout = 2;
    cfg.protocol.report_interval_s = 6.0;
    cfg.protocol.table_gossip_interval_s = 45.0;
    cfg.protocol.lb_timeout_s = 0.6;
    cfg.protocol.recovery_delay_s = 3.0;
    cfg.protocol.recovery_quiet_s = 90.0;
    cfg.protocol.grant_max = 24;
    cfg.overheads = OverheadModel {
        contract_per_code_s: 2e-3,
        send_busy_factor: 1.0,
        recv_fixed_s: 200e-6,
    };
    cfg.sample_interval_s = 20.0;
    cfg.start_stagger_s = 1.0;
    cfg.trace = trace;
    cfg
}

/// Generate the DES tree in `DES_SETUP_PROBES` probes of
/// `DES_SETUP_BATCH` generations; the tree and the seconds per generation
/// of each probe.
pub fn des_setup(w: &DesWorkload, ctx: &mut Ctx) -> (Arc<BasicTree>, Vec<f64>) {
    let parent = ctx.spans.open("setup", None);
    let mut samples = Vec::with_capacity(DES_SETUP_PROBES);
    let mut tree = None;
    for _ in 0..DES_SETUP_PROBES {
        let t = Instant::now();
        for _ in 0..DES_SETUP_BATCH {
            let generated = ctx.spans.leaf("tree.generate", Some(parent), || {
                repair_path_vars(&random_basic_tree(&w.tree))
            });
            tree = Some(generated);
        }
        samples.push(t.elapsed().as_secs_f64() / DES_SETUP_BATCH as f64);
    }
    ctx.spans.close(parent);
    (Arc::new(tree.expect("at least one probe")), samples)
}

/// One checked, timed simulation.
pub fn simulate(
    tree: &Arc<BasicTree>,
    cfg: &SimConfig,
    spans: &mut Spans,
    parent: Option<usize>,
) -> Result<(f64, RunReport), String> {
    let t = Instant::now();
    let report = spans.leaf("sim.run_sim", parent, || run_sim(tree, cfg));
    let wall = t.elapsed().as_secs_f64();
    check_sim(&report, tree.optimal())?;
    Ok((wall, report))
}

/// Run the end-to-end measurement of the DES workload.
pub fn measure_des(w: &DesWorkload, ctx: &mut Ctx) -> RunOutcome {
    let mut out = RunOutcome::default();
    let (tree, setup) = des_setup(w, ctx);
    let seq = solve(
        &BasicTreeProblem::new((*tree).clone()),
        &SolveConfig::default(),
    );
    if seq.best.map(f64::to_bits) != tree.optimal().map(f64::to_bits) {
        out.tally.record::<()>(
            "sequential",
            Err(format!("solve {:?} vs tree {:?}", seq.best, tree.optimal())),
        );
        return out;
    }
    // The simulated uniprocessor time: the cost of what the sequential
    // solve expands. The DES's speedup is simulated time against it, as in
    // the paper's figures; it repeats exactly, the simulator's own wall
    // time is a per-layer number (`des.events_per_s`).
    let uni = seq.stats.total_cost;
    let cfg = sim_config(w, false);
    let parent = ctx.spans.open("measure", None);
    let mut runs: Vec<(f64, RunReport)> = Vec::new();
    let mut peak_kb = None;
    for_cycles(ctx.seconds, || {
        let r = simulate(&tree, &cfg, &mut ctx.spans, Some(parent));
        // The peak after the first simulation, so it does not depend on
        // how many simulations fit in the run.
        if peak_kb.is_none() {
            peak_kb = own_vm_hwm_kb();
        }
        if let Some(run) = out.tally.record("simulation", r) {
            runs.push(run);
        }
    });
    ctx.spans.close(parent);

    let per = |f: &dyn Fn(&(f64, RunReport)) -> f64| -> Vec<f64> { runs.iter().map(f).collect() };
    out.metrics.extend(
        [
            Metric::median_of(
                "speedup_vs_seq",
                "x",
                &per(&|(_, r)| uni / r.exec_time.as_secs_f64()),
            ),
            peak_kb
                .filter(|_| !runs.is_empty())
                .map(|kb| Metric::value("peak_rss_mb", "MB", kb as f64 / 1024.0)),
            Metric::median_of("setup_s", "s", &setup),
        ]
        .into_iter()
        .flatten(),
    );
    out.extra.extend(
        [
            Metric::median_of("wall_s", "s", &per(&|(wall, _)| *wall)),
            Metric::median_of(
                "expansions_per_s",
                "1/s",
                &per(&|(wall, r)| r.totals.expanded as f64 / wall),
            ),
            Metric::median_of("sim_exec_s", "s", &per(&|(_, r)| r.exec_time.as_secs_f64())),
            Metric::median_of(
                "sim_messages",
                "count",
                &per(&|(_, r)| r.net.messages_sent as f64),
            ),
        ]
        .into_iter()
        .flatten(),
    );
    out.provenance
        .push(("SimConfig::seed".into(), w.sim_seed.to_string()));
    out.provenance
        .push(("tree nodes".into(), tree.len().to_string()));
    out.provenance
        .push(("timed simulations".into(), runs.len().to_string()));
    out
}

/// Resolve a path relative to the current directory.
pub fn absolute(p: &Path) -> PathBuf {
    if p.is_absolute() {
        p.to_path_buf()
    } else {
        std::env::current_dir()
            .expect("current directory is readable")
            .join(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrong_optimum_counts_as_failed() {
        let mut tally = Tally::default();
        let optimum = -5.0;
        // Node 1 was killed and reported nothing: fine.
        let ok = [Some((true, -5.0)), None];
        assert!(tally
            .record("ok", check_nodes(&ok, &[1], true, optimum))
            .is_some());
        type Case<'a> = (&'a [Option<NodeVerdict>], &'a [u32], bool);
        let cases: [Case; 5] = [
            (&[Some((true, -4.0)), Some((true, -5.0))], &[], true),
            (
                &[Some((true, -5.0)), Some((true, -5.000000000000001))],
                &[],
                true,
            ),
            (&[Some((false, -5.0)), Some((true, -5.0))], &[], true),
            (&[Some((true, -5.0)), None], &[], true),
            (&[Some((true, -5.0)), Some((true, -5.0))], &[], false),
        ];
        for (verdicts, killed, all_terminated) in cases {
            let r = check_nodes(verdicts, killed, all_terminated, optimum);
            assert!(tally.record("bad", r).is_none());
        }
        assert_eq!((tally.attempted, tally.failed), (6, 5));
        assert!((tally.failed_frac() - 5.0 / 6.0).abs() < 1e-12);
        assert!(tally.failures[0].contains("-4.0"));
    }

    #[test]
    fn for_cycles_runs_at_least_once_and_stops_in_time() {
        let mut n = 0;
        for_cycles(0.0, || n += 1);
        assert_eq!(n, 1);
        let start = Instant::now();
        for_cycles(0.05, || std::thread::sleep(Duration::from_millis(10)));
        assert!(start.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn workloads_are_named_and_distinct() {
        let names: Vec<&str> = all().iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            [
                "knapsack-fine",
                "maxsat-solo",
                "knapsack-kill",
                "des-scale-100"
            ]
        );
        assert!(by_name("knapsack-kill").is_some());
        assert!(by_name("nope").is_none());
    }
}
