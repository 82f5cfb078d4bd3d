//! The traced pass: per-layer numbers that explain each workload's wall
//! time. The layers are timed from outside, through their public
//! functions, on the workload's own instance and code stream; the
//! clusters are launched with node traces and a final `FTBB-METRICS`
//! snapshot, paired with untraced launches of the same instance so the
//! cost of tracing shows.

use crate::instances::Chosen;
use crate::output::PER_LAYER;
use crate::stats::median;
use crate::workloads::{
    choose, des_setup, for_cycles, sim_config, simulate, solve_once, timed_seq, Ctx, DesWorkload,
    Metric, RealWorkload, RunOutcome, Solve,
};
use ftbb_bnb::{solve, solve_observed, BasicTreeProblem, BranchBound, SolveConfig};
use ftbb_core::{Expander, GrantItem, JobId, Msg, PhaseTimes, ProblemExpander, TreeExpander};
use ftbb_runtime::{run_cluster, ClusterConfig, Envelope};
use ftbb_tree::{Code, CodeSet};
use ftbb_wire::codec::{decode_frame, encode_frame, WireFrame};
use ftbb_wire::launcher::ClusterReport;
use ftbb_wire::noded::ParsedOutcome;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Codes per timed expansion batch.
const EXPAND_BATCH: usize = 256;

/// Repetitions of each table and codec microbenchmark.
const MICRO_REPS: usize = 3;

/// Completed codes per `WorkReport` frame of the codec microbenchmark.
const REPORT_CODES: usize = 8;

/// Frames the codec microbenchmark encodes and decodes per repetition.
const MAX_FRAMES: usize = 5_000;

/// Expanded codes of the sequential solve, in expansion order.
fn code_stream<P: BranchBound>(problem: &P) -> Vec<Code> {
    let mut codes = Vec::new();
    solve_observed(problem, &SolveConfig::default(), |code, _| {
        codes.push(code.clone())
    });
    codes
}

/// Expand every code of the stream in order, timing batches. Returns the
/// median ns per expansion over batches, and the completed-code stream the
/// protocol would record: leaves, children eliminated at insertion, then
/// children never expanded (pruned when popped).
fn expand_pass<E: Expander>(expander: &mut E, codes: &[Code]) -> (f64, Vec<Code>) {
    let expanded: HashSet<&Code> = codes.iter().collect();
    let mut incumbent = f64::INFINITY;
    let mut completed = Vec::with_capacity(codes.len());
    let mut pruned = Vec::new();
    let mut batch_ns = Vec::with_capacity(codes.len() / EXPAND_BATCH + 1);
    let mut results = Vec::with_capacity(EXPAND_BATCH);
    for batch in codes.chunks(EXPAND_BATCH) {
        results.clear();
        let t = Instant::now();
        for code in batch {
            results.push(black_box(expander.expand(black_box(code))));
        }
        batch_ns.push(t.elapsed().as_nanos() as f64 / batch.len() as f64);
        for (code, e) in batch.iter().zip(&results) {
            if let Some(v) = e.solution {
                incumbent = incumbent.min(v);
            }
            let Some(pair) = e.children else {
                completed.push(code.clone());
                continue;
            };
            for (bit, bound) in [(false, pair.left_bound), (true, pair.right_bound)] {
                let child = code.child(pair.var, bit);
                if bound >= incumbent {
                    completed.push(child);
                } else if !expanded.contains(&child) {
                    pruned.push(child);
                }
            }
        }
    }
    completed.extend(pruned);
    (median(&batch_ns).unwrap_or(0.0), completed)
}

/// Median over repetitions of `f`'s ns per item.
fn micro_ns(items: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..MICRO_REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / items.max(1) as f64
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

/// `CodeSet::insert` ns per code over the completed stream, and
/// `CodeSet::complement` ns per call on a table holding its first half.
fn table_ns(completed: &[Code]) -> (f64, f64) {
    let insert = micro_ns(completed.len(), || {
        let mut set = CodeSet::new();
        for c in completed {
            black_box(set.insert(c));
        }
        black_box(set.node_count());
    });
    let mut half = CodeSet::new();
    for c in &completed[..completed.len() / 2] {
        half.insert(c);
    }
    // A complement of a large table takes milliseconds; a few calls per
    // repetition outlast the clock's resolution on small ones.
    let calls = 4;
    let complement = micro_ns(calls, || {
        for _ in 0..calls {
            black_box(half.complement());
        }
    });
    (insert, complement)
}

/// `encode_frame` and `decode_frame` ns per frame, over `WorkReport` frames
/// built from the completed stream and `WorkGrant` frames built from the
/// expanded stream. Fails when a frame does not decode to what was
/// encoded.
fn codec_ns(codes: &[Code], completed: &[Code], incumbent: f64) -> Result<(f64, f64), String> {
    let reports = completed.chunks(REPORT_CODES).map(|chunk| Msg::WorkReport {
        codes: chunk.to_vec(),
        incumbent,
    });
    let grants = codes.chunks(2).map(|chunk| Msg::WorkGrant {
        items: chunk
            .iter()
            .map(|c| GrantItem {
                code: c.clone(),
                bound: 0.5,
            })
            .collect(),
        incumbent,
    });
    let envelopes: Vec<Envelope> = reports
        .chain(grants)
        .take(MAX_FRAMES)
        .map(|msg| Envelope {
            job: JobId::DEFAULT,
            from: 1,
            msg,
        })
        .collect();
    let frames: Vec<_> = envelopes
        .iter()
        .map(|e| encode_frame(e, 0, 0, &[]))
        .collect();
    for (env, frame) in envelopes.iter().zip(&frames) {
        match decode_frame(&frame.bytes) {
            Ok(WireFrame::Protocol { env: got, .. }) if got == *env => {}
            other => return Err(format!("codec round trip failed: {other:?}")),
        }
    }
    let encode = micro_ns(envelopes.len(), || {
        for e in &envelopes {
            black_box(encode_frame(black_box(e), 0, 0, &[]));
        }
    });
    let decode = micro_ns(frames.len(), || {
        for f in &frames {
            let _ = black_box(decode_frame(black_box(&f.bytes)));
        }
    });
    Ok((encode, decode))
}

/// ns per expansion of a one-node in-process cluster
/// (`ftbb_runtime::harness::run_cluster`), checked against the optimum.
fn solo_ns<P>(problem: &P, optimum: Option<f64>) -> Result<f64, String>
where
    P: BranchBound + Clone + Send + Sync + 'static,
    P::Node: Send,
{
    let t = Instant::now();
    let out = run_cluster(problem, &ClusterConfig::new(1));
    let wall = t.elapsed().as_secs_f64();
    if !out.all_terminated || out.best.map(f64::to_bits) != optimum.map(f64::to_bits) {
        return Err(format!(
            "in-process node ended with {:?} (terminated: {}), optimum {optimum:?}",
            out.best, out.all_terminated
        ));
    }
    let expanded: u64 = out.nodes.iter().map(|n| n.metrics.expanded).sum();
    Ok(wall * 1e9 / expanded.max(1) as f64)
}

/// Layer numbers that need only the instance, not a cluster.
#[derive(Debug, Default)]
struct Micro {
    seq_ns: f64,
    seq_expansions: u64,
    expand_ns: f64,
    solo_ns: f64,
    insert_ns: f64,
    complement_ns: f64,
    encode_ns: f64,
    decode_ns: f64,
}

impl Micro {
    fn bookkeeping_ns(&self) -> f64 {
        self.solo_ns - self.expand_ns
    }

    fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::value("bnb.seq_ns_per_expansion", "ns", self.seq_ns),
            Metric::value("bnb.seq_expansions", "count", self.seq_expansions as f64),
            Metric::value("core.expand_ns", "ns", self.expand_ns),
            Metric::value(
                "core.rebuild_ratio",
                "x",
                self.expand_ns / self.seq_ns.max(f64::MIN_POSITIVE),
            ),
            Metric::value("runtime.solo_ns_per_expansion", "ns", self.solo_ns),
            Metric::value(
                "runtime.bookkeeping_ns_per_expansion",
                "ns",
                self.bookkeeping_ns(),
            ),
            Metric::value("tree.insert_ns", "ns", self.insert_ns),
            Metric::value("tree.complement_ns", "ns", self.complement_ns),
            Metric::value("wire.encode_ns", "ns", self.encode_ns),
            Metric::value("wire.decode_ns", "ns", self.decode_ns),
        ]
    }
}

/// The instance-only layer numbers of `problem`, whose sequential solve
/// `seq_s` timings took and whose expansions `expander` replays.
fn micro<P, E>(
    ctx: &mut Ctx,
    problem: &P,
    mut expander: E,
    seq_s: &[f64],
    optimum: Option<f64>,
) -> Result<Micro, String>
where
    P: BranchBound + Clone + Send + Sync + 'static,
    P::Node: Send,
    E: Expander,
{
    let parent = ctx.spans.open("layers", None);
    let codes = ctx
        .spans
        .leaf("bnb.solve_observed", Some(parent), || code_stream(problem));
    let seq_expansions = codes.len() as u64;
    let seq_ns = median(seq_s).unwrap_or(0.0) * 1e9 / seq_expansions.max(1) as f64;
    let (expand_ns, completed) = ctx.spans.leaf("core.expand", Some(parent), || {
        expand_pass(&mut expander, &codes)
    });
    let solo = ctx.spans.leaf("runtime.run_cluster", Some(parent), || {
        solo_ns(problem, optimum)
    })?;
    let (insert_ns, complement_ns) = ctx
        .spans
        .leaf("tree.codeset", Some(parent), || table_ns(&completed));
    let incumbent = optimum.unwrap_or(f64::INFINITY);
    let (encode_ns, decode_ns) = ctx.spans.leaf("wire.codec", Some(parent), || {
        codec_ns(&codes, &completed, incumbent)
    })?;
    ctx.spans.close(parent);
    Ok(Micro {
        seq_ns,
        seq_expansions,
        expand_ns,
        solo_ns: solo,
        insert_ns,
        complement_ns,
        encode_ns,
        decode_ns,
    })
}

/// Seconds from the launcher's kill to the first matching event after it.
fn after_kill(report: &ClusterReport, kind: &str) -> Option<f64> {
    let kill = report
        .timeline
        .iter()
        .find(|e| e.kind == "kill" && e.field("source") == Some("launcher"))?;
    report
        .timeline
        .iter()
        .find(|e| e.kind == kind && e.t_us >= kill.t_us)
        .map(|e| (e.t_us - kill.t_us) as f64 / 1e6)
}

/// First recovery to the last halt, seconds.
fn recovery_span(report: &ClusterReport) -> Option<f64> {
    let first = report.timeline.iter().find(|e| e.kind == "recovery")?;
    let halt = report.timeline.iter().rev().find(|e| e.kind == "halt")?;
    Some(halt.t_us.saturating_sub(first.t_us) as f64 / 1e6)
}

/// Summed wall seconds and Figure-3 phase seconds over the survivors'
/// final `FTBB-METRICS` snapshots.
fn phase_sums(report: &ClusterReport) -> (f64, PhaseTimes) {
    let mut elapsed = 0.0;
    let mut sum = PhaseTimes::default();
    for m in report.metrics.iter().filter_map(|series| series.last()) {
        elapsed += m.elapsed_s;
        add_phases(&mut sum, &m.phase);
    }
    (elapsed, sum)
}

fn add_phases(sum: &mut PhaseTimes, p: &PhaseTimes) {
    sum.expand_s += p.expand_s;
    sum.communicate_s += p.communicate_s;
    sum.contract_s += p.contract_s;
    sum.load_balance_s += p.load_balance_s;
    sum.membership_s += p.membership_s;
    sum.idle_s += p.idle_s;
    sum.checkpoint_s += p.checkpoint_s;
}

/// Per-solve numbers of one traced solve.
fn traced_numbers(s: &Solve) -> Vec<(&'static str, f64)> {
    let r = &s.report;
    let outcomes: Vec<_> = r.outcomes.iter().flatten().collect();
    let sum = |f: &dyn Fn(&ParsedOutcome) -> u64| -> f64 {
        outcomes.iter().map(|o| f(o)).sum::<u64>() as f64
    };
    let expanded = (s.expanded.max(1)) as f64;
    let frames_flushed = sum(&|o| o.transport.frames_flushed);
    let (elapsed, p) = phase_sums(r);
    let elapsed = elapsed.max(f64::MIN_POSITIVE);
    vec![
        (
            "core.work_inflation",
            s.expanded as f64 / s.seq_expansions as f64,
        ),
        ("core.pruned_at_pop", sum(&|o| o.pruned_at_pop)),
        ("core.recoveries", sum(&|o| o.recoveries)),
        (
            "wire.frames_per_expansion",
            sum(&|o| o.transport.sent) / expanded,
        ),
        (
            "wire.bytes_per_expansion",
            sum(&|o| o.transport.sent_wire_bytes) / expanded,
        ),
        (
            "wire.writes_per_frame",
            if frames_flushed > 0.0 {
                sum(&|o| o.transport.flushes) / frames_flushed
            } else {
                0.0
            },
        ),
        (
            "wire.dropped",
            sum(&|o| {
                let t = &o.transport;
                t.dropped_full
                    + t.dropped_disconnected
                    + t.dropped_no_route
                    + t.dropped_startup
                    + t.dropped_stale
            }),
        ),
        (
            "gossip.kill_to_suspect_s",
            after_kill(r, "suspect").unwrap_or(0.0),
        ),
        (
            "core.kill_to_first_recovery_s",
            after_kill(r, "recovery").unwrap_or(0.0),
        ),
        ("core.recovery_span_s", recovery_span(r).unwrap_or(0.0)),
        ("phase.expand_share", p.expand_s / elapsed),
        ("phase.communicate_share", p.communicate_s / elapsed),
        ("phase.contract_share", p.contract_s / elapsed),
        ("phase.load_balance_share", p.load_balance_s / elapsed),
        ("phase.membership_share", p.membership_s / elapsed),
        ("phase.idle_share", p.idle_s / elapsed),
    ]
}

/// The unit a per-layer metric is published with.
fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .expect("every traced number is a published per-layer metric")
}

/// The attribution table: the survivors' summed wall split into modelled
/// expansion and bookkeeping time and the measured non-Expand phases, with
/// the unexplained residual. Returns the text and `|residual| / wall`.
fn attribution(solves: &[Solve], m: &Micro) -> (String, f64) {
    let mut elapsed = 0.0;
    let mut p = PhaseTimes::default();
    let mut expanded = 0.0;
    for s in solves {
        let (e, phases) = phase_sums(&s.report);
        elapsed += e;
        add_phases(&mut p, &phases);
        expanded += s.expanded as f64;
    }
    let wall = elapsed.max(f64::MIN_POSITIVE);
    let rows = [
        ("expansions x core.expand_ns", expanded * m.expand_ns / 1e9),
        (
            "expansions x runtime.bookkeeping_ns",
            expanded * m.bookkeeping_ns() / 1e9,
        ),
        ("Communicate", p.communicate_s),
        ("Contract", p.contract_s),
        ("LoadBalance", p.load_balance_s),
        ("Membership", p.membership_s),
        ("Idle", p.idle_s),
        ("Checkpoint", p.checkpoint_s),
    ];
    let explained: f64 = rows.iter().map(|r| r.1).sum();
    let residual = elapsed - explained;
    let mut text = format!(
        "attribution over {} traced solves: summed node wall {:.3} s, {:.0} expansions \
         (phase clock's own Expand: {:.3} s)\n",
        solves.len(),
        elapsed,
        expanded,
        p.expand_s
    );
    for (name, secs) in rows
        .iter()
        .chain([("unexplained residual", residual)].iter())
    {
        let _ = writeln!(
            text,
            "  {name:<38} {secs:>9.3} s  {:>7.1}%",
            100.0 * secs / wall
        );
    }
    (text, residual.abs() / wall)
}

/// Per-layer metrics only the DES has, reported as zero on real
/// workloads.
const SIM_ONLY: [&str; 8] = [
    "des.events_per_s",
    "sim.exec_s",
    "sim.messages",
    "sim.msgs_per_proc",
    "sim.bytes_per_proc",
    "sim.bound_broadcasts",
    "sim.redundant_expansions",
    "sim.storage_peak_bytes",
];

/// The traced pass of a real workload.
pub fn measure_real_traced(w: &RealWorkload, ctx: &mut Ctx) -> RunOutcome {
    let mut out = RunOutcome::default();
    let start = Instant::now();
    let chosen: Vec<Chosen> = match choose(w, ctx) {
        Ok((chosen, _)) => chosen,
        Err(e) => {
            out.tally.record::<()>("instance scan", Err(e));
            return out;
        }
    };
    let first = &chosen[0];
    let seq_s: Vec<f64> = (0..MICRO_REPS)
        .filter_map(|_| out.tally.record("sequential", timed_seq(first)))
        .collect();
    let micro = micro(
        ctx,
        &first.instance,
        ProblemExpander::new(first.instance.clone()),
        &seq_s,
        Some(first.optimum),
    );
    let Some(micro) = out.tally.record("layer microbenchmarks", micro) else {
        return out;
    };

    // Traced and untraced solves of the same instance, in pairs, over
    // whole cycles of the run's instances until the measuring time is
    // spent (at least one cycle).
    let trace_root = ctx
        .out_dir
        .join("traces")
        .join(format!("{}-seed{}", w.name, ctx.seed));
    let parent = ctx.spans.open("traced_solves", None);
    let mut traced: Vec<Solve> = Vec::new();
    let mut ratios = Vec::new();
    let remaining = ctx.seconds - start.elapsed().as_secs_f64();
    for_cycles(remaining, || {
        for (i, c) in chosen.iter().enumerate() {
            let dir = trace_root.join(format!("solve-{}", traced.len()));
            let _ = std::fs::remove_dir_all(&dir);
            let with = solve_once(w, ctx, i, c, Some(dir), Some(parent));
            let with = out
                .tally
                .record(&format!("traced instance {}", c.seed), with);
            let without = solve_once(w, ctx, i, c, None, Some(parent));
            let without = out.tally.record(&format!("instance {}", c.seed), without);
            if let (Some(a), Some(b)) = (with, without) {
                ratios.push(a.wall_s / b.wall_s);
                traced.push(a);
            }
        }
    });
    ctx.spans.close(parent);

    out.metrics.extend(micro.metrics());
    let per_solve: Vec<Vec<(&str, f64)>> = traced.iter().map(traced_numbers).collect();
    if let Some(names) = per_solve.first() {
        for (k, (name, _)) in names.iter().enumerate() {
            let samples: Vec<f64> = per_solve.iter().map(|row| row[k].1).collect();
            if let Some(m) = Metric::median_of(name, unit_of(name), &samples) {
                out.metrics.push(m);
            }
        }
    }
    if let Some(m) = Metric::median_of("telemetry.overhead_ratio", "x", &ratios) {
        out.metrics.push(m);
    }
    if !traced.is_empty() {
        let (text, unexplained) = attribution(&traced, &micro);
        out.text.push(text);
        out.metrics.push(Metric::value(
            "attribution.unexplained_share",
            "share",
            unexplained,
        ));
    }
    out.metrics
        .extend(SIM_ONLY.map(|n| Metric::value(n, unit_of(n), 0.0)));
    out.provenance.push((
        "instance (generator seed:sequential expansions)".into(),
        format!("{}:{}", first.seed, first.seq_expansions),
    ));
    out.provenance
        .push(("traced solve pairs".into(), traced.len().to_string()));
    out.provenance
        .push(("node traces".into(), trace_root.display().to_string()));
    out
}

/// The traced pass of the DES workload.
pub fn measure_des_traced(w: &DesWorkload, ctx: &mut Ctx) -> RunOutcome {
    let mut out = RunOutcome::default();
    let (tree, _) = des_setup(w, ctx);
    let problem = BasicTreeProblem::new((*tree).clone());
    let seq_s: Vec<f64> = (0..MICRO_REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(solve(&problem, &SolveConfig::default()).best);
            t.elapsed().as_secs_f64()
        })
        .collect();
    let micro = micro(
        ctx,
        &problem,
        TreeExpander::new(tree.clone()),
        &seq_s,
        tree.optimal(),
    );
    let Some(micro) = out.tally.record("layer microbenchmarks", micro) else {
        return out;
    };
    let parent = ctx.spans.open("simulations", None);
    let plain = simulate(&tree, &sim_config(w, false), &mut ctx.spans, Some(parent));
    let traced = simulate(&tree, &sim_config(w, true), &mut ctx.spans, Some(parent));
    ctx.spans.close(parent);
    let plain = out.tally.record("simulation", plain);
    let traced = out.tally.record("traced simulation", traced);
    let (Some((wall, r)), Some((traced_wall, _))) = (plain, traced) else {
        return out;
    };

    let procs = r.procs.len().max(1) as f64;
    let (mut busy, mut expand, mut comm, mut lb, mut contract, mut idle) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    for p in &r.procs {
        let t = &p.times;
        busy += t.busy().as_secs_f64();
        expand += (t.bb + t.redundant).as_secs_f64();
        comm += t.comm.as_secs_f64();
        lb += t.lb.as_secs_f64();
        contract += t.contract.as_secs_f64();
        idle += p.idle.as_secs_f64();
    }
    let total = (busy + idle).max(f64::MIN_POSITIVE);
    out.metrics.extend(micro.metrics());
    out.metrics.extend([
        Metric::value(
            "core.work_inflation",
            "x",
            r.totals.expanded as f64 / micro.seq_expansions.max(1) as f64,
        ),
        Metric::value("core.pruned_at_pop", "count", r.totals.pruned_at_pop as f64),
        Metric::value("core.recoveries", "count", r.totals.recoveries as f64),
        Metric::value("wire.frames_per_expansion", "frames/exp", 0.0),
        Metric::value("wire.bytes_per_expansion", "B/exp", 0.0),
        Metric::value("wire.writes_per_frame", "x", 0.0),
        Metric::value("wire.dropped", "count", 0.0),
        Metric::value("gossip.kill_to_suspect_s", "s", 0.0),
        Metric::value("core.kill_to_first_recovery_s", "s", 0.0),
        Metric::value("core.recovery_span_s", "s", 0.0),
        Metric::value("phase.expand_share", "share", expand / total),
        Metric::value("phase.communicate_share", "share", comm / total),
        Metric::value("phase.contract_share", "share", contract / total),
        Metric::value("phase.load_balance_share", "share", lb / total),
        Metric::value("phase.membership_share", "share", 0.0),
        Metric::value("phase.idle_share", "share", idle / total),
        Metric::value("telemetry.overhead_ratio", "x", traced_wall / wall),
        Metric::value("attribution.unexplained_share", "share", 0.0),
        Metric::value(
            "des.events_per_s",
            "1/s",
            r.engine.events_dispatched as f64 / wall,
        ),
        Metric::value("sim.exec_s", "s", r.exec_time.as_secs_f64()),
        Metric::value("sim.messages", "count", r.net.messages_sent as f64),
        Metric::value(
            "sim.msgs_per_proc",
            "count",
            r.net.messages_sent as f64 / procs,
        ),
        Metric::value("sim.bytes_per_proc", "B", r.net.bytes_sent as f64 / procs),
        Metric::value(
            "sim.bound_broadcasts",
            "count",
            r.totals.bound_broadcasts as f64,
        ),
        Metric::value(
            "sim.redundant_expansions",
            "count",
            r.redundant_expansions as f64,
        ),
        Metric::value("sim.storage_peak_bytes", "B", r.storage_peak_bytes as f64),
    ]);
    out.text.push(format!(
        "simulation: {:.3} s simulated, {} messages, {} events in {:.3} s wall \
         ({:.3} s with state timelines)\n",
        r.exec_time.as_secs_f64(),
        r.net.messages_sent,
        r.engine.events_dispatched,
        wall,
        traced_wall
    ));
    out.provenance
        .push(("SimConfig::seed".into(), w.sim_seed.to_string()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbb_bnb::{solve, Correlation, KnapsackInstance};

    #[test]
    fn completed_stream_contracts_to_the_root() {
        let problem = KnapsackInstance::generate(14, 60, Correlation::Strong, 0.5, 3);
        let codes = code_stream(&problem);
        assert_eq!(
            codes.len() as u64,
            solve(&problem, &SolveConfig::default()).stats.expanded
        );
        let (ns, completed) = expand_pass(&mut ProblemExpander::new(problem), &codes);
        assert!(ns > 0.0);
        let mut set = CodeSet::new();
        for c in &completed {
            set.insert(c);
        }
        // Every subtree completed: the table contracts to the root.
        assert!(set.is_root_done());
        assert!(set.complement().is_empty());
    }

    #[test]
    fn codec_round_trips_workload_frames() {
        let problem = KnapsackInstance::generate(12, 60, Correlation::Weak, 0.5, 5);
        let codes = code_stream(&problem);
        let (_, completed) = expand_pass(&mut ProblemExpander::new(problem), &codes);
        let (enc, dec) = codec_ns(&codes, &completed, -42.0).unwrap();
        assert!(enc > 0.0 && dec > 0.0);
    }
}
