//! Benchmarks of the telemetry layer — the overhead question every
//! observability PR must answer: what does tracing cost the node that
//! emits it?
//!
//! `emit` measures one event through [`ftbb_core::Telemetry`] in its
//! three regimes: disabled (the everyone-else path — one `Option` check),
//! enabled into an in-memory writer (the deployed path: format + bounded
//! channel handoff; the writer thread does the I/O), and saturated (queue
//! full — the shed path, which must stay cheap because it is what
//! protects the event pump). `jsonl` measures the trace codec both ways,
//! `metrics_line` the `FTBB-METRICS` stdout codec, and `engine_solve`
//! whole single-node solves with telemetry off vs on — the end-to-end
//! number recorded in `BENCH_telemetry.json`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ftbb_bnb::{Correlation, KnapsackInstance};
use ftbb_core::{
    BnbProcess, Expander, JobId, PhaseTimes, ProblemExpander, ProtocolConfig, Telemetry, TraceEvent,
};
use ftbb_runtime::{CrashSwitch, JobEngine, Mesh, MetricsSnapshot, ServiceEngine};
use ftbb_wire::{metrics_line, parse_metrics_line};
use std::time::Duration;

fn bench_emit(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_emit");

    group.bench_function("disabled", |b| {
        let t = Telemetry::disabled();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            t.emit("bench", &[("i", i.to_string())]);
            black_box(&t);
        });
    });

    group.bench_function("enabled_sink", |b| {
        let t = Telemetry::to_writer(0, 0, Box::new(std::io::sink()));
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            t.emit("bench", &[("i", i.to_string())]);
            black_box(&t);
        });
    });

    group.bench_function("saturated_drop", |b| {
        // A writer that never drains: after the tiny queue fills, every
        // emit takes the shed path. This is the cost the event pump pays
        // when the disk stalls — it must stay O(format), never block.
        struct Stall;
        impl std::io::Write for Stall {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                std::thread::sleep(Duration::from_secs(3600));
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let t = Telemetry::with_capacity(0, 0, Box::new(Stall), 4);
        for _ in 0..16 {
            t.emit("fill", &[]);
        }
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            t.emit("bench", &[("i", i.to_string())]);
            black_box(&t);
        });
        // The stalled writer thread never exits; leak the handle instead
        // of joining it in Drop.
        std::mem::forget(t);
    });

    group.finish();
}

fn bench_jsonl(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_jsonl");
    let event = TraceEvent {
        t_us: 123_456_789,
        node: 3,
        incarnation: 1,
        job: 0,
        kind: "suspect".to_string(),
        fields: vec![
            ("peer".to_string(), "2".to_string()),
            ("hb".to_string(), "417".to_string()),
        ],
    };
    group.bench_function("encode", |b| b.iter(|| black_box(&event).to_jsonl()));
    let line = event.to_jsonl();
    group.bench_function("parse", |b| {
        b.iter(|| TraceEvent::parse_jsonl(black_box(&line)).expect("valid"))
    });
    group.finish();
}

fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        id: 2,
        job: 0,
        incarnation: 0,
        seq: 17,
        elapsed_s: 3.25,
        phase: PhaseTimes {
            expand_s: 2.0,
            communicate_s: 0.5,
            contract_s: 0.25,
            load_balance_s: 0.125,
            membership_s: 0.125,
            idle_s: 0.125,
            checkpoint_s: 0.125,
        },
        metrics: Default::default(),
        transport: Default::default(),
        trace_events_dropped: 0,
        workers: 1,
    }
}

fn bench_metrics_line(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_metrics_line");
    let snap = snapshot();
    group.bench_function("render", |b| b.iter(|| metrics_line(black_box(&snap))));
    let line = metrics_line(&snap);
    group.bench_function("parse", |b| {
        b.iter(|| parse_metrics_line(black_box(&line)).expect("valid"))
    });
    group.finish();
}

/// One full single-node solve through the engine; what the telemetry PR
/// adds to it is the number that matters.
fn solve_once(instance: &KnapsackInstance, traced: bool) -> f64 {
    let expander = ProblemExpander::new(instance.clone());
    let core = BnbProcess::new(
        0,
        vec![0],
        ProtocolConfig::default(),
        expander.root_bound(),
        true,
        7,
    );
    let mut engine = ServiceEngine::new(0, 0);
    engine.admit(JobEngine::new(JobId::DEFAULT, core, expander));
    if traced {
        engine.set_telemetry(Telemetry::to_writer(0, 0, Box::new(std::io::sink())));
        engine.set_metrics_reporter(Duration::from_millis(1), Box::new(|_| {}));
    }
    let (mesh, mut inboxes) = Mesh::new(1);
    let outcome = engine
        .run(
            &mesh,
            inboxes.pop().unwrap(),
            CrashSwitch::default(),
            Duration::from_secs(30),
        )
        .expect("not crashed");
    outcome.jobs[0].incumbent
}

fn bench_engine_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_engine_solve");
    let instance = KnapsackInstance::generate(20, 60, Correlation::Weak, 0.5, 11);
    group.bench_function("telemetry_off", |b| {
        b.iter(|| black_box(solve_once(&instance, false)))
    });
    group.bench_function("telemetry_on", |b| {
        b.iter(|| black_box(solve_once(&instance, true)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_emit,
    bench_jsonl,
    bench_metrics_line,
    bench_engine_solve
);
criterion_main!(benches);
