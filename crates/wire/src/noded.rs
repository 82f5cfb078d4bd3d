//! The body of the `ftbb-noded` binary: one protocol node per OS process.
//!
//! The daemon's startup is two-phase so clusters can be wired without a
//! port-allocation race: it binds its listener first (resolving
//! `--listen 127.0.0.1:0` to a real port), prints one machine-parseable
//! `FTBB-READY id=… addr=…` line, and — with `--peers-from-stdin` —
//! learns the peer map from `peer id=addr` stdin lines terminated by
//! `start`. It then runs the readiness barrier ([`Transport::ready`],
//! pre-establishing every peer connection) *before* injecting the
//! protocol's `Start` event, so the mesh is never half-formed when the
//! root hands out its first work grants.
//!
//! Every node is a service pump ([`ServiceEngine`]) that multiplexes jobs
//! over one mesh; the two modes share that startup and differ only in
//! how jobs arrive. A **single-run** node ([`run`]) admits job 0
//! ([`JobId::DEFAULT`]) before the pump starts and exits when it halts.
//! It materializes the instance from its spec — regenerated from
//! generator parameters, loaded from a tree file, or (with `--problem
//! wire`) received in the root's problem-announce frame — and drives the
//! *identical* [`BnbProcess`] state machine the simulator and the
//! threaded runtime use; only the transport and the clock differ. On
//! completion it prints a single machine-parseable `FTBB-OUTCOME` line to
//! stdout for the launcher to collect. A **service** node
//! ([`run_service`]) admits jobs while it runs, from `ftbb-submit`
//! clients and peer announces, until its deadline.
//!
//! **Membership** (`--gossip-servers`): instead of a static member list,
//! the daemon runs the §5.2 gossip protocol — it joins through its
//! servers, heartbeats on `--gossip-interval-s`, suspects members silent
//! past `--suspect-after-s` (they leave the load-balancing targets and
//! their unreported work becomes recovery-eligible), and forgets them
//! past `--forget-after-s`. With `--join` the daemon starts knowing
//! *only* a server address — no peer flags, no stdin wiring: it sends a
//! wire-level join frame, gets the membership Welcome back, and discovers
//! every other member (and its route, via the codec-v4 address book
//! piggybacked on membership frames) through gossip. This is how a
//! brand-new machine enters a live cluster mid-run.
//!
//! **Lifecycle**: with `--checkpoint-dir` every job persists snapshots to
//! its own `node-<id>-job-<job>.ckpt` (atomic write-rename; a single-run
//! node is job 0) at startup, every `--checkpoint-every-s`, and at clean
//! exit. With `--resume` the daemon restores those snapshots instead of
//! starting fresh (a single-run node its job 0, a service node all of
//! them): it comes back as the next **incarnation** of its node, takes
//! each problem binding from its checkpoint (no `--problem*` flags, no
//! announce wait), replays the readiness barrier for itself, and sends a
//! rejoin frame so every peer re-registers it — new address and all —
//! and starts tagging traffic for its new life. Frames addressed to (or
//! sent by) the previous life are counted and dropped as stale by the
//! transport.

use crate::codec::{encode_accepted, encode_result, RejoinSummary};
use crate::config::{NodeConfig, ProblemSpec};
use crate::lines::{render_f64_bits, render_line, Fields};
use crate::tcp::TcpMesh;
use crossbeam::channel::{Receiver, Sender};
use ftbb_bnb::AnyInstance;
use ftbb_core::{
    AnyExpander, BnbProcess, Checkpoint, CheckpointSink, Expander, JobId, PhaseTimes,
    ProtocolConfig, Telemetry, TransportStats,
};
use ftbb_des::SimTime;
use ftbb_runtime::{
    ClusterConfig, CrashSwitch, Envelope, JobEngine, JobOutcome, MetricsSnapshot, NodeOutcome,
    ServiceEngine, ServiceHooks, ServiceOutcome, Transport,
};
use std::collections::HashSet;
use std::io::{BufRead, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Extra grace past the readiness budget that a `--problem wire` node
/// waits for the root's problem announce before giving up.
const ANNOUNCE_GRACE: Duration = Duration::from_secs(15);

/// What one daemon run produced.
#[derive(Debug, Clone)]
pub struct NodedReport {
    /// The node's protocol outcome.
    pub outcome: NodeOutcome,
    /// Transport-layer counters at exit.
    pub transport: TransportStats,
    /// Trace events the telemetry sink had to shed (0 when tracing is
    /// off or the writer kept up).
    pub trace_events_dropped: u64,
    /// Expansion worker threads the node ran with (1 = inline).
    pub workers: usize,
}

/// Checkpoint file of job `job` on node `id` under `dir` — one file per
/// job, so a job completing (or a new one arriving) never rewrites
/// another job's durable state. A single-run node is job 0.
pub fn job_checkpoint_path(dir: &Path, id: u32, job: JobId) -> PathBuf {
    dir.join(format!("node-{id}-job-{}.ckpt", job.raw()))
}

/// The durable checkpoint sink: snapshots route to
/// [`job_checkpoint_path`]`(dir, id, chk.job)` by the job id each
/// checkpoint carries, via atomic write-rename (write the blob to
/// `….tmp`, then rename over the live file), so a crash mid-write can
/// never leave a torn checkpoint — the previous snapshot survives intact.
pub struct CheckpointDir {
    dir: PathBuf,
    id: u32,
}

impl CheckpointDir {
    /// Create the directory (if needed) and the sink for node `id`.
    pub fn new(dir: &Path, id: u32) -> std::io::Result<CheckpointDir> {
        std::fs::create_dir_all(dir)?;
        Ok(CheckpointDir {
            dir: dir.to_path_buf(),
            id,
        })
    }
}

impl CheckpointSink for CheckpointDir {
    fn store(&mut self, chk: &Checkpoint) -> Result<(), String> {
        let path = job_checkpoint_path(&self.dir, self.id, chk.job);
        let tmp = path.with_extension("ckpt.tmp");
        std::fs::write(&tmp, chk.encode()).map_err(|e| format!("write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path).map_err(|e| format!("rename into {}: {e}", path.display()))
    }
}

/// Scan `dir` for node `id`'s checkpoints (the [`job_checkpoint_path`]
/// layout) and decode every one, sorted by job. Corrupt or foreign files
/// are errors — a restore must never silently drop a job.
pub fn scan_checkpoints(dir: &Path, id: u32) -> std::io::Result<Vec<Checkpoint>> {
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let prefix = format!("node-{id}-job-");
    let mut found = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| {
        std::io::Error::new(
            e.kind(),
            format!("cannot read checkpoint directory {}: {e}", dir.display()),
        )
    })?;
    for entry in entries {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if !name.starts_with(&prefix) || !name.ends_with(".ckpt") {
            continue;
        }
        let blob = std::fs::read(&path)?;
        let chk = Checkpoint::decode(&blob)
            .map_err(|e| bad(format!("corrupt checkpoint {}: {e}", path.display())))?;
        if chk.me != id {
            return Err(bad(format!(
                "checkpoint {} belongs to node {}, not node {id}",
                path.display(),
                chk.me
            )));
        }
        found.push(chk);
    }
    // Deterministic admission order regardless of directory iteration.
    found.sort_by_key(|chk| chk.job);
    Ok(found)
}

/// What one service-mode daemon run produced.
#[derive(Debug)]
pub struct ServiceReport {
    /// The pump's outcome: one [`JobOutcome`] per admitted job.
    pub outcome: ServiceOutcome,
    /// Transport-layer counters at exit.
    pub transport: TransportStats,
    /// Trace events the telemetry sink had to shed.
    pub trace_events_dropped: u64,
}

/// Run one node to completion (termination, deadline, or config-driven
/// crash): a service pump with job 0 admitted up front that exits when
/// that job halts.
pub fn run(cfg: &NodeConfig) -> std::io::Result<NodedReport> {
    startup(cfg)?.run_single(cfg)
}

/// Run one node as a member of a long-lived solve pool: admit jobs from
/// `ftbb-submit` clients (becoming their gateway) and from peer
/// announces, multiplex every live job over the one mesh, and stream
/// results back to submitters until the deadline (or a config-driven
/// crash).
pub fn run_service(cfg: &NodeConfig) -> std::io::Result<ServiceReport> {
    startup(cfg)?.serve(cfg)
}

/// A node past startup: listener bound and announced, topology learned,
/// mesh up and past the readiness barrier, engine configured, and every
/// restored job admitted. The two modes differ only in what comes next.
struct Node {
    mesh: TcpMesh,
    inbox: Receiver<Envelope>,
    telemetry: Telemetry,
    engine: ServiceEngine<AnyExpander>,
    protocol: ProtocolConfig,
    /// The statically wired peers (empty for a lone node or a joiner).
    peers: Vec<(u32, SocketAddr)>,
    members: Vec<u32>,
    /// Jobs restored from checkpoints, already admitted to `engine`.
    restored: HashSet<JobId>,
}

/// The one startup path both modes share: bind and print the ready line,
/// learn the wiring, resolve the gossip servers, load checkpoints (with
/// `--resume`), open the trace, build the mesh, run the readiness
/// barrier, and configure the engine with the restored jobs admitted.
fn startup(cfg: &NodeConfig) -> std::io::Result<Node> {
    cfg.validate()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
    let bad_input = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg);

    // Phase 1: bind the listener (resolving `:0`) and announce the
    // address, so whoever spawned us can wire the cluster race-free.
    let listener = TcpListener::bind(cfg.listen)?;
    let local_addr = listener.local_addr()?;
    println!("{}", ready_line(cfg.id, local_addr));
    std::io::stdout().flush()?;

    // Phase 2: learn the topology — from stdin when wired by a
    // launcher, from the parsed config otherwise.
    let peers = if cfg.peers_from_stdin {
        read_peer_wiring(std::io::stdin().lock())?
    } else {
        cfg.peers.clone()
    };
    if peers.iter().any(|&(id, _)| id == cfg.id) {
        return Err(bad_input(format!("peer wiring contains own id {}", cfg.id)));
    }
    let members = crate::config::member_ids(cfg.id, &peers);

    // Membership mode: resolve the gossip-server roster against the
    // wiring. Addressed entries (`0=HOST:PORT`) become mesh routes on
    // their own — the elastic-join path, where no wiring exists; bare
    // ids must already be wired.
    let mut mesh_peers = peers.clone();
    for &(sid, addr) in &cfg.gossip_servers {
        if sid == cfg.id {
            continue;
        }
        match addr {
            Some(a) => {
                if !mesh_peers.iter().any(|&(id, _)| id == sid) {
                    mesh_peers.push((sid, a));
                }
            }
            None => {
                if !peers.iter().any(|&(id, _)| id == sid) {
                    return Err(bad_input(format!(
                        "gossip server {sid} has no address and is not in the peer wiring; \
                         give it as {sid}=HOST:PORT"
                    )));
                }
            }
        }
    }

    // Resuming? Load the snapshots *before* the mesh exists: the mesh
    // must be born as the next incarnation so every frame it emits is
    // tagged for the new life. A service node rejoins every job it left
    // behind; a single-run node only its job 0.
    let restored: Vec<Checkpoint> = if cfg.resume {
        let dir = cfg.checkpoint_dir.as_ref().expect("validated with resume");
        let mut found = scan_checkpoints(dir, cfg.id)?;
        if !cfg.service {
            found.retain(|chk| chk.job == JobId::DEFAULT);
        }
        if found.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!(
                    "no checkpoint to resume for node {} under {}",
                    cfg.id,
                    dir.display()
                ),
            ));
        }
        found
    } else {
        Vec::new()
    };
    // One incarnation per node life, shared by every restored job.
    let incarnation = restored
        .iter()
        .map(|chk| chk.incarnation + 1)
        .max()
        .unwrap_or(0);

    // Structured tracing: with `--trace-file` every lifecycle event of
    // this node (and of its engine) lands as one JSONL record. The file
    // is opened in append mode so a restarted node's lives accumulate in
    // one per-node trace.
    let telemetry = match &cfg.trace_file {
        Some(path) => {
            let file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            Telemetry::to_writer(cfg.id, incarnation, Box::new(file))
        }
        None => Telemetry::disabled(),
    };
    telemetry.emit(
        "node_start",
        &[
            ("addr", local_addr.to_string()),
            ("peers", peers.len().to_string()),
            ("resume", cfg.resume.to_string()),
            ("join", cfg.join.to_string()),
            ("service", cfg.service.to_string()),
        ],
    );

    let (mesh, inbox) = TcpMesh::from_listener_incarnated_with(
        cfg.id,
        incarnation,
        listener,
        &mesh_peers,
        cfg.wire_config(),
    )?;

    // Phase 3: readiness barrier — pre-establish every peer connection
    // before `Start`, so the first work grants cannot vanish into
    // listeners that are still coming up. A rejoining node replays this
    // same barrier for itself: its peers are live, so it connects fast.
    // A peer that never appears is the Crash model's problem; start
    // anyway once the budget is spent.
    if !mesh.ready(Duration::from_secs_f64(cfg.preconnect_s)) {
        telemetry.emit(
            "barrier_timeout",
            &[("budget_s", cfg.preconnect_s.to_string())],
        );
        eprintln!(
            "ftbb-noded: readiness barrier timed out after {}s; starting on a partial mesh",
            cfg.preconnect_s
        );
    }

    // Elastic join: introduce this node to its gossip servers at the
    // wire level (id, incarnation, listen address) so the reverse route
    // exists before the protocol-level membership Join asks for a
    // Welcome over it.
    if cfg.join {
        telemetry.emit("join", &[("servers", mesh_peers.len().to_string())]);
        eprintln!(
            "ftbb-noded: node {} joining through {} gossip server(s)",
            cfg.id,
            mesh_peers.len()
        );
        mesh.send_join();
    }

    // Millisecond-scale protocol timers, same profile as the threaded
    // harness (ClusterConfig::new); node count only sizes defaults. In
    // membership mode the gossip knobs ride along — including into
    // restore, where the checkpoint's gossip binding expects them.
    let protocol = {
        let mut p = ClusterConfig::new(members.len() as u32).protocol;
        p.membership = cfg.membership();
        p.bound_flush_s = cfg.bound_flush_s;
        p
    };

    // The engine inherits the node's trace sink, and — with
    // `--metrics-every-s` — reports interval `FTBB-METRICS` lines on
    // stdout, flushed per line so the launcher can tail them live.
    let mut engine: ServiceEngine<AnyExpander> = ServiceEngine::new(cfg.id, incarnation);
    engine.set_telemetry(telemetry.clone());
    engine.set_workers(cfg.workers);
    if let Some(every_s) = cfg.metrics_every_s {
        engine.set_metrics_reporter(
            Duration::from_secs_f64(every_s),
            Box::new(|snap: &MetricsSnapshot| {
                println!("{}", metrics_line(snap));
                let _ = std::io::stdout().flush();
            }),
        );
    }

    // The restored jobs are admitted before the pump starts — state and
    // problem binding come from each checkpoint; one rejoin frame
    // (aggregated across jobs) re-registers this node's new life with
    // every peer. All of this happens after the readiness barrier, so
    // handshake frames ride connections that already exist.
    for chk in &restored {
        let job = JobEngine::restore(
            chk,
            protocol.clone(),
            ftbb_runtime::node_seed(cfg.seed ^ chk.job.raw(), cfg.id),
        )
        .map_err(bad_input)?;
        telemetry.emit(
            "job_restored",
            &[
                ("job", chk.job.raw().to_string()),
                ("table_codes", chk.table.len().to_string()),
                ("pooled", chk.pool.len().to_string()),
                ("incumbent", chk.incumbent.to_string()),
            ],
        );
        engine.admit(job);
    }
    if !restored.is_empty() {
        let summary = RejoinSummary {
            incumbent: restored
                .iter()
                .map(|chk| chk.incumbent)
                .fold(f64::INFINITY, f64::min),
            table_codes: restored.iter().map(|chk| chk.table.len() as u32).sum(),
            pool_len: restored.iter().map(|chk| chk.pool.len() as u32).sum(),
        };
        eprintln!(
            "ftbb-noded: node {} resuming as incarnation {incarnation} ({} job(s), {} table \
             codes, {} pooled, incumbent {})",
            cfg.id,
            restored.len(),
            summary.table_codes,
            summary.pool_len,
            summary.incumbent
        );
        mesh.send_rejoin(summary);
    }

    Ok(Node {
        mesh,
        inbox,
        telemetry,
        engine,
        protocol,
        peers,
        members,
        restored: restored.iter().map(|chk| chk.job).collect(),
    })
}

/// A job-admission loop run beside the pump on its own thread (service
/// mode); told to stop through the flag once the pump exits.
type Beside<'a> = Box<dyn FnOnce(&TcpMesh, &AtomicBool) + Send + 'a>;

impl Node {
    /// Single-run mode: admit job 0 — restored at startup, or fresh from
    /// the concrete spec, the root's announce, or `--join` — and pump
    /// until it halts.
    fn run_single(mut self, cfg: &NodeConfig) -> std::io::Result<NodedReport> {
        if self.restored.is_empty() {
            let job = self.fresh_job(cfg)?;
            self.engine.admit(job);
        }
        let (outcome, transport, trace_events_dropped) = self.pump(cfg, None)?;
        Ok(NodedReport {
            outcome: NodeOutcome::from_single_job(outcome),
            transport,
            trace_events_dropped,
            workers: cfg.workers,
        })
    }

    /// Job 0 of a fresh single-run node. With a concrete spec the
    /// instance is materialized locally, and the root additionally
    /// announces it so `--problem wire` peers can join a computation
    /// whose instance they never generated; with `--problem wire` the
    /// node waits for that announce.
    fn fresh_job(&self, cfg: &NodeConfig) -> std::io::Result<JobEngine<AnyExpander>> {
        let bad_input = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg);
        // Same election as the threaded harness. A joiner never holds
        // the root: it enters a computation that is already running
        // somewhere else.
        let holds_root = !cfg.join && ftbb_runtime::holds_root(cfg.id, &self.members);
        let instance = match &cfg.problem {
            ProblemSpec::Wire => {
                if holds_root {
                    return Err(bad_input(format!(
                        "node {} would hold the root subproblem but has --problem wire; \
                         the root must own a concrete problem spec",
                        cfg.id
                    )));
                }
                let patience = Duration::from_secs_f64(cfg.preconnect_s) + ANNOUNCE_GRACE;
                let Some((from, _job, instance)) = self.mesh.recv_announce(patience) else {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        format!(
                            "no problem announce arrived within {:.1}s",
                            patience.as_secs_f64()
                        ),
                    ));
                };
                self.telemetry.emit(
                    "announce_recv",
                    &[
                        ("from", from.to_string()),
                        ("kind", instance.kind().to_string()),
                    ],
                );
                eprintln!(
                    "ftbb-noded: received {} instance from node {from}",
                    instance.kind()
                );
                instance
            }
            spec => {
                let instance = spec.instance().map_err(|e| bad_input(e.to_string()))?;
                if holds_root
                    && !self.peers.is_empty()
                    && !self.mesh.announce_instance(JobId::DEFAULT, &instance)
                {
                    // Not fatal: peers with concrete specs never read the
                    // announce, so this cluster still runs. Only `--problem
                    // wire` peers are affected — they will time out waiting
                    // with their own clear error.
                    self.telemetry.emit(
                        "announce_too_large",
                        &[("kind", instance.kind().to_string())],
                    );
                    eprintln!(
                        "ftbb-noded: {} instance exceeds the announce frame limit; \
                         --problem wire peers (if any) cannot be served — give every \
                         node the concrete spec instead (e.g. --problem tree-file)",
                        instance.kind()
                    );
                }
                instance
            }
        };
        Ok(build_job(
            cfg,
            &self.protocol,
            &self.members,
            SimTime::ZERO,
            JobId::DEFAULT,
            instance,
            holds_root,
        ))
    }

    /// Service mode: run to the deadline, admitting jobs from submitters
    /// and peer announces on an admission thread beside the pump.
    fn serve(mut self, cfg: &NodeConfig) -> std::io::Result<ServiceReport> {
        self.engine.daemon(true);

        // Mid-flight admission: the admission thread turns submissions
        // and peer announces into job engines; the pump drains this
        // channel.
        let (admit_tx, admit_rx) = crossbeam::channel::unbounded();
        self.engine.set_admissions(admit_rx);

        // Hooks run on the pump thread; socket writes happen on the
        // admission thread, connected by this queue.
        let (reply_tx, reply_rx) = crossbeam::channel::unbounded::<SubmitReply>();
        let incumbent_tx = reply_tx.clone();
        self.engine.set_hooks(ServiceHooks {
            on_admitted: None,
            on_incumbent: Some(Box::new(move |job, incumbent| {
                let _ = incumbent_tx.send(SubmitReply::Result {
                    job,
                    finished: false,
                    incumbent,
                    expanded: 0,
                });
            })),
            on_complete: Some(Box::new(move |outcome: &JobOutcome| {
                println!("{}", job_line(outcome));
                let _ = std::io::stdout().flush();
                let _ = reply_tx.send(SubmitReply::Result {
                    job: outcome.job,
                    finished: outcome.terminated,
                    incumbent: outcome.incumbent,
                    expanded: outcome.metrics.expanded,
                });
            })),
        });

        let protocol = self.protocol.clone();
        let members = self.members.clone();
        let telemetry = self.telemetry.clone();
        let seen = self.restored.clone();
        let epoch = Instant::now();
        let admitter: Beside<'_> = Box::new(move |mesh, stop| {
            admission_loop(
                mesh, cfg, &protocol, &members, epoch, seen, admit_tx, reply_rx, stop, &telemetry,
            )
        });
        let (outcome, transport, trace_events_dropped) = self.pump(cfg, Some(admitter))?;
        Ok(ServiceReport {
            outcome,
            transport,
            trace_events_dropped,
        })
    }

    /// The tail both modes share: arm the config-driven crash, run the
    /// pump (persisting every job with `--checkpoint-dir`) with `beside`
    /// on a scoped thread, then drain the writers and close the trace.
    /// Returns the pump's outcome, the transport counters, and the trace
    /// events shed.
    fn pump(
        self,
        cfg: &NodeConfig,
        beside: Option<Beside<'_>>,
    ) -> std::io::Result<(ServiceOutcome, TransportStats, u64)> {
        let Node {
            mesh,
            inbox,
            telemetry,
            engine,
            ..
        } = self;
        // Build the sink up front so io errors surface cleanly.
        let mut sink = match &cfg.checkpoint_dir {
            Some(dir) => Some(CheckpointDir::new(dir, cfg.id)?),
            None => None,
        };

        // Config-driven crash: a genuine process death (abort), not a
        // simulated one — peers see only silence. The clock starts after
        // the readiness barrier (and a `--problem wire` node's announce
        // wait), so `crash_at_s` measures computation time, not wiring
        // or pre-establishment time.
        if let Some(crash_at) = cfg.crash_at_s {
            let delay = Duration::from_secs_f64(crash_at.max(0.0));
            std::thread::spawn(move || {
                std::thread::sleep(delay);
                std::process::abort();
            });
        }

        let deadline = Duration::from_secs_f64(cfg.deadline_s);
        let stop = AtomicBool::new(false);
        let outcome = std::thread::scope(|scope| {
            let beside = beside.map(|f| scope.spawn(|| f(&mesh, &stop)));
            let outcome = match sink.as_mut() {
                Some(sink) => engine.run_with_sink(
                    &mesh,
                    inbox,
                    CrashSwitch::default(),
                    deadline,
                    sink,
                    Some(Duration::from_secs_f64(cfg.checkpoint_every_s)),
                ),
                None => engine.run(&mesh, inbox, CrashSwitch::default(), deadline),
            };
            stop.store(true, Ordering::Release);
            if let Some(handle) = beside {
                handle.join().expect("admission thread never panics");
            }
            outcome
        })
        .expect("crash switch is never tripped in-process");

        // Let writer threads flush queued frames so the counters reflect
        // every settled send before the snapshot.
        mesh.drain(Duration::from_millis(500));

        // Dropping the last telemetry handle (the engine's clone died
        // with the engine) joins the trace writer: the file is complete
        // before the outcome line goes out.
        let trace_events_dropped = telemetry.events_dropped();
        drop(telemetry);
        Ok((outcome, mesh.stats(), trace_events_dropped))
    }
}

/// A reply the pump's hooks queue for the admission thread to write back
/// to the submitting client (hooks run on the pump thread and must not
/// block on sockets).
enum SubmitReply {
    /// Stream one `JobResult` frame: an incumbent improvement
    /// (`finished: false`) or the job's final state (`finished:
    /// terminated`).
    Result {
        job: JobId,
        finished: bool,
        incumbent: f64,
        expanded: u64,
    },
}

/// The admission side of a service node: turn `SubmitJob` frames into
/// gateway jobs (announce the instance, hold the root, accept the
/// client), turn peer announces into follower jobs, and relay the pump's
/// result stream back to submitters.
#[allow(clippy::too_many_arguments)]
fn admission_loop(
    mesh: &TcpMesh,
    cfg: &NodeConfig,
    protocol: &ProtocolConfig,
    members: &[u32],
    epoch: Instant,
    mut seen: HashSet<JobId>,
    admit_tx: Sender<JobEngine<AnyExpander>>,
    reply_rx: Receiver<SubmitReply>,
    stop: &AtomicBool,
    telemetry: &Telemetry,
) {
    loop {
        let stopping = stop.load(Ordering::Acquire);

        // Gateway path: a client submitted a job here. Announce the
        // instance to the pool, accept the client, admit the root-holding
        // engine. Duplicate job ids are re-accepted (the client may be
        // retrying) but never admitted twice.
        if let Some((job, instance)) = mesh.recv_submit(Duration::from_millis(10)) {
            if seen.insert(job) {
                telemetry.emit(
                    "job_submitted",
                    &[
                        ("job", job.raw().to_string()),
                        ("kind", instance.kind().to_string()),
                    ],
                );
                if !mesh.announce_instance(job, &instance) {
                    eprintln!(
                        "ftbb-noded: job {} instance exceeds the announce frame limit; \
                         solving on this node alone",
                        job.raw()
                    );
                }
                mesh.send_submit_reply(job, &encode_accepted(job, cfg.id));
                let now = SimTime::from_secs_f64(epoch.elapsed().as_secs_f64());
                let _ = admit_tx.send(build_job(cfg, protocol, members, now, job, instance, true));
            } else {
                mesh.send_submit_reply(job, &encode_accepted(job, cfg.id));
            }
        }

        // Follower path: a peer is some job's gateway; its announce IS
        // the admission.
        while let Some((from, job, instance)) = mesh.recv_announce(Duration::ZERO) {
            if seen.insert(job) {
                telemetry.emit(
                    "job_announced",
                    &[
                        ("job", job.raw().to_string()),
                        ("from", from.to_string()),
                        ("kind", instance.kind().to_string()),
                    ],
                );
                let now = SimTime::from_secs_f64(epoch.elapsed().as_secs_f64());
                let _ = admit_tx.send(build_job(cfg, protocol, members, now, job, instance, false));
            }
        }

        // Result stream: incumbents and final outcomes back to whoever
        // submitted each job here. Peers' jobs have no registered
        // submitter; send_submit_reply is a no-op for them.
        while let Ok(reply) = reply_rx.try_recv() {
            let SubmitReply::Result {
                job,
                finished,
                incumbent,
                expanded,
            } = reply;
            mesh.send_submit_reply(job, &encode_result(job, finished, incumbent, expanded));
        }

        if stopping {
            // One final drain already ran above; exit.
            return;
        }
    }
}

/// Build the engine for a newly admitted job, started at pump time
/// `now`: one protocol core over the node's membership, seeded per
/// `(node, job)` so concurrent jobs make independent random choices
/// (job 0 keeps the plain node seed). Bound checkpoints are
/// self-sufficient: `--resume` needs neither a problem spec nor an
/// announce.
fn build_job(
    cfg: &NodeConfig,
    protocol: &ProtocolConfig,
    members: &[u32],
    now: SimTime,
    job: JobId,
    instance: AnyInstance,
    holds_root: bool,
) -> JobEngine<AnyExpander> {
    let expander = AnyExpander::new(instance.clone());
    let seed = ftbb_runtime::node_seed(cfg.seed ^ job.raw(), cfg.id);
    let core = if cfg.gossip_mode() {
        // Membership mode: the member list is the gossip view's alive
        // set. Wired nodes seed the view with their peer map (immediate
        // load-balancing targets whose heartbeats must then keep
        // arriving); a joiner starts knowing only its servers and learns
        // the world from the Welcome.
        let server_ids: Vec<u32> = cfg.gossip_servers.iter().map(|&(id, _)| id).collect();
        let mut p = BnbProcess::with_membership(
            cfg.id,
            server_ids,
            cfg.is_gossip_server(),
            protocol.clone(),
            expander.root_bound(),
            holds_root,
            seed,
            now,
        );
        if !cfg.join {
            p.seed_membership_view(members, now);
        }
        p
    } else {
        BnbProcess::new(
            cfg.id,
            members.to_vec(),
            protocol.clone(),
            expander.root_bound(),
            holds_root,
            seed,
        )
    };
    let mut engine = JobEngine::new(job, core, expander);
    engine.bind_problem(instance);
    engine
}

/// Render the machine-parseable readiness line a daemon prints the
/// moment its listener is bound — before it knows its peers.
pub fn ready_line(id: u32, addr: SocketAddr) -> String {
    render_line(
        "FTBB-READY",
        &[("id", id.to_string()), ("addr", addr.to_string())],
    )
}

/// Parse a line produced by [`ready_line`]. Returns `None` for
/// non-ready lines (so callers can scan whole stdout streams).
pub fn parse_ready_line(line: &str) -> Option<(u32, SocketAddr)> {
    let f = Fields::parse("FTBB-READY", line)?;
    Some((f.u32("id")?, f.get("addr")?.parse().ok()?))
}

/// Read launcher-supplied peer wiring: `peer <id>=<host>:<port>` lines
/// terminated by a `start` line. Blank lines are tolerated; anything
/// else (including EOF before `start`) is an error.
pub fn read_peer_wiring(input: impl BufRead) -> std::io::Result<Vec<(u32, SocketAddr)>> {
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let mut peers = Vec::new();
    for line in input.lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == "start" {
            return Ok(peers);
        }
        let Some(spec) = line.strip_prefix("peer ") else {
            return Err(bad(format!("unexpected wiring line `{line}`")));
        };
        peers.push(crate::config::parse_peer(spec.trim()).map_err(|e| bad(e.to_string()))?);
    }
    Err(std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        "stdin closed before `start`",
    ))
}

/// Render the machine-parseable outcome line. The incumbent is shipped as
/// raw f64 bits so the launcher compares exactly, not through decimal.
pub fn outcome_line(report: &NodedReport) -> String {
    let o = &report.outcome;
    let t = &report.transport;
    render_line(
        "FTBB-OUTCOME",
        &[
            ("id", o.id.to_string()),
            ("incarnation", o.incarnation.to_string()),
            ("terminated", o.terminated.to_string()),
            ("incumbent_bits", render_f64_bits(o.incumbent)),
            ("incumbent", o.incumbent.to_string()),
            ("expanded", o.metrics.expanded.to_string()),
            ("pruned_at_pop", o.metrics.pruned_at_pop.to_string()),
            ("recoveries", o.metrics.recoveries.to_string()),
            ("suspected", o.metrics.peers_suspected.to_string()),
            ("forgotten", o.metrics.peers_forgotten.to_string()),
            ("bound_bcast", o.metrics.bound_broadcasts.to_string()),
            ("bound_coalesced", o.metrics.bound_coalesced.to_string()),
            (
                "bound_suppressed",
                o.metrics.bound_piggybacks_suppressed.to_string(),
            ),
            (
                "mev_dropped",
                o.metrics.membership_events_dropped.to_string(),
            ),
            ("trace_dropped", report.trace_events_dropped.to_string()),
            ("workers", report.workers.to_string()),
            ("sent", t.sent.to_string()),
            ("wire_bytes", t.sent_wire_bytes.to_string()),
            ("encoded_bytes", t.sent_encoded_bytes.to_string()),
            ("dropped_full", t.dropped_full.to_string()),
            ("dropped_disconnected", t.dropped_disconnected.to_string()),
            ("dropped_no_route", t.dropped_no_route.to_string()),
            ("dropped_startup", t.dropped_startup.to_string()),
            ("dropped_stale", t.dropped_stale.to_string()),
            ("retried", t.retried.to_string()),
            ("connect_waits", t.connect_waits.to_string()),
            ("reconnects", t.reconnects.to_string()),
            ("announces_sent", t.announces_sent.to_string()),
            ("announces_recv", t.announces_recv.to_string()),
            ("rejoins", t.rejoins.to_string()),
            ("joins", t.joins.to_string()),
            ("discovered", t.peers_discovered.to_string()),
            ("flushes", t.flushes.to_string()),
            ("frames_flushed", t.frames_flushed.to_string()),
            ("membership_frames", t.membership_frames_sent.to_string()),
            ("book_entries", t.book_entries_sent.to_string()),
            ("digest_entries", t.digest_entries_sent.to_string()),
            ("bound_frames", t.bound_broadcasts.to_string()),
        ],
    )
}

/// One parsed `FTBB-OUTCOME` line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedOutcome {
    /// Node id.
    pub id: u32,
    /// Which life of the node reported (0 = never restarted).
    pub incarnation: u32,
    /// Did the node detect termination?
    pub terminated: bool,
    /// Final incumbent (exact bits).
    pub incumbent: f64,
    /// Subproblems expanded.
    pub expanded: u64,
    /// Pool entries pruned unexpanded at selection (incumbent improved
    /// after insertion; completed for termination, never expanded).
    pub pruned_at_pop: u64,
    /// Complement recoveries performed.
    pub recoveries: u64,
    /// Members suspected via heartbeat timeout (membership mode).
    pub suspected: u64,
    /// Members forgotten after the cleanup timeout (membership mode).
    pub forgotten: u64,
    /// Explicit bound-announce broadcasts the core flushed.
    pub bound_broadcasts: u64,
    /// Bound improvements coalesced into an already-pending flush.
    pub bound_coalesced: u64,
    /// Piggybacked incumbents suppressed as already-announced.
    pub bound_suppressed: u64,
    /// Membership events the core's bounded buffer had to discard.
    pub membership_events_dropped: u64,
    /// Trace events the telemetry sink's bounded queue had to discard.
    pub trace_events_dropped: u64,
    /// Expansion worker threads the node ran with (1 = inline).
    pub workers: u64,
    /// Transport counters at exit.
    pub transport: TransportStats,
}

/// Parse a line produced by [`outcome_line`]. Returns `None` for
/// non-outcome lines (so callers can scan whole stdout streams).
pub fn parse_outcome_line(line: &str) -> Option<ParsedOutcome> {
    let f = Fields::parse("FTBB-OUTCOME", line)?;
    Some(ParsedOutcome {
        id: f.u32("id")?,
        incarnation: f.u32("incarnation")?,
        terminated: f.bool("terminated")?,
        incumbent: f.f64_bits("incumbent_bits")?,
        expanded: f.u64("expanded")?,
        pruned_at_pop: f.u64("pruned_at_pop")?,
        recoveries: f.u64("recoveries")?,
        suspected: f.u64("suspected")?,
        forgotten: f.u64("forgotten")?,
        bound_broadcasts: f.u64("bound_bcast")?,
        bound_coalesced: f.u64("bound_coalesced")?,
        bound_suppressed: f.u64("bound_suppressed")?,
        membership_events_dropped: f.u64("mev_dropped")?,
        trace_events_dropped: f.u64("trace_dropped")?,
        workers: f.u64("workers")?,
        transport: TransportStats {
            sent: f.u64("sent")?,
            sent_wire_bytes: f.u64("wire_bytes")?,
            sent_encoded_bytes: f.u64("encoded_bytes")?,
            dropped_full: f.u64("dropped_full")?,
            dropped_disconnected: f.u64("dropped_disconnected")?,
            dropped_no_route: f.u64("dropped_no_route")?,
            dropped_startup: f.u64("dropped_startup")?,
            dropped_stale: f.u64("dropped_stale")?,
            retried: f.u64("retried")?,
            connect_waits: f.u64("connect_waits")?,
            reconnects: f.u64("reconnects")?,
            announces_sent: f.u64("announces_sent")?,
            announces_recv: f.u64("announces_recv")?,
            rejoins: f.u64("rejoins")?,
            joins: f.u64("joins")?,
            peers_discovered: f.u64("discovered")?,
            flushes: f.u64("flushes")?,
            frames_flushed: f.u64("frames_flushed")?,
            membership_frames_sent: f.u64("membership_frames")?,
            book_entries_sent: f.u64("book_entries")?,
            digest_entries_sent: f.u64("digest_entries")?,
            bound_broadcasts: f.u64("bound_frames")?,
        },
    })
}

/// Render the machine-parseable per-job outcome line a service node
/// prints when a job completes (and again at exit for jobs still
/// unfinished, with `terminated=false`). The incumbent ships as raw f64
/// bits so collectors compare exactly.
pub fn job_line(outcome: &JobOutcome) -> String {
    render_line(
        "FTBB-JOB",
        &[
            ("id", outcome.id.to_string()),
            ("job", outcome.job.raw().to_string()),
            ("incarnation", outcome.incarnation.to_string()),
            ("terminated", outcome.terminated.to_string()),
            ("incumbent_bits", render_f64_bits(outcome.incumbent)),
            ("incumbent", outcome.incumbent.to_string()),
            ("expanded", outcome.metrics.expanded.to_string()),
            ("recoveries", outcome.metrics.recoveries.to_string()),
        ],
    )
}

/// One parsed `FTBB-JOB` line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedJob {
    /// Node id.
    pub id: u32,
    /// The job.
    pub job: u64,
    /// Incarnation of the reporting service engine.
    pub incarnation: u32,
    /// Did the protocol detect termination for this job?
    pub terminated: bool,
    /// The job's final incumbent on this node (exact bits).
    pub incumbent: f64,
    /// Subproblems this node expanded for the job.
    pub expanded: u64,
    /// Complement recoveries this node performed for the job.
    pub recoveries: u64,
}

/// Parse a line produced by [`job_line`]. Returns `None` for other
/// lines (so callers can scan whole stdout streams).
pub fn parse_job_line(line: &str) -> Option<ParsedJob> {
    let f = Fields::parse("FTBB-JOB", line)?;
    Some(ParsedJob {
        id: f.u32("id")?,
        job: f.u64("job")?,
        incarnation: f.u32("incarnation")?,
        terminated: f.bool("terminated")?,
        incumbent: f.f64_bits("incumbent_bits")?,
        expanded: f.u64("expanded")?,
        recoveries: f.u64("recoveries")?,
    })
}

/// Render the machine-parseable service exit line: how many jobs this
/// node saw, how many finished, and the transport totals.
pub fn service_line(report: &ServiceReport) -> String {
    let o = &report.outcome;
    let t = &report.transport;
    render_line(
        "FTBB-SERVICE",
        &[
            ("id", o.id.to_string()),
            ("incarnation", o.incarnation.to_string()),
            ("jobs", o.jobs.len().to_string()),
            (
                "finished",
                o.jobs.iter().filter(|j| j.terminated).count().to_string(),
            ),
            ("trace_dropped", report.trace_events_dropped.to_string()),
            ("sent", t.sent.to_string()),
            ("dropped", t.dropped().to_string()),
        ],
    )
}

/// One parsed `FTBB-SERVICE` line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedService {
    /// Node id.
    pub id: u32,
    /// Incarnation of the reporting service engine.
    pub incarnation: u32,
    /// Jobs admitted over this life.
    pub jobs: u64,
    /// Jobs that detected termination.
    pub finished: u64,
    /// Trace events shed by the telemetry sink.
    pub trace_events_dropped: u64,
    /// Messages handed to the wire.
    pub sent: u64,
    /// Send-side drops (all causes).
    pub dropped: u64,
}

/// Parse a line produced by [`service_line`]. Returns `None` for other
/// lines.
pub fn parse_service_line(line: &str) -> Option<ParsedService> {
    let f = Fields::parse("FTBB-SERVICE", line)?;
    Some(ParsedService {
        id: f.u32("id")?,
        incarnation: f.u32("incarnation")?,
        jobs: f.u64("jobs")?,
        finished: f.u64("finished")?,
        trace_events_dropped: f.u64("trace_dropped")?,
        sent: f.u64("sent")?,
        dropped: f.u64("dropped")?,
    })
}

/// Render one machine-parseable `FTBB-METRICS` interval line from a live
/// engine snapshot: the Figure-3 time breakdown (seconds per category),
/// the protocol counters behind it, and the transport totals. Printed on
/// stdout every `--metrics-every-s`, parseable via [`parse_metrics_line`].
pub fn metrics_line(snap: &MetricsSnapshot) -> String {
    let p = &snap.phase;
    let m = &snap.metrics;
    render_line(
        "FTBB-METRICS",
        &[
            ("id", snap.id.to_string()),
            ("job", snap.job.to_string()),
            ("incarnation", snap.incarnation.to_string()),
            ("seq", snap.seq.to_string()),
            ("elapsed_s", format!("{:.6}", snap.elapsed_s)),
            ("expand_s", format!("{:.6}", p.expand_s)),
            ("communicate_s", format!("{:.6}", p.communicate_s)),
            ("contract_s", format!("{:.6}", p.contract_s)),
            ("load_balance_s", format!("{:.6}", p.load_balance_s)),
            ("membership_s", format!("{:.6}", p.membership_s)),
            ("idle_s", format!("{:.6}", p.idle_s)),
            ("checkpoint_s", format!("{:.6}", p.checkpoint_s)),
            ("expanded", m.expanded.to_string()),
            ("pruned_at_pop", m.pruned_at_pop.to_string()),
            ("recoveries", m.recoveries.to_string()),
            ("suspected", m.peers_suspected.to_string()),
            ("forgotten", m.peers_forgotten.to_string()),
            ("bound_bcast", m.bound_broadcasts.to_string()),
            ("bound_coalesced", m.bound_coalesced.to_string()),
            (
                "bound_suppressed",
                m.bound_piggybacks_suppressed.to_string(),
            ),
            ("mev_dropped", m.membership_events_dropped.to_string()),
            ("trace_dropped", snap.trace_events_dropped.to_string()),
            ("workers", snap.workers.to_string()),
            ("sent", snap.transport.sent.to_string()),
            ("dropped", snap.transport.dropped().to_string()),
            ("flushes", snap.transport.flushes.to_string()),
            ("frames_flushed", snap.transport.frames_flushed.to_string()),
            (
                "frames_per_flush",
                format!("{:.2}", snap.transport.frames_per_flush()),
            ),
            (
                "membership_frames",
                snap.transport.membership_frames_sent.to_string(),
            ),
            ("book_entries", snap.transport.book_entries_sent.to_string()),
            (
                "digest_entries",
                snap.transport.digest_entries_sent.to_string(),
            ),
            (
                "book_per_frame",
                format!("{:.2}", snap.transport.book_entries_per_frame()),
            ),
            ("bound_frames", snap.transport.bound_broadcasts.to_string()),
        ],
    )
}

/// One parsed `FTBB-METRICS` interval line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedMetrics {
    /// Node id.
    pub id: u32,
    /// The job this snapshot is scoped to (0 on the single-run path).
    pub job: u64,
    /// Incarnation of the reporting engine.
    pub incarnation: u32,
    /// Snapshot sequence number within that life.
    pub seq: u64,
    /// Wall seconds since the engine started.
    pub elapsed_s: f64,
    /// Figure-3 time breakdown; `phase.total()` reconciles with
    /// `elapsed_s`.
    pub phase: PhaseTimes,
    /// Subproblems expanded so far.
    pub expanded: u64,
    /// Pool entries pruned unexpanded at selection so far.
    pub pruned_at_pop: u64,
    /// Complement recoveries so far.
    pub recoveries: u64,
    /// Members suspected so far.
    pub suspected: u64,
    /// Members forgotten so far.
    pub forgotten: u64,
    /// Explicit bound-announce broadcasts flushed so far.
    pub bound_broadcasts: u64,
    /// Bound improvements coalesced into a pending flush so far.
    pub bound_coalesced: u64,
    /// Piggybacked incumbents suppressed as already-announced so far.
    pub bound_suppressed: u64,
    /// Membership events discarded by the core's bounded buffer.
    pub membership_events_dropped: u64,
    /// Trace events discarded by the telemetry sink's bounded queue.
    pub trace_events_dropped: u64,
    /// Expansion worker threads driving the reporting engine.
    pub workers: u64,
    /// Messages handed to the wire so far.
    pub sent: u64,
    /// Send-side drops so far (all causes).
    pub dropped: u64,
    /// Transport write flushes so far.
    pub flushes: u64,
    /// Frames those flushes carried (`frames_flushed / flushes` is the
    /// achieved batching factor; the line also renders it directly as
    /// `frames_per_flush`).
    pub frames_flushed: u64,
    /// Membership frames handed to the wire so far.
    pub membership_frames: u64,
    /// Piggybacked address-book entries those frames carried.
    pub book_entries: u64,
    /// Digest entries those frames carried.
    pub digest_entries: u64,
    /// Explicit bound-announce frames handed to the wire so far.
    pub bound_frames: u64,
}

/// Parse a line produced by [`metrics_line`]. Returns `None` for
/// non-metrics lines (so callers can scan whole stdout streams).
pub fn parse_metrics_line(line: &str) -> Option<ParsedMetrics> {
    let f = Fields::parse("FTBB-METRICS", line)?;
    Some(ParsedMetrics {
        id: f.u32("id")?,
        job: f.u64("job")?,
        incarnation: f.u32("incarnation")?,
        seq: f.u64("seq")?,
        elapsed_s: f.f64("elapsed_s")?,
        phase: PhaseTimes {
            expand_s: f.f64("expand_s")?,
            communicate_s: f.f64("communicate_s")?,
            contract_s: f.f64("contract_s")?,
            load_balance_s: f.f64("load_balance_s")?,
            membership_s: f.f64("membership_s")?,
            idle_s: f.f64("idle_s")?,
            checkpoint_s: f.f64("checkpoint_s")?,
        },
        expanded: f.u64("expanded")?,
        pruned_at_pop: f.u64("pruned_at_pop")?,
        recoveries: f.u64("recoveries")?,
        suspected: f.u64("suspected")?,
        forgotten: f.u64("forgotten")?,
        bound_broadcasts: f.u64("bound_bcast")?,
        bound_coalesced: f.u64("bound_coalesced")?,
        bound_suppressed: f.u64("bound_suppressed")?,
        membership_events_dropped: f.u64("mev_dropped")?,
        trace_events_dropped: f.u64("trace_dropped")?,
        workers: f.u64("workers")?,
        sent: f.u64("sent")?,
        dropped: f.u64("dropped")?,
        flushes: f.u64("flushes")?,
        frames_flushed: f.u64("frames_flushed")?,
        membership_frames: f.u64("membership_frames")?,
        book_entries: f.u64("book_entries")?,
        digest_entries: f.u64("digest_entries")?,
        bound_frames: f.u64("bound_frames")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{KnapsackSpec, ProblemSpec};
    use ftbb_core::ProcMetrics;

    #[test]
    fn outcome_line_round_trips() {
        let report = NodedReport {
            outcome: NodeOutcome {
                id: 3,
                incarnation: 2,
                terminated: true,
                incumbent: -127.5,
                metrics: ProcMetrics {
                    expanded: 42,
                    recoveries: 2,
                    peers_suspected: 3,
                    peers_forgotten: 1,
                    bound_broadcasts: 4,
                    bound_coalesced: 6,
                    bound_piggybacks_suppressed: 8,
                    membership_events_dropped: 17,
                    ..Default::default()
                },
                phase: PhaseTimes::default(),
                lifetime: Duration::from_millis(10),
            },
            trace_events_dropped: 5,
            workers: 4,
            transport: TransportStats {
                sent: 9,
                sent_wire_bytes: 81,
                sent_encoded_bytes: 207,
                dropped_full: 1,
                dropped_disconnected: 2,
                dropped_no_route: 3,
                dropped_startup: 5,
                dropped_stale: 8,
                retried: 6,
                connect_waits: 7,
                reconnects: 4,
                announces_sent: 10,
                announces_recv: 11,
                rejoins: 12,
                joins: 13,
                peers_discovered: 14,
                flushes: 4,
                frames_flushed: 9,
                membership_frames_sent: 6,
                book_entries_sent: 96,
                digest_entries_sent: 18,
                bound_broadcasts: 2,
            },
        };
        let line = outcome_line(&report);
        let parsed = parse_outcome_line(&line).expect("parses");
        assert_eq!(parsed.id, 3);
        assert_eq!(parsed.incarnation, 2);
        assert!(parsed.terminated);
        assert_eq!(parsed.incumbent, -127.5);
        assert_eq!(parsed.expanded, 42);
        assert_eq!(parsed.recoveries, 2);
        assert_eq!(parsed.suspected, 3);
        assert_eq!(parsed.forgotten, 1);
        assert_eq!(parsed.bound_broadcasts, 4);
        assert_eq!(parsed.bound_coalesced, 6);
        assert_eq!(parsed.bound_suppressed, 8);
        assert_eq!(parsed.membership_events_dropped, 17);
        assert_eq!(parsed.trace_events_dropped, 5);
        assert_eq!(parsed.workers, 4);
        assert_eq!(parsed.transport, report.transport);
        assert!((parsed.transport.frames_per_flush() - 2.25).abs() < 1e-9);
        assert_eq!(parse_outcome_line("unrelated noise"), None);
    }

    #[test]
    fn metrics_line_round_trips() {
        let snap = MetricsSnapshot {
            id: 4,
            job: 3,
            incarnation: 1,
            seq: 7,
            elapsed_s: 2.5,
            phase: PhaseTimes {
                expand_s: 1.0,
                communicate_s: 0.5,
                contract_s: 0.25,
                load_balance_s: 0.125,
                membership_s: 0.0625,
                idle_s: 0.5,
                checkpoint_s: 0.0625,
            },
            metrics: ProcMetrics {
                expanded: 99,
                recoveries: 1,
                peers_suspected: 2,
                peers_forgotten: 1,
                bound_broadcasts: 5,
                bound_coalesced: 7,
                bound_piggybacks_suppressed: 9,
                membership_events_dropped: 3,
                ..Default::default()
            },
            transport: TransportStats {
                sent: 11,
                dropped_full: 1,
                dropped_disconnected: 2,
                flushes: 5,
                frames_flushed: 10,
                membership_frames_sent: 4,
                book_entries_sent: 64,
                digest_entries_sent: 12,
                bound_broadcasts: 3,
                ..Default::default()
            },
            trace_events_dropped: 4,
            workers: 2,
        };
        let line = metrics_line(&snap);
        let parsed = parse_metrics_line(&line).expect("parses");
        assert_eq!(parsed.id, 4);
        assert_eq!(parsed.job, 3);
        assert_eq!(parsed.incarnation, 1);
        assert_eq!(parsed.seq, 7);
        assert_eq!(parsed.elapsed_s, 2.5);
        assert_eq!(parsed.phase, snap.phase);
        assert!((parsed.phase.total() - 2.5).abs() < 1e-9);
        assert_eq!(parsed.expanded, 99);
        assert_eq!(parsed.recoveries, 1);
        assert_eq!(parsed.suspected, 2);
        assert_eq!(parsed.forgotten, 1);
        assert_eq!(parsed.bound_broadcasts, 5);
        assert_eq!(parsed.bound_coalesced, 7);
        assert_eq!(parsed.bound_suppressed, 9);
        assert_eq!(parsed.membership_events_dropped, 3);
        assert_eq!(parsed.trace_events_dropped, 4);
        assert_eq!(parsed.workers, 2);
        assert_eq!(parsed.sent, 11);
        assert_eq!(parsed.dropped, 3);
        assert_eq!(parsed.flushes, 5);
        assert_eq!(parsed.frames_flushed, 10);
        assert_eq!(parsed.membership_frames, 4);
        assert_eq!(parsed.book_entries, 64);
        assert_eq!(parsed.digest_entries, 12);
        assert_eq!(parsed.bound_frames, 3);
        assert!(line.contains("frames_per_flush=2.00"), "line: {line}");
        assert!(line.contains("book_per_frame=16.00"), "line: {line}");
        assert_eq!(parse_metrics_line("FTBB-OUTCOME id=1"), None);
        assert_eq!(parse_metrics_line("noise"), None);
    }

    #[test]
    fn ready_line_round_trips() {
        let addr: SocketAddr = "127.0.0.1:45107".parse().unwrap();
        let line = ready_line(3, addr);
        assert_eq!(parse_ready_line(&line), Some((3, addr)));
        assert_eq!(parse_ready_line("FTBB-OUTCOME id=3"), None);
        assert_eq!(parse_ready_line("noise"), None);
        assert_eq!(parse_ready_line("FTBB-READY id=x addr=nope"), None);
    }

    #[test]
    fn peer_wiring_parses_and_rejects() {
        let wiring = "peer 1=127.0.0.1:4501\n\npeer 2=127.0.0.1:4502\nstart\nignored-after\n";
        let peers = read_peer_wiring(wiring.as_bytes()).unwrap();
        assert_eq!(
            peers,
            vec![
                (1, "127.0.0.1:4501".parse().unwrap()),
                (2, "127.0.0.1:4502".parse().unwrap()),
            ]
        );

        // EOF before `start` is an error, as is junk.
        assert!(read_peer_wiring("peer 1=127.0.0.1:4501\n".as_bytes()).is_err());
        assert!(read_peer_wiring("launch the missiles\nstart\n".as_bytes()).is_err());
        assert!(read_peer_wiring("peer 1=not-an-addr\nstart\n".as_bytes()).is_err());
    }

    #[test]
    fn job_and_service_lines_round_trip() {
        let outcome = JobOutcome {
            job: JobId::from(42),
            id: 2,
            incarnation: 1,
            terminated: true,
            incumbent: -33.25,
            metrics: ProcMetrics {
                expanded: 17,
                recoveries: 3,
                ..Default::default()
            },
        };
        let parsed = parse_job_line(&job_line(&outcome)).expect("parses");
        assert_eq!(
            parsed,
            ParsedJob {
                id: 2,
                job: 42,
                incarnation: 1,
                terminated: true,
                incumbent: -33.25,
                expanded: 17,
                recoveries: 3,
            }
        );
        assert_eq!(parse_job_line("FTBB-OUTCOME id=1"), None);

        let report = ServiceReport {
            outcome: ServiceOutcome {
                id: 2,
                incarnation: 1,
                jobs: vec![
                    outcome.clone(),
                    JobOutcome {
                        terminated: false,
                        ..outcome
                    },
                ],
                phase: PhaseTimes::default(),
                lifetime: Duration::from_millis(5),
            },
            transport: TransportStats {
                sent: 9,
                dropped_full: 2,
                ..Default::default()
            },
            trace_events_dropped: 1,
        };
        let parsed = parse_service_line(&service_line(&report)).expect("parses");
        assert_eq!(
            parsed,
            ParsedService {
                id: 2,
                incarnation: 1,
                jobs: 2,
                finished: 1,
                trace_events_dropped: 1,
                sent: 9,
                dropped: 2,
            }
        );
        assert_eq!(parse_service_line("noise"), None);
    }

    #[test]
    fn job_sink_writes_atomically_renamed_snapshots_and_scan_restores_all() {
        let dir = std::env::temp_dir().join("ftbb-wire-jobsink-test");
        std::fs::remove_dir_all(&dir).ok();
        let mut sink = CheckpointDir::new(&dir, 7).unwrap();

        let problem = std::sync::Arc::new(AnyInstance::from(ftbb_bnb::MaxSatInstance::generate(
            4, 8, 2,
        )));
        let chk = |job: u64| {
            BnbProcess::new(
                7,
                vec![6, 7],
                ftbb_core::ProtocolConfig::default(),
                0.0,
                true,
                1,
            )
            .checkpoint()
            .bind(0, Some(problem.clone()))
            .with_job(JobId::from(job))
        };

        // Job 0 — the single-run job — lands in its own file, which
        // decodes back to the stored snapshot; the tmp file is renamed
        // away.
        sink.store(&chk(0)).unwrap();
        let path = job_checkpoint_path(&dir, 7, JobId::DEFAULT);
        assert!(path.ends_with("node-7-job-0.ckpt"), "{}", path.display());
        let back = Checkpoint::decode(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(back, chk(0));
        assert!(
            !dir.join("node-7-job-0.ckpt.tmp").exists(),
            "the tmp file must be renamed away"
        );

        // A second store overwrites in place (rename semantics).
        let chk2 = chk(0).bind(2, Some(problem.clone()));
        sink.store(&chk2).unwrap();
        let back = Checkpoint::decode(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(back.incarnation, 2);

        // Other jobs route to their own files, never touching job 0's.
        sink.store(&chk(11)).unwrap();
        sink.store(&chk(22)).unwrap();
        assert!(job_checkpoint_path(&dir, 7, JobId::from(11)).exists());
        assert!(job_checkpoint_path(&dir, 7, JobId::from(22)).exists());
        assert!(
            !dir.join("node-7-job-11.ckpt.tmp").exists(),
            "tmp files must be renamed away"
        );
        let back = Checkpoint::decode(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(back.incarnation, 2);

        // The scan restores EVERY job (sorted), and skips other nodes'
        // files.
        let mut other = CheckpointDir::new(&dir, 8).unwrap();
        let mut foreign = chk(99);
        foreign.me = 8;
        other.store(&foreign).unwrap();

        let found = scan_checkpoints(&dir, 7).unwrap();
        assert_eq!(
            found.iter().map(|c| c.job.raw()).collect::<Vec<_>>(),
            vec![0, 11, 22]
        );
        assert!(found.iter().all(|c| c.me == 7));

        // A corrupt file is a loud error, not a silently dropped job.
        std::fs::write(dir.join("node-7-job-44.ckpt"), b"garbage").unwrap();
        assert!(scan_checkpoints(&dir, 7).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_node_service_solves_submitted_jobs() {
        // One service node, two jobs submitted over real sockets via the
        // submit client: both must reach their sequential optima and
        // stream results back.
        let cfg = NodeConfig {
            id: 0,
            listen: "127.0.0.1:0".parse().unwrap(),
            peers: Vec::new(),
            service: true,
            deadline_s: 3.0,
            seed: 5,
            ..Default::default()
        };
        // The daemon reports the address it bound, so the submitter
        // connects to a listener that exists.
        let (addr_tx, addr_rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            let node = startup(&cfg).expect("service starts");
            addr_tx.send(node.mesh.local_addr()).unwrap();
            node.serve(&cfg).expect("service runs")
        });
        let addr = addr_rx.recv().expect("daemon bound its listener");

        let knap = AnyInstance::from(ftbb_bnb::KnapsackInstance::generate(
            14,
            50,
            ftbb_bnb::Correlation::Uncorrelated,
            0.5,
            3,
        ));
        let sat = AnyInstance::from(ftbb_bnb::MaxSatInstance::generate(10, 30, 2));

        let a = crate::submit::submit_job(addr, JobId::from(1), &knap, Duration::from_secs(10))
            .expect("job 1 submits");
        let b = crate::submit::submit_job(addr, JobId::from(2), &sat, Duration::from_secs(10))
            .expect("job 2 submits");

        let report = handle.join().expect("service thread");
        assert_eq!(report.outcome.jobs.len(), 2);

        for (job, instance, result) in [(1u64, &knap, &a), (2u64, &sat, &b)] {
            assert_eq!(result.accepted_by, 0);
            assert!(result.finished, "job {job} must finish");
            let reference = ftbb_bnb::solve(instance, &ftbb_bnb::SolveConfig::default());
            assert_eq!(Some(result.incumbent), reference.best, "job {job} parity");
            let outcome = report
                .outcome
                .jobs
                .iter()
                .find(|o| o.job.raw() == job)
                .expect("job outcome reported");
            assert!(outcome.terminated);
            assert_eq!(Some(outcome.incumbent), reference.best);
        }
    }

    #[test]
    fn single_node_tcp_cluster_solves() {
        // The smallest possible multi-process deployment: one node, no
        // peers, real sockets for self-traffic.
        let cfg = NodeConfig {
            id: 0,
            listen: "127.0.0.1:0".parse().unwrap(),
            peers: Vec::new(),
            problem: ProblemSpec::Knapsack(KnapsackSpec {
                n: 12,
                range: 40,
                ..Default::default()
            }),
            deadline_s: 30.0,
            seed: 5,
            ..Default::default()
        };
        let report = run(&cfg).expect("run succeeds");
        assert!(report.outcome.terminated, "single node must terminate");
        assert_eq!(report.outcome.incarnation, 0);
        let reference = ftbb_bnb::solve(
            &cfg.problem.instance().unwrap(),
            &ftbb_bnb::SolveConfig::default(),
        );
        assert_eq!(Some(report.outcome.incumbent), reference.best);
    }

    #[test]
    fn single_node_checkpoints_and_resumes_terminated() {
        // A full single-process lifecycle: run with checkpoints, then
        // resume the finished snapshot — the second life must come back
        // as incarnation 1, already terminated, same incumbent.
        let dir = std::env::temp_dir().join("ftbb-wire-noded-resume-test");
        std::fs::remove_dir_all(&dir).ok();
        let cfg = NodeConfig {
            id: 0,
            listen: "127.0.0.1:0".parse().unwrap(),
            peers: Vec::new(),
            problem: ProblemSpec::Knapsack(KnapsackSpec {
                n: 12,
                range: 40,
                ..Default::default()
            }),
            deadline_s: 30.0,
            seed: 5,
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every_s: 0.05,
            ..Default::default()
        };
        let first = run(&cfg).expect("first life runs");
        assert!(first.outcome.terminated);
        // Single-run is job 0 of the one checkpoint layout.
        let path = job_checkpoint_path(&dir, 0, JobId::DEFAULT);
        assert!(path.ends_with("node-0-job-0.ckpt"), "{}", path.display());
        assert!(path.exists());

        let resumed_cfg = NodeConfig {
            resume: true,
            ..cfg
        };
        let second = run(&resumed_cfg).expect("second life runs");
        assert!(second.outcome.terminated);
        assert_eq!(second.outcome.incarnation, 1);
        assert_eq!(second.outcome.incumbent, first.outcome.incumbent);
        // The finished table restored: nothing left to expand, and the
        // engine exits promptly instead of idling to the deadline.
        assert_eq!(second.outcome.metrics.expanded, 0);
        assert!(
            second.outcome.lifetime < Duration::from_secs(10),
            "a restored-terminated engine must not idle to the deadline: {:?}",
            second.outcome.lifetime
        );

        // And the file now records the second life.
        let chk = Checkpoint::decode(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(chk.incarnation, 1);
        assert_eq!(chk.job, JobId::DEFAULT);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_without_a_snapshot_fails_loudly() {
        let dir = std::env::temp_dir().join("ftbb-wire-noded-nosnap-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = NodeConfig {
            id: 9,
            listen: "127.0.0.1:0".parse().unwrap(),
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            ..Default::default()
        };
        let err = run(&cfg).expect_err("nothing to resume from");
        assert!(err.to_string().contains("checkpoint"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
