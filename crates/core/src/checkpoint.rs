//! Process-state checkpointing — the deployed restart/rejoin substrate.
//!
//! The paper's §1 frames two roads to reliability: general-purpose
//! middleware mechanisms (checkpoint/restart à la Condor) versus
//! problem-specific mechanisms (its contribution). This module provides the
//! former for the same protocol process, and since the node-lifecycle
//! refactor it is *deployed*, not merely comparative:
//!
//! 1. **Operational**: `ftbb-noded --checkpoint-dir` persists snapshots of
//!    a process's protocol state (table, pool, incumbent, problem binding)
//!    with atomic write-rename, and `--resume` restarts a killed node from
//!    its last snapshot. The restarted process re-joins the live cluster
//!    under a bumped **incarnation number** (see below) instead of
//!    re-joining as an amnesiac — complementary to the paper's mechanism,
//!    which guarantees correctness even *without* this.
//! 2. **Comparative**: the `checkpoint_compare` bench quantifies what the
//!    paper argues qualitatively — checkpoints cost storage/IO
//!    proportional to live state and recover only local knowledge, while
//!    the gossip mechanism recovers *global* knowledge for free.
//!
//! A checkpoint captures exactly the state needed to resume: the completion
//! table, the local pool, fresh codes, the incumbent, the process's
//! incarnation, and (optionally) the materialized problem binding so a
//! resumed daemon needs no `--problem` flags and no announce frame.
//! Transient state (in-flight expansion, pending load-balancing handshakes,
//! timers) is deliberately *not* captured: on restore, the process simply
//! starts its next work item; anything that was in flight is re-derived or
//! recovered by the normal protocol paths.
//!
//! **Incarnations**: each (re)start of a node is one incarnation. A fresh
//! node is incarnation 0; restoring from a checkpoint yields incarnation
//! `checkpoint.incarnation + 1`. Transports tag frames with incarnations so
//! traffic from (or addressed to) a node's previous life is rejected as
//! stale rather than delivered to the wrong incarnation.

use crate::config::ProtocolConfig;
use crate::job::JobId;
use crate::process::BnbProcess;
use ftbb_bnb::AnyInstance;
use ftbb_des::SimTime;
use ftbb_tree::{Code, CodeSet};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Version tag of the checkpoint blob format. v2 added the incarnation
/// number and the optional problem binding; v3 added the membership
/// (gossip) binding; v4 added the job id (service mode: one snapshot
/// file per job).
pub const CHECKPOINT_VERSION: u16 = 4;

/// The membership half of a checkpoint: how a gossip-managed process was
/// wired into the group when the snapshot was taken. Restoring it lets
/// the next incarnation rejoin with its last-known world — its view's
/// members become immediate gossip/load-balancing targets instead of
/// being relearned one Welcome at a time — while heartbeat monotonicity
/// still protects against the view being stale (members that died while
/// the node was down simply never heartbeat again and get re-suspected).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GossipBinding {
    /// The gossip servers this process joins through.
    pub servers: Vec<u32>,
    /// Whether this process itself answers joins (§5.2 gossip server).
    pub is_server: bool,
    /// Every member the view knew (alive or suspected) at snapshot time.
    pub known: Vec<u32>,
}

/// Where periodic checkpoint snapshots go. The engine (`ftbb-runtime`'s
/// `ServiceEngine`) calls [`CheckpointSink::store`] on a cadence; sinks own
/// durability (e.g. `ftbb-wire`'s atomic write-rename directory sink) and
/// error reporting policy. A store failure never stops the engine — a node
/// that cannot persist keeps computing; it merely loses restartability.
pub trait CheckpointSink: Send {
    /// Persist one snapshot.
    fn store(&mut self, chk: &Checkpoint) -> Result<(), String>;
}

/// The no-op sink: checkpoints vanish. Used by harnesses that only want
/// the engine, not persistence.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl CheckpointSink for NullSink {
    fn store(&mut self, _chk: &Checkpoint) -> Result<(), String> {
        Ok(())
    }
}

/// A serializable snapshot of a protocol process's durable state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Process id.
    pub me: u32,
    /// Which life of the process this snapshot belongs to (0 = first).
    pub incarnation: u32,
    /// Which job this snapshot belongs to. A node persists one
    /// checkpoint file *per job*; a single-run node's one job is
    /// [`JobId::DEFAULT`].
    pub job: JobId,
    /// Static member list (empty when membership-managed).
    pub members: Vec<u32>,
    /// Completion table, as contracted codes.
    pub table: Vec<Code>,
    /// Local pool entries `(code, bound)`.
    pub pool: Vec<(Code, f64)>,
    /// Fresh (unreported) completions, as contracted codes. Older
    /// snapshots hold the raw completion list; restore accepts either,
    /// since both contract to the same set.
    pub fresh: Vec<Code>,
    /// Best-known solution.
    pub incumbent: f64,
    /// Root bound (to reseed the pool priority space).
    pub root_bound: f64,
    /// The materialized workload, when the snapshotting deployment binds
    /// one (daemons do; bare `BnbProcess` checkpoints carry `None`). A
    /// bound checkpoint is self-sufficient: restore needs no problem spec
    /// and no announce frame. Shared (`Arc`) because the binding is
    /// immutable for a node's whole life while snapshots are taken on a
    /// cadence — attaching it must never deep-copy the workload.
    pub problem: Option<Arc<AnyInstance>>,
    /// Membership binding, when the process runs the gossip protocol
    /// (`None` under a static member list). See [`GossipBinding`].
    pub gossip: Option<GossipBinding>,
}

impl Checkpoint {
    /// Attach the lifecycle binding: which incarnation this snapshot
    /// belongs to, and the materialized problem it was solving.
    pub fn bind(mut self, incarnation: u32, problem: Option<Arc<AnyInstance>>) -> Checkpoint {
        self.incarnation = incarnation;
        self.problem = problem;
        self
    }

    /// Scope the snapshot to one job of a service pool.
    pub fn with_job(mut self, job: JobId) -> Checkpoint {
        self.job = job;
        self
    }

    /// Serialized size in bytes (for overhead accounting). Tracks
    /// [`Checkpoint::encode`] exactly for the protocol state (codes
    /// account themselves via [`Code::wire_size`], which the tree codec
    /// matches byte-for-byte); the problem binding, when present, is sized
    /// by encoding it — bindings are embedded only by deployments that
    /// persist rarely, so the cost sits off the hot path.
    pub fn wire_size(&self) -> usize {
        let codes = |cs: &[Code]| -> usize {
            // 4-byte blob length prefix + encode_codes: 4-byte count +
            // per-code wire_size.
            4 + 4 + cs.iter().map(|c| c.wire_size()).sum::<usize>()
        };
        let pool: usize = self
            .pool
            .iter()
            .map(|(c, _)| codes(std::slice::from_ref(c)) + 8)
            .sum();
        let problem = 1 + self.problem.as_ref().map_or(0, |p| serde::encode(p).len());
        let gossip = 1 + self.gossip.as_ref().map_or(0, |g| serde::encode(g).len());
        // magic + version + me + incarnation + job + incumbent + root_bound
        (4 + 2 + 4 + 4 + 8 + 8 + 8)
            + (4 + 4 * self.members.len())
            + codes(&self.table)
            + codes(&self.fresh)
            + 4
            + pool
            + problem
            + gossip
    }

    /// Encode to a compact binary blob (magic + bincode-free hand codec).
    pub fn encode(&self) -> Vec<u8> {
        use bytes::BufMut;
        let mut buf = bytes::BytesMut::new();
        buf.put_u32_le(0x4654_4350); // "FTCP"
        buf.put_u16_le(CHECKPOINT_VERSION);
        buf.put_u32_le(self.me);
        buf.put_u32_le(self.incarnation);
        buf.put_u64_le(self.job.raw());
        buf.put_f64_le(self.incumbent);
        buf.put_f64_le(self.root_bound);
        buf.put_u32_le(self.members.len() as u32);
        for &m in &self.members {
            buf.put_u32_le(m);
        }
        let put_codes = |buf: &mut bytes::BytesMut, codes: &[Code]| {
            let blob = ftbb_tree::io::encode_codes(codes);
            buf.put_u32_le(blob.len() as u32);
            buf.extend_from_slice(&blob);
        };
        put_codes(&mut buf, &self.table);
        put_codes(&mut buf, &self.fresh);
        buf.put_u32_le(self.pool.len() as u32);
        for (code, bound) in &self.pool {
            put_codes(&mut buf, std::slice::from_ref(code));
            buf.put_f64_le(*bound);
        }
        let mut out = buf.to_vec();
        self.problem.ser(&mut out);
        self.gossip.ser(&mut out);
        out
    }

    /// Decode a blob produced by [`Checkpoint::encode`].
    pub fn decode(mut data: &[u8]) -> Result<Self, String> {
        use bytes::Buf;
        let need = |data: &[u8], n: usize| -> Result<(), String> {
            if data.len() < n {
                Err("truncated checkpoint".into())
            } else {
                Ok(())
            }
        };
        need(data, 4 + 2 + 8 + 8 + 16 + 4)?;
        if data.get_u32_le() != 0x4654_4350 {
            return Err("bad checkpoint magic".into());
        }
        let version = data.get_u16_le();
        if version != CHECKPOINT_VERSION {
            return Err(format!("unsupported checkpoint version {version}"));
        }
        let me = data.get_u32_le();
        let incarnation = data.get_u32_le();
        let job = JobId(data.get_u64_le());
        let incumbent = data.get_f64_le();
        let root_bound = data.get_f64_le();
        let nmembers = data.get_u32_le() as usize;
        need(data, 4 * nmembers)?;
        let members = (0..nmembers).map(|_| data.get_u32_le()).collect();
        let take_codes = |data: &mut &[u8]| -> Result<Vec<Code>, String> {
            need(data, 4)?;
            let len = data.get_u32_le() as usize;
            need(data, len)?;
            let (blob, rest) = data.split_at(len);
            *data = rest;
            ftbb_tree::io::decode_codes(blob).map_err(|e| e.to_string())
        };
        let table = take_codes(&mut data)?;
        let fresh = take_codes(&mut data)?;
        need(data, 4)?;
        let npool = data.get_u32_le() as usize;
        let mut pool = Vec::with_capacity(npool.min(1 << 20));
        for _ in 0..npool {
            let codes = take_codes(&mut data)?;
            let code = codes
                .into_iter()
                .next()
                .ok_or_else(|| "empty pool code".to_string())?;
            need(data, 8)?;
            let bound = data.get_f64_le();
            pool.push((code, bound));
        }
        let problem = Option::<Arc<AnyInstance>>::de(&mut data).map_err(|e| e.to_string())?;
        if let Some(p) = &problem {
            // Serde decodes structure, not invariants; a binding off disk
            // must also be valid before an expander trusts it.
            p.validate()
                .map_err(|e| format!("invalid problem binding: {e}"))?;
        }
        let gossip = Option::<GossipBinding>::de(&mut data).map_err(|e| e.to_string())?;
        if !data.is_empty() {
            return Err(format!("{} trailing checkpoint bytes", data.len()));
        }
        Ok(Checkpoint {
            me,
            incarnation,
            job,
            members,
            table,
            fresh,
            pool,
            incumbent,
            root_bound,
            problem,
            gossip,
        })
    }
}

impl BnbProcess {
    /// Snapshot this process's durable state. The lifecycle binding
    /// (incarnation, problem) is the deployment's to attach — see
    /// [`Checkpoint::bind`]; a bare process snapshot is incarnation 0
    /// with no binding.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            me: self.id(),
            incarnation: 0,
            job: JobId::DEFAULT,
            members: self.static_member_list(),
            table: self.table().minimal_codes(),
            pool: self.pool_snapshot(),
            fresh: self.fresh_snapshot(),
            incumbent: self.incumbent(),
            root_bound: self.root_bound(),
            problem: None,
            gossip: self.membership().map(|m| GossipBinding {
                servers: self.gossip_server_list(),
                is_server: m.is_server(),
                known: m.view().known(),
            }),
        }
    }

    /// Rebuild a process from a checkpoint. The restored process is idle
    /// (no expansion in flight); drive it with [`crate::PEvent::Start`] to
    /// resume — it will pick up its pool, or seek work, or recover, exactly
    /// as the protocol dictates. The caller owns the incarnation bump (the
    /// restored *process* is state; the new *life* is the engine's).
    ///
    /// A checkpoint with a [`GossipBinding`] restores into a
    /// membership-managed process (rejoining with its last-known view):
    /// the membership *knobs* come from `cfg.membership`, like every other
    /// protocol parameter — falling back to
    /// `ftbb_gossip::MembershipConfig::default()` when the caller did not
    /// set them.
    pub fn restore(chk: &Checkpoint, cfg: ProtocolConfig, rng_seed: u64) -> BnbProcess {
        let mut cfg = cfg;
        if chk.gossip.is_some() && cfg.membership.is_none() {
            cfg.membership = Some(ftbb_gossip::MembershipConfig::default());
        }
        let mcfg = cfg.membership;
        let mut p = BnbProcess::new(
            chk.me,
            chk.members.clone(),
            cfg,
            chk.root_bound,
            false,
            rng_seed,
        );
        if let Some(g) = &chk.gossip {
            p.restore_membership(
                &g.servers,
                g.is_server,
                &g.known,
                mcfg.expect("set above"),
                SimTime::ZERO,
            );
        }
        let mut table = CodeSet::new();
        table.merge(chk.table.iter());
        p.restore_state(table, &chk.pool, &chk.fresh, chk.incumbent);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{PEvent, PTimer};
    use crate::work::{ChildPair, Expansion};
    use ftbb_des::SimTime;

    fn worked_process() -> BnbProcess {
        let mut p = BnbProcess::new(0, vec![0, 1, 2], ProtocolConfig::default(), 0.0, true, 1);
        p.handle(PEvent::Start, SimTime::ZERO);
        // Branch the root and one child; complete one leaf.
        p.handle(
            PEvent::WorkDone {
                seq: 1,
                expansion: Expansion {
                    cost: 1.0,
                    bound: 0.0,
                    solution: None,
                    children: Some(ChildPair {
                        var: 1,
                        left_bound: 0.1,
                        right_bound: 0.2,
                    }),
                },
            },
            SimTime::ZERO,
        );
        p.handle(
            PEvent::WorkDone {
                seq: 2,
                expansion: Expansion {
                    cost: 1.0,
                    bound: 0.2,
                    solution: Some(5.0),
                    children: None,
                },
            },
            SimTime::ZERO,
        );
        p
    }

    #[test]
    fn checkpoint_captures_state() {
        let p = worked_process();
        let chk = p.checkpoint();
        assert_eq!(chk.me, 0);
        assert_eq!(chk.incarnation, 0);
        assert_eq!(chk.incumbent, 5.0);
        assert!(!chk.table.is_empty());
        assert!(chk.problem.is_none());
        assert!(chk.wire_size() > 0);
    }

    #[test]
    fn encode_decode_round_trip() {
        let chk = worked_process().checkpoint();
        assert_eq!(chk.job, JobId::DEFAULT, "bare snapshots are job 0");
        let blob = chk.encode();
        let back = Checkpoint::decode(&blob).unwrap();
        assert_eq!(chk, back);

        // A job-scoped snapshot keeps its scope through persistence.
        let chk = worked_process().checkpoint().with_job(JobId(0xfeed));
        assert_eq!(chk.wire_size(), chk.encode().len());
        let back = Checkpoint::decode(&chk.encode()).unwrap();
        assert_eq!(back.job, JobId(0xfeed));
        assert_eq!(chk, back);
    }

    #[test]
    fn bound_checkpoint_round_trips_with_problem_and_incarnation() {
        let instance = ftbb_bnb::AnyInstance::from(ftbb_bnb::MaxSatInstance::generate(6, 12, 3));
        let chk = worked_process()
            .checkpoint()
            .bind(3, Some(Arc::new(instance.clone())));
        assert_eq!(chk.incarnation, 3);
        let back = Checkpoint::decode(&chk.encode()).unwrap();
        assert_eq!(back, chk);
        assert_eq!(back.problem.as_deref(), Some(&instance));
    }

    #[test]
    fn gossip_checkpoint_round_trips_and_restores_the_view() {
        let mcfg = ftbb_gossip::MembershipConfig {
            gossip_interval: SimTime::from_millis(100),
            fanout: 2,
            t_fail: SimTime::from_secs(2),
            t_cleanup: SimTime::from_secs(8),
            ..Default::default()
        };
        let cfg = ProtocolConfig {
            membership: Some(mcfg),
            ..Default::default()
        };
        let mut p = BnbProcess::with_membership(
            2,
            vec![0, 5],
            true,
            cfg.clone(),
            0.0,
            false,
            1,
            SimTime::ZERO,
        );
        p.seed_membership_view(&[0, 1, 3], SimTime::ZERO);

        let chk = p.checkpoint();
        let g = chk
            .gossip
            .as_ref()
            .expect("membership process binds gossip");
        assert_eq!(g.servers, vec![0, 5]);
        assert!(g.is_server);
        assert_eq!(g.known, vec![0, 1, 2, 3]);
        assert_eq!(chk.wire_size(), chk.encode().len());
        let back = Checkpoint::decode(&chk.encode()).unwrap();
        assert_eq!(back, chk);

        // The restored incarnation rejoins with its last-known world.
        let restored = BnbProcess::restore(&chk, cfg, 9);
        let mem = restored.membership().expect("membership restored");
        assert!(mem.is_server());
        assert_eq!(mem.view().known(), vec![0, 1, 2, 3]);

        // Without explicit knobs the default membership config applies —
        // a gossip checkpoint never silently restores into static mode.
        let plain = BnbProcess::restore(&chk, ProtocolConfig::default(), 9);
        assert!(plain.membership().is_some());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Checkpoint::decode(&[]).is_err());
        assert!(Checkpoint::decode(&[1, 2, 3, 4, 5, 6, 7, 8]).is_err());
        let mut blob = worked_process().checkpoint().encode();
        blob.truncate(blob.len() / 2);
        assert!(Checkpoint::decode(&blob).is_err());
        // Trailing junk is rejected, not ignored.
        let mut blob = worked_process().checkpoint().encode();
        blob.push(0xA5);
        assert!(Checkpoint::decode(&blob).is_err());
    }

    #[test]
    fn decode_rejects_wrong_version_and_invalid_binding() {
        let mut blob = worked_process().checkpoint().encode();
        blob[4] = 0xEE; // version bytes follow the magic
        assert!(Checkpoint::decode(&blob)
            .unwrap_err()
            .contains("checkpoint version"));

        // A structurally decodable but invalid problem binding is refused.
        let mut m = ftbb_bnb::MaxSatInstance::generate(4, 8, 1);
        m.clauses[0].literals.clear();
        let chk = worked_process()
            .checkpoint()
            .bind(1, Some(Arc::new(ftbb_bnb::AnyInstance::MaxSat(m))));
        let err = Checkpoint::decode(&chk.encode()).unwrap_err();
        assert!(err.contains("invalid problem binding"), "{err}");
    }

    #[test]
    fn restored_process_resumes() {
        let p = worked_process();
        let chk = p.checkpoint();
        let mut restored = BnbProcess::restore(&chk, ProtocolConfig::default(), 9);
        assert_eq!(restored.incumbent(), 5.0);
        assert_eq!(restored.table().minimal_codes(), chk.table);
        assert_eq!(restored.pool_len(), chk.pool.len());
        // Starting the restored process begins work from its pool.
        let actions = restored.handle(PEvent::Start, SimTime::ZERO);
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, crate::Action::StartWork { .. })),
            "restored process with pool must resume working"
        );
    }

    #[test]
    fn older_raw_fresh_list_restores_and_flushes_compressed() {
        // Older snapshots stored the raw completion list; these three
        // codes contract to their common ancestor (x1 = 0).
        let c = |d: &[(u16, bool)]| Code::from_decisions(d);
        let raw = vec![
            c(&[(1, false), (2, false)]),
            c(&[(1, false), (2, true), (3, false)]),
            c(&[(1, false), (2, true), (3, true)]),
        ];
        let compressed = ftbb_tree::compress(&raw);
        assert_eq!(compressed, vec![c(&[(1, false)])]);
        let mut chk = worked_process().checkpoint();
        chk.fresh = raw.clone();
        let chk = Checkpoint::decode(&chk.encode()).unwrap();
        let mut p = BnbProcess::restore(&chk, ProtocolConfig::default(), 9);
        // A new snapshot stores the contracted set, and storage counts
        // the set's wire size.
        assert_eq!(p.checkpoint().fresh, compressed);
        let pool_aux: usize = chk.pool.iter().map(|(code, _)| code.wire_size() + 8).sum();
        let fresh = CodeSet::from(raw.clone());
        assert_eq!(p.storage_snapshot().1, pool_aux + fresh.wire_size());
        let actions = p.handle(PEvent::Timer(PTimer::ReportFlush), SimTime::ZERO);
        let reports: Vec<&Vec<Code>> = actions
            .iter()
            .filter_map(|a| match a {
                crate::Action::Send {
                    msg: crate::Msg::WorkReport { codes, .. },
                    ..
                } => Some(codes),
                _ => None,
            })
            .collect();
        assert_eq!(reports.len(), 2, "fan-out 2");
        assert!(reports.iter().all(|codes| **codes == compressed));
        assert_eq!(p.metrics().report_codes_sent, 1);
        assert_eq!(p.metrics().report_codes_saved, 2);
        assert!(p.checkpoint().fresh.is_empty(), "the flush drained the set");
    }

    #[test]
    fn restore_of_terminated_process_stays_terminated() {
        // Checkpoint taken after termination: the table holds the root
        // code, and the restored process must not restart the search.
        let mut p = BnbProcess::new(0, vec![0, 1], ProtocolConfig::default(), 0.0, true, 1);
        p.handle(PEvent::Start, SimTime::ZERO);
        p.handle(
            PEvent::WorkDone {
                seq: 1,
                expansion: Expansion {
                    cost: 1.0,
                    bound: 0.0,
                    solution: Some(2.0),
                    children: None,
                },
            },
            SimTime::ZERO,
        );
        assert!(p.is_terminated());
        let chk = p.checkpoint();
        let restored = BnbProcess::restore(&chk, ProtocolConfig::default(), 4);
        assert!(restored.is_terminated());
        assert_eq!(restored.incumbent(), 2.0);
    }

    #[test]
    fn wire_size_tracks_the_encoding() {
        let bare = worked_process().checkpoint();
        assert_eq!(bare.wire_size(), bare.encode().len());

        let bound = bare.bind(
            2,
            Some(Arc::new(ftbb_bnb::AnyInstance::from(
                ftbb_bnb::MaxSatInstance::generate(8, 20, 5),
            ))),
        );
        assert_eq!(bound.wire_size(), bound.encode().len());
    }

    #[test]
    fn null_sink_swallows_checkpoints() {
        let chk = worked_process().checkpoint();
        assert!(NullSink.store(&chk).is_ok());
    }

    #[test]
    fn restored_empty_process_seeks_work() {
        // Checkpoint of a process with an empty pool: on restore it asks
        // peers for work (or recovers), rather than sitting idle.
        let mut p = BnbProcess::new(1, vec![0, 1, 2], ProtocolConfig::default(), 0.0, false, 2);
        p.handle(PEvent::Start, SimTime::ZERO);
        let chk = p.checkpoint();
        let mut restored = BnbProcess::restore(&chk, ProtocolConfig::default(), 3);
        let actions = restored.handle(PEvent::Start, SimTime::ZERO);
        let seeks = actions.iter().any(|a| {
            matches!(
                a,
                crate::Action::Send {
                    msg: crate::Msg::WorkRequest { .. },
                    ..
                }
            ) || matches!(
                a,
                crate::Action::SetTimer {
                    timer: PTimer::RecoveryFuse(_),
                    ..
                }
            )
        });
        assert!(seeks, "restored idle process must seek work");
    }
}
