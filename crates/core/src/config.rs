//! Protocol tuning knobs.
//!
//! The paper stresses that "this overhead can be controlled by tuning
//! various execution parameters" (§6.3.1): report batch size, report fan-out
//! and frequency, table-gossip frequency, load-balancing patience, and how
//! soon failure is suspected. Every such parameter is explicit here so the
//! ablation benches can sweep them.

use ftbb_bnb::SelectRule;
use ftbb_gossip::MembershipConfig;
use ftbb_tree::RecoveryStrategy;
use serde::{Deserialize, Serialize};

/// All tunables of one protocol process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtocolConfig {
    /// `c`: flush the fresh completions as a work report once this many
    /// codes have completed locally since the last flush (§5.3.2). The
    /// count is of raw completions, so a report is the same for a given
    /// `c` whether or not its codes contracted on the way. This is the
    /// paper's and the DES's knob; the real-time profile
    /// (`ftbb_runtime::ClusterConfig::new`) sets it to `usize::MAX`,
    /// which turns the count trigger off and paces reports by
    /// `report_interval_s` and starvation alone.
    pub report_batch: usize,
    /// `m`: how many randomly chosen members receive each work report.
    pub report_fanout: usize,
    /// Flush pending fresh completions every this many seconds, even short
    /// of `c` ("or the list has not been updated for a long time"). With
    /// the count trigger off, as in the real-time profile, this and
    /// starvation are what send reports.
    pub report_interval_s: f64,
    /// Interval between full-table gossips to one random member
    /// ("occasionally, … a member sends its table of completed problems to
    /// a randomly chosen member").
    pub table_gossip_interval_s: f64,
    /// Consecutive failed work requests before suspecting lost work and
    /// triggering complement recovery.
    pub lb_attempts: u32,
    /// Seconds to wait for a work-request reply before counting the attempt
    /// as failed (covers lost messages and crashed donors).
    pub lb_timeout_s: f64,
    /// Extra patience before recovery actually starts ("how soon failure is
    /// suspected after a machine unsuccessfully tries to get work").
    pub recovery_delay_s: f64,
    /// Full load-balancing rounds (each `lb_attempts` requests plus a
    /// `recovery_delay_s` pause) that must fail consecutively before the
    /// process suspects lost work and recovers by complementing. Higher
    /// values trade recovery latency for less redundant work — the paper's
    /// §6.3.1 tuning discussion. The rounds diagnose lost work once: a
    /// process that runs out of recovered work with no news from any other
    /// process since the recovery began recovers again at once.
    pub lb_rounds_before_recovery: u32,
    /// Recovery additionally requires this many seconds without *news*
    /// (new completion codes, or granted work). While reports carrying new
    /// information keep arriving, the computation is alive somewhere and
    /// starvation is mere load imbalance, not lost work. Lost-work
    /// quiescence — everyone idle, gossip carrying nothing new — lets the
    /// timer expire, so recovery still always happens when it must.
    pub recovery_quiet_s: f64,
    /// Maximum subproblems donated per work grant.
    pub grant_max: usize,
    /// A donor keeps at least this many subproblems for itself.
    pub grant_keep_min: usize,
    /// How the complement code is chosen during recovery.
    pub recovery_strategy: RecoveryStrategy,
    /// Local pool selection rule (§2). Depth-first is the distributed
    /// default: it keeps local pools shallow and donates large subtrees.
    pub select_rule: SelectRule,
    /// Adapt the report-flush interval to the observed per-subproblem
    /// execution time (the paper's §7 future-work item: "an adaptive
    /// mechanism for deciding how often work reports should be sent, based
    /// on information collected at runtime"). When enabled, the effective
    /// interval targets `report_batch` node-times, clamped to
    /// `[report_interval_s / 8, report_interval_s × 8]`, so message volume
    /// per node stays flat across workload granularities.
    pub adaptive_reports: bool,
    /// Gossip membership protocol; `None` uses a static member list (the
    /// configuration of the paper's experiments, §6.2: "we do not include
    /// yet the membership protocol").
    pub membership: Option<MembershipConfig>,
    /// Bound-dissemination flush window, seconds. Incumbent improvements
    /// within one window coalesce into a single explicit
    /// [`crate::Msg::BoundAnnounce`] broadcast to every member, and
    /// load-balancing chatter stops re-piggybacking a bound every member
    /// already heard announced. `<= 0` disables the mechanism entirely
    /// (no broadcasts, every message piggybacks eagerly — the historical
    /// behavior). Suppression is epsilon-exact: a strictly better bound
    /// is never delayed past this window, and report/table-gossip
    /// messages always carry the literal incumbent (that channel is what
    /// guarantees a terminating member holds the exact optimum).
    pub bound_flush_s: f64,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            report_batch: 8,
            report_fanout: 2,
            report_interval_s: 2.0,
            table_gossip_interval_s: 10.0,
            lb_attempts: 3,
            lb_timeout_s: 0.5,
            recovery_delay_s: 1.0,
            lb_rounds_before_recovery: 3,
            recovery_quiet_s: 2.0,
            grant_max: 16,
            grant_keep_min: 2,
            recovery_strategy: RecoveryStrategy::Random,
            select_rule: SelectRule::DepthFirst,
            adaptive_reports: false,
            membership: None,
            bound_flush_s: 0.05,
        }
    }
}

impl ProtocolConfig {
    /// Scale the time-based knobs by `factor` (used when the workload
    /// granularity changes: coarser nodes want proportionally lazier
    /// reporting, as the paper's adaptive-parameters discussion suggests).
    pub fn scale_times(mut self, factor: f64) -> Self {
        assert!(factor > 0.0 && factor.is_finite());
        self.report_interval_s *= factor;
        self.table_gossip_interval_s *= factor;
        self.lb_timeout_s *= factor;
        self.recovery_delay_s *= factor;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = ProtocolConfig::default();
        assert!(c.report_batch >= 1);
        assert!(c.report_fanout >= 1);
        assert!(c.lb_attempts >= 1);
        assert!(c.grant_max > c.grant_keep_min);
        assert!(c.membership.is_none());
    }

    #[test]
    fn scale_times_scales_only_times() {
        let c = ProtocolConfig::default().scale_times(10.0);
        let d = ProtocolConfig::default();
        assert_eq!(c.report_interval_s, d.report_interval_s * 10.0);
        assert_eq!(c.lb_timeout_s, d.lb_timeout_s * 10.0);
        assert_eq!(c.report_batch, d.report_batch);
        assert_eq!(c.report_fanout, d.report_fanout);
    }
}
