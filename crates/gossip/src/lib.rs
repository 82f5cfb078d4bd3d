//! # ftbb-gossip — gossip-style group membership
//!
//! Implements §5.2 of Iamnitchi & Foster (ICPP 2000):
//!
//! * [`view`] / [`membership`] — the gossip-style membership protocol with
//!   heartbeat counters, last-heard bookkeeping, timeout-based failure
//!   suspicion, cleanup, and gossip servers for joining (van Renesse et al.
//!   1998).
//!
//! The protocol state machines are transport-agnostic: they return the
//! messages to send and the caller (the DES simulator or the threaded
//! runtime) delivers them.

#![warn(missing_docs)]

pub mod membership;
pub mod view;

pub use membership::{Membership, MembershipConfig, MembershipMsg};
pub use view::{
    MemberId, MemberRecord, MemberStatus, MembershipView, ViewDigest, DELTA_FULL_REFRESH,
};
