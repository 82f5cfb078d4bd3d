//! Job identity: one pool, a stream of jobs.
//!
//! The service refactor turns "one process = one run" into "one elastic
//! pool = a stream of jobs": every protocol frame, checkpoint file,
//! trace event, and metrics snapshot is scoped to the job it belongs to.
//! [`JobId`] is that scope — an opaque 64-bit identifier chosen by the
//! submitter (or [`JobId::DEFAULT`] for a single-run node, which is a
//! service that admits that one job up front and exits when it halts).

use serde::{DecodeError, Deserialize, Serialize};
use std::fmt;

/// Identity of one solve job within a service pool.
///
/// Ids are submitter-chosen and only need to be unique within a pool's
/// lifetime; the single-run deployments use [`JobId::DEFAULT`]. The raw
/// value rides every v5 wire frame, every per-job checkpoint filename,
/// and the `job` dimension of telemetry events and metrics lines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl JobId {
    /// The job id of a single-run node's one job (`0`).
    pub const DEFAULT: JobId = JobId(0);

    /// The raw 64-bit value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for JobId {
    fn from(raw: u64) -> JobId {
        JobId(raw)
    }
}

impl Serialize for JobId {
    fn ser(&self, out: &mut Vec<u8>) {
        self.0.ser(out);
    }
}

impl Deserialize for JobId {
    fn de(r: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(JobId(u64::de(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_id_round_trips_and_displays() {
        let job = JobId(0x0123_4567_89ab_cdef);
        let blob = serde::encode(&job);
        assert_eq!(blob.len(), 8);
        assert_eq!(serde::decode::<JobId>(&blob), Ok(job));
        assert_eq!(JobId::DEFAULT.raw(), 0);
        assert_eq!(JobId::from(7).to_string(), "7");
    }

    #[test]
    fn decode_rejects_truncation() {
        assert!(serde::decode::<JobId>(&[1, 2, 3]).is_err());
    }
}
