//! The `ftbb-submit` client: hand a job to a running service pool and
//! stream its results back.
//!
//! A submitter is not a pool member — it speaks three frame kinds over
//! one plain TCP connection to any service node (the *gateway* for this
//! job): it sends one `SubmitJob` frame, then reads `JobAccepted` (which
//! node took the job) and a stream of `JobResult` frames — incumbent
//! improvements (`finished=false`) followed by the final optimum
//! (`finished=true`). No mesh, no membership, no incarnation tags.

use crate::codec::{encode_submit, FrameDecoder, WireFrame};
use ftbb_bnb::AnyInstance;
use ftbb_core::JobId;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// What one submission produced, as seen from the client side.
#[derive(Debug, Clone)]
pub struct SubmitOutcome {
    /// The job that was submitted.
    pub job: JobId,
    /// The pool node that accepted it (the job's gateway).
    pub accepted_by: u32,
    /// Incumbent improvements streamed before the final result, in
    /// arrival order.
    pub incumbents: Vec<f64>,
    /// Did the pool detect termination (optimality proven)?
    pub finished: bool,
    /// The final incumbent.
    pub incumbent: f64,
    /// Subproblems the gateway expanded for this job (its local count,
    /// not the pool-wide total).
    pub expanded: u64,
}

fn timed_out(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::TimedOut, msg)
}

/// Longest pause between two refused connects.
const MAX_CONNECT_BACKOFF: Duration = Duration::from_millis(100);

/// Connect to `addr`, retrying refused connections with a short, growing
/// backoff until `deadline`: a gateway that is still binding its
/// listener, or restarting, refuses for a moment and then accepts. Any
/// other connect error is returned at once.
fn connect_until(addr: SocketAddr, deadline: Instant) -> std::io::Result<TcpStream> {
    let mut backoff = Duration::from_millis(5);
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(timed_out(format!(
                "no listener at {addr} before the deadline"
            )));
        }
        match TcpStream::connect_timeout(&addr, left.min(Duration::from_secs(5))) {
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {
                let left = deadline.saturating_duration_since(Instant::now());
                std::thread::sleep(backoff.min(left));
                backoff = (backoff * 2).min(MAX_CONNECT_BACKOFF);
            }
            result => return result,
        }
    }
}

/// Submit `instance` as `job` to the service node at `addr` and block
/// until the final `JobResult` arrives (or `timeout` expires). A refused
/// connect is retried until the timeout, and the stream is read in short
/// slices, so neither a gateway still coming up nor a slow pool wedges
/// the client past its deadline.
pub fn submit_job(
    addr: SocketAddr,
    job: JobId,
    instance: &AnyInstance,
    timeout: Duration,
) -> std::io::Result<SubmitOutcome> {
    let frame = encode_submit(job, instance);
    if frame.exceeds_limit() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "instance exceeds the frame payload limit; ship it out of band (tree file)",
        ));
    }
    let deadline = Instant::now() + timeout;
    let mut stream = connect_until(addr, deadline)?;
    stream.set_nodelay(true).ok();
    stream.write_all(&frame.bytes)?;

    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 16 * 1024];
    let mut accepted_by: Option<u32> = None;
    let mut incumbents = Vec::new();
    loop {
        if Instant::now() >= deadline {
            return Err(timed_out(format!(
                "no final result for job {} within {:.1}s",
                job.raw(),
                timeout.as_secs_f64()
            )));
        }
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .ok();
        let n = match stream.read(&mut buf) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    format!(
                        "gateway closed the stream before job {} finished",
                        job.raw()
                    ),
                ));
            }
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) => return Err(e),
        };
        decoder.push(&buf[..n]);
        loop {
            match decoder.try_next() {
                Ok(Some(WireFrame::JobAccepted { job: j, node })) if j == job => {
                    accepted_by = Some(node);
                }
                Ok(Some(WireFrame::JobResult {
                    job: j,
                    finished,
                    incumbent,
                    expanded,
                })) if j == job => {
                    if finished {
                        return Ok(SubmitOutcome {
                            job,
                            accepted_by: accepted_by.unwrap_or(u32::MAX),
                            incumbents,
                            finished: true,
                            incumbent,
                            expanded,
                        });
                    }
                    incumbents.push(incumbent);
                }
                // Frames for other jobs (a shared client socket is not
                // supported, but tolerated) and any other kind: skip.
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("corrupt result stream for job {}: {e}", job.raw()),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode_accepted, encode_result};
    use std::net::TcpListener;

    /// A loopback address nothing listens on (bound, then released).
    fn free_addr() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    }

    fn instance() -> AnyInstance {
        AnyInstance::from(ftbb_bnb::MaxSatInstance::generate(4, 8, 2))
    }

    #[test]
    fn a_listener_that_appears_late_is_reached() {
        let addr = free_addr();
        let gateway = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(200));
            let listener = TcpListener::bind(addr).unwrap();
            let (mut stream, _) = listener.accept().unwrap();
            // Read the whole submission before answering.
            let mut decoder = FrameDecoder::new();
            let mut buf = [0u8; 4096];
            loop {
                let n = stream.read(&mut buf).unwrap();
                assert!(n > 0, "client hung up before submitting");
                decoder.push(&buf[..n]);
                if let Some(WireFrame::SubmitJob { job, .. }) = decoder.try_next().unwrap() {
                    assert_eq!(job, JobId::from(5));
                    break;
                }
            }
            let job = JobId::from(5);
            stream.write_all(&encode_accepted(job, 3).bytes).unwrap();
            stream
                .write_all(&encode_result(job, true, -7.0, 12).bytes)
                .unwrap();
            // Hold the stream open until the client has read and left.
            while stream.read(&mut buf).is_ok_and(|n| n > 0) {}
        });

        let start = Instant::now();
        let outcome = submit_job(addr, JobId::from(5), &instance(), Duration::from_secs(10))
            .expect("the late listener is reached");
        assert!(start.elapsed() >= Duration::from_millis(200));
        assert_eq!(outcome.accepted_by, 3);
        assert!(outcome.finished);
        assert_eq!(outcome.incumbent, -7.0);
        assert_eq!(outcome.expanded, 12);
        gateway.join().unwrap();
    }

    #[test]
    fn a_missing_listener_errors_at_the_deadline_not_before() {
        let addr = free_addr();
        let timeout = Duration::from_millis(300);
        let start = Instant::now();
        let err = submit_job(addr, JobId::from(5), &instance(), timeout)
            .expect_err("nothing ever listens");
        let elapsed = start.elapsed();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut, "{err}");
        assert!(elapsed >= timeout, "gave up early: {elapsed:?}");
        assert!(elapsed < timeout + Duration::from_secs(2), "{elapsed:?}");
    }
}
