//! Cooperative per-request deadlines for the scan loops.
//!
//! A resident daemon cannot let one slow query wedge a worker: the scan
//! loop must notice, mid-pass, that its request ran out of time. Rust
//! offers no safe preemption, so the deadline is **cooperative**: every
//! thread of a run mints its own [`Deadline`] poller from the run's
//! expiry ([`Run::deadline`](crate::Run::deadline)) and polls it once
//! per candidate or pulled unit. Polling strides (one `Instant::now()`
//! every few polls) so the check costs nothing on the hot path, and a
//! forced check runs before the work starts so an already-expired
//! deadline fails immediately instead of after the first stride.
//!
//! An expired deadline aborts the whole request with
//! [`DeadlineExceeded`] — **no partial ranking is returned**. A top-k
//! ranking over a prefix of the candidate set could silently miss
//! better subtrees later in the stream, exactly the failure the
//! streaming integrity checks exist to prevent; refusing is the only
//! honest answer.

use std::cell::Cell;
use std::time::Instant;

/// Clock reads are amortized over this many polls.
const POLL_STRIDE: u32 = 8;

/// A cooperative deadline poller: cheap to poll from a scan loop,
/// sticky once expired.
///
/// Not `Sync` by design (the stride counter is a [`Cell`]): exactly one
/// thread polls it, and every worker thread mints its own.
#[derive(Debug)]
pub(crate) struct Deadline {
    at: Option<Instant>,
    polls: Cell<u32>,
    expired: Cell<bool>,
}

impl Deadline {
    /// A poller that expires at `at`, or never.
    pub(crate) fn new(at: Option<Instant>) -> Self {
        Deadline {
            at,
            polls: Cell::new(0),
            expired: Cell::new(false),
        }
    }

    /// Strided check: reads the clock every `POLL_STRIDE`th call (8) and
    /// returns `true` once the deadline has passed. Sticky: after the
    /// first `true`, every later call answers `true` without a clock
    /// read.
    pub(crate) fn poll(&self) -> bool {
        if self.expired.get() {
            return true;
        }
        let Some(at) = self.at else { return false };
        let polls = self.polls.get().wrapping_add(1);
        self.polls.set(polls);
        if !polls.is_multiple_of(POLL_STRIDE) {
            return false;
        }
        let hit = Instant::now() >= at;
        if hit {
            self.expired.set(true);
        }
        hit
    }

    /// Forced check (no striding): reads the clock now. Used before a
    /// scan or pull loop starts so a request that arrives already past
    /// its deadline fails before any work happens.
    pub(crate) fn expired_now(&self) -> bool {
        if self.expired.get() {
            return true;
        }
        match self.at {
            None => false,
            Some(at) => {
                let hit = Instant::now() >= at;
                if hit {
                    self.expired.set(true);
                }
                hit
            }
        }
    }
}

/// A run was cancelled mid-pass because its deadline
/// ([`Run::deadline`](crate::Run::deadline)) expired.
///
/// No partial ranking accompanies this error: a top-k over a prefix of
/// the candidate stream could silently miss better matches in the
/// unscanned suffix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineExceeded;

impl std::fmt::Display for DeadlineExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "deadline exceeded: the scan was cancelled and no partial ranking is returned"
        )
    }
}

impl std::error::Error for DeadlineExceeded {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn after(dur: Duration) -> Deadline {
        Deadline::new(Some(Instant::now() + dur))
    }

    #[test]
    fn none_never_expires() {
        let d = Deadline::new(None);
        for _ in 0..1000 {
            assert!(!d.poll());
        }
        assert!(!d.expired_now());
    }

    #[test]
    fn past_deadline_is_caught_by_the_forced_check() {
        let d = after(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        assert!(d.expired_now());
        // Sticky: the strided path answers immediately now.
        assert!(d.poll());
    }

    #[test]
    fn strided_poll_expires_within_a_stride() {
        let d = after(Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(10));
        let polls_until_hit = (0..=POLL_STRIDE).take_while(|_| !d.poll()).count() as u32;
        assert!(polls_until_hit <= POLL_STRIDE, "{polls_until_hit}");
    }

    #[test]
    fn future_deadline_does_not_fire() {
        let d = after(Duration::from_secs(3600));
        for _ in 0..100 {
            assert!(!d.poll());
        }
        assert!(!d.expired_now());
    }
}
