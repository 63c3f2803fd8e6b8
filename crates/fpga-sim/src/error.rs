//! Typed simulation errors.
//!
//! The executor used to `panic!` on a deadlock, which aborted an entire
//! multi-run sweep when one configuration was broken. Deadlocks and invalid
//! configurations are now ordinary values a batch scheduler can report per
//! run and keep going.
//!
//! Deadlock reports are deterministic — blocked threads are sorted by thread
//! id — and actionable: each entry names the resource the thread is parked
//! on (who holds the semaphore and how many waiters are ahead, or how many
//! threads the barrier has collected out of the live set).

use crate::memimg::LaunchError;
use std::fmt;

/// Why a blocked thread cannot make progress.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockedReason {
    /// Queued on the hardware semaphore (inside a `critical` acquire).
    SemaphoreWait {
        /// Thread currently holding the semaphore, if any. `None` only in
        /// pathological states (a report taken mid-release).
        holder: Option<u32>,
        /// Number of waiters queued ahead of this thread.
        queued_ahead: u32,
    },
    /// Arrived at the barrier, waiting for the remaining threads.
    AtBarrier {
        /// Threads that have reached the barrier so far (including this one).
        arrived: u32,
        /// Live (non-finished) threads the barrier is waiting for in total.
        expected: u32,
    },
}

impl fmt::Display for BlockedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockedReason::SemaphoreWait {
                holder,
                queued_ahead,
            } => {
                match holder {
                    Some(h) => write!(f, "waiting on semaphore held by thread {h}")?,
                    None => write!(f, "waiting on semaphore (unheld)")?,
                }
                if *queued_ahead > 0 {
                    write!(f, ", {queued_ahead} ahead in queue")?;
                }
                Ok(())
            }
            BlockedReason::AtBarrier { arrived, expected } => {
                write!(f, "waiting at barrier ({arrived}/{expected} arrived)")
            }
        }
    }
}

/// One thread of a deadlocked run: who is stuck, where, and since when.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockedThread {
    /// Hardware thread id.
    pub thread: u32,
    /// The thread's local clock when it blocked.
    pub at_cycle: u64,
    /// What the thread is blocked on.
    pub reason: BlockedReason,
}

impl fmt::Display for BlockedThread {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "thread {} {} since cycle {}",
            self.thread, self.reason, self.at_cycle
        )
    }
}

/// Terminal failure of a simulation run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// No runnable thread remains but the run is not complete: every live
    /// thread is queued on the semaphore or parked at the barrier.
    Deadlock {
        /// The blocked thread set with their barrier/lock states, sorted by
        /// thread id.
        waiting: Vec<BlockedThread>,
    },
    /// The [`crate::SimConfig`] failed [`crate::SimConfig::validate`].
    InvalidConfig(String),
    /// The launch arguments do not fit the kernel's signature.
    Launch(LaunchError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { waiting } => {
                write!(f, "simulator deadlock: no runnable thread (")?;
                for (i, b) in waiting.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{b}")?;
                }
                write!(f, ")")
            }
            SimError::InvalidConfig(msg) => write!(f, "invalid simulator configuration: {msg}"),
            SimError::Launch(e) => write!(f, "launch does not fit the kernel: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadlock_display_names_every_blocked_thread() {
        let e = SimError::Deadlock {
            waiting: vec![
                BlockedThread {
                    thread: 1,
                    at_cycle: 10,
                    reason: BlockedReason::SemaphoreWait {
                        holder: Some(0),
                        queued_ahead: 2,
                    },
                },
                BlockedThread {
                    thread: 3,
                    at_cycle: 40,
                    reason: BlockedReason::AtBarrier {
                        arrived: 1,
                        expected: 4,
                    },
                },
            ],
        };
        let s = e.to_string();
        assert!(
            s.contains(
                "thread 1 waiting on semaphore held by thread 0, 2 ahead in queue since cycle 10"
            ),
            "{s}"
        );
        assert!(
            s.contains("thread 3 waiting at barrier (1/4 arrived) since cycle 40"),
            "{s}"
        );
    }

    #[test]
    fn semaphore_wait_with_empty_queue_reads_cleanly() {
        let r = BlockedReason::SemaphoreWait {
            holder: Some(2),
            queued_ahead: 0,
        };
        assert_eq!(r.to_string(), "waiting on semaphore held by thread 2");
    }

    #[test]
    fn invalid_config_display() {
        let e = SimError::InvalidConfig("seq_issue_width must be nonzero".into());
        assert!(e.to_string().contains("seq_issue_width"));
    }
}
