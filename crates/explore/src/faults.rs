//! Seeded, deterministic fault injection for the exploration stack.
//!
//! A [`FaultPlan`] describes *exactly* which operations of a run fail and how:
//! store reads and writes are numbered 1, 2, 3, … in the order the store performs
//! them, job evaluations are numbered per job index by attempt, and every injected
//! failure fires at the step the plan names — never randomly. Replaying the same
//! plan against the same specification therefore reproduces the same failure
//! byte-for-byte, which is what lets the `tests/fault_injection.rs` wall assert
//! *byte-identical recovery* rather than "it didn't crash".
//!
//! The plan is threaded through three layers:
//!
//! * **Store** ([`ResultStore`](crate::ResultStore)): [`WriteFault`]s model a
//!   process killed mid-flush — an outright I/O error, a torn write (a truncated
//!   prefix lands in the memo file), or a crash after the temp file is written but
//!   before the rename. Read faults model an unavailable backing file.
//! * **Engine** ([`explore`](crate::explore)): [`FaultPlanBuilder::panic_job`]
//!   makes a job's evaluation panic for its first N attempts, exercising the
//!   engine's catch-unwind supervision (bounded retry, then quarantine);
//!   [`FaultPlanBuilder::stall_job`] delays a job, exercising the server's
//!   admission control.
//! * **Serve**: the server loads its store through the plan (degraded-mode
//!   startup) and flushes through it (degraded-mode recovery); slow or garbage
//!   *client* bytes are produced with [`deterministic_garbage`] by the test
//!   harness itself.
//!
//! A plan carries internal step counters, so one built plan describes **one**
//! run; build a fresh plan (same recipe) for every replay.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How one injected store write fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// The write fails outright with an I/O error before any byte is written.
    Error,
    /// A torn write: only the first `keep_bytes` bytes of the canonical file
    /// content reach the memo file (the tear *is* renamed into place, modeling a
    /// kill after the data loss), then the flush reports the injected error.
    Torn {
        /// Bytes of the canonical file content that survive the tear.
        keep_bytes: usize,
    },
    /// The temp file is fully written but the process "dies" before the atomic
    /// rename: the memo file keeps its previous content and the temp file is
    /// left behind, exactly as a mid-flush kill would.
    CrashBeforeRename,
}

/// A deterministic fault-injection plan; see the [module docs](self). Build one
/// with [`FaultPlan::builder`] and attach it via
/// [`ExplorationSpecBuilder::faults`](crate::ExplorationSpecBuilder::faults) or
/// `ServeConfig::faults`.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// `(job index, attempts that panic)` — the job's first N attempts panic.
    panics: Vec<(usize, u64)>,
    /// `(job index, stall)` — every attempt of the job sleeps first.
    stalls: Vec<(usize, Duration)>,
    /// Exact write ops (1-based) that fail, with their failure mode.
    write_faults: Vec<(u64, WriteFault)>,
    /// Inclusive 1-based write-op range that fails with [`WriteFault::Error`].
    write_outage: Option<(u64, u64)>,
    /// Exact read ops (1-based) that fail.
    read_faults: Vec<u64>,
    /// Inclusive 1-based read-op range that fails.
    read_outage: Option<(u64, u64)>,
    /// Store write ops performed so far.
    write_ops: AtomicU64,
    /// Store read ops performed so far.
    read_ops: AtomicU64,
    /// Evaluation attempts per job index. Keyed by job — not by worker or
    /// wall-clock — so the injected panics fire identically for every thread
    /// count and claim order.
    attempts: Mutex<std::collections::BTreeMap<usize, u64>>,
}

impl FaultPlan {
    /// Starts building a plan.
    pub fn builder() -> FaultPlanBuilder {
        FaultPlanBuilder::default()
    }

    /// Store write operations the plan has seen so far (1-based after the first).
    pub fn write_ops(&self) -> u64 {
        self.write_ops.load(Ordering::SeqCst)
    }

    /// Store read operations the plan has seen so far.
    pub fn read_ops(&self) -> u64 {
        self.read_ops.load(Ordering::SeqCst)
    }

    /// Evaluation attempts the plan has seen for one job index.
    pub fn job_attempts(&self, job: usize) -> u64 {
        self.attempts
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .get(&job)
            .copied()
            .unwrap_or(0)
    }

    /// Engine hook: counts one evaluation attempt of `job`, sleeps through a
    /// configured stall, and panics when the attempt is within the job's
    /// configured panic budget. Runs under the engine's catch-unwind supervision.
    pub(crate) fn on_job_attempt(&self, job: usize) {
        let attempt = {
            let mut attempts = self
                .attempts
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            let entry = attempts.entry(job).or_insert(0);
            *entry += 1;
            *entry
        };
        if let Some((_, stall)) = self.stalls.iter().find(|(index, _)| *index == job) {
            std::thread::sleep(*stall);
        }
        if let Some((_, failing)) = self.panics.iter().find(|(index, _)| *index == job) {
            if attempt <= *failing {
                panic!("injected evaluation fault: job {job} attempt {attempt}");
            }
        }
    }

    /// Store hook: counts one write op and returns the fault injected at this
    /// step, if any (an exact per-op fault wins over an outage range).
    pub(crate) fn next_store_write_fault(&self) -> Option<WriteFault> {
        let op = self.write_ops.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(&(_, fault)) = self.write_faults.iter().find(|(at, _)| *at == op) {
            return Some(fault);
        }
        match self.write_outage {
            Some((from, to)) if (from..=to).contains(&op) => Some(WriteFault::Error),
            _ => None,
        }
    }

    /// Store hook: counts one read op and returns the injected failure reason,
    /// if this step is faulted.
    pub(crate) fn next_store_read_fault(&self) -> Option<String> {
        let op = self.read_ops.fetch_add(1, Ordering::SeqCst) + 1;
        let outage = matches!(self.read_outage, Some((from, to)) if (from..=to).contains(&op));
        (self.read_faults.contains(&op) || outage)
            .then(|| format!("injected store read fault (op {op})"))
    }
}

/// Builder for a [`FaultPlan`]; every method names the deterministic step the
/// fault fires at.
#[derive(Debug, Default)]
pub struct FaultPlanBuilder {
    plan: FaultPlan,
}

impl FaultPlanBuilder {
    /// Makes the first `attempts` evaluation attempts of job `job` panic; the
    /// attempt after that succeeds. Use an attempt count at or above the engine's
    /// retry limit ([`JOB_ATTEMPT_LIMIT`](crate::JOB_ATTEMPT_LIMIT)) to poison the
    /// job permanently (retried, then quarantined).
    pub fn panic_job(mut self, job: usize, attempts: u64) -> Self {
        self.plan.panics.push((job, attempts));
        self
    }

    /// Makes every evaluation attempt of job `job` sleep for `stall` first —
    /// a deterministic "slow job" for admission-control tests.
    pub fn stall_job(mut self, job: usize, stall: Duration) -> Self {
        self.plan.stalls.push((job, stall));
        self
    }

    /// Injects `fault` at the store's `op`-th write (1-based).
    pub fn store_write_fault(mut self, op: u64, fault: WriteFault) -> Self {
        self.plan.write_faults.push((op, fault));
        self
    }

    /// Fails every store write in the inclusive 1-based op range `[from, to]`
    /// with [`WriteFault::Error`] — `(1, u64::MAX)` is a permanent outage.
    pub fn store_write_outage(mut self, from: u64, to: u64) -> Self {
        self.plan.write_outage = Some((from, to));
        self
    }

    /// Fails the store's `op`-th read (1-based) with an injected I/O error.
    pub fn store_read_fault(mut self, op: u64) -> Self {
        self.plan.read_faults.push(op);
        self
    }

    /// Fails every store read in the inclusive 1-based op range `[from, to]` —
    /// `(1, u64::MAX)` models a permanently unavailable backing file.
    pub fn store_read_outage(mut self, from: u64, to: u64) -> Self {
        self.plan.read_outage = Some((from, to));
        self
    }

    /// Finishes the plan. The `Arc` is what the spec and the server share: one
    /// plan instance carries one run's step counters.
    pub fn build(self) -> Arc<FaultPlan> {
        Arc::new(self.plan)
    }
}

/// Deterministic printable garbage (no newlines, no whitespace): `len` bytes in
/// `'!'..='~'` drawn from a splitmix64 stream seeded with `seed`. Test harnesses
/// stream this at the server to model a malformed or malicious client.
pub fn deterministic_garbage(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut word = state;
        word = (word ^ (word >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        word = (word ^ (word >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        word ^= word >> 31;
        out.push(b'!' + (word % 94) as u8);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_faults_fire_at_their_exact_op() {
        let plan = FaultPlan::builder()
            .store_write_fault(2, WriteFault::Torn { keep_bytes: 7 })
            .store_write_outage(4, 5)
            .build();
        assert_eq!(plan.next_store_write_fault(), None);
        assert_eq!(
            plan.next_store_write_fault(),
            Some(WriteFault::Torn { keep_bytes: 7 })
        );
        assert_eq!(plan.next_store_write_fault(), None);
        assert_eq!(plan.next_store_write_fault(), Some(WriteFault::Error));
        assert_eq!(plan.next_store_write_fault(), Some(WriteFault::Error));
        assert_eq!(plan.next_store_write_fault(), None);
        assert_eq!(plan.write_ops(), 6);
    }

    #[test]
    fn read_outages_cover_their_range() {
        let plan = FaultPlan::builder()
            .store_read_fault(1)
            .store_read_outage(3, u64::MAX)
            .build();
        assert!(plan.next_store_read_fault().is_some());
        assert!(plan.next_store_read_fault().is_none());
        assert!(plan.next_store_read_fault().is_some());
        assert!(plan.next_store_read_fault().is_some());
        assert_eq!(plan.read_ops(), 4);
    }

    #[test]
    fn job_panics_respect_their_attempt_budget() {
        let plan = FaultPlan::builder().panic_job(3, 2).build();
        for expected in 1..=2 {
            let clone = Arc::clone(&plan);
            let caught = std::panic::catch_unwind(move || clone.on_job_attempt(3));
            assert!(caught.is_err(), "attempt {expected} must panic");
        }
        plan.on_job_attempt(3); // third attempt succeeds
        plan.on_job_attempt(4); // unconfigured jobs never panic
        assert_eq!(plan.job_attempts(3), 3);
        assert_eq!(plan.job_attempts(4), 1);
    }

    #[test]
    fn garbage_is_deterministic_printable_and_newline_free() {
        let first = deterministic_garbage(11, 4096);
        assert_eq!(first, deterministic_garbage(11, 4096));
        assert_ne!(first, deterministic_garbage(12, 4096));
        assert!(first.iter().all(|&byte| (b'!'..=b'~').contains(&byte)));
    }
}
