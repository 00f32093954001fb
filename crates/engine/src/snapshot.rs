//! Staging layer: owned snapshots of application state, gated so a
//! bounded number are in flight.
//!
//! The compute thread cannot keep mutating its arrays while the
//! publisher serializes them, so `submit` first *stages* the variables —
//! a plain memcpy into an owned [`Snapshot`] — and returns; serialization
//! and I/O happen off-thread against the staged copy. An internal staging
//! gate bounds how many staged snapshots exist at once
//! (`EngineConfig::queue_depth`, two by default: classic double buffering — a new snapshot can stage while the
//! previous one drains, and a third `submit` blocks instead of letting
//! checkpoint memory grow without bound).

use scrutiny_ckpt::{VarPlan, VarRecord};
use std::sync::{Condvar, Mutex};

/// An owned, immutable copy of one checkpoint's variables and plans,
/// decoupled from the application's live buffers.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Captured variable payloads (in spec order).
    pub vars: Vec<VarRecord>,
    /// Per-variable storage plans (same order and length as `vars`).
    pub plans: Vec<VarPlan>,
}

impl Snapshot {
    /// Build a snapshot from already-owned records.
    pub fn new(vars: Vec<VarRecord>, plans: Vec<VarPlan>) -> Self {
        Snapshot { vars, plans }
    }

    /// Stage a copy of borrowed records — the memcpy on the compute
    /// thread's critical path; everything after it is off-thread.
    pub fn capture(vars: &[VarRecord], plans: &[VarPlan]) -> Self {
        Snapshot {
            vars: vars.to_vec(),
            plans: plans.to_vec(),
        }
    }

    /// Total payload bytes held (full, unpruned sizes).
    pub fn full_bytes(&self) -> usize {
        self.vars.iter().map(|v| v.data.full_bytes()).sum()
    }
}

/// Counting gate over staged snapshots (a tiny semaphore; `std` has
/// none). Public because it is the engine's double-buffered admission
/// primitive: `scrutinyd` reuses it per tenant to bound how many
/// submissions a tenant may have in flight against the shared pool.
pub struct StagingGate {
    staged: Mutex<usize>,
    cv: Condvar,
    capacity: usize,
}

impl StagingGate {
    /// A gate admitting at most `capacity` concurrent holders.
    pub fn new(capacity: usize) -> Self {
        StagingGate {
            staged: Mutex::new(0),
            cv: Condvar::new(),
            capacity,
        }
    }

    /// Block until a staging slot is free, then claim it.
    pub fn acquire(&self) {
        let mut n = self.staged.lock().unwrap();
        while *n >= self.capacity {
            n = self.cv.wait(n).unwrap();
        }
        *n += 1;
    }

    /// Return a slot (called when a submission resolves, success or not).
    pub fn release(&self) {
        let mut n = self.staged.lock().unwrap();
        debug_assert!(*n > 0, "staging gate released more than acquired");
        *n = n.saturating_sub(1);
        drop(n);
        self.cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrutiny_ckpt::VarData;
    use std::sync::Arc;

    #[test]
    fn capture_is_deep() {
        let vars = vec![VarRecord::new("u", VarData::F64(vec![1.0, 2.0]))];
        let snap = Snapshot::capture(&vars, &[VarPlan::Full]);
        assert_eq!(snap.vars, vars);
        assert_eq!(snap.full_bytes(), 16);
    }

    #[test]
    fn gate_blocks_third_stager() {
        let gate = Arc::new(StagingGate::new(2));
        gate.acquire();
        gate.acquire();
        let g2 = gate.clone();
        let t = std::thread::spawn(move || {
            g2.acquire(); // blocks until a release
            g2.release();
        });
        // Give the thread a moment to reach the blocked state, then free
        // a slot; the thread must then finish.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!t.is_finished(), "third acquire should have blocked");
        gate.release();
        t.join().unwrap();
        gate.release();
    }
}
