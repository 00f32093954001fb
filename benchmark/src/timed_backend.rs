//! A pass-through [`StorageBackend`] that counts calls, bytes and busy
//! time per operation. It changes no byte and no error — a missing
//! object stays `NotFound`, which layout probing relies on — so the
//! engine and the recovery scan behave exactly as over the bare backend.

use scrutiny_ckpt::CkptError;
use scrutiny_engine::StorageBackend;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Calls, payload bytes and summed busy time of one operation kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    pub calls: u64,
    pub bytes: u64,
    pub busy_ns: u64,
}

impl OpCounts {
    pub fn since(self, earlier: OpCounts) -> OpCounts {
        OpCounts {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }

    fn plus(self, other: OpCounts) -> OpCounts {
        OpCounts {
            calls: self.calls + other.calls,
            bytes: self.bytes + other.bytes,
            busy_ns: self.busy_ns + other.busy_ns,
        }
    }

    pub fn busy_ms(self) -> f64 {
        self.busy_ns as f64 / 1e6
    }
}

/// A point-in-time copy of every counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub put: OpCounts,
    pub get: OpCounts,
    pub list: OpCounts,
    pub delete: OpCounts,
    /// Wall time during which at least one `put` was in flight — the
    /// union of the put intervals, not their sum.
    pub put_inflight_ns: u64,
}

impl Counts {
    pub fn since(self, earlier: Counts) -> Counts {
        Counts {
            put: self.put.since(earlier.put),
            get: self.get.since(earlier.get),
            list: self.list.since(earlier.list),
            delete: self.delete.since(earlier.delete),
            put_inflight_ns: self.put_inflight_ns - earlier.put_inflight_ns,
        }
    }
}

impl std::ops::Add for Counts {
    type Output = Counts;

    fn add(self, other: Counts) -> Counts {
        Counts {
            put: self.put.plus(other.put),
            get: self.get.plus(other.get),
            list: self.list.plus(other.list),
            delete: self.delete.plus(other.delete),
            put_inflight_ns: self.put_inflight_ns + other.put_inflight_ns,
        }
    }
}

#[derive(Default)]
struct Op {
    calls: AtomicU64,
    bytes: AtomicU64,
    busy_ns: AtomicU64,
}

impl Op {
    // Relaxed: statistics only, they publish no other data.
    fn record(&self, bytes: usize, t0: Instant) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn load(&self) -> OpCounts {
        OpCounts {
            calls: self.calls.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }
}

#[derive(Default)]
struct Inflight {
    puts: usize,
    since: Option<Instant>,
    total_ns: u64,
}

/// See the module docs.
pub struct TimedBackend {
    inner: Arc<dyn StorageBackend>,
    put: Op,
    get: Op,
    list: Op,
    delete: Op,
    inflight: Mutex<Inflight>,
}

impl TimedBackend {
    pub fn new(inner: Arc<dyn StorageBackend>) -> Self {
        TimedBackend {
            inner,
            put: Op::default(),
            get: Op::default(),
            list: Op::default(),
            delete: Op::default(),
            inflight: Mutex::new(Inflight::default()),
        }
    }

    pub fn counts(&self) -> Counts {
        Counts {
            put: self.put.load(),
            get: self.get.load(),
            list: self.list.load(),
            delete: self.delete.load(),
            put_inflight_ns: self.lock_inflight().total_ns,
        }
    }

    fn lock_inflight(&self) -> std::sync::MutexGuard<'_, Inflight> {
        self.inflight
            .lock()
            .expect("no code panics while holding the in-flight lock")
    }
}

impl StorageBackend for TimedBackend {
    fn put(&self, name: &str, bytes: &[u8]) -> Result<(), CkptError> {
        let t0 = Instant::now();
        {
            let mut f = self.lock_inflight();
            f.puts += 1;
            f.since.get_or_insert(t0);
        }
        let result = self.inner.put(name, bytes);
        {
            let mut f = self.lock_inflight();
            f.puts -= 1;
            if f.puts == 0 {
                let since = f.since.take().expect("set by the first put in flight");
                f.total_ns += since.elapsed().as_nanos() as u64;
            }
        }
        self.put.record(bytes.len(), t0);
        result
    }

    fn get(&self, name: &str) -> Result<Vec<u8>, CkptError> {
        let t0 = Instant::now();
        let result = self.inner.get(name);
        self.get.record(result.as_ref().map_or(0, Vec::len), t0);
        result
    }

    fn list(&self) -> Result<Vec<String>, CkptError> {
        let t0 = Instant::now();
        let result = self.inner.list();
        self.list.record(0, t0);
        result
    }

    fn delete(&self, name: &str) -> Result<(), CkptError> {
        let t0 = Instant::now();
        let result = self.inner.delete(name);
        self.delete.record(0, t0);
        result
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrutiny_ckpt::{VarData, VarPlan, VarRecord};
    use scrutiny_engine::{
        DeltaPolicy, EngineConfig, EngineHandle, MemBackend, RecoveryConfig, RecoveryManager,
    };
    use scrutiny_faultinj::StorageScenario;

    /// Three delta epochs into `backend`, then a flipped byte in the
    /// newest: the recovery scan probes missing objects and falls back.
    fn write_and_damage(backend: Arc<dyn StorageBackend>) {
        let engine = EngineHandle::open(
            backend.clone(),
            EngineConfig {
                delta: Some(DeltaPolicy {
                    page_bytes: 256,
                    rebase_every: 8,
                }),
                ..Default::default()
            },
        )
        .unwrap();
        let mut v: Vec<f64> = (0..4096).map(|i| i as f64).collect();
        for epoch in 0..3 {
            v[epoch * 100] += 1.0;
            let vars = [VarRecord::new("u", VarData::F64(v.clone()))];
            let t = engine.submit(&vars, &[VarPlan::Full]).unwrap();
            engine.wait(t).unwrap();
        }
        drop(engine);
        StorageScenario::FlippedPayloadByte
            .inject(backend.as_ref(), 2)
            .unwrap();
    }

    #[test]
    fn recovery_through_the_wrapper_matches_recovery_without_it() {
        let bare: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        write_and_damage(bare.clone());
        let timed = Arc::new(TimedBackend::new(Arc::new(MemBackend::new())));
        write_and_damage(timed.clone());

        let recover = |b: Arc<dyn StorageBackend>| {
            RecoveryManager::new(b, RecoveryConfig::default())
                .recover_latest()
                .unwrap()
        };
        let a = recover(bare);
        let b = recover(timed.clone());
        assert_eq!(a.version, 1);
        assert_eq!((a.version, &a.data, &a.aux), (b.version, &b.data, &b.aux));
        assert_eq!(a.report.rejected_versions(), vec![2]);
        assert_eq!(b.report.rejected_versions(), vec![2]);

        let c = timed.counts();
        assert!(c.put.calls > 0 && c.put.bytes > 4096 * 8);
        assert!(c.get.calls > 0 && c.list.calls > 0);
        assert!(c.put_inflight_ns <= c.put.busy_ns);
    }

    #[test]
    fn errors_pass_through_unchanged() {
        let timed = TimedBackend::new(Arc::new(MemBackend::new()));
        let err = timed.get("ckpt_0000000000.data").unwrap_err();
        assert!(
            matches!(&err, CkptError::Io(e) if e.kind() == std::io::ErrorKind::NotFound),
            "a missing object must stay NotFound, got {err:?}"
        );
        // The failed call is still counted, with no bytes.
        let c = timed.counts();
        assert_eq!((c.get.calls, c.get.bytes), (1, 0));
        timed.delete("never_existed").unwrap();
    }
}
