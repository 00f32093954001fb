//! The observability acceptance contract: a burn-in → corrupt → recover
//! run executed with a live recorder must leave a JSONL event log from
//! which the **full per-version lifecycle** — submission, shard count,
//! bytes written, commit, rejection reasons, recovered version — can be
//! reconstructed without consulting any other output; and the span log
//! must contain exactly one commit span per *published* version, none
//! for versions whose publish failed.

use scrutiny_ckpt::names;
use scrutiny_core::{scrutinize, EngineConfig, EngineHandle, MemBackend, Policy, RecoveryWalk};
use scrutiny_engine::{DeltaPolicy, StorageBackend};
use scrutiny_faultinj::{Op, Rule, ScriptedBackend, StorageScenario};
use scrutiny_npb::{burn_in, BurnIn, Cg, Drift};
use scrutiny_obs::{Recorder, Snapshot};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The ISSUE's acceptance criterion, end to end: run the NPB recovery
/// burn-in with a live recorder, serialize the log to JSONL, parse it
/// back, and reconstruct the whole run from the parsed log **alone**.
/// The returned report is consulted only afterwards, to confirm the
/// reconstruction matches what the code under test said happened.
#[test]
fn recovery_lifecycle_reconstructs_from_jsonl_alone() {
    const EPOCHS: usize = 3;
    let rec = Recorder::with_capacity(1 << 16);
    let engine = EngineHandle::open(
        Arc::new(MemBackend::new()),
        EngineConfig {
            recorder: rec.clone(),
            ..Default::default()
        },
    )
    .unwrap();
    let app = Cg::mini();
    let analysis = scrutinize(&app).unwrap();
    let run = BurnIn {
        drift: Drift::Uncritical,
        fault: Some(StorageScenario::FlippedPayloadByte),
        recorder: rec.clone(),
        ..BurnIn::new(EPOCHS, Policy::Full)
    };
    let report = burn_in(&app, &analysis, &engine, &run).unwrap();

    // Serialize → parse back under the schema. Everything below reads `snap`.
    let jsonl = rec.snapshot().to_jsonl();
    let snap = Snapshot::from_jsonl(&jsonl).expect("emitted JSONL violates its own schema");
    let spans = snap.spans();

    // 1. Submissions: one `engine.submit` span per epoch, versions 0..N,
    //    each carrying the shard count the submission fanned out into.
    let mut submitted: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "engine.submit") {
        let v = s.field_u64("version").expect("submit span has a version");
        let shards = s.field_u64("shards").expect("submit span has shards");
        assert!(shards >= 1);
        assert!(
            submitted.insert(v, shards).is_none(),
            "duplicate submit v{v}"
        );
    }
    let versions: Vec<u64> = submitted.keys().copied().collect();
    assert_eq!(versions, (0..EPOCHS as u64).collect::<Vec<_>>());
    let newest = *versions.last().unwrap();

    // 2. Bytes written: every version published an `engine.published`
    //    point whose byte breakdown sums to total_bytes.
    let mut published: BTreeMap<u64, u64> = BTreeMap::new();
    for ev in snap.events_named("engine.published") {
        let v = ev.field_u64("version").unwrap();
        let total = ev.field_u64("total_bytes").unwrap();
        let parts = ev.field_u64("payload_bytes").unwrap()
            + ev.field_u64("aux_bytes").unwrap()
            + ev.field_u64("header_bytes").unwrap();
        assert_eq!(total, parts, "v{v} byte breakdown does not sum");
        assert!(ev.field_u64("payload_bytes").unwrap() > 0);
        published.insert(v, total);
    }
    assert_eq!(
        published.keys().copied().collect::<Vec<_>>(),
        versions,
        "every submitted version published"
    );

    // 3. Commits: exactly one `engine.commit` span per published
    //    version, nested under that version's `engine.publish` span, and
    //    carrying the marker object + size.
    for &v in published.keys() {
        let commits: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "engine.commit" && s.field_u64("version") == Some(v))
            .collect();
        assert_eq!(commits.len(), 1, "v{v} must commit exactly once");
        let commit = commits[0];
        assert!(commit.field_u64("marker_bytes").unwrap() > 0);
        assert!(commit.end_us.is_some(), "commit span closed");
        let parent = spans
            .iter()
            .find(|s| s.id == commit.parent)
            .expect("commit span has a recorded parent");
        assert_eq!(parent.name, "engine.publish");
        assert_eq!(parent.field_u64("version"), Some(v));
        assert!(
            parent.end_us.is_some(),
            "v{v}: publish span closes before the ticket resolves"
        );
    }

    // 4. The injected fault: scenario, victim version, damaged object.
    let inject = snap
        .events_named("faultinj.inject")
        .next()
        .expect("injection left a trace");
    assert_eq!(inject.field_str("scenario"), Some("flipped_payload_byte"));
    assert_eq!(inject.field_u64("version"), Some(newest));
    let damaged_object = inject.field_str("object").unwrap().to_string();

    // 5. The recovery walk: newest examined first and rejected with a
    //    reason, an older intact version recovered.
    let walk = RecoveryWalk::from_snapshot(&snap);
    assert_eq!(walk.candidates.first(), Some(&newest));
    let (rejected_v, reason) = walk.rejected.first().expect("damaged newest was rejected");
    assert_eq!(*rejected_v, newest);
    assert!(!reason.is_empty(), "rejection carries its reason");
    let recovered = walk.recovered.expect("an intact version recovered");
    assert!(recovered < newest);
    assert!(
        published.contains_key(&recovered),
        "recovered version is one the log saw published"
    );

    // 6. The per-epoch application view: one `npb.epoch` point per
    //    epoch, with the wait time and the bytes that epoch stored.
    let epochs: Vec<_> = snap.events_named("npb.epoch").collect();
    assert_eq!(epochs.len(), EPOCHS);
    for (i, ev) in epochs.iter().enumerate() {
        assert_eq!(ev.field_u64("epoch"), Some(i as u64));
        let v = ev.field_u64("version").unwrap();
        assert_eq!(ev.field_u64("total_bytes"), published.get(&v).copied());
    }

    // Only now consult the report: the log-derived story must agree
    // with what the run itself returned.
    let recovery = report.recovery.expect("a fault was injected");
    assert_eq!(recovery.newest_version, newest);
    assert_eq!(recovery.recovered_version, recovered);
    assert_eq!(recovery.rejected_versions, vec![newest]);
    assert_eq!(recovery.damaged, damaged_object);
    assert!(report.verified);
}

/// Satellite 4's commit-span contract on the delta path: a version whose
/// publish fails (here: every storage put of version 1 errors) must
/// appear in the log with a submission and a `engine.publish_failed`
/// point but **no** commit span, while every published version gets
/// exactly one — even though delta epochs route their commit through the
/// chain writer rather than the monolithic marker put.
#[test]
fn exactly_one_commit_span_per_published_version_including_failed_delta_epochs() {
    // Every put belonging to version 1 fails; everything else goes to
    // the wrapped in-memory backend.
    let v1 = |op, name: &str| op == Op::Put && names::classify(name).version() == Some(1);
    let lost = |_: &str| scrutiny_ckpt::CkptError::Corrupt("epoch 1 lost".into());
    let backend = ScriptedBackend::new(Arc::new(MemBackend::new())).rule(Rule::fail(v1, lost));
    let rec = Recorder::with_capacity(1 << 14);
    let engine = EngineHandle::open(
        Arc::new(backend),
        EngineConfig {
            workers: 2,
            delta: Some(DeltaPolicy {
                page_bytes: 256,
                rebase_every: 10,
            }),
            recorder: rec.clone(),
            ..Default::default()
        },
    )
    .unwrap();

    let mut vars = vec![scrutiny_ckpt::VarRecord::new(
        "u",
        scrutiny_ckpt::VarData::F64((0..300).map(|i| i as f64).collect()),
    )];
    let plans = vec![scrutiny_ckpt::VarPlan::Full];
    let mut outcomes = Vec::new();
    for epoch in 0..4u64 {
        if let scrutiny_ckpt::VarData::F64(v) = &mut vars[0].data {
            v[0] = epoch as f64 + 0.25;
        }
        let t = engine.submit(&vars, &plans).unwrap();
        outcomes.push(engine.wait(t).is_ok());
    }
    assert_eq!(outcomes, vec![true, false, true, true]);

    // Round-trip the log through JSONL: the contract holds on the
    // serialized form, not just the live snapshot.
    let jsonl = rec.snapshot().to_jsonl();
    let snap = Snapshot::from_jsonl(&jsonl).unwrap();
    let spans = snap.spans();

    let published: Vec<u64> = snap
        .events_named("engine.published")
        .filter_map(|ev| ev.field_u64("version"))
        .collect();
    assert_eq!(published, vec![0, 2, 3]);

    let mut commit_counts: BTreeMap<u64, usize> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "engine.commit") {
        *commit_counts
            .entry(s.field_u64("version").unwrap())
            .or_default() += 1;
    }
    for v in &published {
        assert_eq!(
            commit_counts.get(v),
            Some(&1),
            "v{v}: exactly one commit span"
        );
    }
    assert!(
        !commit_counts.contains_key(&1),
        "the failed epoch must not have a commit span"
    );

    let failed = snap
        .events_named("engine.publish_failed")
        .next()
        .expect("the failed publish left a point event");
    assert_eq!(failed.field_u64("version"), Some(1));
    assert!(failed.field_str("error").is_some());

    assert_eq!(snap.counter("engine.submissions"), Some(4));
    assert_eq!(snap.counter("engine.commits"), Some(3));
    assert_eq!(snap.counter("engine.publish_failures"), Some(1));

    // A fifth submission into a disabled recorder leaves no trace: the
    // default path stays observability-free.
    let quiet = EngineHandle::open(Arc::new(MemBackend::new()), EngineConfig::default()).unwrap();
    let t = quiet.submit(&vars, &plans).unwrap();
    quiet.wait(t).unwrap();
    assert_eq!(quiet.recorder().snapshot(), Snapshot::empty());
}

/// The compression block's observability contract: an engine publishing
/// with the at-rest codec emits one `ckpt.compress` span per compressed
/// object and advances the `engine.raw_bytes` / `engine.compressed_bytes`
/// counters; restoring those objects through the observed parallel
/// pipeline emits `ckpt.decompress` spans. All of it survives the JSONL
/// round trip.
#[test]
fn compression_spans_and_byte_counters_cover_publish_and_restore() {
    let rec = Recorder::with_capacity(1 << 14);
    let mem = Arc::new(MemBackend::new());
    let engine = EngineHandle::open(
        mem.clone(),
        EngineConfig {
            recorder: rec.clone(),
            codec: scrutiny_ckpt::CodecConfig {
                at_rest: scrutiny_ckpt::AtRest::Auto,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap();

    let app = Cg::mini();
    let analysis = scrutinize(&app).unwrap();
    let vars = scrutiny_core::restart::capture_state(&app);
    let plans = scrutiny_core::plan::plans_for(&analysis, Policy::PrunedValue);
    for _ in 0..2 {
        let t = engine.submit(&vars, &plans).unwrap();
        engine.wait(t).unwrap();
    }

    // Restore version 0 through the observed pipeline so the decode side
    // lands in the same log.
    let fetch = |name: &str| mem.get(name);
    let (image, _) = scrutiny_ckpt::read_data_image_parallel_obs(
        0,
        &fetch,
        &scrutiny_engine::RestoreOptions { threads: 2 },
        &rec,
    )
    .unwrap();
    assert!(!image.is_empty());

    let jsonl = rec.snapshot().to_jsonl();
    let snap = Snapshot::from_jsonl(&jsonl).expect("emitted JSONL violates its own schema");
    let spans = snap.spans();

    let compresses: Vec<_> = spans.iter().filter(|s| s.name == "ckpt.compress").collect();
    assert!(
        !compresses.is_empty(),
        "each compressed publish runs under a ckpt.compress span"
    );
    for s in &compresses {
        assert!(s.field_u64("raw_bytes").unwrap() > 0);
        assert!(s.end_us.is_some(), "compress span closed");
    }

    let decompresses: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "ckpt.decompress")
        .collect();
    assert!(
        !decompresses.is_empty(),
        "the observed restore decodes under ckpt.decompress spans"
    );
    for s in &decompresses {
        assert!(s.field_u64("stored_bytes").unwrap() > 0);
    }

    let raw = snap.counter("engine.raw_bytes").unwrap();
    let stored = snap.counter("engine.compressed_bytes").unwrap();
    assert!(
        0 < stored && stored <= raw,
        "byte counters: stored {stored} vs raw {raw}"
    );
}
