//! Integration tests for the sharded, eviction-aware synthesis cache — the
//! acceptance criteria of the cache refactor:
//!
//! * hit/miss counters stay consistent under concurrent batch traffic,
//! * eviction respects the configured size bound,
//! * a snapshot round-trip (save → load → warm hits) is lossless.

use rand::rngs::StdRng;
use rand::SeedableRng;

use qsp_core::batch::{BatchOptions, BatchSynthesizer};
use qsp_core::{CacheConfig, Provenance, SynthesisRequest, WorkflowConfig};
use qsp_sim::verify_preparation;
use qsp_state::{generators, SparseState};

fn random_workload(seed: u64, count: usize) -> Vec<SparseState> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| generators::random_sparse_state(7, &mut rng).unwrap())
        .collect()
}

fn requests(targets: &[SparseState]) -> Vec<SynthesisRequest<SparseState>> {
    targets
        .iter()
        .map(|t| SynthesisRequest::new(t.clone()))
        .collect()
}

#[test]
fn snapshot_round_trip_is_lossless() {
    let targets = vec![
        generators::ghz(5).unwrap(),
        generators::dicke(4, 2).unwrap(),
        generators::w_state(4).unwrap(),
    ];
    let warm = BatchSynthesizer::new();
    let original = warm.synthesize_requests(&requests(&targets));
    assert_eq!(original.stats.errors, 0);
    assert_eq!(warm.cache_len(), 3);

    let dir = std::env::temp_dir().join("qsp_cache_snapshot_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("snapshot.json");
    let written = warm.save_cache_snapshot(&path).unwrap();
    assert_eq!(written, 3);

    // A fresh engine (cold cache) loads the snapshot and serves the whole
    // batch without a single solver run, bit-identically.
    let cold = BatchSynthesizer::new();
    assert_eq!(cold.cache_len(), 0);
    let loaded = cold.load_cache_snapshot(&path).unwrap();
    assert_eq!(loaded, 3);
    let warmed = cold.synthesize_requests(&requests(&targets));
    assert_eq!(warmed.stats.solver_runs, 0, "every class must warm-hit");
    assert_eq!(warmed.stats.cache_hits, targets.len());
    for ((a, b), target) in original.reports.iter().zip(&warmed.reports).zip(&targets) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(
            a.circuit, b.circuit,
            "snapshot round-trip must reproduce the identical circuit"
        );
        assert!(
            matches!(b.provenance, Provenance::CacheHit { .. }),
            "warm-start hits must be attributed to the cache"
        );
        assert!(verify_preparation(&b.circuit, target).unwrap().is_correct());
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn eviction_respects_the_size_bound_under_batch_load() {
    let engine = BatchSynthesizer::with_options(
        WorkflowConfig::default(),
        BatchOptions::default()
            .with_threads(2)
            .with_cache(CacheConfig::bounded(4).with_shards(2)),
    );
    let targets = random_workload(7, 16);
    let outcome = engine.synthesize_requests(&requests(&targets));
    assert_eq!(outcome.stats.errors, 0);
    let stats = engine.cache_stats();
    assert!(
        engine.cache_len() <= engine.cache().capacity(),
        "cache holds {} classes, bound is {}",
        engine.cache_len(),
        engine.cache().capacity()
    );
    assert!(
        stats.evictions > 0,
        "a 4-class bound must evict on 16 classes"
    );
    assert_eq!(stats.entries as u64 + stats.evictions, stats.insertions);
    // Results stay correct even with heavy eviction.
    for (target, report) in targets.iter().zip(&outcome.reports) {
        assert!(
            verify_preparation(&report.as_ref().unwrap().circuit, target)
                .unwrap()
                .is_correct()
        );
    }
}

#[test]
fn hit_and_miss_counters_stay_consistent_under_contention() {
    let engine = BatchSynthesizer::new();
    let workloads: Vec<Vec<SparseState>> =
        (0..4).map(|i| random_workload(100 + i % 2, 10)).collect();
    // Four threads share the cache through clones; workloads pairwise repeat
    // so cross-thread hits genuinely occur.
    std::thread::scope(|scope| {
        for targets in &workloads {
            let engine = engine.clone();
            scope.spawn(move || {
                let outcome = engine.synthesize_requests(&requests(targets));
                assert_eq!(outcome.stats.errors, 0);
            });
        }
    });
    let stats = engine.cache_stats();
    // Every planning lookup is exactly one hit or one miss; 40 targets were
    // looked up in total (each batch plans every target once; within-batch
    // followers bypass the store).
    assert!(stats.hits + stats.misses >= 20, "stats: {stats:?}");
    // Two batches sharing a seed can race planning-before-publish and both
    // solve (and insert) the same class — a replacement, not a new entry —
    // so insertions may exceed entries; it can never be below, and nothing
    // is evicted in an unbounded cache.
    assert!(stats.insertions >= stats.entries as u64, "stats: {stats:?}");
    assert_eq!(stats.evictions, 0);
    // 20 distinct classes across the four workloads (two seeds × 10).
    assert_eq!(engine.cache_len(), 20);

    // A replay of all workloads is served fully from the cache.
    let replay: usize = workloads
        .iter()
        .map(|targets| {
            engine
                .synthesize_requests(&requests(targets))
                .stats
                .solver_runs
        })
        .sum();
    assert_eq!(replay, 0);
}

#[test]
fn snapshot_of_a_bounded_cache_loads_into_a_bounded_cache() {
    let bounded_options =
        BatchOptions::default().with_cache(CacheConfig::bounded(2).with_shards(2));
    let warm = BatchSynthesizer::new();
    warm.synthesize_requests(&requests(&random_workload(55, 6)));
    let dir = std::env::temp_dir().join("qsp_cache_snapshot_bounded");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("snapshot.json");
    assert_eq!(warm.save_cache_snapshot(&path).unwrap(), 6);

    // Loading 6 classes into a 2-slot cache goes through the eviction-aware
    // path: the bound holds and the overflow is counted as evictions.
    let bounded = BatchSynthesizer::with_options(WorkflowConfig::default(), bounded_options);
    let loaded = bounded.load_cache_snapshot(&path).unwrap();
    assert_eq!(loaded, 6);
    assert!(bounded.cache_len() <= bounded.cache().capacity());
    assert!(bounded.cache_stats().evictions >= 4);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn a_loaded_snapshot_serves_permuted_and_flipped_variants() {
    // An asymmetric state: permuting and flipping its qubits yields a
    // different state of the same class.
    let base = SparseState::uniform_superposition(
        4,
        [0b0001u64, 0b0011, 0b0111].map(qsp_state::BasisIndex::new),
    )
    .unwrap();
    let variant = base
        .permute_qubits(&[1, 0, 3, 2])
        .unwrap()
        .apply_x(0)
        .unwrap();
    assert_ne!(base, variant);

    let warm = BatchSynthesizer::new();
    let solved = warm.synthesize_requests(&requests(std::slice::from_ref(&base)));
    let cost = solved.reports[0].as_ref().unwrap().cnot_cost;
    let dir = std::env::temp_dir().join("qsp_cache_snapshot_variant");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("snapshot.json");
    assert_eq!(warm.save_cache_snapshot(&path).unwrap(), 1);

    // The loaded class anchors the cold engine's keying, so the variant
    // keys onto it instead of anchoring a class of its own.
    let cold = BatchSynthesizer::new();
    assert_eq!(cold.load_cache_snapshot(&path).unwrap(), 1);
    let served = cold.synthesize_requests(&requests(std::slice::from_ref(&variant)));
    assert_eq!(served.stats.solver_runs, 0, "the variant must warm-hit");
    assert_eq!(served.stats.cache_hits, 1);
    let report = served.reports[0].as_ref().unwrap();
    assert!(matches!(report.provenance, Provenance::CacheHit { .. }));
    assert_eq!(report.cnot_cost, cost);
    assert!(verify_preparation(&report.circuit, &variant)
        .unwrap()
        .is_correct());
    std::fs::remove_file(&path).unwrap();
}
