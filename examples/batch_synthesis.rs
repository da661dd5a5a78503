//! Batch synthesis: prepare a whole fleet of target states in one call,
//! letting the engine parallelize across cores and solve each Sec. V-B
//! equivalence class only once — and read off each report's provenance to
//! see *how* every circuit was produced.
//!
//! Run with `cargo run --release -p qsp-examples --bin batch_synthesis`.

use rand::rngs::StdRng;
use rand::SeedableRng;

use qsp_core::batch::BatchSynthesizer;
use qsp_core::{Provenance, SynthesisRequest};
use qsp_sim::verify_preparation;
use qsp_state::{generators, SparseState};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A mixed workload: named states, random sparse states, and a few
    // duplicates/permuted variants the deduplication should collapse.
    let mut rng = StdRng::seed_from_u64(2024);
    let mut targets: Vec<SparseState> = vec![
        generators::ghz(6)?,
        generators::w_state(5)?,
        generators::dicke(4, 2)?,
        generators::ghz(6)?, // exact duplicate
        generators::ghz(6)?.permute_qubits(&[5, 4, 3, 2, 1, 0])?, // permuted variant
    ];
    for _ in 0..10 {
        targets.push(generators::random_sparse_state(8, &mut rng)?);
    }
    let requests: Vec<SynthesisRequest<SparseState>> = targets
        .iter()
        .map(|t| SynthesisRequest::new(t.clone()))
        .collect();

    let engine = BatchSynthesizer::new();
    let outcome = engine.synthesize_requests(&requests);

    println!(
        "batch of {} requests: {} solver runs, {} cache hits, {} errors in {:.2} ms\n",
        outcome.stats.targets,
        outcome.stats.solver_runs,
        outcome.stats.cache_hits,
        outcome.stats.errors,
        outcome.stats.elapsed.as_secs_f64() * 1e3,
    );

    for (target, report) in targets.iter().zip(&outcome.reports) {
        let report = report.as_ref().map_err(|e| e.clone())?;
        let how = match &report.provenance {
            Provenance::Solved => "fresh solve",
            Provenance::ReconstructedFromBatchRep { .. } => "batch-rep reconstruction",
            Provenance::CacheHit { .. } => "cache hit",
            Provenance::DedupAttach { .. } => "dedup attach",
            _ => "other",
        };
        let verified = verify_preparation(&report.circuit, target)?;
        println!(
            "{:>2} qubits, cardinality {:>3} -> {:>3} CNOTs via {how:<24} (verified: {})",
            target.num_qubits(),
            target.cardinality(),
            report.cnot_cost,
            verified.is_correct(),
        );
    }

    // Submitting the same workload again is served entirely from the cache.
    let again = engine.synthesize_requests(&requests);
    println!(
        "\nresubmission: {} solver runs, {} cache hits",
        again.stats.solver_runs, again.stats.cache_hits
    );
    Ok(())
}
