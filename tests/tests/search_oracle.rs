//! Pinned A* oracle: the search's `expanded`, `pushed`, `cnot_cost` and
//! reduction ops for a fixed target corpus under five configurations.
//!
//! The search pops in `(f, g, insertion sequence)` order and enumerates the
//! transition library in a fixed order, so all four values are
//! deterministic. A change that only makes the search faster must leave
//! every row of [`ORACLE`] untouched; a row that moves means the search
//! itself changed (its pop order, its successors, its heuristic or its
//! distance keys). On a mismatch the test prints the full table it
//! computed, so a deliberate change can re-pin it.

use qsp_core::search::{shortest_reduction, SearchState, TransitionOp};
use qsp_core::{SearchConfig, SynthesisError};
use qsp_state::{generators, BasisIndex, SparseState};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The exact_corpus 4-qubit uniform draws: (width, cardinality, seed).
const UNIFORM_DRAWS: [(usize, usize, u64); 9] = [
    (4, 3, 0),
    (4, 3, 1),
    (4, 4, 0),
    (4, 4, 1),
    (4, 5, 16),
    (4, 5, 23),
    (4, 6, 4),
    (4, 6, 34),
    (4, 8, 23),
];

/// Seeded non-uniform targets: (width, cardinality, seed).
const REAL_DRAWS: [(usize, usize, u64); 10] = [
    (3, 3, 1),
    (3, 4, 3),
    (3, 5, 1),
    (3, 6, 4),
    (4, 3, 1),
    (4, 3, 5),
    (4, 3, 6),
    (4, 4, 2),
    (4, 4, 4),
    (4, 4, 9),
];

fn corpus() -> Vec<(String, SparseState)> {
    let mut targets = vec![(
        "fig1-3".to_string(),
        SparseState::uniform_superposition(3, [0b000u64, 0b011, 0b101, 0b110].map(BasisIndex::new))
            .unwrap(),
    )];
    for n in 2..=4 {
        targets.push((format!("ghz{n}"), generators::ghz(n).unwrap()));
        targets.push((format!("w{n}"), generators::w_state(n).unwrap()));
    }
    targets.push(("dicke3_2".to_string(), generators::dicke(3, 2).unwrap()));
    targets.push(("dicke4_3".to_string(), generators::dicke(4, 3).unwrap()));
    let dicke = generators::dicke(4, 2).unwrap();
    for mask in 0u64..16 {
        let mut variant = dicke.clone();
        for q in 0..4 {
            if mask >> q & 1 == 1 {
                variant = variant.apply_x(q).unwrap();
            }
        }
        targets.push((format!("dicke4_2^x{mask:04b}"), variant));
    }
    for (n, m, seed) in UNIFORM_DRAWS {
        let mut rng = StdRng::seed_from_u64(seed);
        let state = generators::random_uniform_state(n, m, &mut rng).unwrap();
        targets.push((format!("uniform{n}_m{m}_s{seed}"), state));
    }
    for (n, m, seed) in REAL_DRAWS {
        let mut rng = StdRng::seed_from_u64(seed);
        let state = generators::random_real_state(n, m, &mut rng).unwrap();
        targets.push((format!("real{n}_m{m}_s{seed}"), state));
    }
    targets
}

/// The configurations a target of `cardinality` entries runs under. The
/// Dijkstra ablation (no heuristic) expands far more states, so it runs on
/// the smaller targets only.
fn configs(cardinality: usize) -> Vec<(&'static str, SearchConfig)> {
    let mut configs = vec![("default", SearchConfig::default())];
    if cardinality <= 5 {
        configs.push(("dijkstra", SearchConfig::default().with_heuristic(false)));
    }
    configs.push((
        "compressed",
        SearchConfig::default().with_permutation_compression(true),
    ));
    configs.push((
        "no-cry",
        SearchConfig::default()
            .with_controlled_merges(false)
            .with_node_budget(20_000),
    ));
    configs.push(("budget500", SearchConfig::default().with_node_budget(500)));
    configs
}

/// FNV-1a over the ops' `Display` strings, one per line.
fn ops_hash(ops: &[TransitionOp]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for op in ops {
        for byte in op.to_string().bytes().chain([b'\n']) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn oracle_row(
    label: &str,
    config_name: &str,
    state: &SparseState,
    config: &SearchConfig,
) -> String {
    match shortest_reduction(&SearchState::from_state(state), config) {
        Ok(outcome) => format!(
            "{label} {config_name} cost={} expanded={} pushed={} ops={:016x}",
            outcome.cnot_cost,
            outcome.expanded,
            outcome.pushed,
            ops_hash(&outcome.reduction_ops)
        ),
        Err(SynthesisError::SearchBudgetExhausted { expanded }) => {
            format!("{label} {config_name} exhausted expanded={expanded}")
        }
        Err(other) => format!("{label} {config_name} error={other}"),
    }
}

/// One row per (target, configuration), in corpus order, recorded on the
/// search loop that predates the node arena.
const ORACLE: &str = "
    fig1-3 default cost=2 expanded=13 pushed=32 ops=b22c167c47a73cdd
    fig1-3 dijkstra cost=2 expanded=14 pushed=32 ops=b22c167c47a73cdd
    fig1-3 compressed cost=2 expanded=2 pushed=2 ops=b22c167c47a73cdd
    fig1-3 no-cry cost=2 expanded=13 pushed=32 ops=b22c167c47a73cdd
    fig1-3 budget500 cost=2 expanded=13 pushed=32 ops=b22c167c47a73cdd
    ghz2 default cost=1 expanded=1 pushed=4 ops=2f41fe894e841040
    ghz2 dijkstra cost=1 expanded=1 pushed=4 ops=2f41fe894e841040
    ghz2 compressed cost=1 expanded=1 pushed=1 ops=2f41fe894e841040
    ghz2 no-cry cost=1 expanded=1 pushed=4 ops=2f41fe894e841040
    ghz2 budget500 cost=1 expanded=1 pushed=4 ops=2f41fe894e841040
    w2 default cost=1 expanded=1 pushed=4 ops=2f41fe894e841040
    w2 dijkstra cost=1 expanded=1 pushed=4 ops=2f41fe894e841040
    w2 compressed cost=1 expanded=1 pushed=1 ops=2f41fe894e841040
    w2 no-cry cost=1 expanded=1 pushed=4 ops=2f41fe894e841040
    w2 budget500 cost=1 expanded=1 pushed=4 ops=2f41fe894e841040
    ghz3 default cost=2 expanded=7 pushed=27 ops=ce100ce91da7df6e
    ghz3 dijkstra cost=2 expanded=8 pushed=27 ops=ce100ce91da7df6e
    ghz3 compressed cost=2 expanded=2 pushed=2 ops=ce100ce91da7df6e
    ghz3 no-cry cost=2 expanded=7 pushed=27 ops=ce100ce91da7df6e
    ghz3 budget500 cost=2 expanded=7 pushed=27 ops=ce100ce91da7df6e
    w3 default cost=4 expanded=58 pushed=101 ops=3f39413e05acf757
    w3 dijkstra cost=4 expanded=67 pushed=103 ops=3f39413e05acf757
    w3 compressed cost=4 expanded=4 pushed=5 ops=3f39413e05acf757
    w3 no-cry exhausted expanded=56
    w3 budget500 cost=4 expanded=58 pushed=101 ops=3f39413e05acf757
    ghz4 default cost=3 expanded=33 pushed=116 ops=a0ebf59c5d963f4f
    ghz4 dijkstra cost=3 expanded=61 pushed=119 ops=a0ebf59c5d963f4f
    ghz4 compressed cost=3 expanded=3 pushed=3 ops=a0ebf59c5d963f4f
    ghz4 no-cry cost=3 expanded=33 pushed=116 ops=a0ebf59c5d963f4f
    ghz4 budget500 cost=3 expanded=33 pushed=116 ops=a0ebf59c5d963f4f
    w4 default cost=7 expanded=2927 pushed=3617 ops=7012ffced5d83076
    w4 dijkstra cost=7 expanded=3386 pushed=3696 ops=7012ffced5d83076
    w4 compressed cost=7 expanded=28 pushed=30 ops=7012ffced5d83076
    w4 no-cry exhausted expanded=1680
    w4 budget500 exhausted expanded=501
    dicke3_2 default cost=4 expanded=49 pushed=100 ops=29fcf01d89c1e02c
    dicke3_2 dijkstra cost=4 expanded=72 pushed=111 ops=29fcf01d89c1e02c
    dicke3_2 compressed cost=5 expanded=5 pushed=5 ops=f5529f080eef9722
    dicke3_2 no-cry exhausted expanded=56
    dicke3_2 budget500 cost=4 expanded=49 pushed=100 ops=29fcf01d89c1e02c
    dicke4_3 default cost=7 expanded=2969 pushed=3655 ops=d7aad8600ac1d950
    dicke4_3 dijkstra cost=7 expanded=3350 pushed=3696 ops=d7aad8600ac1d950
    dicke4_3 compressed cost=8 expanded=29 pushed=32 ops=160228b4b6d5ff36
    dicke4_3 no-cry exhausted expanded=1680
    dicke4_3 budget500 exhausted expanded=501
    dicke4_2^x0000 default cost=6 expanded=1926 pushed=5961 ops=f1b4c056702ace39
    dicke4_2^x0000 compressed cost=7 expanded=45 pushed=83 ops=c478bdcb50ec58d1
    dicke4_2^x0000 no-cry exhausted expanded=1400
    dicke4_2^x0000 budget500 exhausted expanded=501
    dicke4_2^x0001 default cost=6 expanded=1923 pushed=5874 ops=9349a5fa86f7e50e
    dicke4_2^x0001 compressed cost=6 expanded=24 pushed=53 ops=9349a5fa86f7e50e
    dicke4_2^x0001 no-cry exhausted expanded=1400
    dicke4_2^x0001 budget500 exhausted expanded=501
    dicke4_2^x0010 default cost=6 expanded=1923 pushed=5874 ops=d46e09d938091cb7
    dicke4_2^x0010 compressed cost=6 expanded=22 pushed=48 ops=d46e09d938091cb7
    dicke4_2^x0010 no-cry exhausted expanded=1400
    dicke4_2^x0010 budget500 exhausted expanded=501
    dicke4_2^x0011 default cost=6 expanded=1922 pushed=5845 ops=eddda7eaca0b51e6
    dicke4_2^x0011 compressed cost=6 expanded=24 pushed=54 ops=eddda7eaca0b51e6
    dicke4_2^x0011 no-cry exhausted expanded=1400
    dicke4_2^x0011 budget500 exhausted expanded=501
    dicke4_2^x0100 default cost=6 expanded=1923 pushed=5874 ops=eddda7eaca0b51e6
    dicke4_2^x0100 compressed cost=6 expanded=24 pushed=54 ops=eddda7eaca0b51e6
    dicke4_2^x0100 no-cry exhausted expanded=1400
    dicke4_2^x0100 budget500 exhausted expanded=501
    dicke4_2^x0101 default cost=6 expanded=1922 pushed=5845 ops=d46e09d938091cb7
    dicke4_2^x0101 compressed cost=6 expanded=22 pushed=48 ops=d46e09d938091cb7
    dicke4_2^x0101 no-cry exhausted expanded=1400
    dicke4_2^x0101 budget500 exhausted expanded=501
    dicke4_2^x0110 default cost=6 expanded=1922 pushed=5845 ops=9349a5fa86f7e50e
    dicke4_2^x0110 compressed cost=6 expanded=24 pushed=53 ops=9349a5fa86f7e50e
    dicke4_2^x0110 no-cry exhausted expanded=1400
    dicke4_2^x0110 budget500 exhausted expanded=501
    dicke4_2^x0111 default cost=6 expanded=1923 pushed=5874 ops=f1b4c056702ace39
    dicke4_2^x0111 compressed cost=7 expanded=45 pushed=83 ops=c478bdcb50ec58d1
    dicke4_2^x0111 no-cry exhausted expanded=1400
    dicke4_2^x0111 budget500 exhausted expanded=501
    dicke4_2^x1000 default cost=6 expanded=1923 pushed=5874 ops=f1b4c056702ace39
    dicke4_2^x1000 compressed cost=7 expanded=45 pushed=83 ops=c478bdcb50ec58d1
    dicke4_2^x1000 no-cry exhausted expanded=1400
    dicke4_2^x1000 budget500 exhausted expanded=501
    dicke4_2^x1001 default cost=6 expanded=1922 pushed=5845 ops=9349a5fa86f7e50e
    dicke4_2^x1001 compressed cost=6 expanded=24 pushed=53 ops=9349a5fa86f7e50e
    dicke4_2^x1001 no-cry exhausted expanded=1400
    dicke4_2^x1001 budget500 exhausted expanded=501
    dicke4_2^x1010 default cost=6 expanded=1922 pushed=5845 ops=d46e09d938091cb7
    dicke4_2^x1010 compressed cost=6 expanded=22 pushed=48 ops=d46e09d938091cb7
    dicke4_2^x1010 no-cry exhausted expanded=1400
    dicke4_2^x1010 budget500 exhausted expanded=501
    dicke4_2^x1011 default cost=6 expanded=1923 pushed=5874 ops=eddda7eaca0b51e6
    dicke4_2^x1011 compressed cost=6 expanded=24 pushed=54 ops=eddda7eaca0b51e6
    dicke4_2^x1011 no-cry exhausted expanded=1400
    dicke4_2^x1011 budget500 exhausted expanded=501
    dicke4_2^x1100 default cost=6 expanded=1922 pushed=5845 ops=eddda7eaca0b51e6
    dicke4_2^x1100 compressed cost=6 expanded=24 pushed=54 ops=eddda7eaca0b51e6
    dicke4_2^x1100 no-cry exhausted expanded=1400
    dicke4_2^x1100 budget500 exhausted expanded=501
    dicke4_2^x1101 default cost=6 expanded=1923 pushed=5874 ops=d46e09d938091cb7
    dicke4_2^x1101 compressed cost=6 expanded=22 pushed=48 ops=d46e09d938091cb7
    dicke4_2^x1101 no-cry exhausted expanded=1400
    dicke4_2^x1101 budget500 exhausted expanded=501
    dicke4_2^x1110 default cost=6 expanded=1923 pushed=5874 ops=9349a5fa86f7e50e
    dicke4_2^x1110 compressed cost=6 expanded=24 pushed=53 ops=9349a5fa86f7e50e
    dicke4_2^x1110 no-cry exhausted expanded=1400
    dicke4_2^x1110 budget500 exhausted expanded=501
    dicke4_2^x1111 default cost=6 expanded=1926 pushed=5961 ops=f1b4c056702ace39
    dicke4_2^x1111 compressed cost=7 expanded=45 pushed=83 ops=c478bdcb50ec58d1
    dicke4_2^x1111 no-cry exhausted expanded=1400
    dicke4_2^x1111 budget500 exhausted expanded=501
    uniform4_m3_s0 default cost=3 expanded=54 pushed=313 ops=b080075387e48b5b
    uniform4_m3_s0 dijkstra cost=3 expanded=117 pushed=447 ops=b080075387e48b5b
    uniform4_m3_s0 compressed cost=3 expanded=3 pushed=7 ops=d1f96abea70cad6c
    uniform4_m3_s0 no-cry exhausted expanded=560
    uniform4_m3_s0 budget500 cost=3 expanded=54 pushed=313 ops=b080075387e48b5b
    uniform4_m3_s1 default cost=5 expanded=514 pushed=778 ops=93e1c2ceca6cfc99
    uniform4_m3_s1 dijkstra cost=5 expanded=620 pushed=788 ops=93e1c2ceca6cfc99
    uniform4_m3_s1 compressed cost=5 expanded=8 pushed=9 ops=93e1c2ceca6cfc99
    uniform4_m3_s1 no-cry exhausted expanded=560
    uniform4_m3_s1 budget500 exhausted expanded=501
    uniform4_m4_s0 default cost=6 expanded=2079 pushed=3432 ops=447e57b560861959
    uniform4_m4_s0 dijkstra cost=6 expanded=3027 pushed=3663 ops=447e57b560861959
    uniform4_m4_s0 compressed cost=6 expanded=27 pushed=30 ops=447e57b560861959
    uniform4_m4_s0 no-cry exhausted expanded=1680
    uniform4_m4_s0 budget500 exhausted expanded=501
    uniform4_m4_s1 default cost=6 expanded=1933 pushed=3354 ops=855a124efe9f4f60
    uniform4_m4_s1 dijkstra cost=6 expanded=2746 pushed=3571 ops=855a124efe9f4f60
    uniform4_m4_s1 compressed cost=6 expanded=25 pushed=29 ops=855a124efe9f4f60
    uniform4_m4_s1 no-cry exhausted expanded=1680
    uniform4_m4_s1 budget500 exhausted expanded=501
    uniform4_m5_s16 default cost=8 expanded=9969 pushed=12812 ops=dd899da5161abb97
    uniform4_m5_s16 dijkstra cost=8 expanded=11866 pushed=13156 ops=dd899da5161abb97
    uniform4_m5_s16 compressed cost=9 expanded=76 pushed=78 ops=34440f5a9d9a1912
    uniform4_m5_s16 no-cry exhausted expanded=2688
    uniform4_m5_s16 budget500 exhausted expanded=501
    uniform4_m5_s23 default cost=7 expanded=5265 pushed=10298 ops=5372bf416ce42ac8
    uniform4_m5_s23 dijkstra cost=7 expanded=9047 pushed=12061 ops=5372bf416ce42ac8
    uniform4_m5_s23 compressed cost=7 expanded=49 pushed=68 ops=5372bf416ce42ac8
    uniform4_m5_s23 no-cry exhausted expanded=2688
    uniform4_m5_s23 budget500 exhausted expanded=501
    uniform4_m6_s4 default cost=7 expanded=12203 pushed=28198 ops=16506fcfffb3bfa0
    uniform4_m6_s4 compressed cost=7 expanded=121 pushed=185 ops=16506fcfffb3bfa0
    uniform4_m6_s4 no-cry exhausted expanded=6720
    uniform4_m6_s4 budget500 exhausted expanded=501
    uniform4_m6_s34 default cost=7 expanded=12719 pushed=30085 ops=f35006c769a10007
    uniform4_m6_s34 compressed cost=7 expanded=162 pushed=203 ops=f35006c769a10007
    uniform4_m6_s34 no-cry exhausted expanded=6720
    uniform4_m6_s34 budget500 exhausted expanded=501
    uniform4_m8_s23 default cost=7 expanded=14766 pushed=41267 ops=c9d70a2175bcb480
    uniform4_m8_s23 compressed cost=7 expanded=199 pushed=440 ops=c9d70a2175bcb480
    uniform4_m8_s23 no-cry exhausted expanded=10080
    uniform4_m8_s23 budget500 exhausted expanded=501
    real3_m3_s1 default cost=4 expanded=178 pushed=445 ops=3f39413e05acf757
    real3_m3_s1 dijkstra cost=4 expanded=268 pushed=465 ops=3f39413e05acf757
    real3_m3_s1 compressed cost=4 expanded=13 pushed=16 ops=3f39413e05acf757
    real3_m3_s1 no-cry exhausted expanded=336
    real3_m3_s1 budget500 cost=4 expanded=178 pushed=445 ops=3f39413e05acf757
    real3_m4_s3 default cost=5 expanded=562 pushed=1938 ops=a3e92c19ea141563
    real3_m4_s3 dijkstra cost=5 expanded=1266 pushed=2750 ops=a3e92c19ea141563
    real3_m4_s3 compressed cost=6 expanded=75 pushed=100 ops=d320aff0ed5b080a
    real3_m4_s3 no-cry exhausted expanded=1344
    real3_m4_s3 budget500 exhausted expanded=501
    real3_m5_s1 default cost=7 expanded=3453 pushed=10034 ops=c3529a7fb964b3e6
    real3_m5_s1 dijkstra cost=7 expanded=7957 pushed=14712 ops=c3529a7fb964b3e6
    real3_m5_s1 compressed cost=8 expanded=357 pushed=464 ops=5f7b0f1462e97076
    real3_m5_s1 no-cry exhausted expanded=1344
    real3_m5_s1 budget500 exhausted expanded=501
    real3_m6_s4 default cost=8 expanded=5411 pushed=12716 ops=e304dda011f4c3d3
    real3_m6_s4 compressed cost=8 expanded=313 pushed=697 ops=e304dda011f4c3d3
    real3_m6_s4 no-cry exhausted expanded=1344
    real3_m6_s4 budget500 exhausted expanded=501
    real4_m3_s1 default cost=5 expanded=1445 pushed=3484 ops=93e1c2ceca6cfc99
    real4_m3_s1 dijkstra cost=5 expanded=2876 pushed=4024 ops=93e1c2ceca6cfc99
    real4_m3_s1 compressed cost=5 expanded=27 pushed=31 ops=93e1c2ceca6cfc99
    real4_m3_s1 no-cry exhausted expanded=3360
    real4_m3_s1 budget500 exhausted expanded=501
    real4_m3_s5 default cost=4 expanded=290 pushed=1473 ops=637576ec4193a7d0
    real4_m3_s5 dijkstra cost=4 expanded=1033 pushed=3061 ops=637576ec4193a7d0
    real4_m3_s5 compressed cost=4 expanded=20 pushed=28 ops=637576ec4193a7d0
    real4_m3_s5 no-cry exhausted expanded=3360
    real4_m3_s5 budget500 cost=4 expanded=290 pushed=1473 ops=637576ec4193a7d0
    real4_m3_s6 default cost=3 expanded=47 pushed=413 ops=b44be337440f1861
    real4_m3_s6 dijkstra cost=3 expanded=178 pushed=1032 ops=b44be337440f1861
    real4_m3_s6 compressed cost=3 expanded=9 pushed=20 ops=b44be337440f1861
    real4_m3_s6 no-cry exhausted expanded=3360
    real4_m3_s6 budget500 cost=3 expanded=47 pushed=413 ops=b44be337440f1861
    real4_m4_s2 default cost=5 expanded=2303 pushed=13018 ops=1b88418b9374ddef
    real4_m4_s2 dijkstra cost=5 expanded=10778 pushed=34390 ops=1b88418b9374ddef
    real4_m4_s2 compressed cost=5 expanded=143 pushed=245 ops=1b88418b9374ddef
    real4_m4_s2 no-cry exhausted expanded=20001
    real4_m4_s2 budget500 exhausted expanded=501
    real4_m4_s4 default cost=4 expanded=290 pushed=2554 ops=5e8674cfbcb1a7cb
    real4_m4_s4 dijkstra cost=4 expanded=2178 pushed=12252 ops=5e8674cfbcb1a7cb
    real4_m4_s4 compressed cost=4 expanded=55 pushed=180 ops=5e8674cfbcb1a7cb
    real4_m4_s4 no-cry exhausted expanded=20001
    real4_m4_s4 budget500 cost=4 expanded=290 pushed=2554 ops=5e8674cfbcb1a7cb
    real4_m4_s9 default cost=4 expanded=430 pushed=3295 ops=5e2c9c654c66a7cc
    real4_m4_s9 dijkstra cost=4 expanded=2761 pushed=13919 ops=5e2c9c654c66a7cc
    real4_m4_s9 compressed cost=4 expanded=54 pushed=178 ops=5e2c9c654c66a7cc
    real4_m4_s9 no-cry exhausted expanded=20001
    real4_m4_s9 budget500 cost=4 expanded=430 pushed=3295 ops=5e2c9c654c66a7cc
";

#[test]
fn search_matches_the_pinned_oracle() {
    let mut rows = Vec::new();
    for (label, state) in corpus() {
        for (config_name, config) in configs(state.cardinality()) {
            rows.push(oracle_row(&label, config_name, &state, &config));
        }
    }
    let computed = rows.join("\n");
    let pinned: Vec<&str> = ORACLE
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    let mismatch = rows.iter().zip(&pinned).position(|(row, pin)| row != pin);
    assert!(
        rows.len() == pinned.len() && mismatch.is_none(),
        "search diverged from the pinned oracle (first mismatch at row {mismatch:?}); \
         computed table:\n{computed}"
    );
}
