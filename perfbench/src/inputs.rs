//! Seeded input generation. Every input is built here, before any timing,
//! from the `--seed` argument alone; the program under test only ever sees
//! the generated states.

use qsp_state::{generators, BasisIndex, SparseState};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The drawn exact_corpus classes as (register width, cardinality, draw
/// seed): Table V-style uniform 4-qubit states with m = 3..=6, one dense
/// 4-qubit state (m = 8) and one dense 5-qubit state (m = 16). The seeds
/// are fixed, so every run solves the same classes and reports the same
/// `cnot_total`; they were screened so that one corpus pass takes about
/// 3 s at the seed commit (a 4-qubit state with m >= 7 or a typical dense
/// one costs 2-15 s on its own).
pub const CORPUS_DRAWS: [(usize, usize, u64); 10] = [
    (4, 3, 0),
    (4, 3, 1),
    (4, 4, 0),
    (4, 4, 1),
    (4, 5, 16),
    (4, 5, 23),
    (4, 6, 4),
    (4, 6, 34),
    (4, 8, 23),
    (5, 16, 1),
];

/// Targets in one pass of the sparse stream.
pub const STREAM_LEN: usize = 6_000;

/// Requests one serve_wire connection sends per round.
pub const ROUND_REQUESTS: usize = 2_000;

/// Hot pool states in the serve_wire warm-start snapshot.
pub const POOL_SIZE: usize = 64;

/// Seed of the serve_wire hot pool. The pool and its popularity order are
/// fixed, so the snapshot is the same in every run and `cnot_total` moves
/// with `--seed` only through sampling (the hottest states carry a large
/// share of all replies, so a seeded pool would swing it by 20%).
pub const POOL_SEED: u64 = 0x900d_f00d;

/// Seed of the fixed target the in-process workloads warm up on.
pub const WARM_UP_SEED: u64 = 0x3a3a;

/// One labelled target state.
#[derive(Debug, Clone)]
pub struct Target {
    /// Which corpus part or traffic arm the target belongs to.
    pub label: String,
    /// The state to prepare.
    pub state: SparseState,
}

impl Target {
    fn new(label: impl Into<String>, state: SparseState) -> Self {
        Target {
            label: label.into(),
            state,
        }
    }
}

/// The traffic arm of one serve_wire request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// A skewed repeat of a hot-pool state (a cache hit).
    Repeat,
    /// A permuted and flipped variant of a pool state (full keying, cache hit).
    Variant,
    /// A product of two Bell-type pairs with fresh angles (class template).
    Bell,
    /// A fresh sparse target (solved).
    Fresh,
}

/// The serve_wire inputs: the hot pool the snapshot is made from and the
/// request stream of one round.
#[derive(Debug, Clone)]
pub struct ServeInputs {
    /// Hot pool states.
    pub pool: Vec<SparseState>,
    /// One round's requests with their arms.
    pub stream: Vec<(Arm, SparseState)>,
}

fn permuted(state: &SparseState, perm: &[usize]) -> SparseState {
    state
        .permute_qubits(perm)
        .expect("a permutation of the register is valid")
}

fn random_perm(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(rng);
    perm
}

/// The exact_corpus classes: the Fig. 1-3 motivating example, the Table IV
/// Dicke, GHZ and W states with n <= 4, and the [`CORPUS_DRAWS`].
pub fn corpus_classes() -> Vec<Target> {
    let mut classes = vec![Target::new(
        "fig1-3",
        SparseState::uniform_superposition(3, [0b000u64, 0b011, 0b101, 0b110].map(BasisIndex::new))
            .expect("motivating example"),
    )];
    for n in 3..=4 {
        classes.push(Target::new(
            format!("ghz{n}"),
            generators::ghz(n).expect("ghz"),
        ));
        classes.push(Target::new(
            format!("w{n}"),
            generators::w_state(n).expect("w"),
        ));
        for k in 2..n {
            classes.push(Target::new(
                format!("dicke{n}_{k}"),
                generators::dicke(n, k).expect("dicke"),
            ));
        }
    }
    for (n, m, seed) in CORPUS_DRAWS {
        let mut rng = StdRng::seed_from_u64(seed);
        let state = generators::random_uniform_state(n, m, &mut rng).expect("uniform state");
        classes.push(Target::new(format!("uniform{n}_m{m}_s{seed}"), state));
    }
    classes
}

/// One exact_corpus pass for `seed`, in a seeded order. Every class the
/// exact solver takes whole (n <= 4) gets a seeded qubit relabelling, which
/// leaves its optimal CNOT count unchanged. The 5-qubit class keeps its
/// frame: qubit reduction disentangles a fixed qubit, so relabelling would
/// change its residual, its probe's node budget and its cost.
pub fn exact_corpus(seed: u64) -> Vec<Target> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut corpus: Vec<Target> = corpus_classes()
        .into_iter()
        .map(|t| {
            let n = t.state.num_qubits();
            let perm = random_perm(n, &mut rng);
            if n > 4 {
                return t;
            }
            Target::new(t.label, permuted(&t.state, &perm))
        })
        .collect();
    corpus.shuffle(&mut rng);
    corpus
}

/// One pass of the sparse stream for `seed`: Table V sparse-regime targets
/// of 8-20 qubits with m = n. About 10% exactly repeat an earlier target;
/// a quarter of the rest carry non-uniform amplitudes.
pub fn sparse_stream(seed: u64) -> Vec<Target> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stream: Vec<Target> = Vec::with_capacity(STREAM_LEN);
    while stream.len() < STREAM_LEN {
        if stream.len() >= 16 && rng.gen_bool(0.10) {
            let earlier = rng.gen_range(0..stream.len());
            let repeat = Target::new("repeat", stream[earlier].state.clone());
            stream.push(repeat);
            continue;
        }
        let n = rng.gen_range(8..=20);
        let uniform = !rng.gen_bool(0.25);
        let label = if uniform { "uniform" } else { "nonuniform" };
        stream.push(Target::new(label, sparse_target(n, n, uniform, &mut rng)));
    }
    stream
}

/// A random `n`-qubit state over `m` distinct basis states drawn by
/// rejection (the library generators shuffle all `2^n` indices, which
/// dominates input preparation at 20 qubits): uniform amplitudes, or
/// amplitudes drawn from `[0.1, 1)` and normalized.
fn sparse_target(n: usize, m: usize, uniform: bool, rng: &mut StdRng) -> SparseState {
    let mut support = std::collections::BTreeSet::new();
    while support.len() < m {
        support.insert(rng.gen_range(0..1u64 << n));
    }
    let indices = support.into_iter().map(BasisIndex::new);
    if uniform {
        return SparseState::uniform_superposition(n, indices).expect("uniform state");
    }
    let entries: Vec<(BasisIndex, f64)> = indices.map(|i| (i, rng.gen_range(0.1..1.0))).collect();
    SparseState::from_amplitudes(n, entries)
        .and_then(|state| state.normalize())
        .expect("normalizable state")
}

/// A product of two Bell-type pairs with fresh angles on an `n`-qubit
/// register (n = 4..=6): each pair is `cos t|00> + sin t|11>` or
/// `cos t|01> + sin t|10>` on two random qubits. All such states share one
/// support pattern per register width.
fn bell_product(rng: &mut StdRng) -> SparseState {
    let n = rng.gen_range(4..=6);
    let qubits = random_perm(n, rng);
    let mut pairs = Vec::new();
    for pair in qubits[..4].chunks(2) {
        let theta: f64 = rng.gen_range(0.2..1.37);
        let flipped = rng.gen_bool(0.5);
        let (a, b) = (1u64 << pair[0], 1u64 << pair[1]);
        let low = if flipped { b } else { 0 };
        pairs.push([(low, theta.cos()), (a | (b ^ low), theta.sin())]);
    }
    let entries = pairs[0].iter().flat_map(|&(i, x)| {
        pairs[1]
            .iter()
            .map(move |&(j, y)| (BasisIndex::new(i | j), x * y))
    });
    SparseState::from_amplitudes(n, entries).expect("bell product")
}

/// Zipf-like sampler over pool indices (weight of rank k is 1/(k+1)^1.1).
struct Skewed {
    cumulative: Vec<f64>,
}

impl Skewed {
    fn new(len: usize) -> Self {
        let mut total = 0.0;
        let cumulative = (0..len)
            .map(|k| {
                total += 1.0 / ((k + 1) as f64).powf(1.1);
                total
            })
            .collect();
        Skewed { cumulative }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty pool");
        let u: f64 = rng.gen_range(0.0..total);
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// The serve_wire inputs for `seed`: the fixed hot pool of 6-10-qubit
/// sparse states (a fifth non-uniform, see [`POOL_SEED`]) and one round of [`ROUND_REQUESTS`] requests —
/// 60% skewed pool repeats, 15% permuted and flipped pool variants, 15%
/// Bell-pair products with fresh angles and 10% fresh 8-12-qubit targets
/// (a 6- or 7-qubit one occasionally leaves a residual whose A* search
/// costs 20 ms to 1 s, which would make a round's time depend on the seed).
pub fn serve_wire(seed: u64) -> ServeInputs {
    let mut pool_rng = StdRng::seed_from_u64(POOL_SEED);
    let pool: Vec<SparseState> = (0..POOL_SIZE)
        .map(|_| {
            let n = pool_rng.gen_range(6..=10);
            let uniform = !pool_rng.gen_bool(0.2);
            sparse_target(n, n, uniform, &mut pool_rng)
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let skewed = Skewed::new(POOL_SIZE);
    let stream = (0..ROUND_REQUESTS)
        .map(|_| {
            let u: f64 = rng.gen_range(0.0..1.0);
            if u < 0.60 {
                (Arm::Repeat, pool[skewed.sample(&mut rng)].clone())
            } else if u < 0.75 {
                let base = &pool[rng.gen_range(0..POOL_SIZE)];
                let n = base.num_qubits();
                let mut variant = permuted(base, &random_perm(n, &mut rng));
                let mask = rng.gen_range(1..(1u64 << n));
                for q in (0..n).filter(|q| mask >> q & 1 == 1) {
                    variant = variant.apply_x(q).expect("flip");
                }
                (Arm::Variant, variant)
            } else if u < 0.90 {
                (Arm::Bell, bell_product(&mut rng))
            } else {
                let n = rng.gen_range(8..=12);
                let fresh = generators::random_sparse_state(n, &mut rng).expect("sparse");
                (Arm::Fresh, fresh)
            }
        })
        .collect();
    ServeInputs { pool, stream }
}

/// The fixed 12-qubit sparse target the in-process workloads' set-up
/// warms up on.
pub fn warm_up_target() -> SparseState {
    sparse_target(12, 12, true, &mut StdRng::seed_from_u64(WARM_UP_SEED))
}

/// A byte encoding of a state (width, then index and amplitude bits of every
/// entry), used to check that generation reproduces exactly.
pub fn state_bytes(state: &SparseState, out: &mut Vec<u8>) {
    out.extend_from_slice(&(state.num_qubits() as u64).to_le_bytes());
    for (index, amplitude) in state.iter() {
        out.extend_from_slice(&index.value().to_le_bytes());
        out.extend_from_slice(&amplitude.to_bits().to_le_bytes());
    }
}
