//! The search-state encoding: conserved probabilities over a changing index set.
//!
//! Because every transition of `L_QSP` is amplitude-preserving (Sec. IV-B),
//! the probability multiset of a search state never changes — only the basis
//! indices move (and merge). A search state is therefore the paper's
//! `n × m`-bit encoding: a sorted list of `(index, probability)` entries,
//! with probabilities quantized to a fixed-point grid so states can be hashed
//! and compared exactly.
//!
//! Everything the search does with a state — transitions, separability and
//! the heuristic — is a kernel over that sorted entry slice. The A* arena
//! runs the kernels on its interned node entries and one reusable scratch
//! buffer, so expanding a node allocates nothing; the [`SearchState`]
//! methods are thin wrappers over the same kernels.
//!
//! # Quantized separability
//!
//! Separability compares cross-multiplied quantized probabilities,
//! `p1 · T0` against `p0 · T1`, with a slack of `2^-19` relative to them
//! (plus a negligible absolute slack). Rounding to the `2^-40` grid moves
//! each probability by at most `2^-41`. When every entry's probability is
//! at least `2^-19`, that moves each of `p0`, `p1` by at most `2^-22`
//! relative and each branch total `T0`, `T1` by at most `2^-22` relative
//! too, so the two products drift apart by at most `2^-20` relative: a
//! qubit that factors out reads separable at any width and cardinality.
//! A qubit whose cofactor ratios differ by a relative margin far above
//! `2^-19`, or whose cofactor index sets differ, reads entangled. In that
//! range the quantized check agrees with the f64 check of
//! `qsp_state::Cofactors::separation`; a seeded randomized test pins the
//! agreement on 2–12 qubits and cardinalities up to 256 (products, 1–50%
//! ratio skews, dropped partners). Below it, rounding can make a product
//! qubit read entangled. Entries whose probability rounds to zero
//! (amplitude below `2^-20.5` ≈ 6.7e-7) vanish from the search state
//! altogether; the solver engine drops them from the target before it
//! searches, so the search and the angle replay see one support.

use qsp_state::{BasisIndex, QuantumState};

use super::op::TransitionOp;

/// Fixed-point scale for quantized probabilities (`2^40` steps across `[0,1]`).
const PROB_SCALE: f64 = (1u64 << 40) as f64;

/// Tolerance (in quantized units) for probability-ratio comparisons.
const PROB_SLACK: u128 = 1 << 16;

/// One `(basis index, quantized probability)` entry of a search state.
pub(crate) type Entry = (BasisIndex, u64);

/// A vertex of the state transition graph: the target's probability mass
/// distributed over a set of basis indices.
///
/// Entries are sorted by index and duplicates are merged (their probabilities
/// add), so two `SearchState`s are equal exactly when they describe the same
/// quantum state up to the sign information that amplitude-preserving
/// transitions cannot change.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SearchState {
    num_qubits: usize,
    entries: Vec<Entry>,
}

impl SearchState {
    /// Builds the search state of a target state (any [`QuantumState`]
    /// backend).
    ///
    /// # Panics
    ///
    /// Panics if the state has negative amplitudes (the exact solver rejects
    /// those earlier with a proper error).
    pub fn from_state<S: QuantumState>(state: &S) -> Self {
        let entries = state
            .amplitudes()
            .map(|(index, amplitude)| {
                assert!(
                    amplitude >= 0.0,
                    "search states require non-negative amplitudes"
                );
                (index, quantize(amplitude))
            })
            .collect();
        SearchState::from_entries(state.num_qubits(), entries)
    }

    /// Builds a search state directly from quantized entries: sorts them,
    /// merges duplicate indices and drops zero probabilities.
    pub(crate) fn from_entries(num_qubits: usize, mut entries: Vec<Entry>) -> Self {
        sort_merge(&mut entries);
        entries.retain(|&(_, prob)| prob > 0);
        SearchState {
            num_qubits,
            entries,
        }
    }

    /// Number of qubits of the register.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Cardinality of the (merged) index set.
    #[inline]
    pub fn cardinality(&self) -> usize {
        self.entries.len()
    }

    /// The `(index, quantized probability)` entries, sorted by index.
    pub fn entries(&self) -> &[(BasisIndex, u64)] {
        &self.entries
    }

    /// Whether this is exactly the ground state `|0…0⟩`.
    pub fn is_ground(&self) -> bool {
        self.entries.len() == 1 && self.entries[0].0 == BasisIndex::ZERO
    }

    /// Whether every qubit is separable: the state is a tensor product of
    /// single-qubit states and can be finished with zero-cost rotations.
    /// This is the goal condition of the backward search.
    pub fn is_product(&self) -> bool {
        Profile::of(&self.entries, self.num_qubits).is_product()
    }

    /// The qubits that are certainly entangled: their `|0⟩` / `|1⟩` cofactor
    /// index sets differ and neither is empty (the paper's criterion,
    /// Sec. V-A).
    pub fn entangled_qubits(&self) -> Vec<usize> {
        let masks = Masks::of(&self.entries);
        (0..self.num_qubits)
            .filter(|&q| is_entangled(&self.entries, masks, q))
            .collect()
    }

    /// The admissible heuristic `⌈E/2⌉` of Sec. V-A.
    pub fn heuristic(&self) -> usize {
        heuristic(&self.entries, self.num_qubits)
    }

    /// Checks whether `qubit` is separable over the whole state and returns
    /// the quantized probability pair `(P[qubit = 0], P[qubit = 1])` when it
    /// is. Separability requires every rest-group (entries that agree on all
    /// other qubits) to split its probability between the two branches in the
    /// same proportion.
    pub fn qubit_separation(&self, qubit: usize) -> Option<(u64, u64)> {
        separation(&self.entries, qubit, None)
    }

    /// Separability of `qubit` restricted to the entries whose `control` bit
    /// equals `polarity` (`None` means the whole state).
    pub fn subset_separation(
        &self,
        qubit: usize,
        control: Option<(usize, bool)>,
    ) -> Option<(u64, u64)> {
        separation(&self.entries, qubit, control)
    }

    /// Applies a backward transition, returning the successor state or `None`
    /// if the transition is invalid or a no-op.
    pub fn apply(&self, op: &TransitionOp) -> Option<SearchState> {
        let mut next = Vec::with_capacity(self.entries.len());
        let profile = Profile::of(&self.entries, self.num_qubits);
        successor(&self.entries, self.num_qubits, profile, op, &mut next).then_some(SearchState {
            num_qubits: self.num_qubits,
            entries: next,
        })
    }
}

/// The probability of `amplitude` on the search's `2^-40` grid. It is zero
/// for amplitudes below `2^-20.5` (≈ 6.7e-7): such entries are not part of
/// the search state.
pub(crate) fn quantize(amplitude: f64) -> u64 {
    (amplitude * amplitude * PROB_SCALE).round() as u64
}

/// The mask of `qubit`'s bit in a basis index.
fn bit(qubit: usize) -> u64 {
    assert!(
        qubit < BasisIndex::MAX_QUBITS,
        "qubit {qubit} exceeds the index width"
    );
    1 << qubit
}

/// The bitwise OR and AND over a state's indices: they tell in one test
/// whether some entry has a qubit set, or some entry has it clear.
#[derive(Debug, Clone, Copy)]
struct Masks {
    any: u64,
    all: u64,
}

impl Masks {
    fn of(entries: &[Entry]) -> Self {
        entries.iter().fold(
            Masks {
                any: 0,
                all: u64::MAX,
            },
            |masks, &(index, _)| Masks {
                any: masks.any | index.value(),
                all: masks.all & index.value(),
            },
        )
    }

    /// Whether some entry has `qubit` equal to `value`.
    fn reaches(self, qubit: usize, value: bool) -> bool {
        if value {
            self.any & bit(qubit) != 0
        } else {
            self.all & bit(qubit) == 0
        }
    }

    /// Whether `qubit` takes both values across the entries.
    fn varies(self, qubit: usize) -> bool {
        self.reaches(qubit, true) && self.reaches(qubit, false)
    }
}

/// Sorts entries by index and merges duplicate indices (their
/// probabilities add).
fn sort_merge(entries: &mut Vec<Entry>) {
    entries.sort_unstable_by_key(|&(index, _)| index);
    entries.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            kept.1 += later.1;
        }
        same
    });
}

/// What the goal test and every transition test of one state need,
/// computed once per expanded state: its [`Masks`] and the set of qubits
/// separable over the whole state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Profile {
    masks: Masks,
    separable: u64,
    product: bool,
}

impl Profile {
    pub(crate) fn of(entries: &[Entry], num_qubits: usize) -> Self {
        let masks = Masks::of(entries);
        // A constant qubit is separable without a check.
        let separable = (0..num_qubits)
            .filter(|&q| !masks.varies(q) || separation(entries, q, None).is_some())
            .fold(0, |acc, q| acc | bit(q));
        Profile {
            masks,
            separable,
            product: !entries.is_empty() && separable.count_ones() as usize == num_qubits,
        }
    }

    /// Whether every qubit is separable: the goal test of the search.
    pub(crate) fn is_product(self) -> bool {
        self.product
    }

    fn separable(self, qubit: usize) -> bool {
        self.separable & bit(qubit) != 0
    }
}

/// The admissible heuristic `⌈E/2⌉` of Sec. V-A over sorted entries.
pub(crate) fn heuristic(entries: &[Entry], num_qubits: usize) -> usize {
    let masks = Masks::of(entries);
    (0..num_qubits)
        .filter(|&q| is_entangled(entries, masks, q))
        .count()
        .div_ceil(2)
}

/// Whether `qubit`'s two cofactor index sets are both non-empty and differ.
/// Both cofactors come out of the sorted slice in sorted order, so they are
/// compared as two index sequences without collecting either.
fn is_entangled(entries: &[Entry], masks: Masks, qubit: usize) -> bool {
    if !masks.varies(qubit) {
        return false;
    }
    let bit = bit(qubit);
    let indices = entries.iter().map(|&(index, _)| index.value());
    let zeros = indices.clone().filter(|i| i & bit == 0);
    let ones = indices.filter(|i| i & bit != 0).map(|i| i & !bit);
    !zeros.eq(ones)
}

/// Separability of `qubit` over the entries whose `control` bit equals
/// `polarity` (all entries for `None`): `Some((P[qubit = 0], P[qubit = 1]))`
/// when every rest-group splits its probability between the two branches
/// in the proportion of the totals, `None` otherwise or when no entry is
/// selected.
pub(crate) fn separation(
    entries: &[Entry],
    qubit: usize,
    control: Option<(usize, bool)>,
) -> Option<(u64, u64)> {
    let bit = bit(qubit);
    let selected = entries
        .iter()
        .filter(move |(index, _)| control.is_none_or(|(c, polarity)| index.bit(c) == polarity))
        .map(|&(index, prob)| (index.value(), prob));
    let (mut total0, mut total1, mut any) = (0u64, 0u64, false);
    for (index, prob) in selected.clone() {
        any = true;
        if index & bit == 0 {
            total0 += prob;
        } else {
            total1 += prob;
        }
    }
    if !any {
        return None;
    }
    // Every rest-group must satisfy p1 * total0 == p0 * total1
    // (cross-multiplied proportionality), within the quantization slack.
    let proportional = |p0: u64, p1: u64| {
        let lhs = p1 as u128 * total0 as u128;
        let rhs = p0 as u128 * total1 as u128;
        lhs.abs_diff(rhs) <= ((lhs + rhs) >> 20) + PROB_SLACK
    };
    // Pair each index `i` (qubit clear) with `i | bit` (qubit set): both
    // halves of the sorted slice stay sorted by `i & !bit`, so one merge
    // visits every rest-group once.
    let mut zeros = selected.clone().filter(|&(i, _)| i & bit == 0).peekable();
    let mut ones = selected
        .filter(|&(i, _)| i & bit != 0)
        .map(|(i, prob)| (i & !bit, prob))
        .peekable();
    loop {
        let (p0, p1) = match (zeros.peek(), ones.peek()) {
            (None, None) => return Some((total0, total1)),
            (Some(&(i, p0)), Some(&(j, p1))) if i == j => {
                zeros.next();
                ones.next();
                (p0, p1)
            }
            (Some(&(i, p0)), Some(&(j, _))) if i < j => {
                zeros.next();
                (p0, 0)
            }
            (Some(&(_, p0)), None) => {
                zeros.next();
                (p0, 0)
            }
            (_, Some(&(_, p1))) => {
                ones.next();
                (0, p1)
            }
        };
        if !proportional(p0, p1) {
            return None;
        }
    }
}

/// Writes the successor of `entries` under the backward transition `op`
/// into `out` (sorted, merged) and returns whether the transition applies:
/// it is valid, it changes the state, and no cheaper transition dominates
/// it. `profile` must be [`Profile::of`] `entries`; its masks reject a CNOT
/// whose control never fires and a merge with nothing to merge before
/// anything is built. `out` holds garbage when `false` is returned.
pub(crate) fn successor(
    entries: &[Entry],
    num_qubits: usize,
    profile: Profile,
    op: &TransitionOp,
    out: &mut Vec<Entry>,
) -> bool {
    match *op {
        TransitionOp::Cnot {
            control,
            polarity,
            target,
        } => {
            if control == target
                || control >= num_qubits
                || target >= num_qubits
                || !profile.masks.reaches(control, polarity)
            {
                return false;
            }
            let (control_bit, target_bit) = (bit(control), bit(target));
            out.clear();
            out.extend(entries.iter().map(|&(index, prob)| {
                if (index.value() & control_bit != 0) == polarity {
                    (BasisIndex::new(index.value() ^ target_bit), prob)
                } else {
                    (index, prob)
                }
            }));
            // A CNOT permutes the indices, so nothing merges.
            out.sort_unstable_by_key(|&(index, _)| index);
            out.as_slice() != entries
        }
        TransitionOp::RyMerge { target } => {
            if target >= num_qubits
                || !profile.masks.reaches(target, true)
                || !profile.separable(target)
            {
                return false;
            }
            clear_into(entries, target, None, out);
            true
        }
        TransitionOp::CryMerge {
            control,
            polarity,
            target,
        } => {
            if control == target
                || control >= num_qubits
                || target >= num_qubits
                || !profile.masks.reaches(control, polarity)
            {
                return false;
            }
            // If the whole state merges for free, the zero-cost RyMerge
            // dominates the cost-2 controlled merge; prune the latter.
            if profile.separable(target) {
                return false;
            }
            match separation(entries, target, Some((control, polarity))) {
                // Nothing to merge in the controlled branch.
                None | Some((_, 0)) => return false,
                Some(_) => {}
            }
            clear_into(entries, target, Some((control, polarity)), out);
            true
        }
    }
}

/// Writes `entries` with `qubit` cleared (on the whole state, or on the
/// entries whose `control` bit equals `polarity`) into `out`, merging the
/// entries that collide.
pub(crate) fn clear_into(
    entries: &[Entry],
    qubit: usize,
    control: Option<(usize, bool)>,
    out: &mut Vec<Entry>,
) {
    let bit = bit(qubit);
    out.clear();
    out.extend(entries.iter().map(|&(index, prob)| {
        if control.is_none_or(|(c, polarity)| index.bit(c) == polarity) {
            (BasisIndex::new(index.value() & !bit), prob)
        } else {
            (index, prob)
        }
    }));
    sort_merge(out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsp_state::{generators, Cofactors, SparseState, DEFAULT_TOLERANCE};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn uniform(num_qubits: usize, indices: &[u64]) -> SearchState {
        let state = SparseState::uniform_superposition(
            num_qubits,
            indices.iter().map(|&x| BasisIndex::new(x)),
        )
        .unwrap();
        SearchState::from_state(&state)
    }

    #[test]
    fn ground_and_product_detection() {
        let ground = uniform(3, &[0]);
        assert!(ground.is_ground());
        assert!(ground.is_product());
        assert_eq!(ground.heuristic(), 0);

        // |+>|+>|0>: product but not ground.
        let plus_plus = uniform(3, &[0b00, 0b01, 0b10, 0b11]);
        assert!(!plus_plus.is_ground());
        assert!(plus_plus.is_product());

        let ghz = uniform(3, &[0b000, 0b111]);
        assert!(!ghz.is_product());
        assert_eq!(ghz.entangled_qubits(), vec![0, 1, 2]);
        assert_eq!(ghz.heuristic(), 2);
    }

    #[test]
    fn ghz4_heuristic_matches_paper_example() {
        let ghz4 = uniform(4, &[0b0000, 0b1111]);
        assert_eq!(ghz4.entangled_qubits().len(), 4);
        assert_eq!(ghz4.heuristic(), 2);
    }

    #[test]
    fn cnot_transition_moves_indices() {
        let ghz = uniform(2, &[0b00, 0b11]);
        let op = TransitionOp::Cnot {
            control: 0,
            polarity: true,
            target: 1,
        };
        let next = ghz.apply(&op).unwrap();
        assert_eq!(
            next.entries()
                .iter()
                .map(|e| e.0.value())
                .collect::<Vec<_>>(),
            vec![0b00, 0b01]
        );
        assert!(next.is_product());
        // A CNOT whose control is never satisfied is a no-op and rejected.
        let noop = TransitionOp::Cnot {
            control: 1,
            polarity: true,
            target: 0,
        };
        assert!(uniform(2, &[0b00, 0b01]).apply(&noop).is_none());
    }

    #[test]
    fn ry_merge_requires_separability() {
        // Qubit 0 separable: |0>(|0>+|1>)/sqrt(2) over qubits (1,0)? indices 0b00,0b01.
        let separable = uniform(2, &[0b00, 0b01]);
        let merged = separable
            .apply(&TransitionOp::RyMerge { target: 0 })
            .unwrap();
        assert!(merged.is_ground());

        // GHZ: no qubit separable, merge invalid.
        let ghz = uniform(2, &[0b00, 0b11]);
        assert!(ghz.apply(&TransitionOp::RyMerge { target: 0 }).is_none());
        // Constant qubit: nothing to merge (p1 == 0).
        assert!(separable
            .apply(&TransitionOp::RyMerge { target: 1 })
            .is_none());
    }

    #[test]
    fn cry_merge_on_controlled_branch() {
        // Paper Fig. 4: ψ7 = (000, 011, 011, 011) → ψ8 via a CRy on the middle
        // qubit controlled by the last qubit. In our bit order: indices with
        // qubit 0 = LSB. Use the state (|000>, |110>) + duplicates concept:
        // 0.25|000> + 0.75|011...>. Build it directly as amplitudes.
        let state = SparseState::from_amplitudes(
            3,
            [
                (BasisIndex::new(0b000), 0.5),
                (BasisIndex::new(0b110), (0.75f64).sqrt()),
            ],
        )
        .unwrap();
        let search = SearchState::from_state(&state);
        // Controlled on qubit 2 (=1), merge qubit 1: the |110> entry becomes |100>.
        let op = TransitionOp::CryMerge {
            control: 2,
            polarity: true,
            target: 1,
        };
        let next = search.apply(&op).unwrap();
        assert_eq!(
            next.entries()
                .iter()
                .map(|e| e.0.value())
                .collect::<Vec<_>>(),
            vec![0b000, 0b100]
        );

        // The same merge without the control is invalid (qubit 1 is not
        // separable over the whole state).
        assert!(search.apply(&TransitionOp::RyMerge { target: 1 }).is_none());
    }

    #[test]
    fn cry_merge_prefers_free_ry_when_whole_state_is_separable() {
        let separable = uniform(2, &[0b00, 0b10]);
        let op = TransitionOp::CryMerge {
            control: 0,
            polarity: false,
            target: 1,
        };
        assert!(separable.apply(&op).is_none());
    }

    #[test]
    fn dicke_state_entanglement() {
        let dicke = SearchState::from_state(&generators::dicke(4, 2).unwrap());
        assert_eq!(dicke.cardinality(), 6);
        assert_eq!(dicke.entangled_qubits().len(), 4);
        assert_eq!(dicke.heuristic(), 2);
        assert!(!dicke.is_product());
    }

    #[test]
    fn probability_is_conserved_by_transitions() {
        let dicke = SearchState::from_state(&generators::dicke(3, 1).unwrap());
        let total: u64 = dicke.entries().iter().map(|e| e.1).sum();
        let after = dicke
            .apply(&TransitionOp::Cnot {
                control: 0,
                polarity: true,
                target: 1,
            })
            .unwrap();
        let total_after: u64 = after.entries().iter().map(|e| e.1).sum();
        assert_eq!(total, total_after);
    }

    /// Spreads the bits of `compact` over `positions`: bit `i` lands on
    /// qubit `positions[i]`.
    fn spread(compact: u64, positions: &[usize]) -> u64 {
        positions
            .iter()
            .enumerate()
            .fold(0, |acc, (i, &q)| acc | (compact >> i & 1) << q)
    }

    /// A seeded random product: one single-qubit factor on each qubit of
    /// `factors` (at most two) and a random sparse state of at most 64
    /// entries on the other qubits. Amplitudes are drawn from [0.25, 1), so
    /// every entry's probability is above `2^-19`.
    fn random_product(rng: &mut StdRng, n: usize, factors: &[usize]) -> SparseState {
        let rest: Vec<usize> = (0..n).filter(|q| !factors.contains(q)).collect();
        let cardinality = rng.gen_range(1..=(1usize << rest.len()).min(64));
        let mut support = std::collections::BTreeSet::new();
        while support.len() < cardinality {
            support.insert(rng.gen_range(0..1u64 << rest.len()));
        }
        let mut entries: Vec<(u64, f64)> = support
            .into_iter()
            .map(|r| (spread(r, &rest), rng.gen_range(0.25..1.0)))
            .collect();
        for &q in factors {
            let (a, b) = (rng.gen_range(0.25..1.0), rng.gen_range(0.25..1.0));
            entries = entries
                .into_iter()
                .flat_map(|(i, amp)| [(i, amp * a), (i | 1 << q, amp * b)])
                .collect();
        }
        let entries = entries.into_iter().map(|(i, a)| (BasisIndex::new(i), a));
        SparseState::from_amplitudes(n, entries)
            .unwrap()
            .normalize()
            .unwrap()
    }

    /// The state with `amplitude` rewritten per entry (`None` drops it).
    fn rewrite(state: &SparseState, f: impl Fn(BasisIndex, f64) -> Option<f64>) -> SparseState {
        let entries = state.iter().filter_map(|(i, a)| f(i, a).map(|a| (i, a)));
        SparseState::from_amplitudes(state.num_qubits(), entries)
            .unwrap()
            .normalize()
            .unwrap()
    }

    #[test]
    fn quantized_separability_agrees_with_the_f64_check() {
        let f64_separable = |state: &SparseState, q: usize| {
            Cofactors::of(state, q)
                .separation(DEFAULT_TOLERANCE)
                .is_some()
        };
        let mut rng = StdRng::seed_from_u64(0x5e9a_ab1e);
        for case in 0..400 {
            let n = rng.gen_range(2..=12usize);
            let mut factors = vec![rng.gen_range(0..n)];
            let second = rng.gen_range(0..n);
            if n > 2 && !factors.contains(&second) && rng.gen_bool(0.5) {
                factors.push(second);
            }
            let product = random_product(&mut rng, n, &factors);
            let search = SearchState::from_state(&product);
            for &q in &factors {
                assert!(f64_separable(&product, q), "case {case}: f64, q{q}");
                assert!(
                    search.qubit_separation(q).is_some(),
                    "case {case}: {n}-qubit product of cardinality {} reads q{q} entangled",
                    product.cardinality()
                );
            }
            // Both checks must agree on every other qubit as well.
            for q in 0..n {
                assert_eq!(
                    search.qubit_separation(q).is_some(),
                    f64_separable(&product, q),
                    "case {case}: q{q} of a {n}-qubit product"
                );
            }

            // Entangle the first factor qubit with the rest: skew one
            // |1⟩-branch amplitude by a 1-50% margin, or drop it. A single
            // rest-group has nothing to be entangled with.
            let q = factors[0];
            let ones: Vec<BasisIndex> = product
                .iter()
                .map(|(i, _)| i)
                .filter(|i| i.bit(q))
                .collect();
            if ones.len() < 2 {
                continue;
            }
            let victim = ones[rng.gen_range(0..ones.len())];
            let margin = rng.gen_range(0.01..0.5);
            let skewed = rewrite(&product, |i, a| {
                Some(if i == victim { a * (1.0 + margin) } else { a })
            });
            let cut = rewrite(&product, |i, a| (i != victim).then_some(a));
            for (label, state) in [("skewed", skewed), ("cut", cut)] {
                assert!(!f64_separable(&state, q), "case {case}: f64 {label}");
                assert!(
                    SearchState::from_state(&state)
                        .qubit_separation(q)
                        .is_none(),
                    "case {case}: {label} {n}-qubit state reads q{q} separable"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-negative amplitudes")]
    fn negative_amplitudes_are_rejected() {
        let state = SparseState::from_amplitudes(
            1,
            [(BasisIndex::new(0), 0.6), (BasisIndex::new(1), -0.8)],
        )
        .unwrap();
        let _ = SearchState::from_state(&state);
    }
}
