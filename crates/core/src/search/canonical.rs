//! State compression through zero-cost equivalence (Sec. V-B).
//!
//! The paper proposes treating two search states as equivalent when a
//! sequence of *zero-cost* operations maps one to the other (Pauli-X flips,
//! Y-rotation merges of separable qubits, optionally qubit relabelling) and
//! storing A* distances per equivalence class.
//!
//! This reproduction applies that compression **only when explicitly
//! requested** (`SearchConfig::permutation_compression`), because with the
//! CRy merges of Table I the equivalence is *approximate*: conjugating a
//! controlled merge by an X flip on its target qubit yields a **partial**
//! flip (only the controlled half of the support flips), which is not an
//! X-flip transform, so two states in the same class are not always
//! connected by a cost-preserving graph isomorphism. Sharing distance
//! entries across such a class can therefore settle a slightly suboptimal
//! reduction — empirically the compressed search returns 7 CNOTs for
//! `|D^2_4⟩` where the exact optimum (and the paper's Table IV) is 6, and
//! the returned cost depends on which X-flip frame of the target is
//! searched.
//!
//! The default key is therefore the **identity** (one distance entry per
//! concrete search state): sound, frame-independent — every X-flip /
//! permutation variant of a target returns the bit-identical optimal cost,
//! which is what the portfolio solver races on — and also cheaper: the
//! compressed key tries up to `n! · 2^n` relabellings, once for every
//! distinct state the search interns.

use super::state::{clear_into, relabel_into, separation, Entry, SearchState};

/// The canonical key of a search state under the configured equivalence.
pub type CanonicalKey = SearchState;

/// Exhaustive flip minimization is used up to this register width; beyond it
/// a deterministic greedy pass keeps the key cheap at the price of weaker
/// compression.
const EXHAUSTIVE_FLIP_QUBITS: usize = 10;

/// Permutation minimization enumerates all `n!` orders up to this width.
const EXHAUSTIVE_PERMUTATION_QUBITS: usize = 6;

/// Computes the distance-map key of `state`.
///
/// With `permutations` unset (the default) the key is the state itself —
/// exact, frame-independent search. With `permutations` set, the paper's
/// aggressive layout-invariant compression is applied: separable qubits are
/// cleared with (zero-cost) rotation merges, then the lexicographically
/// minimal representative over X-flip masks and qubit permutations is
/// selected. The compressed search expands fewer states but may return a
/// slightly suboptimal cost (see the [module docs](self)); it is kept for
/// the Sec. V-B ablations.
pub fn canonical_key(state: &SearchState, permutations: bool) -> CanonicalKey {
    if permutations {
        let key = compressed_key(state.entries(), state.num_qubits());
        SearchState::from_entries(state.num_qubits(), key)
    } else {
        state.clone()
    }
}

/// The entries of the compressed key of the state with `entries` (see
/// [`canonical_key`]). The A* arena computes it once per distinct state.
pub(crate) fn compressed_key(entries: &[Entry], num_qubits: usize) -> Vec<Entry> {
    minimal_relabelling(&clear_separable_qubits(entries, num_qubits), num_qubits)
}

/// Clears every separable qubit (they can be rotated to `|0⟩` for free),
/// repeating until a fixed point because one merge can make another qubit
/// separable.
fn clear_separable_qubits(entries: &[Entry], num_qubits: usize) -> Vec<Entry> {
    let mut current = entries.to_vec();
    let mut cleared = Vec::with_capacity(current.len());
    loop {
        let mut changed = false;
        for qubit in 0..num_qubits {
            if let Some((_, p1)) = separation(&current, qubit, None) {
                if p1 > 0 {
                    clear_into(&current, qubit, None, &mut cleared);
                    std::mem::swap(&mut current, &mut cleared);
                    changed = true;
                }
            }
        }
        if !changed {
            return current;
        }
    }
}

/// The lexicographically smallest relabelling of `entries` under X-flip
/// masks (exhaustive up to [`EXHAUSTIVE_FLIP_QUBITS`], a greedy per-qubit
/// pass beyond) and qubit permutations (up to
/// [`EXHAUSTIVE_PERMUTATION_QUBITS`] only). Candidates are built in two
/// reusable buffers.
fn minimal_relabelling(entries: &[Entry], num_qubits: usize) -> Vec<Entry> {
    let n = num_qubits;
    let mut best = entries.to_vec();
    let mut permuted = Vec::with_capacity(entries.len());
    let mut candidate = Vec::with_capacity(entries.len());
    let mut visit = |perm: Option<&[usize]>| {
        if n <= EXHAUSTIVE_FLIP_QUBITS {
            relabel_into(entries, perm, 0, &mut permuted);
            for mask in 0u64..(1u64 << n) {
                relabel_into(&permuted, None, mask, &mut candidate);
                if candidate < best {
                    best.clone_from(&candidate);
                }
            }
        } else {
            // Greedy: flip one qubit at a time, keeping each improvement.
            for q in 0..n {
                relabel_into(&best, None, 1u64 << q, &mut candidate);
                if candidate < best {
                    std::mem::swap(&mut best, &mut candidate);
                }
            }
        }
    };
    if n <= EXHAUSTIVE_PERMUTATION_QUBITS {
        let mut perm: Vec<usize> = (0..n).collect();
        permute_recursive(&mut perm, 0, &mut |p| visit(Some(p)));
    } else {
        visit(None);
    }
    best
}

fn permute_recursive<F: FnMut(&[usize])>(perm: &mut Vec<usize>, start: usize, visit: &mut F) {
    if start == perm.len() {
        visit(perm);
        return;
    }
    for i in start..perm.len() {
        perm.swap(start, i);
        permute_recursive(perm, start + 1, visit);
        perm.swap(start, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsp_state::{BasisIndex, SparseState};

    fn uniform(num_qubits: usize, indices: &[u64]) -> SearchState {
        let state = SparseState::uniform_superposition(
            num_qubits,
            indices.iter().map(|&x| BasisIndex::new(x)),
        )
        .unwrap();
        SearchState::from_state(&state)
    }

    #[test]
    fn exact_key_is_the_state_itself() {
        let a = uniform(3, &[0b001, 0b010]);
        assert_eq!(canonical_key(&a, false), a);
        // Distinct states — even zero-cost-equivalent ones — keep distinct
        // exact keys; only the compressed key identifies them.
        let b = uniform(3, &[0b000, 0b011]);
        assert_ne!(canonical_key(&a, false), canonical_key(&b, false));
    }

    #[test]
    fn compressed_key_identifies_flip_equivalent_states() {
        // (|100>+|010>)/√2 and (|000>+|110>)/√2 — the paper's ψ1 example.
        let a = uniform(3, &[0b001, 0b010]);
        let b = uniform(3, &[0b000, 0b011]);
        assert_eq!(canonical_key(&a, true), canonical_key(&b, true));
    }

    #[test]
    fn compressed_key_clears_separable_qubits() {
        // (|000>+|001>+|110>+|111>)/2 has its last qubit separable and reduces
        // to the GHZ-like core — the paper's ψ2 example.
        let phi = uniform(3, &[0b001, 0b010]);
        let psi2 = uniform(3, &[0b000, 0b100, 0b011, 0b111]);
        assert_eq!(canonical_key(&phi, true), canonical_key(&psi2, true));
    }

    #[test]
    fn compressed_key_quotients_by_permutations() {
        // (|100>+|010>)/√2 vs (|100>+|001>)/√2 — the paper's ψ3 example needs
        // a qubit swap.
        let phi = uniform(3, &[0b001, 0b010]);
        let psi3 = uniform(3, &[0b001, 0b100]);
        assert_ne!(canonical_key(&phi, false), canonical_key(&psi3, false));
        assert_eq!(canonical_key(&phi, true), canonical_key(&psi3, true));
    }

    #[test]
    fn fully_separable_states_collapse_to_the_ground_key_when_compressed() {
        let plus = uniform(2, &[0b00, 0b01, 0b10, 0b11]);
        let key = canonical_key(&plus, true);
        assert!(key.is_ground());
        // The exact key leaves the product state intact.
        assert_eq!(canonical_key(&plus, false).cardinality(), 4);
    }

    #[test]
    fn key_is_idempotent() {
        let dicke = uniform(4, &[0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]);
        for permutations in [false, true] {
            let key = canonical_key(&dicke, permutations);
            assert_eq!(canonical_key(&key, permutations), key);
        }
    }
}
