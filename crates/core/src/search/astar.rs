//! The A* shortest-path solver (Algorithm 1 of the paper).
//!
//! The search runs backwards from the target state and stops at the first
//! *product* state it settles: from there zero-cost single-qubit rotations
//! finish the reduction to `|0…0⟩`. Distances are stored per concrete state
//! by default (or per Sec. V-B equivalence class when the approximate
//! `permutation_compression` ablation is on) and the priority queue is
//! ordered by `g + h` where `h` is the admissible entanglement heuristic of
//! Sec. V-A, so the first settled product state is CNOT-optimal with respect
//! to the transition library.
//!
//! Every distinct state is interned once in an arena of nodes. A node holds
//! the state's entries, its distance slot, its cached heuristic and the
//! parent node and op of its best path; the priority queue holds only
//! `(f, g, seq, node id)`. Successors are built in one reusable scratch
//! buffer and looked up in the interner before anything is stored, so
//! expanding a node allocates only for states never seen before.
//!
//! The search can also run as one worker of a *portfolio* (see
//! [`SearchCoordination`]): racing searches on zero-cost variants of the
//! same target share an atomic incumbent bound and a cancellation flag.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as AtomicOrdering};

use qsp_obs::{CancellationCause, SearchProbe};

use crate::error::SynthesisError;

use super::canonical::compressed_key;
use super::config::SearchConfig;
use super::op::TransitionOp;
use super::state::{self, Entry, Profile, SearchState};

/// Shared coordination state of a portfolio of racing A* searches.
///
/// Workers publish their solution cost into the atomic *incumbent bound* and
/// raise the cancellation flag as soon as one of them settles an optimal
/// solution (first-optimal-wins). Other workers prune queue entries that
/// cannot beat the incumbent and exit at the next poll of the flag.
#[derive(Debug, Default)]
pub struct SearchCoordination {
    best: AtomicUsize,
    cancelled: AtomicBool,
}

impl SearchCoordination {
    /// Fresh coordination state with an infinite incumbent bound.
    pub fn new() -> Self {
        SearchCoordination {
            best: AtomicUsize::new(usize::MAX),
            cancelled: AtomicBool::new(false),
        }
    }

    /// Publishes a settled solution cost and cancels the remaining workers.
    /// Returns whether the cost actually lowered the incumbent bound (the
    /// flight recorder counts these as incumbent updates).
    pub fn record_solution(&self, cost: usize) -> bool {
        let previous = self.best.fetch_min(cost, AtomicOrdering::SeqCst);
        self.cancelled.store(true, AtomicOrdering::SeqCst);
        cost < previous
    }

    /// The current incumbent bound (`usize::MAX` before any solution).
    pub fn bound(&self) -> usize {
        self.best.load(AtomicOrdering::Relaxed)
    }

    /// Whether some worker already settled an optimal solution.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(AtomicOrdering::Relaxed)
    }
}

/// Why a coordinated search returned without a reduction.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchFailure {
    /// Another portfolio worker won the race; this search was cancelled.
    Cancelled,
    /// The search itself failed (budget exhaustion).
    Error(SynthesisError),
}

/// Statistics and result of one A* run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchOutcome {
    /// Backward transitions from the target to the settled product state.
    pub reduction_ops: Vec<TransitionOp>,
    /// Total CNOT cost of the reduction (= cost of the preparation circuit).
    pub cnot_cost: usize,
    /// Number of states popped and expanded.
    pub expanded: usize,
    /// Number of states pushed onto the priority queue.
    pub pushed: usize,
}

/// The id of the target's node, where every reduction path starts.
const ROOT: u32 = 0;

/// One distinct search state, interned once in the [`Arena`].
#[derive(Debug)]
struct Node {
    /// The state's sorted entries (shared with the interner's key).
    entries: Rc<[Entry]>,
    /// The distance slot holding the best known `g` for this node.
    slot: u32,
    /// The node the best path so far came from (unused at the root).
    parent: u32,
    /// Library index of the op that led here from `parent`.
    op: u32,
    /// The heuristic, computed the first time the node is pushed.
    h: Option<u32>,
}

/// Every distinct state the search has generated, each stored once and
/// named by a `u32` id.
///
/// A node's distance slot is chosen when it is interned: its own slot by
/// default, or under `permutation_compression` the slot of its Sec. V-B
/// canonical key, so every member of a class shares one best `g`. The key
/// is computed once per distinct state. Nodes stay keyed by the concrete
/// state either way, because path reconstruction needs concrete parents.
#[derive(Debug)]
struct Arena {
    num_qubits: usize,
    use_heuristic: bool,
    nodes: Vec<Node>,
    /// Node id and distance slot per interned state: a successor's lookup
    /// reaches its best `g` without touching its node.
    ids: HashMap<Rc<[Entry]>, (u32, u32)>,
    /// Best known `g` per distance slot (`usize::MAX` until reached).
    best: Vec<usize>,
    /// The slot of every canonical key seen (compression only).
    classes: Option<HashMap<Vec<Entry>, u32>>,
}

impl Arena {
    fn new(num_qubits: usize, config: &SearchConfig) -> Self {
        Arena {
            num_qubits,
            use_heuristic: config.use_heuristic,
            nodes: Vec::new(),
            ids: HashMap::new(),
            best: Vec::new(),
            classes: config.permutation_compression.then(HashMap::new),
        }
    }

    /// The node id and distance slot of the state with `entries`, interning
    /// it on first sight. `None` when the state would be the arena's
    /// `2^32`-th: ids never wrap.
    fn intern(&mut self, entries: &[Entry]) -> Option<(u32, u32)> {
        if let Some(&found) = self.ids.get(entries) {
            return Some(found);
        }
        let id = u32::try_from(self.nodes.len()).ok()?;
        let slot = match &mut self.classes {
            None => id,
            Some(classes) => {
                let key = compressed_key(entries, self.num_qubits);
                match classes.get(&key) {
                    Some(&slot) => slot,
                    None => {
                        let slot = u32::try_from(self.best.len()).ok()?;
                        classes.insert(key, slot);
                        slot
                    }
                }
            }
        };
        if slot as usize == self.best.len() {
            self.best.push(usize::MAX);
        }
        let entries: Rc<[Entry]> = Rc::from(entries);
        self.ids.insert(Rc::clone(&entries), (id, slot));
        self.nodes.push(Node {
            entries,
            slot,
            parent: ROOT,
            op: 0,
            h: None,
        });
        Some((id, slot))
    }

    fn node(&self, id: u32) -> &Node {
        &self.nodes[id as usize]
    }

    fn best(&self, slot: u32) -> usize {
        self.best[slot as usize]
    }

    /// Records `g` as the best distance of `id`'s slot, reached from
    /// `parent` through library op `op`.
    fn relax(&mut self, id: u32, g: usize, parent: u32, op: u32) {
        let node = &mut self.nodes[id as usize];
        node.parent = parent;
        node.op = op;
        self.best[node.slot as usize] = g;
    }

    /// The Sec. V-A heuristic of `id` (computed once, then cached), or 0
    /// when the heuristic is off.
    fn heuristic(&mut self, id: u32) -> usize {
        if !self.use_heuristic {
            return 0;
        }
        let node = &mut self.nodes[id as usize];
        let h = *node.h.get_or_insert_with(|| {
            let h = state::heuristic(&node.entries, self.num_qubits);
            u32::try_from(h).expect("the heuristic is at most the qubit count")
        });
        h as usize
    }

    /// The library ops from the root to `goal`, in application order.
    fn path(&self, goal: u32, library: &[TransitionOp]) -> Vec<TransitionOp> {
        let mut ops = Vec::new();
        let mut id = goal;
        while id != ROOT {
            let node = self.node(id);
            ops.push(library[node.op as usize]);
            id = node.parent;
        }
        ops.reverse();
        ops
    }
}

/// Runs the A* search from `target` (backwards) until a product state is
/// settled and returns the reduction operations together with statistics.
///
/// # Errors
///
/// Returns [`SynthesisError::SearchBudgetExhausted`] if the configured node
/// budget runs out before a product state is reached (which cannot happen
/// for well-formed inputs unless the budget is made artificially small).
pub fn shortest_reduction(
    target: &SearchState,
    config: &SearchConfig,
) -> Result<SearchOutcome, SynthesisError> {
    shortest_reduction_coordinated(target, config, None).map_err(|failure| match failure {
        // Without coordination a search can never be cancelled.
        SearchFailure::Cancelled => unreachable!("uncoordinated search cancelled"),
        SearchFailure::Error(e) => e,
    })
}

/// [`shortest_reduction`] with optional portfolio coordination: the search
/// polls the cancellation flag on every pop and prunes successors whose `f`
/// value already exceeds the shared incumbent bound (such a node can at best
/// *match* the settled optimum, never beat it, so dropping it preserves the
/// first-optimal-wins contract).
pub fn shortest_reduction_coordinated(
    target: &SearchState,
    config: &SearchConfig,
    coordination: Option<&SearchCoordination>,
) -> Result<SearchOutcome, SearchFailure> {
    shortest_reduction_probed(target, config, coordination, None)
}

/// [`shortest_reduction_coordinated`] with an optional flight-recorder
/// probe. When a probe is attached, the search flushes its node counters
/// and frontier high-water into it on exit and reports incumbent-bound
/// improvements and the cancellation cause as they happen; with `None`
/// (the default everywhere the flight recorder is off) no per-node
/// accounting beyond the existing local counters is paid.
pub fn shortest_reduction_probed(
    target: &SearchState,
    config: &SearchConfig,
    coordination: Option<&SearchCoordination>,
    probe: Option<&SearchProbe>,
) -> Result<SearchOutcome, SearchFailure> {
    let flush = |expanded: usize, pushed: usize, frontier: usize| {
        if let Some(probe) = probe {
            probe.add_expanded(expanded as u64);
            probe.add_pushed(pushed as u64);
            probe.update_frontier(frontier as u64);
        }
    };
    let cancelled = |cause: CancellationCause| {
        if let Some(probe) = probe {
            probe.note_cancellation(cause);
        }
    };
    if target.is_product() {
        return Ok(SearchOutcome {
            reduction_ops: Vec::new(),
            cnot_cost: 0,
            expanded: 0,
            pushed: 0,
        });
    }

    let num_qubits = target.num_qubits();
    let library = TransitionOp::library(num_qubits, config.enable_controlled_merges);
    let exhausted = |expanded: usize, pushed: usize, frontier: usize| {
        flush(expanded, pushed, frontier);
        cancelled(CancellationCause::BudgetExhausted);
        Err(SearchFailure::Error(
            SynthesisError::SearchBudgetExhausted { expanded },
        ))
    };

    let mut arena = Arena::new(num_qubits, config);
    // The heap orders by (f, g, insertion sequence), smallest first; the
    // sequence number is unique, so the node id never takes part.
    let mut queue: BinaryHeap<Reverse<(usize, usize, u64, u32)>> = BinaryHeap::new();
    let mut scratch: Vec<Entry> = Vec::with_capacity(target.cardinality());
    let mut seq = 0u64;
    let mut expanded = 0usize;
    let mut pushed = 0usize;
    let mut frontier = 1usize; // high-water mark; the initial push is below

    let root = arena
        .intern(target.entries())
        .expect("an empty arena has room for the root")
        .0;
    arena.relax(root, 0, ROOT, 0);
    queue.push(Reverse((arena.heuristic(root), 0, seq, root)));

    while let Some(Reverse((_, g, _, id))) = queue.pop() {
        if let Some(coordination) = coordination {
            if coordination.is_cancelled() {
                flush(expanded, pushed, frontier);
                cancelled(CancellationCause::IncumbentRace);
                return Err(SearchFailure::Cancelled);
            }
        }
        if arena.best(arena.node(id).slot) < g {
            continue; // stale entry
        }
        let entries = Rc::clone(&arena.node(id).entries);
        let profile = Profile::of(&entries, num_qubits);
        if profile.is_product() {
            if let Some(coordination) = coordination {
                if coordination.record_solution(g) {
                    if let Some(probe) = probe {
                        probe.note_incumbent_update();
                    }
                }
            }
            flush(expanded, pushed, frontier);
            return Ok(SearchOutcome {
                reduction_ops: arena.path(id, &library),
                cnot_cost: g,
                expanded,
                pushed,
            });
        }
        expanded += 1;
        if expanded > config.max_expanded_nodes {
            return exhausted(expanded, pushed, frontier);
        }
        let incumbent = coordination.map_or(usize::MAX, SearchCoordination::bound);
        for (op_index, op) in (0u32..).zip(&library) {
            if !state::successor(&entries, num_qubits, profile, op, &mut scratch) {
                continue;
            }
            let tentative = g + op.cnot_cost();
            let Some((next, slot)) = arena.intern(&scratch) else {
                return exhausted(expanded, pushed, frontier);
            };
            if tentative < arena.best(slot) {
                let f = tentative + arena.heuristic(next);
                // A node with f > incumbent cannot beat the already settled
                // optimum of an equivalent variant; prune it without touching
                // its distance so a later, cheaper path stays admissible.
                if f > incumbent {
                    continue;
                }
                arena.relax(next, tentative, id, op_index);
                seq += 1;
                pushed += 1;
                queue.push(Reverse((f, tentative, seq, next)));
            }
        }
        frontier = frontier.max(queue.len());
    }

    // A drained queue in coordinated mode means every remaining branch was
    // pruned against the incumbent: the race has a winner, this worker lost.
    if coordination.is_some_and(SearchCoordination::is_cancelled) {
        flush(expanded, pushed, frontier);
        cancelled(CancellationCause::IncumbentRace);
        return Err(SearchFailure::Cancelled);
    }
    exhausted(expanded, pushed, frontier)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsp_state::{generators, BasisIndex, SparseState};

    fn search_state(state: &SparseState) -> SearchState {
        SearchState::from_state(state)
    }

    fn solve(state: &SparseState) -> SearchOutcome {
        shortest_reduction(&search_state(state), &SearchConfig::default()).unwrap()
    }

    #[test]
    fn product_states_need_no_transitions() {
        let plus = SparseState::uniform_superposition(2, (0..4).map(BasisIndex::new)).unwrap();
        let outcome = solve(&plus);
        assert_eq!(outcome.cnot_cost, 0);
        assert!(outcome.reduction_ops.is_empty());
    }

    #[test]
    fn ghz_states_cost_n_minus_1_cnots() {
        for n in 2..5 {
            let outcome = solve(&generators::ghz(n).unwrap());
            assert_eq!(outcome.cnot_cost, n - 1, "ghz({n})");
        }
    }

    #[test]
    fn motivating_example_costs_two_cnots() {
        // Sec. III: (|000> + |011> + |101> + |110>)/2 needs exactly 2 CNOTs.
        let target = SparseState::uniform_superposition(
            3,
            [0b000u64, 0b011, 0b101, 0b110].map(BasisIndex::new),
        )
        .unwrap();
        let outcome = solve(&target);
        assert_eq!(outcome.cnot_cost, 2);
        assert_eq!(
            outcome
                .reduction_ops
                .iter()
                .map(TransitionOp::cnot_cost)
                .sum::<usize>(),
            2
        );
    }

    #[test]
    fn w3_state_costs_at_most_four_cnots() {
        // Table IV row (n=3, k=1): ours = 4.
        let outcome = solve(&generators::w_state(3).unwrap());
        assert!(outcome.cnot_cost <= 4, "cost {}", outcome.cnot_cost);
        assert!(outcome.cnot_cost >= 2);
    }

    #[test]
    fn heuristic_does_not_change_the_optimum_and_compression_never_improves_it() {
        let target = generators::dicke(3, 1).unwrap();
        let base = shortest_reduction(&search_state(&target), &SearchConfig::default()).unwrap();
        let no_heuristic = shortest_reduction(
            &search_state(&target),
            &SearchConfig {
                use_heuristic: false,
                ..SearchConfig::default()
            },
        )
        .unwrap();
        let with_permutations = shortest_reduction(
            &search_state(&target),
            &SearchConfig {
                permutation_compression: true,
                ..SearchConfig::default()
            },
        )
        .unwrap();
        assert_eq!(base.cnot_cost, no_heuristic.cnot_cost);
        // The approximate PU(2) compression reconstructs genuine reduction
        // paths, so it can never report a better-than-optimal cost — only
        // fewer expansions at the risk of a slightly larger one.
        assert!(with_permutations.cnot_cost >= base.cnot_cost);
        // The heuristic can only reduce the number of expansions.
        assert!(base.expanded <= no_heuristic.expanded);
    }

    #[test]
    fn exact_keys_find_the_table4_optimum_in_every_flip_frame() {
        // The Sec. V-B compressed search settles |D^2_4> at 7 CNOTs in some
        // X-flip frames; the exact default must find the paper's 6 in all of
        // them (this is the frame-independence the portfolio relies on).
        let dicke = generators::dicke(4, 2).unwrap();
        for mask in 0u64..16 {
            let mut variant = dicke.clone();
            for q in 0..4 {
                if mask >> q & 1 == 1 {
                    variant = variant.apply_x(q).unwrap();
                }
            }
            let outcome =
                shortest_reduction(&search_state(&variant), &SearchConfig::default()).unwrap();
            assert_eq!(outcome.cnot_cost, 6, "flip frame {mask:04b}");
        }
    }

    #[test]
    fn coordinated_search_is_cancelled_by_a_settled_solution() {
        let coordination = SearchCoordination::new();
        assert!(!coordination.is_cancelled());
        assert_eq!(coordination.bound(), usize::MAX);
        coordination.record_solution(5);
        assert!(coordination.is_cancelled());
        assert_eq!(coordination.bound(), 5);
        let target = search_state(&generators::dicke(4, 2).unwrap());
        let result =
            shortest_reduction_coordinated(&target, &SearchConfig::default(), Some(&coordination));
        assert_eq!(result, Err(SearchFailure::Cancelled));
    }

    #[test]
    fn tiny_node_budget_reports_exhaustion() {
        let config = SearchConfig {
            max_expanded_nodes: 1,
            ..SearchConfig::default()
        };
        let result = shortest_reduction(&search_state(&generators::dicke(4, 2).unwrap()), &config);
        assert!(matches!(
            result,
            Err(SynthesisError::SearchBudgetExhausted { .. })
        ));
    }

    #[test]
    fn disabling_controlled_merges_never_improves_the_cost() {
        // Removing the CRy merges restricts the library: states whose
        // cardinality is not a power of two (like the W state) may become
        // unreachable, and reachable states can only get more expensive.
        let target = generators::w_state(3).unwrap();
        let with_cry = shortest_reduction(&search_state(&target), &SearchConfig::default())
            .unwrap()
            .cnot_cost;
        let restricted = SearchConfig {
            enable_controlled_merges: false,
            ..SearchConfig::default()
        };
        match shortest_reduction(&search_state(&target), &restricted) {
            Ok(outcome) => assert!(outcome.cnot_cost >= with_cry),
            Err(SynthesisError::SearchBudgetExhausted { .. }) => {} // unreachable without CRy
            Err(other) => panic!("unexpected error {other}"),
        }
        // The GHZ state needs no controlled merges and must keep its optimum.
        let ghz = generators::ghz(3).unwrap();
        let restricted_ghz = shortest_reduction(&search_state(&ghz), &restricted).unwrap();
        assert_eq!(restricted_ghz.cnot_cost, 2);
    }
}
