//! The sharded, eviction-aware synthesis cache.
//!
//! [`ShardedCache`] maps Sec. V-B canonical class keys to solved circuits
//! (plus the witness transform of the solved representative). It replaces the
//! single `Mutex<HashMap>` of the original batch engine with:
//!
//! * **N-way sharding** — the key hash selects one of `shards` independent
//!   `Mutex<HashMap>` shards (shard count is a power of two, so selection is
//!   a mask), removing the global lock from the batch hot path.
//! * **LRU eviction** — when a [`CacheConfig`] capacity is set, each shard is
//!   bounded to its slice of the capacity and evicts its least-recently-used
//!   class on overflow. Recency is a global atomic tick stamped on every
//!   lookup and insert.
//! * **Atomic hit/miss/insert/evict counters** — cheap relaxed counters that
//!   stay consistent under arbitrary thread interleavings:
//!   `hits + misses == lookups`, and `entries ≤ insertions − evictions`
//!   (strictly below when racing writers re-insert an existing class, which
//!   replaces the slot but still counts as an insertion).
//! * **JSON warm-start snapshots** — [`ShardedCache::save_snapshot`]
//!   persists solved classes (rotation angles as exact `f64` bit patterns)
//!   so a fresh process can start warm. The one way back in is
//!   [`crate::BatchSynthesizer::load_cache_snapshot`]: it folds a snapshot
//!   into a possibly *non-empty* cache, keeping the cheaper circuit when a
//!   class is present on both sides (the building block for fleet-wide
//!   cache exchange), and seeds the engine's keying anchors. The format
//!   rides on the workspace-shared [`crate::json`] reader/writer (the
//!   offline build has no serde).

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use qsp_circuit::{Circuit, Control, Gate};
use qsp_obs::Histogram;

use crate::engine::StateTransform;
use crate::error::SynthesisError;
use crate::json::{self, Value};
use crate::search::config::CacheConfig;
use crate::search::op::TransitionOp;

/// An amplitude-aware canonical class fingerprint: the Stage 0
/// **frame-invariant signature** of the invariant pipeline
/// ([`qsp_state::pipeline`]), the `(index, amplitude bits)` entries sorted
/// by index, the register width, **and the cost-relevant options
/// fingerprint** ([`crate::api::cost_fingerprint`]) of the configuration the
/// class is solved under.
///
/// The signature comes first in the struct, so the derived equality
/// short-circuits on the first eight bytes for almost every non-equivalent
/// pair before the entry vectors are even looked at.
///
/// Folding the options fingerprint into the key is what makes per-request
/// solver overrides *dedup-sound*: two requests for the same state under
/// different effective cost-relevant options hash to different classes, so
/// they can never share a cache entry, a batch representative or an
/// in-flight solve — and never contaminate each other's `cnot_cost`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ClassKey {
    pub(crate) signature: u64,
    pub(crate) num_qubits: usize,
    pub(crate) entries: Vec<(u64, u64)>,
    pub(crate) options_fp: u64,
}

impl ClassKey {
    /// Builds a key from the pipeline signature, the register width,
    /// `(index, amplitude bits)` entries (sorted by the caller) and the
    /// options fingerprint.
    pub(crate) fn new(
        signature: u64,
        num_qubits: usize,
        entries: Vec<(u64, u64)>,
        options_fp: u64,
    ) -> Self {
        ClassKey {
            signature,
            num_qubits,
            entries,
            options_fp,
        }
    }

    /// The Stage 0 frame-invariant signature of the class (zero for exact,
    /// non-canonical keys).
    pub fn signature(&self) -> u64 {
        self.signature
    }

    /// The cost-relevant options fingerprint this class is keyed under.
    pub fn options_fingerprint(&self) -> u64 {
        self.options_fp
    }
}

/// How a cached class's circuit was produced: a fresh workflow solve, or an
/// instantiation of a support-pattern class template (the captured structure
/// replayed with this class's own amplitudes). Session-local — snapshots do
/// not persist the origin, so loaded entries always read
/// [`EntryOrigin::Fresh`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EntryOrigin {
    /// Solved by a fresh workflow run.
    #[default]
    Fresh,
    /// Instantiated from a support-pattern class template via angle replay.
    Template,
}

/// One solved canonical class: the circuit of the first-seen member and the
/// witness transform of that member.
#[derive(Debug)]
pub struct CacheEntry {
    pub(crate) circuit: Result<Circuit, SynthesisError>,
    pub(crate) transform: StateTransform,
    pub(crate) origin: EntryOrigin,
}

impl CacheEntry {
    /// The solved circuit of the class representative, or the synthesis
    /// error the representative failed with.
    pub fn circuit(&self) -> Result<&Circuit, &SynthesisError> {
        self.circuit.as_ref()
    }

    /// The witness transform mapping the solved representative onto the
    /// canonical class fingerprint.
    pub fn transform(&self) -> &StateTransform {
        &self.transform
    }

    /// The representative's CNOT cost, if its synthesis succeeded.
    pub fn cnot_cost(&self) -> Option<usize> {
        self.circuit.as_ref().ok().map(Circuit::cnot_cost)
    }

    /// How the representative's circuit was produced (fresh solve vs
    /// template instantiation).
    pub fn origin(&self) -> EntryOrigin {
        self.origin
    }
}

/// An angle-free circuit template of one support-pattern class: the exact
/// solver's reduction recipe captured from the first member solved *at the
/// entanglement lower bound*, plus that member's witness onto the class's
/// support fingerprint.
///
/// Another member of the class instantiates the template by transporting its
/// own amplitudes into the captured frame and replaying the ops — the
/// angle-replay stage re-derives the member's rotation angles, so the
/// structure is shared while every instantiation carries its own angles. The
/// lower-bound capture gate is what keeps instantiation cost-identical to a
/// fresh solve (nothing can beat the bound, so both sit exactly on it).
#[derive(Debug, Clone)]
pub(crate) struct CircuitTemplate {
    /// The backward reduction, in the searched variant's frame.
    pub(crate) ops: Vec<TransitionOp>,
    /// Zero-cost transform from the compact register onto the searched
    /// variant.
    pub(crate) frame: StateTransform,
    /// Active qubit positions of the capturing member's register.
    pub(crate) active: Vec<usize>,
    /// The capturing member's witness onto the support fingerprint.
    pub(crate) witness: StateTransform,
}

/// A point-in-time view of the cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found a cached class.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Classes inserted (including snapshot loads).
    pub insertions: u64,
    /// Classes evicted by the size bound.
    pub evictions: u64,
    /// Classes currently cached across all shards.
    pub entries: usize,
}

struct Slot {
    entry: Arc<CacheEntry>,
    last_used: u64,
}

/// Shared registry histograms the cache reports its probe and eviction
/// latencies into once attached (see [`ShardedCache::attach_obs`]).
#[derive(Debug)]
struct CacheTiming {
    probe: Arc<Histogram>,
    evict: Arc<Histogram>,
}

/// One shard of the template map: support-pattern key → cached structure.
type TemplateShard = Mutex<HashMap<ClassKey, Arc<CircuitTemplate>>>;

/// The sharded, size-bounded canonical-class cache. See the [module
/// docs](self).
#[derive(Debug)]
pub struct ShardedCache {
    shards: Box<[Mutex<HashMap<ClassKey, Slot>>]>,
    /// Support-pattern class templates, sharded like the main map but keyed
    /// by the *support* fingerprint (amplitudes blanked). Session-local:
    /// never persisted to snapshots.
    templates: Box<[TemplateShard]>,
    shard_mask: usize,
    per_shard_capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    timing: OnceLock<CacheTiming>,
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slot")
            .field("last_used", &self.last_used)
            .finish_non_exhaustive()
    }
}

impl ShardedCache {
    /// Creates a cache with the given sharding and eviction policy.
    pub fn new(config: CacheConfig) -> Self {
        let shards = config.resolved_shards();
        let per_shard_capacity = if config.capacity == 0 {
            0
        } else {
            config.capacity.div_ceil(shards)
        };
        ShardedCache {
            shards: (0..shards)
                .map(|_| Mutex::new(HashMap::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            templates: (0..shards)
                .map(|_| Mutex::new(HashMap::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            shard_mask: shards - 1,
            per_shard_capacity,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            timing: OnceLock::new(),
        }
    }

    /// Attaches registry histograms for probe (lookup) and eviction latency.
    /// Until attached — the default — lookups and evictions take no
    /// timestamps at all; once attached the instrumentation cannot be
    /// removed (a second call is ignored). [`crate::BatchSynthesizer`]
    /// attaches these when its
    /// [`ObsOptions`](qsp_obs::ObsOptions) request `timing_detail`.
    pub fn attach_obs(&self, probe: Arc<Histogram>, evict: Arc<Histogram>) {
        let _ = self.timing.set(CacheTiming { probe, evict });
    }

    /// The number of lock shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The effective size bound: the configured capacity rounded up to a
    /// multiple of the shard count (`0` = unbounded). The cache never holds
    /// more classes than this.
    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * self.shards.len()
    }

    /// Number of solved canonical classes currently cached.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// Whether the cache holds no classes.
    pub fn is_empty(&self) -> bool {
        self.shards
            .iter()
            .all(|s| s.lock().expect("cache shard poisoned").is_empty())
    }

    /// Drops every cached class and template (counters are preserved).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.lock().expect("cache shard poisoned").clear();
        }
        for shard in self.templates.iter() {
            shard.lock().expect("cache template shard poisoned").clear();
        }
    }

    /// A consistent-enough snapshot of the counters plus the current entry
    /// count.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }

    fn shard_index(&self, key: &ClassKey) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() as usize) & self.shard_mask
    }

    fn shard_of(&self, key: &ClassKey) -> &Mutex<HashMap<ClassKey, Slot>> {
        &self.shards[self.shard_index(key)]
    }

    /// Looks up a circuit template for a support-pattern class key.
    pub(crate) fn lookup_template(&self, key: &ClassKey) -> Option<Arc<CircuitTemplate>> {
        let shard = self.templates[self.shard_index(key)]
            .lock()
            .expect("cache template shard poisoned");
        shard.get(key).cloned()
    }

    /// Registers a template for a support-pattern class. First writer wins:
    /// a key that already holds a template is left untouched so concurrent
    /// captures of the same class stay deterministic. Template shards honour
    /// the same per-shard bound as circuit shards but skip rather than
    /// evict — templates carry no recency and losing one is always safe.
    /// Returns whether the template was stored.
    pub(crate) fn insert_template(&self, key: ClassKey, template: Arc<CircuitTemplate>) -> bool {
        let mut shard = self.templates[self.shard_index(&key)]
            .lock()
            .expect("cache template shard poisoned");
        if shard.contains_key(&key) {
            return false;
        }
        if self.per_shard_capacity > 0 && shard.len() >= self.per_shard_capacity {
            return false;
        }
        shard.insert(key, template);
        true
    }

    /// Number of support-pattern class templates currently held.
    pub fn template_count(&self) -> usize {
        self.templates
            .iter()
            .map(|s| s.lock().expect("cache template shard poisoned").len())
            .sum()
    }

    /// Visits every cached class key under the shard locks. Used to seed the
    /// signature interner after a snapshot load.
    pub(crate) fn for_each_key(&self, mut f: impl FnMut(&ClassKey)) {
        for shard in self.shards.iter() {
            let shard = shard.lock().expect("cache shard poisoned");
            for key in shard.keys() {
                f(key);
            }
        }
    }

    /// Looks up a class, recording a hit or miss and refreshing the entry's
    /// recency on a hit.
    pub fn lookup(&self, key: &ClassKey) -> Option<Arc<CacheEntry>> {
        let timing = self.timing.get();
        let started = timing.map(|_| Instant::now());
        let mut shard = self.shard_of(key).lock().expect("cache shard poisoned");
        let found = match shard.get_mut(key) {
            Some(slot) => {
                slot.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&slot.entry))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        };
        drop(shard);
        if let (Some(timing), Some(started)) = (timing, started) {
            timing.probe.record(started.elapsed());
        }
        found
    }

    /// Inserts (or replaces) a solved class, evicting the shard's
    /// least-recently-used class first when the shard is at its bound.
    pub fn insert(&self, key: ClassKey, entry: Arc<CacheEntry>) {
        let last_used = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard_of(&key).lock().expect("cache shard poisoned");
        self.evict_if_full(&mut shard, &key);
        shard.insert(key, Slot { entry, last_used });
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    fn evict_if_full(&self, shard: &mut HashMap<ClassKey, Slot>, incoming: &ClassKey) {
        if self.per_shard_capacity > 0
            && shard.len() >= self.per_shard_capacity
            && !shard.contains_key(incoming)
        {
            let timing = self.timing.get();
            let started = timing.map(|_| Instant::now());
            let victim = shard
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                shard.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            if let (Some(timing), Some(started)) = (timing, started) {
                timing.evict.record(started.elapsed());
            }
        }
    }

    /// Inserts a solved class unless the cache already holds a cheaper (or
    /// equally cheap) successful circuit for the same key. Returns whether
    /// the incoming entry was kept. A successful circuit always beats a
    /// failed one; ties keep the resident entry.
    pub fn merge_entry(&self, key: ClassKey, entry: Arc<CacheEntry>) -> bool {
        let last_used = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard_of(&key).lock().expect("cache shard poisoned");
        if let Some(existing) = shard.get(&key) {
            let keep_resident = match (&existing.entry.circuit, &entry.circuit) {
                (Ok(old), Ok(new)) => old.cnot_cost() <= new.cnot_cost(),
                (Ok(_), Err(_)) | (Err(_), Err(_)) => true,
                (Err(_), Ok(_)) => false,
            };
            if keep_resident {
                return false;
            }
        } else {
            self.evict_if_full(&mut shard, &key);
        }
        shard.insert(key, Slot { entry, last_used });
        self.insertions.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Serializes every cached class whose synthesis succeeded into the
    /// writer as JSON. Rotation angles are written as `f64` bit patterns, so
    /// a round-trip is lossless.
    pub fn write_snapshot<W: Write>(&self, mut writer: W) -> io::Result<usize> {
        let mut entries = Vec::new();
        for shard in self.shards.iter() {
            let shard = shard.lock().expect("cache shard poisoned");
            for (key, slot) in shard.iter() {
                let Ok(circuit) = &slot.entry.circuit else {
                    continue; // errors are session-local; never persisted
                };
                entries.push(entry_value(key, &slot.entry.transform, circuit));
            }
        }
        let written = entries.len();
        let root = Value::Object(vec![
            ("version".to_string(), Value::Num(SNAPSHOT_FORMAT_VERSION)),
            ("entries".to_string(), Value::Array(entries)),
        ]);
        let mut body = root.to_json();
        body.push('\n');
        writer.write_all(body.as_bytes())?;
        Ok(written)
    }

    /// Saves a warm-start snapshot to `path`. Returns the number of classes
    /// written.
    pub fn save_snapshot(&self, path: &std::path::Path) -> io::Result<usize> {
        let file = std::fs::File::create(path)?;
        self.write_snapshot(io::BufWriter::new(file))
    }

    /// Merges a snapshot produced by [`ShardedCache::write_snapshot`] into
    /// this (possibly non-empty) cache: every snapshot class flows through
    /// [`ShardedCache::merge_entry`], so a key collision keeps whichever
    /// circuit is cheaper. Returns the number of classes actually adopted.
    pub(crate) fn merge_from_reader<R: Read>(&self, reader: R) -> io::Result<usize> {
        let mut adopted = 0usize;
        for (key, cache_entry) in parse_snapshot(reader)? {
            if self.merge_entry(key, Arc::new(cache_entry)) {
                adopted += 1;
            }
        }
        Ok(adopted)
    }

    /// Merges a snapshot file into this cache (see
    /// [`ShardedCache::merge_from_reader`]). Returns the number of classes
    /// adopted.
    pub(crate) fn merge_snapshot(&self, path: &std::path::Path) -> io::Result<usize> {
        let file = std::fs::File::open(path)?;
        self.merge_from_reader(io::BufReader::new(file))
    }

    /// Merges another in-process cache into this one through
    /// [`ShardedCache::merge_entry`] (cheaper circuit wins), sharing the
    /// entries by `Arc` instead of round-tripping through JSON. Returns the
    /// number of classes adopted.
    pub fn merge_from(&self, other: &ShardedCache) -> usize {
        let mut adopted = 0usize;
        for shard in other.shards.iter() {
            // Collect under the source shard lock, merge outside it, so the
            // two caches' locks are never held together (self == other
            // would deadlock otherwise, and lock order stays trivial).
            let entries: Vec<(ClassKey, Arc<CacheEntry>)> = shard
                .lock()
                .expect("cache shard poisoned")
                .iter()
                .map(|(key, slot)| (key.clone(), Arc::clone(&slot.entry)))
                .collect();
            for (key, entry) in entries {
                if self.merge_entry(key, entry) {
                    adopted += 1;
                }
            }
        }
        adopted
    }
}

/// The cache snapshot format version this build reads and writes.
///
/// * v1 — pre-fingerprint keys (no `fp` field).
/// * v2 — fingerprinted keys, brute-force canonical entries.
/// * v3 — invariant-pipeline keys: entries are the orbit-pipeline canonical
///   vector and every entry carries the Stage 0 signature (`sig`).
///
/// Older versions are *rejected* with the typed
/// [`SynthesisError::SnapshotVersion`]: their canonical entries were chosen
/// by a different search, so loading them would populate keys no current
/// request can ever produce (v1 additionally lacks the options fingerprint).
pub const SNAPSHOT_FORMAT_VERSION: u64 = 3;

fn invalid_data<E: Into<Box<dyn std::error::Error + Send + Sync>>>(e: E) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// Parses and validates a full snapshot document into `(key, entry)` pairs.
fn parse_snapshot<R: Read>(mut reader: R) -> io::Result<Vec<(ClassKey, CacheEntry)>> {
    let mut text = String::new();
    reader.read_to_string(&mut text)?;
    // Syntax errors surface as the typed `SynthesisError::Json` (with its
    // byte offset) wrapped in `io::ErrorKind::InvalidData`.
    let value = json::parse(&text).map_err(|e| invalid_data(SynthesisError::from(e)))?;
    if !matches!(value, Value::Object(_)) {
        return Err(invalid_data("snapshot root must be an object"));
    }
    let version = value
        .get("version")
        .and_then(Value::as_u64)
        .ok_or_else(|| invalid_data("version"))?;
    if version != SNAPSHOT_FORMAT_VERSION {
        return Err(invalid_data(SynthesisError::SnapshotVersion {
            found: version,
            supported: SNAPSHOT_FORMAT_VERSION,
        }));
    }
    value
        .get("entries")
        .and_then(Value::as_array)
        .ok_or_else(|| invalid_data("entries must be an array"))?
        .iter()
        .map(|entry| parse_entry(entry).map_err(invalid_data))
        .collect()
}

fn entry_value(key: &ClassKey, transform: &StateTransform, circuit: &Circuit) -> Value {
    let key_pairs = key
        .entries
        .iter()
        .map(|&(index, bits)| Value::Array(vec![Value::Num(index), Value::Num(bits)]))
        .collect();
    let perm = transform
        .perm
        .iter()
        .map(|&p| Value::Num(p as u64))
        .collect();
    let gates = circuit.iter().map(gate_value).collect();
    Value::Object(vec![
        ("n".to_string(), Value::Num(key.num_qubits as u64)),
        ("sig".to_string(), Value::Num(key.signature)),
        ("fp".to_string(), Value::Num(key.options_fp)),
        ("key".to_string(), Value::Array(key_pairs)),
        ("perm".to_string(), Value::Array(perm)),
        ("mask".to_string(), Value::Num(transform.mask)),
        ("gates".to_string(), Value::Array(gates)),
    ])
}

fn gate_value(gate: &Gate) -> Value {
    let tag = |g: &str| ("g".to_string(), Value::Str(g.to_string()));
    match gate {
        Gate::X { target } => Value::Object(vec![
            tag("x"),
            ("t".to_string(), Value::Num(*target as u64)),
        ]),
        Gate::Ry { target, theta } => Value::Object(vec![
            tag("ry"),
            ("t".to_string(), Value::Num(*target as u64)),
            ("a".to_string(), Value::Num(theta.to_bits())),
        ]),
        Gate::Cnot { control, target } => Value::Object(vec![
            tag("cx"),
            ("c".to_string(), Value::Num(control.qubit as u64)),
            ("p".to_string(), Value::Bool(control.polarity)),
            ("t".to_string(), Value::Num(*target as u64)),
        ]),
        Gate::Mcry {
            controls,
            target,
            theta,
        } => {
            let cs = controls
                .iter()
                .map(|c| Value::Array(vec![Value::Num(c.qubit as u64), Value::Bool(c.polarity)]))
                .collect();
            Value::Object(vec![
                tag("mcry"),
                ("cs".to_string(), Value::Array(cs)),
                ("t".to_string(), Value::Num(*target as u64)),
                ("a".to_string(), Value::Num(theta.to_bits())),
            ])
        }
    }
}

fn parse_entry(value: &json::Value) -> Result<(ClassKey, CacheEntry), String> {
    let object = value.as_object().ok_or("entry must be an object")?;
    let field = |name: &str| -> Result<&json::Value, String> {
        object
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field `{name}`"))
    };
    let n = field("n")?.as_u64().ok_or("n")? as usize;
    let signature = field("sig")?.as_u64().ok_or("sig")?;
    let options_fp = field("fp")?.as_u64().ok_or("fp")?;
    let key_entries = field("key")?
        .as_array()
        .ok_or("key")?
        .iter()
        .map(|pair| {
            let pair = pair.as_array().ok_or("key pair")?;
            match pair {
                [a, b] => Ok((
                    a.as_u64().ok_or("key index")?,
                    b.as_u64().ok_or("key bits")?,
                )),
                _ => Err("key pair arity".to_string()),
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    let perm = field("perm")?
        .as_array()
        .ok_or("perm")?
        .iter()
        .map(|p| {
            p.as_u64()
                .map(|v| v as usize)
                .ok_or_else(|| "perm entry".to_string())
        })
        .collect::<Result<Vec<_>, String>>()?;
    if perm.len() != n {
        return Err("perm length must match the register width".to_string());
    }
    let mut seen = vec![false; n];
    for &p in &perm {
        if p >= n || seen[p] {
            return Err("perm must be a bijection on 0..n".to_string());
        }
        seen[p] = true;
    }
    let mask = field("mask")?.as_u64().ok_or("mask")?;
    let gates = field("gates")?
        .as_array()
        .ok_or("gates")?
        .iter()
        .map(parse_gate)
        .collect::<Result<Vec<_>, String>>()?;
    let circuit = Circuit::from_gates(n, gates).map_err(|e| e.to_string())?;
    Ok((
        ClassKey::new(signature, n, key_entries, options_fp),
        CacheEntry {
            circuit: Ok(circuit),
            transform: StateTransform { perm, mask },
            origin: EntryOrigin::Fresh,
        },
    ))
}

fn parse_gate(value: &json::Value) -> Result<Gate, String> {
    let object = value.as_object().ok_or("gate must be an object")?;
    let field = |name: &str| -> Result<&json::Value, String> {
        object
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing gate field `{name}`"))
    };
    let kind = field("g")?.as_str().ok_or("g")?;
    let target = field("t")?.as_u64().ok_or("t")? as usize;
    match kind {
        "x" => Ok(Gate::X { target }),
        "ry" => Ok(Gate::Ry {
            target,
            theta: f64::from_bits(field("a")?.as_u64().ok_or("a")?),
        }),
        "cx" => Ok(Gate::Cnot {
            control: Control {
                qubit: field("c")?.as_u64().ok_or("c")? as usize,
                polarity: field("p")?.as_bool().ok_or("p")?,
            },
            target,
        }),
        "mcry" => {
            let controls = field("cs")?
                .as_array()
                .ok_or("cs")?
                .iter()
                .map(|pair| {
                    let pair = pair.as_array().ok_or("control pair")?;
                    match pair {
                        [q, p] => Ok(Control {
                            qubit: q.as_u64().ok_or("control qubit")? as usize,
                            polarity: p.as_bool().ok_or("control polarity")?,
                        }),
                        _ => Err("control pair arity".to_string()),
                    }
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(Gate::Mcry {
                controls,
                target,
                theta: f64::from_bits(field("a")?.as_u64().ok_or("a")?),
            })
        }
        other => Err(format!("unknown gate kind `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: usize, seed: u64) -> ClassKey {
        ClassKey::new(
            seed.wrapping_mul(0x9E37_79B9),
            n,
            vec![(seed, seed.wrapping_mul(31)), (seed + 7, seed ^ 42)],
            0xF00D,
        )
    }

    fn entry(n: usize) -> Arc<CacheEntry> {
        let mut circuit = Circuit::new(n);
        circuit.push(Gate::cnot(0, 1));
        circuit.push(Gate::ry(0, 0.25));
        Arc::new(CacheEntry {
            circuit: Ok(circuit),
            transform: StateTransform::identity(n),
            origin: EntryOrigin::Fresh,
        })
    }

    #[test]
    fn lookup_and_counters() {
        let cache = ShardedCache::new(CacheConfig {
            shards: 4,
            capacity: 0,
        });
        assert!(cache.is_empty());
        assert_eq!(cache.capacity(), 0);
        assert!(cache.lookup(&key(3, 1)).is_none());
        cache.insert(key(3, 1), entry(3));
        assert!(cache.lookup(&key(3, 1)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.entries, 1);
        cache.clear();
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn eviction_respects_the_bound_and_prefers_stale_entries() {
        let cache = ShardedCache::new(CacheConfig {
            shards: 1,
            capacity: 3,
        });
        assert_eq!(cache.capacity(), 3);
        for seed in 0..3 {
            cache.insert(key(3, seed), entry(3));
        }
        // Touch seeds 1 and 2 so seed 0 is the LRU victim.
        assert!(cache.lookup(&key(3, 1)).is_some());
        assert!(cache.lookup(&key(3, 2)).is_some());
        cache.insert(key(3, 99), entry(3));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().evictions, 1);
        assert!(
            cache.lookup(&key(3, 0)).is_none(),
            "LRU entry must be evicted"
        );
        assert!(cache.lookup(&key(3, 99)).is_some());
    }

    fn template(n: usize) -> Arc<CircuitTemplate> {
        Arc::new(CircuitTemplate {
            ops: vec![TransitionOp::RyMerge { target: 0 }],
            frame: StateTransform::identity(n),
            active: (0..n).collect(),
            witness: StateTransform::identity(n),
        })
    }

    #[test]
    fn template_store_is_first_wins_and_cleared_with_the_cache() {
        let cache = ShardedCache::new(CacheConfig {
            shards: 2,
            capacity: 0,
        });
        assert!(cache.lookup_template(&key(3, 1)).is_none());
        assert!(cache.insert_template(key(3, 1), template(3)));
        let first = cache.lookup_template(&key(3, 1)).expect("stored");
        // A second capture for the same class is dropped.
        assert!(!cache.insert_template(key(3, 1), template(3)));
        assert!(Arc::ptr_eq(
            &first,
            &cache.lookup_template(&key(3, 1)).unwrap()
        ));
        assert_eq!(cache.template_count(), 1);
        cache.clear();
        assert_eq!(cache.template_count(), 0);
        assert!(cache.lookup_template(&key(3, 1)).is_none());
    }

    #[test]
    fn template_store_skips_inserts_beyond_the_shard_bound() {
        let cache = ShardedCache::new(CacheConfig {
            shards: 1,
            capacity: 2,
        });
        assert!(cache.insert_template(key(3, 1), template(3)));
        assert!(cache.insert_template(key(3, 2), template(3)));
        // Bounded caches drop, rather than evict, excess templates.
        assert!(!cache.insert_template(key(3, 3), template(3)));
        assert_eq!(cache.template_count(), 2);
    }

    #[test]
    fn for_each_key_visits_every_cached_class() {
        let cache = ShardedCache::new(CacheConfig {
            shards: 4,
            capacity: 0,
        });
        for seed in 0..5 {
            cache.insert(key(3, seed), entry(3));
        }
        let mut seen = Vec::new();
        cache.for_each_key(|k| seen.push(k.clone()));
        seen.sort_by_key(|k| k.signature);
        let mut expected: Vec<ClassKey> = (0..5).map(|seed| key(3, seed)).collect();
        expected.sort_by_key(|k| k.signature);
        assert_eq!(seen, expected);
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let cache = ShardedCache::new(CacheConfig {
            shards: 1,
            capacity: 2,
        });
        cache.insert(key(3, 1), entry(3));
        cache.insert(key(3, 2), entry(3));
        cache.insert(key(3, 1), entry(3)); // replace, not insert
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn snapshot_round_trips_losslessly() {
        let cache = ShardedCache::new(CacheConfig {
            shards: 2,
            capacity: 0,
        });
        let mut circuit = Circuit::new(3);
        circuit.push(Gate::x(2));
        circuit.push(Gate::cnot_negated(1, 0));
        circuit.push(Gate::ry(1, std::f64::consts::FRAC_PI_3));
        circuit.push(Gate::Mcry {
            controls: vec![Control::positive(0), Control::negative(2)],
            target: 1,
            theta: -1.234567891011e-3,
        });
        let transform = StateTransform {
            perm: vec![2, 0, 1],
            mask: 0b101,
        };
        cache.insert(
            key(3, 5),
            Arc::new(CacheEntry {
                circuit: Ok(circuit.clone()),
                transform: transform.clone(),
                origin: EntryOrigin::Fresh,
            }),
        );
        // Failed classes never reach the snapshot.
        cache.insert(
            key(3, 6),
            Arc::new(CacheEntry {
                circuit: Err(SynthesisError::UnsupportedState {
                    reason: "test".to_string(),
                }),
                transform: StateTransform::identity(3),
                origin: EntryOrigin::Fresh,
            }),
        );

        let mut buffer = Vec::new();
        let written = cache.write_snapshot(&mut buffer).unwrap();
        assert_eq!(written, 1);

        let restored = ShardedCache::new(CacheConfig {
            shards: 8,
            capacity: 0,
        });
        let loaded = restored.merge_from_reader(buffer.as_slice()).unwrap();
        assert_eq!(loaded, 1);
        let entry = restored.lookup(&key(3, 5)).expect("loaded class present");
        assert_eq!(entry.circuit.as_ref().unwrap(), &circuit);
        assert_eq!(entry.transform, transform);
        assert!(restored.lookup(&key(3, 6)).is_none());
    }

    /// An entry whose circuit has exactly `cnots` CNOT gates.
    fn entry_with_cost(n: usize, cnots: usize) -> Arc<CacheEntry> {
        let mut circuit = Circuit::new(n);
        for _ in 0..cnots {
            circuit.push(Gate::cnot(0, 1));
        }
        Arc::new(CacheEntry {
            circuit: Ok(circuit),
            transform: StateTransform::identity(n),
            origin: EntryOrigin::Fresh,
        })
    }

    #[test]
    fn merge_entry_keeps_the_cheaper_circuit() {
        let cache = ShardedCache::new(CacheConfig {
            shards: 1,
            capacity: 0,
        });
        cache.insert(key(3, 1), entry_with_cost(3, 5));
        // A cheaper incoming circuit replaces the resident one...
        assert!(cache.merge_entry(key(3, 1), entry_with_cost(3, 2)));
        assert_eq!(cache.lookup(&key(3, 1)).unwrap().cnot_cost(), Some(2));
        // ...a costlier (or equal) one does not.
        assert!(!cache.merge_entry(key(3, 1), entry_with_cost(3, 4)));
        assert!(!cache.merge_entry(key(3, 1), entry_with_cost(3, 2)));
        assert_eq!(cache.lookup(&key(3, 1)).unwrap().cnot_cost(), Some(2));
        // A failed incoming entry never displaces a success; a success
        // always displaces a failure.
        let failed = Arc::new(CacheEntry {
            circuit: Err(SynthesisError::UnsupportedState {
                reason: "test".to_string(),
            }),
            transform: StateTransform::identity(3),
            origin: EntryOrigin::Fresh,
        });
        assert!(!cache.merge_entry(key(3, 1), Arc::clone(&failed)));
        cache.insert(key(3, 2), failed);
        assert!(cache.merge_entry(key(3, 2), entry_with_cost(3, 9)));
        // New keys are simply adopted.
        assert!(cache.merge_entry(key(3, 3), entry_with_cost(3, 1)));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn merge_snapshot_into_nonempty_cache_prefers_cheaper_entries() {
        let warm = ShardedCache::new(CacheConfig {
            shards: 2,
            capacity: 0,
        });
        warm.insert(key(3, 1), entry_with_cost(3, 2)); // cheaper than resident
        warm.insert(key(3, 2), entry_with_cost(3, 7)); // costlier than resident
        warm.insert(key(3, 3), entry_with_cost(3, 4)); // novel
        let mut snapshot = Vec::new();
        assert_eq!(warm.write_snapshot(&mut snapshot).unwrap(), 3);

        let cache = ShardedCache::new(CacheConfig {
            shards: 4,
            capacity: 0,
        });
        cache.insert(key(3, 1), entry_with_cost(3, 6));
        cache.insert(key(3, 2), entry_with_cost(3, 3));
        let adopted = cache.merge_from_reader(snapshot.as_slice()).unwrap();
        assert_eq!(adopted, 2, "the cheaper collision and the novel key");
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.lookup(&key(3, 1)).unwrap().cnot_cost(), Some(2));
        assert_eq!(cache.lookup(&key(3, 2)).unwrap().cnot_cost(), Some(3));
        assert_eq!(cache.lookup(&key(3, 3)).unwrap().cnot_cost(), Some(4));
    }

    #[test]
    fn merge_from_shares_entries_without_serialization() {
        let source = ShardedCache::new(CacheConfig {
            shards: 2,
            capacity: 0,
        });
        source.insert(key(3, 1), entry_with_cost(3, 2));
        source.insert(key(3, 2), entry_with_cost(3, 7));
        let cache = ShardedCache::new(CacheConfig {
            shards: 8,
            capacity: 0,
        });
        cache.insert(key(3, 2), entry_with_cost(3, 3)); // cheaper resident
        assert_eq!(cache.merge_from(&source), 1);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup(&key(3, 1)).unwrap().cnot_cost(), Some(2));
        assert_eq!(cache.lookup(&key(3, 2)).unwrap().cnot_cost(), Some(3));
        // The adopted entry is the same allocation, not a copy.
        assert!(Arc::ptr_eq(
            &cache.lookup(&key(3, 1)).unwrap(),
            &source.lookup(&key(3, 1)).unwrap()
        ));
        // Self-merge must not deadlock (locks are never held together).
        assert_eq!(cache.merge_from(&cache), 0);
    }

    #[test]
    fn merge_respects_the_size_bound() {
        let cache = ShardedCache::new(CacheConfig {
            shards: 1,
            capacity: 2,
        });
        let warm = ShardedCache::new(CacheConfig {
            shards: 1,
            capacity: 0,
        });
        for seed in 0..5 {
            warm.insert(key(3, seed), entry_with_cost(3, seed as usize + 1));
        }
        let mut snapshot = Vec::new();
        warm.write_snapshot(&mut snapshot).unwrap();
        cache.merge_from_reader(snapshot.as_slice()).unwrap();
        assert_eq!(cache.len(), 2);
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn snapshot_rejects_garbage() {
        let cache = ShardedCache::new(CacheConfig::default());
        assert!(cache.merge_from_reader("not json".as_bytes()).is_err());
        // A v3 entry without the signature or fingerprint is rejected.
        let no_sig = "{\"version\":3,\"entries\":[{\"n\":2,\"fp\":0,\"key\":[[0,1]],\"perm\":[0,1],\"mask\":0,\"gates\":[]}]}";
        assert!(cache.merge_from_reader(no_sig.as_bytes()).is_err());
        let no_fp = "{\"version\":3,\"entries\":[{\"n\":2,\"sig\":0,\"key\":[[0,1]],\"perm\":[0,1],\"mask\":0,\"gates\":[]}]}";
        assert!(cache.merge_from_reader(no_fp.as_bytes()).is_err());
        // A perm that is not a bijection is rejected.
        let bad = "{\"version\":3,\"entries\":[{\"n\":2,\"sig\":0,\"fp\":0,\"key\":[[0,1]],\"perm\":[0,0],\"mask\":0,\"gates\":[]}]}";
        assert!(cache.merge_from_reader(bad.as_bytes()).is_err());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn outdated_snapshot_versions_are_rejected_with_the_typed_error() {
        let cache = ShardedCache::new(CacheConfig::default());
        // v1 (pre-fingerprint), v2 (pre-pipeline) and unknown future
        // versions all surface `SynthesisError::SnapshotVersion` behind the
        // io::Error, with the found/supported pair intact.
        for version in [1u64, 2, 4] {
            let doc = format!("{{\"version\":{version},\"entries\":[]}}");
            let error = cache.merge_from_reader(doc.as_bytes()).unwrap_err();
            assert_eq!(error.kind(), io::ErrorKind::InvalidData);
            let inner = error
                .get_ref()
                .and_then(|e| e.downcast_ref::<SynthesisError>())
                .unwrap_or_else(|| panic!("version {version}: expected a typed error"));
            match inner {
                SynthesisError::SnapshotVersion { found, supported } => {
                    assert_eq!(*found, version);
                    assert_eq!(*supported, SNAPSHOT_FORMAT_VERSION);
                }
                other => panic!("expected SnapshotVersion, got {other:?}"),
            }
            assert!(inner.to_string().contains("snapshot version"));
        }
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn keys_with_different_fingerprints_are_distinct_classes() {
        let cache = ShardedCache::new(CacheConfig::unbounded());
        let entries = vec![(1u64, 2u64)];
        let a = ClassKey::new(0xBEEF, 3, entries.clone(), 10);
        let b = ClassKey::new(0xBEEF, 3, entries, 20);
        assert_ne!(a, b);
        assert_eq!(a.options_fingerprint(), 10);
        assert_eq!(a.signature(), 0xBEEF);
        cache.insert(a.clone(), entry_with_cost(3, 1));
        cache.insert(b.clone(), entry_with_cost(3, 4));
        assert_eq!(cache.len(), 2, "fingerprints must fork the class");
        assert_eq!(cache.lookup(&a).unwrap().cnot_cost(), Some(1));
        assert_eq!(cache.lookup(&b).unwrap().cnot_cost(), Some(4));
        // The fingerprint survives a snapshot round-trip.
        let mut snapshot = Vec::new();
        cache.write_snapshot(&mut snapshot).unwrap();
        let restored = ShardedCache::new(CacheConfig::unbounded());
        assert_eq!(restored.merge_from_reader(snapshot.as_slice()).unwrap(), 2);
        assert_eq!(restored.lookup(&a).unwrap().cnot_cost(), Some(1));
        assert_eq!(restored.lookup(&b).unwrap().cnot_cost(), Some(4));
    }

    #[test]
    fn concurrent_counters_stay_consistent() {
        let cache = Arc::new(ShardedCache::new(CacheConfig {
            shards: 4,
            capacity: 0,
        }));
        let threads = 8;
        let per_thread = 200;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let k = key(4, (i % 50) as u64);
                        if cache.lookup(&k).is_none() {
                            cache.insert(k, entry(4));
                        }
                        let _ = t;
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(
            stats.hits + stats.misses,
            (threads * per_thread) as u64,
            "every lookup is counted exactly once"
        );
        assert_eq!(stats.entries, 50);
        assert!(stats.insertions >= 50);
    }
}
