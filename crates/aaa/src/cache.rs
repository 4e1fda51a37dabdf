//! Content-addressed memoization of lifecycle stages.
//!
//! A scenario sweep re-runs the lifecycle hundreds of times, but many
//! scenarios perturb only the plant, the disturbance seed or the sampling
//! period — inputs the list scheduler never sees. The schedule they need
//! is exactly the one already computed for the same (algorithm graph,
//! architecture, WCET table, policy) quadruple. [`DigestMemo`] is the one
//! thread-safe memo table every stage shares, keyed by a stable
//! [`Fnv1a`] digest of the stage's inputs; [`ScheduleCache`] is that memo
//! keyed by [`schedule_digest`], so such scenarios skip the scheduler
//! entirely. [`adequation`] is deterministic, so a cache hit returns a
//! schedule byte-identical to a fresh run. A memo may be backed by a
//! [source](DigestMemo::set_source) — a daemon's on-disk store — that it
//! asks before computing.

use std::borrow::Cow;
use std::collections::{hash_map, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use ecl_sim::splitmix64;

use crate::adequation::{adequation, AdequationOptions, MappingPolicy};
use crate::algorithm::AlgorithmGraph;
use crate::architecture::{ArchitectureGraph, MediumKind};
use crate::schedule::Schedule;
use crate::timing::TimingDb;
use crate::AaaError;

/// FNV-1a, 64 bit — a stable, dependency-free content hash. `std`'s
/// `DefaultHasher` is deliberately unspecified across releases; the
/// digests built on this hasher must be reproducible so cache statistics
/// (and any persisted keys) mean the same thing on every toolchain.
///
/// Public so the other [`DigestMemo`] key functions (e.g. the ideal-run
/// digest in `ecl-core`) use the exact same hash family as
/// [`schedule_digest`].
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes raw bytes into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Mixes a `u64` (little-endian) into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Mixes an `i64` (little-endian) into the digest.
    pub fn write_i64(&mut self, v: i64) {
        self.write(&v.to_le_bytes());
    }

    /// Mixes an `f64` by its exact bit pattern: distinct bit patterns
    /// (including `-0.0` vs `0.0`) digest differently, which is what a
    /// byte-determinism cache key needs.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Mixes a length-prefixed string into the digest.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The current digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The hasher of maps keyed by digests. A digest is already a
/// well-mixed 64-bit hash, so one splitmix64 finalizer per written word
/// spreads it over the buckets; SipHash's keyed rounds would buy nothing
/// but time. Written bytes are mixed one at a time, so any `Hash` key
/// works, but a key of one `u64` costs one finalizer.
///
/// The hasher is unkeyed, so keys crafted to share a bucket are
/// possible. The only digests outside input shapes are a daemon's
/// request digests, and each of those keys costs its client one
/// admitted and computed sweep, far more than the longer probe it
/// causes.
#[derive(Debug, Default, Clone, Copy)]
pub struct DigestHasher(u64);

impl Hasher for DigestHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = splitmix64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = splitmix64(self.0 ^ n);
    }
}

/// The [`BuildHasher`](std::hash::BuildHasher) of [`DigestHasher`].
pub type BuildDigestHasher = BuildHasherDefault<DigestHasher>;

/// A map keyed by digests, hashed by [`DigestHasher`].
pub type DigestMap<V> = HashMap<u64, V, BuildDigestHasher>;

/// A set of digests, hashed by [`DigestHasher`].
pub type DigestSet = HashSet<u64, BuildDigestHasher>;

/// Structural digest of everything [`adequation`] reads: the algorithm
/// graph (ops, kinds, conditions, edges), the architecture (processors,
/// media, transfer tariffs), the WCET table (defaults, overrides,
/// interdictions) and the mapping policy. Two inputs with equal digests
/// produce byte-identical schedules; scenario perturbations that leave
/// all four untouched (plant, period, disturbance) hash identically.
///
/// A sweep that digests many tables against one deployment builds the
/// [`ScheduleKey`] once and calls [`ScheduleKey::digest`] per scenario;
/// the value is the same.
pub fn schedule_digest(
    alg: &AlgorithmGraph,
    arch: &ArchitectureGraph,
    db: &TimingDb,
    options: AdequationOptions,
) -> u64 {
    ScheduleKey::new(alg, arch).digest(db, options)
}

/// The per-deployment half of [`schedule_digest`]: the algorithm graph
/// and the architecture, hashed once. [`digest`](ScheduleKey::digest)
/// resumes from that state with the per-scenario half (WCET table and
/// policy), so a sweep hashes its constant graphs once instead of once
/// per scenario, and every digest equals [`schedule_digest`] bit for bit.
///
/// The key holds its graphs (borrowed, or owned after
/// [`into_owned`](ScheduleKey::into_owned)) because a
/// [`ScheduleCache`] miss schedules them.
#[derive(Debug, Clone)]
pub struct ScheduleKey<'a> {
    alg: Cow<'a, AlgorithmGraph>,
    arch: Cow<'a, ArchitectureGraph>,
    graphs: Fnv1a,
}

impl<'a> ScheduleKey<'a> {
    /// Hashes the ops, edges, processors and media tariffs.
    pub fn new(alg: &'a AlgorithmGraph, arch: &'a ArchitectureGraph) -> Self {
        let mut h = Fnv1a::new();

        h.write_u64(alg.len() as u64);
        for op in alg.ops() {
            h.write_str(alg.name(op));
            h.write_u64(match alg.kind(op) {
                crate::OpKind::Sensor => 0,
                crate::OpKind::Function => 1,
                crate::OpKind::Actuator => 2,
            });
            match alg.condition(op) {
                None => h.write_u64(u64::MAX),
                Some(c) => {
                    h.write_u64(c.variable.index() as u64);
                    h.write_u64(c.branch as u64);
                }
            }
        }
        for e in alg.edges() {
            h.write_u64(e.src.index() as u64);
            h.write_u64(e.dst.index() as u64);
            h.write_u64(u64::from(e.data_units));
        }

        h.write_u64(arch.num_processors() as u64);
        for p in arch.processors() {
            h.write_str(arch.proc_name(p));
            h.write_str(arch.proc_kind(p));
        }
        // Tariff sample points: every distinct edge volume in the algorithm
        // graph, plus 0 and 1 so media still separate on an edgeless graph.
        // Sampling only {0, 1} (latency + first difference) is sound for an
        // affine tariff but aliases non-affine media — e.g. two framed buses
        // that agree on sub-frame transfers and diverge exactly at the
        // volumes the scheduler actually prices. The scheduler only ever
        // evaluates `transfer_time` at edge volumes, so media equal at every
        // sample point produce byte-identical schedules.
        let mut volumes: Vec<u32> = alg.edges().iter().map(|e| e.data_units).collect();
        volumes.push(0);
        volumes.push(1);
        volumes.sort_unstable();
        volumes.dedup();

        h.write_u64(arch.num_media() as u64);
        for m in arch.media() {
            h.write_str(arch.medium_name(m));
            h.write_u64(match arch.medium_kind(m) {
                MediumKind::Bus => 0,
                MediumKind::PointToPoint => 1,
            });
            for &p in arch.medium_procs(m) {
                h.write_u64(p.index() as u64);
            }
            for &u in &volumes {
                h.write_u64(u64::from(u));
                h.write_i64(arch.transfer_time(m, u).as_nanos());
            }
        }
        ScheduleKey {
            alg: Cow::Borrowed(alg),
            arch: Cow::Borrowed(arch),
            graphs: h,
        }
    }

    /// The same key holding its own copies of the graphs, for an owner
    /// that must outlive the borrow (a resident daemon's deployment).
    pub fn into_owned(self) -> ScheduleKey<'static> {
        ScheduleKey {
            alg: Cow::Owned(self.alg.into_owned()),
            arch: Cow::Owned(self.arch.into_owned()),
            graphs: self.graphs,
        }
    }

    /// [`schedule_digest`] of the key's graphs with `db` and `options`:
    /// [`table`](ScheduleKey::table) then [`TableKey::digest`].
    pub fn digest(&self, db: &TimingDb, options: AdequationOptions) -> u64 {
        self.table(db).digest(options)
    }

    /// The per-table stage of the digest: the WCET table sections
    /// hashed onto a copy of the graph state. A caller that prices one
    /// table under several policies hashes the table once and finishes
    /// each policy with [`TableKey::digest`].
    pub fn table(&self, db: &TimingDb) -> TableKey {
        let mut h = self.graphs.clone();
        // TimingDb iterates every section in key order, so the digest is
        // canonical without a sorted copy.
        for (op, t) in db.iter_defaults() {
            h.write_u64(op.index() as u64);
            h.write_i64(t.as_nanos());
        }
        h.write_u64(u64::MAX); // section separator
        for (op, p, t) in db.iter_specific() {
            h.write_u64(op.index() as u64);
            h.write_u64(p.index() as u64);
            h.write_i64(t.as_nanos());
        }
        h.write_u64(u64::MAX);
        for (op, p) in db.iter_forbidden() {
            h.write_u64(op.index() as u64);
            h.write_u64(p.index() as u64);
        }
        TableKey(h)
    }
}

/// The graphs and one WCET table, hashed: everything of
/// [`schedule_digest`] except the policy. [`digest`](TableKey::digest)
/// finishes it with a policy, so
/// `key.table(db).digest(options) == schedule_digest(alg, arch, db, options)`
/// bit for bit.
#[derive(Debug, Clone)]
pub struct TableKey(Fnv1a);

impl TableKey {
    /// [`schedule_digest`] of the key's graphs and table under `options`.
    pub fn digest(&self, options: AdequationOptions) -> u64 {
        let mut h = self.0.clone();
        match options.policy {
            MappingPolicy::SchedulePressure => h.write_u64(0),
            MappingPolicy::EarliestFinish => h.write_u64(1),
            MappingPolicy::Random { seed } => {
                h.write_u64(2);
                h.write_u64(seed);
            }
        }
        h.finish()
    }
}

/// One memoized value plus its bookkeeping.
#[derive(Debug)]
struct Memoized<V> {
    value: Arc<V>,
    /// Lookups of this digest.
    lookups: u64,
    /// Whether the value is already in the on-disk store: entries from
    /// the source start saved, computed ones wait for
    /// [`DigestMemo::mark_saved`].
    saved: bool,
}

/// The map plus the count of lookups that *observed* a local miss (and
/// so ran the computation). Beyond one per distinct digest, those are
/// racing double-computes whose results were discarded.
///
/// The running totals keep the order-invariant counters O(1): every
/// change to an entry's `lookups` goes through `Table::count`.
#[derive(Debug)]
struct Table<V> {
    map: DigestMap<Memoized<V>>,
    local_misses: u64,
    /// Lookups across all digests.
    lookups: u64,
    /// Resident digests looked up at least once.
    looked_up: u64,
    /// Resident digests whose value came from the source, not from a
    /// compute.
    stored: u64,
}

impl<V> Table<V> {
    /// Inserts `value` under `digest` unless the digest is resident.
    fn insert(&mut self, digest: u64, value: Arc<V>, saved: bool) {
        if let hash_map::Entry::Vacant(slot) = self.map.entry(digest) {
            slot.insert(Memoized {
                value,
                lookups: 0,
                saved,
            });
            self.stored += u64::from(saved);
        }
    }

    /// Adds `n` lookups to `digest`'s entry and to the running totals;
    /// `None` when the digest is not resident.
    fn count(&mut self, digest: u64, n: u64) -> Option<&Memoized<V>> {
        let entry = self.map.get_mut(&digest)?;
        if entry.lookups == 0 && n > 0 {
            self.looked_up += 1;
        }
        entry.lookups += n;
        self.lookups += n;
        Some(entry)
    }
}

/// A thread-safe, content-addressed memo table from `u64` digests to
/// shared values — the one memo discipline behind every cache of the
/// lifecycle: adequation schedules ([`ScheduleCache`] keyed by
/// [`schedule_digest`]), ideal and scheduled co-simulations and latency
/// reports (keyed by their own digest functions in `ecl-core` and the
/// fleet). A kind of cache is only its key function plus the compute
/// closure it hands to [`get_or_compute`](DigestMemo::get_or_compute).
///
/// The lock is held only around the map lookup/insert, never across the
/// computation, so a miss on one worker does not serialize the others.
/// Two workers may race to compute the same key: both produce the
/// identical deterministic value, and the second insert is a no-op.
///
/// **Source.** A memo may be given one [source](DigestMemo::set_source):
/// a function from a digest to a value an earlier process stored. A miss
/// asks it before computing, outside the lock like the computation. A
/// value it returns is resident from then on, starts saved, answers the
/// lookup as a hit and is no compute, so a restarted daemon loads each
/// stored entry when it is first needed instead of all of them at start.
///
/// [`hits`](DigestMemo::hits)/[`misses`](DigestMemo::misses) are
/// *derived from per-digest lookup counts* rather than incremented per
/// observation: `misses` is the number of distinct digests ever looked
/// up and `hits` is every lookup beyond the first of its digest. They
/// depend only on the multiset of digests looked up, so they are
/// identical for any worker count and claim order. Which lookup
/// *observed* a hit, [`races`](DigestMemo::races) and
/// [`computes`](DigestMemo::computes) depend on thread interleaving and
/// belong in wall-clock profiler sidecars only, never in deterministic
/// artifacts. The table keeps two running totals (lookups, and digests
/// looked up at least once) beside the per-digest counts, so reading a
/// counter costs O(1) however many entries are resident.
///
/// A caller that answers repeats of a digest from a value it already
/// holds (a sweep lane's class table) makes no lookup for them, and
/// adds them to the digest's count with [`count`](DigestMemo::count)
/// instead, so the counters stay those of direct lookups.
///
/// # Examples
///
/// ```
/// use ecl_aaa::DigestMemo;
/// let memo: DigestMemo<String> = DigestMemo::new();
/// let (a, hit) = memo.get_or_compute(7, || Ok::<_, ()>("seven".to_string())).unwrap();
/// assert!(!hit);
/// let (b, hit) = memo.get_or_compute(7, || Ok::<_, ()>("other".to_string())).unwrap();
/// assert!(hit && std::sync::Arc::ptr_eq(&a, &b));
/// assert_eq!((memo.hits(), memo.misses(), memo.computes()), (1, 1, 1));
/// ```
#[derive(Debug)]
pub struct DigestMemo<V> {
    table: Mutex<Table<V>>,
    source: OnceLock<Source<V>>,
}

/// A memo's [source](DigestMemo::set_source).
struct Source<V>(Box<dyn Fn(u64) -> Option<V> + Send + Sync>);

impl<V> std::fmt::Debug for Source<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Source")
    }
}

impl<V> Default for DigestMemo<V> {
    fn default() -> Self {
        DigestMemo {
            table: Mutex::new(Table {
                map: DigestMap::default(),
                local_misses: 0,
                lookups: 0,
                looked_up: 0,
                stored: 0,
            }),
            source: OnceLock::new(),
        }
    }
}

impl<V> DigestMemo<V> {
    /// An empty memo table.
    pub fn new() -> Self {
        DigestMemo::default()
    }

    fn lock(&self) -> MutexGuard<'_, Table<V>> {
        self.table.lock().expect("digest memo lock")
    }

    /// Backs the memo with `source`: from now on a lookup of a digest
    /// that is not resident asks `source` first and runs its `compute`
    /// only when `source` has no value. See the type docs.
    ///
    /// # Panics
    ///
    /// When the memo already has a source.
    pub fn set_source(&self, source: impl Fn(u64) -> Option<V> + Send + Sync + 'static) {
        let installed = self.source.set(Source(Box::new(source))).is_ok();
        assert!(installed, "a digest memo has at most one source");
    }

    /// The value under `key`. When the key is not resident, the
    /// [source](DigestMemo::set_source) is asked and then, if it has no
    /// value, `compute` runs; both run outside the lock. Also returns
    /// whether *this* lookup was answered without computing — the
    /// caller's local observation: two workers racing on one digest
    /// both observe a miss, so the flag may only feed wall-clock
    /// sidecars.
    ///
    /// # Errors
    ///
    /// Propagates `compute` errors; failures are not cached.
    pub fn get_or_compute<E>(
        &self,
        key: u64,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(Arc<V>, bool), E> {
        if let Some(entry) = self.lock().count(key, 1) {
            return Ok((Arc::clone(&entry.value), true));
        }
        let stored = self.source.get().and_then(|source| (source.0)(key));
        let sourced = stored.is_some();
        let value = Arc::new(match stored {
            Some(value) => value,
            None => compute()?,
        });
        let mut table = self.lock();
        table.local_misses += u64::from(!sourced);
        table.insert(key, value, sourced);
        let entry = table.count(key, 1).expect("the digest was just inserted");
        Ok((Arc::clone(&entry.value), sourced))
    }

    /// Lookups beyond the first of their digest — every lookup a serial
    /// run would have answered from the table. Order-invariant, and
    /// O(1): the table keeps the totals it derives from.
    pub fn hits(&self) -> u64 {
        let table = self.lock();
        table.lookups - table.looked_up
    }

    /// Distinct digests resident in the table — the computations a
    /// serial run would have performed (a key answered by the source
    /// counts as if a prior process had paid for it).
    /// Order-invariant.
    pub fn misses(&self) -> u64 {
        self.len() as u64
    }

    /// Total lookups across all digests (`hits + misses` once every
    /// resident key has been looked up).
    pub fn lookups(&self) -> u64 {
        self.lock().lookups
    }

    /// Adds `n` lookups of `digest` that the caller answered from a
    /// value an earlier lookup returned, so the counters equal those of
    /// `n` more direct lookups.
    ///
    /// # Panics
    ///
    /// When `digest` is not resident.
    pub fn count(&self, digest: u64, n: u64) {
        let counted = self.lock().count(digest, n).is_some();
        assert!(counted, "a counted digest is resident");
    }

    /// [`hits`](DigestMemo::hits) and [`lookups`](DigestMemo::lookups)
    /// derived by scanning every entry: the reference the running
    /// totals are tested against.
    #[cfg(test)]
    fn scanned(&self) -> (u64, u64) {
        let table = self.lock();
        let entries = table.map.values();
        let hits = entries.clone().map(|e| e.lookups.saturating_sub(1)).sum();
        (hits, entries.map(|e| e.lookups).sum())
    }

    /// Racing double-computes: lookups that observed a local miss beyond
    /// the first of their digest. The losers' values were discarded —
    /// pure wasted work. Interleaving-dependent: sidecar-only.
    pub fn races(&self) -> u64 {
        let table = self.lock();
        let computed = table.map.len() as u64 - table.stored;
        table.local_misses.saturating_sub(computed)
    }

    /// Lookups that actually ran the computation in *this* process —
    /// unlike [`misses`](DigestMemo::misses) it excludes keys answered
    /// by the source, so a restarted daemon can assert it recomputed
    /// nothing. Includes racing double-computes, so it is sidecar-only
    /// (its zero/non-zero distinction is deterministic for serial
    /// executors).
    pub fn computes(&self) -> u64 {
        self.lock().local_misses
    }

    /// Every resident `(digest, value)` pair, sorted by digest.
    pub fn snapshot(&self) -> Vec<(u64, Arc<V>)> {
        self.collect(|_| true)
    }

    /// The resident pairs not yet [`mark_saved`](DigestMemo::mark_saved),
    /// sorted by digest — what the on-disk layer still has to write.
    pub fn unsaved(&self) -> Vec<(u64, Arc<V>)> {
        self.collect(|entry| !entry.saved)
    }

    fn collect(&self, keep: impl Fn(&Memoized<V>) -> bool) -> Vec<(u64, Arc<V>)> {
        let mut out: Vec<_> = self
            .lock()
            .map
            .iter()
            .filter(|(_, entry)| keep(entry))
            .map(|(&digest, entry)| (digest, Arc::clone(&entry.value)))
            .collect();
        out.sort_by_key(|&(digest, _)| digest);
        out
    }

    /// Records that the on-disk store is done with `digest`'s value (it
    /// holds it, or will never take it), so later
    /// [`unsaved`](DigestMemo::unsaved) calls skip it.
    pub fn mark_saved(&self, digest: u64) {
        if let Some(entry) = self.lock().map.get_mut(&digest) {
            entry.saved = true;
        }
    }

    /// Number of distinct digests resident.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// `true` when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The adequation memo: a [`DigestMemo`] of schedules keyed by
/// [`schedule_digest`]. [`adequation`] is deterministic, so a hit returns
/// a schedule byte-identical to a fresh run. The memo's counters,
/// source and snapshots are reached through `Deref`.
///
/// # Examples
///
/// ```
/// use ecl_aaa::{
///     AdequationOptions, AlgorithmGraph, ArchitectureGraph, ScheduleCache, ScheduleKey, TimeNs,
///     TimingDb,
/// };
/// # fn main() -> Result<(), ecl_aaa::AaaError> {
/// let mut alg = AlgorithmGraph::new();
/// let s = alg.add_sensor("s");
/// let mut arch = ArchitectureGraph::new();
/// arch.add_processor("ecu", "arm");
/// let mut db = TimingDb::new();
/// db.set_default(s, TimeNs::from_micros(10));
/// let cache = ScheduleCache::new();
/// let key = ScheduleKey::new(&alg, &arch);
/// let (a, digest) = cache.get_or_compute(&key, &db, AdequationOptions::default())?;
/// let (b, _) = cache.get_or_compute(&key, &db, AdequationOptions::default())?;
/// assert_eq!(cache.hits(), 1);
/// assert_eq!(a.ops(), b.ops());
/// assert_eq!(digest, ecl_aaa::schedule_digest(&alg, &arch, &db, AdequationOptions::default()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct ScheduleCache(DigestMemo<Schedule>);

impl Deref for ScheduleCache {
    type Target = DigestMemo<Schedule>;

    fn deref(&self) -> &DigestMemo<Schedule> {
        &self.0
    }
}

impl ScheduleCache {
    /// An empty cache.
    pub fn new() -> Self {
        ScheduleCache::default()
    }

    /// The schedule for the key's graphs under `db` and `options`,
    /// running [`adequation`] only on a cache miss, with its
    /// [`schedule_digest`] key.
    ///
    /// # Errors
    ///
    /// Propagates [`adequation`] errors; failures are not cached.
    pub fn get_or_compute(
        &self,
        key: &ScheduleKey<'_>,
        db: &TimingDb,
        options: AdequationOptions,
    ) -> Result<(Arc<Schedule>, u64), AaaError> {
        let digest = key.digest(db, options);
        let (schedule, _) = self
            .0
            .get_or_compute(digest, || adequation(&key.alg, &key.arch, db, options))?;
        Ok((schedule, digest))
    }

    /// Like [`get_or_compute`](ScheduleCache::get_or_compute), by a
    /// table the caller already hashed: `table` must be `key.table(db)`
    /// of the table `db` builds. `db` runs only on a miss, so a lookup
    /// the memo answers builds no table.
    ///
    /// # Errors
    ///
    /// Propagates [`adequation`] errors; failures are not cached.
    pub fn get_or_compute_in(
        &self,
        key: &ScheduleKey<'_>,
        table: &TableKey,
        options: AdequationOptions,
        db: impl FnOnce() -> TimingDb,
    ) -> Result<(Arc<Schedule>, u64), AaaError> {
        let digest = table.digest(options);
        let (schedule, _) = self
            .0
            .get_or_compute(digest, || adequation(&key.alg, &key.arch, &db(), options))?;
        Ok((schedule, digest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MappingPolicy, TimeNs};

    fn setup() -> (AlgorithmGraph, ArchitectureGraph, TimingDb) {
        let mut alg = AlgorithmGraph::new();
        let s = alg.add_sensor("s");
        let f = alg.add_function("f");
        let a = alg.add_actuator("a");
        alg.add_edge(s, f, 1).unwrap();
        alg.add_edge(f, a, 1).unwrap();
        let mut arch = ArchitectureGraph::new();
        let p0 = arch.add_processor("p0", "arm");
        let p1 = arch.add_processor("p1", "arm");
        arch.add_bus(
            "bus",
            &[p0, p1],
            TimeNs::from_micros(5),
            TimeNs::from_micros(1),
        )
        .unwrap();
        let mut db = TimingDb::new();
        for op in alg.ops() {
            db.set_default(op, TimeNs::from_micros(100));
        }
        (alg, arch, db)
    }

    /// [`schedule_digest`] of the inputs, asserted equal to the digest
    /// through `key`: a [`ScheduleKey`] of graphs equal to `alg` and
    /// `arch`, built once and reused across tables and policies.
    fn checked(
        key: &ScheduleKey<'_>,
        alg: &AlgorithmGraph,
        arch: &ArchitectureGraph,
        db: &TimingDb,
        opts: AdequationOptions,
    ) -> u64 {
        let d = schedule_digest(alg, arch, db, opts);
        assert_eq!(
            key.digest(db, opts),
            d,
            "a reused key must match a fresh one"
        );
        d
    }

    #[test]
    fn digest_is_stable_and_input_sensitive() {
        let (alg, arch, db) = setup();
        let key = ScheduleKey::new(&alg, &arch);
        let opts = AdequationOptions::default();
        let d1 = checked(&key, &alg, &arch, &db, opts);
        let d2 = checked(&key, &alg, &arch, &db, opts);
        assert_eq!(d1, d2);
        // An owned key keeps the graph state.
        assert_eq!(key.clone().into_owned().digest(&db, opts), d1);

        // A WCET change must change the digest.
        let mut db2 = db.clone();
        db2.set_default(crate::OpId(1), TimeNs::from_micros(101));
        assert_ne!(d1, checked(&key, &alg, &arch, &db2, opts));

        // A policy change must change the digest.
        let rnd = AdequationOptions {
            policy: MappingPolicy::Random { seed: 1 },
        };
        assert_ne!(d1, checked(&key, &alg, &arch, &db, rnd));
        let rnd2 = AdequationOptions {
            policy: MappingPolicy::Random { seed: 2 },
        };
        assert_ne!(
            checked(&key, &alg, &arch, &db, rnd),
            checked(&key, &alg, &arch, &db, rnd2)
        );

        // An architecture change must change the digest.
        let mut arch2 = ArchitectureGraph::new();
        let p0 = arch2.add_processor("p0", "arm");
        let p1 = arch2.add_processor("p1", "arm");
        arch2
            .add_bus(
                "bus",
                &[p0, p1],
                TimeNs::from_micros(6),
                TimeNs::from_micros(1),
            )
            .unwrap();
        let key2 = ScheduleKey::new(&alg, &arch2);
        assert_ne!(d1, checked(&key2, &alg, &arch2, &db, opts));
    }

    /// Exhaustive digest sensitivity: flipping any single input the
    /// scheduler reads — every `AdequationOptions` field, every WCET-table
    /// entry (defaults, overrides, interdictions), every architecture
    /// tariff and every algorithm attribute — must change the digest.
    /// All mutated digests are also checked pairwise distinct, so no two
    /// flips alias each other.
    #[test]
    fn digest_flips_on_every_input_field() {
        // Baseline with every digest section populated: per-op defaults,
        // one specific override, one interdiction.
        let build = || {
            let (alg, arch, mut db) = setup();
            let ops: Vec<_> = alg.ops().collect();
            let procs: Vec<_> = arch.processors().collect();
            db.set(ops[1], procs[1], TimeNs::from_micros(90));
            db.forbid(ops[0], procs[1]);
            (alg, arch, db)
        };
        let (alg, arch, db) = build();
        let ops: Vec<_> = alg.ops().collect();
        let procs: Vec<_> = arch.processors().collect();
        let opts = AdequationOptions::default();
        // One key for every fixture whose graphs equal the baseline's.
        let key = ScheduleKey::new(&alg, &arch);
        let mut digests = vec![("baseline", checked(&key, &alg, &arch, &db, opts))];
        let mut check = |label: &'static str, d: u64| {
            for (prev, pd) in &digests {
                assert_ne!(*pd, d, "digest of '{label}' collides with '{prev}'");
            }
            digests.push((label, d));
        };

        // Every AdequationOptions field: the policy discriminant and, for
        // Random, its seed.
        for (label, policy) in [
            ("policy EarliestFinish", MappingPolicy::EarliestFinish),
            ("policy Random{0}", MappingPolicy::Random { seed: 0 }),
            ("policy Random{1}", MappingPolicy::Random { seed: 1 }),
        ] {
            check(
                label,
                checked(&key, &alg, &arch, &db, AdequationOptions { policy }),
            );
        }

        // Every default WCET entry, bumped by 1 ns, one op at a time.
        let default_labels = ["default wcet s", "default wcet f", "default wcet a"];
        for (i, &op) in ops.iter().enumerate() {
            let (alg2, arch2, mut db2) = build();
            db2.set_default(op, TimeNs::from_nanos(100_001));
            check(default_labels[i], checked(&key, &alg2, &arch2, &db2, opts));
        }
        // The specific override: value bump, and a brand-new entry.
        {
            let (alg2, arch2, mut db2) = build();
            db2.set(ops[1], procs[1], TimeNs::from_nanos(90_001));
            check(
                "specific wcet value",
                checked(&key, &alg2, &arch2, &db2, opts),
            );
        }
        {
            let (alg2, arch2, mut db2) = build();
            db2.set(ops[2], procs[0], TimeNs::from_micros(90));
            check(
                "specific wcet new entry",
                checked(&key, &alg2, &arch2, &db2, opts),
            );
        }
        // The interdiction set.
        {
            let (alg2, arch2, mut db2) = build();
            db2.forbid(ops[2], procs[1]);
            check("forbidden pair", checked(&key, &alg2, &arch2, &db2, opts));
        }

        // Architecture attributes: processor name/kind, medium tariffs
        // and medium kind.
        let arch_variant = |name: &str, kind: &str, lat: TimeNs, per: TimeNs, link: bool| {
            let mut a = ArchitectureGraph::new();
            let p0 = a.add_processor(name, kind);
            let p1 = a.add_processor("p1", "arm");
            if link {
                a.add_link("bus", p0, p1, lat, per).unwrap();
            } else {
                a.add_bus("bus", &[p0, p1], lat, per).unwrap();
            }
            a
        };
        let us = TimeNs::from_micros;
        for (label, a2) in [
            ("proc name", arch_variant("p0x", "arm", us(5), us(1), false)),
            (
                "proc kind",
                arch_variant("p0", "sparc", us(5), us(1), false),
            ),
            (
                "medium latency",
                arch_variant("p0", "arm", TimeNs::from_nanos(5_001), us(1), false),
            ),
            (
                "medium per-unit",
                arch_variant("p0", "arm", us(5), TimeNs::from_nanos(1_001), false),
            ),
            ("medium kind", arch_variant("p0", "arm", us(5), us(1), true)),
        ] {
            check(
                label,
                checked(&ScheduleKey::new(&alg, &a2), &alg, &a2, &db, opts),
            );
        }

        // Algorithm attributes: op name, edge data volume, conditioning.
        {
            let (mut alg2, arch2, db2) = (AlgorithmGraph::new(), arch.clone(), db.clone());
            let s = alg2.add_sensor("s2");
            let f = alg2.add_function("f");
            let a = alg2.add_actuator("a");
            alg2.add_edge(s, f, 1).unwrap();
            alg2.add_edge(f, a, 1).unwrap();
            let key2 = ScheduleKey::new(&alg2, &arch2);
            check("op name", checked(&key2, &alg2, &arch2, &db2, opts));
        }
        {
            let (mut alg2, arch2, db2) = (AlgorithmGraph::new(), arch.clone(), db.clone());
            let s = alg2.add_sensor("s");
            let f = alg2.add_function("f");
            let a = alg2.add_actuator("a");
            alg2.add_edge(s, f, 2).unwrap();
            alg2.add_edge(f, a, 1).unwrap();
            let key2 = ScheduleKey::new(&alg2, &arch2);
            check("edge data units", checked(&key2, &alg2, &arch2, &db2, opts));
        }
        {
            let (mut alg2, arch2, db2) = build();
            let ops2: Vec<_> = alg2.ops().collect();
            // `s` is already a data predecessor of `f`, so conditioning
            // adds no edge — the digest change is the condition alone.
            alg2.set_condition(ops2[1], ops2[0], 1).unwrap();
            let key2 = ScheduleKey::new(&alg2, &arch2);
            check("condition", checked(&key2, &alg2, &arch2, &db2, opts));
        }
    }

    /// Regression for the `{0, 1}`-sampling tariff digest: two media
    /// that agree on transfers of 0 and 1 data units but diverge at the
    /// volumes actually present in the algorithm graph must digest
    /// differently — with first-difference sampling they aliased, so a
    /// sweep could serve a schedule priced on the wrong tariff.
    #[test]
    fn digest_separates_media_that_agree_at_zero_and_one_unit() {
        // An edge actually transferring 3 units: the volume at which the
        // two tariffs below diverge.
        let mut alg = AlgorithmGraph::new();
        let s = alg.add_sensor("s");
        let a = alg.add_actuator("a");
        alg.add_edge(s, a, 3).unwrap();
        let mut db = TimingDb::new();
        for op in alg.ops() {
            db.set_default(op, TimeNs::from_micros(100));
        }

        let affine = |payload: Option<u32>| {
            let mut arch = ArchitectureGraph::new();
            let p0 = arch.add_processor("p0", "arm");
            let p1 = arch.add_processor("p1", "arm");
            match payload {
                None => arch
                    .add_bus(
                        "bus",
                        &[p0, p1],
                        TimeNs::from_micros(5),
                        TimeNs::from_micros(1),
                    )
                    .unwrap(),
                Some(p) => arch
                    .add_framed_bus(
                        "bus",
                        &[p0, p1],
                        TimeNs::from_micros(5),
                        TimeNs::from_micros(1),
                        p,
                    )
                    .unwrap(),
            };
            arch
        };
        let plain = affine(None);
        let framed = affine(Some(1));
        // The tariffs agree at 0 and 1 units (one frame) ...
        let m = crate::MediumId(0);
        assert_eq!(plain.transfer_time(m, 0), framed.transfer_time(m, 0));
        assert_eq!(plain.transfer_time(m, 1), framed.transfer_time(m, 1));
        // ... and diverge at the 3-unit volume the edge transfers.
        assert_ne!(plain.transfer_time(m, 3), framed.transfer_time(m, 3));
        let opts = AdequationOptions::default();
        let digest = |arch: &ArchitectureGraph| {
            checked(&ScheduleKey::new(&alg, arch), &alg, arch, &db, opts)
        };
        assert_ne!(digest(&plain), digest(&framed));

        // Media equal at every volume the scheduler can price (the
        // payload covers the largest edge) still hash identically:
        // they are indistinguishable to the scheduler by construction.
        let covered = affine(Some(u32::MAX));
        assert_eq!(digest(&plain), digest(&covered));
    }

    #[test]
    fn cache_hits_return_identical_schedule() {
        let (alg, arch, db) = setup();
        let cache = ScheduleCache::new();
        assert!(cache.is_empty());
        let opts = AdequationOptions::default();
        let key = ScheduleKey::new(&alg, &arch);
        let (a, digest) = cache.get_or_compute(&key, &db, opts).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        assert_eq!(digest, schedule_digest(&alg, &arch, &db, opts));
        let (b, _) = cache.get_or_compute(&key, &db, opts).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!(Arc::ptr_eq(&a, &b));
        // The cached schedule equals a fresh run.
        let fresh = adequation(&alg, &arch, &db, opts).unwrap();
        assert_eq!(a.ops(), fresh.ops());
        assert_eq!(a.comms(), fresh.comms());
        assert_eq!(cache.len(), 1);

        // A different WCET table is a distinct entry.
        let mut db2 = db.clone();
        db2.set_default(crate::OpId(0), TimeNs::from_micros(50));
        cache.get_or_compute(&key, &db2, opts).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.misses(), 2);
    }

    /// Replays `keys` against a fresh memo on `threads` workers (worker
    /// `w` takes every `threads`-th key starting at `w`), computing each
    /// value as the key itself.
    fn replay(keys: &[u64], threads: usize) -> DigestMemo<u64> {
        let memo = DigestMemo::new();
        std::thread::scope(|scope| {
            for w in 0..threads {
                let memo = &memo;
                scope.spawn(move || {
                    for &k in keys.iter().skip(w).step_by(threads) {
                        let (v, _) = memo.get_or_compute(k, || Ok::<_, ()>(k)).unwrap();
                        assert_eq!(*v, k);
                    }
                });
            }
        });
        memo
    }

    fn counters(memo: &DigestMemo<u64>) -> (u64, u64, u64) {
        (memo.hits(), memo.misses(), memo.lookups())
    }

    #[test]
    fn races_are_zero_serially() {
        let memo = replay(&[1, 1, 2, 1, 2, 3], 1);
        // Serial lookups can never double-compute.
        assert_eq!(memo.races(), 0);
        assert_eq!(memo.computes(), memo.misses());
        assert_eq!(counters(&memo), (3, 3, 6));
    }

    #[test]
    fn counters_are_exact_under_four_threads() {
        // Digest-derived counters are exact even under racing lookups:
        // 32 lookups of one digest are 1 miss + 31 hits, regardless of
        // which thread computed the value or how many raced on the
        // initial miss.
        let memo = replay(&[5; 32], 4);
        assert_eq!(counters(&memo), (31, 1, 32));
        assert_eq!(memo.len(), 1);
        // Races are bounded by the losing local misses: at most one per
        // thread beyond the winner.
        assert!(memo.races() <= 3);
    }

    /// The counters depend only on the multiset of digests looked up,
    /// not on lookup order.
    #[test]
    fn counters_are_order_invariant() {
        let forward = counters(&replay(&[1, 1, 2, 1, 2], 1));
        let reverse = counters(&replay(&[2, 1, 2, 1, 1], 1));
        assert_eq!(forward, (3, 2, 5));
        assert_eq!(forward, reverse);
    }

    /// A source answers each digest's first lookup without a compute:
    /// the value is resident from then on, starts saved and reports as a
    /// hit. A digest the source lacks is computed as before.
    #[test]
    fn a_source_answers_misses_before_compute() {
        let asked = Arc::new(Mutex::new(Vec::new()));
        let memo: DigestMemo<u64> = DigestMemo::new();
        let log = Arc::clone(&asked);
        memo.set_source(move |digest| {
            log.lock().unwrap().push(digest);
            (digest % 2 == 0).then_some(digest * 10)
        });
        let looked_up: Vec<(u64, bool)> = [4, 4, 5, 5]
            .into_iter()
            .map(|key| {
                let (v, hit) = memo.get_or_compute(key, || Ok::<_, ()>(key + 1)).unwrap();
                (*v, hit)
            })
            .collect();
        assert_eq!(looked_up, [(40, true), (40, true), (6, false), (6, true)]);
        let (v, hit) = memo
            .get_or_compute(8, || Err::<u64, _>("must not compute"))
            .unwrap();
        assert_eq!((*v, hit), (80, true));
        assert_eq!(*asked.lock().unwrap(), [4, 5, 8], "asked once per digest");
        assert_eq!((memo.hits(), memo.misses(), memo.computes()), (2, 3, 1));
        assert_eq!(memo.races(), 0);
        let unsaved: Vec<u64> = memo.unsaved().into_iter().map(|(d, _)| d).collect();
        assert_eq!(unsaved, [5], "sourced entries start saved");
    }

    #[test]
    #[should_panic(expected = "at most one source")]
    fn a_memo_takes_one_source() {
        let memo: DigestMemo<u64> = DigestMemo::new();
        memo.set_source(|_| None);
        memo.set_source(|_| None);
    }

    /// A digest key costs one finalizer: hashing a `u64` through
    /// [`DigestHasher`] is `splitmix64` of it.
    #[test]
    fn a_digest_key_hashes_to_one_finalizer() {
        use std::hash::BuildHasher;
        for digest in [0, 1, 0x9e37_79b9_7f4a_7c15, u64::MAX] {
            assert_eq!(
                BuildDigestHasher::default().hash_one(digest),
                splitmix64(digest)
            );
        }
    }

    #[test]
    fn traced_hit_flag_is_the_local_observation() {
        let memo: DigestMemo<u64> = DigestMemo::new();
        let (a, hit1) = memo.get_or_compute(3, || Ok::<_, ()>(30)).unwrap();
        let (b, hit2) = memo.get_or_compute(3, || Ok::<_, ()>(31)).unwrap();
        assert!(!hit1);
        assert!(hit2);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
    }

    #[test]
    fn failures_are_not_cached() {
        let memo: DigestMemo<u64> = DigestMemo::new();
        assert_eq!(memo.get_or_compute(4, || Err("boom")), Err("boom"));
        assert!(memo.is_empty());
        assert_eq!(memo.computes(), 0);
        let (v, hit) = memo.get_or_compute(4, || Ok::<_, &str>(40)).unwrap();
        assert_eq!((*v, hit), (40, false));
    }

    /// Lookups a caller answered from a value it already holds and
    /// counted reach the counters exactly as direct lookups would.
    #[test]
    fn counted_lookups_equal_direct_lookups() {
        let memo: DigestMemo<u64> = DigestMemo::new();
        memo.get_or_compute(3, || Ok::<_, ()>(30)).unwrap();
        memo.get_or_compute(4, || Ok::<_, ()>(40)).unwrap();
        memo.count(3, 6);
        memo.count(4, 0);
        assert_eq!(
            counters(&memo),
            counters(&replay(&[3, 3, 3, 3, 3, 3, 3, 4], 1))
        );
        assert_eq!(memo.computes(), 2);
    }

    #[test]
    #[should_panic(expected = "a counted digest is resident")]
    fn counting_a_non_resident_digest_panics() {
        DigestMemo::<u64>::new().count(3, 1);
    }

    /// Computed entries stay unsaved until marked; an entry whose save
    /// failed (never marked) is offered again.
    #[test]
    fn unsaved_lists_computed_entries_until_marked() {
        let memo = replay(&[3, 1, 2, 1], 1);
        memo.set_source(|digest| (digest == 0).then_some(0));
        memo.get_or_compute(0, || Err("stored")).unwrap();
        let digests = |v: Vec<(u64, Arc<u64>)>| v.into_iter().map(|(d, _)| d).collect::<Vec<_>>();
        assert_eq!(digests(memo.snapshot()), vec![0, 1, 2, 3]);
        assert_eq!(digests(memo.unsaved()), vec![1, 2, 3]);
        memo.mark_saved(1);
        memo.mark_saved(3);
        assert_eq!(digests(memo.unsaved()), vec![2]);
        memo.get_or_compute(4, || Ok::<_, ()>(4)).unwrap();
        assert_eq!(digests(memo.unsaved()), vec![2, 4]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(32))]

        /// A random key multiset replayed in a random order on one and
        /// on four threads yields identical hits/misses/lookups, and a
        /// serial replay computes exactly once per distinct key.
        #[test]
        fn counters_are_worker_count_and_order_invariant(
            keys in proptest::collection::vec(0u64..12, 1..80),
            shuffle_seed in 0u64..u64::MAX,
        ) {
            let mut shuffled = keys.clone();
            let mut state = shuffle_seed;
            for i in (1..shuffled.len()).rev() {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                shuffled.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
            }
            let serial = replay(&keys, 1);
            let parallel = replay(&shuffled, 4);
            proptest::prop_assert_eq!(counters(&serial), counters(&parallel));
            proptest::prop_assert_eq!(serial.lookups(), keys.len() as u64);
            proptest::prop_assert_eq!(serial.computes(), serial.misses());
            proptest::prop_assert_eq!(serial.races(), 0);
        }

        /// The O(1) running totals equal the counters a scan of every
        /// entry derives, after every step of any interleaving of direct
        /// lookups, lookups the source answers and counted lookups.
        #[test]
        fn running_totals_equal_scanned_counters(
            ops in proptest::collection::vec((0u64..3, 0u64..10), 1..120),
        ) {
            let memo: DigestMemo<u64> = DigestMemo::new();
            memo.set_source(|key| (key >= 10).then_some(key));
            for (op, key) in ops {
                match op {
                    0 => {
                        memo.get_or_compute(key, || Ok::<_, ()>(key)).unwrap();
                    }
                    1 => {
                        memo.get_or_compute(key + 10, || Err(())).unwrap();
                    }
                    _ => {
                        memo.get_or_compute(key, || Ok::<_, ()>(key)).unwrap();
                        memo.count(key, key % 3);
                    }
                }
                proptest::prop_assert_eq!((memo.hits(), memo.lookups()), memo.scanned());
            }
        }

        /// For random WCET tables (defaults, processor overrides and
        /// interdictions) the table stage of one reused key, finished
        /// with every policy, equals [`schedule_digest`] of a fresh key,
        /// and the policies stay apart.
        #[test]
        fn table_stage_digest_equals_schedule_digest(
            defaults in proptest::collection::vec(1i64..1_000_000, 3),
            specific in proptest::collection::vec((0usize..3, 0usize..2, 1i64..1_000_000), 0..6),
            forbidden in proptest::collection::vec((0usize..3, 0usize..2), 0..3),
            seed in 0u64..u64::MAX,
        ) {
            let (alg, arch, _) = setup();
            let ops: Vec<_> = alg.ops().collect();
            let procs: Vec<_> = arch.processors().collect();
            let mut db = TimingDb::new();
            for (&op, &t) in ops.iter().zip(&defaults) {
                db.set_default(op, TimeNs::from_nanos(t));
            }
            for &(op, p, t) in &specific {
                db.set(ops[op], procs[p], TimeNs::from_nanos(t));
            }
            for &(op, p) in &forbidden {
                db.forbid(ops[op], procs[p]);
            }
            let key = ScheduleKey::new(&alg, &arch);
            let table = key.table(&db);
            let policies = [
                MappingPolicy::SchedulePressure,
                MappingPolicy::EarliestFinish,
                MappingPolicy::Random { seed },
                MappingPolicy::Random { seed: seed ^ 1 },
            ];
            let mut digests = Vec::new();
            for policy in policies {
                let opts = AdequationOptions { policy };
                let d = table.digest(opts);
                proptest::prop_assert_eq!(d, schedule_digest(&alg, &arch, &db, opts));
                proptest::prop_assert_eq!(d, key.digest(&db, opts));
                digests.push(d);
            }
            digests.sort_unstable();
            digests.dedup();
            proptest::prop_assert_eq!(digests.len(), policies.len());
        }
    }
}
