//! # marchgen-cache
//!
//! A content-addressed outcome cache for the `marchgen` generation
//! engine, dependency-free and shareable across threads and processes.
//!
//! Identical generation problems are served from memory (sharded LRU),
//! then disk (one JSON file per key, written atomically), and only then
//! recomputed — with *single-flight* coalescing so concurrent identical
//! requests fund exactly one pipeline run. Keys are 128-bit FNV-1a
//! hashes of the canonical request encoding (see [`key`]): fault-list
//! permutations, duplicated models and spelled-out default fields all
//! collapse onto one entry, while every semantic knob change gets its
//! own.
//!
//! FNV-1a is **non-cryptographic**, so the key alone is never trusted:
//! every entry (memory and disk) stores the canonical key text it was
//! computed for, and a hit compares that text against the request being
//! served. A mismatch — an accidental or crafted collision, or a
//! corrupted entry — counts as a miss (tracked in
//! [`CacheStatsSnapshot::key_mismatches`]) and the right outcome is
//! recomputed; a colliding entry can therefore never be served as the
//! *wrong* outcome.
//!
//! A memory entry ([`CachedOutcome`]) holds the outcome as its *hit
//! document*: the schema-v1 JSON a hit answers with, stamped
//! `cache_hit: true` and rendered once, when the outcome is inserted or
//! promoted from disk. [`OutcomeCache::serve`] hands that entry to a
//! caller that sends the document as it is, so such a hit clones and
//! renders nothing. The struct calls ([`OutcomeCache::lookup`],
//! [`OutcomeCache::peek`], [`OutcomeCache::get_or_compute`]) decode the
//! document on their first hit of an entry and keep the decoded outcome
//! in it, so a repeated hit costs one clone.
//!
//! ```
//! use marchgen_cache::{request_key, OutcomeCache};
//! use marchgen_generator::{generate, GenerateRequest};
//!
//! let cache = OutcomeCache::new(1024);
//! let request = GenerateRequest::from_fault_list("SAF, TF").unwrap();
//! let first = cache.get_or_compute(&request, generate).unwrap();
//! let again = cache.get_or_compute(&request, generate).unwrap();
//! assert!(!first.diagnostics.cache_hit);
//! assert!(again.diagnostics.cache_hit);
//! assert_eq!(first.test, again.test);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod disk;
pub mod key;
pub mod lru;

pub use disk::{DiskStatsSnapshot, DiskStore, StoredEntry};
pub use key::{
    canonical_key_text, key_for_text, previous_schema_key, request_key, CacheKey, KEY_SCHEMA,
};
pub use lru::ShardedLru;

use marchgen_generator::{GenerateOutcome, GenerateRequest};
use marchgen_json::{FromJson, ToJson};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Monotonic counters describing cache behaviour since construction.
/// All counters are cumulative; rates belong to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStatsSnapshot {
    /// Lookups answered from the in-memory LRU.
    pub memory_hits: u64,
    /// Lookups answered from the persistent store (and promoted to
    /// memory).
    pub disk_hits: u64,
    /// Lookups that found nothing in memory or on disk.
    pub misses: u64,
    /// Outcomes inserted (computed fresh and stored).
    pub inserts: u64,
    /// LRU entries displaced to make room.
    pub evictions: u64,
    /// Requests that coalesced onto another thread's in-flight
    /// computation instead of starting their own.
    pub coalesced: u64,
    /// Entries found under the right key but carrying the *wrong*
    /// canonical request text — an FNV collision or corruption. Each
    /// one was served as a miss instead of a wrong outcome.
    pub key_mismatches: u64,
    /// Misses whose request has a persisted entry under the *previous*
    /// key schema ([`key::KEY_SCHEMA`] history): recomputes forced by a
    /// schema bump rather than a cold cache. Pre-refactor disk entries
    /// surface here instead of looking like ordinary misses.
    pub key_schema_stale: u64,
    /// Health of the attached persistent store (degraded flag,
    /// quarantine and write-failure counters); `None` for memory-only
    /// caches.
    pub disk: Option<DiskStatsSnapshot>,
}

impl CacheStatsSnapshot {
    /// All hits, memory and disk.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.memory_hits + self.disk_hits
    }
}

#[derive(Default)]
struct CacheStats {
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    coalesced: AtomicU64,
    key_mismatches: AtomicU64,
    key_schema_stale: AtomicU64,
}

/// One memory-tier entry: the canonical key text a hit verifies, the
/// outcome's `verified` flag and its hit document. An entry holds no
/// outcome until a struct call decodes the document.
#[derive(Debug)]
pub struct CachedOutcome {
    canonical: String,
    verified: bool,
    document: String,
    decoded: OnceLock<GenerateOutcome>,
}

impl CachedOutcome {
    /// Renders `outcome`'s hit document. The outcome itself is dropped.
    fn new(canonical: String, mut outcome: GenerateOutcome) -> CachedOutcome {
        outcome.diagnostics.cache_hit = true;
        CachedOutcome {
            canonical,
            verified: outcome.verified,
            document: outcome.to_json().render(),
            decoded: OnceLock::new(),
        }
    }

    /// The outcome's compact schema-v1 JSON, stamped `cache_hit: true`:
    /// the bytes `outcome().to_json().render()` would produce.
    #[must_use]
    pub fn document(&self) -> &str {
        &self.document
    }

    /// The outcome's `verified` flag, without decoding it.
    #[must_use]
    pub fn verified(&self) -> bool {
        self.verified
    }

    /// The outcome, stamped `cache_hit = true`. The first call decodes
    /// the document and keeps the result in the entry; every call
    /// returns a clone of it.
    ///
    /// # Panics
    ///
    /// If the document does not decode, which would mean the outcome's
    /// JSON encoding does not round-trip.
    #[must_use]
    pub fn outcome(&self) -> GenerateOutcome {
        self.decoded
            .get_or_init(|| {
                GenerateOutcome::from_json_str(&self.document)
                    .expect("a cached outcome document decodes")
            })
            .clone()
    }

    /// The decoded outcome, if a struct call has decoded it yet.
    #[cfg(test)]
    fn decoded(&self) -> Option<&GenerateOutcome> {
        self.decoded.get()
    }
}

/// How [`OutcomeCache::serve`] answered.
#[derive(Debug)]
pub enum Served {
    /// A memory or disk hit: the entry, its document ready to send.
    Hit(Arc<CachedOutcome>),
    /// The outcome this call computed and inserted, as `compute`
    /// returned it.
    Computed(Box<GenerateOutcome>),
}

impl Served {
    /// The outcome: a hit's [`CachedOutcome::outcome`], or the computed
    /// one.
    #[must_use]
    pub fn into_outcome(self) -> GenerateOutcome {
        match self {
            Served::Hit(entry) => entry.outcome(),
            Served::Computed(outcome) => *outcome,
        }
    }
}

/// A completion latch for one in-flight computation. Carries no result:
/// waiters re-check the cache once the leader finishes, which keeps the
/// flight type independent of the caller's error type.
struct Flight {
    done: Mutex<bool>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            done: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn complete(&self) {
        // Poison-tolerant: called from the unwind path of FlightGuard.
        let mut done = match self.done.lock() {
            Ok(done) => done,
            Err(poisoned) => poisoned.into_inner(),
        };
        *done = true;
        drop(done);
        self.cv.notify_all();
    }

    fn wait(&self) {
        let mut done = self.done.lock().expect("flight lock");
        while !*done {
            done = self.cv.wait(done).expect("flight lock");
        }
    }
}

/// Removes and completes a leader's flight on scope exit, including
/// panic unwinds: waiters wake, re-check the cache, and the next one
/// becomes the new leader instead of blocking forever.
struct FlightGuard<'a> {
    cache: &'a OutcomeCache,
    key: CacheKey,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        // Runs during panic unwinds, so it must not panic itself:
        // tolerate lock poisoning and an already-removed flight.
        let mut flights = match self.cache.flights.lock() {
            Ok(flights) => flights,
            Err(poisoned) => poisoned.into_inner(),
        };
        let landed = flights.remove(&self.key.0);
        drop(flights);
        if let Some(landed) = landed {
            landed.complete();
        }
    }
}

/// The two-level (memory + optional disk), single-flight outcome cache.
pub struct OutcomeCache {
    memory: ShardedLru<Arc<CachedOutcome>>,
    disk: Option<DiskStore>,
    flights: Mutex<HashMap<u128, Arc<Flight>>>,
    stats: CacheStats,
}

impl OutcomeCache {
    /// A memory-only cache holding roughly `capacity` outcomes.
    #[must_use]
    pub fn new(capacity: usize) -> OutcomeCache {
        OutcomeCache {
            memory: ShardedLru::new(capacity),
            disk: None,
            flights: Mutex::new(HashMap::new()),
            stats: CacheStats::default(),
        }
    }

    /// Attaches a persistent store rooted at `dir` (created if absent):
    /// misses fall through to disk before computing, and computed
    /// outcomes are persisted for future processes.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn with_disk(
        mut self,
        dir: impl Into<std::path::PathBuf>,
    ) -> std::io::Result<OutcomeCache> {
        self.disk = Some(DiskStore::open(dir)?);
        Ok(self)
    }

    /// Looks `key` up in memory, then disk, **verifying** every
    /// candidate entry's stored canonical text against `canonical` —
    /// the FNV key is non-cryptographic, so the text comparison is what
    /// guarantees a hit is the *right* outcome (a mismatch counts as a
    /// miss and toward [`CacheStatsSnapshot::key_mismatches`]). Hits
    /// come back stamped `cache_hit = true` in their
    /// [`Diagnostics`](marchgen_generator::Diagnostics), so replayed outcomes are
    /// byte-comparable to fresh ones modulo the diagnostics block. A
    /// miss counts toward [`CacheStatsSnapshot::misses`].
    #[must_use]
    pub fn lookup(&self, key: CacheKey, canonical: &str) -> Option<GenerateOutcome> {
        let hit = self.peek(key, canonical);
        if hit.is_none() {
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// [`OutcomeCache::lookup`] minus the miss accounting: a probe that
    /// will be followed by [`OutcomeCache::get_or_compute`] on a miss
    /// (which counts it) uses this, so one served request never counts
    /// two misses. Hits still count — they are final answers. The first
    /// struct hit of an entry decodes its document
    /// ([`CachedOutcome::outcome`]); later ones clone the decoded
    /// outcome.
    #[must_use]
    pub fn peek(&self, key: CacheKey, canonical: &str) -> Option<GenerateOutcome> {
        self.find(key, canonical).map(|entry| entry.outcome())
    }

    /// The entry under `key` whose canonical text is `canonical`, from
    /// memory or else from disk (promoted to memory, its document
    /// rendered there). Counts hits by tier and key mismatches.
    fn find(&self, key: CacheKey, canonical: &str) -> Option<Arc<CachedOutcome>> {
        if let Some(entry) = self.memory.get(key) {
            if entry.canonical != canonical {
                // Collision (or corruption): the slot belongs to a
                // different canonical request. Never serve it.
                self.stats.key_mismatches.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            self.stats.memory_hits.fetch_add(1, Ordering::Relaxed);
            return Some(entry);
        }
        let stored = self.disk.as_ref().and_then(|d| d.load(key))?;
        if stored.canonical != canonical {
            self.stats.key_mismatches.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        self.stats.disk_hits.fetch_add(1, Ordering::Relaxed);
        // Promote so the next lookup skips the filesystem.
        let entry = Arc::new(CachedOutcome::new(stored.canonical, stored.outcome));
        self.memory.insert(key, Arc::clone(&entry));
        Some(entry)
    }

    /// Stores a freshly computed outcome under `key` (memory and, when
    /// attached, disk), together with the canonical request text future
    /// hits verify. The disk copy is stamped `cache_hit = false`; the
    /// memory entry keeps only the hit document rendered from it
    /// ([`CachedOutcome`]), not the outcome.
    pub fn insert(&self, key: CacheKey, canonical: &str, outcome: &GenerateOutcome) {
        let mut stored = outcome.clone();
        stored.diagnostics.cache_hit = false;
        self.stats.inserts.fetch_add(1, Ordering::Relaxed);
        if let Some(disk) = &self.disk {
            disk.store(key, canonical, &stored);
        }
        self.memory.insert(
            key,
            Arc::new(CachedOutcome::new(canonical.to_owned(), stored)),
        );
    }

    /// [`OutcomeCache::serve`] for callers that need the outcome
    /// itself: a hit is decoded as in [`OutcomeCache::peek`].
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns; errors are never cached.
    pub fn get_or_compute<E>(
        &self,
        request: &GenerateRequest,
        compute: impl Fn(&GenerateRequest) -> Result<GenerateOutcome, E>,
    ) -> Result<GenerateOutcome, E> {
        self.serve(request, compute).map(Served::into_outcome)
    }

    /// The heart of the cache: answers `request` from a stored entry,
    /// computing it with `compute` only when no cached copy exists and
    /// no other thread is already computing the same key
    /// (single-flight). Waiters block until the leader finishes, then
    /// read its result from the cache; if the leader *failed*, one
    /// waiter takes over as the new leader and retries (errors are
    /// cheap — parse and validation failures — and never cached). A hit
    /// is the entry itself, so a caller that sends its document decodes
    /// and renders nothing.
    ///
    /// `compute` always receives the **canonical**
    /// ([`GenerateRequest::normalize`]d) form of the request, never the
    /// raw one: the stored entry must be a pure function of the key, so
    /// a request that bypassed the clamping builders (or listed its
    /// faults in a different order) cannot seed the shared entry with
    /// bytes a differently-spelled twin would not have produced.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns; errors are never cached.
    pub fn serve<E>(
        &self,
        request: &GenerateRequest,
        compute: impl Fn(&GenerateRequest) -> Result<GenerateOutcome, E>,
    ) -> Result<Served, E> {
        let canonical = canonical_key_text(request);
        let key = key_for_text(&canonical);
        loop {
            if let Some(entry) = self.find(key, &canonical) {
                return Ok(Served::Hit(entry));
            }
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
            let flight = {
                let mut flights = self.flights.lock().expect("flights lock");
                match flights.get(&key.0) {
                    Some(in_flight) => Some(Arc::clone(in_flight)),
                    None => {
                        flights.insert(key.0, Arc::new(Flight::new()));
                        None
                    }
                }
            };
            match flight {
                None => {
                    // Leader: compute, publish, land the flight. (The
                    // miss was already counted above.) The guard lands
                    // the flight even if `compute` panics — an
                    // abandoned flight would wedge every future request
                    // for this key forever.
                    self.probe_stale_schema(request);
                    let _guard = FlightGuard { cache: self, key };
                    let result = compute(&request.clone().normalize());
                    if let Ok(outcome) = &result {
                        self.insert(key, &canonical, outcome);
                    }
                    return result.map(|outcome| Served::Computed(Box::new(outcome)));
                }
                Some(in_flight) => {
                    // Waiter: coalesce, then re-check from the top.
                    self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                    in_flight.wait();
                }
            }
        }
    }

    /// On a miss about to be recomputed, checks whether the persistent
    /// store still holds this request's entry under the *previous* key
    /// schema — a pre-bump entry the schema change invalidated. Counts
    /// it so operators can tell a schema-bump recompute storm from a
    /// genuinely cold cache.
    fn probe_stale_schema(&self, request: &GenerateRequest) {
        if let Some(disk) = &self.disk {
            if disk.contains(key::previous_schema_key(request)) {
                self.stats.key_schema_stale.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// A consistent-enough snapshot of the cumulative counters (each
    /// counter is read atomically; the set is not).
    #[must_use]
    pub fn stats(&self) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            memory_hits: self.stats.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.stats.disk_hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            inserts: self.stats.inserts.load(Ordering::Relaxed),
            evictions: self.memory.evictions(),
            coalesced: self.stats.coalesced.load(Ordering::Relaxed),
            key_mismatches: self.stats.key_mismatches.load(Ordering::Relaxed),
            key_schema_stale: self.stats.key_schema_stale.load(Ordering::Relaxed),
            disk: self.disk.as_ref().map(DiskStore::stats),
        }
    }

    /// Outcomes currently resident in memory.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.memory.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marchgen_generator::{generate, GenerateError};
    use std::sync::atomic::AtomicUsize;

    fn req(list: &str) -> GenerateRequest {
        GenerateRequest::from_fault_list(list).unwrap()
    }

    #[test]
    fn hit_path_stamps_cache_hit() {
        let cache = OutcomeCache::new(64);
        let request = req("SAF");
        let computed = cache.get_or_compute(&request, generate).unwrap();
        assert!(!computed.diagnostics.cache_hit);
        let replayed = cache.get_or_compute(&request, generate).unwrap();
        assert!(replayed.diagnostics.cache_hit);
        // Byte-comparable modulo diagnostics.
        assert_eq!(computed.test, replayed.test);
        assert_eq!(computed.tour, replayed.tour);
        assert_eq!(computed.report, replayed.report);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.memory_hits, 1);
        assert_eq!(stats.inserts, 1);
    }

    /// `insert` then `lookup` returns the inserted outcome stamped
    /// `cache_hit = true`, from memory and after a disk promotion.
    #[test]
    fn inserted_outcomes_come_back_as_hits_from_memory_and_disk() {
        let dir = std::env::temp_dir().join(format!(
            "marchgen-cache-insert-lookup-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let request = req("SAF, TF, ADF");
        let outcome = generate(&request).unwrap();
        let mut expected = outcome.clone();
        expected.diagnostics.cache_hit = true;
        let (key, canonical) = (request_key(&request), canonical_key_text(&request));
        {
            let cache = OutcomeCache::new(64).with_disk(&dir).unwrap();
            cache.insert(key, &canonical, &outcome);
            assert_eq!(cache.lookup(key, &canonical), Some(expected.clone()));
            assert_eq!(cache.stats().memory_hits, 1);
        }
        let cache = OutcomeCache::new(64).with_disk(&dir).unwrap();
        assert_eq!(cache.lookup(key, &canonical), Some(expected.clone()));
        assert_eq!(cache.lookup(key, &canonical), Some(expected));
        let stats = cache.stats();
        assert_eq!(
            (stats.disk_hits, stats.memory_hits, stats.misses),
            (1, 1, 0)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A hit served as a document decodes nothing; the first struct hit
    /// decodes the entry's document once, and later ones reuse it.
    #[test]
    fn document_hits_decode_nothing_and_struct_hits_decode_once() {
        let cache = OutcomeCache::new(64);
        let request = req("SAF, TF");
        let computed = match cache.serve(&request, generate).unwrap() {
            Served::Computed(outcome) => *outcome,
            Served::Hit(_) => panic!("a cold cache computes"),
        };
        let mut expected = computed.clone();
        expected.diagnostics.cache_hit = true;
        let hit = |cache: &OutcomeCache| match cache
            .serve(&request, |_| -> Result<GenerateOutcome, ()> {
                panic!("no compute on a hit")
            })
            .unwrap()
        {
            Served::Hit(entry) => entry,
            Served::Computed(_) => panic!("a warm cache hits"),
        };
        let entry = hit(&cache);
        assert_eq!(entry.document(), expected.to_json().render());
        assert_eq!(entry.verified(), expected.verified);
        assert!(
            hit(&cache).decoded().is_none(),
            "a document hit decodes nothing"
        );

        let (key, canonical) = (request_key(&request), canonical_key_text(&request));
        assert_eq!(cache.lookup(key, &canonical), Some(expected.clone()));
        let decoded = entry.decoded().expect("the struct hit decoded the entry");
        assert_eq!(decoded, &expected);
        assert_eq!(cache.get_or_compute(&request, generate).unwrap(), expected);
        assert!(
            std::ptr::eq(decoded, hit(&cache).decoded().unwrap()),
            "later struct hits reuse the first decode"
        );
        assert_eq!(cache.stats().memory_hits, 5);
    }

    #[test]
    fn permuted_requests_share_an_entry() {
        let cache = OutcomeCache::new(64);
        let _ = cache
            .get_or_compute(&req("SAF, TF, CFin"), generate)
            .unwrap();
        let replay = cache
            .get_or_compute(&req("CFin, TF, SAF"), generate)
            .unwrap();
        assert!(replay.diagnostics.cache_hit);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn errors_are_returned_and_never_cached() {
        let cache = OutcomeCache::new(64);
        let empty = GenerateRequest::default();
        for _ in 0..2 {
            let err = cache.get_or_compute(&empty, generate).unwrap_err();
            assert!(matches!(err, GenerateError::EmptyFaultList));
        }
        // Both calls computed — failures leave no entry behind.
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().inserts, 0);
        assert_eq!(cache.resident(), 0);
    }

    #[test]
    fn disk_round_trip_across_cache_instances() {
        let dir =
            std::env::temp_dir().join(format!("marchgen-cache-lib-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let request = req("SAF, TF");
        let computed = {
            let cache = OutcomeCache::new(64).with_disk(&dir).unwrap();
            cache.get_or_compute(&request, generate).unwrap()
        };
        // A fresh process (modelled by a fresh cache) hits disk.
        let cache = OutcomeCache::new(64).with_disk(&dir).unwrap();
        let replayed = cache.get_or_compute(&request, generate).unwrap();
        assert!(replayed.diagnostics.cache_hit);
        assert_eq!(computed.test, replayed.test);
        let stats = cache.stats();
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(stats.misses, 0);
        // The disk hit was promoted: a second lookup stays in memory.
        let _ = cache.get_or_compute(&request, generate).unwrap();
        assert_eq!(cache.stats().memory_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A leader whose compute panics must land its flight on the way
    /// out — otherwise every later request for the key blocks forever.
    #[test]
    fn a_panicking_leader_does_not_wedge_the_key() {
        let cache = OutcomeCache::new(64);
        let request = req("SAF");
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cache.get_or_compute(&request, |_| -> Result<GenerateOutcome, ()> {
                panic!("compute exploded")
            });
        }));
        assert!(attempt.is_err(), "the panic propagates to the caller");
        // The key is free again: a fresh compute succeeds and caches.
        let outcome = cache.get_or_compute(&request, generate).unwrap();
        assert_eq!(outcome.complexity(), 4);
        assert!(
            cache
                .get_or_compute(&request, generate)
                .unwrap()
                .diagnostics
                .cache_hit
        );
    }

    /// The computation a leader runs is the canonical form: a request
    /// that bypassed the clamping builders cannot seed the shared entry
    /// with bytes its well-formed twin would not produce.
    #[test]
    fn leaders_compute_the_canonical_form() {
        let cache = OutcomeCache::new(64);
        let mut raw = req("SAF");
        raw.tour_cap = 0; // bypasses with_tour_cap's clamp
        let outcome = cache
            .get_or_compute(&raw, |r| {
                assert_eq!(r.tour_cap, 1, "compute sees the clamped request");
                generate(r)
            })
            .unwrap();
        assert_eq!(outcome.complexity(), 4);
        // The well-formed twin (`tour_cap` clamped to 1 by the builder,
        // exactly what `0` normalizes to) hits the same entry.
        let twin = cache
            .get_or_compute(&req("SAF").with_tour_cap(1), generate)
            .unwrap();
        assert!(twin.diagnostics.cache_hit);
    }

    /// Regression (collision safety): an entry stored under a key must
    /// never be served to a request whose canonical text differs — a
    /// 128-bit FNV collision, accidental or crafted, is a miss, not a
    /// wrong outcome.
    #[test]
    fn colliding_entries_are_misses_not_wrong_outcomes() {
        let cache = OutcomeCache::new(64);
        let saf = req("SAF");
        let outcome = generate(&saf).unwrap();
        let key = request_key(&saf);
        cache.insert(key, &canonical_key_text(&saf), &outcome);

        // Simulate a colliding request: same 128-bit key, different
        // canonical text (the attack/accident the key alone cannot
        // distinguish).
        let impostor_text = "marchgen-cache/v3;faults=TF<u>;something-else";
        assert!(
            cache.lookup(key, impostor_text).is_none(),
            "colliding lookup must miss"
        );
        let stats = cache.stats();
        assert_eq!(stats.key_mismatches, 1);
        assert_eq!(stats.misses, 1);
        // The rightful owner still hits.
        assert!(cache.lookup(key, &canonical_key_text(&saf)).is_some());
    }

    /// The same verification holds through the persistent store: a
    /// disk entry whose stored canonical text does not match the
    /// request being served reads as a miss.
    #[test]
    fn colliding_disk_entries_are_misses() {
        let dir = std::env::temp_dir().join(format!(
            "marchgen-cache-collision-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let saf = req("SAF");
        let outcome = generate(&saf).unwrap();
        let key = request_key(&saf);
        {
            let cache = OutcomeCache::new(64).with_disk(&dir).unwrap();
            cache.insert(key, &canonical_key_text(&saf), &outcome);
        }
        // Fresh process (fresh memory), same disk: the impostor text
        // must not be served the stored outcome.
        let cache = OutcomeCache::new(64).with_disk(&dir).unwrap();
        assert!(cache.lookup(key, "different-canonical-text").is_none());
        assert_eq!(cache.stats().key_mismatches, 1);
        assert!(cache.lookup(key, &canonical_key_text(&saf)).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A disk directory populated by the previous release (entries
    /// keyed under schema v2) serves clean misses — and the probe
    /// counts each one as `key_schema_stale`, so the recompute storm a
    /// schema bump causes is distinguishable from a cold cache.
    #[test]
    fn pre_bump_disk_entries_count_as_schema_stale_misses() {
        let dir = std::env::temp_dir().join(format!(
            "marchgen-cache-schema-stale-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let request = req("SAF, TF");
        let outcome = generate(&request).unwrap();
        {
            // Simulate the previous release: its entry sits under the
            // v2 key, with v2 canonical text.
            let cache = OutcomeCache::new(64).with_disk(&dir).unwrap();
            let old_text = canonical_key_text(&request).replacen("/v3;", "/v2;", 1);
            cache.insert(previous_schema_key(&request), &old_text, &outcome);
        }
        let cache = OutcomeCache::new(64).with_disk(&dir).unwrap();
        let replayed = cache.get_or_compute(&request, generate).unwrap();
        assert!(!replayed.diagnostics.cache_hit, "v2 entry must not serve");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.key_schema_stale, 1);
        // A genuinely cold request does not count as schema-stale.
        let _ = cache.get_or_compute(&req("SOF"), generate).unwrap();
        assert_eq!(cache.stats().key_schema_stale, 1);
        // Once recomputed under v3, the request hits normally again.
        assert!(
            cache
                .get_or_compute(&request, generate)
                .unwrap()
                .diagnostics
                .cache_hit
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_flight_coalesces_concurrent_identical_requests() {
        let cache = OutcomeCache::new(64);
        let computes = AtomicUsize::new(0);
        let request = req("SAF, TF, ADF, CFin, CFid");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let outcome = cache
                        .get_or_compute(&request, |r| {
                            computes.fetch_add(1, Ordering::SeqCst);
                            generate(r)
                        })
                        .unwrap();
                    assert_eq!(outcome.complexity(), 10);
                });
            }
        });
        // Exactly one thread ran the pipeline; the rest coalesced or
        // hit the finished entry.
        assert_eq!(computes.load(Ordering::SeqCst), 1);
        assert_eq!(cache.stats().inserts, 1);
    }
}
