//! The batch service layer: execute many [`GenerateRequest`]s across
//! worker threads with progress events.
//!
//! This is the first brick of the ROADMAP's production-scale service: a
//! synchronous, in-process scheduler with the shape a network front-end
//! needs — typed requests in, typed outcomes out, and a callback stream
//! for progress reporting.
//!
//! ```
//! use marchgen::service::Batch;
//! use marchgen::GenerateRequest;
//!
//! let requests = vec![
//!     GenerateRequest::from_fault_list("SAF").unwrap(),
//!     GenerateRequest::from_fault_list("SAF, TF").unwrap(),
//! ];
//! let results = Batch::new().run(requests);
//! assert_eq!(results[0].as_ref().unwrap().complexity(), 4);
//! assert_eq!(results[1].as_ref().unwrap().complexity(), 5);
//! ```

use crate::error::Error;
use marchgen_cache::{canonical_key_text, key_for_text, OutcomeCache};
use marchgen_generator::pool::run_indexed;
use marchgen_generator::{generate, GenerateOutcome, GenerateRequest};
use std::num::NonZeroUsize;

/// A progress event emitted while a batch runs. Events for different
/// requests interleave arbitrarily; `index` ties them back to the input
/// order.
#[derive(Debug)]
pub enum BatchEvent<'a> {
    /// A worker picked up request `index`.
    Started {
        /// Position in the input vector.
        index: usize,
        /// The request being run.
        request: &'a GenerateRequest,
    },
    /// Request `index` finished successfully.
    Finished {
        /// Position in the input vector.
        index: usize,
        /// The produced outcome.
        outcome: &'a GenerateOutcome,
    },
    /// Request `index` failed.
    Failed {
        /// Position in the input vector.
        index: usize,
        /// The error it failed with.
        error: &'a Error,
    },
    /// The whole batch is done: every worker has drained and every
    /// per-request event has been delivered. Emitted exactly once, last
    /// — daemons and CLIs can key completion off this instead of
    /// counting `Finished`/`Failed` events.
    Completed {
        /// Requests in the batch.
        total: usize,
        /// How many produced an outcome.
        succeeded: usize,
        /// How many failed (`total - succeeded`).
        failed: usize,
    },
}

impl BatchEvent<'_> {
    /// Encodes the event as one self-describing JSON object — the frame
    /// format of the daemon's `/v1/stream` endpoint (one frame per
    /// line). The `"event"` discriminator takes three values:
    ///
    /// * `"started"` — a worker picked up item `index`; carries the
    ///   item's canonical fault list,
    /// * `"item"` — item `index` finished; `"ok"` tells success from
    ///   failure, successes carry the outcome summary (headline results
    ///   plus per-phase diagnostics, see
    ///   [`GenerateOutcome::to_summary_json`]), failures carry the
    ///   error text,
    /// * `"completed"` — the terminal frame with the batch totals,
    ///   emitted exactly once, last.
    #[must_use]
    pub fn to_json(&self) -> marchgen_json::Json {
        use marchgen_json::Json;
        match self {
            BatchEvent::Started { index, request } => Json::object([
                ("event", Json::from("started")),
                ("index", Json::from(*index)),
                (
                    "faults",
                    Json::array(request.faults.iter().map(|m| Json::Str(m.name()))),
                ),
            ]),
            BatchEvent::Finished { index, outcome } => Json::object([
                ("event", Json::from("item")),
                ("index", Json::from(*index)),
                ("ok", Json::Bool(true)),
                ("outcome", outcome.to_summary_json()),
            ]),
            BatchEvent::Failed { index, error } => Json::object([
                ("event", Json::from("item")),
                ("index", Json::from(*index)),
                ("ok", Json::Bool(false)),
                ("error", Json::Str(error.to_string())),
            ]),
            BatchEvent::Completed {
                total,
                succeeded,
                failed,
            } => Json::object([
                ("event", Json::from("completed")),
                ("total", Json::from(*total)),
                ("succeeded", Json::from(*succeeded)),
                ("failed", Json::from(*failed)),
            ]),
        }
    }
}

/// A configurable multi-threaded batch executor over the generation
/// engine.
///
/// Requests are pulled from a shared queue by `threads` workers (scoped
/// threads — no `'static` bounds), each run through [`generate`] with
/// the built-in solvers. Results come back in input order, one `Result`
/// per request, so a single bad request never poisons the batch.
pub struct Batch {
    threads: NonZeroUsize,
}

impl Default for Batch {
    /// One worker per available CPU — the canonical configuration. `Default` owns the construction logic
    /// (rather than bouncing through [`Batch::new`]) so derived holders
    /// like `#[derive(Default)]` service structs get a fully working
    /// executor.
    fn default() -> Batch {
        let threads = std::thread::available_parallelism()
            .unwrap_or(NonZeroUsize::new(1).expect("1 is non-zero"));
        Batch { threads }
    }
}

impl Batch {
    /// A batch executor with one worker per available CPU (alias of
    /// [`Batch::default`]).
    #[must_use]
    pub fn new() -> Batch {
        Batch::default()
    }

    /// Overrides the worker count (clamped to at least 1).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Batch {
        self.threads = NonZeroUsize::new(threads.max(1)).expect("clamped to >= 1");
        self
    }

    /// Runs every request, returning one result per request in input
    /// order.
    #[must_use]
    pub fn run(&self, requests: Vec<GenerateRequest>) -> Vec<Result<GenerateOutcome, Error>> {
        self.run_with_progress(requests, |_| {})
    }

    /// [`Batch::run`] with a progress callback. The callback is invoked
    /// from worker threads (hence `Sync`) and must be cheap; it sees
    /// every [`BatchEvent`] exactly once, ending with the terminal
    /// [`BatchEvent::Completed`].
    #[must_use]
    pub fn run_with_progress(
        &self,
        requests: Vec<GenerateRequest>,
        on_event: impl Fn(BatchEvent<'_>) + Sync,
    ) -> Vec<Result<GenerateOutcome, Error>> {
        let total = requests.len();
        let results = self.run_workers(requests, &on_event, &|request| {
            generate(request).map_err(Error::from)
        });
        let succeeded = results.iter().filter(|r| r.is_ok()).count();
        on_event(BatchEvent::Completed {
            total,
            succeeded,
            failed: total - succeeded,
        });
        results
    }

    /// The worker-pool core shared by [`Batch::run_with_progress`] and
    /// [`Batch::run_cached`]: runs every request through `compute` on
    /// the shared index-ordered pool and emits the per-request events
    /// (not the terminal one — the caller owns batch totals).
    fn run_workers(
        &self,
        requests: Vec<GenerateRequest>,
        on_event: &(impl Fn(BatchEvent<'_>) + Sync),
        compute: &(impl Fn(&GenerateRequest) -> Result<GenerateOutcome, Error> + Sync),
    ) -> Vec<Result<GenerateOutcome, Error>> {
        let workers = self.threads.get().min(requests.len().max(1));
        run_indexed(requests.len(), workers, |index| {
            let request = &requests[index];
            on_event(BatchEvent::Started { index, request });
            // Requests left on automatic search threading would each
            // plan their search partitions on one thread per CPU
            // *inside* a batch that already runs one worker per CPU —
            // pin them to a single search thread instead. Explicit
            // `search_threads` choices are honored as-is, and the pinning
            // never changes an outcome (the search is deterministic by
            // construction) or a cache key (`search_threads` is excluded
            // from hashing).
            let result = if workers > 1 && request.search_threads == 0 {
                compute(&request.clone().with_search_threads(1))
            } else {
                compute(request)
            };
            match &result {
                Ok(outcome) => on_event(BatchEvent::Finished { index, outcome }),
                Err(error) => on_event(BatchEvent::Failed { index, error }),
            }
            result
        })
    }

    /// [`Batch::run`] through a content-addressed [`OutcomeCache`]:
    /// cached requests are answered without computing (their outcomes
    /// re-stamped `cache_hit`), identical misses *within* the batch are
    /// deduplicated onto one computation, and fresh outcomes are
    /// inserted for the next caller. Results stay in input order, one
    /// per request. Per-request progress events fire only for the
    /// deduplicated computations (cache hits are silent) but carry the
    /// *original input index* of the leading request, and the terminal
    /// [`BatchEvent::Completed`] covers the full request count.
    ///
    /// Leaders compute through [`OutcomeCache::get_or_compute`], so the
    /// single-flight guarantee holds *across* concurrent callers too: a
    /// batch racing another batch (or a single cached generate) for the
    /// same uncached problem funds one pipeline run, and the stored
    /// entry is always the canonical
    /// ([`GenerateRequest::normalize`]d) computation.
    #[must_use]
    pub fn run_cached(
        &self,
        cache: &OutcomeCache,
        requests: Vec<GenerateRequest>,
        on_event: impl Fn(BatchEvent<'_>) + Sync,
    ) -> Vec<Result<GenerateOutcome, Error>> {
        let total = requests.len();
        // Identity is the canonical key *text*, not the 128-bit hash:
        // FNV collisions between different requests must lead to two
        // computations, never to one request being served the other's
        // outcome.
        let canonicals: Vec<String> = requests.iter().map(canonical_key_text).collect();
        let mut slots: Vec<Option<Result<GenerateOutcome, Error>>> = Vec::new();
        slots.resize_with(total, || None);

        // Serve what the cache already has, then deduplicate the
        // remaining work by canonical text: one computation may answer
        // many slots.
        let mut leaders: Vec<usize> = Vec::new();
        for (index, canonical) in canonicals.iter().enumerate() {
            // `peek`, not `lookup`: a miss here is not a final answer —
            // the leader's `get_or_compute` does the miss accounting.
            if let Some(hit) = cache.peek(key_for_text(canonical), canonical) {
                slots[index] = Some(Ok(hit));
            } else if !leaders.iter().any(|&l| canonicals[l] == *canonical) {
                leaders.push(index);
            }
        }
        let miss_requests: Vec<GenerateRequest> =
            leaders.iter().map(|&l| requests[l].clone()).collect();
        // Translate worker indices (into the miss list) back to the
        // original input positions so progress lines stay meaningful.
        let computed = self.run_workers(
            miss_requests,
            &|event| {
                on_event(match event {
                    BatchEvent::Started { index, request } => BatchEvent::Started {
                        index: leaders[index],
                        request,
                    },
                    BatchEvent::Finished { index, outcome } => BatchEvent::Finished {
                        index: leaders[index],
                        outcome,
                    },
                    BatchEvent::Failed { index, error } => BatchEvent::Failed {
                        index: leaders[index],
                        error,
                    },
                    terminal @ BatchEvent::Completed { .. } => terminal,
                });
            },
            &|request| cache.get_or_compute(request, generate).map_err(Error::from),
        );
        for (&leader, result) in leaders.iter().zip(computed) {
            // Fan the leader's result out to every slot sharing its
            // canonical text (`get_or_compute` already stored
            // successful outcomes).
            for index in leader..total {
                if slots[index].is_none() && canonicals[index] == canonicals[leader] {
                    slots[index] = Some(match &result {
                        Ok(outcome) if index != leader => {
                            let mut replay = outcome.clone();
                            replay.diagnostics.cache_hit = true;
                            Ok(replay)
                        }
                        other => other.clone(),
                    });
                }
            }
        }
        let succeeded = slots
            .iter()
            .filter(|slot| matches!(slot, Some(Ok(_))))
            .count();
        on_event(BatchEvent::Completed {
            total,
            succeeded,
            failed: total - succeeded,
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every request served"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marchgen_generator::GenerateError;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn empty_batch() {
        assert!(Batch::new().run(Vec::new()).is_empty());
    }

    #[test]
    fn results_keep_input_order_and_isolate_failures() {
        let requests = vec![
            GenerateRequest::from_fault_list("SAF, TF").unwrap(),
            GenerateRequest::default(), // empty fault list → fails
            GenerateRequest::from_fault_list("SAF").unwrap(),
        ];
        let results = Batch::new().threads(2).run(requests);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].as_ref().unwrap().complexity(), 5);
        assert_eq!(
            results[1].as_ref().unwrap_err(),
            &Error::Generate(GenerateError::EmptyFaultList)
        );
        assert_eq!(results[2].as_ref().unwrap().complexity(), 4);
    }

    #[test]
    fn progress_events_cover_every_request_and_terminate() {
        let requests = vec![
            GenerateRequest::from_fault_list("SAF").unwrap(),
            GenerateRequest::default(),
            GenerateRequest::from_fault_list("TF").unwrap(),
        ];
        let started = AtomicUsize::new(0);
        let finished = AtomicUsize::new(0);
        let failed = AtomicUsize::new(0);
        let completed = AtomicUsize::new(0);
        let _ = Batch::new()
            .threads(3)
            .run_with_progress(requests, |event| {
                match event {
                    BatchEvent::Started { .. } => started.fetch_add(1, Ordering::Relaxed),
                    BatchEvent::Finished { .. } => finished.fetch_add(1, Ordering::Relaxed),
                    BatchEvent::Failed { .. } => failed.fetch_add(1, Ordering::Relaxed),
                    BatchEvent::Completed {
                        total,
                        succeeded,
                        failed,
                    } => {
                        // Terminal event: every per-request event has
                        // already been delivered by now.
                        assert_eq!((total, succeeded, failed), (3, 2, 1));
                        assert_eq!(started.load(Ordering::Relaxed), 3);
                        completed.fetch_add(1, Ordering::Relaxed)
                    }
                };
            });
        assert_eq!(started.load(Ordering::Relaxed), 3);
        assert_eq!(finished.load(Ordering::Relaxed), 2);
        assert_eq!(failed.load(Ordering::Relaxed), 1);
        assert_eq!(
            completed.load(Ordering::Relaxed),
            1,
            "exactly one terminal event"
        );
    }

    /// `run_cached` answers repeats from the cache, deduplicates
    /// identical in-batch requests onto one computation, and keeps
    /// results in input order.
    #[test]
    fn run_cached_serves_hits_and_dedupes() {
        let cache = OutcomeCache::new(64);
        let saf = GenerateRequest::from_fault_list("SAF").unwrap();
        let saf_permuted = GenerateRequest::from_fault_list("SA1, SA0").unwrap();
        let tf = GenerateRequest::from_fault_list("TF").unwrap();
        let batch = Batch::new().threads(2);

        let first = batch.run_cached(
            &cache,
            vec![saf.clone(), tf.clone(), saf_permuted.clone()],
            |_| {},
        );
        assert_eq!(first.len(), 3);
        assert!(!first[0].as_ref().unwrap().diagnostics.cache_hit);
        assert!(
            first[2].as_ref().unwrap().diagnostics.cache_hit,
            "in-batch duplicate rides the leader's computation"
        );
        assert_eq!(
            first[0].as_ref().unwrap().test,
            first[2].as_ref().unwrap().test
        );
        // Two unique problems → two computations.
        assert_eq!(cache.stats().inserts, 2);

        // A re-run is all hits: no new computation.
        let again = batch.run_cached(&cache, vec![tf, saf], |_| {});
        assert!(again
            .iter()
            .all(|r| r.as_ref().unwrap().diagnostics.cache_hit));
        assert_eq!(cache.stats().inserts, 2);

        // Failures pass through per-slot and are never cached.
        let mixed = batch.run_cached(&cache, vec![GenerateRequest::default()], |_| {});
        assert!(mixed[0].is_err());
        assert_eq!(cache.stats().inserts, 2);
    }

    /// Every event kind encodes as a self-describing one-line frame
    /// with the `"event"` discriminator the stream clients switch on.
    #[test]
    fn batch_events_serialize_as_stream_frames() {
        use std::sync::Mutex;
        let requests = vec![
            GenerateRequest::from_fault_list("SAF").unwrap(),
            GenerateRequest::default(), // empty fault list → fails
        ];
        let frames: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let _ = Batch::new()
            .threads(1)
            .run_with_progress(requests, |event| {
                frames.lock().unwrap().push(event.to_json().render());
            });
        let frames = frames.into_inner().unwrap();
        assert_eq!(
            frames.len(),
            5,
            "started×2 + item×2 + completed: {frames:?}"
        );
        assert!(frames
            .iter()
            .all(|f| !f.contains('\n') && f.starts_with("{\"event\":\"")));
        assert!(
            frames[0]
                .starts_with("{\"event\":\"started\",\"index\":0,\"faults\":[\"SA0\",\"SA1\"]}"),
            "{}",
            frames[0]
        );
        assert!(
            frames.iter().any(|f| f.contains("\"event\":\"item\"")
                && f.contains("\"ok\":true")
                && f.contains("\"complexity\":4")
                && f.contains("\"diagnostics\"")),
            "{frames:?}"
        );
        assert!(
            frames
                .iter()
                .any(|f| f.contains("\"ok\":false") && f.contains("\"error\"")),
            "{frames:?}"
        );
        assert_eq!(
            frames.last().unwrap(),
            "{\"event\":\"completed\",\"total\":2,\"succeeded\":1,\"failed\":1}"
        );
    }

    #[test]
    fn single_thread_matches_parallel() {
        let requests: Vec<GenerateRequest> = ["SAF", "SAF, TF", "CFin"]
            .iter()
            .map(|list| GenerateRequest::from_fault_list(list).unwrap())
            .collect();
        let serial = Batch::new().threads(1).run(requests.clone());
        let parallel = Batch::new().threads(4).run(requests);
        for (a, b) in serial.iter().zip(&parallel) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.test, b.test);
            assert_eq!(a.verified, b.verified);
        }
    }

    /// Requests carrying an explicit search-thread choice run unchanged
    /// through the batch layer, and the anti-oversubscription pinning of
    /// auto-threaded requests never changes their outcome.
    #[test]
    fn batch_honors_request_level_knobs() {
        let auto = GenerateRequest::from_fault_list("CFin").unwrap();
        let pinned = auto.clone().with_search_threads(2);
        let results = Batch::new().threads(3).run(vec![auto, pinned]);
        let outcomes: Vec<_> = results.iter().map(|r| r.as_ref().unwrap()).collect();
        assert_eq!(outcomes[0].test, outcomes[1].test);
        assert_eq!(outcomes[0].report, outcomes[1].report);
    }
}
