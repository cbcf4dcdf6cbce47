//! Content-addressed cache keys for [`GenerateRequest`]s.
//!
//! The key is a 128-bit FNV-1a hash over a canonical, versioned text
//! encoding of the *normalized* request
//! ([`GenerateRequest::normalize`]): the fault list sorted in taxonomy
//! order and deduplicated, every semantic knob spelled out explicitly
//! (so omitted-and-defaulted JSON fields key identically to explicit
//! defaults), and a schema tag so a future wire-format revision can
//! never replay stale entries.
//!
//! One request field is deliberately **excluded** from the key:
//! `search_threads`, an execution knob proven outcome-invariant by the
//! determinism test suite (`tests/determinism.rs`), so clients running
//! with different thread counts share cache entries for the same
//! generation problem. The key never held the retired `verifier`
//! choice, so documents that still carry it key as they always did.

use marchgen_generator::GenerateRequest;
use marchgen_tpg::StartPolicy;
use std::fmt::{self, Write as _};

/// Version tag folded into every key. Bump when the canonical encoding
/// or the outcome schema changes incompatibly.
///
/// History: v1 was the pre-primitive-layer encoding (classical fault
/// taxonomy, no `setup` field in the TP wire schema); v2 covers the
/// extended workload space (dynamic + linked faults); v3 stops counting
/// a model the memory cannot host (a pair fault at `verify_cells` 1) as
/// covered, so v2 entries for such requests hold a wrongly verified,
/// empty test. Entries persisted under an older key are clean misses —
/// the stale-entry probe ([`previous_schema_key`]) lets the cache
/// *count* them (`key_schema_stale`) instead of mistaking them for cold
/// misses.
pub const KEY_SCHEMA: u32 = 3;

/// The schema tag the previous release stamped into its keys.
const PREVIOUS_KEY_SCHEMA: u32 = 2;

const FNV_OFFSET_128: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV_PRIME_128: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// A 128-bit content hash identifying one normalized generation
/// problem. Renders as (and parses from) 32 lowercase hex digits — the
/// on-disk file stem of the persistent store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(pub u128);

impl CacheKey {
    /// Parses the 32-hex-digit rendering back into a key.
    #[must_use]
    pub fn from_hex(text: &str) -> Option<CacheKey> {
        if text.len() != 32 {
            return None;
        }
        u128::from_str_radix(text, 16).ok().map(CacheKey)
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

fn fnv1a_128(bytes: &[u8]) -> u128 {
    let mut hash = FNV_OFFSET_128;
    for &b in bytes {
        hash ^= u128::from(b);
        hash = hash.wrapping_mul(FNV_PRIME_128);
    }
    hash
}

/// The canonical key text of a request — the exact bytes that get
/// hashed. Exposed (rather than kept private to [`request_key`]) so
/// tests and debugging tools can see *why* two requests collide or
/// diverge.
#[must_use]
pub fn canonical_key_text(request: &GenerateRequest) -> String {
    canonical_text_for_schema(request, KEY_SCHEMA)
}

/// The key this request would have hashed to under the *previous*
/// schema tag. The cache probes this on a disk miss to tell "pre-bump
/// entry invalidated by the schema change" apart from a genuinely cold
/// key (surfaced as `key_schema_stale`).
#[must_use]
pub fn previous_schema_key(request: &GenerateRequest) -> CacheKey {
    key_for_text(&canonical_text_for_schema(request, PREVIOUS_KEY_SCHEMA))
}

/// The key text of `request` as [`GenerateRequest::normalize`] leaves
/// it, written into one pre-sized `String`. Only the fault list is
/// copied, to be sorted and deduplicated; the clamps are normalize's.
fn canonical_text_for_schema(request: &GenerateRequest, schema: u32) -> String {
    /// The longest model name (`CFid<↑,1>`, 11 bytes) plus its comma.
    const FAULT_BYTES: usize = 12;
    /// The fixed text and the widest schema tag, numbers and flags.
    const FIXED_BYTES: usize = 256;
    let mut faults = request.faults.clone();
    faults.sort_unstable();
    faults.dedup();
    let solver = request.solver.key();
    let mut text = String::with_capacity(FIXED_BYTES + solver.len() + FAULT_BYTES * faults.len());
    let _ = write!(text, "marchgen-cache/v{schema};faults=");
    for (k, model) in faults.iter().enumerate() {
        if k > 0 {
            text.push(',');
        }
        let _ = write!(text, "{model}");
    }
    let start = match request.start_policy {
        StartPolicy::Uniform => "uniform",
        StartPolicy::Free => "free",
    };
    let _ = write!(
        text,
        ";start={start};solver={solver};tour_cap={};verify_cells={};compact={};\
         check_redundancy={};max_combinations={}",
        request.tour_cap.max(1),
        request.verify_cells,
        request.compact,
        request.check_redundancy,
        request.max_combinations.max(1),
    );
    text
}

/// The key a canonical text hashes to. [`request_key`] composes this
/// with [`canonical_key_text`]; callers that already hold the text
/// (the collision-verifying hit path stores it next to every entry)
/// use this directly instead of re-deriving it.
#[must_use]
pub fn key_for_text(canonical: &str) -> CacheKey {
    CacheKey(fnv1a_128(canonical.as_bytes()))
}

/// The content-addressed key of a request (see the module docs for what
/// is and is not part of the identity).
///
/// FNV-1a is non-cryptographic: two *different* canonical texts can —
/// accidentally or by construction — hash to the same 128-bit key.
/// The cache therefore never trusts the key alone; every stored entry
/// carries its canonical text and a hit compares it (mismatch = miss).
#[must_use]
pub fn request_key(request: &GenerateRequest) -> CacheKey {
    key_for_text(&canonical_key_text(request))
}

#[cfg(test)]
mod tests {
    use super::*;
    use marchgen_json::FromJson;

    #[test]
    fn hex_roundtrip() {
        let key = CacheKey(0x0123_4567_89ab_cdef_0011_2233_4455_6677);
        let text = key.to_string();
        assert_eq!(text.len(), 32);
        assert_eq!(CacheKey::from_hex(&text), Some(key));
        assert_eq!(CacheKey::from_hex("xyz"), None);
        assert_eq!(CacheKey::from_hex(""), None);
    }

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a 128 reference values.
        assert_eq!(fnv1a_128(b""), FNV_OFFSET_128);
        assert_ne!(fnv1a_128(b"a"), fnv1a_128(b"b"));
    }

    /// The text is the normalized request's: shuffled and repeated
    /// faults and zero caps key as their normalized form does.
    #[test]
    fn key_text_is_the_normalized_requests() {
        let mut raw = GenerateRequest::from_fault_list("CFin<u>, SAF, TF<d>, SA0, CFid").unwrap();
        raw.tour_cap = 0;
        raw.max_combinations = 0;
        for request in [
            raw.clone(),
            raw.clone().with_verify_cells(0).with_compact(false),
            GenerateRequest::from_fault_list("LCF, dDRDF, ADF, SOF, SAF").unwrap(),
            GenerateRequest::default(),
        ] {
            assert_eq!(
                canonical_key_text(&request),
                canonical_key_text(&request.clone().normalize())
            );
        }
        assert!(canonical_key_text(&raw).contains(";tour_cap=1;"));
        assert!(canonical_key_text(&raw).ends_with(";max_combinations=1"));
    }

    #[test]
    fn permuted_fault_lists_share_a_key() {
        let a = GenerateRequest::from_fault_list("SAF, TF, CFin").unwrap();
        let b = GenerateRequest::from_fault_list("CFin, SAF, TF").unwrap();
        assert_ne!(a.faults, b.faults);
        assert_eq!(request_key(&a), request_key(&b));
    }

    /// Neither the execution knob `search_threads` nor the retired
    /// `verifier` key of a request document, whichever name it carries,
    /// changes the key text.
    #[test]
    fn execution_knobs_do_not_change_the_key() {
        let base = GenerateRequest::from_fault_list("SAF, CFid").unwrap();
        let tweaked = base.clone().with_search_threads(7);
        assert_eq!(request_key(&base), request_key(&tweaked));
        for name in ["auto", "scalar", "bitsim", "wide"] {
            let doc = format!(r#"{{"faults": ["SAF", "CFid"], "verifier": "{name}"}}"#);
            let carrying = GenerateRequest::from_json_str(&doc).unwrap();
            assert_eq!(
                canonical_key_text(&carrying),
                canonical_key_text(&base),
                "{name}"
            );
        }
    }

    #[test]
    fn schema_tag_is_stamped_and_versions_never_collide() {
        let request = GenerateRequest::from_fault_list("SAF, TF").unwrap();
        assert!(
            canonical_key_text(&request).starts_with("marchgen-cache/v3;"),
            "{}",
            canonical_key_text(&request)
        );
        assert_ne!(
            request_key(&request),
            previous_schema_key(&request),
            "a schema bump must invalidate every persisted key"
        );
    }

    #[test]
    fn extended_fault_classes_key_distinctly() {
        let a = GenerateRequest::from_fault_list("dRDF<0>").unwrap();
        let b = GenerateRequest::from_fault_list("dDRDF<0>").unwrap();
        let c = GenerateRequest::from_fault_list("LCF<0>").unwrap();
        assert_ne!(request_key(&a), request_key(&b));
        assert_ne!(request_key(&a), request_key(&c));
    }

    #[test]
    fn semantic_fields_change_the_key() {
        let base = GenerateRequest::from_fault_list("SAF").unwrap();
        let variants = [
            GenerateRequest::from_fault_list("SAF, TF").unwrap(),
            base.clone().with_verify_cells(6),
            base.clone().with_compact(false),
            base.clone().with_tour_cap(7),
            base.clone().with_max_combinations(9),
            base.clone().with_check_redundancy(true),
        ];
        for variant in &variants {
            assert_ne!(
                request_key(&base),
                request_key(variant),
                "{}",
                canonical_key_text(variant)
            );
        }
    }
}
