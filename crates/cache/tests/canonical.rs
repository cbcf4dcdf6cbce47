//! Property tests (deterministic `marchgen-testkit` harness) for the
//! canonical cache key: permutation- and duplication-invariance over
//! the fault list, default-field omission in JSON documents (the
//! retired `verifier` key included), and sensitivity to every semantic
//! field.

use marchgen_cache::{canonical_key_text, request_key};
use marchgen_faults::FaultModel;
use marchgen_generator::GenerateRequest;
use marchgen_json::{FromJson, ToJson};
use marchgen_testkit::{run_cases, Rng};
use marchgen_tpg::StartPolicy;

fn random_faults(rng: &mut Rng) -> Vec<FaultModel> {
    let all = FaultModel::all_classical();
    rng.vec(1, 8, |rng| *rng.pick(&all))
}

fn shuffled<T: Clone>(rng: &mut Rng, items: &[T]) -> Vec<T> {
    let mut out: Vec<T> = items.to_vec();
    for i in (1..out.len()).rev() {
        out.swap(i, rng.range(0, i + 1));
    }
    out
}

/// Permuting (and duplicating) the fault list never changes the key.
#[test]
fn permutation_and_duplication_invariance() {
    run_cases("cache_key_permutation_invariance", 128, |rng| {
        let faults = random_faults(rng);
        let base = GenerateRequest::new(faults.clone());
        let permuted = GenerateRequest::new(shuffled(rng, &faults));
        assert_eq!(
            request_key(&base),
            request_key(&permuted),
            "{} vs {}",
            canonical_key_text(&base),
            canonical_key_text(&permuted)
        );

        // Duplicating a random entry is also identity-preserving.
        let mut duplicated = faults.clone();
        duplicated.push(*rng.pick(&faults));
        assert_eq!(
            request_key(&base),
            request_key(&GenerateRequest::new(shuffled(rng, &duplicated)))
        );
    });
}

/// A JSON document that spells out the defaults keys identically to
/// one that omits them (the `Default`-consistency regression, driven
/// through random fault lists), whichever name the retired `verifier`
/// key it also carries holds: the key text is byte-identical.
#[test]
fn default_field_omission_matches_explicit_defaults() {
    run_cases("cache_key_default_omission", 64, |rng| {
        let faults = random_faults(rng);
        let names: Vec<String> = faults.iter().map(|m| format!("{:?}", m.name())).collect();
        let list = names.join(", ");
        let terse = GenerateRequest::from_json_str(&format!("{{\"faults\": [{list}]}}"))
            .expect("terse document decodes");
        for verifier in ["auto", "scalar", "bitsim", "wide"] {
            let spelled = GenerateRequest::from_json_str(&format!(
                "{{\"faults\": [{list}], \"verifier\": \"{verifier}\", \"search_threads\": 0, \
                  \"solver\": \"auto\", \"start_policy\": \"uniform\", \"tour_cap\": 64, \
                  \"verify_cells\": 4, \"compact\": true, \"check_redundancy\": false, \
                  \"max_combinations\": 4096}}"
            ))
            .expect("spelled-out document decodes");
            assert_eq!(terse, spelled, "{verifier}");
            assert_eq!(
                canonical_key_text(&terse),
                canonical_key_text(&spelled),
                "{verifier}"
            );
        }
    });
}

/// Every semantic field change moves the key; the execution knob
/// (search threads) never does.
#[test]
fn semantic_fields_move_the_key_execution_knobs_do_not() {
    run_cases("cache_key_semantic_sensitivity", 128, |rng| {
        let base = GenerateRequest::new(random_faults(rng));
        let key = request_key(&base);

        let semantic: Vec<GenerateRequest> = vec![
            {
                // Adding a model not already present changes the set.
                let all = FaultModel::all_classical();
                let extra = *rng.pick(&all);
                let mut faults = base.faults.clone();
                if faults.contains(&extra) {
                    GenerateRequest::new(Vec::new()) // sentinel, differs too
                } else {
                    faults.push(extra);
                    GenerateRequest::new(faults)
                }
            },
            base.clone().with_start_policy(StartPolicy::Free),
            base.clone().with_tour_cap(base.tour_cap + rng.range(1, 50)),
            base.clone()
                .with_verify_cells(base.verify_cells + rng.range(1, 4)),
            base.clone().with_compact(!base.compact),
            base.clone().with_check_redundancy(!base.check_redundancy),
            base.clone()
                .with_max_combinations(base.max_combinations + rng.range(1, 50)),
        ];
        for variant in &semantic {
            assert_ne!(
                request_key(variant),
                key,
                "semantic change must move the key: {}",
                canonical_key_text(variant)
            );
        }

        assert_eq!(
            request_key(&base.clone().with_search_threads(rng.range(1, 16))),
            key,
            "search threads are outcome-invariant and must share the key"
        );
    });
}

/// The key text itself is canonical: normalizing twice changes nothing,
/// and the key survives a JSON round-trip of the request.
#[test]
fn key_is_stable_under_roundtrip_and_renormalization() {
    run_cases("cache_key_roundtrip_stability", 64, |rng| {
        let request = GenerateRequest::new(random_faults(rng));
        let normalized = request.clone().normalize();
        assert_eq!(request_key(&request), request_key(&normalized));
        assert_eq!(normalized.clone().normalize(), normalized);

        let back = GenerateRequest::from_json_str(&request.to_json_string()).unwrap();
        assert_eq!(request_key(&back), request_key(&request));
    });
}
