//! The batch service layer is observationally equivalent to the
//! single-shot API: running the paper's Table 3 fault lists through
//! `Batch::run` produces the same tests as one `generate` call per
//! request, at the paper's complexities.

use marchgen::prelude::*;
use marchgen::service::BatchEvent;
use marchgen_bench::TABLE3;
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn batch_matches_single_shot_on_table3() {
    let requests: Vec<GenerateRequest> = TABLE3
        .iter()
        .map(|row| GenerateRequest::from_fault_list(row.faults).expect("Table 3 parses"))
        .collect();

    let events = AtomicUsize::new(0);
    let results = Batch::new().run_with_progress(requests.clone(), |event| {
        if matches!(
            event,
            BatchEvent::Finished { .. } | BatchEvent::Failed { .. }
        ) {
            events.fetch_add(1, Ordering::Relaxed);
        }
    });
    assert_eq!(events.load(Ordering::Relaxed), TABLE3.len());

    for ((row, request), batched) in TABLE3.iter().zip(&requests).zip(&results) {
        let batched = batched
            .as_ref()
            .unwrap_or_else(|e| panic!("{}: {e}", row.label));
        let single = generate(request).unwrap();

        assert_eq!(
            batched.complexity(),
            single.test.complexity(),
            "{}: batch and single-shot disagree",
            row.label
        );
        assert_eq!(batched.test, single.test, "{}", row.label);
        assert_eq!(batched.verified, single.verified, "{}", row.label);
        assert!(batched.verified, "{}: must verify", row.label);
        assert_eq!(
            batched.complexity(),
            row.paper_complexity,
            "{}: paper reports {}n",
            row.label,
            row.paper_complexity
        );
    }
}
