//! Property tests for the obs primitives:
//! histogram merge is associative and commutative, counters stay exact
//! under multi-thread contention, and spans never report a negative or
//! wrapping duration.

use fchain_obs::{Histogram, StageSnapshot};
use proptest::prelude::*;

/// Materializes a histogram from a list of samples.
fn hist_of(values: &[u64]) -> Histogram {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// A histogram's observable state, for equality checks.
fn state(h: &Histogram) -> (Vec<u64>, u64, u64, u64, u64) {
    h.load()
}

// Bound samples so sums stay far from u64 overflow: real samples are span
// durations in ns, and the registry never sees anywhere near 2^40 of them.
fn samples() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..=1 << 40, 0..64)
}

proptest! {
    #[test]
    fn histogram_merge_is_commutative(a in samples(), b in samples()) {
        let ab = hist_of(&a);
        ab.merge_from(&hist_of(&b));
        let ba = hist_of(&b);
        ba.merge_from(&hist_of(&a));
        prop_assert_eq!(state(&ab), state(&ba));
    }

    #[test]
    fn histogram_merge_is_associative(
        a in samples(),
        b in samples(),
        c in samples(),
    ) {
        // (a + b) + c
        let left = hist_of(&a);
        left.merge_from(&hist_of(&b));
        left.merge_from(&hist_of(&c));
        // a + (b + c)
        let bc = hist_of(&b);
        bc.merge_from(&hist_of(&c));
        let right = hist_of(&a);
        right.merge_from(&bc);
        prop_assert_eq!(state(&left), state(&right));
    }

    #[test]
    fn histogram_merge_equals_recording_everything_in_one(
        a in samples(),
        b in samples(),
    ) {
        let merged = hist_of(&a);
        merged.merge_from(&hist_of(&b));
        let mut all = a.clone();
        all.extend_from_slice(&b);
        prop_assert_eq!(state(&merged), state(&hist_of(&all)));
    }

    #[test]
    fn snapshot_merge_is_commutative(a in samples(), b in samples()) {
        let snap = |vals: &[u64]| -> StageSnapshot {
            let (buckets, count, total_ns, min_ns, max_ns) = hist_of(vals).load();
            StageSnapshot { stage: "p".into(), count, total_ns, min_ns, max_ns, buckets }
        };
        let mut ab = snap(&a);
        ab.merge(&snap(&b));
        let mut ba = snap(&b);
        ba.merge(&snap(&a));
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn concurrent_recording_loses_nothing(
        per_thread in proptest::collection::vec(samples(), 1..5),
    ) {
        let shared = Histogram::new();
        std::thread::scope(|scope| {
            for chunk in &per_thread {
                let shared = &shared;
                scope.spawn(move || {
                    for &v in chunk {
                        shared.record(v);
                    }
                });
            }
        });
        let expected: u64 = per_thread.iter().map(|c| c.len() as u64).sum();
        let (buckets, count, sum, _, _) = shared.load();
        prop_assert_eq!(count, expected);
        prop_assert_eq!(buckets.iter().sum::<u64>(), expected);
        let expected_sum: u64 = per_thread.iter().flatten().sum();
        prop_assert_eq!(sum, expected_sum);
    }
}

/// Counters are exact under N-thread contention: every `count()` call from
/// every thread lands, none double.
#[test]
fn registry_counters_exact_under_contention() {
    use fchain_obs as obs;
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    let before = obs::snapshot();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..PER_THREAD {
                    obs::count(obs::Counter::MetricsAnalyzed, 1);
                }
            });
        }
    });
    let delta = obs::snapshot().delta_since(&before);
    assert_eq!(
        delta.counter(obs::Counter::MetricsAnalyzed),
        THREADS * PER_THREAD
    );
}

/// A recorded span duration is never negative (impossible by type) and
/// never wraps into an absurd value: every span recorded here is bounded
/// by the test's own wall-clock run time.
#[test]
fn span_durations_never_wrap() {
    use fchain_obs as obs;
    const SPANS: u64 = 200;
    let wall = std::time::Instant::now();
    let before = obs::snapshot();
    for i in 0..SPANS {
        let span = obs::time(obs::Stage::EvalRun);
        std::hint::black_box(i * i);
        drop(span);
    }
    let wall_ns = wall.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    let delta = obs::snapshot().delta_since(&before);
    let stage = delta.stage(obs::Stage::EvalRun).unwrap();
    assert_eq!(stage.count, SPANS);
    assert!(
        stage.total_ns <= wall_ns,
        "spans summed to {} ns but the whole loop took {} ns",
        stage.total_ns,
        wall_ns
    );
    // Lifetime max is still a real observation from this process, so it
    // cannot exceed the process's run time either (no wraparound).
    assert!(stage.max_ns <= wall_ns);
}

/// `Span::elapsed_ns` is monotone — a later reading is never smaller.
#[test]
fn span_elapsed_is_monotone() {
    use fchain_obs as obs;
    // Its own stage: `span_durations_never_wrap` counts exact EvalRun
    // deltas while this test may run concurrently.
    let span = obs::time(obs::Stage::ChaosScenario);
    let mut last = 0u64;
    for _ in 0..100 {
        let now = span.elapsed_ns();
        assert!(now >= last);
        last = now;
    }
}
