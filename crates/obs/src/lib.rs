//! Zero-allocation instrumentation for the FChain diagnosis pipeline.
//!
//! The crate is a static registry of atomic [`Counter`]s and per-[`Stage`]
//! log2 latency [`Histogram`]s, plus scoped [`Span`] timers that record on
//! drop. Design constraints, in order:
//!
//! 1. **Hot-path cost ~zero.** Recording is a few relaxed atomic RMWs on
//!    `static` storage — no allocation, no locks, no syscalls.
//! 2. **Fixed shape.** [`snapshot()`] returns every stage and counter,
//!    recorded or not, so report schemas never change.
//! 3. **Determinism-safe.** Instrumentation observes the pipeline, never
//!    steers it: snapshots live beside reports, never inside them, and a
//!    runtime kill switch ([`set_enabled`]) lets one binary measure its
//!    own overhead.
//!
//! ```
//! use fchain_obs as obs;
//!
//! {
//!     let _span = obs::time(obs::Stage::SlaveRollback);
//!     // ... work being timed ...
//! } // span records its duration here
//! obs::count(obs::Counter::ChangePointsAccepted, 1);
//!
//! let snap = obs::snapshot();
//! assert_eq!(snap.stages.len(), obs::Stage::ALL.len());
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod hist;
pub mod snapshot;
pub mod stage;

pub use hist::{bucket_of, Histogram, BUCKETS};
pub use snapshot::{CounterSnapshot, PipelineSnapshot, StageSnapshot};
pub use stage::{Counter, Stage};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

// The static registry backing every counter and stage histogram. All
// storage is `static` and atomic — recording is allocation-free and
// lock-free from any thread.

/// Runtime kill switch, on by default.
static ENABLED: AtomicBool = AtomicBool::new(true);

static COUNTERS: [AtomicU64; Counter::ALL.len()] =
    [const { AtomicU64::new(0) }; Counter::ALL.len()];

static STAGES: [Histogram; Stage::ALL.len()] = [const { Histogram::new() }; Stage::ALL.len()];

/// Whether instrumentation is live: the runtime switch ([`set_enabled`])
/// is on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Flips the runtime kill switch. On by default. Used by the
/// `obs_overhead` bench to compare an instrumented and an uninstrumented
/// run of the same binary.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Adds `by` to a pipeline counter.
#[inline]
pub fn count(counter: Counter, by: u64) {
    if enabled() {
        COUNTERS[counter.index()].fetch_add(by, Ordering::Relaxed);
    }
}

/// Records one span duration (in ns) against a stage directly — for call
/// sites that already measured the time themselves.
#[inline]
pub fn record_ns(stage: Stage, ns: u64) {
    if enabled() {
        STAGES[stage.index()].record(ns);
    }
}

/// A scoped stage timer: created by [`time`], records the elapsed
/// wall-clock duration into the stage's histogram when dropped.
///
/// Durations are measured with [`std::time::Instant`], which is monotonic,
/// so a span can never report a negative or wrapping duration; values are
/// clamped into `u64` nanoseconds.
#[derive(Debug)]
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct Span {
    inner: Option<(Stage, Instant)>,
}

impl Span {
    /// The span's duration so far in ns (0 when instrumentation is off).
    /// The span still records the *full* duration on drop.
    pub fn elapsed_ns(&self) -> u64 {
        self.inner
            .map_or(0, |(_, start)| clamp_ns(start.elapsed().as_nanos()))
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((stage, start)) = self.inner.take() {
            record_ns(stage, clamp_ns(start.elapsed().as_nanos()));
        }
    }
}

#[inline]
fn clamp_ns(ns: u128) -> u64 {
    ns.min(u64::MAX as u128) as u64
}

/// Starts timing `stage`; the returned [`Span`] records on drop. When
/// the runtime switch is off the span is inert and costs nothing beyond
/// one atomic load.
#[inline]
pub fn time(stage: Stage) -> Span {
    Span {
        inner: enabled().then(|| (stage, Instant::now())),
    }
}

/// Freezes the whole registry into a serializable [`PipelineSnapshot`].
pub fn snapshot() -> PipelineSnapshot {
    let mut snap = PipelineSnapshot::empty();
    for (slot, out) in STAGES.iter().zip(snap.stages.iter_mut()) {
        let (buckets, count, sum, min, max) = slot.load();
        out.buckets = buckets;
        out.count = count;
        out.total_ns = sum;
        out.min_ns = min;
        out.max_ns = max;
    }
    for (slot, out) in COUNTERS.iter().zip(snap.counters.iter_mut()) {
        out.value = slot.load(Ordering::Relaxed);
    }
    snap
}

/// Clears every counter and histogram back to zero. Tests and the CLI use
/// this; the pipeline itself never resets (deltas are taken with
/// [`PipelineSnapshot::delta_since`] instead, which is race-free).
pub fn reset() {
    for slot in &STAGES {
        slot.reset();
    }
    for slot in &COUNTERS {
        slot.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global, so the tests below run under one
    // lock to avoid cross-talk; each works on deltas from its own baseline
    // where possible and uses `reset()` only behind the lock.
    use std::sync::Mutex;
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn span_records_on_drop() {
        let _guard = LOCK.lock().unwrap();
        reset();
        let before = snapshot();
        {
            let _span = time(Stage::SlaveRollback);
            std::hint::black_box(17u64);
        }
        let delta = snapshot().delta_since(&before);
        assert_eq!(delta.stage(Stage::SlaveRollback).unwrap().count, 1);
    }

    #[test]
    fn counters_accumulate() {
        let _guard = LOCK.lock().unwrap();
        let before = snapshot();
        count(Counter::SlaveQueries, 2);
        count(Counter::SlaveQueries, 3);
        let delta = snapshot().delta_since(&before);
        assert_eq!(delta.counter(Counter::SlaveQueries), 5);
    }

    #[test]
    fn kill_switch_suppresses_recording() {
        let _guard = LOCK.lock().unwrap();
        let before = snapshot();
        set_enabled(false);
        assert!(!enabled());
        count(Counter::EvalRuns, 10);
        {
            let _span = time(Stage::EvalRun);
        }
        record_ns(Stage::EvalRun, 999);
        set_enabled(true);
        let delta = snapshot().delta_since(&before);
        assert_eq!(delta.counter(Counter::EvalRuns), 0);
        assert_eq!(delta.stage(Stage::EvalRun).unwrap().count, 0);
    }

    #[test]
    fn reset_zeroes_the_registry() {
        let _guard = LOCK.lock().unwrap();
        count(Counter::EvalDiagnoses, 1);
        record_ns(Stage::EvalRun, 123);
        reset();
        assert!(snapshot().is_empty());
    }
}
