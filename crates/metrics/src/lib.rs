//! Metric time-series foundation for the FChain fault-localization
//! reproduction.
//!
//! FChain ("FChain: Toward Black-box Online Fault Localization for Cloud
//! Systems", ICDCS 2013) consumes only *system-level* metrics sampled once
//! per second from each virtual machine: CPU usage, memory usage, network
//! in/out, and disk read/write. This crate provides everything the rest of
//! the workspace needs to represent and manipulate those signals:
//!
//! * [`MetricKind`] / [`ComponentId`] / [`MetricId`] — typed identifiers for
//!   "which signal on which VM".
//! * [`TimeSeries`] — a contiguous 1 Hz sample vector anchored at a start
//!   tick, with windowing and slicing helpers.
//! * [`RingBuffer`] — fixed-capacity recent-history buffer used by the
//!   online slave modules.
//! * [`TieredSeries`] — the same logical window split into a raw hot
//!   suffix plus Gorilla-compressed cold blocks ([`gorilla`]), with
//!   bit-identical reads, so long look-back windows over tens of
//!   thousands of components fit in memory.
//! * [`PercentileSketch`] — exact sliding-window upper-tail order
//!   statistics, the incrementally maintained expected-error anchor of the
//!   streaming analysis engine.
//! * [`stats`] — descriptive statistics (mean, variance, percentiles,
//!   histograms, Kullback–Leibler divergence).
//! * [`smooth`] — moving-average smoothing (PAL-style noise removal).
//! * [`tangent`] — local slope estimation used by FChain's tangent-based
//!   onset rollback.
//! * [`fft`] — a self-contained radix-2 FFT/IFFT and the burst-signal
//!   synthesis FChain uses to derive adaptive prediction-error thresholds.
//!
//! # Examples
//!
//! ```
//! use fchain_metrics::{MetricKind, TimeSeries};
//!
//! let mut ts = TimeSeries::new(0);
//! for t in 0..10 {
//!     ts.push(t as f64);
//! }
//! assert_eq!(ts.len(), 10);
//! assert_eq!(ts.window(3, 6), &[3.0, 4.0, 5.0, 6.0][..1 + 6 - 3]);
//! assert_eq!(MetricKind::ALL.len(), 6);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod kinds;
mod ring;
mod series;
mod sketch;
mod tiered;

pub mod fft;
pub mod gorilla;
pub mod smooth;
pub mod stats;
pub mod tangent;

pub use kinds::{AppId, AppRegistry, ComponentId, MetricId, MetricKind};
pub use ring::RingBuffer;
pub use series::TimeSeries;
pub use sketch::PercentileSketch;
pub use tiered::{TieredRange, TieredSeries, COLD_BLOCK_SAMPLES};

/// Simulation/monitoring time in whole seconds since the start of a run.
///
/// The paper samples every metric at a 1-second interval, so one tick is one
/// sample. All window parameters (look-back window `W`, burst window `Q`,
/// concurrency threshold) are expressed in ticks.
pub type Tick = u64;
