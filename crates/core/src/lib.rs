//! FChain: black-box online fault localization for cloud systems.
//!
//! This crate implements the paper's contribution (Nguyen, Shen, Tan, Gu —
//! ICDCS 2013): given only per-VM system-metric time series and the time
//! `t_v` at which an SLO violation was detected, pinpoint the faulty
//! component(s) of a distributed application. The pipeline is:
//!
//! 1. **Normal fluctuation modeling** (slave, continuous): an online
//!    Markov-chain predictor per metric learns the normal pattern
//!    ([`fchain_model`]).
//! 2. **Abnormal change point selection** (slave, on demand): CUSUM +
//!    bootstrap finds candidate change points in the look-back window
//!    `[t_v − W, t_v]`; smoothing and magnitude-outlier filtering remove
//!    noise; the **predictability filter** keeps only change points whose
//!    prediction error exceeds a *burst-adaptive* threshold synthesized
//!    with an FFT over the surrounding samples ([`slave`]).
//! 3. **Tangent-based rollback** pins the precise onset of each abnormal
//!    change.
//! 4. **Integrated pinpointing** (master): components are sorted by onset;
//!    the earliest is the culprit; closely-timed onsets are concurrent
//!    faults; a uniform trend across all components indicates an external
//!    factor; dependency information prunes spurious propagation between
//!    independent components ([`master`]).
//! 5. **Online validation** (master, optional): scale the fault-related
//!    resource on each pinpointed component and keep only those whose
//!    scaling improves the SLO.
//!
//! # Examples
//!
//! ```
//! use fchain_core::{CaseData, ComponentCase, FChain, FChainConfig};
//! use fchain_metrics::{ComponentId, MetricKind, TimeSeries};
//!
//! // Two components; component 1 jumps to unseen CPU values at t=880.
//! let normal = |seed: u64| -> Vec<f64> {
//!     (0..1000).map(|t| 30.0 + ((t + seed) % 7) as f64).collect()
//! };
//! let mut faulty = normal(3);
//! for (t, v) in faulty.iter_mut().enumerate() {
//!     if t >= 880 {
//!         *v += 55.0;
//!     }
//! }
//! let mk = |vals: Vec<f64>| {
//!     let mut m: Vec<TimeSeries> = (0..6).map(|_| TimeSeries::from_samples(0, vec![1.0; 1000])).collect();
//!     m[MetricKind::Cpu.index()] = TimeSeries::from_samples(0, vals);
//!     m
//! };
//! let case = CaseData {
//!     violation_at: 950,
//!     lookback: 100,
//!     components: vec![
//!         ComponentCase { id: ComponentId(0), name: "ok".into(), metrics: mk(normal(0)) },
//!         ComponentCase { id: ComponentId(1), name: "bad".into(), metrics: mk(faulty) },
//!     ],
//!     known_topology: None,
//!     discovered_deps: None,
//!     frontend: None,
//! };
//! let report = FChain::new(FChainConfig::default()).diagnose(&case);
//! assert_eq!(report.pinpointed, vec![ComponentId(1)]);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod case;
mod config;
mod fchain;
mod localizer;
mod report;

pub mod master;
pub mod slave;

pub use case::{CaseData, ComponentCase};
pub use config::{
    AnalysisEngine, EnsembleConfig, FChainConfig, LookbackRetry, Transport, MAX_LOOKBACK,
    MIN_LOOKBACK,
};
pub use fchain::FChain;
pub use localizer::Localizer;
pub use master::endpoint::{
    CollectRequest, FaultySlave, SlaveEndpoint, SlaveError, SlaveFault, SlaveFaultSchedule,
    TenantSlave,
};
pub use master::ensemble::{ensemble_pinpoint, EnsembleInput};
pub use master::fleet::{FleetMaster, FleetReport, FleetViolation};
pub use master::pinpoint::{pinpoint, PinpointInput};
pub use master::validation::{validate_pinpointing, ValidationProbe};
pub use report::{
    AbnormalChange, ComponentFinding, DiagnosisCoverage, DiagnosisReport, SlaveStatus, Verdict,
};
