//! Evaluation harness: the paper's experiment methodology.
//!
//! §III.A of the paper: inject one fault per one-hour application run at a
//! random time, repeat 30–40 runs per fault, and score every localization
//! scheme with precision/recall (Eq. 1), sweeping scheme thresholds to
//! trace ROC curves. This crate reproduces that methodology over the
//! simulator:
//!
//! * [`case_from_run`] turns a simulated [`fchain_sim::RunRecord`] into the
//!   [`fchain_core::CaseData`] a localizer consumes — including running
//!   black-box dependency discovery on the pre-fault packet trace;
//! * [`OracleProbe`] adapts the simulator's scaling oracle to FChain's
//!   online-validation interface;
//! * [`Counts`] accumulates true/false positives/negatives and computes
//!   precision and recall;
//! * [`Campaign`] runs N seeded runs of one (application, fault) pair and
//!   scores any set of [`fchain_core::Localizer`]s on them, in parallel;
//! * [`DegradedCampaign`] sweeps the *slave-loss* rate — crashing a seeded
//!   subset of the per-host slave daemons — and reports how precision,
//!   recall and diagnosis coverage degrade;
//! * [`FleetCampaign`] drains concurrent SLO violations from many tenant
//!   applications through one [`fchain_core::FleetMaster`] over a shared
//!   daemon pool, measuring diagnoses/sec and p50/p99 violation-to-report
//!   latency;
//! * [`render`] prints the text tables the benchmark targets emit.

#![deny(missing_docs)]
// The fleet bench JSON rows grew past the vendored `json!` macro's
// default expansion depth.
#![recursion_limit = "256"]
#![deny(missing_debug_implementations)]

pub mod attribution;
mod campaign;
mod casegen;
mod degraded;
mod fleet;
mod probe;
mod roc;
mod score;

pub mod render;

pub use attribution::{attribute, AttributionReport, Divergence, TenantAttribution};
pub use campaign::{Campaign, CampaignResult, CaseOutcome};
pub use casegen::case_from_run;
pub use degraded::{DegradedCampaign, DegradedPoint};
pub use fleet::{FleetCampaign, FleetResult, TenantOutcome, SLOW_FAULT_LOOKBACK};
pub use probe::OracleProbe;
pub use roc::{RocCurve, RocPoint};
pub use score::Counts;
