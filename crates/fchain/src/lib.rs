//! # FChain — black-box online fault localization for cloud systems
//!
//! A from-scratch Rust reproduction of *"FChain: Toward Black-box Online
//! Fault Localization for Cloud Systems"* (Nguyen, Shen, Tan, Gu — ICDCS
//! 2013), including every substrate its evaluation depends on. This
//! facade crate re-exports the whole workspace behind one import:
//!
//! * [`core`] — the FChain system itself: online normal-fluctuation
//!   modeling, predictability-based abnormal change point selection with
//!   burst-adaptive thresholds, tangent rollback, integrated pinpointing,
//!   online validation.
//! * [`sim`] — a deterministic discrete-time cloud testbed with the three
//!   benchmark applications (RUBiS, Hadoop, IBM System S), workload
//!   traces, fault injection and SLO monitoring.
//! * [`baselines`] — the six comparison schemes of the paper's §III.
//! * [`eval`] — campaigns, precision/recall scoring, result rendering.
//! * [`metrics`], [`model`], [`detect`], [`deps`] — the numeric and
//!   algorithmic building blocks.
//! * [`obs`] — pipeline observability: stage timings and counters,
//!   always compiled in, with a runtime switch to stop recording.
//! * [`wire`] — the master↔slave wire protocol: compact binary framing,
//!   the `fchaind` daemon's serving loop, and the remote-slave client
//!   that lets a master fan out over Unix-domain or TCP sockets.
//!
//! # Examples
//!
//! Diagnose a simulated fault end to end:
//!
//! ```
//! use fchain::core::{FChain, Verdict};
//! use fchain::eval::case_from_run;
//! use fchain::sim::{AppKind, FaultKind, RunConfig, Simulator};
//!
//! let run = Simulator::new(
//!     RunConfig::new(AppKind::Rubis, FaultKind::CpuHog, 7).with_duration(1500),
//! )
//! .run();
//! let case = case_from_run(&run, 100).expect("SLO violation");
//! let report = FChain::default().diagnose(&case);
//! assert_eq!(report.verdict, Verdict::Faulty);
//! ```

#![deny(missing_docs)]

pub use fchain_baselines as baselines;
pub use fchain_core as core;
pub use fchain_deps as deps;
pub use fchain_detect as detect;
pub use fchain_eval as eval;
pub use fchain_metrics as metrics;
pub use fchain_model as model;
pub use fchain_obs as obs;
pub use fchain_sim as sim;
pub use fchain_wire as wire;
