//! Chaos lab: a seeded generative scenario fuzzer over the whole fault
//! space.
//!
//! The paper's evaluation (§IV) injects one fault per run from a fixed
//! catalogue; the dangerous bugs in a production localizer live in
//! *compositions* that catalogue never exercises — concurrent cascades,
//! correlated cross-tenant faults, master↔pool partitions, flapping
//! SLOs, workload-shift false-alarm traps, and onsets straddling the
//! look-back window edge. This crate turns each of those axes into a
//! scenario [`Family`] and composes them generatively from a single u64
//! seed:
//!
//! * [`plan_scenario`] turns `(campaign_seed, index)` into a fully
//!   explicit [`ScenarioPlan`] — the whole replay contract lives in
//!   those two numbers;
//! * [`execute_plan`] stages the plan on a shared slave-daemon pool
//!   behind a [`fchain_core::FleetMaster`], drains every violation and
//!   scores the reports against the ground truth *visible at* each
//!   violation tick (set semantics);
//! * [`ChaosCampaign`] sweeps N scenarios in parallel and aggregates a
//!   per-family precision/recall/coverage [`ChaosReadiness`] report —
//!   the machine-readable `chaos_readiness.json` CI artifact;
//! * [`minimize`] greedily shrinks a failing scenario to a locally
//!   minimal failing core, the raw material of named regressions
//!   (`tests/chaos_regressions.rs`).

#![deny(missing_docs)]
// The readiness JSON rows exceed the vendored `json!` macro's default
// expansion depth (same as fchain-eval).
#![recursion_limit = "256"]
#![deny(missing_debug_implementations)]

mod campaign;
mod minimize;
mod scenario;

pub use campaign::{
    execute_plan, ChaosCampaign, ChaosReadiness, FamilyReadiness, ScenarioOutcome,
    ViolationOutcome, MANIFEST_GRACE,
};
pub use minimize::{minimize, ShrinkResult};
pub use scenario::{
    plan_scenario, scenario_seed, Family, PartitionMode, PlannedFault, ScenarioPlan, TenantPlan,
    DEFAULT_LOOKBACK, LEGACY_FAMILY_BAND, SCENARIO_DURATION, STRONG_MIX,
};
