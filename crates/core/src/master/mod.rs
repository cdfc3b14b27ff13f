//! FChain master modules: integrated fault diagnosis and online
//! pinpointing validation (paper §II.A, §II.C).
//!
//! The master runs on a dedicated server. When the application's SLO is
//! violated it collects every slave's abnormal change findings, derives
//! the abnormal change propagation pattern by sorting onset times,
//! pinpoints the culprit component(s), and optionally validates each
//! pinpointing by scaling the implicated resource and watching the SLO.

pub mod endpoint;
pub mod ensemble;
pub mod fleet;
pub mod orchestrator;
pub mod pinpoint;
pub mod validation;

pub use endpoint::{
    CollectRequest, FaultySlave, SlaveEndpoint, SlaveError, SlaveFault, SlaveFaultSchedule,
    TenantSlave,
};
pub use ensemble::{ensemble_pinpoint, EnsembleInput};
pub use fleet::{FleetMaster, FleetReport, FleetViolation};
pub use orchestrator::Master;
