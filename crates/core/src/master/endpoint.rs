//! The master–slave boundary, made fallible.
//!
//! The paper's master "first contacts the slaves on all related
//! distributed hosts" (§II.C) and its testbed assumes every one of them
//! answers instantly and completely. In a real cloud some slaves are
//! crashed, stalled or partitioned at exactly the moment the SLO
//! violation fires. [`SlaveEndpoint`] is the narrow interface the master
//! fans out over — [`crate::slave::SlaveDaemon`] implements it for the
//! in-process case — and [`FaultySlave`] wraps any endpoint with an
//! injected fault so the degraded-mode fan-out can be exercised and
//! tested deterministically.

use crate::report::ComponentFinding;
use crate::slave::SlaveDaemon;
use fchain_metrics::{AppId, ComponentId, Tick};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Why a slave failed to answer a findings request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlaveError {
    /// The host is crashed or partitioned: the call failed fast and a
    /// retry is pointless.
    Unreachable,
    /// A momentary failure (dropped connection, daemon restarting): a
    /// bounded retry with backoff may succeed.
    Transient,
}

impl std::fmt::Display for SlaveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlaveError::Unreachable => write!(f, "slave unreachable"),
            SlaveError::Transient => write!(f, "transient slave error"),
        }
    }
}

impl std::error::Error for SlaveError {}

/// The one question the master asks a slave on an SLO violation:
/// "analyze the look-back window ending at `violation_at`" (paper
/// §II.C). The wire protocol carries the same fields in its
/// `CollectRequest` frame.
///
/// # Examples
///
/// ```
/// use fchain_core::CollectRequest;
///
/// let plain = CollectRequest::at(990);
/// assert_eq!(plain.lookback, None);
/// let widened = CollectRequest { lookback: Some(400), ..plain };
/// assert_eq!(widened.violation_at, 990);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectRequest {
    /// End of the look-back window (the violation time).
    pub violation_at: Tick,
    /// Per-call look-back window override; `None` analyzes at the
    /// slave's configured window. This is how the fleet serves a tenant
    /// whose fault profile needs a longer `W` than the pool daemons are
    /// configured with.
    pub lookback: Option<u64>,
}

impl CollectRequest {
    /// The plain request: the slave's configured window.
    pub const fn at(violation_at: Tick) -> Self {
        CollectRequest {
            violation_at,
            lookback: None,
        }
    }
}

/// One per-host slave as the master sees it over the (possibly failing)
/// network.
///
/// The split between the infallible registry call and the fallible
/// analysis call mirrors deployment: the master learned which components
/// a slave monitors when the slave registered, so that knowledge survives
/// the slave's crash — it is exactly what lets a degraded report name its
/// blind spot ([`crate::DiagnosisCoverage::unreachable_components`]).
pub trait SlaveEndpoint: Send + Sync + std::fmt::Debug {
    /// The components this slave monitors, from the master's registry.
    /// Answerable even when the slave itself is down.
    fn monitored_components(&self) -> Vec<ComponentId>;

    /// Answers `request` from the slave's host.
    fn collect(&self, request: &CollectRequest) -> Result<Vec<ComponentFinding>, SlaveError>;
}

impl SlaveEndpoint for SlaveDaemon {
    fn monitored_components(&self) -> Vec<ComponentId> {
        self.monitored_components()
    }

    fn collect(&self, request: &CollectRequest) -> Result<Vec<ComponentFinding>, SlaveError> {
        Ok(self.analyze_all(None, request))
    }
}

/// One tenant application's view of a shared, multi-tenant
/// [`SlaveDaemon`] pool.
///
/// A fleet deployment runs one daemon per cloud node hosting metric
/// state for many applications (shard key `(AppId, ComponentId)`); each
/// tenant's master fans out over `TenantSlave` handles that scope every
/// call to that tenant's shards. Two tenants sharing a daemon never see
/// each other's components.
///
/// # Examples
///
/// ```
/// use fchain_core::master::endpoint::{SlaveEndpoint, TenantSlave};
/// use fchain_core::slave::{MetricSample, SlaveDaemon};
/// use fchain_core::FChainConfig;
/// use fchain_metrics::{AppId, ComponentId, MetricKind};
/// use std::sync::Arc;
///
/// let pool = Arc::new(SlaveDaemon::new(FChainConfig::default()));
/// pool.ingest_for(AppId(1), MetricSample {
///     tick: 0, component: ComponentId(0), kind: MetricKind::Cpu, value: 40.0,
/// });
/// let view = TenantSlave::new(Arc::clone(&pool), AppId(1));
/// assert_eq!(view.monitored_components(), vec![ComponentId(0)]);
/// let other = TenantSlave::new(pool, AppId(2));
/// assert!(other.monitored_components().is_empty());
/// ```
#[derive(Debug)]
pub struct TenantSlave {
    daemon: Arc<SlaveDaemon>,
    app: AppId,
}

impl TenantSlave {
    /// A view of `daemon` scoped to tenant `app`.
    pub fn new(daemon: Arc<SlaveDaemon>, app: AppId) -> Self {
        TenantSlave { daemon, app }
    }

    /// The tenant this view is scoped to.
    pub fn app(&self) -> AppId {
        self.app
    }
}

impl SlaveEndpoint for TenantSlave {
    fn monitored_components(&self) -> Vec<ComponentId> {
        self.daemon.monitored_components_for(self.app)
    }

    fn collect(&self, request: &CollectRequest) -> Result<Vec<ComponentFinding>, SlaveError> {
        Ok(self.daemon.analyze_all(Some(self.app), request))
    }
}

/// An injected slave-side fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SlaveFault {
    /// The slave behaves normally.
    None,
    /// The host crashed or is partitioned away: every call fails fast
    /// with [`SlaveError::Unreachable`].
    Crash,
    /// Straggler: every call answers correctly, but only after `delay`.
    /// Against a fan-out deadline shorter than the delay the slave is
    /// abandoned; against a longer one it merely slows the diagnosis.
    Stall {
        /// Added latency per call.
        delay: Duration,
    },
    /// The slave's monitoring lost the tail of the window (its collector
    /// died `missing_ticks` before the violation): it answers with the
    /// findings of the shortened window it actually has.
    PartialWindow {
        /// How many ticks of data before `violation_at` are missing.
        missing_ticks: u64,
    },
    /// The first `failures` calls fail with [`SlaveError::Transient`]
    /// (daemon restarting); later calls succeed.
    Transient {
        /// Number of leading calls that fail.
        failures: u32,
    },
}

/// A [`SlaveEndpoint`] wrapper that injects one [`SlaveFault`].
///
/// # Examples
///
/// ```
/// use fchain_core::master::endpoint::{FaultySlave, SlaveEndpoint, SlaveError, SlaveFault};
/// use fchain_core::slave::SlaveDaemon;
/// use fchain_core::{CollectRequest, FChainConfig};
/// use std::sync::Arc;
///
/// let daemon = Arc::new(SlaveDaemon::new(FChainConfig::default()));
/// let crashed = FaultySlave::new(daemon, SlaveFault::Crash);
/// assert_eq!(
///     crashed.collect(&CollectRequest::at(100)),
///     Err(SlaveError::Unreachable)
/// );
/// ```
#[derive(Debug)]
pub struct FaultySlave {
    inner: Arc<dyn SlaveEndpoint>,
    fault: SlaveFault,
    /// Calls observed so far (drives [`SlaveFault::Transient`]).
    calls: AtomicU32,
}

impl FaultySlave {
    /// Wraps `inner` with the given fault.
    pub fn new(inner: Arc<dyn SlaveEndpoint>, fault: SlaveFault) -> Self {
        FaultySlave {
            inner,
            fault,
            calls: AtomicU32::new(0),
        }
    }

    /// The injected fault.
    pub fn fault(&self) -> SlaveFault {
        self.fault
    }

    /// How many analysis calls reached this wrapper (including failed
    /// ones) — lets tests assert the master's retry discipline.
    pub fn calls(&self) -> u32 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl SlaveEndpoint for FaultySlave {
    fn monitored_components(&self) -> Vec<ComponentId> {
        // Registry knowledge: survives the slave's crash.
        self.inner.monitored_components()
    }

    fn collect(&self, request: &CollectRequest) -> Result<Vec<ComponentFinding>, SlaveError> {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        match self.fault {
            SlaveFault::None => self.inner.collect(request),
            SlaveFault::Crash => Err(SlaveError::Unreachable),
            SlaveFault::Stall { delay } => {
                std::thread::sleep(delay);
                self.inner.collect(request)
            }
            SlaveFault::PartialWindow { missing_ticks } => self.inner.collect(&CollectRequest {
                violation_at: request.violation_at.saturating_sub(missing_ticks),
                ..*request
            }),
            SlaveFault::Transient { failures } if call < failures => Err(SlaveError::Transient),
            SlaveFault::Transient { .. } => self.inner.collect(request),
        }
    }
}

/// A deterministic, seeded fault schedule over a fleet of slaves.
///
/// Maps each slave index to a [`SlaveFault`] using a splitmix64 stream of
/// the seed, so the same `(seed, loss_rate)` pair always produces the
/// same schedule — the determinism contract the degraded-mode tests and
/// the slave-loss eval campaign rely on.
///
/// # Examples
///
/// ```
/// use fchain_core::master::endpoint::{SlaveFault, SlaveFaultSchedule};
///
/// let schedule = SlaveFaultSchedule::crashes(7, 0.5);
/// let a: Vec<SlaveFault> = (0..8).map(|i| schedule.fault_for(i)).collect();
/// let b: Vec<SlaveFault> = (0..8).map(|i| schedule.fault_for(i)).collect();
/// assert_eq!(a, b, "same seed, same schedule");
/// assert!(a.iter().any(|f| *f == SlaveFault::Crash));
/// assert!(a.iter().any(|f| *f == SlaveFault::None));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SlaveFaultSchedule {
    seed: u64,
    /// Probability that a slave is crashed at diagnosis time.
    loss_rate: f64,
}

impl SlaveFaultSchedule {
    /// A schedule crashing each slave independently with probability
    /// `loss_rate` (clamped to `[0, 1]`).
    pub fn crashes(seed: u64, loss_rate: f64) -> Self {
        SlaveFaultSchedule {
            seed,
            loss_rate: loss_rate.clamp(0.0, 1.0),
        }
    }

    /// The fault assigned to slave `index`.
    pub fn fault_for(&self, index: usize) -> SlaveFault {
        if self.uniform(index as u64) < self.loss_rate {
            SlaveFault::Crash
        } else {
            SlaveFault::None
        }
    }

    /// A uniform draw in `[0, 1)` for stream element `k`.
    fn uniform(&self, k: u64) -> f64 {
        (splitmix64(self.seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 11) as f64
            / (1u64 << 53) as f64
    }
}

/// The splitmix64 mixer: a tiny, high-quality, dependency-free PRNG step.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FChainConfig;
    use crate::slave::MetricSample;
    use fchain_metrics::MetricKind;

    const AT_990: CollectRequest = CollectRequest::at(990);

    fn daemon_with_step(fault_at: u64) -> Arc<SlaveDaemon> {
        let daemon = Arc::new(SlaveDaemon::new(FChainConfig::default()));
        for t in 0..1000u64 {
            for kind in MetricKind::ALL {
                let normal = 40.0 + ((t * (kind.index() as u64 + 2)) % 5) as f64;
                let value = if kind == MetricKind::Cpu && t >= fault_at {
                    normal + 50.0
                } else {
                    normal
                };
                daemon.ingest(MetricSample {
                    tick: t,
                    component: ComponentId(0),
                    kind,
                    value,
                });
            }
        }
        daemon
    }

    #[test]
    fn healthy_wrapper_is_transparent() {
        let daemon = daemon_with_step(940);
        let wrapped = FaultySlave::new(
            Arc::clone(&daemon) as Arc<dyn SlaveEndpoint>,
            SlaveFault::None,
        );
        assert_eq!(wrapped.collect(&AT_990), daemon.collect(&AT_990));
        assert_eq!(wrapped.monitored_components(), vec![ComponentId(0)]);
    }

    #[test]
    fn crash_fails_fast_but_keeps_the_registry() {
        let daemon = daemon_with_step(940);
        let wrapped = FaultySlave::new(daemon, SlaveFault::Crash);
        assert_eq!(wrapped.collect(&AT_990), Err(SlaveError::Unreachable));
        let widened = CollectRequest {
            lookback: Some(400),
            ..AT_990
        };
        assert_eq!(wrapped.collect(&widened), Err(SlaveError::Unreachable));
        assert_eq!(wrapped.monitored_components(), vec![ComponentId(0)]);
    }

    #[test]
    fn transient_recovers_after_n_failures() {
        let daemon = daemon_with_step(940);
        let truth = daemon.collect(&AT_990);
        let wrapped = FaultySlave::new(daemon, SlaveFault::Transient { failures: 2 });
        assert_eq!(wrapped.collect(&AT_990), Err(SlaveError::Transient));
        assert_eq!(wrapped.collect(&AT_990), Err(SlaveError::Transient));
        assert_eq!(wrapped.collect(&AT_990), truth);
        assert_eq!(wrapped.calls(), 3);
    }

    #[test]
    fn partial_window_answers_from_stale_data() {
        let daemon = daemon_with_step(940);
        // The slave lost the last 60 ticks: it analyzes as of t=930,
        // before the fault manifested, so the finding is clean.
        let stale = daemon.analyze_all(None, &CollectRequest::at(930));
        let wrapped = FaultySlave::new(daemon, SlaveFault::PartialWindow { missing_ticks: 60 });
        assert_eq!(wrapped.collect(&AT_990), Ok(stale));
    }

    #[test]
    fn stall_answers_late_but_correctly() {
        let daemon = daemon_with_step(940);
        let truth = daemon.collect(&AT_990);
        let wrapped = FaultySlave::new(
            daemon,
            SlaveFault::Stall {
                delay: Duration::from_millis(20),
            },
        );
        let started = std::time::Instant::now();
        assert_eq!(wrapped.collect(&AT_990), truth);
        assert!(started.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn schedule_rates_are_roughly_honored() {
        let schedule = SlaveFaultSchedule::crashes(42, 0.3);
        let crashed = (0..1000)
            .filter(|&i| schedule.fault_for(i) == SlaveFault::Crash)
            .count();
        assert!((200..400).contains(&crashed), "crashed {crashed}/1000");
        // Degenerate rates are exact.
        let none = SlaveFaultSchedule::crashes(42, 0.0);
        assert!((0..100).all(|i| none.fault_for(i) == SlaveFault::None));
        let all = SlaveFaultSchedule::crashes(42, 1.0);
        assert!((0..100).all(|i| all.fault_for(i) == SlaveFault::Crash));
    }
}
