//! The fleet layer: one master serving many tenant applications.
//!
//! The paper deploys one FChain master per application (§II, Fig. 1). A
//! cloud operator runs FChain for a *fleet*: many applications share the
//! per-host slave daemons, each with its own dependency graph, SLO and
//! deadline budget. [`FleetMaster`] hosts one `TenantState` per
//! application (keyed by an interned [`AppId`]) and drains concurrent
//! SLO violations from different tenants through a deterministic
//! round-robin schedule with one concurrent lane per tenant — so
//! a tenant whose slaves are crashed or stalled burns its *own* deadline
//! budget without delaying anyone else's diagnosis.
//!
//! The single-application [`crate::master::Master`] is a thin wrapper
//! over a fleet of one; its reports are bit-identical to the per-tenant
//! reports this layer produces.

use crate::config::{clamp_lookback, widened_lookback, FChainConfig};
use crate::master::endpoint::{CollectRequest, SlaveEndpoint, SlaveError};
use crate::master::pinpoint::pinpoint_findings;
use crate::master::validation::{validate_pinpointing, ValidationProbe};
use crate::report::{ComponentFinding, DiagnosisCoverage, DiagnosisReport, SlaveStatus};
use fchain_deps::DependencyGraph;
use fchain_metrics::{AppId, AppRegistry, ComponentId, Tick};
use fchain_obs as obs;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One SLO violation reported for one tenant application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetViolation {
    /// The tenant whose SLO fired.
    pub app: AppId,
    /// The violation time.
    pub violation_at: Tick,
}

/// One tenant's diagnosis out of a fleet drain.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The tenant the report belongs to (also stamped on the report).
    pub app: AppId,
    /// The violation the diagnosis answered.
    pub violation_at: Tick,
    /// The per-tenant diagnosis — bit-identical to what a single-app
    /// [`crate::master::Master`] with the same slaves would produce.
    pub report: DiagnosisReport,
    /// Violation-to-report latency: wall-clock from the start of the
    /// drain to this report's completion. Provenance, like
    /// [`DiagnosisReport::engine`]: excluded from equality, because two
    /// drains of the same violations must compare bit-identical on
    /// payload while their wall-clocks necessarily differ.
    pub latency: Duration,
}

impl PartialEq for FleetReport {
    fn eq(&self, other: &Self) -> bool {
        self.app == other.app
            && self.violation_at == other.violation_at
            && self.report == other.report
    }
}

/// What one slave contributed to a fan-out.
struct SlaveOutcome {
    findings: Vec<ComponentFinding>,
    status: SlaveStatus,
}

/// One tenant application's masters-eye state: its effective config, its
/// registered slave endpoints and its offline-discovered dependencies.
#[derive(Debug)]
struct TenantState {
    app: AppId,
    config: FChainConfig,
    slaves: Vec<Arc<dyn SlaveEndpoint>>,
    dependencies: Option<DependencyGraph>,
    /// Per-tenant look-back window override (paper Table I: the slow-
    /// manifesting disk hog needs `W = 500`). `None` analyzes at the
    /// fleet's configured window — the bit-identical default path.
    lookback_override: Option<u64>,
}

impl TenantState {
    fn new(app: AppId, config: FChainConfig) -> Self {
        TenantState {
            app,
            config,
            slaves: Vec::new(),
            dependencies: None,
            lookback_override: None,
        }
    }

    /// The collect request for a violation, carrying the look-back
    /// override if any. An override equal to the configured window is
    /// the same analysis, so it stays on the plain (hint-accelerated)
    /// path.
    fn request(&self, violation_at: Tick) -> CollectRequest {
        CollectRequest {
            violation_at,
            lookback: self
                .lookback_override
                .filter(|&w| w != self.config.lookback),
        }
    }

    /// One slave queried with bounded retry: transient errors are retried
    /// up to `slave_retries` times with doubling backoff; unreachable
    /// hosts fail fast.
    fn query_with_retry(
        slave: &dyn SlaveEndpoint,
        request: &CollectRequest,
        retries: u32,
        backoff: Duration,
    ) -> SlaveOutcome {
        for attempt in 0..=retries {
            obs::count(obs::Counter::SlaveQueries, 1);
            if attempt > 0 {
                obs::count(obs::Counter::SlaveRetries, 1);
            }
            let rpc_span = obs::time(obs::Stage::SlaveRpc);
            let result = slave.collect(request);
            drop(rpc_span);
            match result {
                Ok(findings) => {
                    let status = if attempt == 0 {
                        SlaveStatus::Ok
                    } else {
                        SlaveStatus::Recovered { retries: attempt }
                    };
                    return SlaveOutcome { findings, status };
                }
                Err(SlaveError::Unreachable) => {
                    obs::count(obs::Counter::SlaveUnreachable, 1);
                    return SlaveOutcome {
                        findings: Vec::new(),
                        status: SlaveStatus::Unreachable,
                    };
                }
                Err(SlaveError::Transient) if attempt < retries => {
                    std::thread::sleep(backoff * 2u32.pow(attempt));
                }
                Err(SlaveError::Transient) => {}
            }
        }
        obs::count(obs::Counter::SlaveUnreachable, 1);
        SlaveOutcome {
            findings: Vec::new(),
            status: SlaveStatus::Unreachable,
        }
    }

    /// The violation fan-out: every slave queried in parallel,
    /// stragglers abandoned at the deadline, per-slave outcomes assembled
    /// into findings + coverage in registration order — so the report
    /// does not depend on the order in which answers arrive.
    fn fan_out(&self, request: &CollectRequest) -> (Vec<ComponentFinding>, DiagnosisCoverage) {
        let _fan_out_span = obs::time(obs::Stage::MasterFanOut);
        let outcomes = self.query_slaves(request);

        let total = outcomes.len();
        let answered = outcomes.iter().filter(|o| o.status.answered()).count();
        let mut findings: Vec<ComponentFinding> = Vec::new();
        let mut slaves = Vec::with_capacity(total);
        let mut unreachable_slaves = Vec::new();
        for (i, outcome) in outcomes.into_iter().enumerate() {
            if !outcome.status.answered() {
                unreachable_slaves.push(i);
            }
            if outcome.status == SlaveStatus::TimedOut {
                obs::count(obs::Counter::SlaveTimeouts, 1);
            }
            slaves.push(outcome.status);
            findings.extend(outcome.findings);
        }
        let merge_span = obs::time(obs::Stage::MasterMerge);
        let findings = merge_findings(findings);
        drop(merge_span);

        // The blind spot: components monitored only by slaves that never
        // answered. A component an answering slave also covers is not
        // blind (redundant monitoring).
        let covered: Vec<ComponentId> = findings.iter().map(|f| f.id).collect();
        let mut unreachable_components: Vec<ComponentId> = unreachable_slaves
            .iter()
            .flat_map(|&i| self.slaves[i].monitored_components())
            .filter(|c| !covered.contains(c))
            .collect();
        unreachable_components.sort();
        unreachable_components.dedup();

        let coverage = DiagnosisCoverage {
            slaves,
            unreachable_slaves,
            unreachable_components,
            coverage: if total == 0 {
                1.0
            } else {
                answered as f64 / total as f64
            },
        };
        (findings, coverage)
    }

    /// Deadline-bounded parallel fan-out: one detached worker per slave,
    /// results drained off a channel until every slave answered or the
    /// deadline passed. Stragglers keep running on their (doomed) worker
    /// thread but the diagnosis stops waiting for them — the cure for a
    /// fault localizer whose own probe faults.
    fn query_slaves(&self, request: &CollectRequest) -> Vec<SlaveOutcome> {
        let retries = self.config.slave_retries;
        let backoff = Duration::from_millis(self.config.slave_backoff_ms);
        let deadline = (self.config.slave_deadline_ms > 0)
            .then(|| Duration::from_millis(self.config.slave_deadline_ms));
        let (tx, rx) = mpsc::channel::<(usize, SlaveOutcome)>();
        for (i, slave) in self.slaves.iter().enumerate() {
            let slave = Arc::clone(slave);
            let tx = tx.clone();
            let request = *request;
            std::thread::spawn(move || {
                let outcome = Self::query_with_retry(slave.as_ref(), &request, retries, backoff);
                // The receiver may have given up on us already.
                let _ = tx.send((i, outcome));
            });
        }
        drop(tx);

        let started = Instant::now();
        let mut slots: Vec<Option<SlaveOutcome>> = (0..self.slaves.len()).map(|_| None).collect();
        let mut pending = self.slaves.len();
        while pending > 0 {
            let received = match deadline {
                None => rx.recv().ok(),
                Some(budget) => match budget.checked_sub(started.elapsed()) {
                    Some(left) => rx.recv_timeout(left).ok(),
                    // Deadline passed: drain what already arrived, then
                    // give up on the rest.
                    None => rx.try_recv().ok(),
                },
            };
            let Some((i, outcome)) = received else {
                break; // deadline passed (or every worker hung up)
            };
            slots[i] = Some(outcome);
            pending -= 1;
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.unwrap_or(SlaveOutcome {
                    findings: Vec::new(),
                    status: SlaveStatus::TimedOut,
                })
            })
            .collect()
    }

    /// Full diagnosis on an SLO violation, plus the [`LookbackRetry`]
    /// policy: when the first diagnosis pinpoints nothing — the
    /// window-edge recall hole, where a slow fault's onset predates
    /// `t_v − W` and whatever changes the window does catch don't
    /// survive pinpointing — and the knob is on, every slave is asked
    /// once more with the window widened by [`widened_lookback`] (four
    /// times, capped at 600 ticks). [`crate::FChain`] diagnoses through
    /// this master, so this is the only widening rule. The widened
    /// diagnosis is adopted only if it
    /// pinpoints something: the retry is a recall fallback, so a
    /// correctly-silent answer (a workload surge, a healthy tenant) stays
    /// the first answer, bit for bit.
    ///
    /// With the knob off (the default) the first diagnosis is returned
    /// untouched, byte-identical to the pre-knob pipeline.
    fn diagnose(&self, violation_at: Tick) -> DiagnosisReport {
        let request = self.request(violation_at);
        let (findings, coverage) = self.fan_out(&request);
        let first = self.report_from_findings(findings, coverage);
        if !self.config.lookback_retry.enabled() || !first.pinpointed.is_empty() {
            return first;
        }
        let effective = request.lookback.unwrap_or(self.config.lookback);
        let Some(widened) = widened_lookback(effective) else {
            return first;
        };
        obs::count(obs::Counter::LookbackRetryWidened, 1);
        let (findings, coverage) = self.fan_out(&CollectRequest {
            lookback: Some(widened),
            ..request
        });
        let second = self.report_from_findings(findings, coverage);
        if second.pinpointed.is_empty() {
            first
        } else {
            second
        }
    }

    /// Integrated pinpointing over already-collected findings.
    fn report_from_findings(
        &self,
        findings: Vec<ComponentFinding>,
        coverage: DiagnosisCoverage,
    ) -> DiagnosisReport {
        let pinpoint_span = obs::time(obs::Stage::MasterPinpoint);
        // Component-level coverage, not the slave-answered ratio: every
        // observed component yields a finding (even a healthy one), so
        // findings + blind spots is the monitored universe. A crashed host
        // whose shards all have surviving replicas loses no evidence and
        // must not perturb the ensemble's confidences.
        let observed =
            coverage.component_coverage(findings.len() + coverage.unreachable_components.len());
        let (verdict, pinpointed) = pinpoint_findings(
            &self.config,
            &findings,
            self.dependencies.as_ref(),
            observed,
        );
        drop(pinpoint_span);
        DiagnosisReport {
            verdict,
            pinpointed,
            findings,
            removed_by_validation: Vec::new(),
            coverage,
            // Provenance: the engine the master is configured with. Each
            // slave daemon honors its *own* config at analysis time; in a
            // real deployment the master cannot retroactively change what
            // a remote slave ran, so deployments configure both sides
            // consistently (the CLI and eval paths do).
            engine: self.config.engine,
            app: self.app,
        }
    }
}

/// The fleet master: per-tenant dependency graphs and slave registries
/// behind one deterministic violation scheduler.
///
/// # Examples
///
/// ```
/// use fchain_core::master::fleet::{FleetMaster, FleetViolation};
/// use fchain_core::master::endpoint::TenantSlave;
/// use fchain_core::slave::{MetricSample, SlaveDaemon};
/// use fchain_core::FChainConfig;
/// use fchain_metrics::{ComponentId, MetricKind};
/// use std::sync::Arc;
///
/// let pool = Arc::new(SlaveDaemon::new(FChainConfig::default()));
/// let mut fleet = FleetMaster::new(FChainConfig::default());
/// let shop = fleet.add_tenant("shop");
/// let wiki = fleet.add_tenant("wiki");
/// fleet.register_slave(shop, Arc::new(TenantSlave::new(Arc::clone(&pool), shop)));
/// fleet.register_slave(wiki, Arc::new(TenantSlave::new(Arc::clone(&pool), wiki)));
///
/// // Only the shop's component faults at t = 940.
/// for t in 0..1000u64 {
///     for kind in MetricKind::ALL {
///         let normal = 40.0 + ((t * (kind.index() as u64 + 2)) % 5) as f64;
///         let faulty = if kind == MetricKind::Cpu && t >= 940 { normal + 50.0 } else { normal };
///         pool.ingest_for(shop, MetricSample { tick: t, component: ComponentId(0), kind, value: faulty });
///         pool.ingest_for(wiki, MetricSample { tick: t, component: ComponentId(0), kind, value: normal });
///     }
/// }
/// let reports = fleet.on_violations(&[
///     FleetViolation { app: shop, violation_at: 990 },
///     FleetViolation { app: wiki, violation_at: 990 },
/// ]);
/// assert_eq!(reports.len(), 2);
/// let shop_report = reports.iter().find(|r| r.app == shop).unwrap();
/// let wiki_report = reports.iter().find(|r| r.app == wiki).unwrap();
/// assert_eq!(shop_report.report.pinpointed, vec![ComponentId(0)]);
/// assert!(wiki_report.report.pinpointed.is_empty());
/// ```
#[derive(Debug)]
pub struct FleetMaster {
    config: FChainConfig,
    registry: AppRegistry,
    tenants: BTreeMap<AppId, TenantState>,
}

impl FleetMaster {
    /// Creates a fleet with no tenants yet.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`FChainConfig::validate`]).
    pub fn new(config: FChainConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid FChainConfig: {e}");
        }
        FleetMaster {
            config,
            registry: AppRegistry::default(),
            tenants: BTreeMap::new(),
        }
    }

    /// Adds (or looks up) the tenant application named `name`, returning
    /// its interned [`AppId`]. Idempotent: re-adding a known name returns
    /// the existing id and leaves its state untouched.
    pub fn add_tenant(&mut self, name: &str) -> AppId {
        let app = self.registry.intern(name);
        self.tenants
            .entry(app)
            .or_insert_with(|| TenantState::new(app, self.config.clone()));
        app
    }

    /// Number of tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The name a tenant was registered under.
    pub fn tenant_name(&self, app: AppId) -> Option<&str> {
        self.registry.name(app)
    }

    /// Registers a slave endpoint for one tenant. Returns `true` if the
    /// endpoint was added; `false` if this exact endpoint (the same
    /// `Arc`) is already registered for that tenant — a duplicate
    /// registration (e.g. a slave re-announcing itself after a
    /// reconnect) is a no-op, so a re-registered host is not fanned out
    /// to twice. Registering a *different* endpoint that happens to
    /// monitor the same components is allowed: that is redundant
    /// monitoring, and the merge step unions the duplicate findings.
    ///
    /// # Panics
    ///
    /// Panics if `app` is not a tenant (see [`FleetMaster::add_tenant`]).
    pub fn register_slave(&mut self, app: AppId, slave: Arc<dyn SlaveEndpoint>) -> bool {
        let tenant = self
            .tenants
            .get_mut(&app)
            .unwrap_or_else(|| panic!("unknown tenant {app}"));
        if tenant.slaves.iter().any(|s| Arc::ptr_eq(s, &slave)) {
            return false;
        }
        tenant.slaves.push(slave);
        true
    }

    /// Number of slaves registered for a tenant.
    pub fn slave_count(&self, app: AppId) -> usize {
        self.tenants.get(&app).map_or(0, |t| t.slaves.len())
    }

    /// Installs one tenant's offline-discovered dependency graph.
    ///
    /// # Panics
    ///
    /// Panics if `app` is not a tenant.
    pub fn set_dependencies(&mut self, app: AppId, deps: DependencyGraph) {
        let tenant = self
            .tenants
            .get_mut(&app)
            .unwrap_or_else(|| panic!("unknown tenant {app}"));
        tenant.dependencies = Some(deps);
    }

    /// Sets one tenant's look-back window override: its fan-outs ask the
    /// slaves to analyze a `lookback`-tick window instead of the fleet's
    /// configured one (the paper runs `W = 500` for the slow-manifesting
    /// disk hog while everything else stays at `W = 100`). Returns the
    /// window actually installed: a request outside
    /// [`MIN_LOOKBACK`](crate::MIN_LOOKBACK)`..=`
    /// [`MAX_LOOKBACK`](crate::MAX_LOOKBACK), the bounds
    /// `FChainConfig::validate` enforces for the configured window, is
    /// clamped into them, counted on
    /// [`fchain_obs::Counter::FleetLookbackClamped`] — an operator typo
    /// must degrade loudly, never shrink a tenant's evidence window into
    /// uselessness or size it past what a slave can hold.
    ///
    /// # Panics
    ///
    /// Panics if `app` is not a tenant.
    pub fn set_tenant_lookback(&mut self, app: AppId, lookback: u64) -> u64 {
        let tenant = self
            .tenants
            .get_mut(&app)
            .unwrap_or_else(|| panic!("unknown tenant {app}"));
        let effective = clamp_lookback(lookback);
        if effective != lookback {
            obs::count(obs::Counter::FleetLookbackClamped, 1);
        }
        tenant.lookback_override = Some(effective);
        effective
    }

    /// One tenant's effective look-back window (the override if set, the
    /// fleet's configured window otherwise).
    pub fn tenant_lookback(&self, app: AppId) -> u64 {
        self.tenants
            .get(&app)
            .and_then(|t| t.lookback_override)
            .unwrap_or(self.config.lookback)
    }

    /// Runs `f` against the tenant's state; an unknown tenant behaves as
    /// an empty one (no slaves, complete coverage, `NoAnomaly`).
    fn with_tenant<R>(&self, app: AppId, f: impl FnOnce(&TenantState) -> R) -> R {
        match self.tenants.get(&app) {
            Some(tenant) => f(tenant),
            None => f(&TenantState::new(app, self.config.clone())),
        }
    }

    /// Full diagnosis of one tenant's SLO violation.
    pub fn diagnose(&self, app: AppId, violation_at: Tick) -> DiagnosisReport {
        self.with_tenant(app, |t| t.diagnose(violation_at))
    }

    /// Diagnosis followed by online pinpointing validation.
    pub fn diagnose_validated(
        &self,
        app: AppId,
        violation_at: Tick,
        probe: &mut dyn ValidationProbe,
    ) -> DiagnosisReport {
        let mut report = self.diagnose(app, violation_at);
        validate_pinpointing(&mut report, probe);
        report
    }

    /// The deterministic drain order for a batch of concurrent
    /// violations: per-tenant FIFO order is preserved and tenants are
    /// visited round-robin in [`AppId`] order, starting from the lowest.
    /// Every lane runs concurrently and each report is identical to a
    /// standalone diagnosis, so the order fixes only where a report sits
    /// in the returned list.
    pub fn schedule(&self, violations: &[FleetViolation]) -> Vec<FleetViolation> {
        let mut groups: BTreeMap<AppId, std::collections::VecDeque<FleetViolation>> =
            BTreeMap::new();
        for &v in violations {
            groups.entry(v.app).or_default().push_back(v);
        }
        let mut queues: Vec<std::collections::VecDeque<FleetViolation>> =
            groups.into_values().collect();
        let mut order = Vec::with_capacity(violations.len());
        let n = queues.len();
        let mut i = 0;
        while order.len() < violations.len() {
            if let Some(v) = queues[i % n].pop_front() {
                order.push(v);
            }
            i += 1;
        }
        order
    }

    /// Drains a batch of concurrent SLO violations: schedules them
    /// deterministically, then runs one concurrent lane per tenant so a
    /// stalled tenant only delays itself. Reports come back in schedule
    /// order, each bit-identical to a standalone
    /// [`FleetMaster::diagnose`] of the same violation.
    pub fn on_violations(&self, violations: &[FleetViolation]) -> Vec<FleetReport> {
        let _span = obs::time(obs::Stage::FleetDrain);
        let order = self.schedule(violations);
        obs::count(obs::Counter::FleetViolations, order.len() as u64);

        // One lane per tenant, each holding its schedule positions in
        // order (per-tenant FIFO is preserved inside a lane).
        let mut lanes: BTreeMap<AppId, Vec<usize>> = BTreeMap::new();
        for (pos, v) in order.iter().enumerate() {
            lanes.entry(v.app).or_default().push(pos);
        }
        obs::count(obs::Counter::FleetLanes, lanes.len() as u64);

        let started = Instant::now();
        let slots: Vec<Mutex<Option<FleetReport>>> =
            order.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for positions in lanes.values() {
                let order = &order;
                let slots = &slots;
                scope.spawn(move || {
                    for &pos in positions {
                        let v = order[pos];
                        let report = self.diagnose(v.app, v.violation_at);
                        *slots[pos].lock() = Some(FleetReport {
                            app: v.app,
                            violation_at: v.violation_at,
                            report,
                            latency: started.elapsed(),
                        });
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("every scheduled violation is diagnosed")
            })
            .collect()
    }
}

/// Merges findings that report the same component (the same `ComponentId`
/// seen by two registered slaves — e.g. a VM migrated mid-window, or
/// redundant monitoring): the changes are unioned, which also yields the
/// earliest onset across both reports. The pre-merge order is
/// registration order, so the union is deterministic.
pub(crate) fn merge_findings(mut findings: Vec<ComponentFinding>) -> Vec<ComponentFinding> {
    findings.sort_by_key(|f| f.id);
    let mut merged: Vec<ComponentFinding> = Vec::with_capacity(findings.len());
    for f in findings {
        match merged.last_mut() {
            Some(last) if last.id == f.id => {
                for change in f.changes {
                    if !last.changes.contains(&change) {
                        last.changes.push(change);
                    }
                }
            }
            _ => merged.push(f),
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MAX_LOOKBACK;
    use crate::master::endpoint::{FaultySlave, SlaveFault, TenantSlave};
    use crate::master::Master;
    use crate::report::AbnormalChange;
    use crate::slave::{MetricSample, SlaveDaemon};
    use fchain_detect::Trend;
    use fchain_metrics::MetricKind;

    /// Feeds `n` ticks of component `c` for tenant `app` into a shared
    /// daemon pool, stepping CPU at `fault_at` if given.
    fn feed_tenant(pool: &SlaveDaemon, app: AppId, c: u32, n: u64, fault_at: Option<u64>) {
        for t in 0..n {
            for kind in MetricKind::ALL {
                let normal = 40.0 + ((t * (kind.index() as u64 + 2)) % 5) as f64;
                let value = match fault_at {
                    Some(at) if kind == MetricKind::Cpu && t >= at => normal + 50.0,
                    _ => normal,
                };
                pool.ingest_for(
                    app,
                    MetricSample {
                        tick: t,
                        component: ComponentId(c),
                        kind,
                        value,
                    },
                );
            }
        }
    }

    /// A two-tenant fleet sharing one daemon pool: the shop's component
    /// 0 faults at 940, the wiki stays clean.
    fn two_tenant_fleet() -> (FleetMaster, AppId, AppId) {
        let pool = Arc::new(SlaveDaemon::new(FChainConfig::default()));
        let mut fleet = FleetMaster::new(FChainConfig::default());
        let shop = fleet.add_tenant("shop");
        let wiki = fleet.add_tenant("wiki");
        feed_tenant(&pool, shop, 0, 1000, Some(940));
        feed_tenant(&pool, shop, 1, 1000, None);
        feed_tenant(&pool, wiki, 0, 1000, None);
        fleet.register_slave(shop, Arc::new(TenantSlave::new(Arc::clone(&pool), shop)));
        fleet.register_slave(wiki, Arc::new(TenantSlave::new(pool, wiki)));
        (fleet, shop, wiki)
    }

    #[test]
    fn tenants_sharing_a_pool_stay_isolated() {
        let (fleet, shop, wiki) = two_tenant_fleet();
        let shop_report = fleet.diagnose(shop, 990);
        assert_eq!(shop_report.pinpointed, vec![ComponentId(0)]);
        assert_eq!(shop_report.app, shop);
        // The wiki shares the pool and even the component index, yet sees
        // none of the shop's fault.
        let wiki_report = fleet.diagnose(wiki, 990);
        assert!(wiki_report.pinpointed.is_empty());
        assert_eq!(wiki_report.app, wiki);
        assert_eq!(wiki_report.findings.len(), 1);
    }

    #[test]
    fn fleet_of_one_matches_the_single_app_master() {
        // The same stream fed to a standalone Master and to a fleet of
        // one must produce bit-identical reports (including coverage and
        // findings; `app` and provenance are excluded from equality but
        // asserted separately).
        let solo_daemon = Arc::new(SlaveDaemon::new(FChainConfig::default()));
        feed_tenant(&solo_daemon, AppId::default(), 0, 1000, Some(940));
        feed_tenant(&solo_daemon, AppId::default(), 1, 1000, None);
        let mut solo = Master::new(FChainConfig::default());
        solo.register_slave(Arc::clone(&solo_daemon) as Arc<dyn SlaveEndpoint>);

        let pool = Arc::new(SlaveDaemon::new(FChainConfig::default()));
        let mut fleet = FleetMaster::new(FChainConfig::default());
        let app = fleet.add_tenant("only");
        feed_tenant(&pool, app, 0, 1000, Some(940));
        feed_tenant(&pool, app, 1, 1000, None);
        fleet.register_slave(app, Arc::new(TenantSlave::new(pool, app)));

        let solo_report = solo.on_violation(990);
        let fleet_report = fleet.diagnose(app, 990);
        assert_eq!(solo_report, fleet_report);
        assert_eq!(solo_report.findings, fleet_report.findings);
        assert_eq!(solo_report.coverage, fleet_report.coverage);
    }

    /// Builds a single-tenant fleet over a shared pool whose component 0
    /// faults at `fault_at`, under the given config.
    fn fleet_with_fault_at(config: FChainConfig, fault_at: u64) -> (FleetMaster, AppId) {
        let pool = Arc::new(SlaveDaemon::new(config.clone()));
        let mut fleet = FleetMaster::new(config);
        let app = fleet.add_tenant("shop");
        feed_tenant(&pool, app, 0, 1000, Some(fault_at));
        feed_tenant(&pool, app, 1, 1000, None);
        fleet.register_slave(app, Arc::new(TenantSlave::new(pool, app)));
        (fleet, app)
    }

    #[test]
    fn lookback_retry_widens_an_empty_answer_into_a_catch() {
        // The fault manifests at 700; the default window [890, 990] sees
        // only the flat elevated plateau and comes back empty — the
        // window-edge recall hole.
        let (fleet, app) = fleet_with_fault_at(FChainConfig::default(), 700);
        let silent = fleet.diagnose(app, 990);
        assert!(
            silent.findings.iter().all(|f| f.changes.is_empty()),
            "fault at 700 must be invisible to the default window"
        );

        // With the knob on, the empty answer triggers one re-collect at
        // 4× the window — [590, 990] — which contains the onset.
        let widened_config = FChainConfig {
            lookback_retry: crate::config::LookbackRetry::Widen,
            ..FChainConfig::default()
        };
        let (fleet, app) = fleet_with_fault_at(widened_config, 700);
        let caught = fleet.diagnose(app, 990);
        assert_eq!(caught.pinpointed, vec![ComponentId(0)]);
    }

    #[test]
    fn lookback_retry_is_inert_when_the_first_answer_pinpoints() {
        // A fault inside the default window: the first diagnosis already
        // pinpoints it, so the knob must not alter the report at all.
        let (fleet, app) = fleet_with_fault_at(FChainConfig::default(), 940);
        let off = fleet.diagnose(app, 990);

        let on_config = FChainConfig {
            lookback_retry: crate::config::LookbackRetry::Widen,
            ..FChainConfig::default()
        };
        let (fleet, app) = fleet_with_fault_at(on_config, 940);
        let on = fleet.diagnose(app, 990);

        assert_eq!(off, on);
        assert_eq!(off.findings, on.findings);
        assert_eq!(off.coverage, on.coverage);
    }

    #[test]
    fn lookback_retry_saturates_a_huge_tenant_window() {
        // A clean tenant with the largest possible override: the empty
        // first answer triggers the widen path, whose 4× must saturate
        // instead of overflowing.
        let config = FChainConfig {
            lookback_retry: crate::config::LookbackRetry::Widen,
            ..FChainConfig::default()
        };
        let pool = Arc::new(SlaveDaemon::new(config.clone()));
        let mut fleet = FleetMaster::new(config);
        let app = fleet.add_tenant("shop");
        feed_tenant(&pool, app, 0, 1000, None);
        fleet.register_slave(app, Arc::new(TenantSlave::new(pool, app)));
        assert_eq!(fleet.set_tenant_lookback(app, u64::MAX), MAX_LOOKBACK);
        assert_eq!(fleet.diagnose(app, 990).verdict, crate::Verdict::NoAnomaly);
    }

    #[test]
    fn drain_matches_standalone_diagnoses() {
        let (fleet, shop, wiki) = two_tenant_fleet();
        let v = |app, violation_at| FleetViolation { app, violation_at };
        // Two lanes, then a single-tenant list that drains in one lane.
        for violations in [
            vec![v(wiki, 990), v(shop, 990), v(shop, 985)],
            vec![v(shop, 990), v(shop, 985)],
        ] {
            let drained = fleet.on_violations(&violations);
            // Reports come back in schedule order...
            let drained_order: Vec<FleetViolation> =
                drained.iter().map(|r| v(r.app, r.violation_at)).collect();
            assert_eq!(drained_order, fleet.schedule(&violations));
            // ...and each is bit-identical to a standalone diagnosis.
            for r in &drained {
                assert_eq!(r.report, fleet.diagnose(r.app, r.violation_at));
                assert_eq!(r.report.app, r.app);
            }
        }
    }

    #[test]
    fn schedule_is_a_deterministic_round_robin() {
        let (fleet, shop, wiki) = two_tenant_fleet();
        let violations = [
            FleetViolation {
                app: shop,
                violation_at: 1,
            },
            FleetViolation {
                app: shop,
                violation_at: 2,
            },
            FleetViolation {
                app: wiki,
                violation_at: 3,
            },
            FleetViolation {
                app: wiki,
                violation_at: 4,
            },
        ];
        let order = fleet.schedule(&violations);
        assert_eq!(
            order,
            fleet.schedule(&violations),
            "same violations, same order"
        );
        // Round-robin: tenants alternate; per-tenant FIFO is preserved.
        let shop_ticks: Vec<Tick> = order
            .iter()
            .filter(|v| v.app == shop)
            .map(|v| v.violation_at)
            .collect();
        assert_eq!(shop_ticks, vec![1, 2]);
        let wiki_ticks: Vec<Tick> = order
            .iter()
            .filter(|v| v.app == wiki)
            .map(|v| v.violation_at)
            .collect();
        assert_eq!(wiki_ticks, vec![3, 4]);
        assert_ne!(order[0].app, order[1].app, "tenants must alternate");
        assert_eq!(order[0].app, shop.min(wiki), "the lowest AppId starts");
    }

    #[test]
    fn stalled_tenant_does_not_delay_the_others() {
        // The wiki's only slave stalls for 1.5 s against a 150 ms
        // deadline; the shop's diagnosis must complete at its own speed
        // and the wiki's must be abandoned at its deadline — the lane
        // isolation contract.
        let pool = Arc::new(SlaveDaemon::new(FChainConfig::default()));
        let mut fleet = FleetMaster::new(FChainConfig {
            slave_deadline_ms: 150,
            ..FChainConfig::default()
        });
        let shop = fleet.add_tenant("shop");
        let wiki = fleet.add_tenant("wiki");
        feed_tenant(&pool, shop, 0, 1000, Some(940));
        feed_tenant(&pool, wiki, 1, 1000, Some(940));
        fleet.register_slave(shop, Arc::new(TenantSlave::new(Arc::clone(&pool), shop)));
        // Two slaves for the wiki; the stalled one covers component 1.
        fleet.register_slave(
            wiki,
            Arc::new(FaultySlave::new(
                Arc::new(TenantSlave::new(Arc::clone(&pool), wiki)),
                SlaveFault::Stall {
                    delay: Duration::from_millis(1500),
                },
            )),
        );
        fleet.register_slave(wiki, Arc::new(TenantSlave::new(Arc::clone(&pool), wiki)));

        let started = Instant::now();
        let reports = fleet.on_violations(&[
            FleetViolation {
                app: shop,
                violation_at: 990,
            },
            FleetViolation {
                app: wiki,
                violation_at: 990,
            },
        ]);
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(1200),
            "the drain must not wait out the stalled tenant ({elapsed:?})"
        );
        let shop_report = &reports.iter().find(|r| r.app == shop).unwrap().report;
        assert_eq!(shop_report.pinpointed, vec![ComponentId(0)]);
        assert!(shop_report.coverage.is_complete());
        let wiki_report = &reports.iter().find(|r| r.app == wiki).unwrap().report;
        assert_eq!(
            wiki_report.coverage.slaves[0],
            SlaveStatus::TimedOut,
            "the stalled slave burns the wiki's own deadline budget"
        );
    }

    #[test]
    fn duplicate_slave_registration_is_rejected() {
        let mut fleet = FleetMaster::new(FChainConfig::default());
        let app = fleet.add_tenant("a");
        let pool = Arc::new(SlaveDaemon::new(FChainConfig::default()));
        let slave: Arc<dyn SlaveEndpoint> = Arc::new(TenantSlave::new(Arc::clone(&pool), app));
        assert!(fleet.register_slave(app, Arc::clone(&slave)));
        assert!(!fleet.register_slave(app, slave), "same Arc, rejected");
        assert_eq!(fleet.slave_count(app), 1);
        // A distinct endpoint over the same pool is redundant monitoring,
        // which stays allowed.
        assert!(fleet.register_slave(app, Arc::new(TenantSlave::new(pool, app))));
        assert_eq!(fleet.slave_count(app), 2);
    }

    #[test]
    fn add_tenant_is_idempotent_and_bounded() {
        let mut fleet = FleetMaster::new(FChainConfig::default());
        let a = fleet.add_tenant("a");
        assert_eq!(fleet.add_tenant("a"), a, "re-adding returns the same id");
        let b = fleet.add_tenant("b");
        // The tenant count is bounded by the distinct names, however
        // often a control plane re-announces them.
        for _ in 0..3 {
            assert_eq!(fleet.add_tenant("b"), b);
            assert_eq!(fleet.add_tenant("a"), a);
        }
        assert_eq!(fleet.tenant_count(), 2);
    }

    #[test]
    fn unknown_tenant_diagnoses_to_no_anomaly() {
        let fleet = FleetMaster::new(FChainConfig::default());
        let report = fleet.diagnose(AppId(7), 100);
        assert_eq!(report.verdict, crate::Verdict::NoAnomaly);
        assert_eq!(report.app, AppId(7));
        assert!(report.coverage.is_complete());
    }

    #[test]
    fn merge_findings_unions_changes() {
        let change = |metric, onset| AbnormalChange {
            metric,
            change_at: onset,
            onset,
            prediction_error: 5.0,
            expected_error: 1.0,
            direction: Trend::Up,
        };
        let shared = change(MetricKind::Cpu, 100);
        let merged = merge_findings(vec![
            ComponentFinding {
                id: ComponentId(1),
                changes: vec![shared],
            },
            ComponentFinding {
                id: ComponentId(0),
                changes: vec![],
            },
            ComponentFinding {
                id: ComponentId(1),
                changes: vec![shared, change(MetricKind::Memory, 90)],
            },
        ]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].id, ComponentId(0));
        assert_eq!(merged[1].changes.len(), 2, "shared change deduped");
        assert_eq!(merged[1].onset(), Some(90));
    }
}
