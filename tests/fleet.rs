//! Fleet-layer integration: many tenants, one master, one shared slave
//! pool — exercised through the `fchain` facade crate.
//!
//! * a heterogeneous two-tenant fleet drains, in schedule order, to the
//!   same per-tenant reports a standalone diagnosis produces;
//! * duplicate slave registration is a documented no-op at both the
//!   single-app and fleet APIs;
//! * two back-to-back fleet campaigns in one process leave *disjoint*
//!   observability deltas: `delta_since` windows partition the fleet
//!   counters instead of double-counting.

use fchain::core::master::Master;
use fchain::core::slave::{MetricSample, SlaveDaemon};
use fchain::core::{
    FChainConfig, FleetMaster, FleetViolation, SlaveEndpoint, TenantSlave, Verdict, MIN_LOOKBACK,
};
use fchain::eval::{case_from_run, FleetCampaign};
use fchain::obs::{self, Counter};
use fchain::sim::{tenant_mix, RunConfig, Simulator};
use std::sync::{Arc, Mutex, OnceLock};

/// Serializes the tests that drive fleet drains: the observability
/// counters are process-global, so concurrent drains in this binary
/// would pollute each other's `delta_since` windows.
fn drain_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

#[test]
fn heterogeneous_fleet_drains_on_both_paths_identically() {
    let _guard = drain_lock().lock().unwrap();
    let config = FChainConfig::default();
    let pool: Vec<Arc<SlaveDaemon>> = (0..2)
        .map(|_| Arc::new(SlaveDaemon::new(config.clone())))
        .collect();
    let mut fleet = FleetMaster::new(config.clone());

    let mut violations = Vec::new();
    for i in 0..2usize {
        let (app_kind, fault) = tenant_mix(i);
        let run =
            Simulator::new(RunConfig::new(app_kind, fault, 4100 + i as u64).with_duration(1500))
                .run();
        let case = case_from_run(&run, 100).expect("seeded SLO violation");
        let tenant = fleet.add_tenant(app_kind.name());
        for (c, component) in case.components.iter().enumerate() {
            let host = &pool[(i + c) % pool.len()];
            for sample in MetricSample::replay(component.id, &component.metrics) {
                host.ingest_for(tenant, sample);
            }
        }
        for host in &pool {
            fleet.register_slave(tenant, Arc::new(TenantSlave::new(Arc::clone(host), tenant)));
        }
        if let Some(deps) = case.discovered_deps.clone() {
            fleet.set_dependencies(tenant, deps);
        }
        violations.push(FleetViolation {
            app: tenant,
            violation_at: case.violation_at,
        });
    }

    let drained = fleet.on_violations(&violations);
    assert_eq!(drained.len(), 2, "every tenant must be drained");
    let scheduled = fleet.schedule(&violations);
    for (report, v) in drained.iter().zip(&scheduled) {
        assert_eq!((report.app, report.violation_at), (v.app, v.violation_at));
        // Bit-identical diagnosis payload to a standalone diagnosis.
        assert_eq!(report.report, fleet.diagnose(v.app, v.violation_at));
    }
    for report in &drained {
        assert_eq!(
            report.report.verdict,
            Verdict::Faulty,
            "tenant {:?} must localize its injected fault",
            fleet.tenant_name(report.app)
        );
    }
}

/// Satellite regression guard for the fleet-accuracy collapse: with an
/// uncontended pool (zero injected RPC latency) and a deadline budget no
/// slave can miss, every tenant's fleet report must equal the report the
/// same engine produces for that tenant solo — same seeds, same
/// configuration. Six tenants cover every (application, fault) family in
/// the tenant mix.
#[test]
fn uncontended_fleet_reports_match_solo_per_tenant() {
    let _guard = drain_lock().lock().unwrap();
    for ensemble in [false, true] {
        let mut config = FChainConfig {
            slave_deadline_ms: 600_000,
            ..FChainConfig::default()
        };
        config.ensemble.enabled = ensemble;
        let campaign = FleetCampaign {
            duration: 1500,
            rpc_delay_ms: 0,
            config,
            ..FleetCampaign::new(6, 4100)
        };
        let result = campaign.evaluate();
        assert_eq!(result.diagnoses, 6, "every tenant reports");
        for t in &result.per_tenant {
            assert!(
                !t.divergent,
                "tenant {} ({}) diverged from solo with ensemble={ensemble}: \
                 fleet {:?} vs solo {:?}",
                t.tenant, t.family, t.pinpointed, t.solo_pinpointed
            );
        }
        assert!(result.divergent_tenants().is_empty());
        assert!(result.divergent_families().is_empty());
    }
}

/// A tight fan-out deadline bounds only how long the master waits for
/// slaves — it must never shrink the evidence window a responding slave
/// analyzes. Per-tenant look-back overrides are floored at the same
/// minimum `FChainConfig::validate` enforces, with a warning counter on
/// each clamp.
#[test]
fn tenant_deadline_never_shrinks_the_evidence_window() {
    let config = FChainConfig {
        slave_deadline_ms: 1, // brutally tight budget
        ..FChainConfig::default()
    };
    let lookback = config.lookback;
    let mut fleet = FleetMaster::new(config);
    let app = fleet.add_tenant("shop");
    assert_eq!(
        fleet.tenant_lookback(app),
        lookback,
        "the deadline override leaked into the evidence window"
    );

    // A legitimate per-tenant widening (paper Table I: W = 500 for the
    // slow-manifesting disk hog) passes through untouched...
    assert_eq!(fleet.set_tenant_lookback(app, 500), 500);
    assert_eq!(fleet.tenant_lookback(app), 500);

    // ...while a window below the validated floor is clamped up, never
    // honored, and counted.
    let before = obs::snapshot();
    let effective = fleet.set_tenant_lookback(app, 1);
    assert_eq!(effective, MIN_LOOKBACK, "sub-floor look-back was honored");
    assert_eq!(fleet.tenant_lookback(app), effective);
    let delta = obs::snapshot().delta_since(&before);
    assert_eq!(delta.counter(Counter::FleetLookbackClamped), 1);
}

#[test]
fn duplicate_slave_registration_is_a_no_op_everywhere() {
    let config = FChainConfig::default();

    // Single-app API: re-registering the same endpoint is rejected.
    let mut master = Master::new(config.clone());
    let daemon = Arc::new(SlaveDaemon::new(config.clone()));
    assert!(master.register_slave(Arc::clone(&daemon) as Arc<dyn SlaveEndpoint>));
    assert!(!master.register_slave(Arc::clone(&daemon) as Arc<dyn SlaveEndpoint>));
    assert_eq!(master.slave_count(), 1);

    // Fleet API: the same rejection per tenant — but two tenants may each
    // hold their own view of one shared daemon.
    let mut fleet = FleetMaster::new(config.clone());
    let shop = fleet.add_tenant("shop");
    let wiki = fleet.add_tenant("wiki");
    let shop_view: Arc<dyn SlaveEndpoint> = Arc::new(TenantSlave::new(Arc::clone(&daemon), shop));
    assert!(fleet.register_slave(shop, Arc::clone(&shop_view)));
    assert!(!fleet.register_slave(shop, shop_view));
    assert!(fleet.register_slave(wiki, Arc::new(TenantSlave::new(daemon, wiki))));
    assert_eq!(fleet.slave_count(shop), 1);
    assert_eq!(fleet.slave_count(wiki), 1);
}

#[test]
fn back_to_back_campaigns_leave_disjoint_obs_deltas() {
    let _guard = drain_lock().lock().unwrap();
    let base = obs::snapshot();
    let first = FleetCampaign {
        duration: 1500,
        rpc_delay_ms: 10,
        ..FleetCampaign::new(2, 4100)
    };
    let a = first.evaluate();
    let after_first = obs::snapshot();
    let second = FleetCampaign {
        duration: 1500,
        rpc_delay_ms: 10,
        ..FleetCampaign::new(3, 4100)
    };
    let b = second.evaluate();
    let after_second = obs::snapshot();

    // Each window counts exactly its own campaign's drain...
    let delta_a = after_first.delta_since(&base);
    let delta_b = after_second.delta_since(&after_first);
    assert_eq!(
        delta_a.counter(Counter::FleetViolations),
        a.diagnoses as u64
    );
    assert_eq!(delta_a.counter(Counter::FleetLanes), a.diagnoses as u64);
    assert_eq!(
        delta_b.counter(Counter::FleetViolations),
        b.diagnoses as u64
    );
    assert_eq!(delta_b.counter(Counter::FleetLanes), b.diagnoses as u64);
    // ...and the windows partition the total instead of double-counting.
    let total = after_second.delta_since(&base);
    for counter in [Counter::FleetViolations, Counter::FleetLanes] {
        assert_eq!(
            total.counter(counter),
            delta_a.counter(counter) + delta_b.counter(counter),
            "{counter:?} delta windows overlap"
        );
    }
}
