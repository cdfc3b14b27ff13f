//! Fleet-scale evaluation: tenant-count throughput and isolation.
//!
//! The paper evaluates one application per FChain deployment; a cloud
//! operator runs one [`FleetMaster`] for a whole fleet. This campaign
//! simulates `tenants` independent applications (cycling
//! [`fchain_sim::tenant_mix`]), lands their metric streams on a *shared*
//! pool of per-host slave daemons (shard key `(AppId, ComponentId)`),
//! fires every tenant's SLO violation concurrently, and measures
//! diagnoses/sec plus the p50/p99 violation-to-report latency of the
//! drain — the `fleet_throughput` bench sweeps the tenant count with it.
//!
//! The pool is staged by [`SlaveDaemon::replay_pool`], the replay rule
//! every in-process harness shares: each daemon retains every sample of
//! every tenant, exactly as the single-application [`FChain::diagnose`]
//! daemon does. Each tenant's solo reference is that `FChain::diagnose`
//! answer on the same case, so a fleet report that differs from it can
//! only come from the fleet path itself (deadline budgets, scheduling),
//! never from a shallower history.
//!
//! Slave RPCs carry a simulated network latency
//! ([`FleetCampaign::rpc_delay_ms`], a [`SlaveFault::Stall`] wrap): fleet
//! throughput comes from overlapping that latency across per-tenant
//! lanes, exactly as a real master overlaps network waits. Optionally the
//! first [`FleetCampaign::stalled_tenants`] tenants each get one slave
//! stalled for [`FleetCampaign::stall_ms`] — past their deadline budget —
//! to measure that a sick tenant's straggler burns only its own budget
//! (healthy-tenant p99 stays put).

use crate::casegen::case_from_run;
use crate::score::Counts;
use fchain_core::slave::{Recording, SlaveDaemon};
use fchain_core::{
    FChain, FChainConfig, FaultySlave, FleetMaster, FleetViolation, SlaveEndpoint, SlaveFault,
    TenantSlave, Transport,
};
use fchain_metrics::{stats, AppId, ComponentId, Tick};
use fchain_sim::{tenant_mix, RunConfig, Simulator};
use fchain_wire::{RemoteSlave, WireAddr, WireServer};
use serde_json::json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Evidence window for slow-manifesting faults (DiskHog), matching the
/// paper's hand-picked `W = 500` and [`crate::Campaign::new`]. The fleet
/// path historically analyzed every tenant at the default window — the
/// root cause of the multi-tenant recall collapse — so
/// [`FleetCampaign::evaluate`] now installs this per-tenant override.
pub const SLOW_FAULT_LOOKBACK: u64 = 500;

/// One fleet drain at a fixed tenant count.
#[derive(Debug, Clone)]
pub struct FleetCampaign {
    /// Number of tenant applications (each gets its own seeded run of a
    /// [`tenant_mix`] (application, fault) pair).
    pub tenants: usize,
    /// Base seed; tenant `i` simulates with `base_seed + i`.
    pub base_seed: u64,
    /// Run length in ticks.
    pub duration: Tick,
    /// Look-back window handed to the slaves.
    pub lookback: u64,
    /// Per-host daemons in the shared pool; every tenant's components are
    /// spread over all of them round-robin.
    pub hosts: usize,
    /// Simulated slave RPC latency (ms) added to every collect call.
    pub rpc_delay_ms: u64,
    /// How many tenants (the first ones) get one extra slave stalled for
    /// [`FleetCampaign::stall_ms`] — the isolation scenario.
    pub stalled_tenants: usize,
    /// Stall duration (ms) for the sick tenants' straggler slave; set it
    /// past the deadline budget so the straggler is abandoned.
    pub stall_ms: u64,
    /// Master-side config (deadline budget, engine, fleet knobs).
    pub config: FChainConfig,
    /// How the master reaches the pool daemons: in-process method calls
    /// (the bit-identical default), or real Unix-domain / TCP sockets —
    /// the same sweep measured over the wire protocol. The daemons stay
    /// in this process (served by [`WireServer`]) so the measurement is
    /// deterministic, but every collect crosses a real socket.
    pub transport: Transport,
}

/// Per-tenant scoring and solo-vs-fleet divergence for one drain.
///
/// The solo reference is the paper's single-application pipeline
/// ([`FChain::diagnose`]) run on the *exact same* seeded case with the
/// same config and effective evidence window, and the shared pool keeps
/// the same history its daemon does — so a divergence isolates what the
/// fleet path itself changed (deadline budgets, scheduling), never the
/// case draw.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    /// Tenant index within the drain (`tenant_mix(tenant)`).
    pub tenant: usize,
    /// The tenant's fleet identity.
    pub app: AppId,
    /// Registered tenant name, e.g. `rubis-3`.
    pub name: String,
    /// Scenario family, e.g. `rubis/CpuHog` — the unit the divergence
    /// summary aggregates over.
    pub family: String,
    /// The tenant's simulation seed (`base_seed + tenant`).
    pub seed: u64,
    /// Effective evidence window the fleet analyzed this tenant at.
    pub lookback: u64,
    /// This tenant's pinpointing score against ground truth.
    pub counts: Counts,
    /// What the fleet drain pinpointed.
    pub pinpointed: Vec<ComponentId>,
    /// Ground-truth faulty components.
    pub truth: Vec<ComponentId>,
    /// What the solo (single-app, in-process) pipeline pinpointed.
    pub solo_pinpointed: Vec<ComponentId>,
    /// Whether the fleet report differs from the solo report.
    pub divergent: bool,
}

/// What one drain measured.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Tenant count of this drain.
    pub tenants: usize,
    /// Violations diagnosed (tenants whose seeded SLO fired).
    pub diagnoses: usize,
    /// Wall-clock of draining them all.
    pub wall_clock: Duration,
    /// Diagnoses per second.
    pub throughput: f64,
    /// Median violation-to-report latency (ms).
    pub p50_latency_ms: f64,
    /// Tail violation-to-report latency (ms).
    pub p99_latency_ms: f64,
    /// p99 latency over the *healthy* tenants only (excludes the
    /// [`FleetCampaign::stalled_tenants`]); equals `p99_latency_ms` when
    /// nobody is stalled.
    pub healthy_p99_latency_ms: f64,
    /// Pinpointing accuracy accumulated across tenants.
    pub counts: Counts,
    /// Per-tenant scores and solo-vs-fleet divergence, in tenant order.
    pub per_tenant: Vec<TenantOutcome>,
}

impl FleetResult {
    /// Indices of tenants whose fleet report differs from their solo
    /// report (same seed, same engine, same window).
    pub fn divergent_tenants(&self) -> Vec<usize> {
        self.per_tenant
            .iter()
            .filter(|t| t.divergent)
            .map(|t| t.tenant)
            .collect()
    }

    /// Scenario families with at least one diverging tenant, deduplicated
    /// and sorted — the "which workload shapes does the fleet path distort"
    /// summary.
    pub fn divergent_families(&self) -> Vec<String> {
        let mut families: Vec<String> = self
            .per_tenant
            .iter()
            .filter(|t| t.divergent)
            .map(|t| t.family.clone())
            .collect();
        families.sort();
        families.dedup();
        families
    }
}

/// One tenant staged into a drain: its outcome template, whether it
/// gets a stalled straggler, and the recorded case its slaves hold.
pub(crate) struct StagedTenant {
    pub(crate) outcome: TenantOutcome,
    pub(crate) stalled: bool,
    pub(crate) case: fchain_core::CaseData,
}

/// A fully-staged fleet drain, ready to fire: the master with every
/// tenant registered, the shared daemon pool (kept alive — the masters
/// hold only `Arc` views), and the violation batch.
pub(crate) struct StagedDrain {
    pub(crate) fleet: FleetMaster,
    #[allow(dead_code)] // keeps the pool's daemons alive for the drain
    pub(crate) pool: Vec<Arc<SlaveDaemon>>,
    /// Wire servers fronting the pool when the campaign runs over
    /// sockets; empty in-process. Kept alive for the drain — dropping a
    /// server closes its listener.
    #[allow(dead_code)]
    pub(crate) servers: Vec<WireServer>,
    pub(crate) violations: Vec<FleetViolation>,
    pub(crate) tenants: Vec<StagedTenant>,
}

/// Distinguishes concurrently-staged socket campaigns (unit tests run
/// in one process) in the UDS socket path.
static SOCKET_NONCE: AtomicU64 = AtomicU64::new(0);

/// Renders one [`TenantOutcome`] as the per-tenant JSON row.
fn tenant_json(t: &TenantOutcome) -> serde_json::Value {
    json!({
        "tenant": t.tenant,
        "name": t.name,
        "family": t.family,
        "seed": t.seed,
        "lookback": t.lookback,
        "tp": t.counts.tp,
        "fp": t.counts.fp,
        "fn": t.counts.fn_,
        "divergent": t.divergent,
    })
}

impl FleetCampaign {
    /// A default drain at `tenants` tenants: shared 2-host pool, 100 ms
    /// simulated RPC latency, 2 s deadline budget, no stalled tenants.
    /// Honors the `FCHAIN_DURATION` environment override like
    /// [`crate::Campaign::new`].
    pub fn new(tenants: usize, base_seed: u64) -> Self {
        let duration = std::env::var("FCHAIN_DURATION")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1500);
        FleetCampaign {
            tenants,
            base_seed,
            duration,
            lookback: 100,
            hosts: 2,
            rpc_delay_ms: 100,
            stalled_tenants: 0,
            stall_ms: 0,
            config: FChainConfig {
                slave_deadline_ms: 2_000,
                ..FChainConfig::default()
            },
            transport: Transport::InProcess,
        }
    }

    /// The socket deadline handed to servers and remote endpoints
    /// (`slave_deadline_ms = 0` blocks forever, like the master).
    fn socket_deadline(&self) -> Option<Duration> {
        (self.config.slave_deadline_ms > 0)
            .then(|| Duration::from_millis(self.config.slave_deadline_ms))
    }

    /// Brings up one [`WireServer`] per pool daemon for a socket-backed
    /// campaign; in-process campaigns get none.
    fn serve_pool(&self, pool: &[Arc<SlaveDaemon>]) -> Vec<WireServer> {
        let deadline = self.socket_deadline();
        match self.transport {
            Transport::InProcess => Vec::new(),
            Transport::Uds => pool
                .iter()
                .map(|daemon| {
                    let nonce = SOCKET_NONCE.fetch_add(1, Ordering::Relaxed);
                    let path = std::env::temp_dir()
                        .join(format!("fchain-eval-{}-{nonce}.sock", std::process::id()));
                    WireServer::serve(&WireAddr::Uds(path), Arc::clone(daemon), deadline)
                        .expect("bind campaign UDS socket")
                })
                .collect(),
            Transport::Tcp => pool
                .iter()
                .map(|daemon| {
                    WireServer::serve(
                        &WireAddr::Tcp("127.0.0.1:0".to_string()),
                        Arc::clone(daemon),
                        deadline,
                    )
                    .expect("bind campaign TCP socket")
                })
                .collect(),
        }
    }

    /// One tenant-scoped endpoint on pool daemon `host`: an in-process
    /// [`TenantSlave`], or a [`RemoteSlave`] dialing that daemon's wire
    /// server — the master cannot tell them apart, which is the point.
    fn tenant_view(
        &self,
        pool: &[Arc<SlaveDaemon>],
        servers: &[WireServer],
        host: usize,
        app: AppId,
    ) -> Arc<dyn SlaveEndpoint> {
        match self.transport {
            Transport::InProcess => Arc::new(TenantSlave::new(Arc::clone(&pool[host]), app)),
            Transport::Uds | Transport::Tcp => Arc::new(
                RemoteSlave::connect(
                    servers[host].addr().clone(),
                    Some(app),
                    self.socket_deadline(),
                )
                .expect("dial campaign wire server"),
            ),
        }
    }

    /// Builds the drain without firing it: simulates every tenant,
    /// computes its solo reference ([`FChain::diagnose`] on the same
    /// case), stages every tenant's case once on the shared pool with
    /// [`SlaveDaemon::replay_pool`] (tenant `i`'s component `c` on host
    /// `(i + c) % hosts`, every sample retained, as the solo daemon
    /// retains it) and registers the slaves. Shared between
    /// [`FleetCampaign::evaluate`] and the attribution harness
    /// ([`crate::attribution::attribute`]) so both diagnose the *exact
    /// same* staged fleet.
    pub(crate) fn stage(&self) -> StagedDrain {
        assert!(self.hosts >= 1, "at least one host");
        let mut fleet = FleetMaster::new(self.config.clone());
        let solo = FChain::new(self.config.clone());
        let mut violations: Vec<FleetViolation> = Vec::new();
        let mut preps: Vec<StagedTenant> = Vec::new();
        for i in 0..self.tenants {
            let (app_kind, fault) = tenant_mix(i);
            let seed = self.base_seed + i as u64;
            let run =
                Simulator::new(RunConfig::new(app_kind, fault, seed).with_duration(self.duration))
                    .run();
            let Some(mut case) = case_from_run(&run, self.lookback) else {
                continue; // the SLO never fired; nothing to drain
            };
            // The paper hand-picks W = 500 for slow-manifesting faults;
            // the solo campaign honors it, and the fleet path must too —
            // analyzing a DiskHog at the default window was the recall
            // bug this campaign now guards against.
            let lookback = if fault.is_slow_manifesting() {
                SLOW_FAULT_LOOKBACK
            } else {
                self.lookback
            };
            case.lookback = lookback;
            let name = format!("{}-{i}", app_kind.name());
            let app = fleet.add_tenant(&name);
            if lookback != self.config.lookback {
                fleet.set_tenant_lookback(app, lookback);
            }
            // The fleet master sees the same dependency evidence the solo
            // pipeline would use: observed request traces, and — only
            // under the ensemble, which knows how to weigh weaker
            // evidence — the declared dataflow topology as a fallback.
            if let Some(deps) = case.dependency_evidence(self.config.ensemble.enabled) {
                fleet.set_dependencies(app, deps.clone());
            }
            violations.push(FleetViolation {
                app,
                violation_at: case.violation_at,
            });
            let solo_pinpointed = solo.diagnose(&case).pinpointed;
            preps.push(StagedTenant {
                outcome: TenantOutcome {
                    tenant: i,
                    app,
                    name,
                    family: format!("{}/{:?}", app_kind.name(), fault),
                    seed,
                    lookback,
                    counts: Counts::default(),
                    pinpointed: Vec::new(),
                    // Set-semantics ground truth (sorted, deduplicated
                    // union across overlapping faults); see
                    // `Counts::add_case`.
                    truth: run.ground_truth(),
                    solo_pinpointed,
                    divergent: false,
                },
                stalled: i < self.stalled_tenants && self.stall_ms > 0,
                case,
            });
        }

        let recordings: Vec<Recording<'_>> = preps
            .iter()
            .map(|p| Recording::case(p.outcome.app, p.outcome.tenant, &p.case))
            .collect();
        let pool = SlaveDaemon::replay_pool(&self.config, self.hosts, &recordings);
        let servers = self.serve_pool(&pool);
        for prep in &preps {
            let app = prep.outcome.app;
            for host in 0..pool.len() {
                let view = self.tenant_view(&pool, &servers, host, app);
                let slave: Arc<dyn SlaveEndpoint> = if self.rpc_delay_ms > 0 {
                    Arc::new(FaultySlave::new(
                        view,
                        SlaveFault::Stall {
                            delay: Duration::from_millis(self.rpc_delay_ms),
                        },
                    ))
                } else {
                    view
                };
                fleet.register_slave(app, slave);
            }
            if prep.stalled {
                fleet.register_slave(
                    app,
                    Arc::new(FaultySlave::new(
                        self.tenant_view(&pool, &servers, 0, app),
                        SlaveFault::Stall {
                            delay: Duration::from_millis(self.stall_ms),
                        },
                    )),
                );
            }
        }
        StagedDrain {
            fleet,
            pool,
            servers,
            violations,
            tenants: preps,
        }
    }

    /// Runs the drain: simulate every tenant, ingest into the shared
    /// pool, fire all violations at once, score and time the reports.
    pub fn evaluate(&self) -> FleetResult {
        let mut staged = self.stage();
        let preps = &mut staged.tenants;

        let started = std::time::Instant::now();
        let reports = staged.fleet.on_violations(&staged.violations);
        let wall_clock = started.elapsed();

        let mut counts = Counts::default();
        let mut latencies: Vec<f64> = Vec::new();
        let mut healthy_latencies: Vec<f64> = Vec::new();
        for report in &reports {
            let prep = preps
                .iter_mut()
                .find(|p| p.outcome.app == report.app)
                .expect("every report belongs to a simulated tenant");
            prep.outcome
                .counts
                .add_case(&report.report.pinpointed, &prep.outcome.truth);
            prep.outcome.pinpointed = report.report.pinpointed.clone();
            prep.outcome.divergent = prep.outcome.pinpointed != prep.outcome.solo_pinpointed;
            counts.merge(prep.outcome.counts);
            let ms = report.latency.as_secs_f64() * 1e3;
            latencies.push(ms);
            if !prep.stalled {
                healthy_latencies.push(ms);
            }
        }
        latencies.sort_by(|a, b| a.total_cmp(b));
        healthy_latencies.sort_by(|a, b| a.total_cmp(b));

        FleetResult {
            tenants: self.tenants,
            diagnoses: reports.len(),
            wall_clock,
            throughput: if wall_clock.as_secs_f64() > 0.0 {
                reports.len() as f64 / wall_clock.as_secs_f64()
            } else {
                0.0
            },
            p50_latency_ms: stats::percentile_sorted(&latencies, 50.0).unwrap_or(0.0),
            p99_latency_ms: stats::percentile_sorted(&latencies, 99.0).unwrap_or(0.0),
            healthy_p99_latency_ms: stats::percentile_sorted(&healthy_latencies, 99.0)
                .unwrap_or(0.0),
            counts,
            per_tenant: staged.tenants.into_iter().map(|p| p.outcome).collect(),
        }
    }

    /// Renders a tenant-count sweep as the JSON shape the `BENCH_*.json`
    /// files use.
    pub fn to_json(&self, sweep: &[FleetResult]) -> serde_json::Value {
        json!({
            "bench": "fleet_throughput",
            "case": {
                "base_seed": self.base_seed,
                "duration": self.duration,
                "lookback": self.lookback,
                "hosts": self.hosts,
                "rpc_delay_ms": self.rpc_delay_ms,
                "slave_deadline_ms": self.config.slave_deadline_ms,
                "engine": self.config.engine.to_string(),
                "ensemble": self.config.ensemble.enabled,
                "transport": self.transport.to_string(),
            },
            "sweep": sweep.iter().map(|r| json!({
                "tenants": r.tenants,
                "diagnoses": r.diagnoses,
                "wall_clock_ms": r.wall_clock.as_secs_f64() * 1e3,
                "throughput": r.throughput,
                "p50_latency_ms": r.p50_latency_ms,
                "p99_latency_ms": r.p99_latency_ms,
                "healthy_p99_latency_ms": r.healthy_p99_latency_ms,
                "precision": r.counts.precision(),
                "recall": r.counts.recall(),
                "tp": r.counts.tp,
                "fp": r.counts.fp,
                "fn": r.counts.fn_,
                "divergent_tenants": r.divergent_tenants(),
                "divergent_families": r.divergent_families(),
                "per_tenant": r.per_tenant.iter().map(tenant_json).collect::<Vec<_>>(),
            })).collect::<Vec<_>>(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_campaign(tenants: usize) -> FleetCampaign {
        FleetCampaign {
            duration: 1500,
            rpc_delay_ms: 20,
            ..FleetCampaign::new(tenants, 4100)
        }
    }

    #[test]
    fn drain_diagnoses_every_tenant() {
        let campaign = small_campaign(3);
        let result = campaign.evaluate();
        assert_eq!(result.diagnoses, 3, "every seeded tenant must violate");
        assert!(result.counts.recall() > 0.0, "the mix must be localizable");
        assert!(result.throughput > 0.0);
        assert!(result.p50_latency_ms > 0.0);
        assert!(result.p99_latency_ms >= result.p50_latency_ms);
    }

    #[test]
    fn drain_accuracy_is_deterministic() {
        let campaign = small_campaign(2);
        let a = campaign.evaluate();
        let b = campaign.evaluate();
        assert_eq!(a.counts, b.counts, "same seeds, same diagnosis payload");
        assert_eq!(a.diagnoses, b.diagnoses);
    }

    #[test]
    fn stalled_tenant_latency_stays_its_own() {
        let campaign = FleetCampaign {
            stalled_tenants: 1,
            stall_ms: 900,
            config: FChainConfig {
                slave_deadline_ms: 300,
                ..FChainConfig::default()
            },
            ..small_campaign(3)
        };
        let result = campaign.evaluate();
        assert_eq!(result.diagnoses, 3);
        // The sick tenant rides its deadline budget; the healthy tail
        // must stay clearly under it.
        assert!(
            result.healthy_p99_latency_ms < result.p99_latency_ms,
            "healthy p99 {} must undercut the stalled tail {}",
            result.healthy_p99_latency_ms,
            result.p99_latency_ms
        );
    }

    #[test]
    fn socket_transports_match_in_process_bit_for_bit() {
        // The same staged fleet drained over real UDS and TCP sockets
        // must pinpoint exactly what the in-process drain pinpoints —
        // the wire protocol adds latency, never meaning.
        let base = FleetCampaign {
            rpc_delay_ms: 0,
            ..small_campaign(2)
        };
        let inproc = base.evaluate();
        for transport in [Transport::Uds, Transport::Tcp] {
            let remote = FleetCampaign {
                transport,
                ..base.clone()
            }
            .evaluate();
            assert_eq!(remote.counts, inproc.counts, "{transport} counts");
            assert_eq!(remote.diagnoses, inproc.diagnoses, "{transport} drain");
            for (r, i) in remote.per_tenant.iter().zip(&inproc.per_tenant) {
                assert_eq!(
                    r.pinpointed, i.pinpointed,
                    "{transport} tenant {}",
                    r.tenant
                );
                assert!(!r.divergent, "{transport} tenant {} diverged", r.tenant);
            }
        }
    }

    #[test]
    fn per_tenant_counts_sum_to_the_aggregate() {
        let result = small_campaign(3).evaluate();
        assert_eq!(result.per_tenant.len(), 3);
        let mut summed = Counts::default();
        for t in &result.per_tenant {
            summed.merge(t.counts);
        }
        assert_eq!(summed, result.counts);
        for (i, t) in result.per_tenant.iter().enumerate() {
            assert_eq!(t.tenant, i);
            assert!(!t.truth.is_empty(), "every mix case has a culprit");
        }
    }

    #[test]
    fn slow_manifesting_tenant_gets_the_long_window() {
        // tenant_mix(2) is the Hadoop ConcurrentDiskHog — the paper's
        // hand-picked W = 500 case.
        let result = small_campaign(3).evaluate();
        let slow = &result.per_tenant[2];
        assert_eq!(slow.lookback, SLOW_FAULT_LOOKBACK);
        assert_eq!(result.per_tenant[0].lookback, 100);
    }

    #[test]
    fn divergence_summary_reflects_the_flags() {
        let mut result = small_campaign(2).evaluate();
        for t in &mut result.per_tenant {
            t.divergent = false;
        }
        assert!(result.divergent_tenants().is_empty());
        assert!(result.divergent_families().is_empty());
        result.per_tenant[1].divergent = true;
        assert_eq!(result.divergent_tenants(), vec![1]);
        assert_eq!(
            result.divergent_families(),
            vec![result.per_tenant[1].family.clone()]
        );
    }

    #[test]
    fn json_summary_has_the_bench_shape() {
        let campaign = small_campaign(1);
        let result = campaign.evaluate();
        let rendered =
            serde_json::to_string_pretty(&campaign.to_json(&[result])).expect("serializable");
        for key in [
            "fleet_throughput",
            "\"tenants\"",
            "\"throughput\"",
            "\"p50_latency_ms\"",
            "\"p99_latency_ms\"",
            "\"recall\"",
            "\"per_tenant\"",
            "\"divergent_tenants\"",
            "\"divergent_families\"",
            "\"fn\"",
        ] {
            assert!(rendered.contains(key), "missing {key} in {rendered}");
        }
        assert!(!rendered.contains("null"), "non-finite value in {rendered}");
    }
}
