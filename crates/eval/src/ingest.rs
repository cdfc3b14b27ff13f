//! Sustained-ingest load campaign: the throughput and footprint side of
//! the continuous-ingest service.
//!
//! [`IngestCampaign`] drives a single-box [`IngestService`] with a
//! synthetic monitoring fleet — `components` components × six metrics ×
//! `ticks` 1 Hz samples, spread over `tenants` tenant lanes — from
//! `writers` producer threads, and measures what the `ingest_throughput`
//! bench publishes in `BENCH_ingest.json`: sustained applied
//! metrics/sec, exact backpressure accounting, sampled ingest-to-visible
//! latency, and the tiered hot/cold storage footprint against the
//! equivalent flat rings.
//!
//! The load is **pre-encoded** into [`CompressedTrace`]s (delta-of-delta
//! ticks + XOR'd values) before the clock starts, so the timed section
//! replays compressed memory instead of re-simulating — the shape a
//! replay-trace workload would ship, and a live consumer for the tick
//! codec.

use fchain_core::slave::{MetricSample, SlaveDaemon};
use fchain_core::{BackpressurePolicy, FChainConfig, IngestConfig, IngestService, IngestStats};
use fchain_metrics::{AppId, ComponentId, CompressedTrace, MetricKind, Tick};
use serde_json::{json, Value};
use std::sync::Arc;
use std::time::Duration;

/// One sustained synthetic-load run against a live [`IngestService`].
#[derive(Debug, Clone)]
pub struct IngestCampaign {
    /// Monitored components (each carries all six metric kinds).
    pub components: usize,
    /// Samples per metric (1 Hz ticks).
    pub ticks: Tick,
    /// Tenant lanes; component `c` belongs to tenant `c % tenants`.
    pub tenants: usize,
    /// Producer threads (components are split into contiguous slices).
    pub writers: usize,
    /// Ingest rings.
    pub shards: usize,
    /// Per-ring capacity in samples.
    pub ring_capacity: usize,
    /// Full-ring policy.
    pub policy: BackpressurePolicy,
    /// Drainer batch size.
    pub max_batch: usize,
    /// Drain threads.
    pub drain_threads: usize,
    /// Seeds the ring routes and drain sweep offsets.
    pub seed: u64,
    /// Daemon config (its `lookback` sets the hot-tier width; the
    /// per-metric history capacity follows
    /// [`SlaveDaemon::capacity_for_lookback`]).
    pub config: FChainConfig,
}

impl IngestCampaign {
    /// The default single-box load profile: 2 000 components × 6 metrics
    /// × 600 ticks (7.2 M samples) over 4 tenants, lossless blocking
    /// rings. Honors `FCHAIN_INGEST_COMPONENTS` / `FCHAIN_INGEST_TICKS`
    /// environment overrides so CI can scale the profile.
    pub fn new(seed: u64) -> Self {
        let env = |key: &str, default: u64| {
            std::env::var(key)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        };
        IngestCampaign {
            components: env("FCHAIN_INGEST_COMPONENTS", 2000) as usize,
            ticks: env("FCHAIN_INGEST_TICKS", 600),
            tenants: 4,
            writers: 4,
            shards: 32,
            ring_capacity: 8192,
            policy: BackpressurePolicy::Block,
            max_batch: 2048,
            drain_threads: 4,
            seed,
            config: FChainConfig::default(),
        }
    }

    /// The deterministic synthetic reading for one metric sample: a
    /// step-like quantized monitoring signal that holds each level for a
    /// few ticks — what real 1 Hz system metrics look like between
    /// faults, and the shape the XOR codec is designed for.
    fn value(component: usize, kind: MetricKind, tick: Tick) -> f64 {
        let step = tick / 6;
        40.0 + ((step * (kind.index() as u64 + 2) + component as u64 * 7) % 5) as f64
    }

    /// Pre-encodes every metric's trace (outside the timed section).
    fn encode_load(&self) -> Vec<[CompressedTrace; 6]> {
        (0..self.components)
            .map(|c| {
                MetricKind::ALL.map(|kind| {
                    CompressedTrace::encode((0..self.ticks).map(|t| (t, Self::value(c, kind, t))))
                })
            })
            .collect()
    }

    /// Runs the campaign: encode the load, spawn the service, pump from
    /// `writers` threads, flush, shut down, measure.
    pub fn run(&self) -> IngestResult {
        assert!(self.components > 0 && self.ticks > 0, "empty load");
        assert!(self.tenants > 0 && self.writers > 0, "empty drivers");
        let traces = self.encode_load();
        let trace_bytes: usize = traces
            .iter()
            .flat_map(|t| t.iter().map(CompressedTrace::approx_bytes))
            .sum();
        let daemon = Arc::new(SlaveDaemon::new(self.config.clone()));
        let service = IngestService::spawn(
            Arc::clone(&daemon),
            IngestConfig {
                shards: self.shards,
                ring_capacity: self.ring_capacity,
                policy: self.policy,
                seed: self.seed,
                max_batch: self.max_batch,
                drain_threads: self.drain_threads,
            },
        );
        let per_writer = self.components.div_ceil(self.writers);
        let started = std::time::Instant::now();
        std::thread::scope(|scope| {
            for slice in traces.chunks(per_writer).enumerate() {
                let (w, chunk) = slice;
                let handle = service.handle();
                let tenants = self.tenants;
                let first = w * per_writer;
                scope.spawn(move || {
                    for (offset, metrics) in chunk.iter().enumerate() {
                        let c = first + offset;
                        let component = ComponentId(c as u32);
                        let app = AppId((c % tenants) as u32);
                        for (k, trace) in metrics.iter().enumerate() {
                            let kind = MetricKind::ALL[k];
                            for (tick, value) in trace.iter() {
                                handle.push_for(
                                    app,
                                    MetricSample {
                                        tick,
                                        component,
                                        kind,
                                        value,
                                    },
                                );
                            }
                        }
                    }
                });
            }
        });
        service.flush();
        let wall_clock = started.elapsed();
        let stats = service.shutdown();
        let (hot_bytes, cold_bytes, flat_bytes) = daemon.storage_tier_bytes();
        let sustained_rate = if wall_clock.as_secs_f64() > 0.0 {
            stats.applied as f64 / wall_clock.as_secs_f64()
        } else {
            0.0
        };
        IngestResult {
            components: self.components,
            ticks: self.ticks,
            tenants: self.tenants,
            writers: self.writers,
            policy: self.policy,
            samples: (self.components * 6) as u64 * self.ticks,
            wall_clock,
            sustained_rate,
            stats,
            hot_bytes,
            cold_bytes,
            flat_bytes,
            trace_bytes,
            daemon_bytes: daemon.approx_memory_bytes(),
        }
    }
}

/// What one [`IngestCampaign::run`] measured.
#[derive(Debug, Clone)]
pub struct IngestResult {
    /// Components in the load.
    pub components: usize,
    /// Ticks per metric.
    pub ticks: Tick,
    /// Tenant lanes.
    pub tenants: usize,
    /// Producer threads.
    pub writers: usize,
    /// Backpressure policy used.
    pub policy: BackpressurePolicy,
    /// Samples offered (components × 6 × ticks).
    pub samples: u64,
    /// Pump start to ingest-to-visible flush.
    pub wall_clock: Duration,
    /// Applied samples per second over the wall clock.
    pub sustained_rate: f64,
    /// The service's exact accounting (enqueued/applied/losses/latency).
    pub stats: IngestStats,
    /// Raw hot-tier bytes across every series after the run.
    pub hot_bytes: usize,
    /// Compressed cold-tier bytes across every series.
    pub cold_bytes: usize,
    /// What the same windows would cost as flat rings.
    pub flat_bytes: usize,
    /// Compressed footprint of the pre-encoded load traces.
    pub trace_bytes: usize,
    /// Whole-daemon resident estimate (tiers + models + sketches).
    pub daemon_bytes: usize,
}

impl IngestResult {
    /// Cold-tier bytes over the equivalent flat-ring bytes — the
    /// compression figure the bench floors (≤ 0.35 at W = 500).
    pub fn cold_ratio(&self) -> f64 {
        if self.flat_bytes == 0 {
            0.0
        } else {
            self.cold_bytes as f64 / self.flat_bytes as f64
        }
    }

    /// Whole tiered store (hot + cold) over the equivalent flat rings.
    pub fn tiered_ratio(&self) -> f64 {
        if self.flat_bytes == 0 {
            0.0
        } else {
            (self.hot_bytes + self.cold_bytes) as f64 / self.flat_bytes as f64
        }
    }

    /// The row `BENCH_ingest.json` publishes for this profile.
    pub fn to_json(&self) -> Value {
        json!({
            "components": self.components,
            "ticks": self.ticks,
            "tenants": self.tenants,
            "writers": self.writers,
            "policy": self.policy.name(),
            "samples": self.samples,
            "wall_clock_ms": self.wall_clock.as_secs_f64() * 1e3,
            "sustained_metrics_per_sec": self.sustained_rate,
            "enqueued": self.stats.enqueued,
            "applied": self.stats.applied,
            "dropped_oldest": self.stats.dropped_oldest,
            "rejected": self.stats.rejected,
            "block_waits": self.stats.block_waits,
            "batches": self.stats.batches,
            "p50_visible_us": self.stats.visible_percentile_ns(50.0) as f64 / 1e3,
            "p99_visible_us": self.stats.visible_percentile_ns(99.0) as f64 / 1e3,
            "hot_bytes": self.hot_bytes,
            "cold_bytes": self.cold_bytes,
            "flat_ring_bytes": self.flat_bytes,
            "cold_over_flat": self.cold_ratio(),
            "tiered_over_flat": self.tiered_ratio(),
            "trace_bytes": self.trace_bytes,
            "daemon_bytes": self.daemon_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fchain_core::CollectRequest;

    fn small() -> IngestCampaign {
        IngestCampaign {
            components: 12,
            ticks: 400,
            tenants: 3,
            writers: 3,
            shards: 4,
            ring_capacity: 1024,
            policy: BackpressurePolicy::Block,
            max_batch: 256,
            drain_threads: 2,
            seed: 11,
            config: FChainConfig::default(),
        }
    }

    #[test]
    fn lossless_profile_applies_every_sample() {
        let result = small().run();
        assert_eq!(result.samples, 12 * 6 * 400);
        assert_eq!(result.stats.enqueued, result.samples);
        assert_eq!(result.stats.applied, result.samples);
        assert_eq!(result.stats.lost(), 0);
        assert!(result.sustained_rate > 0.0);
    }

    #[test]
    fn campaign_state_matches_direct_ingest() {
        // The service-pumped daemon must be bit-identical to a daemon fed
        // the same per-metric streams synchronously.
        let campaign = small();
        let result_daemon = {
            let daemon = SlaveDaemon::new(campaign.config.clone());
            for c in 0..campaign.components {
                let app = AppId((c % campaign.tenants) as u32);
                for kind in MetricKind::ALL {
                    for t in 0..campaign.ticks {
                        daemon.ingest_for(
                            app,
                            MetricSample {
                                tick: t,
                                component: ComponentId(c as u32),
                                kind,
                                value: IngestCampaign::value(c, kind, t),
                            },
                        );
                    }
                }
            }
            daemon
        };
        // Re-run the campaign and compare every tenant's analysis.
        let campaign_daemon = {
            let traces = campaign.encode_load();
            let daemon = Arc::new(SlaveDaemon::new(campaign.config.clone()));
            let service = IngestService::spawn(
                Arc::clone(&daemon),
                IngestConfig {
                    shards: campaign.shards,
                    ring_capacity: campaign.ring_capacity,
                    policy: campaign.policy,
                    seed: campaign.seed,
                    max_batch: campaign.max_batch,
                    drain_threads: campaign.drain_threads,
                },
            );
            let handle = service.handle();
            for (c, metrics) in traces.iter().enumerate() {
                let app = AppId((c % campaign.tenants) as u32);
                for (k, trace) in metrics.iter().enumerate() {
                    for (tick, value) in trace.iter() {
                        handle.push_for(
                            app,
                            MetricSample {
                                tick,
                                component: ComponentId(c as u32),
                                kind: MetricKind::ALL[k],
                                value,
                            },
                        );
                    }
                }
            }
            service.shutdown();
            daemon
        };
        let request = CollectRequest::at(campaign.ticks - 1);
        for t in 0..campaign.tenants {
            let app = Some(AppId(t as u32));
            assert_eq!(
                campaign_daemon.analyze_all(app, &request),
                result_daemon.analyze_all(app, &request),
                "tenant {t} diverged through the service"
            );
        }
    }

    #[test]
    fn json_row_has_the_floored_fields() {
        let row = serde_json::to_string(&small().run().to_json()).expect("serialize row");
        for key in [
            "sustained_metrics_per_sec",
            "applied",
            "dropped_oldest",
            "rejected",
            "cold_over_flat",
            "p99_visible_us",
        ] {
            assert!(row.contains(&format!("\"{key}\"")), "missing {key}");
        }
    }
}
