//! The continuous-ingest front: bounded per-shard sample rings with
//! explicit backpressure, drained into a [`SlaveDaemon`] by background
//! threads in amortized batches.
//!
//! Every entry point used to push samples synchronously into the daemon;
//! this module is the long-running service shape the ROADMAP calls for.
//! Producers route each sample to one of `shards` bounded rings by a
//! seeded hash of its `(tenant, component)` key; a fixed drainer owns
//! each ring and applies its contents via
//! [`SlaveDaemon::ingest_batch_for`], locking a component shard once per
//! run instead of once per sample.
//!
//! # Determinism argument
//!
//! The daemon's end state after a drained stream is **bit-identical** to
//! pushing the same per-metric streams synchronously, regardless of
//! thread timing:
//!
//! 1. a metric's samples all carry the same `(tenant, component)` key,
//!    so they route to exactly one ring;
//! 2. a ring is a FIFO and exactly one drainer owns it, so per-ring
//!    (hence per-metric) order is preserved end to end;
//! 3. daemon shards are keyed by `(tenant, component)` and a metric's
//!    state depends only on its own sample order.
//!
//! Interleaving *across* components differs run to run, but component
//! states are independent, so every analysis — and every
//! `DiagnosisReport` downstream — is unchanged. `tests/ingest.rs` pins
//! this against the golden cases and a chaos family cycle.
//!
//! Backpressure on a full ring is explicit policy, never silence:
//! [`BackpressurePolicy::Block`] parks the producer,
//! [`BackpressurePolicy::DropOldest`] evicts the oldest queued sample,
//! [`BackpressurePolicy::Reject`] refuses the new one. Every outcome is
//! counted (exactly — see the multi-writer stress proptest) and surfaces
//! through `fchain-obs` and [`IngestStats`].

use crate::master::endpoint::splitmix64;
use crate::slave::{MetricSample, SlaveDaemon};
use fchain_metrics::AppId;
use fchain_obs::{self as obs, StageSnapshot};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Every this-many accepted samples, one is stamped and its
/// ingest-to-visible latency recorded (sampling keeps the ring entry
/// small and the clock off the hot path).
const LATENCY_SAMPLE_EVERY: u64 = 64;

/// How long a blocked producer or idle flush waits before re-checking
/// for shutdown.
const WAIT_SLICE: Duration = Duration::from_millis(5);

/// What a full ingest ring does with the overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Park the producer until a drainer frees space (lossless; the
    /// default — monitoring feeds prefer latency over loss).
    Block,
    /// Evict the oldest queued sample to admit the new one (bounded
    /// staleness; favors fresh data under overload).
    DropOldest,
    /// Refuse the new sample (the producer keeps it and may retry).
    Reject,
}

impl BackpressurePolicy {
    /// Stable lowercase wire/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            BackpressurePolicy::Block => "block",
            BackpressurePolicy::DropOldest => "drop-oldest",
            BackpressurePolicy::Reject => "reject",
        }
    }
}

impl std::str::FromStr for BackpressurePolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "block" => Ok(BackpressurePolicy::Block),
            "drop-oldest" => Ok(BackpressurePolicy::DropOldest),
            "reject" => Ok(BackpressurePolicy::Reject),
            other => Err(format!(
                "unknown backpressure policy '{other}' (expected block, drop-oldest or reject)"
            )),
        }
    }
}

impl std::fmt::Display for BackpressurePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Tuning knobs for an [`IngestService`].
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Number of bounded rings (sample queues). More shards spread
    /// producer contention; each ring is owned by exactly one drainer.
    pub shards: usize,
    /// Per-ring capacity in samples.
    pub ring_capacity: usize,
    /// What a full ring does with the overflow.
    pub policy: BackpressurePolicy,
    /// Seeds the `(tenant, component)` → ring route and each drainer's
    /// sweep offset, so a given deployment's layout is reproducible.
    pub seed: u64,
    /// Most samples a drainer takes from one ring per sweep.
    pub max_batch: usize,
    /// Background drain threads (each owns `shards / drain_threads`
    /// rings). Clamped to `[1, shards]`.
    pub drain_threads: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            shards: 16,
            ring_capacity: 4096,
            policy: BackpressurePolicy::Block,
            seed: 0,
            max_batch: 1024,
            drain_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(4),
        }
    }
}

/// What happened to a pushed sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Queued for a drainer (possibly after evicting under drop-oldest
    /// or waiting under block).
    Enqueued,
    /// Refused by the reject policy; the caller still owns the sample.
    Rejected,
    /// The service is shutting down; the sample was not queued.
    Closed,
}

/// One queued sample plus its optional latency stamp.
struct Entry {
    app: AppId,
    sample: MetricSample,
    stamp: Option<Instant>,
}

/// One bounded FIFO ring.
struct Ring {
    queue: Mutex<VecDeque<Entry>>,
    /// Signaled by the drainer when space frees (block-policy producers
    /// wait here).
    space: Condvar,
}

/// Exact accounting of a service's lifetime, returned by
/// [`IngestService::shutdown`] and readable live via
/// [`IngestService::stats`].
#[derive(Debug, Clone)]
pub struct IngestStats {
    /// Samples accepted into a ring.
    pub enqueued: u64,
    /// Samples applied to the daemon.
    pub applied: u64,
    /// Queued samples evicted by the drop-oldest policy.
    pub dropped_oldest: u64,
    /// New samples refused by the reject policy.
    pub rejected: u64,
    /// Producer waits under the block policy.
    pub block_waits: u64,
    /// Batches applied by drainers.
    pub batches: u64,
    /// Sampled ingest-to-visible latency (push to applied-under-shard-
    /// lock), one in [`LATENCY_SAMPLE_EVERY`] samples.
    pub visible_latency: StageSnapshot,
}

impl IngestStats {
    /// Approximate `p`-th percentile of the sampled ingest-to-visible
    /// latency, in nanoseconds.
    pub fn visible_percentile_ns(&self, p: f64) -> u64 {
        self.visible_latency.approx_percentile_ns(p)
    }

    /// Samples that entered a ring but never reached the daemon
    /// (evicted by drop-oldest); plus `rejected` gives total loss.
    pub fn lost(&self) -> u64 {
        self.dropped_oldest + self.rejected
    }
}

struct Inner {
    config: IngestConfig,
    daemon: Arc<SlaveDaemon>,
    rings: Vec<Ring>,
    stop: AtomicBool,
    enqueued: AtomicU64,
    applied: AtomicU64,
    dropped_oldest: AtomicU64,
    rejected: AtomicU64,
    block_waits: AtomicU64,
    batches: AtomicU64,
    seq: AtomicU64,
    latency: obs::Histogram,
    /// Signaled after every applied batch; [`IngestService::flush`]
    /// waits here for the backlog to reach zero.
    progress: Mutex<()>,
    progress_cv: Condvar,
}

impl Inner {
    /// Ring index for a sample's `(tenant, component)` key — the seeded
    /// deterministic route that gives each metric exactly one FIFO.
    fn route(&self, app: AppId, sample: &MetricSample) -> usize {
        let key = ((app.0 as u64) << 32) | sample.component.0 as u64;
        (splitmix64(self.config.seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            % self.rings.len() as u64) as usize
    }

    /// Accepted samples still queued (enqueued minus applied minus
    /// evicted).
    fn backlog(&self) -> u64 {
        let enq = self.enqueued.load(Ordering::Acquire);
        let done =
            self.applied.load(Ordering::Acquire) + self.dropped_oldest.load(Ordering::Acquire);
        enq.saturating_sub(done)
    }

    fn push(&self, app: AppId, sample: MetricSample) -> PushOutcome {
        if self.stop.load(Ordering::Acquire) {
            return PushOutcome::Closed;
        }
        let stamp = self
            .seq
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(LATENCY_SAMPLE_EVERY)
            .then(Instant::now);
        let ring = &self.rings[self.route(app, &sample)];
        let mut queue = ring.queue.lock().expect("ingest ring poisoned");
        loop {
            if queue.len() < self.config.ring_capacity {
                queue.push_back(Entry { app, sample, stamp });
                self.enqueued.fetch_add(1, Ordering::Release);
                obs::count(obs::Counter::IngestEnqueued, 1);
                return PushOutcome::Enqueued;
            }
            match self.config.policy {
                BackpressurePolicy::Block => {
                    if self.stop.load(Ordering::Acquire) {
                        return PushOutcome::Closed;
                    }
                    self.block_waits.fetch_add(1, Ordering::Relaxed);
                    obs::count(obs::Counter::IngestRingBlocked, 1);
                    queue = ring
                        .space
                        .wait_timeout(queue, WAIT_SLICE)
                        .expect("ingest ring poisoned")
                        .0;
                }
                BackpressurePolicy::DropOldest => {
                    queue.pop_front();
                    self.dropped_oldest.fetch_add(1, Ordering::Release);
                    obs::count(obs::Counter::IngestRingDropped, 1);
                }
                BackpressurePolicy::Reject => {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    obs::count(obs::Counter::IngestRingRejected, 1);
                    return PushOutcome::Rejected;
                }
            }
        }
    }

    /// Applies one drained batch: consecutive same-tenant runs become
    /// one `ingest_batch_for` call (which in turn locks each component
    /// shard once per consecutive run).
    fn apply(&self, batch: &[Entry], scratch: &mut Vec<MetricSample>) {
        let _span = obs::time(obs::Stage::IngestDrain);
        let mut i = 0;
        while i < batch.len() {
            let app = batch[i].app;
            scratch.clear();
            let mut j = i;
            while j < batch.len() && batch[j].app == app {
                scratch.push(batch[j].sample);
                j += 1;
            }
            self.daemon.ingest_batch_for(app, scratch);
            i = j;
        }
        let now = Instant::now();
        for entry in batch {
            if let Some(stamp) = entry.stamp {
                self.latency
                    .record(now.saturating_duration_since(stamp).as_nanos() as u64);
            }
        }
        self.applied
            .fetch_add(batch.len() as u64, Ordering::Release);
        self.batches.fetch_add(1, Ordering::Relaxed);
        obs::count(obs::Counter::IngestBatchesApplied, 1);
        let _lock = self.progress.lock().expect("ingest progress poisoned");
        self.progress_cv.notify_all();
    }

    /// One drainer's main loop over its ring subset.
    fn drain_loop(&self, my_rings: &[usize]) {
        let mut batch: Vec<Entry> = Vec::with_capacity(self.config.max_batch);
        let mut scratch: Vec<MetricSample> = Vec::with_capacity(self.config.max_batch);
        loop {
            let mut drained_any = false;
            for &r in my_rings {
                let ring = &self.rings[r];
                {
                    let mut queue = ring.queue.lock().expect("ingest ring poisoned");
                    let take = queue.len().min(self.config.max_batch);
                    batch.extend(queue.drain(..take));
                }
                if batch.is_empty() {
                    continue;
                }
                ring.space.notify_all();
                self.apply(&batch, &mut scratch);
                batch.clear();
                drained_any = true;
            }
            if !drained_any {
                // A stopping service still drains to empty first, so
                // shutdown implies flush.
                if self.stop.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(Duration::from_micros(50));
            }
        }
    }

    fn stats(&self) -> IngestStats {
        let (buckets, count, sum, min, max) = self.latency.load();
        IngestStats {
            enqueued: self.enqueued.load(Ordering::Acquire),
            applied: self.applied.load(Ordering::Acquire),
            dropped_oldest: self.dropped_oldest.load(Ordering::Acquire),
            rejected: self.rejected.load(Ordering::Acquire),
            block_waits: self.block_waits.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            visible_latency: StageSnapshot {
                stage: "ingest_visible".to_string(),
                count,
                total_ns: sum,
                min_ns: min,
                max_ns: max,
                buckets,
            },
        }
    }
}

/// A cloneable producer handle onto a running [`IngestService`].
#[derive(Clone)]
pub struct IngestHandle {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for IngestHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestHandle").finish_non_exhaustive()
    }
}

impl IngestHandle {
    /// Routes one sample of the default tenant into its ring.
    pub fn push(&self, sample: MetricSample) -> PushOutcome {
        self.inner.push(AppId::default(), sample)
    }

    /// Routes one tenant sample into its ring.
    pub fn push_for(&self, app: AppId, sample: MetricSample) -> PushOutcome {
        self.inner.push(app, sample)
    }
}

/// A running ingest front over one [`SlaveDaemon`]: `shards` bounded
/// rings plus `drain_threads` background drainers.
///
/// # Examples
///
/// ```
/// use fchain_core::{IngestConfig, IngestService};
/// use fchain_core::slave::{MetricSample, SlaveDaemon};
/// use fchain_core::FChainConfig;
/// use fchain_metrics::{ComponentId, MetricKind};
/// use std::sync::Arc;
///
/// let daemon = Arc::new(SlaveDaemon::new(FChainConfig::default()));
/// let service = IngestService::spawn(Arc::clone(&daemon), IngestConfig::default());
/// let handle = service.handle();
/// for t in 0..1000u64 {
///     for kind in MetricKind::ALL {
///         handle.push(MetricSample {
///             tick: t,
///             component: ComponentId(0),
///             kind,
///             value: 40.0 + ((t * (kind.index() as u64 + 2)) % 5) as f64,
///         });
///     }
/// }
/// let stats = service.shutdown();
/// assert_eq!(stats.applied, 6000);
/// assert!(daemon.analyze(ComponentId(0), 999).is_some());
/// ```
#[derive(Debug)]
pub struct IngestService {
    inner: Arc<Inner>,
    drainers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestService")
            .field("shards", &self.rings.len())
            .field("backlog", &self.backlog())
            .finish_non_exhaustive()
    }
}

impl IngestService {
    /// Spawns the rings and drain threads over `daemon`.
    ///
    /// # Panics
    ///
    /// Panics if `shards`, `ring_capacity` or `max_batch` is zero.
    pub fn spawn(daemon: Arc<SlaveDaemon>, mut config: IngestConfig) -> Self {
        assert!(config.shards > 0, "ingest needs at least one ring");
        assert!(config.ring_capacity > 0, "ring capacity must be non-zero");
        assert!(config.max_batch > 0, "max batch must be non-zero");
        config.drain_threads = config.drain_threads.clamp(1, config.shards);
        let rings = (0..config.shards)
            .map(|_| Ring {
                queue: Mutex::new(VecDeque::new()),
                space: Condvar::new(),
            })
            .collect();
        let inner = Arc::new(Inner {
            daemon,
            rings,
            stop: AtomicBool::new(false),
            enqueued: AtomicU64::new(0),
            applied: AtomicU64::new(0),
            dropped_oldest: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            block_waits: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            latency: obs::Histogram::new(),
            progress: Mutex::new(()),
            progress_cv: Condvar::new(),
            config,
        });
        let threads = inner.config.drain_threads;
        let drainers = (0..threads)
            .map(|t| {
                // Each drainer owns a fixed disjoint ring subset, swept
                // round-robin from a seeded offset (the FleetMaster's
                // schedule shape) so no drainer starves its last ring.
                let mut my_rings: Vec<usize> = (0..inner.config.shards)
                    .filter(|r| r % threads == t)
                    .collect();
                let offset = (splitmix64(inner.config.seed ^ (t as u64).wrapping_add(1))
                    % my_rings.len().max(1) as u64) as usize;
                my_rings.rotate_left(offset);
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("fchain-ingest-{t}"))
                    .spawn(move || inner.drain_loop(&my_rings))
                    .expect("spawn ingest drainer")
            })
            .collect();
        IngestService { inner, drainers }
    }

    /// A cloneable producer handle.
    pub fn handle(&self) -> IngestHandle {
        IngestHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// The daemon this service feeds.
    pub fn daemon(&self) -> &Arc<SlaveDaemon> {
        &self.inner.daemon
    }

    /// Blocks until every sample accepted so far has been applied to
    /// the daemon (the ingest-to-visible barrier). Producers may keep
    /// pushing; the barrier covers what was enqueued before it returns.
    pub fn flush(&self) {
        let mut guard = self
            .inner
            .progress
            .lock()
            .expect("ingest progress poisoned");
        while self.inner.backlog() > 0 {
            guard = self
                .inner
                .progress_cv
                .wait_timeout(guard, WAIT_SLICE)
                .expect("ingest progress poisoned")
                .0;
        }
    }

    /// Live accounting snapshot.
    pub fn stats(&self) -> IngestStats {
        self.inner.stats()
    }

    /// Stops accepting samples, drains every ring to empty, joins the
    /// drainers and returns the final accounting.
    pub fn shutdown(self) -> IngestStats {
        self.inner.stop.store(true, Ordering::Release);
        for ring in &self.inner.rings {
            ring.space.notify_all();
        }
        for drainer in self.drainers {
            drainer.join().expect("ingest drainer panicked");
        }
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FChainConfig;
    use crate::master::endpoint::CollectRequest;
    use fchain_metrics::{ComponentId, MetricKind};

    fn sample(tick: u64, component: u32, kind: MetricKind, value: f64) -> MetricSample {
        MetricSample {
            tick,
            component: ComponentId(component),
            kind,
            value,
        }
    }

    #[test]
    fn service_state_matches_direct_ingest() {
        let direct = SlaveDaemon::new(FChainConfig::default());
        let served = Arc::new(SlaveDaemon::new(FChainConfig::default()));
        let service = IngestService::spawn(
            Arc::clone(&served),
            IngestConfig {
                shards: 4,
                drain_threads: 2,
                ..IngestConfig::default()
            },
        );
        let handle = service.handle();
        for t in 0..1200u64 {
            for c in 0..4u32 {
                for kind in MetricKind::ALL {
                    let v = 40.0
                        + ((t * (kind.index() as u64 + 2)) % 5) as f64
                        + if c == 2 && t >= 1100 { 55.0 } else { 0.0 };
                    let s = sample(t, c, kind, v);
                    direct.ingest(s);
                    assert_eq!(handle.push(s), PushOutcome::Enqueued);
                }
            }
        }
        let stats = service.shutdown();
        assert_eq!(stats.enqueued, 1200 * 4 * 6);
        assert_eq!(stats.applied, stats.enqueued);
        assert_eq!(stats.lost(), 0);
        let request = CollectRequest::at(1190);
        assert_eq!(
            served.analyze_all(None, &request),
            direct.analyze_all(None, &request)
        );
    }

    #[test]
    fn flush_is_a_visibility_barrier() {
        let daemon = Arc::new(SlaveDaemon::new(FChainConfig::default()));
        let service = IngestService::spawn(Arc::clone(&daemon), IngestConfig::default());
        let handle = service.handle();
        for t in 0..700u64 {
            for kind in MetricKind::ALL {
                handle.push(sample(t, 0, kind, 40.0 + (t % 5) as f64));
            }
        }
        service.flush();
        assert_eq!(service.stats().applied, 700 * 6);
        assert!(daemon.analyze(ComponentId(0), 699).is_some());
        service.shutdown();
    }

    #[test]
    fn reject_policy_counts_exactly() {
        // No drainers can keep up with a ring of capacity 8 being filled
        // synchronously with 100 samples for one component: every sample
        // routes to the same ring, so at least 100 − 8 rejections happen
        // before any drain. Exact accounting: enqueued + rejected = 100.
        let daemon = Arc::new(SlaveDaemon::new(FChainConfig::default()));
        let service = IngestService::spawn(
            Arc::clone(&daemon),
            IngestConfig {
                shards: 1,
                ring_capacity: 8,
                policy: BackpressurePolicy::Reject,
                max_batch: 8,
                drain_threads: 1,
                ..IngestConfig::default()
            },
        );
        let handle = service.handle();
        let mut enqueued = 0u64;
        let mut rejected = 0u64;
        for t in 0..100u64 {
            match handle.push(sample(t, 0, MetricKind::Cpu, 1.0)) {
                PushOutcome::Enqueued => enqueued += 1,
                PushOutcome::Rejected => rejected += 1,
                PushOutcome::Closed => unreachable!(),
            }
        }
        let stats = service.shutdown();
        assert_eq!(enqueued + rejected, 100);
        assert_eq!(stats.enqueued, enqueued);
        assert_eq!(stats.rejected, rejected);
        assert_eq!(stats.applied, enqueued);
    }

    #[test]
    fn drop_oldest_keeps_the_freshest_and_counts_evictions() {
        let daemon = Arc::new(SlaveDaemon::new(FChainConfig::default()));
        let service = IngestService::spawn(
            Arc::clone(&daemon),
            IngestConfig {
                shards: 1,
                ring_capacity: 4,
                policy: BackpressurePolicy::DropOldest,
                max_batch: 64,
                drain_threads: 1,
                seed: 7,
            },
        );
        let handle = service.handle();
        for t in 0..500u64 {
            assert_eq!(
                handle.push(sample(t, 0, MetricKind::Cpu, t as f64)),
                PushOutcome::Enqueued
            );
        }
        let stats = service.shutdown();
        assert_eq!(stats.enqueued, 500);
        assert_eq!(stats.applied + stats.dropped_oldest, 500);
        // Ticks only move forward through the daemon: evictions drop a
        // prefix of each burst, never reorder.
        assert!(daemon.monitored_series() == 1);
    }

    #[test]
    fn block_policy_is_lossless_under_pressure() {
        let daemon = Arc::new(SlaveDaemon::new(FChainConfig::default()));
        let service = IngestService::spawn(
            Arc::clone(&daemon),
            IngestConfig {
                shards: 2,
                ring_capacity: 16,
                policy: BackpressurePolicy::Block,
                max_batch: 16,
                drain_threads: 1,
                ..IngestConfig::default()
            },
        );
        let handle = service.handle();
        let writers: Vec<_> = (0..4u32)
            .map(|c| {
                let h = handle.clone();
                std::thread::spawn(move || {
                    for t in 0..2000u64 {
                        for kind in MetricKind::ALL {
                            assert_eq!(
                                h.push(sample(t, c, kind, 40.0 + (t % 5) as f64)),
                                PushOutcome::Enqueued
                            );
                        }
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().expect("writer");
        }
        let stats = service.shutdown();
        assert_eq!(stats.enqueued, 4 * 2000 * 6);
        assert_eq!(stats.applied, stats.enqueued);
        assert_eq!(stats.lost(), 0);
    }

    #[test]
    fn push_after_shutdown_reports_closed() {
        let daemon = Arc::new(SlaveDaemon::new(FChainConfig::default()));
        let service = IngestService::spawn(Arc::clone(&daemon), IngestConfig::default());
        let handle = service.handle();
        service.shutdown();
        assert_eq!(
            handle.push(sample(0, 0, MetricKind::Cpu, 1.0)),
            PushOutcome::Closed
        );
    }

    #[test]
    fn policy_parses_and_prints() {
        for policy in [
            BackpressurePolicy::Block,
            BackpressurePolicy::DropOldest,
            BackpressurePolicy::Reject,
        ] {
            assert_eq!(policy.name().parse::<BackpressurePolicy>(), Ok(policy));
        }
        assert!("banana".parse::<BackpressurePolicy>().is_err());
    }
}
