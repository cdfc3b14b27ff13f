//! The continuously-running slave daemon.
//!
//! In deployment a slave runs inside Domain 0 of every cloud node,
//! sampling each guest VM's six metrics once per second and keeping the
//! online prediction models warm (paper Fig. 1). When the master reports
//! an SLO violation it does **not** retrain anything — it already holds
//! the causal prediction-error series and the recent sample history, and
//! only the look-back window analysis runs on demand.
//!
//! [`SlaveDaemon`] is that incremental runtime: feed it one
//! [`MetricSample`] per metric per tick, and ask for a component's
//! [`ComponentFinding`] at any time. Memory is bounded (the paper reports
//! a ~3 MB daemon footprint): per metric it keeps the learner, a tiered
//! value history ([`TieredSeries`]) — a raw hot suffix covering the
//! configured look-back window and Gorilla-compressed cold blocks for the
//! older calibration span, read back bit-identically — and one flat ring
//! of the prediction errors the learner returned, paired index for index
//! with the values. Errors do not compress (the adapting model gives each
//! one fresh low-mantissa entropy), so the ring is their only store: every
//! error read is a slice of it, and the streaming engine's error-floor
//! sketch reads its window from it too.

use crate::case::CaseData;
use crate::config::{AnalysisEngine, FChainConfig};
use crate::master::endpoint::CollectRequest;
use crate::report::{AbnormalChange, ComponentFinding};
use crate::slave::selection::{
    error_floor, screen, select, suffix_starts, SelectionScratch, Suffix, FLOOR_MIN_PERCENTILE,
};
use fchain_metrics::{
    AppId, ComponentId, MetricKind, PercentileSketch, Tick, TieredSeries, TimeSeries,
    COLD_BLOCK_SAMPLES,
};
use fchain_model::OnlineLearner;
use fchain_obs as obs;
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Longest monitoring gap (ticks) bridged by carrying the last value
/// forward; anything longer counts as an outage and the series restarts
/// with a fresh calibration.
const MAX_GAP_FILL: u64 = 30;

/// Raw hot-suffix length of the value tier for a look-back window: the
/// window plus the two ticks before it (`W + 3`), so the values a
/// violation at the latest tick analyzes never decode a cold block;
/// rounding up to whole cold blocks keeps freezes block-aligned.
fn hot_capacity_for(lookback: u64) -> usize {
    let need = lookback as usize + 3;
    need.div_ceil(COLD_BLOCK_SAMPLES) * COLD_BLOCK_SAMPLES
}

/// One metric observation delivered to the daemon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSample {
    /// Sampling time.
    pub tick: Tick,
    /// Which component the sample belongs to.
    pub component: ComponentId,
    /// Which of the six attributes.
    pub kind: MetricKind,
    /// The sampled value.
    pub value: f64,
}

impl MetricSample {
    /// Replays one component's recorded history (`metrics` indexed by
    /// [`MetricKind::index`]) kind-major in [`MetricKind::ALL`] order,
    /// each series tick-ascending from its start. Every harness staging
    /// a recorded case feeds this one stream, so in-process, socket and
    /// fleet slaves hold identical state. Non-finite values pass
    /// through; dropping them is the daemon's job.
    ///
    /// # Panics
    ///
    /// The iterator panics if `metrics` holds fewer than six series.
    pub fn replay(
        component: ComponentId,
        metrics: &[TimeSeries],
    ) -> impl Iterator<Item = MetricSample> + '_ {
        MetricKind::ALL.into_iter().flat_map(move |kind| {
            metrics[kind.index()]
                .iter()
                .map(move |(tick, value)| MetricSample {
                    tick,
                    component,
                    kind,
                    value,
                })
        })
    }
}

/// One tenant's recorded histories, staged by
/// [`SlaveDaemon::replay_pool`].
#[derive(Debug, Clone)]
pub struct Recording<'a> {
    /// The tenant shard the samples are ingested for.
    pub app: AppId,
    /// Host of the first component; component `c` lands on host
    /// `offset + c` (modulo the pool size).
    pub offset: usize,
    /// Copies of each component's history, on consecutive hosts.
    pub replicas: usize,
    /// Each component's id and recorded series (indexed by
    /// [`MetricKind::index`]), in placement order.
    pub components: Vec<(ComponentId, &'a [TimeSeries])>,
}

impl<'a> Recording<'a> {
    /// A recorded case for tenant `app`, one copy per component, its
    /// first component on host `offset`.
    pub fn case(app: AppId, offset: usize, case: &'a CaseData) -> Self {
        Recording {
            app,
            offset,
            replicas: 1,
            components: case
                .components
                .iter()
                .map(|c| (c.id, c.metrics.as_slice()))
                .collect(),
        }
    }
}

/// Per-metric online state: the learner plus bounded recent history, and
/// — under the streaming engine — an exact percentile sketch of the
/// normal-behaviour error span, advanced on every push so the error floor
/// is an O(1) read at violation time.
#[derive(Debug)]
struct MetricState {
    learner: OnlineLearner,
    values: TieredSeries,
    /// `errors[i]` is what `learner.feed` returned for `values[i]`; the
    /// ring evicts in lockstep with `values`.
    errors: VecDeque<f64>,
    last_tick: Option<Tick>,
    /// Upper tail (every rank the floor reads) of exactly
    /// `errors[cal .. len − W]` in ring-local coordinates — the normal
    /// span the error floor is computed from when the violation tick
    /// coincides with the latest sample. The sketch reads that span from
    /// `errors`; it keeps no copy.
    sketch: PercentileSketch,
    /// Whether `sketch` currently mirrors the normal span. False until
    /// the series reaches steady state (`len ≥ W + cal + 1`) and after a
    /// reset; [`MetricState::advance_sketch`] rebuilds on the transition.
    sketch_ok: bool,
}

impl MetricState {
    fn new(config: &FChainConfig, capacity: usize) -> Self {
        MetricState {
            learner: OnlineLearner::new(config.learner.clone()),
            values: TieredSeries::new(capacity, hot_capacity_for(config.lookback)),
            errors: VecDeque::new(),
            last_tick: None,
            sketch: PercentileSketch::new(FLOOR_MIN_PERCENTILE),
            sketch_ok: false,
        }
    }

    /// Feeds one value through the learner into the rings; under the
    /// streaming engine also advances the normal-span sketch.
    fn push_sample(&mut self, value: f64, config: &FChainConfig) {
        let capacity = self.values.capacity();
        let mut leaving = None;
        if self.errors.len() == capacity {
            // The span's oldest error leaves with the eviction; read it
            // before every index shifts down by one.
            leaving = self
                .sketch_ok
                .then(|| self.errors[config.learner.calibration_samples]);
            self.errors.pop_front();
        } else if self.errors.len() == self.errors.capacity() {
            // Grow by doubling, but never past what the ring retains.
            let len = self.errors.len();
            self.errors.reserve_exact(len.max(4).min(capacity - len));
        }
        self.errors.push_back(self.learner.feed(value));
        self.values.push(value);
        debug_assert_eq!(self.errors.len(), self.values.len());
        if config.engine == AnalysisEngine::Streaming {
            self.advance_sketch(leaving, config);
        }
    }

    /// Keeps `sketch` equal to the normal error span `[cal, len − W)`
    /// after a push. In steady state the span's sliding window moved by at
    /// most one element at each end (one new entrant at `len − 1 − W`; the
    /// oldest, `leaving`, only when the ring evicted), and only an entrant
    /// or a leaver in the sketch's kept tail costs more than a counter
    /// update.
    fn advance_sketch(&mut self, leaving: Option<f64>, config: &FChainConfig) {
        let w = config.lookback as usize;
        let cal = config.learner.calibration_samples;
        let len = self.errors.len();
        // Pre-steady-state the analysis-time span formulas still clamp
        // (`w = min(W, n−1)`, `nse = max(n−w, cal+1)`), so the span is not
        // yet the simple sliding window this maintenance tracks. The
        // floor falls back to the direct computation until then.
        if len < w + cal + 1 {
            self.sketch_ok = false;
            return;
        }
        if !self.sketch_ok {
            self.sketch
                .rebuild(self.errors.range(cal..len - w).copied());
            self.sketch_ok = true;
            return;
        }
        if let Some(x) = leaving {
            self.sketch
                .retire(x, self.errors.range(cal..len - 1 - w).copied());
        }
        self.sketch.push(
            self.errors[len - 1 - w],
            self.errors.range(cal..len - w).copied(),
        );
    }

    /// The error floor read from the sketch — bit-identical to the batch
    /// computation over `errors[cal .. n − w]` because the sketch answers
    /// every percentile the floor reads over exactly that multiset,
    /// through the same interpolation.
    fn sketch_floor(&self, config: &FChainConfig) -> f64 {
        error_floor(|p| self.sketch.percentile(p), self.sketch.max(), config)
    }
}

/// One component's violation-time buffers: the ring snapshots (whole
/// rings, or only the suffixes selection reads once the sketch floor has
/// screened the metric) and the selection pipeline's scratch. Both
/// engines analyze through one; the streaming engine keeps it in the
/// shard for the next analysis, the batch engine drops it when the
/// analysis ends.
#[derive(Debug)]
struct AnalysisScratch {
    hist: Vec<f64>,
    errs: Vec<f64>,
    selection: SelectionScratch,
}

impl AnalysisScratch {
    fn new(config: &FChainConfig) -> Self {
        AnalysisScratch {
            hist: Vec::new(),
            errs: Vec::new(),
            selection: SelectionScratch::new(config),
        }
    }
}

/// One component's shard: its six metric series under a single lock, so
/// ingestion into one component never contends with the ingestion or
/// analysis of any other.
#[derive(Debug, Default)]
struct ComponentState {
    /// Indexed by [`MetricKind::index`]; `None` until the first sample of
    /// that kind arrives.
    metrics: [Option<MetricState>; 6],
    /// Streaming-engine analysis buffers kept between analyses; `None`
    /// until the first analysis (and always `None` under the batch
    /// engine).
    scratch: Option<Box<AnalysisScratch>>,
}

/// The shard directory: every tenant's component shards, ordered by
/// `(tenant, component)` so one tenant's shards form a contiguous range.
type ShardDirectory = BTreeMap<(AppId, ComponentId), Arc<Mutex<ComponentState>>>;

/// One shard-directory entry: the `(tenant, component)` key plus the
/// shard's lock.
type ShardEntry = ((AppId, ComponentId), Arc<Mutex<ComponentState>>);

impl ComponentState {
    fn series(&self) -> usize {
        self.metrics.iter().flatten().count()
    }
}

/// The continuously-running per-host slave module.
///
/// Thread-safe: monitoring threads feed samples while the master thread
/// may concurrently request an analysis (the paper's master contacts "the
/// slaves on all related distributed hosts" after a violation).
///
/// # Examples
///
/// ```
/// use fchain_core::slave::{MetricSample, SlaveDaemon};
/// use fchain_core::FChainConfig;
/// use fchain_metrics::{ComponentId, MetricKind};
///
/// let daemon = SlaveDaemon::new(FChainConfig::default());
/// let c = ComponentId(0);
/// for t in 0..1000u64 {
///     for kind in MetricKind::ALL {
///         let normal = 40.0 + ((t * (kind.index() as u64 + 2)) % 5) as f64;
///         let value = if kind == MetricKind::Cpu && t >= 940 {
///             normal + 50.0 // fault
///         } else {
///             normal
///         };
///         daemon.ingest(MetricSample { tick: t, component: c, kind, value });
///     }
/// }
/// let finding = daemon.analyze(c, 990).expect("component is monitored");
/// assert!(finding.onset().is_some(), "the CPU step must be selected");
/// ```
#[derive(Debug)]
pub struct SlaveDaemon {
    config: FChainConfig,
    /// How many recent samples each metric retains.
    capacity: usize,
    /// Shard directory, keyed by `(tenant, component)`: one daemon pool
    /// hosts metric state for many tenant applications, each component's
    /// six series under its own lock. The outer lock is held only long
    /// enough to look up (or create) a shard; all sample and analysis
    /// work happens under the per-shard lock. The single-app API operates
    /// on the default tenant ([`AppId::default`]), so pre-fleet callers
    /// see exactly the old behaviour.
    shards: Mutex<ShardDirectory>,
}

impl SlaveDaemon {
    /// Creates a daemon retaining enough history for the configured
    /// look-back window plus the model's normal-error span.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`FChainConfig::validate`]).
    pub fn new(config: FChainConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid FChainConfig: {e}");
        }
        let capacity = Self::capacity_for_lookback(config.lookback);
        SlaveDaemon {
            config,
            capacity,
            shards: Mutex::new(BTreeMap::new()),
        }
    }

    /// The live default ring: per-metric history (samples) for a
    /// look-back window of `lookback` — the window itself plus enough
    /// pre-window history for the adaptive error floor, capped to keep
    /// the footprint bounded but never below the
    /// [`SlaveDaemon::with_capacity`] floor of twice the window.
    fn capacity_for_lookback(lookback: u64) -> usize {
        (lookback as usize * 8)
            .clamp(600, 4000)
            .max(2 * lookback as usize)
    }

    /// Stages recorded histories on `hosts` fresh daemons running
    /// `config` — the one replay rule every in-process harness shares,
    /// so a staged case diagnoses exactly as [`crate::FChain::diagnose`]
    /// does:
    ///
    /// * every daemon retains every sample replayed into it: its ring
    ///   holds the longest replayed series plus 16 samples of slack for
    ///   gap-bridged carries, and at least twice `config.lookback`, so the
    ///   error floor learns from the whole recorded normal history;
    /// * component `c` (in recording order) of a recording with offset
    ///   `k` lands on host `(k + c + r) % hosts` for each replica `r` in
    ///   `0..replicas` (replicas clamped into `1..=hosts`);
    /// * every sample is fed through [`MetricSample::replay`] into the
    ///   recording's tenant shard.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` is zero or `config` is invalid (see
    /// [`FChainConfig::validate`]).
    pub fn replay_pool(
        config: &FChainConfig,
        hosts: usize,
        recordings: &[Recording<'_>],
    ) -> Vec<Arc<SlaveDaemon>> {
        assert!(hosts >= 1, "a replay pool needs at least one host");
        let longest = recordings
            .iter()
            .flat_map(|r| &r.components)
            .flat_map(|&(_, metrics)| metrics)
            .map(TimeSeries::len)
            .max()
            .unwrap_or(0);
        let capacity = (longest + 16).max((config.lookback as usize).saturating_mul(2));
        let pool: Vec<Arc<SlaveDaemon>> = (0..hosts)
            .map(|_| Arc::new(SlaveDaemon::new(config.clone()).with_capacity(capacity)))
            .collect();
        for recording in recordings {
            for (c, &(component, metrics)) in recording.components.iter().enumerate() {
                for r in 0..recording.replicas.clamp(1, hosts) {
                    let host = &pool[(recording.offset + c + r) % hosts];
                    for sample in MetricSample::replay(component, metrics) {
                        host.ingest_for(recording.app, sample);
                    }
                }
            }
        }
        pool
    }

    /// How many recent samples each metric retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The shard of `(app, component)`, created on first use.
    fn shard(&self, app: AppId, component: ComponentId) -> Arc<Mutex<ComponentState>> {
        Arc::clone(self.shards.lock().entry((app, component)).or_default())
    }

    /// A snapshot of the whole shard directory in `(tenant, component)`
    /// order.
    fn shard_list(&self) -> Vec<ShardEntry> {
        self.shards
            .lock()
            .iter()
            .map(|(&key, shard)| (key, Arc::clone(shard)))
            .collect()
    }

    /// A snapshot of one tenant's shards in component-id order.
    fn shard_list_for(&self, app: AppId) -> Vec<ShardEntry> {
        self.shards
            .lock()
            .range((app, ComponentId(0))..=(app, ComponentId(u32::MAX)))
            .map(|(&key, shard)| (key, Arc::clone(shard)))
            .collect()
    }

    /// Overrides the per-metric history capacity (samples).
    ///
    /// # Panics
    ///
    /// Panics if smaller than twice the look-back window (the analysis
    /// needs pre-window context).
    fn with_capacity(mut self, capacity: usize) -> Self {
        assert!(
            capacity >= 2 * self.config.lookback as usize,
            "capacity must cover at least twice the look-back window"
        );
        self.capacity = capacity;
        self
    }

    /// The components currently monitored across every tenant, in id
    /// order with duplicates collapsed — the registry inventory a
    /// single-app master records when the slave registers. (Two tenants
    /// may reuse the same component index; tenant-scoped callers use
    /// [`SlaveDaemon::monitored_components_for`].)
    pub fn monitored_components(&self) -> Vec<ComponentId> {
        let mut components: Vec<ComponentId> = self.shards.lock().keys().map(|&(_, c)| c).collect();
        components.sort_unstable();
        components.dedup();
        components
    }

    /// The components monitored for one tenant, in id order.
    pub fn monitored_components_for(&self, app: AppId) -> Vec<ComponentId> {
        self.shard_list_for(app)
            .iter()
            .map(|&((_, c), _)| c)
            .collect()
    }

    /// The number of (component, metric) series currently monitored.
    pub fn monitored_series(&self) -> usize {
        self.shard_list()
            .iter()
            .map(|(_, shard)| shard.lock().series())
            .sum()
    }

    /// Resident footprint of the daemon's state in bytes, measured from
    /// the actual tiered series (raw hot suffixes + compressed cold
    /// blocks), the error rings, the model matrices and the streaming
    /// engine's error-floor sketch tails. The paper reports ~3 MB per host
    /// daemon (§III.G); this estimator makes the bound checkable in tests
    /// and dashboards.
    pub fn approx_memory_bytes(&self) -> usize {
        let learner_bytes = {
            let b = self.config.learner.bins;
            (b * b + 2 * b) * std::mem::size_of::<f64>() // transition matrix + masses
        };
        self.shard_list()
            .iter()
            .map(|(_, shard)| {
                let comp = shard.lock();
                comp.metrics
                    .iter()
                    .flatten()
                    .map(|state| {
                        state.values.approx_bytes()
                            + state.errors.capacity() * std::mem::size_of::<f64>()
                            + state.sketch.approx_bytes()
                            + learner_bytes
                    })
                    .sum::<usize>()
            })
            .sum()
    }

    /// Storage split across the tiers: `(hot_bytes, cold_bytes,
    /// flat_ring_bytes)` summed over every monitored series, where the
    /// last is what the same windows would cost as flat rings. The
    /// cold/flat ratio is the bench's compression figure.
    ///
    /// Values contribute hot suffix + compressed cold blocks; the error
    /// ring is all hot (errors don't compress).
    pub fn storage_tier_bytes(&self) -> (usize, usize, usize) {
        let mut hot = 0usize;
        let mut cold = 0usize;
        let mut flat = 0usize;
        for (_, shard) in self.shard_list() {
            let comp = shard.lock();
            for state in comp.metrics.iter().flatten() {
                hot +=
                    state.values.hot_bytes() + state.errors.capacity() * std::mem::size_of::<f64>();
                cold += state.values.cold_bytes();
                // The value window and the error window, each as a flat ring.
                flat += 2 * state.values.flat_ring_bytes();
            }
        }
        (hot, cold, flat)
    }

    /// Feeds one sample, updating the online model incrementally (and,
    /// under the streaming engine, the per-metric error-floor sketch).
    ///
    /// Samples must arrive in strictly increasing tick order per metric;
    /// duplicate-tick and out-of-order samples are dropped (monitoring
    /// pipelines may repeat a tick on reconnect). A NaN or infinite value
    /// is dropped too, before it touches any state, so the next sample
    /// bridges its tick like any other missing sample. Drops, bridged gap
    /// ticks and series resets are counted via `fchain-obs`
    /// (`ingest_dropped_samples` / `ingest_gap_ticks_bridged` /
    /// `ingest_series_resets`) and surface in the pipeline snapshot.
    pub fn ingest(&self, sample: MetricSample) {
        self.ingest_for(AppId::default(), sample);
    }

    /// Feeds one sample into a tenant application's shard. Identical to
    /// [`SlaveDaemon::ingest`] except for the shard key; the per-metric
    /// streaming state is tenant-agnostic.
    pub fn ingest_for(&self, app: AppId, sample: MetricSample) {
        let shard = self.shard(app, sample.component);
        let mut comp = shard.lock();
        self.apply_sample(&mut comp, sample);
    }

    /// Feeds a batch of samples into one tenant's shards, locking each
    /// component shard once per consecutive run of its samples instead
    /// of once per sample — the amortization an `IngestBatch` frame from
    /// the `fchaind` wire server relies on. Sample-for-sample identical
    /// to calling [`SlaveDaemon::ingest_for`] in batch order: the
    /// per-sample path (non-finite and dup/out-of-order drop, gap
    /// bridging, outage reset, sketch advance) is shared.
    pub fn ingest_batch_for(&self, app: AppId, samples: &[MetricSample]) {
        let mut i = 0;
        while i < samples.len() {
            let component = samples[i].component;
            let mut j = i + 1;
            while j < samples.len() && samples[j].component == component {
                j += 1;
            }
            let shard = self.shard(app, component);
            let mut comp = shard.lock();
            for &sample in &samples[i..j] {
                self.apply_sample(&mut comp, sample);
            }
            i = j;
        }
    }

    /// The per-sample ingest path, run under the component shard's lock.
    fn apply_sample(&self, comp: &mut ComponentState, sample: MetricSample) {
        if !sample.value.is_finite() {
            obs::count(obs::Counter::IngestDroppedSamples, 1);
            return;
        }
        let state = comp.metrics[sample.kind.index()]
            .get_or_insert_with(|| MetricState::new(&self.config, self.capacity));
        if let Some(last) = state.last_tick {
            if sample.tick <= last {
                obs::count(obs::Counter::IngestDroppedSamples, 1);
                return;
            }
            // The ring-to-tick mapping assumes one sample per tick. Bridge
            // short monitoring gaps by carrying the previous value forward;
            // a long outage invalidates the learned alignment entirely, so
            // the series restarts and recalibrates.
            let gap = sample.tick - last - 1;
            if gap > MAX_GAP_FILL {
                obs::count(obs::Counter::IngestSeriesResets, 1);
                *state = MetricState::new(&self.config, self.capacity);
            } else if gap > 0 {
                obs::count(obs::Counter::IngestGapTicksBridged, gap);
                let carry = state.values.latest().unwrap_or(sample.value);
                for _ in 0..gap {
                    state.push_sample(carry, &self.config);
                }
            }
        }
        state.push_sample(sample.value, &self.config);
        state.last_tick = Some(sample.tick);
    }

    /// Analyzes one component's look-back window `[t_v − W, t_v]` using
    /// the continuously-maintained state. Returns `None` if the component
    /// has never been monitored.
    ///
    /// No model training happens here — the errors were computed as the
    /// samples arrived, which is what keeps the on-demand cost at the
    /// "abnormal change point selection" line of Table II instead of the
    /// "normal fluctuation modeling" line times the history length.
    pub fn analyze(&self, component: ComponentId, violation_at: Tick) -> Option<ComponentFinding> {
        self.analyze_for(AppId::default(), component, violation_at)
    }

    /// Analyzes one component of a tenant application. Returns `None` if
    /// that tenant has never monitored the component.
    pub fn analyze_for(
        &self,
        app: AppId,
        component: ComponentId,
        violation_at: Tick,
    ) -> Option<ComponentFinding> {
        let shard = {
            let shards = self.shards.lock();
            Arc::clone(shards.get(&(app, component))?)
        };
        let mut comp = shard.lock();
        self.analyze_shard(component, &mut comp, violation_at, self.config.lookback)
    }

    /// The per-component analysis, run under that component's lock.
    ///
    /// Both engines run the same selection pipeline over ring snapshots
    /// in one scratch bundle, so their findings are bit-identical. When
    /// the violation tick coincides with the latest sample at the
    /// configured window, the streaming engine reads the error floor its
    /// ingest path maintained and works in order of need: it screens the
    /// window's errors in place in the error ring, so a provably clean
    /// metric costs one scan and no copy, and a suspect one copies only
    /// the suffixes selection reads. The engine also decides whether the
    /// shard keeps the scratch: streaming reuses it (no steady-state
    /// allocation), batch frees it after every analysis.
    fn analyze_shard(
        &self,
        component: ComponentId,
        comp: &mut ComponentState,
        violation_at: Tick,
        lookback: u64,
    ) -> Option<ComponentFinding> {
        let _span = obs::time(obs::Stage::SlaveAnalyze);
        obs::count(obs::Counter::ComponentsAnalyzed, 1);
        let mut scratch = comp
            .scratch
            .take()
            .unwrap_or_else(|| Box::new(AnalysisScratch::new(&self.config)));
        let mut changes: Vec<AbnormalChange> = Vec::new();
        let mut seen = false;
        for kind in MetricKind::ALL {
            let Some(state) = comp.metrics[kind.index()].as_ref() else {
                continue;
            };
            seen = true;
            let Some(last) = state.last_tick else {
                continue;
            };
            // Map the ring contents onto absolute ticks: the ring's final
            // sample is at `last`. Samples after t_v are not part of the
            // diagnosis (the master asks about the violation time).
            if violation_at > last {
                continue;
            }
            let drop_tail = (last - violation_at) as usize;
            if state.values.len() <= drop_tail + 40 {
                continue;
            }
            let n = state.values.len() - drop_tail;
            // The sketch (live only under the streaming engine) mirrors
            // the normal span of the ring's *full* contents at the
            // configured window; trimming a tail moves the span and a
            // per-call look-back override moves the window boundary, so
            // the O(1) floor only applies when neither happened.
            let floor = (drop_tail == 0 && state.sketch_ok && lookback == self.config.lookback)
                .then(|| state.sketch_floor(&self.config));
            let (hist, errs) = if let Some(floor) = floor {
                let (values_start, errors_start) = suffix_starts(n, lookback, &self.config);
                let selection_span = obs::time(obs::Stage::SlaveSelection);
                if screen(state.errors.range(errors_start..n).copied(), floor) {
                    obs::count(obs::Counter::MetricsAnalyzed, 1);
                    continue;
                }
                drop(selection_span);
                scratch.hist.clear();
                scratch
                    .hist
                    .extend(state.values.iter_range(values_start, n));
                scratch.errs.clear();
                scratch
                    .errs
                    .extend(state.errors.range(errors_start..n).copied());
                (
                    Suffix::new(values_start, &scratch.hist),
                    Suffix::new(errors_start, &scratch.errs),
                )
            } else {
                state.values.copy_into(&mut scratch.hist);
                scratch.hist.truncate(n);
                scratch.errs.clear();
                scratch.errs.extend(state.errors.range(..n).copied());
                (Suffix::whole(&scratch.hist), Suffix::whole(&scratch.errs))
            };
            if let Some(change) = select(
                hist,
                errs,
                kind,
                violation_at,
                lookback,
                &self.config,
                floor,
                &mut scratch.selection,
            ) {
                changes.push(change);
            }
        }
        if self.config.engine == AnalysisEngine::Streaming {
            comp.scratch = Some(scratch);
        }
        seen.then_some(ComponentFinding {
            id: component,
            changes,
        })
    }

    /// Answers one [`CollectRequest`] for the whole host (`app: None`)
    /// or one tenant's shards, with findings in shard-key order.
    ///
    /// Components are analyzed in parallel across the host's cores; with
    /// one core or one shard the loop runs inline. Both give
    /// bit-identical findings, since each component's analysis is
    /// independent and results are assembled in list order.
    ///
    /// A look-back override is how the fleet serves a tenant that needs a
    /// longer window (the paper's `W = 500` disk hog) from a pool daemon
    /// configured at the default `W`. The streaming engine's O(1)
    /// error-floor shortcut assumes the configured window, so an override
    /// computes the floor from the history instead — same findings as a
    /// daemon configured at that window natively (given equal history).
    pub fn analyze_all(
        &self,
        app: Option<AppId>,
        request: &CollectRequest,
    ) -> Vec<ComponentFinding> {
        let shards = match app {
            None => self.shard_list(),
            Some(app) => self.shard_list_for(app),
        };
        let violation_at = request.violation_at;
        let lookback = request.lookback.unwrap_or(self.config.lookback);
        let analyze = |(key, shard): &ShardEntry| {
            self.analyze_shard(key.1, &mut shard.lock(), violation_at, lookback)
        };
        let workers = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(shards.len());
        if workers <= 1 {
            return shards.iter().filter_map(analyze).collect();
        }
        let slots: Vec<Mutex<Option<ComponentFinding>>> =
            shards.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= shards.len() {
                        break;
                    }
                    *slots[i].lock() = analyze(&shards[i]);
                });
            }
        });
        slots.into_iter().filter_map(Mutex::into_inner).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fchain_metrics::stats;
    use rand::prelude::*;

    /// The single-threaded reference: the public per-component entry
    /// point over every monitored component, independent of the
    /// `analyze_all` worker pool.
    fn reference(daemon: &SlaveDaemon, violation_at: Tick) -> Vec<ComponentFinding> {
        daemon
            .monitored_components()
            .into_iter()
            .filter_map(|c| daemon.analyze(c, violation_at))
            .collect()
    }

    fn feed_component(daemon: &SlaveDaemon, c: ComponentId, n: u64, fault_at: Option<u64>) {
        for t in 0..n {
            for kind in MetricKind::ALL {
                let normal = 40.0 + ((t * (kind.index() as u64 + 2)) % 5) as f64;
                let value = match fault_at {
                    Some(at) if kind == MetricKind::Cpu && t >= at => normal + 50.0,
                    _ => normal,
                };
                daemon.ingest(MetricSample {
                    tick: t,
                    component: c,
                    kind,
                    value,
                });
            }
        }
    }

    #[test]
    fn incremental_and_batch_agree_on_a_step() {
        let daemon = SlaveDaemon::new(FChainConfig::default());
        feed_component(&daemon, ComponentId(0), 1000, Some(940));
        let finding = daemon.analyze(ComponentId(0), 990).expect("monitored");
        let onset = finding.onset().expect("step selected");
        assert!((935..=945).contains(&onset), "onset {onset}");
    }

    #[test]
    fn normal_component_stays_clean() {
        let daemon = SlaveDaemon::new(FChainConfig::default());
        feed_component(&daemon, ComponentId(1), 1000, None);
        let finding = daemon.analyze(ComponentId(1), 990).expect("monitored");
        assert!(finding.changes.is_empty(), "{:?}", finding.changes);
    }

    #[test]
    fn replay_is_kind_major_tick_ascending_and_matches_live_ingest() {
        let (c, start, n) = (ComponentId(3), 7u64, 900u64);
        let value = |kind: MetricKind, t: u64| {
            let normal = 40.0 + ((t * (kind.index() as u64 + 2)) % 5) as f64;
            if kind == MetricKind::Cpu && t >= 850 {
                normal + 50.0
            } else {
                normal
            }
        };
        let mut metrics: Vec<TimeSeries> = MetricKind::ALL
            .iter()
            .map(|&kind| {
                TimeSeries::from_samples(start, (start..n).map(|t| value(kind, t)).collect())
            })
            .collect();
        let len = (n - start) as usize;

        let samples: Vec<MetricSample> = MetricSample::replay(c, &metrics).collect();
        assert_eq!(samples.len(), 6 * len);
        for (i, s) in samples.iter().enumerate() {
            let (kind, t) = (MetricKind::ALL[i / len], start + (i % len) as u64);
            assert_eq!((s.component, s.kind, s.tick), (c, kind, t));
            assert_eq!(s.value.to_bits(), value(kind, t).to_bits());
        }

        // Fed the replay or fed live, tick by tick, the daemon holds the
        // same state.
        let live = SlaveDaemon::new(FChainConfig::default());
        for t in start..n {
            for kind in MetricKind::ALL {
                live.ingest(MetricSample {
                    tick: t,
                    component: c,
                    kind,
                    value: value(kind, t),
                });
            }
        }
        let replayed = SlaveDaemon::new(FChainConfig::default());
        for sample in MetricSample::replay(c, &metrics) {
            replayed.ingest(sample);
        }
        let finding = replayed.analyze(c, 890).expect("monitored");
        assert!(finding.onset().is_some());
        assert_eq!(finding, live.analyze(c, 890).expect("monitored"));

        // Non-finite values reach the daemon; the iterator filters nothing.
        metrics[MetricKind::Memory.index()] =
            TimeSeries::from_samples(0, vec![1.0, f64::NAN, f64::INFINITY]);
        let memory: Vec<f64> = MetricSample::replay(c, &metrics)
            .filter(|s| s.kind == MetricKind::Memory)
            .map(|s| s.value)
            .collect();
        assert_eq!(memory.len(), 3);
        assert!(memory[1].is_nan() && memory[2] == f64::INFINITY);
    }

    #[test]
    fn unknown_component_returns_none() {
        let daemon = SlaveDaemon::new(FChainConfig::default());
        assert!(daemon.analyze(ComponentId(9), 100).is_none());
    }

    #[test]
    fn out_of_order_samples_are_dropped() {
        let daemon = SlaveDaemon::new(FChainConfig::default());
        let c = ComponentId(0);
        let mk = |tick, value| MetricSample {
            tick,
            component: c,
            kind: MetricKind::Cpu,
            value,
        };
        daemon.ingest(mk(10, 1.0));
        daemon.ingest(mk(9, 999.0)); // dropped
        daemon.ingest(mk(10, 999.0)); // dropped
        daemon.ingest(mk(11, 2.0));
        assert_eq!(daemon.monitored_series(), 1);
    }

    #[test]
    fn analyze_all_covers_every_component() {
        let daemon = SlaveDaemon::new(FChainConfig::default());
        feed_component(&daemon, ComponentId(0), 900, None);
        feed_component(&daemon, ComponentId(1), 900, Some(850));
        let findings = daemon.analyze_all(None, &CollectRequest::at(890));
        assert_eq!(findings.len(), 2);
        let faulty = findings.iter().find(|f| f.id == ComponentId(1)).unwrap();
        assert!(faulty.onset().is_some());
    }

    #[test]
    fn memory_stays_bounded() {
        let daemon = SlaveDaemon::new(FChainConfig::default());
        feed_component(&daemon, ComponentId(0), 20_000, None);
        for (_, shard) in daemon.shard_list() {
            let comp = shard.lock();
            for state in comp.metrics.iter().flatten() {
                assert!(state.values.len() <= daemon.capacity);
                assert!(state.errors.len() <= daemon.capacity);
            }
        }
    }

    #[test]
    fn short_monitoring_gaps_keep_tick_alignment() {
        let daemon = SlaveDaemon::new(FChainConfig::default());
        let c = ComponentId(0);
        for t in 0..1000u64 {
            if (300..310).contains(&t) {
                continue; // 10 dropped ticks mid-stream
            }
            for kind in MetricKind::ALL {
                let normal = 40.0 + ((t * (kind.index() as u64 + 2)) % 5) as f64;
                let value = if kind == MetricKind::Cpu && t >= 940 {
                    normal + 50.0
                } else {
                    normal
                };
                daemon.ingest(MetricSample {
                    tick: t,
                    component: c,
                    kind,
                    value,
                });
            }
        }
        let finding = daemon.analyze(c, 990).expect("monitored");
        let onset = finding.onset().expect("step still found after the gap");
        assert!((935..=945).contains(&onset), "onset {onset} misaligned");
    }

    #[test]
    fn long_outage_resets_the_series() {
        let daemon = SlaveDaemon::new(FChainConfig::default());
        let c = ComponentId(0);
        let mk = |tick, value| MetricSample {
            tick,
            component: c,
            kind: MetricKind::Cpu,
            value,
        };
        for t in 0..200u64 {
            daemon.ingest(mk(t, 40.0));
        }
        // 500-tick outage, then a resumed clean stream with a late step.
        for t in 700..1700u64 {
            daemon.ingest(mk(
                t,
                if t >= 1650 {
                    95.0
                } else {
                    40.0 + (t % 5) as f64
                },
            ));
        }
        let finding = daemon.analyze(c, 1690).expect("monitored");
        let onset = finding.onset().expect("step found after the reset");
        assert!((1645..=1655).contains(&onset), "onset {onset}");
    }

    #[test]
    fn footprint_matches_the_papers_order_of_magnitude() {
        // Two guest VMs x six metrics on one host: the paper reports ~3 MB
        // per host daemon.
        let daemon = SlaveDaemon::new(FChainConfig::default());
        feed_component(&daemon, ComponentId(0), 2000, None);
        feed_component(&daemon, ComponentId(1), 2000, None);
        let bytes = daemon.approx_memory_bytes();
        assert!(bytes > 0);
        assert!(bytes < 4 * 1024 * 1024, "daemon too heavy: {bytes} bytes");
    }

    #[test]
    fn concurrent_ingest_and_analyze_are_safe() {
        use std::sync::Arc;
        let daemon = Arc::new(SlaveDaemon::new(FChainConfig::default()));
        feed_component(&daemon, ComponentId(0), 900, Some(850));
        let writer = {
            let d = Arc::clone(&daemon);
            std::thread::spawn(move || {
                for t in 900..1400u64 {
                    for kind in MetricKind::ALL {
                        d.ingest(MetricSample {
                            tick: t,
                            component: ComponentId(0),
                            kind,
                            value: 40.0 + ((t * (kind.index() as u64 + 2)) % 5) as f64 + 50.0,
                        });
                    }
                }
            })
        };
        // The master thread analyzes while samples keep flowing.
        let mut findings = 0;
        for _ in 0..20 {
            if let Some(f) = daemon.analyze(ComponentId(0), 890) {
                if f.onset().is_some() {
                    findings += 1;
                }
            }
        }
        writer.join().expect("writer thread");
        assert!(
            findings > 0,
            "analysis under concurrent ingestion found nothing"
        );
    }

    #[test]
    fn parallel_analyze_all_matches_per_component_reference() {
        let daemon = SlaveDaemon::new(FChainConfig::default());
        feed_component(&daemon, ComponentId(0), 1000, Some(930));
        feed_component(&daemon, ComponentId(1), 1000, None);
        feed_component(&daemon, ComponentId(2), 1000, Some(945));
        feed_component(&daemon, ComponentId(3), 1000, None);
        assert_eq!(
            daemon.analyze_all(None, &CollectRequest::at(990)),
            reference(&daemon, 990)
        );
    }

    #[test]
    fn stress_ingest_during_analyze_all() {
        // Four writer threads keep feeding fresh ticks while the daemon
        // repeatedly analyzes the whole host. The run must not deadlock,
        // and a replay of the final state must reproduce the same findings
        // one component at a time (analysis is a pure function of the
        // shard state at the violation tick, and ticks past
        // `violation_at` are ignored).
        let daemon = Arc::new(SlaveDaemon::new(FChainConfig::default()));
        for c in 0..4u32 {
            feed_component(&daemon, ComponentId(c), 900, (c % 2 == 0).then_some(850));
        }
        let writers: Vec<_> = (0..4u32)
            .map(|c| {
                let d = Arc::clone(&daemon);
                std::thread::spawn(move || {
                    for t in 900..1200u64 {
                        for kind in MetricKind::ALL {
                            d.ingest(MetricSample {
                                tick: t,
                                component: ComponentId(c),
                                kind,
                                value: 40.0 + ((t * (kind.index() as u64 + 2)) % 5) as f64,
                            });
                        }
                    }
                })
            })
            .collect();
        for _ in 0..10 {
            let findings = daemon.analyze_all(None, &CollectRequest::at(890));
            assert_eq!(findings.len(), 4, "all four components must be analyzed");
        }
        for w in writers {
            w.join().expect("writer thread");
        }
        // Once ingestion has quiesced the parallel path must agree with a
        // per-component replay of the same state, sample for sample.
        let parallel = daemon.analyze_all(None, &CollectRequest::at(890));
        let replay = reference(&daemon, 890);
        assert_eq!(parallel, replay);
        let faulty: Vec<ComponentId> = replay
            .iter()
            .filter(|f| f.onset().is_some())
            .map(|f| f.id)
            .collect();
        assert_eq!(faulty, vec![ComponentId(0), ComponentId(2)]);
    }

    #[test]
    #[should_panic(expected = "twice the look-back")]
    fn tiny_capacity_rejected() {
        let _ = SlaveDaemon::new(FChainConfig::default()).with_capacity(50);
    }

    #[test]
    fn capacity_helper_always_satisfies_with_capacity() {
        // Audit for the twice-hand-computed sizing bug: whatever window a
        // caller needs, the centralized helper must yield a capacity that
        // with_capacity accepts for that window and that retains at least
        // the window plus pre-window context.
        for lookback in [10u64, 50, 100, 300, 500, 1000, 2000, 5000] {
            let capacity = SlaveDaemon::capacity_for_lookback(lookback);
            assert!(
                capacity >= 2 * lookback as usize,
                "W={lookback}: {capacity} below the with_capacity floor"
            );
            let config = FChainConfig {
                lookback,
                ..FChainConfig::default()
            };
            let _ = SlaveDaemon::new(config).with_capacity(capacity); // must not panic
        }
    }

    /// Six `len`-sample series starting at tick 0 with a learnable
    /// per-kind pattern.
    fn recorded(len: usize) -> Vec<TimeSeries> {
        MetricKind::ALL
            .iter()
            .map(|kind| {
                TimeSeries::from_samples(
                    0,
                    (0..len)
                        .map(|t| 40.0 + ((t * (kind.index() + 2)) % 5) as f64)
                        .collect(),
                )
            })
            .collect()
    }

    /// How many samples one metric of `(app, component)` retains.
    fn retained(daemon: &SlaveDaemon, app: AppId, c: ComponentId, kind: MetricKind) -> usize {
        daemon.shard(app, c).lock().metrics[kind.index()]
            .as_ref()
            .map_or(0, |state| state.values.len())
    }

    #[test]
    fn replay_pool_places_components_by_offset_and_replica() {
        let series = recorded(50);
        let (shop, wiki) = (AppId(1), AppId(2));
        let components: Vec<(ComponentId, &[TimeSeries])> = (0..3)
            .map(|c| (ComponentId(c), series.as_slice()))
            .collect();
        let recordings = [
            Recording {
                app: shop,
                offset: 3,
                replicas: 2,
                components: components.clone(),
            },
            Recording {
                app: wiki,
                offset: 1,
                replicas: 1,
                components: components[..2].to_vec(),
            },
        ];
        let pool = SlaveDaemon::replay_pool(&FChainConfig::default(), 4, &recordings);
        assert_eq!(pool.len(), 4);
        // Component c of `shop` lands on hosts (3 + c + r) % 4, r in 0..2;
        // component c of `wiki` on host 1 + c only.
        let ids = |cs: &[u32]| cs.iter().map(|&c| ComponentId(c)).collect::<Vec<_>>();
        let placed = |app| {
            pool.iter()
                .map(|h| h.monitored_components_for(app))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            placed(shop),
            vec![ids(&[0, 1]), ids(&[1, 2]), ids(&[2]), ids(&[0])]
        );
        assert_eq!(placed(wiki), vec![ids(&[]), ids(&[0]), ids(&[1]), ids(&[])]);

        // More replicas than hosts leave one full copy on every host.
        let everywhere = Recording {
            app: shop,
            offset: 0,
            replicas: 9,
            components: components[..1].to_vec(),
        };
        for host in SlaveDaemon::replay_pool(&FChainConfig::default(), 2, &[everywhere]) {
            assert_eq!(retained(&host, shop, ComponentId(0), MetricKind::Cpu), 50);
        }
    }

    #[test]
    fn replay_pool_retains_every_replayed_sample() {
        // A paper-length run is far past the live default ring (800 at
        // W = 100): the pool holds all of it, on every metric.
        let (long, short) = (recorded(3600), recorded(1200));
        let app = AppId::default();
        let recording = Recording {
            app,
            offset: 0,
            replicas: 1,
            components: vec![(ComponentId(0), &long[..]), (ComponentId(1), &short[..])],
        };
        let config = FChainConfig::default();
        assert!(SlaveDaemon::new(config.clone()).capacity() < 3600);
        let pool = SlaveDaemon::replay_pool(&config, 1, &[recording]);
        assert_eq!(pool[0].capacity(), 3600 + 16);
        for kind in MetricKind::ALL {
            assert_eq!(retained(&pool[0], app, ComponentId(0), kind), 3600);
            assert_eq!(retained(&pool[0], app, ComponentId(1), kind), 1200);
        }
    }

    #[test]
    fn replay_pool_keeps_twice_the_window_on_a_short_recording() {
        let series = recorded(100);
        let recording = Recording {
            app: AppId::default(),
            offset: 0,
            replicas: 1,
            components: vec![(ComponentId(0), &series[..])],
        };
        let config = FChainConfig::with_lookback(500);
        let pool = SlaveDaemon::replay_pool(&config, 2, &[recording]);
        for host in &pool {
            assert_eq!(host.capacity(), 1000);
        }
        assert_eq!(
            retained(&pool[0], AppId::default(), ComponentId(0), MetricKind::Cpu),
            100
        );
        // No recording at all still sizes for the window.
        assert_eq!(
            SlaveDaemon::replay_pool(&config, 1, &[])[0].capacity(),
            1000
        );
    }

    #[test]
    fn hot_tier_covers_the_screened_errors() {
        // The value tier keeps the window and the two ticks before it raw
        // (the span the screen checks, `n − W − 3 ..`): W + 3 samples.
        // Sizing for W + 2 would leave the lowest one cold whenever W + 2
        // is a multiple of the block size (W = 126, 254, …).
        for lookback in 10u64..=2000 {
            let hot = hot_capacity_for(lookback);
            assert!(hot >= lookback as usize + 3, "W={lookback}: hot {hot}");
            assert_eq!(hot % COLD_BLOCK_SAMPLES, 0, "W={lookback}: hot {hot}");
        }
    }

    #[test]
    fn batched_ingest_matches_per_sample_ingest() {
        let per_sample = SlaveDaemon::new(FChainConfig::default());
        let batched = SlaveDaemon::new(FChainConfig::default());
        let app = AppId::default();
        // Interleaved components with duplicates, gaps and an outage —
        // every hygiene path must fire identically through both APIs.
        let mut samples = Vec::new();
        for t in 0..1200u64 {
            if (400..420).contains(&t) {
                continue; // bridged gap
            }
            for c in 0..3u32 {
                for kind in MetricKind::ALL {
                    let value = 40.0
                        + ((t * (kind.index() as u64 + 2)) % 5) as f64
                        + if c == 1 && t >= 1100 { 50.0 } else { 0.0 };
                    samples.push(MetricSample {
                        tick: t,
                        component: ComponentId(c),
                        kind,
                        value,
                    });
                }
            }
            if t % 97 == 0 {
                // Duplicate tick replay for one component.
                samples.push(MetricSample {
                    tick: t,
                    component: ComponentId(0),
                    kind: MetricKind::Cpu,
                    value: 999.0,
                });
            }
        }
        for &s in &samples {
            per_sample.ingest_for(app, s);
        }
        for chunk in samples.chunks(137) {
            batched.ingest_batch_for(app, chunk);
        }
        assert_eq!(
            per_sample.analyze_all(None, &CollectRequest::at(1190)),
            batched.analyze_all(None, &CollectRequest::at(1190))
        );
    }

    #[test]
    fn non_finite_ingest_samples_are_dropped_like_missing_ones() {
        // One NaN or infinite reading must neither poison the learner and
        // error floor (silently hiding the step below) nor panic the
        // sketch: the daemon must answer exactly as if the sample had
        // never arrived.
        let c = ComponentId(0);
        let stream: Vec<MetricSample> = (0..600u64)
            .flat_map(|t| {
                MetricKind::ALL.map(|kind| {
                    let normal = 40.0 + ((t * (kind.index() as u64 + 2)) % 5) as f64;
                    let step = if kind == MetricKind::Cpu && t >= 560 {
                        50.0
                    } else {
                        0.0
                    };
                    MetricSample {
                        tick: t,
                        component: c,
                        kind,
                        value: normal + step,
                    }
                })
            })
            .collect();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in [10u64, 100, 300, 540, 550] {
                let poisoned = SlaveDaemon::new(FChainConfig::default());
                let skipped = SlaveDaemon::new(FChainConfig::default());
                for &sample in &stream {
                    if sample.tick == at && sample.kind == MetricKind::Cpu {
                        poisoned.ingest(MetricSample {
                            value: bad,
                            ..sample
                        });
                    } else {
                        poisoned.ingest(sample);
                        skipped.ingest(sample);
                    }
                }
                let want = skipped.analyze(c, 599).expect("monitored");
                assert!(want.onset().is_some(), "the step must be found");
                assert_eq!(poisoned.analyze(c, 599), Some(want), "{bad} at tick {at}");
            }
        }
    }

    #[test]
    fn ingest_past_capacity_keeps_the_cold_tier_compressed() {
        // The paper's slow-fault window (W = 500, a 4 000-sample history)
        // on a step-quantized 1 Hz signal, pumped past capacity so every
        // value series carries a maximal cold tier — the worst case for
        // the ratio.
        let daemon = SlaveDaemon::new(FChainConfig::with_lookback(500));
        assert_eq!(daemon.capacity(), 4000);
        for t in 0..4200u64 {
            for c in 0..4u64 {
                for kind in MetricKind::ALL {
                    let step = (t / 6) * (kind.index() as u64 + 2) + 7 * c;
                    daemon.ingest(MetricSample {
                        tick: t,
                        component: ComponentId(c as u32),
                        kind,
                        value: 40.0 + (step % 5) as f64,
                    });
                }
            }
        }
        let (_, cold, flat) = daemon.storage_tier_bytes();
        let ratio = cold as f64 / flat as f64;
        assert!(cold > 0, "a warmed series must freeze cold blocks");
        assert!(ratio <= 0.35, "cold tier is {ratio:.3} of the flat rings");
    }

    /// A batch daemon fed the identical stream, for parity tests.
    fn batch_daemon() -> SlaveDaemon {
        SlaveDaemon::new(FChainConfig {
            engine: AnalysisEngine::Batch,
            ..FChainConfig::default()
        })
    }

    #[test]
    fn engines_agree_on_every_violation_tick() {
        let batch = batch_daemon();
        let streaming = SlaveDaemon::new(FChainConfig::default());
        for d in [&batch, &streaming] {
            feed_component(d, ComponentId(0), 1000, Some(940));
            feed_component(d, ComponentId(1), 1000, None);
        }
        // Violation at the latest tick (sketch fast path), mid-ring
        // (trimmed tail, direct floor) and long before the fault.
        for v in [999, 990, 985, 700] {
            assert_eq!(
                batch.analyze_all(None, &CollectRequest::at(v)),
                streaming.analyze_all(None, &CollectRequest::at(v)),
                "engines disagree at violation tick {v}"
            );
        }
    }

    #[test]
    fn engines_agree_across_gaps_and_resets() {
        let batch = batch_daemon();
        let streaming = SlaveDaemon::new(FChainConfig::default());
        for d in [&batch, &streaming] {
            let c = ComponentId(0);
            let mk = |tick, value| MetricSample {
                tick,
                component: c,
                kind: MetricKind::Cpu,
                value,
            };
            for t in 0..400u64 {
                if (150..160).contains(&t) {
                    continue; // bridged gap
                }
                d.ingest(mk(t, 40.0 + (t % 5) as f64));
            }
            // Long outage: the series resets and recalibrates.
            for t in 900..1900u64 {
                let v = if t >= 1850 {
                    95.0
                } else {
                    40.0 + (t % 5) as f64
                };
                d.ingest(mk(t, v));
            }
        }
        for v in [399, 1899, 1880, 1400] {
            assert_eq!(
                batch.analyze_all(None, &CollectRequest::at(v)),
                streaming.analyze_all(None, &CollectRequest::at(v)),
                "engines disagree at violation tick {v}"
            );
        }
    }

    #[test]
    fn repeated_streaming_analyses_are_stable() {
        // Neither the streaming engine's persistent scratch nor the batch
        // engine's per-analysis one may leak state between analyses.
        for daemon in [SlaveDaemon::new(FChainConfig::default()), batch_daemon()] {
            feed_component(&daemon, ComponentId(0), 1000, Some(940));
            let first = daemon.analyze(ComponentId(0), 990).expect("monitored");
            for _ in 0..5 {
                assert_eq!(daemon.analyze(ComponentId(0), 990).as_ref(), Some(&first));
            }
            // Interleaving a different violation tick must not perturb
            // later answers either.
            let other = daemon.analyze(ComponentId(0), 700).expect("monitored");
            assert_eq!(daemon.analyze(ComponentId(0), 990), Some(first));
            assert_eq!(daemon.analyze(ComponentId(0), 700), Some(other));
        }
    }

    /// White-box: every steady series' sketch floor equals the batch
    /// floor over its freshly sorted normal span, bit for bit.
    fn assert_sketch_floors_exact(daemon: &SlaveDaemon) {
        let config = &daemon.config;
        for (_, shard) in daemon.shard_list() {
            let comp = shard.lock();
            for state in comp.metrics.iter().flatten() {
                assert!(state.sketch_ok, "steady series must have a live sketch");
                let errs: Vec<f64> = state.errors.iter().copied().collect();
                let n = errs.len();
                let w = (config.lookback as usize).min(n - 1);
                let mut span = errs[config.learner.calibration_samples..n - w].to_vec();
                span.sort_by(|a, b| a.partial_cmp(b).expect("finite errors"));
                let direct = error_floor(
                    |p| stats::percentile_sorted(&span, p),
                    span.last().copied(),
                    config,
                );
                assert_eq!(state.sketch.len(), span.len());
                assert_eq!(state.sketch_floor(config).to_bits(), direct.to_bits());
            }
        }
    }

    #[test]
    fn error_ring_stays_aligned_with_the_values_across_evictions() {
        // A live W = 100 daemon (an 800-sample ring) fed past capacity,
        // through a bridged gap and then an outage reset. After every
        // push each retained error must be, bit for bit, what a fresh
        // learner fed the whole stream since the last reset returned for
        // that retained value.
        let daemon = SlaveDaemon::new(FChainConfig::default());
        assert_eq!(daemon.capacity(), 800);
        let (c, kind) = (ComponentId(0), MetricKind::Cpu);
        let value = |t: u64| 40.0 + ((t / 6 * 3 + t * t % 11) % 7) as f64 + (t % 13) as f64 * 0.25;
        let bridged = 1000..1010u64;
        let ticks = (0..1300u64)
            .filter(|t| !bridged.contains(t))
            .chain(1400..2400);
        let mut reference = OnlineLearner::new(daemon.config.learner.clone());
        let (mut fed, mut errors) = (Vec::new(), Vec::new());
        let mut last = None;
        for t in ticks {
            match last {
                Some(l) if t - l - 1 > MAX_GAP_FILL => {
                    reference = OnlineLearner::new(daemon.config.learner.clone());
                    fed.clear();
                    errors.clear();
                }
                Some(l) => {
                    let carry = value(l);
                    for _ in l + 1..t {
                        fed.push(carry);
                        errors.push(reference.feed(carry));
                    }
                }
                None => {}
            }
            fed.push(value(t));
            errors.push(reference.feed(value(t)));
            last = Some(t);
            daemon.ingest(MetricSample {
                tick: t,
                component: c,
                kind,
                value: value(t),
            });
            let shard = daemon.shard(AppId::default(), c);
            let comp = shard.lock();
            let state = comp.metrics[kind.index()].as_ref().expect("monitored");
            let len = state.values.len();
            assert_eq!(state.errors.len(), len, "tick {t}");
            let start = fed.len() - len;
            for (i, (v, e)) in state.values.to_vec().iter().zip(&state.errors).enumerate() {
                assert_eq!(
                    v.to_bits(),
                    fed[start + i].to_bits(),
                    "value {i} at tick {t}"
                );
                assert_eq!(
                    e.to_bits(),
                    errors[start + i].to_bits(),
                    "error {i} at tick {t}"
                );
            }
            if start > 0 {
                // Past capacity the span slides, so the sketch is live.
                drop(comp);
                assert_sketch_floors_exact(&daemon);
            }
        }
        // Both rings filled and slid: before the gap and after the reset.
        assert_eq!(fed.len(), 1000);
    }

    #[test]
    fn sketch_floor_matches_direct_computation() {
        let daemon = SlaveDaemon::new(FChainConfig::default());
        feed_component(&daemon, ComponentId(0), 1300, None);
        assert_sketch_floors_exact(&daemon);
    }

    #[test]
    fn sketch_floor_matches_direct_computation_at_w500() {
        // At W = 500 the normal span grows to ~3 400 errors (the ring holds
        // 4 000 samples) and then slides. Noise plus rare decaying bursts
        // move the span's upper tail past the sketch's cut both ways.
        let config = FChainConfig {
            lookback: 500,
            ..FChainConfig::default()
        };
        let daemon = SlaveDaemon::new(config);
        let mut rng = SmallRng::seed_from_u64(500);
        let mut burst = 0.0f64;
        for t in 0..4800u64 {
            if rng.gen_range(0u32..400) == 0 {
                burst = rng.gen_range(20.0..80.0);
            }
            burst *= 0.97;
            for kind in MetricKind::ALL {
                let scale = (kind.index() + 1) as f64 / 6.0;
                daemon.ingest(MetricSample {
                    tick: t,
                    component: ComponentId(0),
                    kind,
                    value: 40.0 + burst * scale + rng.gen_range(-3.0..3.0),
                });
            }
            if [1200, 2000, 2800, 3599, 4100, 4799].contains(&t) {
                assert_sketch_floors_exact(&daemon);
            }
        }
    }
}
