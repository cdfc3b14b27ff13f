//! FChain configuration.

use fchain_detect::{CusumConfig, OutlierConfig};
use fchain_model::LearnerConfig;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Which analysis implementation the slaves run at violation time.
///
/// Both engines run the same §II.B selection code over reused scratch
/// buffers and produce bit-identical [`crate::ComponentFinding`]s — the
/// parity is enforced by tests in `tests/determinism.rs`. The engine
/// only decides which result-preserving shortcuts may fire:
///
/// * [`AnalysisEngine::Batch`] — the reference: every metric runs the
///   whole pipeline (error-floor percentiles, smoothing, CUSUM with every
///   bootstrap reshuffle, burst FFT, rollback), and the slave frees its
///   analysis buffers after each analysis.
/// * [`AnalysisEngine::Streaming`] — the default: `ingest()` maintains
///   per-metric state (an exact sliding percentile sketch of the
///   normal-behaviour error span) so at violation time the engine reads
///   the error floor in O(1), screens out metrics whose window-maximum
///   prediction error provably cannot pass the predictability filter,
///   prunes rejection-certain CUSUM bootstrap segments, and keeps each
///   component's analysis buffers, so nothing allocates after warm-up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum AnalysisEngine {
    /// Recompute the whole pipeline at violation time (reference).
    Batch,
    /// Advance per-metric state at ingest; finish only the tail at
    /// violation time.
    #[default]
    Streaming,
}

impl fmt::Display for AnalysisEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AnalysisEngine::Batch => "batch",
            AnalysisEngine::Streaming => "streaming",
        })
    }
}

impl FromStr for AnalysisEngine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "batch" => Ok(AnalysisEngine::Batch),
            "streaming" => Ok(AnalysisEngine::Streaming),
            other => Err(format!(
                "unknown analysis engine {other:?} (expected batch|streaming)"
            )),
        }
    }
}

// Hand-written serde impls (the vendored derive has no `#[serde(...)]`
// attribute support): the engine serializes as its lowercase name, and a
// missing field — `Content::Null` is what the derive's field lookup feeds
// on absence — falls back to the default so configs and reports written
// before the engine existed keep deserializing.
impl Serialize for AnalysisEngine {
    fn serialize(&self) -> serde::Content {
        serde::Content::Str(self.to_string())
    }
}

impl Deserialize for AnalysisEngine {
    fn deserialize(c: &serde::Content) -> Result<Self, serde::DeError> {
        match c {
            serde::Content::Null => Ok(AnalysisEngine::default()),
            serde::Content::Str(s) => s.parse().map_err(serde::DeError::custom),
            other => Err(serde::DeError::expected("an analysis engine name", other)),
        }
    }
}

/// How the master reaches its slave daemons.
///
/// The transport is a *seam*, not an algorithm: every transport must
/// produce bit-identical [`crate::DiagnosisReport`]s on the same state
/// (pinned in `tests/determinism.rs`), so it can be chosen per
/// deployment without invalidating any determinism or chaos artifact.
///
/// * [`Transport::InProcess`] — the loopback transport: slaves are
///   in-process [`crate::SlaveEndpoint`] objects, as in every test and
///   simulation. The default.
/// * [`Transport::Uds`] — slaves are separate `fchaind` processes
///   reached over Unix-domain sockets (single-host deployment).
/// * [`Transport::Tcp`] — slaves are `fchaind` processes reached over
///   TCP (the multi-host story).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Transport {
    /// In-process endpoints (deterministic loopback; the default).
    #[default]
    InProcess,
    /// Unix-domain sockets to `fchaind` daemons.
    Uds,
    /// TCP sockets to `fchaind` daemons.
    Tcp,
}

impl fmt::Display for Transport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Transport::InProcess => "in-process",
            Transport::Uds => "uds",
            Transport::Tcp => "tcp",
        })
    }
}

impl FromStr for Transport {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "in-process" | "inprocess" | "loopback" => Ok(Transport::InProcess),
            "uds" | "unix" => Ok(Transport::Uds),
            "tcp" => Ok(Transport::Tcp),
            other => Err(format!(
                "unknown transport {other:?} (expected in-process|uds|tcp)"
            )),
        }
    }
}

/// The master's re-collect policy when a violation-time fan-out comes
/// back *empty* (every slave answered, no abnormal change anywhere) —
/// the window-edge recall hole the chaos lab froze: an onset that
/// predates `t_v − W` leaves nothing inside the window to find.
///
/// * [`LookbackRetry::Off`] — answer the empty report as-is (the
///   default; byte-identical to the pre-knob pipeline).
/// * [`LookbackRetry::Widen`] — re-run the fan-out once with the window
///   widened to four times the effective look-back (capped at 600
///   ticks, the paper's longest profile plus slack), and keep whichever
///   answer that second ask produces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum LookbackRetry {
    /// No retry; an empty first answer is the answer.
    #[default]
    Off,
    /// One widened re-collect on an empty first answer.
    Widen,
}

impl LookbackRetry {
    /// Whether the retry is enabled.
    pub fn enabled(self) -> bool {
        self == LookbackRetry::Widen
    }
}

impl fmt::Display for LookbackRetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LookbackRetry::Off => "off",
            LookbackRetry::Widen => "widen",
        })
    }
}

impl FromStr for LookbackRetry {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(LookbackRetry::Off),
            "widen" => Ok(LookbackRetry::Widen),
            other => Err(format!(
                "unknown look-back retry mode {other:?} (expected off|widen)"
            )),
        }
    }
}

// Null → Off keeps every config and report serialized before the knob
// existed loading (and behaving) exactly as before.
impl Serialize for LookbackRetry {
    fn serialize(&self) -> serde::Content {
        serde::Content::Str(self.to_string())
    }
}

impl Deserialize for LookbackRetry {
    fn deserialize(c: &serde::Content) -> Result<Self, serde::DeError> {
        match c {
            serde::Content::Null => Ok(LookbackRetry::default()),
            serde::Content::Str(s) => s.parse().map_err(serde::DeError::custom),
            other => Err(serde::DeError::expected(
                "a look-back retry mode name",
                other,
            )),
        }
    }
}

/// Ensemble pinpointing switch (see [`crate::master::ensemble`]): fuses
/// the onset chain with dependency-graph centrality and per-evidence
/// confidence weights. The stage's tuning (confidence floor, coverage
/// penalty, centrality widening, silent-hole reading) is fixed in
/// [`crate::master::ensemble`]; only whether the stage runs is a choice.
///
/// Disabled by default — with `enabled == false` every diagnosis is
/// bit-identical to the base §II.C pipeline, which is what the
/// determinism suite pins.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnsembleConfig {
    /// Master switch. Off = the base pipeline, bit for bit.
    pub enabled: bool,
}

// Hand-written serde impls (the vendored derive has no `#[serde(...)]`
// attribute support): configs serialized before the ensemble stage existed
// have no `ensemble` field (`Content::Null` on lookup) and land on the
// disabled default, and keys other than `enabled` — the tuning knobs
// archived configs still carry — are ignored.
impl Serialize for EnsembleConfig {
    fn serialize(&self) -> serde::Content {
        serde::Content::Map(vec![(
            serde::Content::Str("enabled".to_string()),
            serde::Content::Bool(self.enabled),
        )])
    }
}

impl Deserialize for EnsembleConfig {
    fn deserialize(c: &serde::Content) -> Result<Self, serde::DeError> {
        match c {
            serde::Content::Null => Ok(EnsembleConfig::default()),
            serde::Content::Map(entries) => {
                let mut cfg = EnsembleConfig::default();
                for (k, v) in entries {
                    if k.as_str() == Some("enabled") {
                        cfg.enabled = match v {
                            serde::Content::Bool(on) => *on,
                            other => {
                                return Err(serde::DeError::expected(
                                    "a boolean ensemble switch",
                                    other,
                                ))
                            }
                        };
                    }
                }
                Ok(cfg)
            }
            other => Err(serde::DeError::expected("an ensemble config map", other)),
        }
    }
}

/// The shortest look-back window `W` (ticks) the selection pipeline can
/// work with: below it the CUSUM + bootstrap has too few samples to place
/// a change point.
pub const MIN_LOOKBACK: u64 = 10;

/// The longest look-back window `W` (ticks) a configuration may ask for:
/// one day of 1 Hz samples, far past the paper's longest profile (`W =
/// 500` for the slow disk hog). The bound exists because slaves size their
/// history rings and per-metric CUSUM buffers from `W` up front; an
/// unbounded window overflows that arithmetic or aborts the process on
/// allocation instead of failing validation.
pub const MAX_LOOKBACK: u64 = 86_400;

/// A requested look-back window clamped into
/// [`MIN_LOOKBACK`]`..=`[`MAX_LOOKBACK`]: the window a recorded case or
/// a tenant override actually runs at.
pub(crate) fn clamp_lookback(lookback: u64) -> u64 {
    lookback.clamp(MIN_LOOKBACK, MAX_LOOKBACK)
}

/// Ceiling on a widened look-back window: the paper's longest profile plus
/// slack.
const WIDENED_LOOKBACK_CAP: u64 = 600;

/// The master's [`LookbackRetry::Widen`] re-collect window: four times
/// the window, capped at 600 ticks, saturating rather than overflowing on
/// a huge window. `None` when widening would not grow the window — the
/// caller keeps its first answer.
pub(crate) fn widened_lookback(lookback: u64) -> Option<u64> {
    let widened = lookback.saturating_mul(4).min(WIDENED_LOOKBACK_CAP);
    (widened > lookback).then_some(widened)
}

/// All knobs of the FChain system, with the defaults the paper reports
/// working across every tested application (§III.A): look-back window
/// `W = 100 s`, burst window `Q = 20 s`, top 90 % frequencies, 90th
/// percentile burst value, 2 s concurrency threshold, tangent closeness
/// 0.1.
///
/// # Examples
///
/// ```
/// use fchain_core::FChainConfig;
///
/// let cfg = FChainConfig::default();
/// assert_eq!(cfg.lookback, 100);
/// assert_eq!(cfg.concurrency_threshold, 2);
/// let long = FChainConfig::with_lookback(500);
/// assert_eq!(long.lookback, 500);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FChainConfig {
    /// Look-back window `W` in ticks: how far before the SLO violation the
    /// slaves search for abnormal change points.
    pub lookback: u64,
    /// Burst extraction half-window `Q` in ticks around each change point.
    pub burst_window: u64,
    /// Fraction of the frequency spectrum treated as "high" when
    /// synthesizing the burst signal (`0.9` = top 90 %).
    pub high_freq_fraction: f64,
    /// Percentile of the absolute burst signal used as the expected
    /// prediction error.
    pub burst_percentile: f64,
    /// Safety multiplier applied to the burst magnitude when forming the
    /// expected prediction error (normal burst *peaks* exceed the burst
    /// percentile; the multiplier keeps them under the threshold).
    pub burst_scale: f64,
    /// The expected prediction error is floored at this multiple of the
    /// model's typical (90th percentile) error over the pre-window normal
    /// period, so noise on very stable metrics never qualifies.
    pub error_floor_scale: f64,
    /// Onset-time difference (ticks) under which two components count as
    /// concurrent faults.
    pub concurrency_threshold: u64,
    /// Two adjacent change points with normalized tangent difference below
    /// this keep the rollback going.
    pub tangent_epsilon: f64,
    /// Half-width of the moving-average smoothing applied before change
    /// point detection (PAL-style).
    pub smoothing_half: usize,
    /// Timing slack (ticks) when looking up the prediction error at a
    /// change point.
    pub error_slack: u64,
    /// Fraction of components that must be abnormal (with one consistent
    /// trend and near-simultaneous onsets) before an external factor is
    /// inferred. The paper requires all components; a slightly lower
    /// quorum tolerates one component whose change the selection missed.
    pub external_quorum: f64,
    /// Master-side re-collect policy on an *empty* violation-time
    /// fan-out: [`LookbackRetry::Widen`] asks every slave once more
    /// with a widened window before conceding silence. Off by default;
    /// configs serialized before the knob existed lack the field and
    /// deserialize to [`LookbackRetry::Off`], keeping old reports
    /// byte-identical.
    pub lookback_retry: LookbackRetry,
    /// Per-slave response budget (milliseconds) for the master's
    /// violation fan-out. A slave that has not answered within the
    /// deadline is abandoned as a straggler and the diagnosis proceeds
    /// degraded (its status is recorded in
    /// [`crate::DiagnosisCoverage`]). `0` disables the deadline — the
    /// paper's testbed assumption that every slave answers.
    pub slave_deadline_ms: u64,
    /// Bounded retries after a *transient* slave error (a crashed or
    /// partitioned host fails fast and is never retried).
    pub slave_retries: u32,
    /// Base backoff (milliseconds) between slave retries, doubled on each
    /// further attempt.
    pub slave_backoff_ms: u64,
    /// Which analysis implementation runs at violation time (streaming by
    /// default; batch is the always-available reference). Older serialized
    /// configs lack the field — its `Deserialize` maps absence to the
    /// default.
    pub engine: AnalysisEngine,
    /// Ensemble pinpointing stage (centrality + confidence fusion over
    /// the onset chain). Off by default; configs serialized before the
    /// stage existed lack the field and deserialize to the disabled
    /// default, keeping old reports bit-identical.
    pub ensemble: EnsembleConfig,
    /// Online learner configuration (quantization, decay).
    pub learner: LearnerConfig,
    /// CUSUM + bootstrap configuration.
    pub cusum: CusumConfig,
    /// Magnitude-outlier filter configuration.
    pub outlier: OutlierConfig,
}

impl Default for FChainConfig {
    fn default() -> Self {
        FChainConfig {
            lookback: 100,
            burst_window: 20,
            high_freq_fraction: 0.9,
            burst_percentile: 90.0,
            burst_scale: 3.0,
            error_floor_scale: 2.5,
            concurrency_threshold: 2,
            tangent_epsilon: 0.1,
            smoothing_half: 2,
            error_slack: 5,
            external_quorum: 0.75,
            lookback_retry: LookbackRetry::default(),
            slave_deadline_ms: 0,
            slave_retries: 2,
            slave_backoff_ms: 1,
            engine: AnalysisEngine::default(),
            ensemble: EnsembleConfig::default(),
            learner: LearnerConfig::default(),
            cusum: CusumConfig::default(),
            outlier: OutlierConfig::default(),
        }
    }
}

impl FChainConfig {
    /// The default configuration with a different look-back window (the
    /// paper uses `W = 500` for the slow-manifesting DiskHog fault).
    pub fn with_lookback(lookback: u64) -> Self {
        FChainConfig {
            lookback,
            ..FChainConfig::default()
        }
    }

    /// Validates internal consistency, including the nested CUSUM and
    /// learner configurations — a config that passes can analyze.
    ///
    /// # Errors
    ///
    /// Names the first nonsensical value (zero windows, out-of-range
    /// fractions, a detector or learner that cannot run).
    pub fn validate(&self) -> Result<(), String> {
        if !(MIN_LOOKBACK..=MAX_LOOKBACK).contains(&self.lookback) {
            return Err(format!(
                "lookback {} is outside [{MIN_LOOKBACK}, {MAX_LOOKBACK}] ticks",
                self.lookback
            ));
        }
        let rules = [
            (self.burst_window >= 2, "burst window too small"),
            (
                (0.0..=1.0).contains(&self.high_freq_fraction),
                "high_freq_fraction must be in [0, 1]",
            ),
            (
                (0.0..=100.0).contains(&self.burst_percentile),
                "burst_percentile must be in [0, 100]",
            ),
            (
                self.tangent_epsilon > 0.0,
                "tangent_epsilon must be positive",
            ),
            (
                self.slave_retries <= 16,
                "slave_retries must stay bounded (a crashed host is not coming back)",
            ),
            (
                self.slave_backoff_ms <= 60_000,
                "slave_backoff_ms must stay under a minute",
            ),
        ];
        if let Some((_, rule)) = rules.iter().find(|(ok, _)| !ok) {
            return Err(rule.to_string());
        }
        self.cusum.validate().map_err(|e| format!("cusum: {e}"))?;
        self.learner.validate().map_err(|e| format!("learner: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = FChainConfig::default();
        assert_eq!(c.lookback, 100);
        assert_eq!(c.burst_window, 20);
        assert_eq!(c.high_freq_fraction, 0.9);
        assert_eq!(c.burst_percentile, 90.0);
        assert_eq!(c.concurrency_threshold, 2);
        assert_eq!(c.tangent_epsilon, 0.1);
        assert_eq!(c.engine, AnalysisEngine::Streaming);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn engine_parses_and_displays_round_trip() {
        for engine in [AnalysisEngine::Batch, AnalysisEngine::Streaming] {
            assert_eq!(engine.to_string().parse::<AnalysisEngine>(), Ok(engine));
        }
        assert!("turbo".parse::<AnalysisEngine>().is_err());
    }

    #[test]
    fn transport_parses_and_displays_round_trip() {
        for transport in [Transport::InProcess, Transport::Uds, Transport::Tcp] {
            assert_eq!(transport.to_string().parse::<Transport>(), Ok(transport));
        }
        assert!("carrier-pigeon".parse::<Transport>().is_err());
    }

    #[test]
    fn lookback_retry_parses_and_defaults_when_missing() {
        for mode in [LookbackRetry::Off, LookbackRetry::Widen] {
            assert_eq!(mode.to_string().parse::<LookbackRetry>(), Ok(mode));
        }
        assert!("twice".parse::<LookbackRetry>().is_err());
        assert!(!LookbackRetry::Off.enabled());
        assert!(LookbackRetry::Widen.enabled());

        let cfg = FChainConfig {
            lookback_retry: LookbackRetry::Widen,
            ..FChainConfig::default()
        };
        let json = serde_json::to_string(&cfg).expect("serializable config");
        let back: FChainConfig = serde_json::from_str(&json).expect("round trip");
        assert_eq!(back.lookback_retry, LookbackRetry::Widen);
        let stripped = json.replace("\"lookback_retry\":\"widen\",", "");
        assert_ne!(stripped, json, "lookback_retry field not found in {json}");
        let old: FChainConfig = serde_json::from_str(&stripped).expect("legacy config");
        assert_eq!(old.lookback_retry, LookbackRetry::Off);
    }

    #[test]
    fn engine_survives_serde_and_defaults_when_missing() {
        let cfg = FChainConfig {
            engine: AnalysisEngine::Batch,
            ..FChainConfig::default()
        };
        let json = serde_json::to_string(&cfg).expect("serializable config");
        let back: FChainConfig = serde_json::from_str(&json).expect("round trip");
        assert_eq!(back.engine, AnalysisEngine::Batch);
        // Configs serialized before the engine existed must still load.
        let stripped = json.replace("\"engine\":\"batch\",", "");
        assert_ne!(stripped, json, "engine field not found in {json}");
        let old: FChainConfig = serde_json::from_str(&stripped).expect("legacy config");
        assert_eq!(old.engine, AnalysisEngine::Streaming);
    }

    #[test]
    fn with_lookback_overrides_only_w() {
        let c = FChainConfig::with_lookback(300);
        assert_eq!(c.lookback, 300);
        assert_eq!(c.burst_window, FChainConfig::default().burst_window);
    }

    #[test]
    #[should_panic(expected = "lookback")]
    fn tiny_lookback_rejected() {
        FChainConfig::with_lookback(5).validate().unwrap();
    }

    #[test]
    fn degraded_mode_is_off_by_default() {
        // deadline 0 = the paper's assumption that every slave answers;
        // retries/backoff only matter once a transient fault appears.
        let c = FChainConfig::default();
        assert_eq!(c.slave_deadline_ms, 0);
        assert_eq!(c.slave_retries, 2);
        assert_eq!(c.slave_backoff_ms, 1);
    }

    #[test]
    #[should_panic(expected = "lookback")]
    fn unbounded_lookback_rejected() {
        // A window past one day would size the slave's rings and CUSUM
        // buffers from it: overflow or an allocation abort, not a config
        // error.
        FChainConfig::with_lookback(MAX_LOOKBACK + 1)
            .validate()
            .unwrap();
    }

    #[test]
    fn lookback_bounds_are_inclusive() {
        assert_eq!(FChainConfig::with_lookback(MIN_LOOKBACK).validate(), Ok(()));
        assert_eq!(FChainConfig::with_lookback(MAX_LOOKBACK).validate(), Ok(()));
    }

    #[test]
    fn nested_configs_that_cannot_analyze_are_rejected() {
        // Zero bootstraps or zero quantizer bins pass serde but would
        // panic at the first collect or ingest; validation must catch
        // them up front.
        let mut no_bootstraps = FChainConfig::default();
        no_bootstraps.cusum.bootstraps = 0;
        let err = no_bootstraps.validate().unwrap_err();
        assert!(err.contains("cusum") && err.contains("bootstraps"), "{err}");
        let mut no_bins = FChainConfig::default();
        no_bins.learner.bins = 0;
        let err = no_bins.validate().unwrap_err();
        assert!(err.contains("learner") && err.contains("bins"), "{err}");
    }

    #[test]
    fn widening_grows_fourfold_up_to_the_cap() {
        assert_eq!(widened_lookback(100), Some(400));
        assert_eq!(widened_lookback(500), Some(600));
        assert_eq!(widened_lookback(600), None, "already at the cap");
        assert_eq!(widened_lookback(u64::MAX), None, "saturates, never grows");
        assert_eq!(widened_lookback(0), None);
    }

    #[test]
    fn ensemble_is_off_by_default() {
        let c = FChainConfig::default();
        assert!(
            !c.ensemble.enabled,
            "ensemble must default to the base pipeline"
        );
    }

    #[test]
    fn ensemble_config_survives_serde_and_defaults_when_missing() {
        let cfg = FChainConfig {
            ensemble: EnsembleConfig { enabled: true },
            ..FChainConfig::default()
        };
        let json = serde_json::to_string(&cfg).expect("serializable config");
        let back: FChainConfig = serde_json::from_str(&json).expect("round trip");
        assert_eq!(back.ensemble, cfg.ensemble);
        // Configs serialized before the ensemble stage existed must still
        // load, and land on the disabled default.
        let stripped = json.replace("\"ensemble\":{\"enabled\":true},", "");
        assert_ne!(stripped, json, "ensemble field not found in {json}");
        let old: FChainConfig = serde_json::from_str(&stripped).expect("legacy config");
        assert_eq!(old.ensemble, EnsembleConfig::default());
    }

    #[test]
    #[should_panic(expected = "slave_retries")]
    fn unbounded_retries_rejected() {
        let c = FChainConfig {
            slave_retries: 1000,
            ..FChainConfig::default()
        };
        c.validate().unwrap();
    }
}
