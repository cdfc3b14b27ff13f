//! The span and counter vocabulary of the diagnosis pipeline.
//!
//! Both enums are closed: the registry backs each variant with a fixed
//! static slot, so recording never allocates and never takes a lock.

/// A span-timed pipeline stage. Each stage owns one latency histogram in
/// the static registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// One metric's full abnormal-change selection pass
    /// (`slave::selection::select` in `fchain-core`).
    SlaveSelection,
    /// CUSUM + bootstrap change point detection on the smoothed window.
    SlaveCusum,
    /// Burst-FFT synthesis of the expected prediction error.
    SlaveFft,
    /// Tangent-based rollback of the selected change point to its onset.
    SlaveRollback,
    /// One component's whole-shard analysis inside the slave daemon.
    SlaveAnalyze,
    /// One master→slave collect RPC (per attempt, retries included).
    SlaveRpc,
    /// The master's full violation fan-out (all slaves queried, coverage
    /// assembled).
    MasterFanOut,
    /// Merging duplicate per-component findings after the fan-out.
    MasterMerge,
    /// Integrated pinpointing over the merged findings.
    MasterPinpoint,
    /// Online pinpointing validation (all scaling probes).
    MasterValidation,
    /// One seeded campaign run: simulate, build the case, score every
    /// scheme.
    EvalRun,
    /// One full fleet drain: every queued tenant violation scheduled and
    /// diagnosed.
    FleetDrain,
    /// One chaos scenario executed end to end: plan, simulate every
    /// tenant, stage the fleet, drain, score.
    ChaosScenario,
}

impl Stage {
    /// Every stage, in registry order.
    pub const ALL: [Stage; 13] = [
        Stage::SlaveSelection,
        Stage::SlaveCusum,
        Stage::SlaveFft,
        Stage::SlaveRollback,
        Stage::SlaveAnalyze,
        Stage::SlaveRpc,
        Stage::MasterFanOut,
        Stage::MasterMerge,
        Stage::MasterPinpoint,
        Stage::MasterValidation,
        Stage::EvalRun,
        Stage::FleetDrain,
        Stage::ChaosScenario,
    ];

    /// The stage's slot in the static registry.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case wire name (the `stage` field of
    /// [`crate::StageSnapshot`]).
    pub const fn name(self) -> &'static str {
        match self {
            Stage::SlaveSelection => "slave_selection",
            Stage::SlaveCusum => "slave_cusum",
            Stage::SlaveFft => "slave_fft",
            Stage::SlaveRollback => "slave_rollback",
            Stage::SlaveAnalyze => "slave_analyze",
            Stage::SlaveRpc => "slave_rpc",
            Stage::MasterFanOut => "master_fan_out",
            Stage::MasterMerge => "master_merge",
            Stage::MasterPinpoint => "master_pinpoint",
            Stage::MasterValidation => "master_validation",
            Stage::EvalRun => "eval_run",
            Stage::FleetDrain => "fleet_drain",
            Stage::ChaosScenario => "chaos_scenario",
        }
    }
}

/// A monotonically increasing pipeline event counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Metric series that entered the selection pipeline.
    MetricsAnalyzed,
    /// Components analyzed by a slave (batch or daemon path).
    ComponentsAnalyzed,
    /// Change point candidates produced by CUSUM + bootstrap.
    ChangePointCandidates,
    /// Candidates surviving the magnitude-outlier filter.
    ChangePointOutliers,
    /// Outliers accepted by the predictability filter (abnormal).
    ChangePointsAccepted,
    /// Outliers rejected by the predictability filter (learnable bursts).
    ChangePointsRejected,
    /// Master→slave collect attempts (first tries and retries).
    SlaveQueries,
    /// Retries after a transient slave error.
    SlaveRetries,
    /// Slaves abandoned at the fan-out deadline.
    SlaveTimeouts,
    /// Slaves that failed every attempt.
    SlaveUnreachable,
    /// Validation scaling experiments performed.
    ValidationProbes,
    /// Pinpointed components removed by validation.
    ValidationRemoved,
    /// Seeded campaign runs simulated.
    EvalRuns,
    /// Campaign runs whose SLO fired and were diagnosed.
    EvalDiagnoses,
    /// Out-of-order, duplicate-tick or non-finite samples dropped at
    /// ingest (the monitoring feed replayed, reordered or corrupted data;
    /// the series keeps its first-seen finite value per tick).
    IngestDroppedSamples,
    /// Ticks bridged by carrying the last value across a short monitoring
    /// gap at ingest.
    IngestGapTicksBridged,
    /// Metric series reset after a monitoring outage longer than the
    /// gap-fill limit.
    IngestSeriesResets,
    /// Metrics the streaming engine short-circuited at violation time:
    /// the window-maximum prediction error never exceeded the error
    /// floor, so no change point could have been accepted.
    StreamingScreened,
    /// Tenant SLO violations scheduled into a fleet drain queue.
    FleetViolations,
    /// Tenant lanes drained by a fleet master (one per tenant with at
    /// least one queued violation).
    FleetLanes,
    /// Per-tenant look-back overrides clamped up to the minimum window
    /// (an operator asked for an evidence window too small to analyze).
    FleetLookbackClamped,
    /// Chaos scenarios executed end to end.
    ChaosScenarios,
    /// Faults injected across every chaos scenario (primary and extras).
    ChaosFaultsInjected,
    /// Chaos scenarios whose scoring found at least one false positive or
    /// missed component — the fuzzer's hit counter.
    ChaosFailures,
    /// Empty violation-time fan-outs the master re-collected with a
    /// widened look-back window (the `lookback_retry` knob).
    LookbackRetryWidened,
    /// Streaming CUSUM segment tests that gathered cached bootstrap
    /// permutations instead of reshuffling. The memo is process-wide, so
    /// this and the two below depend on what the process ran before.
    CusumMemoHits,
    /// Streaming CUSUM segment tests that generated their bootstrap
    /// permutations into the memo.
    CusumMemoAdmits,
    /// Streaming CUSUM segment tests that reshuffled without the memo.
    CusumMemoMisses,
}

impl Counter {
    /// Every counter, in registry order.
    pub const ALL: [Counter; 28] = [
        Counter::MetricsAnalyzed,
        Counter::ComponentsAnalyzed,
        Counter::ChangePointCandidates,
        Counter::ChangePointOutliers,
        Counter::ChangePointsAccepted,
        Counter::ChangePointsRejected,
        Counter::SlaveQueries,
        Counter::SlaveRetries,
        Counter::SlaveTimeouts,
        Counter::SlaveUnreachable,
        Counter::ValidationProbes,
        Counter::ValidationRemoved,
        Counter::EvalRuns,
        Counter::EvalDiagnoses,
        Counter::IngestDroppedSamples,
        Counter::IngestGapTicksBridged,
        Counter::IngestSeriesResets,
        Counter::StreamingScreened,
        Counter::FleetViolations,
        Counter::FleetLanes,
        Counter::FleetLookbackClamped,
        Counter::ChaosScenarios,
        Counter::ChaosFaultsInjected,
        Counter::ChaosFailures,
        Counter::LookbackRetryWidened,
        Counter::CusumMemoHits,
        Counter::CusumMemoAdmits,
        Counter::CusumMemoMisses,
    ];

    /// The counter's slot in the static registry.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case wire name (the `counter` field of
    /// [`crate::CounterSnapshot`]).
    pub const fn name(self) -> &'static str {
        match self {
            Counter::MetricsAnalyzed => "metrics_analyzed",
            Counter::ComponentsAnalyzed => "components_analyzed",
            Counter::ChangePointCandidates => "change_point_candidates",
            Counter::ChangePointOutliers => "change_point_outliers",
            Counter::ChangePointsAccepted => "change_points_accepted",
            Counter::ChangePointsRejected => "change_points_rejected",
            Counter::SlaveQueries => "slave_queries",
            Counter::SlaveRetries => "slave_retries",
            Counter::SlaveTimeouts => "slave_timeouts",
            Counter::SlaveUnreachable => "slave_unreachable",
            Counter::ValidationProbes => "validation_probes",
            Counter::ValidationRemoved => "validation_removed",
            Counter::EvalRuns => "eval_runs",
            Counter::EvalDiagnoses => "eval_diagnoses",
            Counter::IngestDroppedSamples => "ingest_dropped_samples",
            Counter::IngestGapTicksBridged => "ingest_gap_ticks_bridged",
            Counter::IngestSeriesResets => "ingest_series_resets",
            Counter::StreamingScreened => "streaming_screened",
            Counter::FleetViolations => "fleet_violations",
            Counter::FleetLanes => "fleet_lanes",
            Counter::FleetLookbackClamped => "fleet_lookback_clamped",
            Counter::ChaosScenarios => "chaos_scenarios",
            Counter::ChaosFaultsInjected => "chaos_faults_injected",
            Counter::ChaosFailures => "chaos_failures",
            Counter::LookbackRetryWidened => "lookback_retry_widened",
            Counter::CusumMemoHits => "cusum_memo_hits",
            Counter::CusumMemoAdmits => "cusum_memo_admits",
            Counter::CusumMemoMisses => "cusum_memo_misses",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_indices_are_dense_and_ordered() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
    }

    #[test]
    fn counter_indices_are_dense_and_ordered() {
        for (i, counter) in Counter::ALL.iter().enumerate() {
            assert_eq!(counter.index(), i);
        }
    }

    #[test]
    fn wire_names_are_unique() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.extend(Counter::ALL.iter().map(|c| c.name()));
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len(), "duplicate wire name");
    }
}
