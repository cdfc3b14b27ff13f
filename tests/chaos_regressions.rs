//! Named chaos regressions: weak cases the seeded scenario fuzzer
//! surfaced, frozen with their exact campaign coordinates.
//!
//! Every test replays `(campaign_seed = 42, scenario_index)` — the whole
//! replay contract of `fchain-chaos` — under the same configuration the
//! `fchain chaos` CLI sweeps with (ensemble pinpointing enabled). Two
//! kinds of pins live here:
//!
//! * **fixed finds**: scenarios that used to fail because of a real
//!   pipeline bug (ring-capacity calibration drift, the slave-ratio
//!   coverage penalty, the silent-hole surge misfire). These assert the
//!   scenario now passes; a failure means the bug is back.
//! * **frozen weaknesses**: scenarios the pipeline still gets wrong for
//!   understood black-box reasons. These pin the exact current outcome so
//!   the weakness cannot silently *grow*; an improvement shows up as a
//!   failing pin and the pin should be updated to the better outcome.

use fchain_chaos::{minimize, plan_scenario, ChaosCampaign, Family, PartitionMode};
use fchain_core::{FChainConfig, LookbackRetry};

/// The sweep configuration of the `fchain chaos` CLI and the CI chaos
/// job: default pipeline with the ensemble pinpointing stage enabled.
fn chaos_config() -> FChainConfig {
    let mut config = FChainConfig::default();
    config.ensemble.enabled = true;
    config
}

fn campaign() -> ChaosCampaign {
    let mut campaign = ChaosCampaign::new(42, 210);
    campaign.config = chaos_config();
    campaign
}

/// Failure mode (fixed): the fleet ring retained less history than the
/// run, so the detector calibrated its normal-behavior model on a
/// truncated series and diverged from the solo reference on borderline
/// onsets — four correlated tenants, one of them misdiagnosed.
#[test]
fn correlated_tenants_match_solo_reference() {
    let outcome = campaign().run_scenario(23);
    assert_eq!(outcome.family, Family::CorrelatedCrossTenant);
    assert!(!outcome.failed(), "{outcome:?}");
    for v in &outcome.violations {
        assert_eq!(
            v.pinpointed, v.solo_pinpointed,
            "fleet diverged from the solo pipeline at t={}",
            v.violation_at
        );
    }
}

/// Failure mode (fixed): the ensemble discounted confidences by the
/// slave-answered ratio, so a crashed host perturbed every confidence
/// even though two-way replication left zero blind components — the
/// coverage penalty must count missing *components*, not missing hosts.
#[test]
fn partitioned_replicated_host_keeps_solo_parity() {
    let outcome = campaign().run_scenario(66);
    assert_eq!(outcome.family, Family::Partition);
    assert!(!outcome.failed(), "{outcome:?}");
    for v in &outcome.violations {
        assert_eq!(
            v.pinpointed, v.solo_pinpointed,
            "failover changed the diagnosis at t={}",
            v.violation_at
        );
    }
}

/// Failure mode (fixed): the confidence floor demoted the weakest member
/// of a uniform surge wave to "silent", and the silent-hole correction
/// then blamed it as a starved interior component — a hole must be silent
/// in the raw findings, not merely sub-floor.
#[test]
fn surge_wave_is_not_a_silent_hole() {
    let outcome = campaign().run_scenario(19);
    assert_eq!(outcome.family, Family::WorkloadShiftTrap);
    let surge = outcome
        .violations
        .iter()
        .find(|v| v.tenant == 0)
        .expect("the surge tenant violates");
    assert!(
        surge.pinpointed.is_empty(),
        "a pure workload surge was blamed on {:?}",
        surge.pinpointed
    );
}

/// Failure mode (frozen): a W=30 evidence window truncates a memory
/// leak whose onset precedes the violation by more than the window, so
/// the pipeline sees no abnormal change and reports nothing — a known
/// recall hole of short look-backs, one miss and zero false alarms.
#[test]
fn window_edge_onset_misses_stay_silent() {
    for index in [118usize, 160, 195] {
        let outcome = campaign().run_scenario(index);
        assert_eq!(outcome.family, Family::WindowEdgeOnset);
        assert_eq!(
            (outcome.counts.tp, outcome.counts.fp, outcome.counts.fn_),
            (0, 0, 1),
            "scenario {index} drifted from the pinned silent miss: {outcome:?}"
        );
        for v in &outcome.violations {
            assert!(
                v.pinpointed.is_empty(),
                "scenario {index} now blames {:?} instead of staying silent",
                v.pinpointed
            );
        }
    }
}

/// The look-back widen retry closes the pinned window-edge recall
/// hole: with `lookback_retry = Widen` the same three scenarios that
/// stay silent above re-collect at a 4× window, see the leak's onset,
/// and localize it exactly — and the knob changes nothing else, so the
/// frozen `(0, 0, 1)` pin and this one hold simultaneously.
#[test]
fn lookback_retry_turns_window_edge_misses_into_catches() {
    let mut config = chaos_config();
    config.lookback_retry = LookbackRetry::Widen;
    let mut widened = ChaosCampaign::new(42, 210);
    widened.config = config;
    for index in [118usize, 160, 195] {
        let outcome = widened.run_scenario(index);
        assert_eq!(outcome.family, Family::WindowEdgeOnset);
        assert_eq!(
            (outcome.counts.tp, outcome.counts.fp, outcome.counts.fn_),
            (1, 0, 0),
            "scenario {index} under Widen drifted from the pinned catch: {outcome:?}"
        );
        // The solo reference diagnoses through the same master, so it
        // widens too and catches the same component.
        for v in &outcome.violations {
            assert_eq!(
                v.pinpointed, v.solo_pinpointed,
                "scenario {index}: solo reference diverged under Widen"
            );
        }
    }
}

/// Failure mode (frozen): a W=500 concurrent leak diagnosed right at the
/// edge of manifestation — the first ask blames four infected downstream
/// components, and the flap re-asks two and four ticks later see just
/// enough more evidence to recover the true sources. Diagnosis stability
/// under a flapping SLO is the open weakness this scenario tracks.
#[test]
fn flap_reasks_recover_late_concurrent_leak() {
    let outcome = campaign().run_scenario(88);
    assert_eq!(outcome.family, Family::FlappingSlo);
    let pins: Vec<Vec<u32>> = outcome
        .violations
        .iter()
        .map(|v| v.pinpointed.iter().map(|c| c.0).collect())
        .collect();
    assert_eq!(
        pins,
        vec![vec![3, 4, 7, 8], vec![0, 1, 2], vec![0, 1, 2]],
        "the pinned first-ask/re-ask split drifted: {outcome:?}"
    );
}

/// Failure mode (frozen): the borderline-fault mix — the paper's two
/// weakest single-fault profiles (Hadoop ConcurrentDiskHog, SystemS
/// Bottleneck) side by side at `W = 500`. Scenario 215 pins the bad
/// draw: the bottleneck's CPU saturation propagates through SystemS's
/// dataflow within the ten ticks before the SLO fires, so the earliest
/// abnormal onsets land on infected neighbours and the true source is
/// missed — while the disk-hog tenant on the same pool still localizes
/// exactly, and the fleet answer never diverges from the solo
/// reference. Scenario 239 pins a clean draw of the same mix: both
/// tenants exact. The weakness is allowed to exist; it is not allowed
/// to grow or to leak across tenants.
#[test]
fn borderline_mix_weakness_stays_tenant_local() {
    let outcome = campaign().run_scenario(215);
    assert_eq!(outcome.family, Family::BorderlineFaultMix);
    assert_eq!(
        (outcome.counts.tp, outcome.counts.fp, outcome.counts.fn_),
        (3, 4, 1),
        "the pinned borderline outcome drifted: {outcome:?}"
    );
    for v in &outcome.violations {
        assert_eq!(
            v.pinpointed, v.solo_pinpointed,
            "fleet diverged from the solo pipeline at t={}",
            v.violation_at
        );
    }
    let hadoop = outcome
        .violations
        .iter()
        .find(|v| v.tenant == 0)
        .expect("the disk-hog tenant violates");
    assert_eq!(
        hadoop.pinpointed, hadoop.truth,
        "the co-resident disk-hog tenant must stay exactly localized"
    );

    let clean = campaign().run_scenario(239);
    assert_eq!(clean.family, Family::BorderlineFaultMix);
    assert!(
        !clean.failed(),
        "the pinned clean draw regressed: {clean:?}"
    );
}

/// The modern-band partition family degrades *softly* too: scenario 227
/// draws a transiently-failing host (recovered within the default retry
/// budget) and 235 a host answering from a 6-tick-truncated window (its
/// components replicated on a healthy peer) — both must keep paper-grade
/// localization, same as a hard crash with failover. The legacy band
/// below index 210 must keep drawing hard crashes only, so every frozen
/// partition pin replays untouched.
#[test]
fn soft_partition_modes_keep_localization_exact() {
    let transient = plan_scenario(42, 227);
    assert_eq!(
        transient.partition_mode,
        PartitionMode::Transient { failures: 2 }
    );
    let partial = plan_scenario(42, 235);
    assert_eq!(
        partial.partition_mode,
        PartitionMode::PartialWindow { missing_ticks: 6 }
    );
    assert_eq!(plan_scenario(42, 66).partition_mode, PartitionMode::Crash);
    for index in [227usize, 235] {
        let outcome = campaign().run_scenario(index);
        assert_eq!(outcome.family, Family::Partition);
        assert!(!outcome.failed(), "{outcome:?}");
    }
}

/// The shrinking contract on a live find: scenario 78's cascade fails,
/// and the minimizer must strip its extra fault while keeping the
/// failure — a strictly smaller fault set that still reproduces.
#[test]
fn cascade_find_shrinks_to_failing_core() {
    let plan = plan_scenario(42, 78);
    assert_eq!(plan.family, Family::MultiFaultCascade);
    let shrink = minimize(&plan, &chaos_config());
    assert!(shrink.fails, "scenario 78 must fail before shrinking");
    assert!(
        shrink.minimized_faults() < shrink.original_faults(),
        "nothing shrank: {:?}",
        shrink.steps
    );
    assert!(!shrink.steps.is_empty());
}
