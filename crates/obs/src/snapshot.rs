//! Serializable, point-in-time copies of the registry.
//!
//! Snapshots are plain data: they carry no atomics, merge and subtract
//! like values, and round-trip through serde. They are how instrumentation
//! leaves the process — attached to a `DiagnosisReport`, dumped by
//! `--obs-json`, or rendered by `fchain obs`.

use crate::hist::BUCKETS;
use crate::stage::{Counter, Stage};
use serde::{Deserialize, Serialize};

/// One stage's latency histogram, frozen.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageSnapshot {
    /// The stage's wire name ([`Stage::name`]).
    pub stage: String,
    /// Spans recorded.
    pub count: u64,
    /// Sum of all recorded span durations (ns).
    pub total_ns: u64,
    /// Shortest recorded span (ns); 0 when `count == 0`. In a
    /// [`PipelineSnapshot::delta_since`] result this is the extremum over
    /// the *whole* recording lifetime, not just the delta window.
    pub min_ns: u64,
    /// Longest recorded span (ns); same lifetime caveat as `min_ns`.
    pub max_ns: u64,
    /// Log2 duration buckets: `buckets[i]` counts spans whose duration
    /// has `floor(log2(ns)) == i` (bucket 0 also holds 0 ns).
    pub buckets: Vec<u64>,
}

impl StageSnapshot {
    /// An empty snapshot for `stage`.
    pub fn empty(stage: &str) -> Self {
        StageSnapshot {
            stage: stage.to_string(),
            count: 0,
            total_ns: 0,
            min_ns: 0,
            max_ns: 0,
            buckets: vec![0; BUCKETS],
        }
    }

    /// Mean span duration in ns (0.0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Upper bound (ns) of the bucket containing the `p`-th percentile
    /// sample (`0.0 ..= 100.0`); 0 when empty. Log2 buckets bound the
    /// answer to within 2x — plenty for "where does the time go".
    pub fn approx_percentile_ns(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i >= 63 { u64::MAX } else { (2u64 << i) - 1 };
            }
        }
        self.max_ns
    }

    /// Folds `other` into `self` (bucket-wise addition; min/max widen).
    ///
    /// # Panics
    ///
    /// Panics if the stage names differ.
    pub fn merge(&mut self, other: &StageSnapshot) {
        assert_eq!(self.stage, other.stage, "merging different stages");
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        if other.count > 0 {
            self.min_ns = if self.count == 0 {
                other.min_ns
            } else {
                self.min_ns.min(other.min_ns)
            };
            self.max_ns = self.max_ns.max(other.max_ns);
        }
        self.count += other.count;
        self.total_ns += other.total_ns;
    }

    /// The additive fields of `self` minus `base` (saturating), keeping
    /// `min_ns`/`max_ns` from `self` (extrema cannot be subtracted).
    fn delta_since(&self, base: &StageSnapshot) -> StageSnapshot {
        let buckets = self
            .buckets
            .iter()
            .zip(&base.buckets)
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        StageSnapshot {
            stage: self.stage.clone(),
            count: self.count.saturating_sub(base.count),
            total_ns: self.total_ns.saturating_sub(base.total_ns),
            min_ns: self.min_ns,
            max_ns: self.max_ns,
            buckets,
        }
    }
}

/// One counter's value, frozen.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// The counter's wire name ([`Counter::name`]).
    pub counter: String,
    /// The count.
    pub value: u64,
}

/// A frozen copy of the whole registry: every stage histogram and every
/// counter, in registry order. The shape is identical whether the `obs`
/// instrumentation is compiled in or not (all-zero when it is not), so
/// consumers never need to branch on the feature.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineSnapshot {
    /// Per-stage latency histograms, in [`Stage::ALL`] order.
    pub stages: Vec<StageSnapshot>,
    /// Counter values, in [`Counter::ALL`] order.
    pub counters: Vec<CounterSnapshot>,
    /// Which tenant application this snapshot was recorded for, when the
    /// producer scoped it (`fchain obs` labels its one diagnosis's delta;
    /// whole-process snapshots stay unlabeled). Snapshots serialized
    /// before the fleet layer existed lack the field — `Option`'s
    /// `Deserialize` maps absence to `None`.
    pub app: Option<String>,
}

impl Default for PipelineSnapshot {
    fn default() -> Self {
        PipelineSnapshot::empty()
    }
}

impl PipelineSnapshot {
    /// The all-zero snapshot (what [`crate::snapshot`] returns before
    /// anything is recorded).
    pub fn empty() -> Self {
        PipelineSnapshot {
            stages: Stage::ALL
                .iter()
                .map(|s| StageSnapshot::empty(s.name()))
                .collect(),
            counters: Counter::ALL
                .iter()
                .map(|c| CounterSnapshot {
                    counter: c.name().to_string(),
                    value: 0,
                })
                .collect(),
            app: None,
        }
    }

    /// The same snapshot labeled as belonging to tenant `app`.
    pub fn labeled(mut self, app: &str) -> Self {
        self.app = Some(app.to_string());
        self
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.stages.iter().all(|s| s.count == 0) && self.counters.iter().all(|c| c.value == 0)
    }

    /// The snapshot of one stage, if present.
    pub fn stage(&self, stage: Stage) -> Option<&StageSnapshot> {
        self.stages.iter().find(|s| s.stage == stage.name())
    }

    /// One counter's value (0 if absent).
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters
            .iter()
            .find(|c| c.counter == counter.name())
            .map(|c| c.value)
            .unwrap_or(0)
    }

    /// What happened *between* `base` and `self`: additive fields are
    /// subtracted (saturating, matched by wire name); `min_ns`/`max_ns`
    /// keep `self`'s lifetime extrema. This is how a snapshot taken before
    /// a diagnosis and one taken after become the diagnosis's own profile.
    pub fn delta_since(&self, base: &PipelineSnapshot) -> PipelineSnapshot {
        let stages = self
            .stages
            .iter()
            .map(|s| match base.stages.iter().find(|b| b.stage == s.stage) {
                Some(b) => s.delta_since(b),
                None => s.clone(),
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|c| CounterSnapshot {
                counter: c.counter.clone(),
                value: match base.counters.iter().find(|b| b.counter == c.counter) {
                    Some(b) => c.value.saturating_sub(b.value),
                    None => c.value,
                },
            })
            .collect();
        PipelineSnapshot {
            stages,
            counters,
            app: self.app.clone(),
        }
    }

    /// Folds `other` into `self`, matching stages and counters by wire
    /// name (entries unknown to `self` are appended).
    pub fn merge(&mut self, other: &PipelineSnapshot) {
        for theirs in &other.stages {
            match self.stages.iter_mut().find(|s| s.stage == theirs.stage) {
                Some(mine) => mine.merge(theirs),
                None => self.stages.push(theirs.clone()),
            }
        }
        for theirs in &other.counters {
            match self
                .counters
                .iter_mut()
                .find(|c| c.counter == theirs.counter)
            {
                Some(mine) => mine.value += theirs.value,
                None => self.counters.push(theirs.clone()),
            }
        }
        if self.app.is_none() {
            self.app = other.app.clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage_with(values: &[u64]) -> StageSnapshot {
        let mut s = StageSnapshot::empty("test");
        for &v in values {
            s.buckets[crate::hist::bucket_of(v)] += 1;
            s.count += 1;
            s.total_ns += v;
            s.min_ns = if s.count == 1 { v } else { s.min_ns.min(v) };
            s.max_ns = s.max_ns.max(v);
        }
        s
    }

    #[test]
    fn empty_snapshot_has_the_full_shape() {
        let snap = PipelineSnapshot::empty();
        assert_eq!(snap.stages.len(), Stage::ALL.len());
        assert_eq!(snap.counters.len(), Counter::ALL.len());
        assert!(snap.is_empty());
        assert_eq!(snap.counter(Counter::EvalRuns), 0);
        assert_eq!(snap.stage(Stage::SlaveCusum).unwrap().count, 0);
    }

    #[test]
    fn merge_adds_and_widens() {
        let mut a = stage_with(&[10, 20]);
        let b = stage_with(&[5, 1000]);
        a.merge(&b);
        assert_eq!(a.count, 4);
        assert_eq!(a.total_ns, 1035);
        assert_eq!(a.min_ns, 5);
        assert_eq!(a.max_ns, 1000);
    }

    #[test]
    fn merge_into_empty_takes_the_other_extrema() {
        let mut a = StageSnapshot::empty("test");
        a.merge(&stage_with(&[7, 9]));
        assert_eq!(a.min_ns, 7);
        assert_eq!(a.max_ns, 9);
    }

    #[test]
    fn delta_subtracts_additive_fields() {
        let base = stage_with(&[10]);
        let mut now = stage_with(&[10]);
        now.merge(&stage_with(&[100, 200]));
        let delta = now.delta_since(&base);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.total_ns, 300);
        assert_eq!(delta.buckets.iter().sum::<u64>(), 2);
    }

    #[test]
    fn approx_percentile_brackets_the_sample() {
        let s = stage_with(&[100; 10]);
        let p50 = s.approx_percentile_ns(50.0);
        // 100 lives in bucket 6 ([64, 127]); the estimate is the bucket's
        // upper bound.
        assert_eq!(p50, 127);
        assert_eq!(s.approx_percentile_ns(100.0), 127);
        assert_eq!(StageSnapshot::empty("x").approx_percentile_ns(50.0), 0);
    }

    #[test]
    fn mean_is_total_over_count() {
        let s = stage_with(&[10, 30]);
        assert_eq!(s.mean_ns(), 20.0);
        assert_eq!(StageSnapshot::empty("x").mean_ns(), 0.0);
    }

    #[test]
    fn snapshot_roundtrips_through_serde() {
        let mut snap = PipelineSnapshot::empty();
        snap.stages[0].merge(&{
            let mut s = StageSnapshot::empty(Stage::ALL[0].name());
            s.count = 3;
            s.total_ns = 900;
            s.min_ns = 100;
            s.max_ns = 500;
            s.buckets[7] = 3;
            s
        });
        snap.counters[2].value = 11;
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: PipelineSnapshot = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, snap);
    }
}
