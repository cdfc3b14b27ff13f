//! Change-point detection for FChain.
//!
//! FChain first finds *candidate* change points with "the common change
//! point detection algorithm 'CUSUM + Bootstrap'" (paper §II.B, citing
//! Basseville & Nikiforov), then prunes them in two stages:
//!
//! 1. the PAL-style **magnitude outlier filter** (smoothing + change
//!    magnitude outlier detection) keeps only change points whose step is
//!    an outlier among the window's changes — this is the whole abnormal-
//!    component test used by the `Topology`, `Dependency` and `PAL`
//!    baselines;
//! 2. FChain's own **predictability filter** (in `fchain-core`) then keeps
//!    only change points the online model could not predict.
//!
//! This crate implements stage 0 and stage 1: [`CusumDetector`] with
//! bootstrap significance testing and recursive segmentation, and
//! [`magnitude_outliers`].

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod cusum;
mod outlier;

pub use cusum::{ChangePoint, CusumConfig, CusumDetector, MemoTally, Trend};
pub use outlier::{magnitude_outliers, OutlierConfig};

/// The streaming analysis engine holds one set of detection buffers per
/// component, reuses them across look-back windows and runs the pruned
/// bootstrap; these tests pin that neither changes a result.
#[cfg(test)]
mod streaming {
    mod tests {
        use crate::{ChangePoint, CusumDetector};

        fn step(pre: f64, post: f64, at: usize, n: usize) -> Vec<f64> {
            (0..n).map(|i| if i < at { pre } else { post }).collect()
        }

        #[derive(Default)]
        struct Buffers {
            prefix: Vec<f64>,
            scratch: Vec<f64>,
            out: Vec<ChangePoint>,
        }

        impl Buffers {
            fn detect(&mut self, d: &CusumDetector, xs: &[f64]) -> &[ChangePoint] {
                d.detect_into(xs, &mut self.prefix, &mut self.scratch, &mut self.out);
                &self.out
            }

            fn detect_pruned(&mut self, d: &CusumDetector, xs: &[f64]) -> &[ChangePoint] {
                d.detect_into_pruned(xs, &mut self.prefix, &mut self.scratch, &mut self.out);
                &self.out
            }
        }

        #[test]
        fn detect_window_matches_batch_detector() {
            let xs = step(5.0, 25.0, 40, 100);
            let d = CusumDetector::default();
            let batch = d.detect(&xs);
            let mut bufs = Buffers::default();
            assert_eq!(bufs.detect(&d, &xs), &batch[..]);
            // Reusing the same buffers must not change the answer.
            assert_eq!(bufs.detect(&d, &xs), &batch[..]);
        }

        #[test]
        fn detect_suffix_matches_batch_on_every_suffix() {
            let mut xs = step(5.0, 25.0, 30, 70);
            xs.extend(step(25.0, 60.0, 20, 50));
            let d = CusumDetector::default();
            let mut bufs = Buffers::default();
            // One set of dirty buffers serves windows that grow and shrink.
            for len in [0, 1, 12, 40, 100, 120, 500, 40, 12] {
                let take = len.min(xs.len());
                let window = &xs[xs.len() - take..];
                let batch = d.detect(window);
                assert_eq!(bufs.detect(&d, window), &batch[..], "suffix {len}");
                assert_eq!(
                    bufs.detect_pruned(&d, window),
                    &batch[..],
                    "pruned suffix {len}"
                );
            }
        }

        #[test]
        fn pruned_window_matches_plain_window() {
            let mut xs = step(5.0, 25.0, 30, 70);
            xs.extend(step(25.0, 60.0, 20, 50));
            xs.extend(std::iter::repeat_n(60.0, 40));
            let d = CusumDetector::default();
            let mut bufs = Buffers::default();
            let plain = bufs.detect(&d, &xs).to_vec();
            assert!(!plain.is_empty());
            assert_eq!(bufs.detect_pruned(&d, &xs), &plain[..]);
        }
    }
}
