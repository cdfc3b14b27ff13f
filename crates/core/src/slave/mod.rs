//! FChain slave modules: normal-fluctuation modeling and abnormal change
//! point selection (paper §II.A–B).
//!
//! A slave runs in Domain 0 of every cloud node. It continuously feeds
//! each guest VM's six system metrics into an online Markov-chain
//! predictor; when the master reports an SLO violation at `t_v`, the slave
//! scans the look-back window `[t_v − W, t_v]` for change points and
//! selects the *abnormal* ones — those the prediction model could not
//! have predicted — then rolls each back to its precise onset.

pub mod daemon;
mod derived;
pub mod rollback;
mod selection;

pub use daemon::{MetricSample, Recording, SlaveDaemon};
