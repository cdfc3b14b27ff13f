//! # fchain-wire — the master–slave boundary as a real wire protocol
//!
//! FChain's master "first contacts the slaves on all related distributed
//! hosts" (paper §II.C). Until this crate, our reproduction crossed that
//! boundary through an in-process trait call; here the same
//! [`SlaveEndpoint`](fchain_core::SlaveEndpoint) contract travels over a
//! socket:
//!
//! * [`frame`] — a compact length-prefixed binary framing protocol:
//!   versioned 20-byte header, request ids, per-type payload codecs,
//!   explicit error frames. Floats cross as IEEE-754 bit patterns, so a
//!   report collected over a socket is *bit-identical* to one collected
//!   in-process. Zero external dependencies.
//! * [`WireServer`] — the serving loop behind the `fchaind` binary:
//!   TCP or Unix-domain listeners, per-connection read/write deadlines,
//!   a handler thread per connection, clean shutdown on a protocol
//!   frame.
//! * [`RemoteSlave`] — the master's client endpoint: lazy
//!   connect/reconnect, deadline-bounded I/O mapped onto the existing
//!   retry/backoff/coverage machinery, and ingest pipelined up to
//!   [`INGEST_WINDOW`] unacknowledged batches.
//!
//! The deterministic in-process path stays available as the loopback
//! transport ([`fchain_core::Transport::InProcess`]); sockets are opt-in
//! per config/CLI.
//!
//! # Examples
//!
//! Serve a daemon over TCP and diagnose through it:
//!
//! ```
//! use fchain_core::slave::{MetricSample, SlaveDaemon};
//! use fchain_core::{CollectRequest, FChainConfig, SlaveEndpoint};
//! use fchain_metrics::{ComponentId, MetricKind};
//! use fchain_wire::{RemoteSlave, WireAddr, WireServer};
//! use std::sync::Arc;
//!
//! let daemon = Arc::new(SlaveDaemon::new(FChainConfig::default()));
//! for tick in 0..600 {
//!     daemon.ingest(MetricSample {
//!         tick,
//!         component: ComponentId(0),
//!         kind: MetricKind::Cpu,
//!         value: 20.0,
//!     });
//! }
//! let expected = daemon.analyze_all(None, &CollectRequest::at(599));
//!
//! let server = WireServer::serve(
//!     &WireAddr::Tcp("127.0.0.1:0".to_string()),
//!     Arc::clone(&daemon),
//!     None,
//! )
//! .unwrap();
//! let remote = RemoteSlave::connect(server.addr().clone(), None, None).unwrap();
//! assert_eq!(remote.monitored_components(), vec![ComponentId(0)]);
//! assert_eq!(remote.collect(&CollectRequest::at(599)).unwrap(), expected);
//! ```

#![deny(missing_docs)]

pub mod frame;

mod client;
mod server;

pub use client::{RefreshError, RemoteSlave, INGEST_WINDOW};
pub use frame::{Frame, ResponseStatus, WireError, MAX_PAYLOAD, PROTOCOL_VERSION};
pub use server::{WireAddr, WireServer};
