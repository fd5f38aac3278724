//! Measurement statistics: phases, the latency histogram, throughput
//! accounting, and saturation search.
//!
//! The paper's measurement protocol (§5.1) uses long warmup and measurement
//! phases ("for Uniform Random / Multicast_static benchmarks, warmup is
//! 320 ns / 640 ns, and measurement is 3200 ns / 6400 ns"); latency is the
//! average over packets created inside the measurement window, "up to the
//! arrival of all headers at destinations"; saturation throughput is the
//! highest offered load the network still accepts.
//!
//! # Examples
//!
//! ```
//! use asynoc_kernel::{Duration, Time};
//! use asynoc_stats::{LogHistogram, Phases};
//!
//! let phases = Phases::new(Duration::from_ns(320), Duration::from_ns(3200));
//! assert!(!phases.in_measurement(Time::from_ns(100))); // warmup
//! assert!(phases.in_measurement(Time::from_ns(1000)));
//!
//! let mut stats = LogHistogram::new();
//! stats.record(Duration::from_ps(1_800));
//! stats.record(Duration::from_ps(2_200));
//! assert_eq!(stats.mean(), Some(Duration::from_ps(2_000)));
//! ```

#![deny(missing_docs)]
pub mod histogram;
pub mod phases;
pub mod saturation;
pub mod throughput;

pub use histogram::LogHistogram;
pub use phases::Phases;
pub use saturation::{find_saturation_multi, StabilityProbe, StabilityVerdict};
pub use throughput::ThroughputCounter;
