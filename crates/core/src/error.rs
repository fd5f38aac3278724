//! Error type for network construction and simulation runs.

use std::error::Error;
use std::fmt;

use asynoc_topology::TopologyError;
use asynoc_traffic::TrafficError;

/// Errors from building or running a simulated network.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// The topology or architecture description is invalid.
    Topology(TopologyError),
    /// The traffic specification is invalid.
    Traffic(TrafficError),
    /// The requested injection rate is not positive and finite.
    InvalidRate {
        /// The rejected rate in flits/ns per source.
        rate: f64,
    },
    /// Packets must contain at least one flit.
    ZeroLengthPacket,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Topology(e) => write!(f, "topology error: {e}"),
            SimError::Traffic(e) => write!(f, "traffic error: {e}"),
            SimError::InvalidRate { rate } => {
                write!(
                    f,
                    "injection rate {rate} flits/ns is not positive and finite"
                )
            }
            SimError::ZeroLengthPacket => write!(f, "packets must have at least one flit"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Topology(e) => Some(e),
            SimError::Traffic(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TopologyError> for SimError {
    fn from(e: TopologyError) -> Self {
        SimError::Topology(e)
    }
}

impl From<TrafficError> for SimError {
    fn from(e: TrafficError) -> Self {
        match e {
            TrafficError::InvalidRate { rate } => SimError::InvalidRate { rate },
            e => SimError::Traffic(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_wrap_sources() {
        let t: SimError = TopologyError::MixedBaselineKind.into();
        assert!(matches!(t, SimError::Topology(_)));
        assert!(t.source().is_some());
        let t: SimError = TrafficError::ZeroLengthPacket.into();
        assert!(matches!(t, SimError::Traffic(_)));
        let t: SimError = TrafficError::InvalidRate { rate: 0.0 }.into();
        assert!(matches!(t, SimError::InvalidRate { .. }));
    }

    #[test]
    fn display_messages() {
        assert!(SimError::InvalidRate { rate: -2.0 }
            .to_string()
            .contains("-2"));
        assert!(SimError::ZeroLengthPacket.to_string().contains("flit"));
        assert!(SimError::Topology(TopologyError::MixedBaselineKind)
            .to_string()
            .contains("topology"));
    }
}
