//! Error types of the simulation substrate.

use std::error::Error;
use std::fmt;

/// Error returned when a [`crate::spec::NetworkSpec`] is structurally
/// inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    message: String,
}

impl SpecError {
    /// Creates a new specification error with the given message.
    pub(crate) fn new(message: impl Into<String>) -> Self {
        SpecError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid network specification: {}", self.message)
    }
}

impl Error for SpecError {}

/// Why [`crate::network::Network::schedule_reprogram`] rejected a rate
/// programme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReprogramError {
    /// The policy has no frames, so there is no rollover to anchor the
    /// change to.
    NoFrames,
    /// The programme does not give exactly one rate per flow.
    FlowCount {
        /// Rates in the programme.
        supplied: usize,
        /// Flows in the network.
        flows: usize,
    },
    /// A rate that is zero, negative, NaN or infinite.
    NonPositiveRate {
        /// Offending flow index.
        flow: usize,
        /// The rejected rate.
        rate: f64,
    },
    /// The rates sum above 1 (beyond [`crate::qos::RATE_SUM_TOLERANCE`]):
    /// the programme promises more bandwidth than the link has.
    Oversubscribed {
        /// Sum of the rates.
        total: f64,
    },
}

impl fmt::Display for ReprogramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoFrames => write!(f, "the policy has no frame rollover to anchor it to"),
            Self::FlowCount { supplied, flows } => write!(f, "{supplied} rates for {flows} flows"),
            Self::NonPositiveRate { flow, rate } => write!(f, "flow {flow} has rate {rate}"),
            Self::Oversubscribed { total } => write!(f, "the rates sum to {total}, above 1"),
        }
    }
}

impl Error for ReprogramError {}

/// Error returned by the simulation driver.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The network specification failed validation.
    Spec(SpecError),
    /// A mid-run rate reprogramming was rejected.
    Reprogram(ReprogramError),
    /// A closed-loop simulation did not finish within the configured cycle
    /// budget (likely livelock or an unreachable destination).
    Timeout {
        /// Number of cycles simulated before giving up.
        cycles: u64,
        /// Number of packets still live in the network at timeout.
        live_packets: usize,
    },
    /// The progress watchdog tripped: no packet was generated, delivered,
    /// serviced or abandoned for the configured number of cycles while the
    /// workload was still incomplete — a deadlock, a livelock (e.g. an
    /// endless NACK/retry cycle against dead hardware), or a wedged
    /// scheduler. Unlike [`SimError::Timeout`] this fires on *stalled*
    /// runs, not merely slow ones.
    NoForwardProgress {
        /// Simulation time at which the watchdog gave up.
        cycles: u64,
        /// Cycles since the last observed forward progress.
        stalled_for: u64,
        /// Number of packets still live in the network.
        live_packets: usize,
    },
}

/// Crate-wide error alias: every fallible netsim entry point returns this
/// type (specification validation, fault-plan installation, the closed
/// drivers and the progress watchdog alike).
pub type NetsimError = SimError;

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Spec(e) => write!(f, "{e}"),
            SimError::Reprogram(e) => write!(f, "invalid rate reprogramming: {e}"),
            SimError::Timeout {
                cycles,
                live_packets,
            } => write!(
                f,
                "simulation did not complete within {cycles} cycles ({live_packets} packets still live)"
            ),
            SimError::NoForwardProgress {
                cycles,
                stalled_for,
                live_packets,
            } => write!(
                f,
                "no forward progress for {stalled_for} cycles at cycle {cycles} \
                 ({live_packets} packets still live)"
            ),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Spec(e) => Some(e),
            SimError::Reprogram(e) => Some(e),
            SimError::Timeout { .. } | SimError::NoForwardProgress { .. } => None,
        }
    }
}

impl From<SpecError> for SimError {
    fn from(e: SpecError) -> Self {
        SimError::Spec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_error_displays_message() {
        let e = SpecError::new("router 3 has no input ports");
        assert!(e.to_string().contains("router 3"));
        assert_eq!(e.message, "router 3 has no input ports");
    }

    #[test]
    fn sim_error_wraps_spec_error() {
        let e: SimError = SpecError::new("boom").into();
        assert!(e.to_string().contains("boom"));
        assert!(matches!(e, SimError::Spec(_)));
    }

    #[test]
    fn no_forward_progress_error_reports_counts() {
        let e = SimError::NoForwardProgress {
            cycles: 9000,
            stalled_for: 4000,
            live_packets: 7,
        };
        let msg = e.to_string();
        assert!(msg.contains("9000"));
        assert!(msg.contains("4000"));
        assert!(msg.contains('7'));
        assert!(msg.contains("no forward progress"));
    }

    #[test]
    fn timeout_error_reports_counts() {
        let e = SimError::Timeout {
            cycles: 1000,
            live_packets: 3,
        };
        let msg = e.to_string();
        assert!(msg.contains("1000"));
        assert!(msg.contains('3'));
    }
}
