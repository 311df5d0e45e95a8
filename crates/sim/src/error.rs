use std::fmt;

use crate::events::EventLogError;
use crate::ids::{ServerId, VmId};

/// Errors produced by the simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A topology must contain at least one server.
    EmptyTopology,
    /// A server index was out of range.
    UnknownServer(ServerId),
    /// A VM index was out of range.
    UnknownVm(VmId),
    /// Attempted to power off a server that still hosts VMs.
    ServerNotEmpty {
        /// The server that was asked to power down.
        server: ServerId,
        /// Number of VMs still placed on it.
        vms: usize,
    },
    /// Attempted to migrate a VM to (or keep it on) a powered-off server.
    ServerOff(ServerId),
    /// The simulation needs at least one VM/trace.
    NoWorkloads,
    /// Placement and trace list disagree on the number of VMs.
    PlacementSizeMismatch {
        /// VMs implied by the placement.
        placement: usize,
        /// Number of traces provided.
        traces: usize,
    },
    /// The per-server model list does not match the topology.
    ModelCountMismatch {
        /// Models provided.
        models: usize,
        /// Servers in the topology.
        servers: usize,
    },
    /// A checkpointed event log could not be decoded.
    EventLog(EventLogError),
    /// A checkpointed array does not have this simulation's length.
    SnapshotLength {
        /// The snapshot field.
        field: &'static str,
        /// Entries in the checkpoint.
        found: usize,
        /// Entries this simulation has.
        expected: usize,
    },
    /// A checkpointed entry names a server, VM or P-state this
    /// simulation does not have, or contradicts the placement.
    SnapshotEntry {
        /// The snapshot field.
        field: &'static str,
        /// Index of the offending entry within the field.
        index: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::EmptyTopology => write!(f, "topology has no servers"),
            SimError::UnknownServer(s) => write!(f, "unknown server {s}"),
            SimError::UnknownVm(v) => write!(f, "unknown VM {v}"),
            SimError::ServerNotEmpty { server, vms } => {
                write!(
                    f,
                    "cannot power off {server}: {vms} VM(s) still placed on it"
                )
            }
            SimError::ServerOff(s) => {
                write!(f, "cannot place or run a VM on powered-off server {s}")
            }
            SimError::NoWorkloads => write!(f, "simulation requires at least one workload trace"),
            SimError::PlacementSizeMismatch { placement, traces } => write!(
                f,
                "placement covers {placement} VMs but {traces} traces were provided"
            ),
            SimError::ModelCountMismatch { models, servers } => write!(
                f,
                "{models} server models provided for a topology of {servers} servers"
            ),
            SimError::EventLog(e) => write!(f, "malformed checkpoint event log: {e}"),
            SimError::SnapshotLength {
                field,
                found,
                expected,
            } => write!(
                f,
                "checkpoint field `{field}` has {found} entries, this simulation needs {expected}"
            ),
            SimError::SnapshotEntry { field, index } => write!(
                f,
                "checkpoint field `{field}` entry {index} does not fit this simulation"
            ),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_actor() {
        let e = SimError::ServerNotEmpty {
            server: ServerId(3),
            vms: 2,
        };
        assert!(e.to_string().contains("ServerId(3)"));
        assert!(e.to_string().contains("2 VM"));
    }
}
