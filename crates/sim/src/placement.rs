//! VM-to-server placement — the paper's `X` matrix (`X_ij = 1` iff VM `j`
//! runs on server `i`), stored densely as one host per VM, since each VM
//! is placed on exactly one server (paper Figure 6, constraint (6)).

use serde::{Deserialize, Serialize};

use crate::ids::{ServerId, VmId};

/// A complete assignment of every VM to exactly one server.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    host: Vec<ServerId>,
}

/// One VM move produced by diffing two placements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Migration {
    /// The VM being moved.
    pub vm: VmId,
    /// Where it currently runs.
    pub from: ServerId,
    /// Where it should run next.
    pub to: ServerId,
}

impl Placement {
    /// One VM per server in id order, wrapping round-robin if there are
    /// more VMs than servers — the paper's initial deployment (180
    /// workloads on 180 servers).
    pub fn one_per_server(num_vms: usize, num_servers: usize) -> Self {
        assert!(num_servers > 0, "placement needs at least one server");
        Self {
            host: (0..num_vms).map(|j| ServerId(j % num_servers)).collect(),
        }
    }

    /// Builds a placement from an explicit host list (`host[j]` = server of
    /// VM `j`).
    pub fn from_hosts(host: Vec<ServerId>) -> Self {
        Self { host }
    }

    /// Number of VMs covered.
    pub fn num_vms(&self) -> usize {
        self.host.len()
    }

    /// The server hosting `vm`.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is out of range.
    #[inline]
    pub fn host_of(&self, vm: VmId) -> ServerId {
        self.host[vm.0]
    }

    /// Reassigns `vm` to `server`.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is out of range.
    pub fn assign(&mut self, vm: VmId, server: ServerId) {
        self.host[vm.0] = server;
    }

    /// Iterates `(vm, host)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VmId, ServerId)> + '_ {
        self.host.iter().enumerate().map(|(j, &s)| (VmId(j), s))
    }

    /// The VMs currently placed on `server`. O(num_vms); the engine keeps
    /// faster per-server lists for the hot path.
    pub fn vms_on(&self, server: ServerId) -> Vec<VmId> {
        self.iter()
            .filter(|&(_, s)| s == server)
            .map(|(v, _)| v)
            .collect()
    }

    /// The set of servers hosting at least one VM, deduplicated.
    pub fn used_servers(&self) -> Vec<ServerId> {
        let mut used: Vec<ServerId> = self.host.clone();
        used.sort();
        used.dedup();
        used
    }

    /// The migrations needed to transform `self` into `target`
    /// (VMs whose host differs). Placements must cover the same VMs.
    ///
    /// # Panics
    ///
    /// Panics if the two placements have different sizes.
    pub fn diff(&self, target: &Placement) -> Vec<Migration> {
        assert_eq!(
            self.host.len(),
            target.host.len(),
            "placements must cover the same VMs"
        );
        self.iter()
            .zip(target.iter())
            .filter(|((_, a), (_, b))| a != b)
            .map(|((vm, from), (_, to))| Migration { vm, from, to })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_per_server_is_identity_when_equal() {
        let p = Placement::one_per_server(4, 4);
        for j in 0..4 {
            assert_eq!(p.host_of(VmId(j)), ServerId(j));
        }
    }

    #[test]
    fn one_per_server_wraps_round_robin() {
        let p = Placement::one_per_server(5, 3);
        assert_eq!(p.host_of(VmId(3)), ServerId(0));
        assert_eq!(p.host_of(VmId(4)), ServerId(1));
    }

    #[test]
    fn vms_on_lists_residents() {
        let p = Placement::one_per_server(5, 3);
        assert_eq!(p.vms_on(ServerId(0)), vec![VmId(0), VmId(3)]);
        assert_eq!(p.vms_on(ServerId(2)), vec![VmId(2)]);
    }

    #[test]
    fn used_servers_deduplicates() {
        let p = Placement::from_hosts(vec![ServerId(2), ServerId(0), ServerId(2)]);
        assert_eq!(p.used_servers(), vec![ServerId(0), ServerId(2)]);
    }

    #[test]
    fn diff_lists_only_moves() {
        let a = Placement::from_hosts(vec![ServerId(0), ServerId(1), ServerId(2)]);
        let b = Placement::from_hosts(vec![ServerId(0), ServerId(2), ServerId(2)]);
        let moves = a.diff(&b);
        assert_eq!(
            moves,
            vec![Migration {
                vm: VmId(1),
                from: ServerId(1),
                to: ServerId(2)
            }]
        );
    }

    #[test]
    fn applying_diff_reaches_target() {
        let a = Placement::from_hosts(vec![ServerId(0), ServerId(1), ServerId(0), ServerId(3)]);
        let b = Placement::from_hosts(vec![ServerId(1), ServerId(1), ServerId(3), ServerId(3)]);
        let mut cur = a.clone();
        for m in a.diff(&b) {
            assert_eq!(cur.host_of(m.vm), m.from);
            cur.assign(m.vm, m.to);
        }
        assert_eq!(cur, b);
    }

    #[test]
    #[should_panic(expected = "same VMs")]
    fn diff_rejects_size_mismatch() {
        let a = Placement::one_per_server(2, 2);
        let b = Placement::one_per_server(3, 3);
        let _ = a.diff(&b);
    }
}
