//! Data-center topology: *racks* of blade *enclosures* plus *standalone*
//! servers — the paper's `M` matrix mapping servers to enclosures,
//! generalized so a Group Manager can federate many Enclosure Managers
//! across several racks.
//!
//! Membership is stored in CSR (compressed sparse row) form: one flat
//! `Vec<ServerId>` of enclosure members plus an offset table, and one
//! offset table partitioning the enclosure range into racks. Hot loops
//! that walk every enclosure each epoch read contiguous memory instead of
//! chasing a `Vec` allocation per enclosure.

use serde::{Deserialize, Serialize};

use crate::error::SimError;
use crate::ids::{EnclosureId, RackId, ServerId};
use crate::Result;

/// The physical organization of the simulated group.
///
/// Servers are numbered densely: enclosure blades first (enclosure 0's
/// blades, then enclosure 1's, …), followed by standalone servers.
/// Enclosures are likewise dense, partitioned into contiguous rack
/// ranges; a topology built without explicit racks has one rack holding
/// every enclosure (the paper's single-group deployments).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    /// `enclosure_offsets[e]..enclosure_offsets[e + 1]` is enclosure `e`'s
    /// slice of `enclosure_flat`; `len == num_enclosures + 1`.
    enclosure_offsets: Vec<usize>,
    /// Members of every enclosure, concatenated in enclosure order.
    enclosure_flat: Vec<ServerId>,
    /// Servers not in any enclosure (individually racked).
    standalone: Vec<ServerId>,
    /// For each server, its enclosure (if any).
    server_enclosure: Vec<Option<EnclosureId>>,
    /// `rack_offsets[r]..rack_offsets[r + 1]` is rack `r`'s range of
    /// enclosure indices; `len == num_racks + 1`.
    rack_offsets: Vec<usize>,
}

impl Topology {
    /// The paper's 180-server cluster: *"six 20-blade enclosures and sixty
    /// individual servers"* (§4.3).
    pub fn paper_180() -> Self {
        Self::builder().enclosures(6, 20).standalone(60).build()
    }

    /// The paper's 60-server cluster: *"two 20-blade enclosures and twenty
    /// individual servers"*.
    pub fn paper_60() -> Self {
        Self::builder().enclosures(2, 20).standalone(20).build()
    }

    /// A multi-rack data center: `racks` racks, each holding
    /// `enclosures_per_rack` enclosures of `blades` servers, plus
    /// `standalone` individually racked servers at the end.
    pub fn multi_rack(
        racks: usize,
        enclosures_per_rack: usize,
        blades: usize,
        standalone: usize,
    ) -> Self {
        Self::builder()
            .racks(racks, enclosures_per_rack, blades)
            .standalone(standalone)
            .build()
    }

    /// Starts building a custom topology.
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder::default()
    }

    /// Total number of servers in the group.
    pub fn num_servers(&self) -> usize {
        self.server_enclosure.len()
    }

    /// Number of blade enclosures.
    pub fn num_enclosures(&self) -> usize {
        self.enclosure_offsets.len() - 1
    }

    /// Number of racks (contiguous groups of enclosures). Zero when the
    /// topology has no enclosures at all.
    pub fn num_racks(&self) -> usize {
        self.rack_offsets.len() - 1
    }

    /// All servers, in dense id order.
    pub fn servers(&self) -> impl Iterator<Item = ServerId> + '_ {
        (0..self.num_servers()).map(ServerId)
    }

    /// The servers housed in enclosure `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn enclosure_servers(&self, e: EnclosureId) -> &[ServerId] {
        &self.enclosure_flat[self.enclosure_offsets[e.0]..self.enclosure_offsets[e.0 + 1]]
    }

    /// The enclosures housed in rack `r`, as a dense id range.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn rack_enclosures(&self, r: RackId) -> impl Iterator<Item = EnclosureId> {
        (self.rack_offsets[r.0]..self.rack_offsets[r.0 + 1]).map(EnclosureId)
    }

    /// The rack housing enclosure `e`, or `None` if `e` is out of range.
    pub fn rack_of(&self, e: EnclosureId) -> Option<RackId> {
        if e.0 >= self.num_enclosures() {
            return None;
        }
        // Offsets are sorted, so the owning rack is the partition point.
        let r = self.rack_offsets.partition_point(|&off| off <= e.0) - 1;
        Some(RackId(r))
    }

    /// Number of servers housed in rack `r` (across all its enclosures).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn rack_num_servers(&self, r: RackId) -> usize {
        let enc = self.rack_offsets[r.0]..self.rack_offsets[r.0 + 1];
        self.enclosure_offsets[enc.end] - self.enclosure_offsets[enc.start]
    }

    /// Standalone (non-enclosure) servers.
    pub fn standalone_servers(&self) -> &[ServerId] {
        &self.standalone
    }

    /// The contiguous server-id ranges that partition the fleet for
    /// sharded parallel execution, **weighted by server count**: cut
    /// points aim at the ideal `j·n/max_shards` positions and snap to
    /// the nearest legal boundary, so a lopsided fleet (one huge rack
    /// plus small ones) still spreads evenly across workers instead of
    /// idling all but the big rack's thread.
    ///
    /// Legal cut points are enclosure boundaries in the blade region
    /// (an enclosure is never split — its EM epoch must see all of its
    /// members in one shard) and any server boundary in the standalone
    /// tail. At most `max_shards` ranges are returned; fewer when the
    /// topology has fewer legal boundaries than requested.
    ///
    /// Ranges are disjoint, ascending, non-empty, and cover every
    /// server exactly once — concatenating them in order yields
    /// `0..num_servers()`, which is what makes shard-order reductions
    /// equivalent to a sequential server-order walk. The partition is
    /// a pure load-balancing choice: results are bit-identical for any
    /// `max_shards`.
    pub fn shard_ranges(&self, max_shards: usize) -> Vec<std::ops::Range<usize>> {
        let n = self.num_servers();
        let k = max_shards.max(1);
        let flat = self.enclosure_flat.len();
        // Legal cut positions, strictly inside 0..n, ascending: every
        // enclosure boundary (the last one is `flat`, the blade/
        // standalone frontier), then every standalone server boundary.
        let mut valid: Vec<usize> = self.enclosure_offsets[1..].to_vec();
        valid.extend(flat + 1..n);
        valid.retain(|&c| c > 0 && c < n);
        valid.dedup(); // zero-blade enclosures repeat an offset
        let mut shards = Vec::with_capacity(k);
        let mut start = 0usize;
        for j in 1..k {
            // Nearest legal cut to the ideal j/k position that still
            // leaves this shard non-empty (ties break low).
            let ideal = (n * j + k / 2) / k;
            let open = valid.partition_point(|&c| c <= start);
            let cands = &valid[open..];
            if cands.is_empty() {
                break;
            }
            let at = cands.partition_point(|&c| c < ideal);
            let cut = if at == 0 {
                cands[0]
            } else if at == cands.len() || ideal - cands[at - 1] <= cands[at] - ideal {
                cands[at - 1]
            } else {
                cands[at]
            };
            if cut <= start {
                continue;
            }
            shards.push(start..cut);
            start = cut;
        }
        shards.push(start..n);
        shards
    }

    /// The enclosures each shard of `shards` owns, as one dense enclosure
    /// range per shard. An enclosure belongs to the shard whose server
    /// range holds its first member slot (`enclosure e` starts at slot
    /// `enclosure_offsets[e]`), so an empty enclosure belongs to the shard
    /// at its offset — the last shard when that offset is the end of the
    /// fleet. With `shards` from [`Topology::shard_ranges`] (cut on
    /// enclosure boundaries) every member of an owned enclosure lies in
    /// its owner's server range. Computed once per run, not per tick.
    pub fn shard_enclosures(
        &self,
        shards: &[std::ops::Range<usize>],
    ) -> Vec<std::ops::Range<usize>> {
        let starts = &self.enclosure_offsets[..self.num_enclosures()];
        let mut lo = 0;
        (0..shards.len())
            .map(|k| {
                let hi = match shards.get(k + 1) {
                    Some(next) => starts.partition_point(|&o| o < next.start),
                    None => starts.len(),
                };
                let owned = lo..hi;
                lo = hi;
                owned
            })
            .collect()
    }

    /// Checks the layout the builder produces and the simulator and
    /// runner rely on: enclosure `e`'s members are the ascending server
    /// block `enclosure_offsets[e]..enclosure_offsets[e + 1]`, the
    /// standalone servers follow as one dense tail, the reverse map
    /// agrees, and the racks partition the enclosures in order. A
    /// topology deserialized from a config is checked here before use.
    pub fn validate(&self) -> Result<()> {
        let bad = |reason| Err(SimError::MalformedTopology(reason));
        let offsets = &self.enclosure_offsets;
        if offsets.first() != Some(&0)
            || offsets.windows(2).any(|w| w[0] > w[1])
            || offsets.last() != Some(&self.enclosure_flat.len())
        {
            return bad("enclosure offsets do not partition the member list");
        }
        if self
            .enclosure_flat
            .iter()
            .enumerate()
            .any(|(k, s)| s.0 != k)
        {
            return bad("enclosure members are not one ascending block of server ids");
        }
        let flat = self.enclosure_flat.len();
        if self
            .standalone
            .iter()
            .enumerate()
            .any(|(k, s)| s.0 != flat + k)
        {
            return bad("standalone servers are not a dense tail after the enclosures");
        }
        if self.server_enclosure.len() != flat + self.standalone.len()
            || (0..self.num_enclosures()).any(|e| {
                self.server_enclosure[offsets[e]..offsets[e + 1]]
                    .iter()
                    .any(|&owner| owner != Some(EnclosureId(e)))
            })
            || self.server_enclosure[flat..].iter().any(Option::is_some)
        {
            return bad("server-to-enclosure map disagrees with the membership");
        }
        let racks = &self.rack_offsets;
        if racks.first() != Some(&0)
            || racks.windows(2).any(|w| w[0] >= w[1])
            || racks.last() != Some(&self.num_enclosures())
        {
            return bad("rack offsets do not partition the enclosures");
        }
        Ok(())
    }

    /// The enclosure housing `s`, or `None` for standalone servers.
    pub fn enclosure_of(&self, s: ServerId) -> Option<EnclosureId> {
        self.server_enclosure.get(s.0).copied().flatten()
    }

    /// Validates a server id against this topology.
    pub fn check_server(&self, s: ServerId) -> Result<()> {
        if s.0 < self.num_servers() {
            Ok(())
        } else {
            Err(SimError::UnknownServer(s))
        }
    }
}

/// Builder for [`Topology`]. Enclosures added first get the low server
/// ids; standalone servers are appended last.
///
/// Enclosures added through [`TopologyBuilder::rack`] /
/// [`TopologyBuilder::racks`] form explicit racks; enclosures added
/// loosely (via [`TopologyBuilder::enclosure`] or
/// [`TopologyBuilder::enclosures`]) coalesce into a single implicit rack
/// per run of consecutive loose additions — so the paper's single-group
/// builders keep exactly one rack.
#[derive(Debug, Default, Clone)]
pub struct TopologyBuilder {
    enclosure_sizes: Vec<usize>,
    /// `(enclosure_count, explicit)` spans partitioning `enclosure_sizes`.
    rack_spans: Vec<(usize, bool)>,
    standalone: usize,
}

impl TopologyBuilder {
    fn push_loose(&mut self, count: usize) {
        match self.rack_spans.last_mut() {
            Some((n, false)) => *n += count,
            _ => self.rack_spans.push((count, false)),
        }
    }

    /// Adds `count` enclosures of `blades` servers each.
    pub fn enclosures(mut self, count: usize, blades: usize) -> Self {
        let len = self.enclosure_sizes.len() + count;
        self.enclosure_sizes.resize(len, blades);
        self.push_loose(count);
        self
    }

    /// Adds one enclosure with `blades` servers.
    pub fn enclosure(mut self, blades: usize) -> Self {
        self.enclosure_sizes.push(blades);
        self.push_loose(1);
        self
    }

    /// Adds one rack of `enclosures` enclosures with `blades` servers each.
    pub fn rack(mut self, enclosures: usize, blades: usize) -> Self {
        let len = self.enclosure_sizes.len() + enclosures;
        self.enclosure_sizes.resize(len, blades);
        self.rack_spans.push((enclosures, true));
        self
    }

    /// Adds `count` identical racks, each of `enclosures` enclosures with
    /// `blades` servers.
    pub fn racks(mut self, count: usize, enclosures: usize, blades: usize) -> Self {
        for _ in 0..count {
            self = self.rack(enclosures, blades);
        }
        self
    }

    /// Adds `count` standalone servers.
    pub fn standalone(mut self, count: usize) -> Self {
        self.standalone += count;
        self
    }

    /// Builds the topology.
    ///
    /// # Panics
    ///
    /// Panics if the topology would contain zero servers; use
    /// [`TopologyBuilder::try_build`] to handle that case as an error.
    pub fn build(self) -> Topology {
        self.try_build().expect("topology must contain servers")
    }

    /// Builds the topology, returning an error for an empty one.
    pub fn try_build(self) -> Result<Topology> {
        let total: usize = self.enclosure_sizes.iter().sum::<usize>() + self.standalone;
        if total == 0 {
            return Err(SimError::EmptyTopology);
        }
        let num_enclosures = self.enclosure_sizes.len();
        let flat_len: usize = self.enclosure_sizes.iter().sum();
        let mut enclosure_offsets = Vec::with_capacity(num_enclosures + 1);
        let mut enclosure_flat = Vec::with_capacity(flat_len);
        let mut server_enclosure = Vec::with_capacity(total);
        enclosure_offsets.push(0);
        let mut next = 0usize;
        for (e, &size) in self.enclosure_sizes.iter().enumerate() {
            enclosure_flat.extend((next..next + size).map(ServerId));
            server_enclosure.resize(server_enclosure.len() + size, Some(EnclosureId(e)));
            next += size;
            enclosure_offsets.push(enclosure_flat.len());
        }
        let standalone: Vec<ServerId> = (next..next + self.standalone).map(ServerId).collect();
        server_enclosure.resize(total, None);
        // Empty spans can arise from `rack(0, _)` / `enclosures(0, _)`;
        // drop them so every rack is non-empty.
        let mut rack_offsets = Vec::with_capacity(self.rack_spans.len() + 1);
        rack_offsets.push(0);
        let mut enc_cursor = 0usize;
        for &(count, _) in &self.rack_spans {
            if count == 0 {
                continue;
            }
            enc_cursor += count;
            rack_offsets.push(enc_cursor);
        }
        debug_assert_eq!(enc_cursor, num_enclosures);
        Ok(Topology {
            enclosure_offsets,
            enclosure_flat,
            standalone,
            server_enclosure,
            rack_offsets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_180_shape() {
        let t = Topology::paper_180();
        assert_eq!(t.num_servers(), 180);
        assert_eq!(t.num_enclosures(), 6);
        assert_eq!(t.standalone_servers().len(), 60);
        assert_eq!(t.enclosure_servers(EnclosureId(0)).len(), 20);
        // Loose enclosures coalesce into a single implicit rack.
        assert_eq!(t.num_racks(), 1);
        assert_eq!(t.rack_num_servers(RackId(0)), 120);
    }

    #[test]
    fn paper_60_shape() {
        let t = Topology::paper_60();
        assert_eq!(t.num_servers(), 60);
        assert_eq!(t.num_enclosures(), 2);
        assert_eq!(t.standalone_servers().len(), 20);
        assert_eq!(t.num_racks(), 1);
    }

    #[test]
    fn server_ids_are_dense_and_enclosures_first() {
        let t = Topology::builder()
            .enclosure(2)
            .enclosure(3)
            .standalone(1)
            .build();
        assert_eq!(t.num_servers(), 6);
        assert_eq!(t.enclosure_of(ServerId(0)), Some(EnclosureId(0)));
        assert_eq!(t.enclosure_of(ServerId(1)), Some(EnclosureId(0)));
        assert_eq!(t.enclosure_of(ServerId(2)), Some(EnclosureId(1)));
        assert_eq!(t.enclosure_of(ServerId(4)), Some(EnclosureId(1)));
        assert_eq!(t.enclosure_of(ServerId(5)), None);
        assert_eq!(t.standalone_servers(), &[ServerId(5)]);
    }

    #[test]
    fn membership_lists_match_reverse_map() {
        let t = Topology::paper_180();
        for e in 0..t.num_enclosures() {
            for &s in t.enclosure_servers(EnclosureId(e)) {
                assert_eq!(t.enclosure_of(s), Some(EnclosureId(e)));
            }
        }
        for &s in t.standalone_servers() {
            assert_eq!(t.enclosure_of(s), None);
        }
    }

    #[test]
    fn multi_rack_partitions_enclosures() {
        let t = Topology::multi_rack(4, 3, 8, 16);
        assert_eq!(t.num_servers(), 4 * 3 * 8 + 16);
        assert_eq!(t.num_enclosures(), 12);
        assert_eq!(t.num_racks(), 4);
        for r in 0..4 {
            let encs: Vec<EnclosureId> = t.rack_enclosures(RackId(r)).collect();
            assert_eq!(encs.len(), 3);
            assert_eq!(encs[0], EnclosureId(r * 3));
            for &e in &encs {
                assert_eq!(t.rack_of(e), Some(RackId(r)));
            }
            assert_eq!(t.rack_num_servers(RackId(r)), 24);
        }
        assert_eq!(t.rack_of(EnclosureId(12)), None);
    }

    #[test]
    fn mixed_racks_and_loose_enclosures() {
        let t = Topology::builder()
            .rack(2, 4)
            .enclosure(6)
            .enclosure(6)
            .rack(1, 4)
            .build();
        // rack 0 = explicit (2 encs), rack 1 = the two loose enclosures,
        // rack 2 = explicit (1 enc).
        assert_eq!(t.num_enclosures(), 5);
        assert_eq!(t.num_racks(), 3);
        assert_eq!(t.rack_of(EnclosureId(1)), Some(RackId(0)));
        assert_eq!(t.rack_of(EnclosureId(2)), Some(RackId(1)));
        assert_eq!(t.rack_of(EnclosureId(3)), Some(RackId(1)));
        assert_eq!(t.rack_of(EnclosureId(4)), Some(RackId(2)));
        assert_eq!(t.rack_num_servers(RackId(1)), 12);
    }

    #[test]
    fn shard_ranges_partition_every_server_in_order() {
        let cases = [
            Topology::paper_180(),
            Topology::paper_60(),
            Topology::multi_rack(4, 3, 8, 16),
            Topology::builder().standalone(5).build(),
            Topology::builder().racks(2, 2, 4).build(),
        ];
        for t in cases {
            for k in [1, 2, 3, 4, 7, 64] {
                let shards = t.shard_ranges(k);
                assert!(shards.len() <= k.max(1));
                let mut covered = 0usize;
                for r in &shards {
                    assert!(!r.is_empty());
                    assert_eq!(r.start, covered, "shards must be ascending and dense");
                    covered = r.end;
                    // Blade-region cuts never split an enclosure.
                    for boundary in [r.start, r.end] {
                        if boundary < t.enclosure_flat.len() {
                            assert!(
                                t.enclosure_offsets.contains(&boundary),
                                "cut at {boundary} splits an enclosure (k={k})"
                            );
                        }
                    }
                }
                assert_eq!(covered, t.num_servers());
            }
        }
        // Asking for one shard returns the whole fleet.
        assert_eq!(Topology::paper_180().shard_ranges(1), vec![0..180]);
        // Two shards of the 180-cluster split near the middle, snapped
        // to an enclosure boundary (ties break low: 80, not 100).
        assert_eq!(Topology::paper_180().shard_ranges(2), vec![0..80, 80..180]);
        // Standalone-only fleets can cut anywhere.
        assert_eq!(
            Topology::builder().standalone(6).build().shard_ranges(3),
            vec![0..2, 2..4, 4..6]
        );
    }

    #[test]
    fn shard_ranges_balance_lopsided_topologies_by_server_count() {
        // One 4x rack (4 enclosures of 32) plus four small racks
        // (1 enclosure of 8 each) and a few standalone servers: a naive
        // per-rack split would put 128 of 166 servers on one worker.
        let t = Topology::builder()
            .rack(4, 32)
            .racks(4, 1, 8)
            .standalone(6)
            .build();
        assert_eq!(t.num_servers(), 166);
        let shards = t.shard_ranges(4);
        assert_eq!(shards.len(), 4);
        let sizes: Vec<usize> = shards.iter().map(|r| r.len()).collect();
        // Ideal is 41.5 per shard; enclosure granularity (32s and 8s)
        // caps the achievable balance, but no shard may hog the fleet.
        let max = *sizes.iter().max().unwrap();
        assert!(max <= 64, "largest shard {max} of {sizes:?} is unbalanced");
        // Every blade-region cut is an enclosure boundary.
        for r in &shards {
            if r.end < t.enclosure_flat.len() {
                assert!(t.enclosure_offsets.contains(&r.end));
            }
        }
        // More shards than legal boundaries degrades gracefully.
        let fine = t.shard_ranges(1000);
        assert_eq!(fine.iter().map(|r| r.len()).sum::<usize>(), 166);
        // 8 enclosures + 6 standalone servers = 14 indivisible units.
        assert_eq!(fine.len(), 14);
    }

    #[test]
    fn shard_enclosures_give_empty_enclosures_to_the_shard_at_their_offset() {
        // Enclosures: 0 and 1 (16 blades each), 2 empty at slot 32,
        // 3..7 (8 blades each), then 3 standalone servers.
        let t = Topology::builder()
            .rack(2, 16)
            .enclosure(0)
            .racks(2, 2, 8)
            .standalone(3)
            .build();
        let whole = t.shard_enclosures(&t.shard_ranges(1));
        assert_eq!((whole.len(), whole[0].clone()), (1, 0..7));
        assert_eq!(t.shard_enclosures(&[0..32, 32..67]), vec![0..2, 2..7]);
        assert_eq!(
            t.shard_enclosures(&[0..16, 16..48, 48..64, 64..67]),
            vec![0..1, 1..5, 5..7, 7..7]
        );
        // An empty enclosure at the very end of the fleet goes to the last shard.
        let t = Topology::builder().enclosures(2, 2).enclosure(0).build();
        assert_eq!(t.shard_enclosures(&[0..2, 2..4]), vec![0..1, 1..3]);
        for t in [Topology::paper_180(), Topology::multi_rack(4, 3, 8, 16)] {
            for k in [1, 2, 3, 7, 64] {
                let shards = t.shard_ranges(k);
                let encs = t.shard_enclosures(&shards);
                assert_eq!(encs.len(), shards.len());
                assert_eq!(encs.last().unwrap().end, t.num_enclosures());
                for (r, owned) in shards.iter().zip(&encs) {
                    for e in owned.clone() {
                        for s in t.enclosure_servers(EnclosureId(e)) {
                            assert!(r.contains(&s.index()), "enclosure {e} leaves shard {r:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn validate_accepts_built_topologies_and_rejects_reordered_members() {
        for t in [
            Topology::paper_180(),
            Topology::multi_rack(2, 2, 4, 4),
            Topology::builder().standalone(3).build(),
            Topology::builder()
                .rack(2, 16)
                .enclosure(0)
                .standalone(1)
                .build(),
        ] {
            assert_eq!(t.validate(), Ok(()));
        }
        let good = Topology::builder().racks(2, 2, 8).standalone(2).build();
        let mut swapped = good.clone();
        swapped.enclosure_flat.swap(0, 8);
        assert!(matches!(
            swapped.validate(),
            Err(SimError::MalformedTopology(_))
        ));
        let mut sparse_tail = good.clone();
        sparse_tail.standalone[1] = ServerId(40);
        assert!(matches!(
            sparse_tail.validate(),
            Err(SimError::MalformedTopology(_))
        ));
        let mut short_offsets = good;
        short_offsets.enclosure_offsets.pop();
        assert!(matches!(
            short_offsets.validate(),
            Err(SimError::MalformedTopology(_))
        ));
    }

    #[test]
    fn standalone_only_topology_has_no_racks() {
        let t = Topology::builder().standalone(3).build();
        assert_eq!(t.num_enclosures(), 0);
        assert_eq!(t.num_racks(), 0);
    }

    #[test]
    fn empty_topology_rejected() {
        assert!(matches!(
            Topology::builder().try_build(),
            Err(SimError::EmptyTopology)
        ));
    }

    #[test]
    fn zero_size_rack_spans_are_dropped() {
        let t = Topology::builder()
            .racks(2, 2, 4)
            .rack(0, 4)
            .enclosures(0, 9)
            .standalone(1)
            .build();
        assert_eq!(t.num_racks(), 2);
        assert_eq!(t.num_enclosures(), 4);
    }

    #[test]
    fn check_server_validates_range() {
        let t = Topology::paper_60();
        assert!(t.check_server(ServerId(59)).is_ok());
        assert!(t.check_server(ServerId(60)).is_err());
    }

    #[test]
    fn out_of_range_enclosure_lookup_is_none() {
        let t = Topology::paper_60();
        assert_eq!(t.enclosure_of(ServerId(999)), None);
    }

    #[test]
    fn serde_roundtrip_preserves_structure() {
        let t = Topology::multi_rack(2, 2, 4, 4);
        let json = serde_json::to_string(&t).unwrap();
        let back: Topology = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
