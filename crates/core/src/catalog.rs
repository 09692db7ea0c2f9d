//! HEAVEN's tertiary-storage catalog: where every super-tile lives.
//!
//! Maps super-tiles to block addresses on media and member tiles to their
//! super-tiles. This is the metadata HEAVEN adds on top of the DBMS
//! catalogs so that queries can be routed across the storage hierarchy.

use crate::error::{HeavenError, Result};
use crate::supertile::{SuperTileId, SuperTileMeta};
use heaven_array::{Minterval, ObjectId, TileId};
use heaven_hsm::BlockAddress;
use heaven_tape::MediumId;
use std::collections::HashMap;

/// Catalog of exported super-tiles.
#[derive(Debug, Default)]
pub struct SuperTileCatalog {
    supertiles: HashMap<SuperTileId, (SuperTileMeta, BlockAddress)>,
    tile_to_st: HashMap<TileId, SuperTileId>,
    by_object: HashMap<ObjectId, Vec<SuperTileId>>,
    /// Second archive copy per super-tile (dual-copy archival).
    replicas: HashMap<SuperTileId, BlockAddress>,
    /// FNV-1a checksum of the wire payload, verified on every fetch.
    checksums: HashMap<SuperTileId, u64>,
    next_id: SuperTileId,
}

impl SuperTileCatalog {
    /// Empty catalog.
    pub fn new() -> SuperTileCatalog {
        SuperTileCatalog {
            next_id: 1,
            ..Default::default()
        }
    }

    /// Reserve a fresh super-tile id.
    pub fn next_id(&mut self) -> SuperTileId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Ensure future ids are greater than `min` (after a catalog reload).
    pub fn bump_next_id(&mut self, min: SuperTileId) {
        if self.next_id <= min {
            self.next_id = min + 1;
        }
    }

    /// Register an exported super-tile.
    pub fn register(&mut self, meta: SuperTileMeta, addr: BlockAddress) {
        for m in &meta.members {
            self.tile_to_st.insert(m.tile, meta.id);
        }
        self.by_object.entry(meta.object).or_default().push(meta.id);
        self.supertiles.insert(meta.id, (meta, addr));
    }

    /// The super-tile containing a tile.
    pub fn supertile_of(&self, tile: TileId) -> Result<SuperTileId> {
        self.tile_to_st
            .get(&tile)
            .copied()
            .ok_or(HeavenError::TileUnlocated(tile))
    }

    /// Metadata of a super-tile.
    pub fn meta(&self, st: SuperTileId) -> Result<&SuperTileMeta> {
        self.supertiles
            .get(&st)
            .map(|(m, _)| m)
            .ok_or(HeavenError::NoSuchSuperTile(st))
    }

    /// Block address of a super-tile.
    pub fn address(&self, st: SuperTileId) -> Result<BlockAddress> {
        self.supertiles
            .get(&st)
            .map(|&(_, a)| a)
            .ok_or(HeavenError::NoSuchSuperTile(st))
    }

    /// Record the second archive copy of a super-tile.
    pub fn register_replica(&mut self, st: SuperTileId, addr: BlockAddress) {
        self.replicas.insert(st, addr);
    }

    /// The second archive copy of a super-tile, if dual-copy archival
    /// wrote one.
    pub fn replica(&self, st: SuperTileId) -> Option<BlockAddress> {
        self.replicas.get(&st).copied()
    }

    /// Record the wire-payload checksum of a super-tile.
    pub fn set_checksum(&mut self, st: SuperTileId, sum: u64) {
        self.checksums.insert(st, sum);
    }

    /// The wire-payload checksum of a super-tile, if recorded.
    pub fn checksum(&self, st: SuperTileId) -> Option<u64> {
        self.checksums.get(&st).copied()
    }

    /// Replace the address of a super-tile (after rewrite/compaction).
    pub fn relocate(&mut self, st: SuperTileId, addr: BlockAddress) -> Result<()> {
        match self.supertiles.get_mut(&st) {
            Some(e) => {
                e.1 = addr;
                Ok(())
            }
            None => Err(HeavenError::NoSuchSuperTile(st)),
        }
    }

    /// Super-tiles of an object, in export (cluster) order.
    pub fn object_supertiles(&self, oid: ObjectId) -> Vec<SuperTileId> {
        self.by_object.get(&oid).cloned().unwrap_or_default()
    }

    /// Whether an object has any exported super-tiles.
    pub fn is_exported(&self, oid: ObjectId) -> bool {
        self.by_object
            .get(&oid)
            .map(|v| !v.is_empty())
            .unwrap_or(false)
    }

    /// Super-tiles of an object touching `region`.
    pub fn supertiles_touching(&self, oid: ObjectId, region: &Minterval) -> Vec<SuperTileId> {
        self.object_supertiles(oid)
            .into_iter()
            .filter(|st| {
                self.supertiles
                    .get(st)
                    .map(|(m, _)| m.touches(region))
                    .unwrap_or(false)
            })
            .collect()
    }

    /// Drop all catalog entries of an object; returns the freed addresses
    /// (dead space on media until reclaimed).
    pub fn remove_object(&mut self, oid: ObjectId) -> Vec<BlockAddress> {
        let sts = self.by_object.remove(&oid).unwrap_or_default();
        let mut freed = Vec::with_capacity(sts.len());
        for st in sts {
            if let Some((meta, addr)) = self.supertiles.remove(&st) {
                for m in &meta.members {
                    self.tile_to_st.remove(&m.tile);
                }
                freed.push(addr);
            }
            if let Some(r) = self.replicas.remove(&st) {
                freed.push(r);
            }
            self.checksums.remove(&st);
        }
        freed
    }

    /// Remove a single super-tile (e.g. replaced by an updated version);
    /// returns its old address.
    pub fn remove_supertile(&mut self, st: SuperTileId) -> Result<BlockAddress> {
        let (meta, addr) = self
            .supertiles
            .remove(&st)
            .ok_or(HeavenError::NoSuchSuperTile(st))?;
        for m in &meta.members {
            self.tile_to_st.remove(&m.tile);
        }
        if let Some(v) = self.by_object.get_mut(&meta.object) {
            v.retain(|&s| s != st);
        }
        self.replicas.remove(&st);
        self.checksums.remove(&st);
        Ok(addr)
    }

    /// Number of registered super-tiles.
    pub fn len(&self) -> usize {
        self.supertiles.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.supertiles.is_empty()
    }

    /// Every archive copy on a medium — primaries and dual-copy replicas
    /// — as `(super-tile, address, is_replica)`, in tape order (for
    /// compaction).
    pub fn copies_on(&self, medium: MediumId) -> Vec<(SuperTileId, BlockAddress, bool)> {
        let primaries = self.supertiles.iter().map(|(&id, &(_, a))| (id, a, false));
        let replicas = self.replicas.iter().map(|(&id, &a)| (id, a, true));
        let mut v: Vec<_> = primaries
            .chain(replicas)
            .filter(|&(_, a, _)| a.medium == medium)
            .collect();
        v.sort_by_key(|&(_, a, _)| a.offset);
        v
    }

    /// Bytes of the live archive copies (primaries and replicas) on a
    /// medium.
    pub fn live_bytes_on(&self, medium: MediumId) -> u64 {
        self.copies_on(medium).iter().map(|&(_, a, _)| a.len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supertile::MemberEntry;

    fn mi(b: &[(i64, i64)]) -> Minterval {
        Minterval::new(b).unwrap()
    }

    fn meta(id: SuperTileId, oid: ObjectId, tiles: &[(TileId, Minterval)]) -> SuperTileMeta {
        let mut off = 0;
        let members = tiles
            .iter()
            .map(|(t, d)| {
                let e = MemberEntry {
                    tile: *t,
                    domain: d.clone(),
                    offset: off,
                    len: 100,
                };
                off += 100;
                e
            })
            .collect();
        SuperTileMeta {
            id,
            object: oid,
            members,
            total_len: off,
        }
    }

    fn addr(medium: u64, offset: u64) -> BlockAddress {
        BlockAddress {
            medium,
            offset,
            len: 200,
        }
    }

    #[test]
    fn register_and_lookup() {
        let mut c = SuperTileCatalog::new();
        let id = c.next_id();
        c.register(
            meta(id, 7, &[(1, mi(&[(0, 9)])), (2, mi(&[(10, 19)]))]),
            addr(0, 0),
        );
        assert_eq!(c.supertile_of(1).unwrap(), id);
        assert_eq!(c.supertile_of(2).unwrap(), id);
        assert!(c.supertile_of(3).is_err());
        assert_eq!(c.address(id).unwrap(), addr(0, 0));
        assert_eq!(c.object_supertiles(7), vec![id]);
        assert!(c.is_exported(7));
        assert!(!c.is_exported(8));
    }

    #[test]
    fn touching_filters_by_member_domains() {
        let mut c = SuperTileCatalog::new();
        let a = c.next_id();
        let b = c.next_id();
        c.register(meta(a, 7, &[(1, mi(&[(0, 9)]))]), addr(0, 0));
        c.register(meta(b, 7, &[(2, mi(&[(50, 59)]))]), addr(0, 200));
        assert_eq!(c.supertiles_touching(7, &mi(&[(5, 6)])), vec![a]);
        assert_eq!(c.supertiles_touching(7, &mi(&[(0, 59)])), vec![a, b]);
        assert!(c.supertiles_touching(7, &mi(&[(100, 110)])).is_empty());
    }

    #[test]
    fn remove_object_frees_addresses() {
        let mut c = SuperTileCatalog::new();
        let a = c.next_id();
        c.register(meta(a, 7, &[(1, mi(&[(0, 9)]))]), addr(3, 500));
        let freed = c.remove_object(7);
        assert_eq!(freed, vec![addr(3, 500)]);
        assert!(c.is_empty());
        assert!(c.supertile_of(1).is_err());
    }

    #[test]
    fn remove_single_supertile() {
        let mut c = SuperTileCatalog::new();
        let a = c.next_id();
        let b = c.next_id();
        c.register(meta(a, 7, &[(1, mi(&[(0, 9)]))]), addr(0, 0));
        c.register(meta(b, 7, &[(2, mi(&[(10, 19)]))]), addr(0, 200));
        let old = c.remove_supertile(a).unwrap();
        assert_eq!(old, addr(0, 0));
        assert_eq!(c.object_supertiles(7), vec![b]);
        assert!(c.remove_supertile(a).is_err());
    }

    #[test]
    fn copies_on_lists_primaries_and_replicas_by_offset() {
        let mut c = SuperTileCatalog::new();
        let a = c.next_id();
        let b = c.next_id();
        let x = c.next_id();
        c.register(meta(a, 1, &[(1, mi(&[(0, 9)]))]), addr(0, 900));
        c.register(meta(b, 2, &[(2, mi(&[(0, 9)]))]), addr(0, 100));
        c.register(meta(x, 3, &[(3, mi(&[(0, 9)]))]), addr(1, 0));
        c.register_replica(x, addr(0, 500));
        let on0 = c.copies_on(0);
        assert_eq!(
            on0.iter().map(|&(id, _, r)| (id, r)).collect::<Vec<_>>(),
            vec![(b, false), (x, true), (a, false)]
        );
        assert_eq!(c.live_bytes_on(0), 600);
        assert_eq!(c.live_bytes_on(1), 200);
    }

    #[test]
    fn replica_and_checksum_follow_supertile_lifecycle() {
        let mut c = SuperTileCatalog::new();
        let a = c.next_id();
        c.register(meta(a, 1, &[(1, mi(&[(0, 9)]))]), addr(0, 0));
        assert_eq!(c.replica(a), None);
        assert_eq!(c.checksum(a), None);
        c.register_replica(a, addr(9, 777));
        c.set_checksum(a, 0xDEAD);
        assert_eq!(c.replica(a), Some(addr(9, 777)));
        assert_eq!(c.checksum(a), Some(0xDEAD));
        c.remove_supertile(a).unwrap();
        assert_eq!(c.replica(a), None);
        assert_eq!(c.checksum(a), None);
    }

    #[test]
    fn remove_object_frees_replicas_too() {
        let mut c = SuperTileCatalog::new();
        let a = c.next_id();
        c.register(meta(a, 7, &[(1, mi(&[(0, 9)]))]), addr(3, 500));
        c.register_replica(a, addr(4, 0));
        let freed = c.remove_object(7);
        assert_eq!(freed, vec![addr(3, 500), addr(4, 0)]);
    }

    #[test]
    fn relocate_updates_address() {
        let mut c = SuperTileCatalog::new();
        let a = c.next_id();
        c.register(meta(a, 1, &[(1, mi(&[(0, 9)]))]), addr(0, 0));
        c.relocate(a, addr(5, 123)).unwrap();
        assert_eq!(c.address(a).unwrap(), addr(5, 123));
    }
}
