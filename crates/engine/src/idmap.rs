//! The one map between global row ids and shard rows.
//!
//! A sharded relation names each row twice: by its **global id**, given
//! once and never reused, which callers see; and by its **location**,
//! the shard holding it and its local id there, which the shard's
//! indexes see. [`IdMap`] holds both directions and every change to
//! them, for the immutable [`crate::shard::ShardedRelation`] and the
//! live [`crate::live::LiveRelation`] alike:
//!
//! * per shard, local → global, strictly increasing (a shard's locals
//!   are handed out in global-id order), so translating a shard's
//!   ascending locals yields ascending globals and the row-id merge can
//!   merge runs instead of sorting;
//! * global → location, one `u64` per id: `local · S + shard` for `S`
//!   shards, or a dead sentinel once the row is deleted or its id is
//!   burned (8 bytes an id where an `Option<(usize, usize)>` took 24);
//! * the count of live ids.
//!
//! Every packing is checked: a location whose shard is not below `S`, or
//! whose product does not fit below the sentinel, is refused as
//! [`EngineError::LocationOutOfRange`], in release builds too, never
//! wrapped onto another row's location.

use crate::error::EngineError;

/// The packed location of a global id with no live row: deleted, or
/// burned by [`IdMap::burn_to`].
const DEAD: u64 = u64::MAX;

/// `(shard, local)` packed as `local · shards + shard`, refused unless
/// `shard < shards` and the result fits below [`DEAD`].
fn pack(shards: usize, shard: usize, local: usize) -> Result<u64, EngineError> {
    let packed = if shard < shards {
        (local as u64)
            .checked_mul(shards as u64)
            .and_then(|p| p.checked_add(shard as u64))
            .filter(|&p| p != DEAD)
    } else {
        None
    };
    packed.ok_or(EngineError::LocationOutOfRange {
        shard,
        local,
        shards,
    })
}

/// The `(shard, local)` a live packed location names.
fn unpack(shards: usize, packed: u64) -> (usize, usize) {
    let shards = shards as u64;
    ((packed % shards) as usize, (packed / shards) as usize)
}

/// Global row ids ↔ shard rows: see the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdMap {
    /// Per shard: local row id → global row id, strictly increasing.
    global_ids: Vec<Vec<usize>>,
    /// Global row id → packed location, or [`DEAD`].
    locations: Vec<u64>,
    /// Global ids whose location is not [`DEAD`].
    live: usize,
}

/// The global id and location the next row of one shard gets, checked
/// by [`IdMap::reserve`] before anything is applied and recorded by
/// [`IdMap::commit`] once the row is in its shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Reserved {
    /// The reserved global id.
    pub(crate) gid: usize,
    shard: usize,
    packed: u64,
}

impl IdMap {
    /// The map a build assigns: the `i`-th routed row gets global id
    /// `i`, and each shard's locals are dense in arrival order. Every
    /// map is sized exactly, in two passes over `routes` (one shard per
    /// row, each below `shards`).
    pub(crate) fn assign(
        shards: usize,
        rows: usize,
        routes: impl Iterator<Item = usize>,
    ) -> Result<Self, EngineError> {
        let mut sizes = vec![0usize; shards];
        let mut locations = Vec::with_capacity(rows);
        for shard in routes {
            let local = sizes.get(shard).copied().unwrap_or(0);
            locations.push(pack(shards, shard, local)?);
            sizes[shard] += 1;
        }
        let mut global_ids: Vec<Vec<usize>> =
            sizes.iter().map(|&n| Vec::with_capacity(n)).collect();
        for (gid, &packed) in locations.iter().enumerate() {
            global_ids[unpack(shards, packed).0].push(gid);
        }
        Ok(IdMap {
            global_ids,
            live: locations.len(),
            locations,
        })
    }

    /// Reassemble a map from its exported parts — per shard local →
    /// global, and global → `(shard, local)` with `None` for a dead id —
    /// packing every location and checking the whole: every local maps
    /// to an assigned global id, each shard's map strictly increases,
    /// and every live location maps back to the id that names it. The
    /// shard count is `global_ids.len()`.
    pub fn from_parts(
        global_ids: Vec<Vec<usize>>,
        locations: impl IntoIterator<Item = Option<(usize, usize)>>,
    ) -> Result<Self, EngineError> {
        let shards = global_ids.len();
        let locations = locations
            .into_iter()
            .map(|location| location.map_or(Ok(DEAD), |(s, local)| pack(shards, s, local)))
            .collect::<Result<_, _>>()?;
        let mut map = IdMap {
            global_ids,
            locations,
            live: 0,
        };
        map.live = map.check()?;
        Ok(map)
    }

    /// The one consistency check: every local maps to an assigned
    /// global id, each shard's map strictly increases, and every live
    /// location maps back to the global id that names it. Returns the
    /// number of live locations. (Whether the rows behind the locations
    /// are live is the shards' half, checked by
    /// [`crate::shard::ShardedRelation::from_parts`].)
    pub(crate) fn check(&self) -> Result<usize, EngineError> {
        let inconsistent = |msg: String| Err(EngineError::InconsistentSnapshot(msg));
        for (s, map) in self.global_ids.iter().enumerate() {
            if let Some(&bad) = map.iter().find(|&&g| g >= self.locations.len()) {
                return inconsistent(format!(
                    "shard {s} maps a local row to global id {bad}, beyond {}",
                    self.locations.len()
                ));
            }
            if map.windows(2).any(|w| w[0] >= w[1]) {
                return inconsistent(format!(
                    "shard {s}'s global ids do not increase with its local ids"
                ));
            }
        }
        let mut live = 0;
        for gid in 0..self.locations.len() {
            let Some((s, local)) = self.location(gid) else {
                continue;
            };
            if self.global_ids[s].get(local) != Some(&gid) {
                return inconsistent(format!(
                    "global id {gid} points at ({s}, {local}), which does not map back"
                ));
            }
            live += 1;
        }
        Ok(live)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.global_ids.len()
    }

    /// The global id the next row gets: one past every id ever
    /// assigned or burned.
    pub fn next_gid(&self) -> usize {
        self.locations.len()
    }

    /// Live global ids.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Shard `shard`'s local → global map, entries of deleted rows
    /// included, strictly increasing.
    pub fn global_ids(&self, shard: usize) -> &[usize] {
        &self.global_ids[shard]
    }

    /// The `(shard, local)` of a live global id; `None` once it is
    /// deleted or burned, or if it was never assigned.
    pub fn location(&self, gid: usize) -> Option<(usize, usize)> {
        match self.locations.get(gid) {
            Some(&packed) if packed != DEAD => Some(unpack(self.shard_count(), packed)),
            _ => None,
        }
    }

    /// Every global id's location, in id order (`None` for a dead id):
    /// the `locations` argument of [`Self::from_parts`].
    pub fn locations(&self) -> impl ExactSizeIterator<Item = Option<(usize, usize)>> + '_ {
        (0..self.locations.len()).map(|gid| self.location(gid))
    }

    /// The map as it stood when the next global id was `next_gid` and
    /// shard `s`'s locals were live where `live[s]` says (bit `l % 64` of
    /// word `l / 64` for local `l`) — the map as it is, given its next
    /// id and the shards' live bitmaps now. Every id below `next_gid` was
    /// assigned before that point, so its entries are still in place:
    /// the maps only grow, and a delete only marks a location dead.
    pub fn view_at<'a>(&'a self, next_gid: usize, live: &'a [&'a [u64]]) -> IdMapView<'a> {
        debug_assert_eq!(live.len(), self.shard_count(), "one bitmap per shard");
        IdMapView {
            map: self,
            next_gid: next_gid.min(self.next_gid()),
            live,
        }
    }

    /// Check that the next row of `shard` can be given the next global
    /// id, without changing the map.
    pub(crate) fn reserve(&self, shard: usize) -> Result<Reserved, EngineError> {
        let local = self.global_ids.get(shard).map_or(0, Vec::len);
        Ok(Reserved {
            gid: self.next_gid(),
            shard,
            packed: pack(self.shard_count(), shard, local)?,
        })
    }

    /// Record a reservation: its row is now the next local of its
    /// shard. Returns the global id. The reservation must be the latest
    /// one, with no change to the map since.
    pub(crate) fn commit(&mut self, reserved: Reserved) -> usize {
        debug_assert_eq!(reserved.gid, self.next_gid(), "a stale reservation");
        self.global_ids[reserved.shard].push(reserved.gid);
        self.locations.push(reserved.packed);
        self.live += 1;
        reserved.gid
    }

    /// Mark a live global id dead. Returns where its row was, or `None`
    /// if it was not live.
    pub(crate) fn tombstone(&mut self, gid: usize) -> Option<(usize, usize)> {
        let location = self.location(gid)?;
        self.locations[gid] = DEAD;
        self.live -= 1;
        Some(location)
    }

    /// Advance the allocator to `next_gid`, the skipped ids dead from
    /// the start. No-op if it is already there.
    pub(crate) fn burn_to(&mut self, next_gid: usize) {
        if next_gid > self.locations.len() {
            self.locations.resize(next_gid, DEAD);
        }
    }
}

/// An [`IdMap`] as it stood at some point, now or earlier
/// ([`IdMap::view_at`]), borrowed: what a snapshot writer reads sections
/// 6 and 7 from.
#[derive(Debug, Clone, Copy)]
pub struct IdMapView<'a> {
    map: &'a IdMap,
    next_gid: usize,
    /// Per shard, the locals live at the point.
    live: &'a [&'a [u64]],
}

impl<'a> IdMapView<'a> {
    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.map.shard_count()
    }

    /// One past every global id assigned or burned at the point.
    pub fn next_gid(&self) -> usize {
        self.next_gid
    }

    /// Shard `shard`'s local → global map at the point, entries of
    /// deleted rows included, strictly increasing.
    pub fn global_ids(&self, shard: usize) -> &'a [usize] {
        let map = &self.map.global_ids[shard];
        &map[..map.partition_point(|&gid| gid < self.next_gid)]
    }

    /// Every global id's location at the point, in id order (`None` for
    /// a dead id). An id dead now but live at the point is found in the
    /// local → global maps: one cursor per shard follows them in id
    /// order, so each dead id costs one look at each shard's cursor.
    pub fn locations(&self) -> impl ExactSizeIterator<Item = Option<(usize, usize)>> + 'a {
        let (map, live) = (self.map, self.live);
        let mut cursors = vec![0usize; map.shard_count()];
        (0..self.next_gid).map(move |gid| {
            let (shard, local) = match map.location(gid) {
                Some(at) => at,
                None => {
                    let shard = (0..cursors.len())
                        .find(|&s| map.global_ids[s].get(cursors[s]) == Some(&gid))?;
                    (shard, cursors[shard])
                }
            };
            cursors[shard] = local + 1;
            let word = live[shard].get(local / 64).copied().unwrap_or(0);
            (word >> (local % 64) & 1 == 1).then_some((shard, local))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A map in the exported form: per shard local → global, and
    /// global → location.
    type Parts = (Vec<Vec<usize>>, Vec<Option<(usize, usize)>>);

    /// Two shards: gids 0, 2 in shard 0 and 1, 3 in shard 1, gid 2 dead.
    fn parts() -> Parts {
        (
            vec![vec![0, 2], vec![1, 3]],
            vec![Some((0, 0)), Some((1, 0)), None, Some((1, 1))],
        )
    }

    /// Every shard's local → global map, in shard order.
    fn maps(map: &IdMap) -> Vec<Vec<usize>> {
        (0..map.shard_count())
            .map(|s| map.global_ids(s).to_vec())
            .collect()
    }

    fn refused(parts: Parts) -> EngineError {
        IdMap::from_parts(parts.0, parts.1).unwrap_err()
    }

    #[test]
    fn from_parts_accepts_consistent_maps() {
        let (maps_in, locations) = parts();
        let map = IdMap::from_parts(maps_in.clone(), locations.clone()).unwrap();
        assert_eq!(maps(&map), maps_in);
        assert_eq!(map.locations().collect::<Vec<_>>(), locations);
        assert_eq!((map.live(), map.next_gid()), (3, 4));
    }

    /// The cases a snapshot's id maps can get wrong, each refused typed.
    #[test]
    fn from_parts_rejects_inconsistent_maps() {
        // A location that does not map back: a local beyond its shard.
        let (maps, mut locations) = parts();
        locations[0] = Some((1, 999));
        let err = refused((maps, locations));
        assert!(err.to_string().contains("does not map back"), "{err}");

        // A location inside its shard that names another id's local.
        let (maps, mut locations) = parts();
        locations.swap(0, 3);
        let err = refused((maps, locations));
        assert!(err.to_string().contains("does not map back"), "{err}");

        // A local mapped to an id beyond every assigned one.
        let (mut maps, locations) = parts();
        maps[0][1] = 9;
        let err = refused((maps, locations));
        assert!(err.to_string().contains("beyond 4"), "{err}");

        // Two locals whose global ids are swapped, the locations to
        // match: every id maps back, but the map no longer increases.
        let (mut maps, mut locations) = parts();
        maps[1].swap(0, 1);
        (locations[1], locations[3]) = (Some((1, 1)), Some((1, 0)));
        let err = refused((maps, locations));
        assert!(err.to_string().contains("do not increase"), "{err}");
    }

    /// A location whose shard is not below the shard count would pack
    /// onto another row's location (`(S, l)` is `(0, l + 1)`): refused.
    #[test]
    fn from_parts_refuses_a_shard_beyond_the_count_typed() {
        let (maps, mut locations) = parts();
        locations[2] = Some((2, 0));
        assert_eq!(
            refused((maps, locations)),
            EngineError::LocationOutOfRange {
                shard: 2,
                local: 0,
                shards: 2
            }
        );
    }

    /// The largest local each shard can pack round-trips; one more does
    /// not fit and is refused, as is the location that would pack onto
    /// the dead sentinel.
    #[test]
    fn locations_at_the_packing_limit_round_trip_and_past_it_are_refused() {
        for shards in [1usize, 3, 7, 1 << 20] {
            for shard in [0, shards / 2, shards - 1] {
                let top = ((DEAD - 1 - shard as u64) / shards as u64) as usize;
                let packed = pack(shards, shard, top).unwrap();
                assert_eq!(unpack(shards, packed), (shard, top), "S={shards}");
                assert!(
                    pack(shards, shard, top + 1).is_err(),
                    "S={shards} shard {shard}"
                );
            }
            let shard = (DEAD % shards as u64) as usize;
            let local = (DEAD / shards as u64) as usize;
            assert_eq!(
                pack(shards, shard, local),
                Err(EngineError::LocationOutOfRange {
                    shard,
                    local,
                    shards
                })
            );
        }
    }

    /// The map a build assigns, and one it is rebuilt from, agree.
    #[test]
    fn assign_gives_dense_locals_in_arrival_order() {
        let map = IdMap::assign(3, 6, [2, 0, 2, 1, 0, 2].into_iter()).unwrap();
        assert_eq!(maps(&map), [vec![1, 4], vec![3], vec![0, 2, 5]]);
        assert_eq!(map.location(5), Some((2, 2)));
        assert_eq!(IdMap::from_parts(maps(&map), map.locations()).unwrap(), map);
    }

    /// A model of the map: live id → location, per shard the ids in
    /// local order, and the next id.
    #[derive(Debug, Default)]
    struct Model {
        live: BTreeMap<usize, (usize, usize)>,
        shards: Vec<Vec<usize>>,
        next: usize,
    }

    proptest::proptest! {
        /// Random allocate / tombstone / burn / lookup steps against
        /// the model: after every step both directions, the live count
        /// and the next id agree with it, and the exported parts
        /// reassemble into the same map.
        #[test]
        fn steps_agree_with_a_btreemap_model(
            shards in 1usize..6,
            steps in proptest::collection::vec((0u8..4, 0usize..64), 1..80)
        ) {
            let mut map = IdMap::assign(shards, 0, std::iter::empty()).unwrap();
            let mut model = Model { shards: vec![Vec::new(); shards], ..Model::default() };
            for (kind, n) in steps {
                match kind {
                    0 => {
                        let shard = n % shards;
                        let gid = map.commit(map.reserve(shard).unwrap());
                        proptest::prop_assert_eq!(gid, model.next);
                        model.live.insert(gid, (shard, model.shards[shard].len()));
                        model.shards[shard].push(gid);
                        model.next += 1;
                    }
                    1 => {
                        let gid = n % (model.next + 1);
                        proptest::prop_assert_eq!(map.tombstone(gid), model.live.remove(&gid));
                    }
                    2 => {
                        map.burn_to(n);
                        model.next = model.next.max(n);
                    }
                    _ => {
                        let gid = n % (model.next + 1);
                        proptest::prop_assert_eq!(map.location(gid), model.live.get(&gid).copied());
                    }
                }
                proptest::prop_assert_eq!(map.next_gid(), model.next);
                proptest::prop_assert_eq!(map.live(), model.live.len());
                proptest::prop_assert_eq!(maps(&map), model.shards.clone());
                for gid in 0..model.next {
                    let location = model.live.get(&gid).copied();
                    proptest::prop_assert_eq!(map.location(gid), location);
                    if let Some((shard, local)) = location {
                        proptest::prop_assert_eq!(map.global_ids(shard)[local], gid);
                    }
                }
                let rebuilt =
                    IdMap::from_parts(maps(&map), map.locations()).unwrap();
                proptest::prop_assert_eq!(&rebuilt, &map);
            }
        }
    }
}
