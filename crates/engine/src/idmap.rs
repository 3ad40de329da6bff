//! The one map between global row ids and shard rows.
//!
//! A sharded relation names each row twice: by its **global id**, given
//! once and never reused, which callers see; and by its **location**,
//! the shard holding it and its local id there, which the shard's
//! indexes see. [`IdMap`] holds what it takes to go both ways, for the
//! immutable [`crate::shard::ShardedRelation`] and the live
//! [`crate::live::LiveRelation`] alike, and nothing per global id:
//!
//! * per shard, local → global, strictly increasing (a shard's locals
//!   are handed out in global-id order), so translating a shard's
//!   ascending locals yields ascending globals and the row-id merge can
//!   merge runs instead of sorting;
//! * the next global id, one past every id assigned or burned — the one
//!   fact the maps cannot give, since burned ids name no row;
//! * the count of live ids.
//!
//! A location is found, not kept: [`IdMap::location`] searches each
//! shard's map for the id, and no global id lies in two maps. It
//! names the row whether or not the row is live; the shard's own live
//! bit says which, read under the shard's lock. A deleted row keeps its
//! slot and its map entry, so a location never changes once assigned.

use crate::error::EngineError;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Global row ids ↔ shard rows: see the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdMap {
    /// Per shard: local row id → global row id, strictly increasing.
    global_ids: Vec<Vec<usize>>,
    /// One past every global id assigned or burned.
    next_gid: usize,
    /// Live global ids.
    live: usize,
}

impl IdMap {
    /// The map a build assigns: the `i`-th row, routed to shard
    /// `part[i]` (each below `shards`), gets global id `i`, and each
    /// shard's locals are dense in arrival order. Every map is sized
    /// exactly.
    pub(crate) fn assign(shards: usize, part: &[u32]) -> Self {
        let mut sizes = vec![0usize; shards];
        for &shard in part {
            sizes[shard as usize] += 1;
        }
        let mut global_ids: Vec<Vec<usize>> =
            sizes.iter().map(|&n| Vec::with_capacity(n)).collect();
        for (gid, &shard) in part.iter().enumerate() {
            global_ids[shard as usize].push(gid);
        }
        IdMap {
            global_ids,
            next_gid: part.len(),
            live: part.len(),
        }
    }

    /// Reassemble a map from its exported parts — per shard local →
    /// global, and the next global id — and check it whole: each map
    /// strictly increases, no id is at or past the next one, no id lies
    /// in two maps, and the next id is at most `isize::MAX`, so the ids
    /// after it never wrap. Anything else is refused as
    /// [`EngineError::InconsistentSnapshot`]. The shard count is
    /// `global_ids.len()`. Every mapped id counts as live: only the
    /// shards know which rows are, and
    /// [`crate::shard::ShardedRelation::from_parts`] sets the count they
    /// hold.
    pub fn from_parts(global_ids: Vec<Vec<usize>>, next_gid: usize) -> Result<Self, EngineError> {
        let live = global_ids.iter().map(Vec::len).sum();
        let map = IdMap {
            global_ids,
            next_gid,
            live,
        };
        map.check()?;
        Ok(map)
    }

    /// The one consistency check, the invariant [`Self::location`]'s
    /// search relies on: each shard's map strictly increases, maps no
    /// id at or past the next one, and no id lies in two shards' maps —
    /// one merge of the maps, O(ids · log S) — and the next id leaves
    /// room to count on. (Whether the maps fit the
    /// shards is the shards' half, checked by
    /// [`crate::shard::ShardedRelation::from_parts`].)
    pub(crate) fn check(&self) -> Result<(), EngineError> {
        let inconsistent = |msg: String| Err(EngineError::InconsistentSnapshot(msg));
        if self.next_gid > isize::MAX as usize {
            return inconsistent(format!(
                "the next global id {} is past isize::MAX",
                self.next_gid
            ));
        }
        for (s, map) in self.global_ids.iter().enumerate() {
            if map.windows(2).any(|w| w[0] >= w[1]) {
                return inconsistent(format!(
                    "shard {s}'s global ids do not increase with its local ids"
                ));
            }
            if let Some(&bad) = map.last().filter(|&&g| g >= self.next_gid) {
                return inconsistent(format!(
                    "shard {s} maps a local row to global id {bad}, at or past the next id {}",
                    self.next_gid
                ));
            }
        }
        // Each map's head, smallest first; a head equal to the one
        // popped before it is an id two shards share.
        let mut heads: BinaryHeap<Reverse<(usize, usize, usize)>> = self
            .global_ids
            .iter()
            .enumerate()
            .filter_map(|(s, map)| Some(Reverse((*map.first()?, s, 0))))
            .collect();
        let mut last: Option<(usize, usize)> = None;
        while let Some(Reverse((gid, s, local))) = heads.pop() {
            if let Some((_, other)) = last.filter(|&(prev, _)| prev == gid) {
                return inconsistent(format!(
                    "global id {gid} is mapped by shards {other} and {s}"
                ));
            }
            last = Some((gid, s));
            if let Some(&next) = self.global_ids[s].get(local + 1) {
                heads.push(Reverse((next, s, local + 1)));
            }
        }
        Ok(())
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.global_ids.len()
    }

    /// The global id the next row gets: one past every id ever
    /// assigned or burned.
    pub fn next_gid(&self) -> usize {
        self.next_gid
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

    /// The `(shard, local)` a global id was assigned, found by one
    /// search per shard, started where the shard's density puts the id;
    /// the row there may since be deleted (the shard's live bit says).
    /// `None` if the id was burned or never assigned.
    pub fn location(&self, gid: usize) -> Option<(usize, usize)> {
        self.global_ids.iter().enumerate().find_map(|(shard, map)| {
            let local = position(map, gid, self.next_gid);
            (map.get(local) == Some(&gid)).then_some((shard, local))
        })
    }

    /// The map as it stood when the next global id was `next_gid`: every
    /// id below it was assigned before that point, and its entry is
    /// still in place, since the maps only grow.
    pub fn view_at(&self, next_gid: usize) -> IdMapView<'_> {
        IdMapView {
            map: self,
            next_gid: next_gid.min(self.next_gid),
        }
    }

    /// Give the next global id to the next local of `shard`, whose row
    /// is now in that shard. Returns the id.
    pub(crate) fn commit(&mut self, shard: usize) -> usize {
        let gid = self.next_gid;
        self.global_ids[shard].push(gid);
        self.next_gid += 1;
        self.live += 1;
        gid
    }

    /// Count one live id gone: its shard has just deleted its row.
    pub(crate) fn tombstone(&mut self) {
        self.live -= 1;
    }

    /// Set the live count to the rows the shards hold.
    pub(crate) fn set_live(&mut self, live: usize) {
        self.live = live;
    }

    /// Advance the allocator to `next_gid`, the skipped ids burned: they
    /// name no row. No-op if it is already there. It stops at
    /// `isize::MAX`, as [`Self::from_parts`] does, so the ids after it
    /// never wrap; an insert replayed past that gets another id than its
    /// log's, which replay refuses.
    pub(crate) fn burn_to(&mut self, next_gid: usize) {
        self.next_gid = self.next_gid.max(next_gid.min(isize::MAX as usize));
    }

    /// Heap bytes the map holds.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        let maps: usize = self.global_ids.iter().map(Vec::capacity).sum();
        self.global_ids.capacity() * std::mem::size_of::<Vec<usize>>()
            + maps * std::mem::size_of::<usize>()
    }
}

/// Where `gid` is, or would go, in `map`, a strictly increasing run of
/// ids below `next_gid`: the number of entries below it. The search
/// starts where the map's density puts `gid`, gallops away from there
/// until it brackets the answer, and bisects the bracket. Ids spread
/// evenly over the shards, as hash routing spreads them, lie a few
/// cache lines from the guess; a plain bisection of a 2¹⁵-entry map
/// misses the cache on most of its 15 steps. Any other spread costs at
/// most two bisections.
fn position(map: &[usize], gid: usize, next_gid: usize) -> usize {
    let n = map.len();
    // Any guess is correct, so a float's rounding only costs steps.
    let guess = ((gid as f64 * n as f64 / next_gid.max(1) as f64) as usize).min(n);
    let (mut lo, mut hi, mut step) = (0, n, 1);
    if map.get(guess).is_some_and(|&id| id < gid) {
        lo = guess + 1;
        while let Some(&id) = map.get(guess + step) {
            if id >= gid {
                hi = guess + step;
                break;
            }
            lo = guess + step + 1;
            step *= 2;
        }
    } else {
        hi = guess;
        while let Some(probe) = guess.checked_sub(step) {
            if map[probe] < gid {
                lo = probe + 1;
                break;
            }
            hi = probe;
            step *= 2;
        }
    }
    lo + map[lo..hi].partition_point(|&id| id < gid)
}

/// An [`IdMap`] as it stood at some point, now or earlier
/// ([`IdMap::view_at`]), borrowed: what a snapshot writer reads section
/// 6 from.
#[derive(Debug, Clone, Copy)]
pub struct IdMapView<'a> {
    map: &'a IdMap,
    next_gid: usize,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Two shards: gids 0, 2 in shard 0 and 1, 3 in shard 1; gid 4
    /// burned.
    fn parts() -> (Vec<Vec<usize>>, usize) {
        (vec![vec![0, 2], vec![1, 3]], 5)
    }

    /// Every shard's local → global map, in shard order.
    fn maps(map: &IdMap) -> Vec<Vec<usize>> {
        (0..map.shard_count())
            .map(|s| map.global_ids(s).to_vec())
            .collect()
    }

    fn refused((maps, next_gid): (Vec<Vec<usize>>, usize)) -> String {
        match IdMap::from_parts(maps, next_gid) {
            Err(EngineError::InconsistentSnapshot(why)) => why,
            other => panic!("expected InconsistentSnapshot, got {other:?}"),
        }
    }

    #[test]
    fn from_parts_accepts_consistent_maps() {
        let (maps_in, next_gid) = parts();
        let map = IdMap::from_parts(maps_in.clone(), next_gid).unwrap();
        assert_eq!(maps(&map), maps_in);
        assert_eq!((map.live(), map.next_gid()), (4, 5));
        let found: Vec<_> = (0..6).map(|gid| map.location(gid)).collect();
        assert_eq!(
            found,
            [
                Some((0, 0)),
                Some((1, 0)),
                Some((0, 1)),
                Some((1, 1)),
                None,
                None
            ]
        );
    }

    /// The cases a snapshot's id maps can get wrong, each refused typed.
    #[test]
    fn from_parts_rejects_inconsistent_maps() {
        // A local mapped to the next id, or past it.
        for bad in [5, 9] {
            let (mut maps, next_gid) = parts();
            maps[0][1] = bad;
            let why = refused((maps, next_gid));
            assert!(
                why.contains(&format!("global id {bad}, at or past")),
                "{why}"
            );
        }

        // A map that does not increase: swapped, or repeating an id.
        let (mut maps, next_gid) = parts();
        maps[1].swap(0, 1);
        assert!(refused((maps, next_gid)).contains("do not increase"));
        let (mut maps, next_gid) = parts();
        maps[1][1] = 1;
        assert!(refused((maps, next_gid)).contains("do not increase"));

        // A next id too far to count on from; the largest that is not
        // loads.
        let (maps_in, _) = parts();
        let why = refused((maps_in.clone(), isize::MAX as usize + 1));
        assert!(why.contains("past isize::MAX"), "{why}");
        assert!(IdMap::from_parts(maps_in, isize::MAX as usize).is_ok());

        // An id two shards map: first in both maps, last in both, or
        // first in one and last in another of three.
        for (maps, shared) in [
            (
                vec![vec![0, 2], vec![0, 3]],
                "global id 0 is mapped by shards 0 and 1",
            ),
            (
                vec![vec![0, 3], vec![1, 3]],
                "global id 3 is mapped by shards 0 and 1",
            ),
            (
                vec![vec![0, 4], vec![1, 3], vec![2, 4]],
                "global id 4 is mapped by shards 0 and 2",
            ),
            (
                vec![vec![1], vec![0, 1]],
                "global id 1 is mapped by shards 0 and 1",
            ),
        ] {
            let why = refused((maps, 5));
            assert!(why.contains(shared), "{why}");
        }
    }

    /// The map a build assigns, and one it is rebuilt from, agree.
    #[test]
    fn assign_gives_dense_locals_in_arrival_order() {
        let map = IdMap::assign(3, &[2, 0, 2, 1, 0, 2]);
        assert_eq!(maps(&map), [vec![1, 4], vec![3], vec![0, 2, 5]]);
        assert_eq!(map.location(5), Some((2, 2)));
        assert_eq!(IdMap::from_parts(maps(&map), map.next_gid()).unwrap(), map);
    }

    /// The search agrees with a plain bisection for every id, on maps
    /// spread evenly, packed at either end, and sparse.
    #[test]
    fn position_agrees_with_a_bisection_on_any_spread() {
        let maps: [Vec<usize>; 5] = [
            (0..500).map(|i| i * 4 + 1).collect(),
            (0..300).collect(),
            (1_700..2_000).collect(),
            vec![3, 900, 901, 1_999],
            Vec::new(),
        ];
        for map in &maps {
            for gid in 0..=2_001 {
                let want = map.partition_point(|&id| id < gid);
                assert_eq!(position(map, gid, 2_000), want, "{gid} in {map:?}");
            }
        }
    }

    /// A model of the map: every assigned id's location, live or not,
    /// the live ids, per shard the ids in local order, and the next id.
    #[derive(Debug, Default)]
    struct Model {
        assigned: BTreeMap<usize, (usize, usize)>,
        live: usize,
        shards: Vec<Vec<usize>>,
        next: usize,
    }

    proptest::proptest! {
        /// Random allocate / delete / burn / lookup steps against the
        /// model: after every step the maps, the locations, the live
        /// count and the next id agree with it, and the exported parts
        /// reassemble into the same map.
        #[test]
        fn steps_agree_with_a_btreemap_model(
            shards in 1usize..6,
            steps in proptest::collection::vec((0u8..4, 0usize..64), 1..80)
        ) {
            let mut map = IdMap::assign(shards, &[]);
            let mut model = Model { shards: vec![Vec::new(); shards], ..Model::default() };
            for (kind, n) in steps {
                match kind {
                    0 => {
                        let shard = n % shards;
                        let gid = map.commit(shard);
                        proptest::prop_assert_eq!(gid, model.next);
                        model.assigned.insert(gid, (shard, model.shards[shard].len()));
                        model.shards[shard].push(gid);
                        model.next += 1;
                        model.live += 1;
                    }
                    1 if model.live > 0 => {
                        map.tombstone();
                        model.live -= 1;
                    }
                    2 => {
                        map.burn_to(n);
                        model.next = model.next.max(n);
                    }
                    _ => {
                        let gid = n % (model.next + 1);
                        proptest::prop_assert_eq!(map.location(gid), model.assigned.get(&gid).copied());
                    }
                }
                proptest::prop_assert_eq!(map.next_gid(), model.next);
                proptest::prop_assert_eq!(map.live(), model.live);
                proptest::prop_assert_eq!(maps(&map), model.shards.clone());
                for gid in 0..model.next {
                    let location = model.assigned.get(&gid).copied();
                    proptest::prop_assert_eq!(map.location(gid), location);
                    if let Some((shard, local)) = location {
                        proptest::prop_assert_eq!(map.global_ids(shard)[local], gid);
                    }
                }
                let mut rebuilt = IdMap::from_parts(maps(&map), map.next_gid()).unwrap();
                rebuilt.set_live(map.live());
                proptest::prop_assert_eq!(&rebuilt, &map);
            }
        }
    }
}
