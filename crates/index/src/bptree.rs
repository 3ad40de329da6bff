//! A B⁺-tree: the preprocessing structure of Example 1 / Section 4(1).
//!
//! The paper's opening example makes point selections Π-tractable by
//! building a B⁺-tree over an attribute in PTIME, after which every point
//! (and range) selection costs O(log |D|) instead of a linear scan — "we
//! can get the results in seconds … rather than 1.9 days". This module
//! implements that structure from scratch:
//!
//! * arena-based nodes (`Vec`-indexed, no `Rc`/`RefCell`), leaves linked
//!   left-to-right for range scans;
//! * point lookup, insert (with node splits), delete (with borrow/merge
//!   rebalancing) — deletion matters because Section 1's "incremental
//!   preprocessing" story needs maintainable indexes;
//! * [`BPlusTree::upsert`] and [`BPlusTree::remove_if`], insert-or-merge
//!   and edit-or-remove in one descent each — how a secondary index
//!   posts a row id under a key that may or may not be there yet, and
//!   un-posts one from a key that may or may not survive it
//!   ([`BPlusTree::insert`] and [`BPlusTree::remove`] are their
//!   unconditional instances);
//! * [`BPlusTree::bulk_load`], the O(n) build from an ascending run that
//!   packs leaves ⅔ full — `pitract-relation` sorts a column and builds
//!   its index this way, where descending once per row would leave an
//!   ascending column's leaves exactly half full;
//! * ordered iteration and half-open/closed range scans via leaf links;
//! * a metered lookup path ([`BPlusTree::get_metered`]) counting key
//!   comparisons — one tick per comparison whatever the key type, so
//!   instantiating the tree at `i64` or `String` instead of an enum of
//!   both changes what a comparison costs, not how many are counted —
//!   used by tests and experiment E1 to certify the O(log n) claim;
//! * a group descent ([`BPlusTree::descend_many`]) for a run of probes
//!   of any kind — point lookups and range starts alike: [`GROUP`]
//!   probes go down together, one level at a time — every leaf sits at
//!   the same depth — and as each probe picks its child, the child's
//!   arena slot and then the first lines of its key buffer are hinted
//!   into cache, so the group's dependent cache misses overlap instead
//!   of queueing. Each probe runs the very separator searches
//!   `get_metered` runs and ends at the leaf a lone search ends at,
//!   where a [`Leaf`] finishes it: a point's comparisons are a lone
//!   probe's (metering stays per probe and unchanged), and a range
//!   starts where [`BPlusTree::range`] starts it. The hint is
//!   `_mm_prefetch` on x86_64 and a no-op elsewhere; nothing but speed
//!   depends on it; and
//! * [`BPlusTree::check_invariants`], a full structural audit used by the
//!   property-based tests (occupancy, ordering, separator correctness,
//!   uniform depth, leaf-chain consistency).

use pitract_core::cost::Meter;
use std::fmt;
use std::ops::Bound;

/// Maximum keys a node may hold before it splits. See [`BPlusTree::new`].
pub const DEFAULT_ORDER: usize = 32;

/// Probes [`BPlusTree::descend_many`] carries down the tree together.
pub const GROUP: usize = 16;

#[derive(Debug, Clone)]
enum Node<K, V> {
    Internal {
        /// Separator keys; `children[i]` holds keys < `keys[i]`,
        /// `children[i+1]` holds keys ≥ `keys[i]` (separators are copies of
        /// the first key of the right subtree's leftmost leaf).
        keys: Vec<K>,
        children: Vec<usize>,
    },
    Leaf {
        keys: Vec<K>,
        vals: Vec<V>,
        /// Next leaf to the right, forming the scan chain.
        next: Option<usize>,
    },
    /// Placeholder for slots being edited or on the free list.
    Free,
}

/// A B⁺-tree mapping ordered keys to values. Unique keys: inserting an
/// existing key replaces its value (relations index row ids per key via
/// multi-value payloads at a higher layer).
#[derive(Clone)]
pub struct BPlusTree<K, V> {
    nodes: Vec<Node<K, V>>,
    free_slots: Vec<usize>,
    root: usize,
    first_leaf: usize,
    len: usize,
    order: usize,
}

impl<K: Ord + Clone, V> BPlusTree<K, V> {
    /// Empty tree with the default node capacity.
    pub fn new() -> Self {
        Self::with_order(DEFAULT_ORDER)
    }

    /// Empty tree whose nodes hold at most `order` keys (≥ 3). Small orders
    /// exercise splits/merges heavily and are used by the property tests.
    pub fn with_order(order: usize) -> Self {
        assert!(order >= 3, "order must be at least 3, got {order}");
        let mut tree = BPlusTree {
            nodes: Vec::new(),
            free_slots: Vec::new(),
            root: 0,
            first_leaf: 0,
            len: 0,
            order,
        };
        let root = tree.alloc(Node::Leaf {
            keys: Vec::new(),
            vals: Vec::new(),
            next: None,
        });
        tree.root = root;
        tree.first_leaf = root;
        tree
    }

    /// Bulk preprocessing: build from arbitrary (unsorted) pairs. O(n log n).
    pub fn build(entries: impl IntoIterator<Item = (K, V)>) -> Self {
        let mut tree = Self::new();
        for (k, v) in entries {
            tree.insert(k, v);
        }
        tree
    }

    /// Bulk-load from **strictly ascending** key/value pairs in O(n):
    /// leaves are packed directly at a 2/3 fill factor and internal levels
    /// built bottom-up — the preprocessing fast path for static data
    /// (Example 1's one-time Π(D) without per-key descents).
    ///
    /// Panics if keys are not strictly ascending (construction-time
    /// contract; use [`BPlusTree::build`] for unsorted input).
    pub fn bulk_load(entries: Vec<(K, V)>) -> Self {
        Self::bulk_load_with_order(DEFAULT_ORDER, entries)
    }

    /// [`BPlusTree::bulk_load`] with an explicit node order.
    pub fn bulk_load_with_order(order: usize, entries: Vec<(K, V)>) -> Self {
        let mut tree = Self::with_order(order);
        if entries.is_empty() {
            return tree;
        }
        assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "bulk_load requires strictly ascending keys"
        );
        let n = entries.len();
        tree.len = n;
        let min = tree.min_keys().max(1);
        let fill = ((order * 2) / 3).clamp(min, order);

        // Pack leaves; avoid an underfull final leaf by splitting the last
        // two chunks evenly when the remainder is too small.
        let mut chunk_sizes = Vec::new();
        let mut remaining = n;
        while remaining > 0 {
            if remaining <= order {
                chunk_sizes.push(remaining);
                break;
            }
            if remaining < fill + min {
                // Split what's left into two legal halves.
                chunk_sizes.push(remaining / 2);
                chunk_sizes.push(remaining - remaining / 2);
                break;
            }
            chunk_sizes.push(fill);
            remaining -= fill;
        }

        let mut iter = entries.into_iter();
        // (leftmost key, node index) per node of the current level.
        let mut level: Vec<(K, usize)> = Vec::with_capacity(chunk_sizes.len());
        let mut prev_leaf: Option<usize> = None;
        for size in chunk_sizes {
            let mut keys = Vec::with_capacity(size);
            let mut vals = Vec::with_capacity(size);
            for _ in 0..size {
                let (k, v) = iter.next().expect("sizes sum to n");
                keys.push(k);
                vals.push(v);
            }
            let leftmost = keys[0].clone();
            let idx = tree.alloc(Node::Leaf {
                keys,
                vals,
                next: None,
            });
            if let Some(prev) = prev_leaf {
                match &mut tree.nodes[prev] {
                    Node::Leaf { next, .. } => *next = Some(idx),
                    _ => unreachable!("previous node is a leaf"),
                }
            }
            prev_leaf = Some(idx);
            level.push((leftmost, idx));
        }
        // The initial empty-root leaf is replaced wholesale.
        let empty_root = tree.root;
        tree.release(empty_root);
        tree.first_leaf = level[0].1;

        // Build internal levels until one node remains.
        let min_children = tree.min_keys() + 1;
        let max_children = order + 1;
        let fill_children = ((max_children * 2) / 3).clamp(min_children, max_children);
        while level.len() > 1 {
            let mut sizes = Vec::new();
            let mut remaining = level.len();
            while remaining > 0 {
                if remaining <= max_children {
                    sizes.push(remaining);
                    break;
                }
                if remaining < fill_children + min_children {
                    sizes.push(remaining / 2);
                    sizes.push(remaining - remaining / 2);
                    break;
                }
                sizes.push(fill_children);
                remaining -= fill_children;
            }
            let mut next_level = Vec::with_capacity(sizes.len());
            let mut members = level.into_iter();
            for size in sizes {
                let group: Vec<(K, usize)> = (&mut members).take(size).collect();
                let leftmost = group[0].0.clone();
                let keys: Vec<K> = group.iter().skip(1).map(|(k, _)| k.clone()).collect();
                let children: Vec<usize> = group.iter().map(|(_, i)| *i).collect();
                let idx = tree.alloc(Node::Internal { keys, children });
                next_level.push((leftmost, idx));
            }
            level = next_level;
        }
        tree.root = level[0].1;
        tree
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the tree empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Node capacity in keys.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Height of the tree (1 for a single leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut idx = self.root;
        loop {
            match &self.nodes[idx] {
                Node::Internal { children, .. } => {
                    h += 1;
                    idx = children[0];
                }
                Node::Leaf { .. } => return h,
                Node::Free => unreachable!("free node reached from root"),
            }
        }
    }

    fn min_keys(&self) -> usize {
        self.order / 2
    }

    fn alloc(&mut self, node: Node<K, V>) -> usize {
        if let Some(idx) = self.free_slots.pop() {
            self.nodes[idx] = node;
            idx
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    fn release(&mut self, idx: usize) {
        self.nodes[idx] = Node::Free;
        self.free_slots.push(idx);
    }

    fn take(&mut self, idx: usize) -> Node<K, V> {
        std::mem::replace(&mut self.nodes[idx], Node::Free)
    }

    fn put(&mut self, idx: usize, node: Node<K, V>) {
        self.nodes[idx] = node;
    }

    fn key_count(&self, idx: usize) -> usize {
        match &self.nodes[idx] {
            Node::Internal { keys, .. } | Node::Leaf { keys, .. } => keys.len(),
            Node::Free => unreachable!("key_count of free node"),
        }
    }

    // ------------------------------------------------------------------
    // Lookup
    // ------------------------------------------------------------------

    /// Point lookup: O(log n) comparisons.
    pub fn get(&self, key: &K) -> Option<&V> {
        let mut idx = self.root;
        loop {
            match &self.nodes[idx] {
                Node::Internal { keys, children } => {
                    let pos = keys.partition_point(|k| k <= key);
                    idx = children[pos];
                }
                Node::Leaf { keys, vals, .. } => {
                    return keys.binary_search(key).ok().map(|p| &vals[p]);
                }
                Node::Free => unreachable!("free node reached from root"),
            }
        }
    }

    /// Does the tree contain `key`?
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Mutable point lookup: O(log n). Used by secondary indexes that keep
    /// posting lists as values and edit them in place.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let mut idx = self.root;
        loop {
            match &self.nodes[idx] {
                Node::Internal { keys, children } => {
                    let pos = keys.partition_point(|k| k <= key);
                    idx = children[pos];
                }
                Node::Leaf { keys, .. } => {
                    let pos = keys.binary_search(key).ok()?;
                    // Re-borrow mutably now that the position is known.
                    match &mut self.nodes[idx] {
                        Node::Leaf { vals, .. } => return Some(&mut vals[pos]),
                        _ => unreachable!("node kind changed between borrows"),
                    }
                }
                Node::Free => unreachable!("free node reached from root"),
            }
        }
    }

    /// Point lookup ticking the meter once per key comparison — the
    /// instrumented path behind experiment E1's O(log n) verdict.
    pub fn get_metered(&self, key: &K, meter: &Meter) -> Option<&V> {
        let mut steps = 0;
        let mut idx = self.root;
        let found = loop {
            match &self.nodes[idx] {
                Node::Internal { keys, children } => {
                    idx = children[counted_upper_bound(keys, key, &mut steps)];
                }
                Node::Leaf { keys, vals, .. } => {
                    break counted_eq_search(keys, key, &mut steps).map(|p| &vals[p]);
                }
                Node::Free => unreachable!("free node reached from root"),
            }
        };
        meter.add(steps);
        found
    }

    /// Many searches at once — points and range starts alike: each
    /// `(tag, start)` goes down to the leaf a lone search for `start`
    /// ends in, by the very separator searches [`Self::get_metered`]
    /// runs (an unbounded start takes the leftmost child), and
    /// `found(tag, leaf)` is called once per probe, in probe order, to
    /// finish the search there: [`Leaf::get`] for a point (started at
    /// `Included(key)`), [`Leaf::range`] for a range (started at its
    /// lower bound). Every leaf sits at the same depth, so [`GROUP`]
    /// probes move down one level at a time — each probe searches its
    /// node and picks a child, and the child's arena slot and the first
    /// lines of its key buffer are hinted into cache before any probe
    /// reads them. The group's cache misses overlap instead of queueing
    /// one behind the other.
    pub fn descend_many<'a, T: Copy>(
        &'a self,
        probes: impl IntoIterator<Item = (T, Bound<&'a K>)>,
        mut found: impl FnMut(T, Leaf<'a, K, V>),
    ) {
        let mut probes = probes.into_iter().peekable();
        let Some(&(tag, start)) = probes.peek() else {
            return;
        };
        let height = self.height();
        let (mut tags, mut starts) = ([tag; GROUP], [start; GROUP]);
        loop {
            let mut len = 0;
            for ((tag, start), probe) in tags.iter_mut().zip(&mut starts).zip(&mut probes) {
                (*tag, *start) = probe;
                len += 1;
            }
            if len == 0 {
                return;
            }
            let mut at = [self.root; GROUP];
            let mut steps = [0u64; GROUP];
            for _ in 1..height {
                for j in 0..len {
                    let Node::Internal { keys, children } = &self.nodes[at[j]] else {
                        unreachable!("every leaf sits at depth {height}");
                    };
                    let child = match starts[j] {
                        Bound::Included(key) | Bound::Excluded(key) => {
                            counted_upper_bound(keys, key, &mut steps[j])
                        }
                        Bound::Unbounded => 0,
                    };
                    at[j] = children[child];
                    prefetch(&self.nodes[at[j]]);
                }
                for &idx in &at[..len] {
                    if let Node::Internal { keys, .. } | Node::Leaf { keys, .. } = &self.nodes[idx]
                    {
                        prefetch_lines(keys);
                    }
                }
            }
            for j in 0..len {
                let leaf = Leaf {
                    tree: self,
                    node: at[j],
                    steps: steps[j],
                };
                found(tags[j], leaf);
            }
            if len < GROUP {
                return;
            }
        }
    }

    // ------------------------------------------------------------------
    // Insert
    // ------------------------------------------------------------------

    /// Insert a key/value pair; returns the previous value if the key was
    /// already present. Amortized O(log n).
    pub fn insert(&mut self, key: K, val: V) -> Option<V> {
        self.upsert(key, val, std::mem::replace)
    }

    /// Insert-or-merge in **one descent**: find `key`'s leaf once, then
    /// either store `val` at the position the search found (splitting
    /// upward as needed; returns `None`) or, if the key is already
    /// present, hand the stored value and `val` to `merge` and return
    /// what it made of them. Secondary indexes post a row id this way —
    /// a `get_mut` followed by an `insert` on a miss would descend twice
    /// for every new key. Amortized O(log n).
    pub fn upsert<R>(&mut self, key: K, val: V, merge: impl FnOnce(&mut V, V) -> R) -> Option<R> {
        let (merged, split) = self.upsert_rec(self.root, key, val, merge);
        if let Some((sep, right)) = split {
            let new_root = self.alloc(Node::Internal {
                keys: vec![sep],
                children: vec![self.root, right],
            });
            self.root = new_root;
        }
        if merged.is_none() {
            self.len += 1;
        }
        merged
    }

    fn upsert_rec<R>(
        &mut self,
        idx: usize,
        key: K,
        val: V,
        merge: impl FnOnce(&mut V, V) -> R,
    ) -> (Option<R>, Option<(K, usize)>) {
        match self.take(idx) {
            Node::Leaf {
                mut keys,
                mut vals,
                next,
            } => match keys.binary_search(&key) {
                Ok(pos) => {
                    let merged = merge(&mut vals[pos], val);
                    self.put(idx, Node::Leaf { keys, vals, next });
                    (Some(merged), None)
                }
                Err(pos) => {
                    keys.insert(pos, key);
                    vals.insert(pos, val);
                    if keys.len() > self.order {
                        let mid = keys.len() / 2;
                        let right_keys = keys.split_off(mid);
                        let right_vals = vals.split_off(mid);
                        let sep = right_keys[0].clone();
                        let right_idx = self.alloc(Node::Leaf {
                            keys: right_keys,
                            vals: right_vals,
                            next,
                        });
                        self.put(
                            idx,
                            Node::Leaf {
                                keys,
                                vals,
                                next: Some(right_idx),
                            },
                        );
                        (None, Some((sep, right_idx)))
                    } else {
                        self.put(idx, Node::Leaf { keys, vals, next });
                        (None, None)
                    }
                }
            },
            Node::Internal {
                mut keys,
                mut children,
            } => {
                let pos = keys.partition_point(|k| *k <= key);
                let child = children[pos];
                let (merged, split) = self.upsert_rec(child, key, val, merge);
                if let Some((sep, right)) = split {
                    keys.insert(pos, sep);
                    children.insert(pos + 1, right);
                }
                if keys.len() > self.order {
                    let mid = keys.len() / 2;
                    let sep = keys[mid].clone();
                    let right_keys = keys.split_off(mid + 1);
                    keys.pop(); // the separator moves up, not right
                    let right_children = children.split_off(mid + 1);
                    let right_idx = self.alloc(Node::Internal {
                        keys: right_keys,
                        children: right_children,
                    });
                    self.put(idx, Node::Internal { keys, children });
                    (merged, Some((sep, right_idx)))
                } else {
                    self.put(idx, Node::Internal { keys, children });
                    (merged, None)
                }
            }
            Node::Free => unreachable!("insert into free node"),
        }
    }

    // ------------------------------------------------------------------
    // Remove
    // ------------------------------------------------------------------

    /// Remove a key, returning its value if present. Amortized O(log n),
    /// with borrow-or-merge rebalancing keeping occupancy ≥ order/2.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.remove_if(key, |_| true)
    }

    /// Edit-or-remove in **one descent**, the mirror of
    /// [`Self::upsert`]: find `key` once and hand its value to `emptied`,
    /// which may edit it in place; the entry is removed (and returned,
    /// as edited) only if `emptied` says so. A missing key is left
    /// alone. Secondary indexes un-post a row id this way and drop the
    /// key with its last id. Amortized O(log n).
    pub fn remove_if(&mut self, key: &K, emptied: impl FnOnce(&mut V) -> bool) -> Option<V> {
        let removed = self.remove_rec(self.root, key, emptied);
        if removed.is_some() {
            self.len -= 1;
            // Collapse a root that lost all separators.
            let collapse_to = match &self.nodes[self.root] {
                Node::Internal { keys, children } if keys.is_empty() => Some(children[0]),
                _ => None,
            };
            if let Some(child) = collapse_to {
                let old_root = self.root;
                self.root = child;
                self.release(old_root);
            }
        }
        removed
    }

    fn remove_rec(
        &mut self,
        idx: usize,
        key: &K,
        emptied: impl FnOnce(&mut V) -> bool,
    ) -> Option<V> {
        match self.take(idx) {
            Node::Leaf {
                mut keys,
                mut vals,
                next,
            } => {
                let removed = match keys.binary_search(key) {
                    Ok(pos) if emptied(&mut vals[pos]) => {
                        keys.remove(pos);
                        Some(vals.remove(pos))
                    }
                    _ => None,
                };
                self.put(idx, Node::Leaf { keys, vals, next });
                removed
            }
            Node::Internal {
                mut keys,
                mut children,
            } => {
                let pos = keys.partition_point(|k| k <= key);
                let child = children[pos];
                let removed = self.remove_rec(child, key, emptied);
                if removed.is_some() {
                    self.fix_child(&mut keys, &mut children, pos);
                }
                self.put(idx, Node::Internal { keys, children });
                removed
            }
            Node::Free => unreachable!("remove from free node"),
        }
    }

    /// Restore occupancy of `children[pos]` after a removal underneath it.
    fn fix_child(&mut self, keys: &mut Vec<K>, children: &mut Vec<usize>, pos: usize) {
        let min = self.min_keys();
        if self.key_count(children[pos]) >= min {
            return;
        }
        // Try borrowing from the left sibling.
        if pos > 0 && self.key_count(children[pos - 1]) > min {
            self.borrow_from_left(keys, children, pos);
            return;
        }
        // Try borrowing from the right sibling.
        if pos + 1 < children.len() && self.key_count(children[pos + 1]) > min {
            self.borrow_from_right(keys, children, pos);
            return;
        }
        // Merge with a sibling (into the left node of the pair).
        if pos > 0 {
            self.merge_children(keys, children, pos - 1);
        } else {
            self.merge_children(keys, children, pos);
        }
    }

    fn borrow_from_left(&mut self, keys: &mut [K], children: &mut [usize], pos: usize) {
        let left_idx = children[pos - 1];
        let child_idx = children[pos];
        let mut left = self.take(left_idx);
        let mut child = self.take(child_idx);
        match (&mut left, &mut child) {
            (
                Node::Leaf {
                    keys: lk, vals: lv, ..
                },
                Node::Leaf {
                    keys: ck, vals: cv, ..
                },
            ) => {
                let k = lk.pop().expect("left sibling above minimum");
                let v = lv.pop().expect("left sibling above minimum");
                ck.insert(0, k);
                cv.insert(0, v);
                keys[pos - 1] = ck[0].clone();
            }
            (
                Node::Internal {
                    keys: lk,
                    children: lc,
                },
                Node::Internal {
                    keys: ck,
                    children: cc,
                },
            ) => {
                // Rotate through the parent separator.
                let sep = std::mem::replace(
                    &mut keys[pos - 1],
                    lk.pop().expect("left sibling above minimum"),
                );
                ck.insert(0, sep);
                cc.insert(0, lc.pop().expect("left sibling above minimum"));
            }
            _ => unreachable!("siblings at the same depth share a node kind"),
        }
        self.put(left_idx, left);
        self.put(child_idx, child);
    }

    fn borrow_from_right(&mut self, keys: &mut [K], children: &mut [usize], pos: usize) {
        let child_idx = children[pos];
        let right_idx = children[pos + 1];
        let mut child = self.take(child_idx);
        let mut right = self.take(right_idx);
        match (&mut child, &mut right) {
            (
                Node::Leaf {
                    keys: ck, vals: cv, ..
                },
                Node::Leaf {
                    keys: rk, vals: rv, ..
                },
            ) => {
                ck.push(rk.remove(0));
                cv.push(rv.remove(0));
                keys[pos] = rk[0].clone();
            }
            (
                Node::Internal {
                    keys: ck,
                    children: cc,
                },
                Node::Internal {
                    keys: rk,
                    children: rc,
                },
            ) => {
                let sep = std::mem::replace(&mut keys[pos], rk.remove(0));
                ck.push(sep);
                cc.push(rc.remove(0));
            }
            _ => unreachable!("siblings at the same depth share a node kind"),
        }
        self.put(child_idx, child);
        self.put(right_idx, right);
    }

    /// Merge `children[left_pos + 1]` into `children[left_pos]`.
    fn merge_children(&mut self, keys: &mut Vec<K>, children: &mut Vec<usize>, left_pos: usize) {
        let sep = keys.remove(left_pos);
        let right_idx = children.remove(left_pos + 1);
        let left_idx = children[left_pos];
        let right = self.take(right_idx);
        let mut left = self.take(left_idx);
        match (&mut left, right) {
            (
                Node::Leaf {
                    keys: lk,
                    vals: lv,
                    next: lnext,
                },
                Node::Leaf {
                    keys: rk,
                    vals: rv,
                    next: rnext,
                },
            ) => {
                lk.extend(rk);
                lv.extend(rv);
                *lnext = rnext;
            }
            (
                Node::Internal {
                    keys: lk,
                    children: lc,
                },
                Node::Internal {
                    keys: rk,
                    children: rc,
                },
            ) => {
                lk.push(sep);
                lk.extend(rk);
                lc.extend(rc);
            }
            _ => unreachable!("siblings at the same depth share a node kind"),
        }
        self.put(left_idx, left);
        self.release(right_idx);
    }

    // ------------------------------------------------------------------
    // Range scans and iteration
    // ------------------------------------------------------------------

    /// Scan entries within the bounds in key order — the B⁺-tree range
    /// selection of Section 4(1): O(log n) to locate the start, then one
    /// step per reported entry along the leaf chain.
    pub fn range<'a>(&'a self, lo: Bound<&'a K>, hi: Bound<&'a K>) -> RangeIter<'a, K, V> {
        let (leaf, pos) = match lo {
            Bound::Unbounded => (self.first_leaf, 0),
            Bound::Included(k) => self.leaf_position(k, false),
            Bound::Excluded(k) => self.leaf_position(k, true),
        };
        RangeIter {
            tree: self,
            leaf: Some(leaf),
            pos,
            hi,
        }
    }

    /// All entries in key order.
    pub fn iter(&self) -> RangeIter<'_, K, V> {
        self.range(Bound::Unbounded, Bound::Unbounded)
    }

    /// Is any key within the bounds? The Boolean range query of Section
    /// 4(1): O(log n).
    pub fn any_in_range(&self, lo: Bound<&K>, hi: Bound<&K>) -> bool {
        self.range(lo, hi).next().is_some()
    }

    /// Locate the leaf and in-leaf position of the first key `> k`
    /// (`exclusive = true`) or `≥ k` (`exclusive = false`).
    fn leaf_position(&self, k: &K, exclusive: bool) -> (usize, usize) {
        let mut idx = self.root;
        loop {
            match &self.nodes[idx] {
                Node::Internal { keys, children } => {
                    let pos = keys.partition_point(|s| s <= k);
                    idx = children[pos];
                }
                Node::Leaf { keys, .. } => return (idx, leaf_start(keys, k, exclusive)),
                Node::Free => unreachable!("free node reached from root"),
            }
        }
    }

    // ------------------------------------------------------------------
    // Structural audit
    // ------------------------------------------------------------------

    /// Verify every structural invariant; returns a description of the
    /// first violation. Run by the property-based tests after every
    /// operation batch.
    ///
    /// Checked: key ordering within nodes, separator windows, child counts,
    /// minimum occupancy (non-root), uniform leaf depth, leaf-chain
    /// completeness and order, stored length, and absence of reachable
    /// `Free` nodes.
    pub fn check_invariants(&self) -> Result<(), String>
    where
        K: fmt::Debug,
    {
        let mut leaves = Vec::new();
        let (depth, count) = self.check_rec(self.root, None, None, true, &mut leaves)?;
        let _ = depth;
        if count != self.len {
            return Err(format!("len says {} but leaves hold {count}", self.len));
        }
        // Leaf chain must visit exactly the leaves, in order.
        if leaves.is_empty() {
            return Err("tree must always have at least one leaf".into());
        }
        if self.first_leaf != leaves[0] {
            return Err(format!(
                "first_leaf is {} but leftmost leaf is {}",
                self.first_leaf, leaves[0]
            ));
        }
        let mut chain = Vec::new();
        let mut cur = Some(self.first_leaf);
        while let Some(idx) = cur {
            chain.push(idx);
            if chain.len() > self.nodes.len() {
                return Err("leaf chain contains a cycle".into());
            }
            cur = match &self.nodes[idx] {
                Node::Leaf { next, .. } => *next,
                _ => return Err(format!("leaf chain reaches non-leaf node {idx}")),
            };
        }
        if chain != leaves {
            return Err(format!(
                "leaf chain {chain:?} disagrees with tree order {leaves:?}"
            ));
        }
        Ok(())
    }

    fn check_rec(
        &self,
        idx: usize,
        lo: Option<&K>,
        hi: Option<&K>,
        is_root: bool,
        leaves: &mut Vec<usize>,
    ) -> Result<(usize, usize), String>
    where
        K: fmt::Debug,
    {
        match &self.nodes[idx] {
            Node::Free => Err(format!("reachable free node {idx}")),
            Node::Leaf { keys, vals, .. } => {
                if keys.len() != vals.len() {
                    return Err(format!(
                        "leaf {idx}: {} keys, {} vals",
                        keys.len(),
                        vals.len()
                    ));
                }
                if !is_root && keys.len() < self.min_keys() {
                    return Err(format!(
                        "leaf {idx} underfull: {} < {}",
                        keys.len(),
                        self.min_keys()
                    ));
                }
                if keys.len() > self.order {
                    return Err(format!("leaf {idx} overfull: {}", keys.len()));
                }
                if !keys.windows(2).all(|w| w[0] < w[1]) {
                    return Err(format!("leaf {idx} keys not strictly sorted"));
                }
                for k in keys {
                    if let Some(lo) = lo {
                        if k < lo {
                            return Err(format!("leaf {idx}: key {k:?} below window"));
                        }
                    }
                    if let Some(hi) = hi {
                        if k >= hi {
                            return Err(format!("leaf {idx}: key {k:?} at/above window"));
                        }
                    }
                }
                leaves.push(idx);
                Ok((1, keys.len()))
            }
            Node::Internal { keys, children } => {
                if children.len() != keys.len() + 1 {
                    return Err(format!(
                        "internal {idx}: {} keys but {} children",
                        keys.len(),
                        children.len()
                    ));
                }
                let min = if is_root { 1 } else { self.min_keys() };
                if keys.len() < min {
                    return Err(format!("internal {idx} underfull: {} < {min}", keys.len()));
                }
                if keys.len() > self.order {
                    return Err(format!("internal {idx} overfull: {}", keys.len()));
                }
                if !keys.windows(2).all(|w| w[0] < w[1]) {
                    return Err(format!("internal {idx} keys not strictly sorted"));
                }
                let mut depth = None;
                let mut count = 0;
                for (i, &child) in children.iter().enumerate() {
                    let child_lo = if i == 0 { lo } else { Some(&keys[i - 1]) };
                    let child_hi = if i == keys.len() { hi } else { Some(&keys[i]) };
                    let (d, c) = self.check_rec(child, child_lo, child_hi, false, leaves)?;
                    count += c;
                    match depth {
                        None => depth = Some(d),
                        Some(d0) if d0 != d => {
                            return Err(format!("internal {idx}: ragged depth {d0} vs {d}"));
                        }
                        _ => {}
                    }
                }
                Ok((depth.expect("internal has children") + 1, count))
            }
        }
    }
}

impl<K: Ord + Clone, V> Default for BPlusTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Clone + fmt::Debug, V: fmt::Debug> fmt::Debug for BPlusTree<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BPlusTree")
            .field("len", &self.len)
            .field("order", &self.order)
            .field("height", &self.height())
            .finish()
    }
}

/// Ordered iterator over a key range, walking the leaf chain.
pub struct RangeIter<'a, K, V> {
    tree: &'a BPlusTree<K, V>,
    leaf: Option<usize>,
    pos: usize,
    hi: Bound<&'a K>,
}

impl<'a, K: Ord + Clone, V> Iterator for RangeIter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let leaf = self.leaf?;
            match &self.tree.nodes[leaf] {
                Node::Leaf { keys, vals, next } => {
                    if self.pos >= keys.len() {
                        self.leaf = *next;
                        self.pos = 0;
                        continue;
                    }
                    let k = &keys[self.pos];
                    let stop = match self.hi {
                        Bound::Unbounded => false,
                        Bound::Included(h) => k > h,
                        Bound::Excluded(h) => k >= h,
                    };
                    if stop {
                        self.leaf = None;
                        return None;
                    }
                    let v = &vals[self.pos];
                    self.pos += 1;
                    return Some((k, v));
                }
                _ => unreachable!("leaf chain reaches non-leaf"),
            }
        }
    }
}

/// Where a range bounded below by `key` starts in a leaf holding
/// `keys`: at the first key `> key` (`exclusive`) or `≥ key`.
fn leaf_start<K: Ord>(keys: &[K], key: &K, exclusive: bool) -> usize {
    if exclusive {
        keys.partition_point(|x| x <= key)
    } else {
        keys.partition_point(|x| x < key)
    }
}

/// The leaf one probe of [`BPlusTree::descend_many`] reached, with the
/// separator comparisons spent on the way: the search it started ends
/// here.
pub struct Leaf<'a, K, V> {
    tree: &'a BPlusTree<K, V>,
    node: usize,
    steps: u64,
}

impl<'a, K: Ord + Clone, V> Leaf<'a, K, V> {
    /// Finish a point search for `key`, the start the probe descended
    /// with: what [`BPlusTree::get_metered`] returns, and the
    /// comparisons it ticks.
    pub fn get(self, key: &K) -> (Option<&'a V>, u64) {
        let Node::Leaf { keys, vals, .. } = &self.tree.nodes[self.node] else {
            unreachable!("descents end at a leaf");
        };
        let mut steps = self.steps;
        let hit = counted_eq_search(keys, key, &mut steps).map(|p| &vals[p]);
        (hit, steps)
    }

    /// Finish a range search bounded below by `lo`, the start the probe
    /// descended with: the iterator [`BPlusTree::range`] returns for
    /// `(lo, hi)`.
    pub fn range(self, lo: Bound<&K>, hi: Bound<&'a K>) -> RangeIter<'a, K, V> {
        let Node::Leaf { keys, .. } = &self.tree.nodes[self.node] else {
            unreachable!("descents end at a leaf");
        };
        let pos = match lo {
            Bound::Included(key) => leaf_start(keys, key, false),
            Bound::Excluded(key) => leaf_start(keys, key, true),
            Bound::Unbounded => 0,
        };
        RangeIter {
            tree: self.tree,
            leaf: Some(self.node),
            pos,
            hi,
        }
    }
}

/// Binary search for `partition_point(|k| k <= key)` counting one step
/// per comparison. The bounds move by arithmetic on the comparison's
/// outcome, not by a branch on it: a descent's comparisons are a coin
/// toss to the branch predictor.
fn counted_upper_bound<K: Ord>(keys: &[K], key: &K, steps: &mut u64) -> usize {
    let mut lo = 0usize;
    let mut hi = keys.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        *steps += 1;
        let le = usize::from(keys[mid] <= *key);
        lo += le * (mid + 1 - lo);
        hi = mid + le * (hi - mid);
    }
    lo
}

/// Exact-match binary search counting one step per comparison; the
/// bounds move as in `counted_upper_bound`.
fn counted_eq_search<K: Ord>(keys: &[K], key: &K, steps: &mut u64) -> Option<usize> {
    let mut lo = 0usize;
    let mut hi = keys.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        *steps += 1;
        let order = keys[mid].cmp(key);
        if order.is_eq() {
            return Some(mid);
        }
        let less = usize::from(order.is_lt());
        lo += less * (mid + 1 - lo);
        hi = mid + less * (hi - mid);
    }
    None
}

/// Bytes in an x86_64 cache line.
const LINE: usize = 64;

/// Cache lines of a node's key buffer [`prefetch_lines`] hints: all of
/// a full `i64` node of [`DEFAULT_ORDER`] keys.
const PREFETCH_LINES: usize = 4;

/// Hint the first [`PREFETCH_LINES`] cache lines of `keys` into cache.
fn prefetch_lines<K>(keys: &[K]) {
    let bytes = std::mem::size_of_val(keys).min(PREFETCH_LINES * LINE);
    let start = keys.as_ptr().cast::<u8>();
    for offset in (0..bytes).step_by(LINE) {
        prefetch(start.wrapping_add(offset));
    }
}

/// Hint the cache line holding `*p` into L1 — the one `unsafe` block of
/// the workspace.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[inline(always)]
fn prefetch<T>(p: *const T) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    // SAFETY: a prefetch is a hint: it never faults, whatever the
    // address, and reads nothing into Rust, so no pointer validity is
    // required. SSE, which provides it, is baseline on x86_64.
    unsafe { _mm_prefetch::<_MM_HINT_T0>(p.cast::<i8>()) }
}

/// Off x86_64 the hint is a no-op; nothing depends on it but speed.
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn prefetch<T>(_: *const T) {}

#[cfg(test)]
mod tests {
    use super::*;
    use pitract_core::cost::{assert_steps_within, CostClass, Meter};
    use std::collections::BTreeMap;

    fn assert_ok<V>(tree: &BPlusTree<u64, V>) {
        if let Err(e) = tree.check_invariants() {
            panic!("invariant violation: {e}");
        }
    }

    /// The branching binary searches the counted ones replaced.
    fn branching_searches(keys: &[i64], key: i64) -> ((usize, u64), (Option<usize>, u64)) {
        let (mut lo, mut hi, mut steps) = (0, keys.len(), 0);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            steps += 1;
            if keys[mid] <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let upper = (lo, steps);
        let (mut lo, mut hi, mut steps) = (0, keys.len(), 0);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            steps += 1;
            match keys[mid].cmp(&key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return (upper, (Some(mid), steps)),
            }
        }
        (upper, (None, steps))
    }

    #[test]
    fn counted_searches_answer_and_count_like_branching_ones() {
        for len in 0..=40i64 {
            let keys: Vec<i64> = (0..len).map(|k| 2 * k).collect();
            for key in -1..=2 * len + 1 {
                let (mut upper_steps, mut eq_steps) = (0, 0);
                let upper = counted_upper_bound(&keys, &key, &mut upper_steps);
                let eq = counted_eq_search(&keys, &key, &mut eq_steps);
                assert_eq!(
                    ((upper, upper_steps), (eq, eq_steps)),
                    branching_searches(&keys, key),
                    "{len} keys, probe {key}"
                );
                assert_eq!(upper, keys.partition_point(|&k| k <= key));
            }
        }
    }

    #[test]
    fn empty_tree_basics() {
        let tree: BPlusTree<u64, u64> = BPlusTree::new();
        assert!(tree.is_empty());
        assert_eq!(tree.get(&1), None);
        assert_eq!(tree.height(), 1);
        assert_ok(&tree);
    }

    #[test]
    fn insert_get_replace() {
        let mut tree = BPlusTree::with_order(4);
        assert_eq!(tree.insert(1, 10), None);
        assert_eq!(tree.insert(2, 20), None);
        assert_eq!(tree.insert(1, 11), Some(10));
        assert_eq!(tree.len(), 2);
        assert_eq!(tree.get(&1), Some(&11));
        assert_eq!(tree.get(&3), None);
        assert_ok(&tree);
    }

    #[test]
    fn upsert_merges_hits_and_inserts_misses() {
        // Posting-list shape: the value under a key collects every id
        // upserted there, through splits at a small order.
        let mut tree: BPlusTree<u64, Vec<u64>> = BPlusTree::with_order(4);
        let mut reference: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for id in 0..600u64 {
            let key = (id * 7919) % 97;
            let merged = tree.upsert(key, vec![id], |have, new| {
                have.extend(new);
                have.len()
            });
            let posting = reference.entry(key).or_default();
            posting.push(id);
            // `None` on a miss; what `merge` returned on a hit.
            assert_eq!(merged, (posting.len() > 1).then_some(posting.len()));
        }
        assert_eq!(tree.len(), reference.len());
        assert_ok(&tree);
        let got: Vec<(u64, Vec<u64>)> = tree.iter().map(|(k, v)| (*k, v.clone())).collect();
        assert_eq!(got, reference.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn remove_if_edits_in_place_and_removes_only_when_told() {
        let mut tree: BPlusTree<u64, Vec<u64>> = BPlusTree::with_order(4);
        for key in 0..100u64 {
            tree.insert(key, vec![key, key + 1000]);
        }
        // Pop one id per call: the first call edits, the second empties.
        let pop = |posting: &mut Vec<u64>| {
            posting.pop();
            posting.is_empty()
        };
        for key in (0..100u64).step_by(3) {
            assert_eq!(tree.remove_if(&key, pop), None);
            assert_eq!(tree.get(&key), Some(&vec![key]), "edited, kept");
            assert_eq!(tree.remove_if(&key, pop), Some(vec![]));
            assert_eq!(tree.get(&key), None);
            assert_ok(&tree);
        }
        assert_eq!(tree.len(), 66);
        assert_eq!(tree.remove_if(&1000, |_| true), None, "a missing key");
    }

    #[test]
    fn sequential_inserts_split_correctly() {
        let mut tree = BPlusTree::with_order(4);
        for i in 0..1000u64 {
            tree.insert(i, i * 2);
        }
        assert_eq!(tree.len(), 1000);
        assert!(tree.height() > 2, "splits must have happened");
        for i in 0..1000u64 {
            assert_eq!(tree.get(&i), Some(&(i * 2)), "key {i}");
        }
        assert_eq!(tree.get(&1000), None);
        assert_ok(&tree);
    }

    #[test]
    fn reverse_and_shuffled_inserts() {
        for order in [3usize, 4, 5, 8, 32] {
            let mut tree = BPlusTree::with_order(order);
            let keys: Vec<u64> = (0..500).map(|i| (i * 7919) % 500).collect();
            for &k in &keys {
                tree.insert(k, k);
            }
            assert_eq!(tree.len(), 500, "order {order}");
            for k in 0..500u64 {
                assert_eq!(tree.get(&k), Some(&k), "order {order} key {k}");
            }
            assert_ok(&tree);
        }
    }

    #[test]
    fn iteration_is_sorted_and_complete() {
        let mut tree = BPlusTree::with_order(5);
        let keys: Vec<u64> = (0..300).map(|i| (i * 2654435761) % 1000).collect();
        let mut expect: Vec<u64> = keys.clone();
        expect.sort_unstable();
        expect.dedup();
        for &k in &keys {
            tree.insert(k, k + 1);
        }
        let got: Vec<u64> = tree.iter().map(|(k, _)| *k).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn range_scans_match_btreemap() {
        let mut tree = BPlusTree::with_order(4);
        let mut reference = BTreeMap::new();
        for i in 0..500u64 {
            let k = (i * 37) % 997;
            tree.insert(k, i);
            reference.insert(k, i);
        }
        let cases = [
            (Bound::Included(100u64), Bound::Included(300u64)),
            (Bound::Excluded(100), Bound::Excluded(300)),
            (Bound::Included(0), Bound::Included(0)),
            (Bound::Excluded(996), Bound::Unbounded),
            (Bound::Unbounded, Bound::Excluded(50)),
            (Bound::Unbounded, Bound::Unbounded),
            (Bound::Included(500), Bound::Included(400)), // inverted: empty
        ];
        for (lo, hi) in cases {
            let got: Vec<(u64, u64)> = tree
                .range(as_ref(&lo), as_ref(&hi))
                .map(|(k, v)| (*k, *v))
                .collect();
            let expect: Vec<(u64, u64)> = reference
                .iter()
                .filter(|(k, _)| in_bounds(**k, &lo, &hi))
                .map(|(k, v)| (*k, *v))
                .collect();
            assert_eq!(got, expect, "bounds {lo:?}..{hi:?}");
        }

        fn as_ref(b: &Bound<u64>) -> Bound<&u64> {
            match b {
                Bound::Included(k) => Bound::Included(k),
                Bound::Excluded(k) => Bound::Excluded(k),
                Bound::Unbounded => Bound::Unbounded,
            }
        }
        fn in_bounds(k: u64, lo: &Bound<u64>, hi: &Bound<u64>) -> bool {
            (match lo {
                Bound::Included(l) => k >= *l,
                Bound::Excluded(l) => k > *l,
                Bound::Unbounded => true,
            }) && (match hi {
                Bound::Included(h) => k <= *h,
                Bound::Excluded(h) => k < *h,
                Bound::Unbounded => true,
            })
        }
    }

    #[test]
    fn any_in_range_boolean_query() {
        let tree = BPlusTree::build((0..100u64).map(|i| (i * 10, i)));
        assert!(tree.any_in_range(Bound::Included(&15), Bound::Included(&25)));
        assert!(!tree.any_in_range(Bound::Included(&11), Bound::Included(&19)));
        assert!(tree.any_in_range(Bound::Unbounded, Bound::Unbounded));
    }

    #[test]
    fn remove_simple_and_missing() {
        let mut tree = BPlusTree::with_order(4);
        for i in 0..10u64 {
            tree.insert(i, i);
        }
        assert_eq!(tree.remove(&3), Some(3));
        assert_eq!(tree.remove(&3), None);
        assert_eq!(tree.remove(&100), None);
        assert_eq!(tree.len(), 9);
        assert_eq!(tree.get(&3), None);
        assert_ok(&tree);
    }

    #[test]
    fn remove_everything_in_order() {
        let mut tree = BPlusTree::with_order(4);
        for i in 0..200u64 {
            tree.insert(i, i);
        }
        for i in 0..200u64 {
            assert_eq!(tree.remove(&i), Some(i), "removing {i}");
            assert_ok(&tree);
        }
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 1);
    }

    #[test]
    fn remove_everything_reverse_order() {
        let mut tree = BPlusTree::with_order(3);
        for i in 0..200u64 {
            tree.insert(i, i);
        }
        for i in (0..200u64).rev() {
            assert_eq!(tree.remove(&i), Some(i), "removing {i}");
            assert_ok(&tree);
        }
        assert!(tree.is_empty());
    }

    #[test]
    fn interleaved_inserts_and_removes_match_btreemap() {
        let mut tree = BPlusTree::with_order(4);
        let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
        let mut state = 12345u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..3000 {
            let k = rnd() % 200;
            if rnd() % 3 == 0 {
                assert_eq!(tree.remove(&k), reference.remove(&k), "step {step}");
            } else {
                let v = rnd();
                assert_eq!(tree.insert(k, v), reference.insert(k, v), "step {step}");
            }
            assert_eq!(tree.len(), reference.len(), "step {step}");
        }
        assert_ok(&tree);
        let got: Vec<(u64, u64)> = tree.iter().map(|(k, v)| (*k, *v)).collect();
        let expect: Vec<(u64, u64)> = reference.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn metered_lookup_is_logarithmic() {
        let n = 1u64 << 16;
        let tree = BPlusTree::build((0..n).map(|i| (i, i)));
        let meter = Meter::new();
        for q in [0u64, 1, n / 3, n / 2, n - 1, n + 7] {
            meter.take();
            tree.get_metered(&q, &meter);
            // height * log2(order) comparisons: comfortably O(log n).
            assert_steps_within(meter.steps(), CostClass::Log, n, 3.0);
        }
    }

    #[test]
    fn metered_and_plain_get_agree() {
        let tree = BPlusTree::build((0..1000u64).map(|i| (i * 3, i)));
        let meter = Meter::new();
        for q in 0..3100u64 {
            assert_eq!(tree.get(&q), tree.get_metered(&q, &meter), "q={q}");
        }
    }

    #[test]
    fn node_slots_are_recycled() {
        let mut tree = BPlusTree::with_order(3);
        for round in 0..5 {
            for i in 0..100u64 {
                tree.insert(i, i);
            }
            for i in 0..100u64 {
                tree.remove(&i);
            }
            assert!(tree.is_empty(), "round {round}");
        }
        // Five grow/shrink cycles must not grow the arena five-fold.
        assert!(
            tree.nodes.len() < 300,
            "arena grew to {} slots — free list unused?",
            tree.nodes.len()
        );
    }

    #[test]
    #[should_panic(expected = "order must be at least 3")]
    fn tiny_order_rejected() {
        let _ = BPlusTree::<u64, u64>::with_order(2);
    }

    // ------------------------------------------------------------------
    // Bulk loading
    // ------------------------------------------------------------------

    #[test]
    fn bulk_load_matches_incremental_build() {
        for n in [0usize, 1, 2, 5, 21, 22, 100, 1000, 4096] {
            for order in [3usize, 4, 8, 32] {
                let entries: Vec<(u64, u64)> = (0..n as u64).map(|i| (i * 3, i)).collect();
                let bulk = BPlusTree::bulk_load_with_order(order, entries.clone());
                assert_eq!(bulk.len(), n, "n={n} order={order}");
                if let Err(e) = bulk.check_invariants() {
                    panic!("bulk invariants (n={n}, order={order}): {e}");
                }
                let got: Vec<(u64, u64)> = bulk.iter().map(|(k, v)| (*k, *v)).collect();
                assert_eq!(got, entries, "n={n} order={order}");
                // Spot probes.
                if n > 0 {
                    assert_eq!(bulk.get(&0), Some(&0));
                    assert_eq!(bulk.get(&((n as u64 - 1) * 3)), Some(&(n as u64 - 1)));
                    assert_eq!(bulk.get(&1), None);
                }
            }
        }
    }

    #[test]
    fn bulk_loaded_tree_supports_mutation() {
        let entries: Vec<(u64, u64)> = (0..500u64).map(|i| (i * 2, i)).collect();
        let mut tree = BPlusTree::bulk_load_with_order(5, entries);
        for i in 0..500u64 {
            tree.insert(i * 2 + 1, i);
        }
        assert_eq!(tree.len(), 1000);
        for i in (0..1000u64).step_by(3) {
            tree.remove(&i);
        }
        assert_ok(&tree);
        let keys: Vec<u64> = tree.iter().map(|(k, _)| *k).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn bulk_load_rejects_unsorted_input() {
        let _ = BPlusTree::bulk_load(vec![(2u64, 0u64), (1, 0)]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn bulk_load_rejects_duplicate_keys() {
        let _ = BPlusTree::bulk_load(vec![(1u64, 0u64), (1, 1)]);
    }

    // ------------------------------------------------------------------
    // Failure injection: the invariant auditor must catch corruption.
    // ------------------------------------------------------------------

    #[test]
    fn auditor_catches_length_lies() {
        let mut tree = BPlusTree::build((0..100u64).map(|i| (i, i)));
        tree.len += 1;
        let err = tree.check_invariants().unwrap_err();
        assert!(err.contains("len says"), "unexpected error: {err}");
    }

    #[test]
    fn auditor_catches_unsorted_leaf_keys() {
        let mut tree = BPlusTree::with_order(8);
        for i in 0..6u64 {
            tree.insert(i, i);
        }
        // Single-leaf tree: swap two keys in place.
        if let Node::Leaf { keys, .. } = &mut tree.nodes[tree.root] {
            keys.swap(0, 1);
        }
        let err = tree.check_invariants().unwrap_err();
        assert!(err.contains("sorted"), "unexpected error: {err}");
    }

    #[test]
    fn auditor_catches_broken_leaf_chain() {
        let mut tree = BPlusTree::with_order(3);
        for i in 0..50u64 {
            tree.insert(i, i);
        }
        // Sever the chain at the first leaf.
        let first = tree.first_leaf;
        if let Node::Leaf { next, .. } = &mut tree.nodes[first] {
            *next = None;
        }
        let err = tree.check_invariants().unwrap_err();
        assert!(err.contains("chain"), "unexpected error: {err}");
    }

    #[test]
    fn auditor_catches_wrong_first_leaf() {
        let mut tree = BPlusTree::with_order(3);
        for i in 0..50u64 {
            tree.insert(i, i);
        }
        tree.first_leaf = tree.root; // the root is internal here
        let err = tree.check_invariants().unwrap_err();
        assert!(
            err.contains("first_leaf") || err.contains("chain"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn auditor_catches_separator_violations() {
        let mut tree = BPlusTree::with_order(3);
        for i in 0..50u64 {
            tree.insert(i, i);
        }
        // Plant an out-of-window key in the leftmost leaf.
        let first = tree.first_leaf;
        if let Node::Leaf { keys, .. } = &mut tree.nodes[first] {
            let last = keys.len() - 1;
            keys[last] = 999; // beyond every separator above it
        }
        let err = tree.check_invariants().unwrap_err();
        assert!(
            err.contains("window") || err.contains("sorted"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn string_keys_work() {
        let mut tree: BPlusTree<String, usize> = BPlusTree::with_order(4);
        for w in ["pear", "apple", "fig", "date", "cherry", "banana"] {
            tree.insert(w.to_string(), w.len());
        }
        assert_eq!(tree.get(&"fig".to_string()), Some(&3));
        let words: Vec<String> = tree.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(
            words,
            vec!["apple", "banana", "cherry", "date", "fig", "pear"]
        );
    }
}
