//! A directory of named snapshots — the deployment-facing API.
//!
//! A [`SnapshotCatalog`] maps names to `<name>.snap` files in one
//! [`Dir`]. Saves stream through [`Dir::write_atomic_with`], so a catalog is never
//! observed with a half-written snapshot under a final name, and a
//! crashed writer leaves at worst a `.tmp` file that no load reads.
//! Names are restricted to a filesystem-safe alphabet so a name can
//! never escape the catalog directory. Snapshots reach storage only
//! through [`SnapshotCatalog::open`], [`SnapshotCatalog::save`],
//! [`SnapshotCatalog::save_checkpoint`] and [`SnapshotCatalog::load`].

use crate::codec::Writer;
use crate::error::StoreError;
use crate::snapshot::Snapshot;
use crate::storage::Dir;
use pitract_core::epoch::Epoch;
use pitract_engine::LiveRelation;
use std::path::PathBuf;
use std::sync::Arc;

/// File extension for catalog snapshots.
const EXT: &str = "snap";

/// A directory of named snapshots.
#[derive(Debug, Clone)]
pub struct SnapshotCatalog {
    dir: Dir,
}

impl SnapshotCatalog {
    /// Open (creating if needed) a catalog directory.
    pub fn open(dir: impl Into<Dir>) -> Result<Self, StoreError> {
        let dir = dir.into();
        dir.create_dir_all()?;
        Ok(SnapshotCatalog { dir })
    }

    /// The file holding snapshot `name`. Names must be nonempty, use only
    /// `[A-Za-z0-9._-]`, and not start with a dot — which rules out path
    /// separators, `..` traversal, and hidden / temp-file collisions.
    fn file_of(name: &str) -> Result<String, StoreError> {
        let allowed = |c: char| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-');
        if name.is_empty() || name.starts_with('.') || !name.chars().all(allowed) {
            return Err(StoreError::InvalidName(name.to_string()));
        }
        Ok(format!("{name}.{EXT}"))
    }

    /// Persist a snapshot under `name`, atomically replacing any previous
    /// snapshot with that name. The file is streamed through one chunk
    /// ([`Dir::write_atomic_with`]). Returns the file path written.
    pub fn save(&self, name: &str, snapshot: &Snapshot) -> Result<PathBuf, StoreError> {
        let file = Self::file_of(name)?;
        let path = self.dir.write_atomic_with(&file, |out| {
            snapshot.write_to(Writer::to_file(Arc::clone(out)))
        })?;
        Ok(path)
    }

    /// Persist a checkpoint of `live` under `name`, atomically replacing
    /// any previous snapshot with that name. Epoch `e` is pinned
    /// ([`LiveRelation::pin_read`]); each shard's body is encoded at `e`
    /// under that shard's read lock alone and the id map at `e` under its
    /// own, then the WAL mark `wal_lsn(e)` and `e`. The bytes are those
    /// of a [`Snapshot`] holding the relation's state at `e` and the mark
    /// `(wal_lsn(e), e)`,
    /// and no shard, tree or id map is copied to get them: they stream
    /// to the file through one chunk, so a shard's chunks are appended
    /// under its lock. The pin is released before the file is flushed
    /// and renamed. Returns the file path written and `e`.
    pub fn save_checkpoint(
        &self,
        name: &str,
        live: &LiveRelation,
        wal_lsn: impl FnOnce(Epoch) -> u64,
    ) -> Result<(PathBuf, Epoch), StoreError> {
        let file = Self::file_of(name)?;
        let mut epoch = Epoch::ZERO;
        let path = self.dir.write_atomic_with(&file, |out| {
            let out = Writer::to_file(Arc::clone(out));
            epoch = Snapshot::write_checkpoint(live, wal_lsn, out)?;
            Ok(())
        })?;
        Ok((path, epoch))
    }

    /// Load the snapshot stored under `name`.
    pub fn load(&self, name: &str) -> Result<Snapshot, StoreError> {
        Snapshot::from_bytes(&self.dir.read(&Self::file_of(name)?, 0)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pitract_engine::{ShardBy, ShardedRelation};
    use pitract_relation::{ColType, Relation, Schema, SelectionQuery, Value};

    /// An unsharded relation of `n` rows: one shard.
    fn small(n: i64) -> Snapshot {
        let schema = Schema::new(&[("id", ColType::Int)]);
        let rows = (0..n).map(|i| vec![Value::Int(i)]).collect();
        let rel = Relation::from_rows(schema, rows).unwrap();
        Snapshot::from(ShardedRelation::build(&rel, ShardBy::Hash { col: 0 }, 1, &[0]).unwrap())
    }

    #[test]
    fn save_load_workflow() {
        let catalog = SnapshotCatalog::open(Dir::memory()).unwrap();
        catalog.save("alpha", &small(10)).unwrap();
        catalog.save("beta.v2", &small(20)).unwrap();
        let alpha = catalog.load("alpha").unwrap();
        assert_eq!((alpha.state.shard_count(), alpha.mark), (1, None));
        let loaded = catalog.load("beta.v2").unwrap().state;
        assert_eq!(loaded.len(), 20);
        assert!(loaded.answer(&SelectionQuery::point(0, 19i64)));
        assert!(matches!(catalog.load("gamma"), Err(StoreError::Io(_))));
    }

    #[test]
    fn save_overwrites_atomically() {
        let dir = Dir::memory();
        let catalog = SnapshotCatalog::open(&dir).unwrap();
        catalog.save("rel", &small(5)).unwrap();
        catalog.save("rel", &small(50)).unwrap();
        assert_eq!(catalog.load("rel").unwrap().state.len(), 50);
        // No stray temp files after successful saves.
        assert_eq!(dir.list().unwrap(), ["rel.snap"]);
    }

    #[test]
    fn traversal_and_hidden_names_are_rejected() {
        let catalog = SnapshotCatalog::open(Dir::memory()).unwrap();
        let snap = small(1);
        for bad in ["", "../escape", "a/b", "a\\b", ".hidden", "..", "nul\0"] {
            assert!(
                matches!(catalog.save(bad, &snap), Err(StoreError::InvalidName(_))),
                "{bad:?} accepted"
            );
        }
        for good in ["a", "big-rel_v2.1", "UPPER", "0"] {
            assert!(catalog.save(good, &snap).is_ok(), "{good:?} rejected");
        }
    }
}
