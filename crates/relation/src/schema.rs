//! Relation schemas: named, typed columns.

use crate::columns::Tuple;
use crate::value::ValueRef;

/// Column type tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColType {
    /// 64-bit integers.
    Int,
    /// UTF-8 strings.
    Str,
}

impl ColType {
    /// Does a value inhabit this type?
    pub fn admits(self, v: ValueRef<'_>) -> bool {
        matches!(
            (self, v),
            (ColType::Int, ValueRef::Int(_)) | (ColType::Str, ValueRef::Str(_))
        )
    }
}

/// A relation schema: ordered list of `(name, type)` columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<(String, ColType)>,
}

impl Schema {
    /// Build a schema; column names must be distinct and nonempty.
    pub fn new(columns: &[(&str, ColType)]) -> Self {
        let mut seen = std::collections::HashSet::new();
        for (name, _) in columns {
            assert!(!name.is_empty(), "empty column name");
            assert!(seen.insert(*name), "duplicate column name {name:?}");
        }
        Schema {
            columns: columns.iter().map(|(n, t)| (n.to_string(), *t)).collect(),
        }
    }

    /// Number of columns (arity).
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Column index by name.
    pub fn col(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|(n, _)| n == name)
    }

    /// Column name by index.
    pub fn name(&self, col: usize) -> &str {
        &self.columns[col].0
    }

    /// Column type by index.
    pub fn col_type(&self, col: usize) -> ColType {
        self.columns[col].1
    }

    /// Validate a tuple — owned values or a borrowed row — against the
    /// schema.
    pub fn admits(&self, tuple: impl Tuple) -> Result<(), String> {
        if tuple.arity() != self.arity() {
            return Err(format!(
                "arity mismatch: tuple has {} values, schema has {} columns",
                tuple.arity(),
                self.arity()
            ));
        }
        for (i, (name, col_type)) in self.columns.iter().enumerate() {
            let v = tuple.cell(i);
            if !col_type.admits(v) {
                return Err(format!("type mismatch in column {name:?}: value {v}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn people() -> Schema {
        Schema::new(&[("id", ColType::Int), ("name", ColType::Str)])
    }

    #[test]
    fn lookup_by_name_and_index() {
        let s = people();
        assert_eq!(s.arity(), 2);
        assert_eq!(s.col("id"), Some(0));
        assert_eq!(s.col("name"), Some(1));
        assert_eq!(s.col("missing"), None);
        assert_eq!(s.name(1), "name");
        assert_eq!(s.col_type(0), ColType::Int);
    }

    #[test]
    fn admits_validates_arity_and_types() {
        let s = people();
        assert!(s.admits(&[Value::Int(1), Value::str("ada")]).is_ok());
        assert!(s.admits(&[Value::Int(1)]).is_err());
        assert!(s.admits(&[Value::str("x"), Value::str("y")]).is_err());
        assert!(s
            .admits(&[Value::Int(1), Value::str("a"), Value::Int(2)])
            .is_err());
    }

    #[test]
    #[should_panic(expected = "duplicate column name")]
    fn duplicate_names_rejected() {
        Schema::new(&[("a", ColType::Int), ("a", ColType::Str)]);
    }

    #[test]
    #[should_panic(expected = "empty column name")]
    fn empty_name_rejected() {
        Schema::new(&[("", ColType::Int)]);
    }
}
