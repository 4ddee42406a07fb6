//! Compact, arena-backed row storage for operator pipelines.
//!
//! A [`RowSet`] is the unit every physical operator in [`crate::exec`]
//! consumes and produces. It stores fixed-arity rows of dictionary ids
//! ([`Vid`]s of the database's [`Interner`]) in one flat `Vec<Vid>` arena
//! and addresses them by index (`row r` is
//! `&vids[r * arity .. (r + 1) * arity]`): one allocation per *batch*
//! instead of one per *row*, four bytes per cell whatever the value's
//! payload, and per-thread partial results merge with a single
//! `Vec::append`. Cells are resolved to ids once, at the scan; values are
//! built again once, at the query's output ([`RowSet::into_pairs`]).

use crate::intern::{Interner, Vid};
use crate::value::Value;
use graphgen_common::ByteSize;

/// A batch of fixed-arity rows in one flat dictionary-id arena.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RowSet {
    arity: usize,
    rows: usize,
    vids: Vec<Vid>,
}

impl RowSet {
    /// An empty row set of the given arity.
    pub fn new(arity: usize) -> Self {
        Self {
            arity,
            rows: 0,
            vids: Vec::new(),
        }
    }

    /// An empty row set with arena capacity reserved for `rows` rows.
    pub fn with_row_capacity(arity: usize, rows: usize) -> Self {
        Self {
            arity,
            rows: 0,
            vids: Vec::with_capacity(arity * rows),
        }
    }

    /// Build from materialized id rows (tests). Panics if any row's length
    /// differs from `arity`.
    pub fn from_rows<I, R>(arity: usize, rows: I) -> Self
    where
        I: IntoIterator<Item = R>,
        R: AsRef<[Vid]>,
    {
        let mut out = Self::new(arity);
        for row in rows {
            out.push_row_from(row.as_ref());
        }
        out
    }

    /// Number of ids per row.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Row `r` as an id slice.
    pub fn row(&self, r: usize) -> &[Vid] {
        &self.vids[r * self.arity..r * self.arity + self.arity]
    }

    /// Iterate rows as id slices, in row order.
    pub fn iter(&self) -> impl Iterator<Item = &[Vid]> + '_ {
        (0..self.rows).map(move |r| self.row(r))
    }

    /// Append one row given as an iterator of ids.
    ///
    /// # Panics
    /// If the iterator does not yield exactly `arity` ids — a misaligned
    /// arena would silently corrupt every later row, so this is a hard
    /// check (one integer compare per row).
    pub fn push_row<I: IntoIterator<Item = Vid>>(&mut self, row: I) {
        let before = self.vids.len();
        self.vids.extend(row);
        assert_eq!(self.vids.len() - before, self.arity, "row arity");
        self.rows += 1;
    }

    /// Append one row by copying an id slice.
    ///
    /// # Panics
    /// If `row.len() != arity` (see [`RowSet::push_row`]).
    pub fn push_row_from(&mut self, row: &[Vid]) {
        assert_eq!(row.len(), self.arity, "row arity");
        self.vids.extend_from_slice(row);
        self.rows += 1;
    }

    /// Append every row of `other` (used to merge per-thread partial
    /// outputs in morsel order). Panics on arity mismatch.
    pub fn append(&mut self, mut other: RowSet) {
        assert_eq!(self.arity, other.arity, "row set arity mismatch");
        self.vids.append(&mut other.vids);
        self.rows += other.rows;
    }

    /// Consume an arity-2 row set into `(x, y)` value pairs, resolving
    /// every id through `dict` (the dictionary the ids were drawn from).
    ///
    /// # Panics
    /// If the arity is not 2, or an id is not live in `dict`.
    pub fn into_pairs(self, dict: &Interner) -> Vec<(Value, Value)> {
        assert_eq!(self.arity, 2, "into_pairs requires arity 2");
        let value = |vid: Vid| dict.resolve(vid).expect("row id is interned").clone();
        self.vids
            .chunks_exact(2)
            .map(|xy| (value(xy[0]), value(xy[1])))
            .collect()
    }
}

impl ByteSize for RowSet {
    fn heap_bytes(&self) -> usize {
        self.vids.capacity() * std::mem::size_of::<Vid>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(rows: &[(Vid, Vid)]) -> RowSet {
        RowSet::from_rows(2, rows.iter().map(|&(a, b)| [a, b]))
    }

    #[test]
    fn push_and_read_back() {
        let mut rs = RowSet::new(2);
        rs.push_row([1, 5]);
        rs.push_row_from(&[2, 6]);
        assert_eq!(rs.num_rows(), 2);
        assert_eq!(rs.arity(), 2);
        assert_eq!(rs.row(1), &[2, 6]);
        assert_eq!(rs.iter().count(), 2);
        assert!(!rs.is_empty());
    }

    #[test]
    fn append_merges_in_order() {
        let mut a = pairs(&[(1, 1), (2, 2)]);
        let b = pairs(&[(3, 3)]);
        a.append(b);
        assert_eq!(a, pairs(&[(1, 1), (2, 2), (3, 3)]));
    }

    #[test]
    fn into_pairs_round_trip() {
        let mut dict = Interner::new();
        let [a, b, c] = [Value::int(1), Value::str("x"), Value::int(20)].map(|v| dict.acquire(&v));
        assert_eq!(
            pairs(&[(a, b), (c, crate::intern::NULL_VID)]).into_pairs(&dict),
            vec![
                (Value::int(1), Value::str("x")),
                (Value::int(20), Value::Null)
            ]
        );
    }

    #[test]
    fn zero_arity_rows_are_representable() {
        let mut rs = RowSet::new(0);
        rs.push_row([]);
        rs.push_row([]);
        assert_eq!(rs.num_rows(), 2);
        assert_eq!(rs.row(1), &[] as &[Vid]);
    }

    #[test]
    fn bytesize_counts_arena() {
        let rs = pairs(&[(1, 2)]);
        assert!(rs.heap_bytes() >= 2 * std::mem::size_of::<Vid>());
    }
}
