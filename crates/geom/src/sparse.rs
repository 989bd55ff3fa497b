//! Sparse rows and row-major sparse matrices for large load models.
//!
//! The paper's matrices are tiny (tens of rows, single-digit columns), so
//! the dense [`crate::Matrix`] is the natural representation there. At
//! production scale — thousands of nodes, tens of thousands of operators —
//! each operator still touches only a handful of streams, so its load
//! coefficient row `L^o_j` has a handful of nonzeros out of `d'` columns.
//! [`SparseRow`] stores exactly those `(column, value)` pairs, and
//! [`SparseLoadMatrix`] is a row collection of them.
//!
//! **Bit-identity contract.** Everything downstream of the load model is
//! pinned to the f64 bit (golden tests, cross-thread determinism), so the
//! sparse representation is only usable if it reproduces the dense
//! arithmetic exactly. It does, by construction:
//!
//! * entries are kept in ascending column order, the same order the dense
//!   loops accumulate in;
//! * skipped columns hold exactly `0.0`, and for the accumulations
//!   involved (`acc += c·x` with finite `x` and `acc` not `-0.0`) a zero
//!   term contributes `+0.0`, and IEEE-754 addition of `+0.0` to any such
//!   accumulator returns it unchanged — so *skipping* the term yields the
//!   same bits as *adding* it.
//!
//! The unit tests pin both properties; `rod-core`'s equivalence suite
//! extends the argument to whole placements and volume estimates.

use serde::{DeError, Deserialize, Serialize, Value};

/// One sparse row: `(column, value)` pairs in strictly ascending column
/// order, with no explicit zeros.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseRow {
    dim: usize,
    terms: Vec<(u32, f64)>,
}

impl SparseRow {
    /// An all-zero row of width `dim`.
    pub fn zero(dim: usize) -> SparseRow {
        SparseRow {
            dim,
            terms: Vec::new(),
        }
    }

    /// Builds a row from `(column, value)` terms. Panics when a column is
    /// out of range, duplicated, or out of order; zero values are dropped.
    pub fn from_terms(dim: usize, terms: impl IntoIterator<Item = (u32, f64)>) -> SparseRow {
        let mut kept: Vec<(u32, f64)> = Vec::new();
        for (col, value) in terms {
            assert!((col as usize) < dim, "column {col} out of range ({dim})");
            if let Some(&(last, _)) = kept.last() {
                assert!(col > last, "columns must be strictly ascending");
            }
            if value != 0.0 {
                kept.push((col, value));
            }
        }
        SparseRow { dim, terms: kept }
    }

    /// Compresses a dense slice, keeping nonzero entries only.
    pub fn from_dense(row: &[f64]) -> SparseRow {
        SparseRow {
            dim: row.len(),
            terms: row
                .iter()
                .enumerate()
                .filter(|(_, &v)| v != 0.0)
                .map(|(k, &v)| (k as u32, v))
                .collect(),
        }
    }

    /// Row width (number of columns, counting the zeros).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored (nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.terms.len()
    }

    /// The `(column, value)` terms in ascending column order.
    pub fn terms(&self) -> &[(u32, f64)] {
        &self.terms
    }

    /// Iterates `(column, value)` pairs in ascending column order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.terms.iter().map(|&(k, v)| (k as usize, v))
    }

    /// Materialises the dense row.
    pub fn to_dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.dim];
        for &(k, v) in &self.terms {
            out[k as usize] = v;
        }
        out
    }

    /// The L2 norm, accumulated over the stored terms in ascending column
    /// order — bit-identical to the dense norm (zero terms contribute
    /// `+0.0`, which IEEE-754 addition ignores). The fold starts at `+0.0`
    /// like a dense loop: `Iterator::sum` starts at `-0.0`, which would
    /// give an all-zero row the norm `-0.0`.
    pub fn norm(&self) -> f64 {
        self.terms
            .iter()
            .fold(0.0, |acc, &(_, v)| acc + v * v)
            .sqrt()
    }

    /// Dot product with a dense vector, skipping zero columns —
    /// bit-identical to a dense `acc += a·b` loop from `+0.0` for finite
    /// operands (see [`norm`](Self::norm) for why it folds).
    pub fn dot_dense(&self, dense: &[f64]) -> f64 {
        assert_eq!(dense.len(), self.dim, "dimension mismatch");
        self.terms
            .iter()
            .fold(0.0, |acc, &(k, v)| acc + v * dense[k as usize])
    }
}

impl Serialize for SparseRow {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("dim".to_string(), self.dim.to_value()),
            ("terms".to_string(), self.terms.to_value()),
        ])
    }
}

impl Deserialize for SparseRow {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let pairs = v
            .as_object()
            .ok_or_else(|| DeError::expected("object", v))?;
        let dim: usize = serde::field(pairs, "dim", "SparseRow")?;
        let terms: Vec<(u32, f64)> = serde::field(pairs, "terms", "SparseRow")?;
        let mut last: Option<u32> = None;
        for &(col, value) in &terms {
            if (col as usize) >= dim {
                return Err(DeError::custom(format!(
                    "SparseRow column {col} out of range ({dim})"
                )));
            }
            if last.is_some_and(|l| col <= l) {
                return Err(DeError::custom("SparseRow columns must be ascending"));
            }
            if value == 0.0 {
                return Err(DeError::custom("SparseRow stores explicit zero"));
            }
            last = Some(col);
        }
        Ok(SparseRow { dim, terms })
    }
}

/// A row-major sparse matrix: one [`SparseRow`] per row, all of the same
/// width. The sparse counterpart of the operator load-coefficient matrix
/// `L^o`.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct SparseLoadMatrix {
    rows: Vec<SparseRow>,
    cols: usize,
}

impl Deserialize for SparseLoadMatrix {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let pairs = v
            .as_object()
            .ok_or_else(|| DeError::expected("object", v))?;
        let rows: Vec<SparseRow> = serde::field(pairs, "rows", "SparseLoadMatrix")?;
        let cols: usize = serde::field(pairs, "cols", "SparseLoadMatrix")?;
        if let Some((j, row)) = rows.iter().enumerate().find(|(_, row)| row.dim != cols) {
            return Err(DeError::custom(format!(
                "SparseLoadMatrix row {j} has width {} for {cols} columns",
                row.dim
            )));
        }
        Ok(SparseLoadMatrix { rows, cols })
    }
}

impl SparseLoadMatrix {
    /// Builds the matrix from rows. Panics when row widths disagree with
    /// `cols`.
    pub fn from_rows(cols: usize, rows: Vec<SparseRow>) -> SparseLoadMatrix {
        for (j, row) in rows.iter().enumerate() {
            assert_eq!(row.dim(), cols, "row {j} has width {}", row.dim());
        }
        SparseLoadMatrix { rows, cols }
    }

    /// Compresses a dense matrix given as row slices.
    pub fn from_dense_rows<'a>(
        cols: usize,
        rows: impl IntoIterator<Item = &'a [f64]>,
    ) -> SparseLoadMatrix {
        let rows: Vec<SparseRow> = rows.into_iter().map(SparseRow::from_dense).collect();
        SparseLoadMatrix::from_rows(cols, rows)
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns (dense width).
    pub fn num_cols(&self) -> usize {
        self.cols
    }

    /// One row.
    pub fn row(&self, j: usize) -> &SparseRow {
        &self.rows[j]
    }

    /// All rows.
    pub fn rows(&self) -> &[SparseRow] {
        &self.rows
    }

    /// Total stored (nonzero) entries across all rows.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(SparseRow::nnz).sum()
    }

    /// Per-column sums accumulated in row order — the same order a dense
    /// column sum over row-major storage uses, so the totals carry
    /// identical bits.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.cols];
        for row in &self.rows {
            for (k, v) in row.iter() {
                sums[k] += v;
            }
        }
        sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_dense_round_trips() {
        let dense = [0.0, 3.5, 0.0, 2.0];
        let row = SparseRow::from_dense(&dense);
        assert_eq!(row.nnz(), 2);
        assert_eq!(row.terms(), &[(1, 3.5), (3, 2.0)]);
        assert_eq!(row.to_dense(), dense);
    }

    #[test]
    fn norm_is_bit_identical_to_dense_accumulation() {
        // Awkward magnitudes so any reordering or extra rounding shows.
        let dense = [0.0, 0.1, 0.0, 1e-13, 7.3e11, 0.0, 0.2 + 0.1];
        let sparse = SparseRow::from_dense(&dense);
        let dense_norm = dense.iter().map(|&v| v * v).sum::<f64>().sqrt();
        assert_eq!(sparse.norm().to_bits(), dense_norm.to_bits());
        // An all-zero row: the dense sum of +0.0 terms is +0.0.
        let zeros = [0.0; 3];
        let dense_norm = zeros.iter().map(|&v| v * v).sum::<f64>().sqrt();
        assert_eq!(dense_norm.to_bits(), 0.0f64.to_bits());
        assert_eq!(
            SparseRow::from_dense(&zeros).norm().to_bits(),
            dense_norm.to_bits()
        );
    }

    #[test]
    fn dot_dense_is_bit_identical_to_dense_dot() {
        let row_dense = [0.0, 0.1, 0.0, 0.3, 0.0];
        let x = [1.7, 2.9, 3.1, 0.77, 5.3];
        let sparse = SparseRow::from_dense(&row_dense);
        let dense_dot: f64 = row_dense.iter().zip(&x).map(|(a, b)| a * b).sum();
        assert_eq!(sparse.dot_dense(&x).to_bits(), dense_dot.to_bits());
        // An all-zero row dots to +0.0, as the dense loop does.
        let zeros = [0.0; 5];
        let dense_dot: f64 = zeros.iter().zip(&x).map(|(a, b)| a * b).sum();
        assert_eq!(dense_dot.to_bits(), 0.0f64.to_bits());
        assert_eq!(
            SparseRow::from_dense(&zeros).dot_dense(&x).to_bits(),
            dense_dot.to_bits()
        );
    }

    #[test]
    fn from_terms_drops_zeros_and_validates() {
        let row = SparseRow::from_terms(5, [(0, 1.0), (2, 0.0), (4, 2.0)]);
        assert_eq!(row.terms(), &[(0, 1.0), (4, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn from_terms_rejects_out_of_order() {
        let _ = SparseRow::from_terms(5, [(3, 1.0), (1, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_terms_rejects_out_of_range() {
        let _ = SparseRow::from_terms(2, [(2, 1.0)]);
    }

    #[test]
    fn matrix_col_sums_match_dense() {
        let rows = [
            vec![1.0, 0.0, 2.0],
            vec![0.0, 0.0, 0.5],
            vec![4.0, 0.0, 0.0],
        ];
        let m = SparseLoadMatrix::from_dense_rows(3, rows.iter().map(|r| r.as_slice()));
        assert_eq!(m.num_rows(), 3);
        assert_eq!(m.nnz(), 4);
        let mut dense_sums = vec![0.0; 3];
        for r in &rows {
            for (k, &v) in r.iter().enumerate() {
                dense_sums[k] += v;
            }
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&m.col_sums()), bits(&dense_sums));
        let dense: Vec<Vec<f64>> = m.rows().iter().map(SparseRow::to_dense).collect();
        assert_eq!(dense, rows);
    }

    #[test]
    fn serde_round_trip_and_validation() {
        let m = SparseLoadMatrix::from_dense_rows(
            3,
            [vec![1.0, 0.0, 2.0], vec![0.0, 3.0, 0.0]]
                .iter()
                .map(|r| r.as_slice()),
        );
        let back = SparseLoadMatrix::from_value(&m.to_value()).unwrap();
        assert_eq!(back, m);
        // A hand-built value with an explicit zero is rejected.
        let bad = Value::Object(vec![
            ("dim".into(), 2usize.to_value()),
            ("terms".into(), vec![(0u32, 0.0f64)].to_value()),
        ]);
        assert!(SparseRow::from_value(&bad).is_err());
    }

    #[test]
    fn a_row_wider_than_the_matrix_is_rejected() {
        let rows = vec![
            SparseRow::from_terms(5, [(3, 4.0)]),
            SparseRow::from_terms(2, [(1, 9.0)]),
        ];
        let value = Value::Object(vec![
            ("rows".into(), rows.to_value()),
            ("cols".into(), 2usize.to_value()),
        ]);
        let err = SparseLoadMatrix::from_value(&value).unwrap_err();
        assert!(err.to_string().contains("row 0 has width 5"), "{err}");
    }
}
