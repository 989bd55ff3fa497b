//! A small dense row-major `f64` matrix.
//!
//! Used for the operator load-coefficient matrix `L^o` (m×d), the node
//! load-coefficient matrix `L^n = A·L^o` (n×d), the 0/1 allocation matrix
//! `A` (n×m) and the normalised weight matrix `W` (n×d) of the paper.

use std::fmt;
use std::ops::{Index, IndexMut};

use serde::{Deserialize, Serialize};

use crate::vector::Vector;

/// Dense row-major matrix.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a nested slice of rows. All rows must have the
    /// same length.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            assert_eq!(row.len(), ncols, "ragged rows in Matrix::from_rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: nrows,
            cols: ncols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` copied into an owned [`Vector`].
    pub fn row_vector(&self, i: usize) -> Vector {
        Vector::from(self.row(i))
    }

    /// Column `k` copied into an owned [`Vector`].
    pub fn col_vector(&self, k: usize) -> Vector {
        assert!(k < self.cols, "col {k} out of bounds ({} cols)", self.cols);
        Vector::new((0..self.rows).map(|i| self[(i, k)]).collect())
    }

    /// Sum of column `k`. For a load-coefficient matrix this is the total
    /// load coefficient `l_k` of input stream `I_k` (paper, Table 1).
    pub fn col_sum(&self, k: usize) -> f64 {
        (0..self.rows).map(|i| self[(i, k)]).sum()
    }

    /// All column sums as a vector.
    pub fn col_sums(&self) -> Vector {
        Vector::new((0..self.cols).map(|k| self.col_sum(k)).collect())
    }

    /// Matrix × matrix product. Used for `L^n = A · L^o`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let a = self[(i, j)];
                if a == 0.0 {
                    continue;
                }
                for k in 0..other.cols {
                    out[(i, k)] += a * other[(j, k)];
                }
            }
        }
        out
    }

    /// Matrix × vector product.
    pub fn matvec(&self, v: &Vector) -> Vector {
        assert_eq!(self.cols, v.dim(), "matvec dimension mismatch");
        Vector::new(
            (0..self.rows)
                .map(|i| {
                    self.row(i)
                        .iter()
                        .zip(v.as_slice())
                        .map(|(a, b)| a * b)
                        .sum()
                })
                .collect(),
        )
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            writeln!(f, "  {:?}", self.row(i))?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        assert_eq!(m[(2, 1)], 6.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col_vector(0).as_slice(), &[1.0, 3.0, 5.0]);
    }

    #[test]
    fn col_sums_match_manual() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.col_sums().as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn matmul_identity() {
        let id = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(id.matmul(&m), m);
        assert_eq!(m.matmul(&id), m);
    }

    #[test]
    fn matmul_allocation_example() {
        // Example 2 of the paper, Plan (a): operators {o1,o4} on N1,
        // {o2,o3} on N2. L^o rows: (4,0),(6,0),(0,9),(0,2).
        let lo = Matrix::from_rows(&[&[4.0, 0.0], &[6.0, 0.0], &[0.0, 9.0], &[0.0, 2.0]]);
        let a = Matrix::from_rows(&[&[1.0, 0.0, 0.0, 1.0], &[0.0, 1.0, 1.0, 0.0]]);
        let ln = a.matmul(&lo);
        assert_eq!(ln.row(0), &[4.0, 2.0]);
        assert_eq!(ln.row(1), &[6.0, 9.0]);
        // Column sums are invariant under allocation.
        assert_eq!(ln.col_sums().as_slice(), lo.col_sums().as_slice());
    }

    #[test]
    fn matvec_matches_rows() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let v = Vector::from([10.0, 1.0]);
        let out = m.matvec(&v);
        assert!(approx_eq(out[0], 12.0));
        assert!(approx_eq(out[1], 34.0));
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
