//! A dense row-major 2-D matrix used by the dynamic programs.
//!
//! Besides plain construction, the matrix supports **grow-don't-shrink
//! reuse** ([`Matrix::reset`] / [`Matrix::reset_stale`]): a workspace
//! re-dimensions the same backing buffer for every candidate subtree, so
//! the steady state of the streaming algorithms performs no heap
//! allocation.

/// Dense row-major matrix.
#[derive(Debug, Clone, Eq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    /// Backing storage; `data.len() >= rows * cols`. May be longer after
    /// a shrinking [`Matrix::reset`] — the logical content is always the
    /// first `rows * cols` elements.
    data: Vec<T>,
}

impl<T: Clone + Default> Matrix<T> {
    /// Creates a `rows × cols` matrix filled with `T::default()`.
    pub fn new(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![T::default(); rows * cols],
        }
    }

    /// Re-dimensions the matrix to `rows × cols` and fills the logical
    /// region with `T::default()`, reusing the backing buffer
    /// (grow-don't-shrink: no allocation once the buffer has seen its
    /// largest size).
    pub fn reset(&mut self, rows: usize, cols: usize) {
        let n = rows * cols;
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(n, T::default());
    }

    /// Re-dimensions the matrix to `rows × cols` **without clearing**:
    /// cells keep whatever value a previous use left behind. For DP
    /// tables that are fully written before being read (the Zhang–Shasha
    /// `fd` rectangle, and `td` under the keyroot-ordering invariant),
    /// this skips the O(rows·cols) fill of [`Matrix::reset`].
    pub fn reset_stale(&mut self, rows: usize, cols: usize) {
        let n = rows * cols;
        if self.data.len() < n {
            self.data.resize(n, T::default());
        }
        self.rows = rows;
        self.cols = cols;
    }
}

impl<T: Clone> Matrix<T> {
    /// Creates a `rows × cols` matrix filled with `fill`.
    pub fn filled(rows: usize, cols: usize, fill: T) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![fill; rows * cols],
        }
    }
}

impl<T> Matrix<T> {
    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> &T {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }

    /// Writes `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: T) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// A whole row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The underlying row-major storage (logical region only).
    pub fn as_slice(&self) -> &[T] {
        &self.data[..self.rows * self.cols]
    }
}

// Manual impl: after a shrinking `reset` the backing buffer can be longer
// than the logical region, which derived `PartialEq` would compare.
impl<T: PartialEq> PartialEq for Matrix<T> {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.data[..self.rows * self.cols] == other.data[..other.rows * other.cols]
    }
}

impl<T> std::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &T {
        self.get(r, c)
    }
}

impl<T> std::ops::IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zeroed() {
        let m: Matrix<u64> = Matrix::new(2, 3);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert!(m.as_slice().iter().all(|&v| v == 0));
    }

    #[test]
    fn set_get_and_index() {
        let mut m: Matrix<u64> = Matrix::new(3, 3);
        m.set(1, 2, 42);
        m[(2, 0)] = 7;
        assert_eq!(*m.get(1, 2), 42);
        assert_eq!(m[(2, 0)], 7);
        assert_eq!(m[(0, 0)], 0);
    }

    #[test]
    fn rows_are_contiguous() {
        let mut m: Matrix<u32> = Matrix::new(2, 4);
        for c in 0..4 {
            m.set(1, c, c as u32);
        }
        assert_eq!(m.row(1), &[0, 1, 2, 3]);
        assert_eq!(m.row(0), &[0, 0, 0, 0]);
    }

    #[test]
    fn filled() {
        let m: Matrix<u8> = Matrix::filled(2, 2, 9);
        assert!(m.as_slice().iter().all(|&v| v == 9));
    }

    #[test]
    fn reset_reuses_and_zeroes() {
        let mut m: Matrix<u64> = Matrix::new(4, 4);
        m.set(3, 3, 7);
        m.reset(2, 3);
        assert_eq!((m.rows(), m.cols()), (2, 3));
        assert!(m.as_slice().iter().all(|&v| v == 0));
        assert_eq!(m.as_slice().len(), 6);
        // Growing again also zeroes.
        m.set(1, 2, 5);
        m.reset(5, 5);
        assert!(m.as_slice().iter().all(|&v| v == 0));
    }

    #[test]
    fn reset_stale_keeps_dims_but_not_content_guarantees() {
        let mut m: Matrix<u64> = Matrix::new(2, 2);
        m.set(1, 1, 9);
        m.reset_stale(1, 2);
        assert_eq!((m.rows(), m.cols()), (1, 2));
        // Growing past the old buffer default-fills the tail.
        m.reset_stale(3, 4);
        assert_eq!(m.as_slice().len(), 12);
    }

    #[test]
    fn partial_eq_ignores_spare_capacity() {
        let mut a: Matrix<u8> = Matrix::new(4, 4);
        a.reset(2, 2);
        let b: Matrix<u8> = Matrix::new(2, 2);
        assert_eq!(a, b);
    }
}
