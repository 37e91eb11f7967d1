//! Host-side data: the matrix store shared by all tasks of one execution.
//!
//! The [`World`] is the state `S` threaded through the runtime engine. It
//! owns every matrix of a program run, tracks per-matrix *versions* (so the
//! GPU residency table can detect stale copies, §4.3), and holds the
//! **lazy copy-out** table: regions computed on the GPU whose transfer back
//! is deferred until a consumer actually needs them (*may copy-out*, §3.2).
//!
//! Matrices are held copy-on-write behind [`Arc`]s, so read-only inputs
//! shared across trials ([`World::alloc_shared`]) enter a world without a
//! copy; the first host write to a shared matrix clones it privately.

use petal_blas::Matrix;
use std::sync::Arc;

/// Handle to a matrix inside a [`World`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MatrixId(pub(crate) usize);

impl MatrixId {
    /// Raw index, for diagnostics.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// A deferred (lazy) copy-out: the functional data is already known, but in
/// virtual time it only becomes available on the host once it is pulled.
#[derive(Debug, Clone)]
pub struct LazyEntry {
    /// The data that will land in the matrix when pulled.
    pub data: Vec<f64>,
    /// Virtual time at which the device-side producer kernel finishes.
    pub ready_at: f64,
    /// Modeled transfer seconds for the pull itself.
    pub pull_secs: f64,
}

/// All host-side matrices of one program execution.
#[derive(Debug, Default)]
pub struct World {
    mats: Vec<Arc<Matrix>>,
    versions: Vec<u64>,
    lazy: Vec<Option<LazyEntry>>,
    /// Lazy pulls performed (for reports and the movement-analysis tests).
    pub lazy_pulls: usize,
}

impl World {
    /// Empty world.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a matrix and get its handle.
    pub fn alloc(&mut self, m: Matrix) -> MatrixId {
        self.alloc_shared(Arc::new(m))
    }

    /// Install a matrix that may be shared with other worlds (a cached
    /// trial input). Reads borrow the shared value; the first write
    /// through [`World::get_mut`] or [`World::take_matrix`] makes a
    /// private copy, leaving every other holder's value untouched.
    pub fn alloc_shared(&mut self, m: Arc<Matrix>) -> MatrixId {
        self.mats.push(m);
        self.versions.push(0);
        self.lazy.push(None);
        MatrixId(self.mats.len() - 1)
    }

    /// Number of matrices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.mats.len()
    }

    /// True when no matrices exist.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.mats.is_empty()
    }

    /// Read a matrix.
    ///
    /// # Panics
    /// Panics if a lazy copy-out is still pending for it — consumers must
    /// go through [`World::ensure_host`] first (the compiler-inserted check
    /// of §3.2).
    #[must_use]
    pub fn get(&self, id: MatrixId) -> &Matrix {
        assert!(
            self.lazy[id.0].is_none(),
            "matrix {id:?} read while its lazy copy-out is pending; call ensure_host first"
        );
        &self.mats[id.0]
    }

    /// Mutate a matrix; bumps its version so stale GPU copies are detected.
    /// A shared matrix is copied first (copy-on-write).
    pub fn get_mut(&mut self, id: MatrixId) -> &mut Matrix {
        self.versions[id.0] += 1;
        self.lazy[id.0] = None; // host write supersedes any pending copy-out
        Arc::make_mut(&mut self.mats[id.0])
    }

    /// Overwrite a matrix wholesale.
    pub fn set(&mut self, id: MatrixId, m: Matrix) {
        self.versions[id.0] += 1;
        self.lazy[id.0] = None;
        self.mats[id.0] = Arc::new(m);
    }

    /// Current version of a matrix (bumped on every host write).
    #[must_use]
    pub fn version(&self, id: MatrixId) -> u64 {
        self.versions[id.0]
    }

    /// Residency key for the GPU buffer table: identifies these exact bytes
    /// (matrix identity + version + row range).
    #[must_use]
    pub fn residency_key(&self, id: MatrixId, row0: usize, row1: usize) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for piece in [id.0 as u64, self.versions[id.0], row0 as u64, row1 as u64] {
            h ^= piece;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// `(cols, rows)` of a matrix — readable even while a lazy copy-out is
    /// pending (dimensions never change under deferral).
    #[must_use]
    pub fn get_dims(&self, id: MatrixId) -> (usize, usize) {
        (self.mats[id.0].cols(), self.mats[id.0].rows())
    }

    /// Move a matrix out for exclusive mutation (tasks run one at a time,
    /// so this never races). Pair with [`World::restore_matrix`]. A shared
    /// matrix is copied; the shared value stays as it was.
    #[must_use]
    pub fn take_matrix(&mut self, id: MatrixId) -> Matrix {
        let m = std::mem::replace(&mut self.mats[id.0], Arc::new(Matrix::zeros(0, 0)));
        Arc::try_unwrap(m).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Put a matrix taken with [`World::take_matrix`] back, bumping its
    /// version (it was mutated).
    pub fn restore_matrix(&mut self, id: MatrixId, m: Matrix) {
        self.versions[id.0] += 1;
        self.lazy[id.0] = None;
        self.mats[id.0] = Arc::new(m);
    }

    /// Register a deferred copy-out for `id` (the *may copy-out* policy).
    /// The matrix must not be read until the entry is pulled.
    pub fn defer_copy_out(&mut self, id: MatrixId, entry: LazyEntry) {
        self.lazy[id.0] = Some(entry);
    }

    /// True when a lazy copy-out is pending for `id`.
    #[must_use]
    pub fn has_pending_copy_out(&self, id: MatrixId) -> bool {
        self.lazy[id.0].is_some()
    }

    /// The compiler-inserted check before any consumer of a *may copy-out*
    /// region: if the data is still on the GPU, pull it now.
    ///
    /// Returns the virtual seconds the consuming task must additionally
    /// charge (waiting for the producer kernel plus the transfer), or zero
    /// when the data was already on the host.
    pub fn ensure_host(&mut self, id: MatrixId, now: f64) -> f64 {
        match self.lazy[id.0].take() {
            None => 0.0,
            Some(e) => {
                let wait = (e.ready_at - now).max(0.0);
                let (rows, cols) = (self.mats[id.0].rows(), self.mats[id.0].cols());
                self.mats[id.0] = Arc::new(Matrix::from_vec(rows, cols, e.data));
                self.versions[id.0] += 1;
                self.lazy_pulls += 1;
                wait + e.pull_secs
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_get_set_roundtrip() {
        let mut w = World::new();
        let id = w.alloc(Matrix::zeros(2, 2));
        assert_eq!(w.get(id).rows(), 2);
        w.get_mut(id)[(0, 0)] = 5.0;
        assert_eq!(w.get(id)[(0, 0)], 5.0);
        assert_eq!(w.version(id), 1);
    }

    #[test]
    fn writing_a_shared_matrix_copies_it_and_bumps_the_version() {
        let shared = Arc::new(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let mut w = World::new();
        let id = w.alloc_shared(Arc::clone(&shared));
        assert!(std::ptr::eq(w.get(id), &*shared), "reads borrow the shared value");
        w.get_mut(id)[(0, 0)] = 9.0;
        assert_eq!(w.version(id), 1);
        assert_eq!(w.get(id)[(0, 0)], 9.0);
        assert_eq!(shared.as_slice(), &[1.0, 2.0], "the shared value is untouched");
        assert_eq!(Arc::strong_count(&shared), 1, "the world holds a private copy");
    }

    #[test]
    fn take_and_restore_of_a_shared_matrix_leave_the_shared_value_intact() {
        let shared = Arc::new(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let mut w = World::new();
        let id = w.alloc_shared(Arc::clone(&shared));
        let key = w.residency_key(id, 0, 1);
        let mut m = w.take_matrix(id);
        m[(0, 1)] = 7.0;
        w.restore_matrix(id, m);
        assert_eq!(w.get(id).as_slice(), &[1.0, 7.0]);
        assert_eq!(w.version(id), 1);
        assert_ne!(w.residency_key(id, 0, 1), key, "restore still bumps the version");
        assert_eq!(shared.as_slice(), &[1.0, 2.0]);
        // A sole owner is moved out, not copied.
        let own = w.alloc(Matrix::from_vec(1, 1, vec![3.0]));
        let ptr = w.get(own).as_slice().as_ptr();
        assert_eq!(w.take_matrix(own).as_slice().as_ptr(), ptr);
    }

    #[test]
    fn residency_key_changes_with_version_and_range() {
        let mut w = World::new();
        let id = w.alloc(Matrix::zeros(4, 4));
        let k1 = w.residency_key(id, 0, 4);
        assert_eq!(k1, w.residency_key(id, 0, 4), "key is deterministic");
        assert_ne!(k1, w.residency_key(id, 0, 2), "range matters");
        w.get_mut(id)[(0, 0)] = 1.0;
        assert_ne!(k1, w.residency_key(id, 0, 4), "version matters");
    }

    #[test]
    fn lazy_pull_charges_wait_and_transfer() {
        let mut w = World::new();
        let id = w.alloc(Matrix::zeros(1, 2));
        w.defer_copy_out(id, LazyEntry { data: vec![7.0, 8.0], ready_at: 5.0, pull_secs: 0.5 });
        assert!(w.has_pending_copy_out(id));
        // Consumer arrives at t=3: waits 2.0 for the kernel, then 0.5 transfer.
        let extra = w.ensure_host(id, 3.0);
        assert!((extra - 2.5).abs() < 1e-12);
        assert_eq!(w.get(id)[(0, 1)], 8.0);
        assert_eq!(w.lazy_pulls, 1);
        // Second call is free.
        assert_eq!(w.ensure_host(id, 10.0), 0.0);
    }

    #[test]
    fn lazy_pull_after_ready_time_costs_only_transfer() {
        let mut w = World::new();
        let id = w.alloc(Matrix::zeros(1, 1));
        w.defer_copy_out(id, LazyEntry { data: vec![1.0], ready_at: 1.0, pull_secs: 0.25 });
        let extra = w.ensure_host(id, 9.0);
        assert!((extra - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "lazy copy-out is pending")]
    fn reading_pending_matrix_panics() {
        let mut w = World::new();
        let id = w.alloc(Matrix::zeros(1, 1));
        w.defer_copy_out(id, LazyEntry { data: vec![1.0], ready_at: 0.0, pull_secs: 0.0 });
        let _ = w.get(id);
    }

    #[test]
    fn host_write_supersedes_pending_copy_out() {
        let mut w = World::new();
        let id = w.alloc(Matrix::zeros(1, 1));
        w.defer_copy_out(id, LazyEntry { data: vec![1.0], ready_at: 0.0, pull_secs: 0.0 });
        w.set(id, Matrix::from_vec(1, 1, vec![2.0]));
        assert!(!w.has_pending_copy_out(id));
        assert_eq!(w.get(id)[(0, 0)], 2.0);
    }
}
