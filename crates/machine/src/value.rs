//! Run-time values and storage.

use crate::error::MachineError;
use std::sync::Arc;

/// A scalar run-time value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum V {
    I(i64),
    R(f64),
    B(bool),
}

impl V {
    pub(crate) fn as_i(self) -> Result<i64, MachineError> {
        match self {
            V::I(v) => Ok(v),
            V::R(v) => Ok(v as i64),
            V::B(_) => Err(MachineError::Type("logical used as integer".into())),
        }
    }

    pub(crate) fn as_r(self) -> Result<f64, MachineError> {
        match self {
            V::I(v) => Ok(v as f64),
            V::R(v) => Ok(v),
            V::B(_) => Err(MachineError::Type("logical used as real".into())),
        }
    }

    pub(crate) fn as_b(self) -> Result<bool, MachineError> {
        match self {
            V::B(v) => Ok(v),
            _ => Err(MachineError::Type("numeric used as logical".into())),
        }
    }

    pub(crate) fn is_real(self) -> bool {
        matches!(self, V::R(_))
    }
}

/// A scalar storage slot (typed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Scalar {
    I(i64),
    R(f64),
    B(bool),
}

impl Scalar {
    pub(crate) fn get(self) -> V {
        match self {
            Scalar::I(v) => V::I(v),
            Scalar::R(v) => V::R(v),
            Scalar::B(v) => V::B(v),
        }
    }

    /// Store with Fortran assignment conversion.
    pub(crate) fn set(&mut self, v: V) -> Result<(), MachineError> {
        match self {
            Scalar::I(slot) => *slot = v.as_i()?,
            Scalar::R(slot) => *slot = v.as_r()?,
            Scalar::B(slot) => *slot = v.as_b()?,
        }
        Ok(())
    }
}

/// Array element storage (column-major, flattened).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ArrData {
    I(Vec<i64>),
    R(Vec<f64>),
    B(Vec<bool>),
}

impl ArrData {
    pub(crate) fn len(&self) -> usize {
        match self {
            ArrData::I(v) => v.len(),
            ArrData::R(v) => v.len(),
            ArrData::B(v) => v.len(),
        }
    }

    pub(crate) fn get(&self, idx: usize) -> V {
        match self {
            ArrData::I(v) => V::I(v[idx]),
            ArrData::R(v) => V::R(v[idx]),
            ArrData::B(v) => V::B(v[idx]),
        }
    }

    pub(crate) fn set(&mut self, idx: usize, v: V) -> Result<(), MachineError> {
        match self {
            ArrData::I(s) => s[idx] = v.as_i()?,
            ArrData::R(s) => s[idx] = v.as_r()?,
            ArrData::B(s) => s[idx] = v.as_b()?,
        }
        Ok(())
    }
}

/// Element storage of one array: owned by this interpreter, or shared
/// with a snapshot.
///
/// The threaded backend hands each lane a copy-on-write copy of the
/// master's memory and tells at the join, by identity, which arrays a
/// lane never wrote. Both need a reference-counted handle — but only
/// across a fork. Between forks the array has one owner, and a store
/// into an `Owned` array costs a tag test: no atomic, no refcount
/// (`Arc::make_mut` on every store was a `lock cmpxchg` plus a release
/// store, 11–12 ns against ≈ 1). A store into a `Shared` array pays once:
/// the allocation is taken over when nobody else holds it any more,
/// copied when somebody does, and the array is `Owned` from then on.
///
/// [`Self::share`] is the only way a second reference to an array's
/// elements appears (cloning an `Owned` store copies them), so `Owned`
/// means unique by construction and [`Self::make_mut`] never has to ask.
#[derive(Debug, Clone)]
pub(crate) enum ArrStore {
    Owned(ArrData),
    Shared(Arc<ArrData>),
}

impl ArrStore {
    #[inline(always)]
    pub(crate) fn get(&self) -> &ArrData {
        match self {
            ArrStore::Owned(d) => d,
            ArrStore::Shared(a) => a,
        }
    }

    /// The elements, writable: `Owned` as they are, `Shared` made
    /// `Owned` first (see the type's doc for what that costs).
    #[inline(always)]
    pub(crate) fn make_mut(&mut self) -> &mut ArrData {
        if let ArrStore::Shared(_) = self {
            self.unshare();
        }
        match self {
            ArrStore::Owned(d) => d,
            ArrStore::Shared(_) => unreachable!("unshare left the store shared"),
        }
    }

    #[cold]
    fn unshare(&mut self) {
        // An empty `Vec` allocates nothing: the placeholder is free.
        if let ArrStore::Shared(a) = std::mem::replace(self, ArrStore::Owned(ArrData::B(Vec::new()))) {
            *self = ArrStore::Owned(Arc::try_unwrap(a).unwrap_or_else(|a| ArrData::clone(&a)));
        }
    }

    /// A snapshot of the elements as they are now, sharing their
    /// allocation with this store until either side is written: an
    /// `Owned` store becomes `Shared` in place (the `Vec` header moves
    /// into the `Arc`, the elements stay where they are).
    pub(crate) fn share(&mut self) -> Arc<ArrData> {
        if let ArrStore::Owned(d) = self {
            let d = std::mem::replace(d, ArrData::B(Vec::new()));
            *self = ArrStore::Shared(Arc::new(d));
        }
        match self {
            ArrStore::Shared(a) => Arc::clone(a),
            ArrStore::Owned(_) => unreachable!("share left the store owned"),
        }
    }

    /// Whether this store still *is* `snapshot` — nothing has been
    /// written through it since the [`Self::share`] that produced both.
    pub(crate) fn same_as(&self, snapshot: &Arc<ArrData>) -> bool {
        matches!(self, ArrStore::Shared(a) if Arc::ptr_eq(a, snapshot))
    }
}

impl PartialEq for ArrStore {
    fn eq(&self, other: &ArrStore) -> bool {
        self.get() == other.get()
    }
}

/// An array object: declared lower bounds + per-dimension extents, and
/// the element storage (see [`ArrStore`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ArrObj {
    pub name: String,
    pub(crate) lows: Vec<i64>,
    pub(crate) extents: Vec<i64>,
    pub(crate) data: ArrStore,
}

impl ArrObj {
    /// Column-major flatten; bounds-checked.
    pub(crate) fn flatten(&self, subs: &[i64]) -> Result<usize, MachineError> {
        debug_assert_eq!(subs.len(), self.lows.len());
        let mut off: i64 = 0;
        let mut stride: i64 = 1;
        for ((s, lo), ext) in subs.iter().zip(&self.lows).zip(&self.extents) {
            let z = s - lo;
            if z < 0 || z >= *ext {
                return Err(MachineError::OutOfBounds {
                    array: self.name.clone(),
                    index: *s,
                    len: *ext as usize,
                });
            }
            off += z * stride;
            stride *= ext;
        }
        Ok(off as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_follow_fortran() {
        assert_eq!(V::R(2.9).as_i().unwrap(), 2); // truncation
        assert_eq!(V::I(3).as_r().unwrap(), 3.0);
        assert!(V::I(1).as_b().is_err());
    }

    #[test]
    fn column_major_flatten() {
        let a = ArrObj {
            name: "A".into(),
            lows: vec![1, 1],
            extents: vec![10, 5],
            data: ArrStore::Owned(ArrData::R(vec![0.0; 50])),
        };
        assert_eq!(a.flatten(&[1, 1]).unwrap(), 0);
        assert_eq!(a.flatten(&[2, 1]).unwrap(), 1); // first dim fastest
        assert_eq!(a.flatten(&[1, 2]).unwrap(), 10);
        assert!(a.flatten(&[11, 1]).is_err());
        assert!(a.flatten(&[0, 1]).is_err());
    }

    #[test]
    fn nonunit_lower_bounds() {
        let a = ArrObj {
            name: "A".into(),
            lows: vec![0],
            extents: vec![4],
            data: ArrStore::Owned(ArrData::I(vec![0; 4])),
        };
        assert_eq!(a.flatten(&[0]).unwrap(), 0);
        assert_eq!(a.flatten(&[3]).unwrap(), 3);
        assert!(a.flatten(&[4]).is_err());
    }

    fn elements(store: &ArrStore) -> &Vec<i64> {
        match store.get() {
            ArrData::I(v) => v,
            other => unreachable!("{other:?}"),
        }
    }

    fn store_into(store: &mut ArrStore, at: usize, v: i64) {
        store.make_mut().set(at, V::I(v)).unwrap();
    }

    proptest::proptest! {
        /// A master store and the lanes forked from it, against plain
        /// vectors: whatever sequence of forks and stores, a write through
        /// one side of a `share()` never shows through another, a lane
        /// nobody stored into still *is* the snapshot it was forked from,
        /// and a store into an owned store happens in place.
        #[test]
        fn shared_stores_are_isolated_and_owned_stores_are_written_in_place(
            ops in proptest::collection::vec((0usize..4, 0usize..4, 0usize..8, -100i64..100), 1..40),
        ) {
            let mut master = ArrStore::Owned(ArrData::I(vec![0; 8]));
            let mut model = vec![0i64; 8];
            // (store, what it should hold, the snapshot it was forked from
            // while nothing has been stored into it)
            let mut lanes: Vec<(ArrStore, Vec<i64>, Option<Arc<ArrData>>)> = Vec::new();
            for (op, lane, at, v) in ops {
                match op {
                    0 => {
                        let snapshot = master.share();
                        proptest::prop_assert!(master.same_as(&snapshot));
                        lanes.push((master.clone(), model.clone(), Some(snapshot)));
                    }
                    1 => {
                        store_into(&mut master, at, v);
                        model[at] = v;
                        // Owned now, whatever it was: the next store is in place.
                        let before = elements(&master).as_ptr();
                        store_into(&mut master, at, v);
                        proptest::prop_assert!(matches!(master, ArrStore::Owned(_)));
                        proptest::prop_assert_eq!(elements(&master).as_ptr(), before);
                    }
                    _ if !lanes.is_empty() => {
                        let n = lanes.len();
                        let (store, want, snapshot) = &mut lanes[lane % n];
                        store_into(store, at, v);
                        want[at] = v;
                        *snapshot = None;
                    }
                    _ => {}
                }
                proptest::prop_assert_eq!(elements(&master), &model);
                for (store, want, snapshot) in &lanes {
                    proptest::prop_assert_eq!(elements(store), want);
                    if let Some(snapshot) = snapshot {
                        proptest::prop_assert!(store.same_as(snapshot));
                        proptest::prop_assert_eq!(&**snapshot, &ArrData::I(want.clone()));
                    }
                }
            }
        }
    }

    /// The last holder of a shared allocation takes it over instead of
    /// copying it: after a join the master's untouched arrays cost their
    /// next store nothing but the state change.
    #[test]
    fn the_last_holder_of_a_shared_store_unshares_without_a_copy() {
        let mut master = ArrStore::Owned(ArrData::I(vec![7; 4]));
        let allocation = elements(&master).as_ptr();
        let snapshot = master.share();
        assert_eq!(elements(&master).as_ptr(), allocation, "share() moves the header, not the elements");
        let lane = master.clone();
        assert!(lane.same_as(&snapshot) && !ArrStore::Owned(ArrData::I(vec![7; 4])).same_as(&snapshot));
        drop((snapshot, lane));
        store_into(&mut master, 0, 1);
        assert_eq!(elements(&master).as_ptr(), allocation);
        assert_eq!(elements(&master), &[1, 7, 7, 7]);
    }
}
