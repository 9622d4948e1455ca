//! Run-time values and storage.

use crate::error::MachineError;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64};
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

/// Array element storage (column-major, flattened): a handle on one
/// allocation of cells. Cloning it clones the handle — every clone reads
/// and writes the same elements, so a lane of the threaded backend
/// stores into the master's memory in place and a fork copies no element
/// — and [`Self::copy`] is the one way to a second set of elements. Stores
/// go through `&`. The cells are atomics, loaded and stored `Relaxed`
/// (plain moves on x86-64): lanes that a wrong annotation lets race on
/// an element leave it unspecified, never undefined behaviour. What
/// orders a lane's stores before the master reads them is the join's
/// channel.
#[derive(Debug, Clone)]
pub(crate) enum ArrData {
    I(Arc<[AtomicI64]>),
    /// Each element's `f64` bits.
    R(Arc<[AtomicU64]>),
    B(Arc<[AtomicBool]>),
}

/// Cells for which all-zero bytes are a valid value.
///
/// # Safety
///
/// An implementor must hold a valid value in all-zero bytes.
pub(crate) unsafe trait Zeroable {}
// SAFETY: an atomic integer has the bit validity of its integer, for
// which all-zero bytes are 0.
unsafe impl Zeroable for AtomicI64 {}
// SAFETY: as for `AtomicI64`; zero bits are the `f64` +0.0.
unsafe impl Zeroable for AtomicU64 {}
// SAFETY: `AtomicBool` has the bit validity of `bool`, whose zero byte is
// `false`.
unsafe impl Zeroable for AtomicBool {}

/// `n` cells holding zero, allocated zeroed: the allocator hands out
/// untouched pages, which cost no memory until a store lands on them.
pub(crate) fn zeroed<T: Zeroable>(n: usize) -> Arc<[T]> {
    // SAFETY: `T: Zeroable`, so the zeroed cells are initialized.
    unsafe { Arc::new_zeroed_slice(n).assume_init() }
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
            ArrData::I(v) => V::I(v[idx].load(Relaxed)),
            ArrData::R(v) => V::R(f64::from_bits(v[idx].load(Relaxed))),
            ArrData::B(v) => V::B(v[idx].load(Relaxed)),
        }
    }

    /// Store with Fortran assignment conversion.
    pub(crate) fn set(&self, idx: usize, v: V) -> Result<(), MachineError> {
        match self {
            ArrData::I(s) => s[idx].store(v.as_i()?, Relaxed),
            ArrData::R(s) => s[idx].store(v.as_r()?.to_bits(), Relaxed),
            ArrData::B(s) => s[idx].store(v.as_b()?, Relaxed),
        }
        Ok(())
    }

    /// Zeroed cells of this array's type and length.
    pub(crate) fn blank(&self) -> ArrData {
        match self {
            ArrData::I(v) => ArrData::I(zeroed(v.len())),
            ArrData::R(v) => ArrData::R(zeroed(v.len())),
            ArrData::B(v) => ArrData::B(zeroed(v.len())),
        }
    }

    /// A second set of elements, equal to these now: [`Self::blank`]
    /// cells, into which each element that is not zero is stored, so a
    /// copy of memory nobody has written touches no page.
    pub(crate) fn copy(&self) -> ArrData {
        let to = self.blank();
        match (&to, self) {
            (ArrData::I(t), ArrData::I(f)) => t.iter().zip(f.iter()).for_each(|(t, f)| {
                let x = f.load(Relaxed);
                if x != 0 {
                    t.store(x, Relaxed);
                }
            }),
            (ArrData::R(t), ArrData::R(f)) => t.iter().zip(f.iter()).for_each(|(t, f)| {
                let x = f.load(Relaxed);
                if x != 0 {
                    t.store(x, Relaxed);
                }
            }),
            (ArrData::B(t), ArrData::B(f)) => t.iter().zip(f.iter()).for_each(|(t, f)| {
                if f.load(Relaxed) {
                    t.store(true, Relaxed);
                }
            }),
            _ => unreachable!("a blank array has its original's type"),
        }
        to
    }

    /// Store into every element the value of its type among `i`, `r`
    /// and `b`.
    pub(crate) fn fill(&self, i: i64, r: f64, b: bool) {
        match self {
            ArrData::I(v) => v.iter().for_each(|c| c.store(i, Relaxed)),
            ArrData::R(v) => v.iter().for_each(|c| c.store(r.to_bits(), Relaxed)),
            ArrData::B(v) => v.iter().for_each(|c| c.store(b, Relaxed)),
        }
    }
}

/// One dimension of an array's column-major layout.
#[derive(Debug)]
pub(crate) struct Dim {
    pub(crate) low: i64,
    pub(crate) extent: i64,
    /// Elements between neighbours along this dimension (1 for the first).
    pub(crate) stride: i64,
}

/// An array's name and column-major layout, built once by lowering
/// ([`crate::lower::Image::shapes`]) and shared by the bytecode unit and
/// every interpreter of the image, a lane's too; each holds a handle on
/// the elements apart, an [`ArrData`].
#[derive(Debug)]
pub struct Shape {
    pub name: String,
    pub(crate) dims: Box<[Dim]>,
}

impl Shape {
    /// The shape of an array declared with `(low, extent)` per dimension.
    pub(crate) fn new(name: String, bounds: impl IntoIterator<Item = (i64, i64)>) -> Shape {
        let mut stride = 1i64;
        let dims = bounds
            .into_iter()
            .map(|(low, extent)| {
                let d = Dim { low, extent, stride };
                stride = stride.saturating_mul(extent);
                d
            })
            .collect();
        Shape { name, dims }
    }

    /// The offset of element `subs`, for both engines: each subscript is
    /// checked against its dimension, first dimension first, and the
    /// first out of range is reported with that dimension's extent. An
    /// offset returned is in range of the array's elements, which
    /// lowering sized by the same extents: a dimension adds at most
    /// `(extent - 1) * stride`, and the VM reads unchecked on that.
    #[inline(always)]
    pub(crate) fn flatten(&self, subs: &[i64]) -> Result<usize, MachineError> {
        debug_assert_eq!(subs.len(), self.dims.len());
        let mut off = 0i64;
        for (s, d) in subs.iter().zip(self.dims.iter()) {
            let z = s - d.low;
            if z < 0 || z >= d.extent {
                return Err(MachineError::OutOfBounds {
                    array: self.name.clone(),
                    index: *s,
                    len: d.extent as usize,
                });
            }
            off += z * d.stride;
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

    /// The one layout: column-major order with strides derived from the
    /// extents, lower bounds other than 1, and the out-of-bounds payload
    /// of the first failing dimension.
    #[test]
    fn shape_flattens_column_major_and_reports_the_first_failing_dimension() {
        let a = Shape::new("A".into(), [(1, 10), (1, 5)]);
        let strides: Vec<_> = a.dims.iter().map(|d| (d.low, d.extent, d.stride)).collect();
        assert_eq!(strides, [(1, 10, 1), (1, 5, 10)]);
        assert_eq!(a.flatten(&[1, 1]).unwrap(), 0);
        assert_eq!(a.flatten(&[2, 1]).unwrap(), 1); // first dim fastest
        assert_eq!(a.flatten(&[1, 2]).unwrap(), 10);
        for j in 1..=5i64 {
            for i in 1..=10i64 {
                assert_eq!(a.flatten(&[i, j]).unwrap() as i64, (i - 1) + 10 * (j - 1), "({i},{j})");
            }
        }
        let oob = |array: &str, index, len| MachineError::OutOfBounds { array: array.into(), index, len };
        assert_eq!(a.flatten(&[11, 1]), Err(oob("A", 11, 10)));
        assert_eq!(a.flatten(&[0, 1]), Err(oob("A", 0, 10)));
        assert_eq!(a.flatten(&[3, 6]), Err(oob("A", 6, 5)));
        // Both out of range: the first dimension is the one reported.
        assert_eq!(a.flatten(&[0, 6]), Err(oob("A", 0, 10)));

        let b = Shape::new("B".into(), [(0, 4)]);
        assert_eq!(b.flatten(&[0]).unwrap(), 0);
        assert_eq!(b.flatten(&[3]).unwrap(), 3);
        assert_eq!(b.flatten(&[4]), Err(oob("B", 4, 4)));
        assert_eq!(b.flatten(&[-1]), Err(oob("B", -1, 4)));

        let c = Shape::new("C".into(), [(-2, 5), (0, 3)]);
        assert_eq!(c.flatten(&[-2, 0]).unwrap(), 0);
        assert_eq!(c.flatten(&[2, 2]).unwrap(), 4 + 2 * 5);
        assert_eq!(c.flatten(&[-3, 0]), Err(oob("C", -3, 5)));
        assert_eq!(c.flatten(&[0, 3]), Err(oob("C", 3, 3)));
    }

    /// A clone is a handle on the same elements: a store through one is
    /// read through the other. A copy is new elements, equal bit for bit
    /// (`-0.0` and a NaN payload too, though it stores no zero), and
    /// written apart from the original.
    #[test]
    fn clones_share_the_elements_and_copies_do_not() {
        let nan = 0x7ff8_0000_0000_0001;
        let master = ArrData::R(zeroed(4));
        let lane = master.clone();
        lane.set(1, V::R(-0.0)).unwrap();
        lane.set(2, V::R(f64::from_bits(nan))).unwrap();
        let bits = |a: &ArrData| -> Vec<u64> {
            (0..a.len()).map(|i| a.get(i).as_r().unwrap().to_bits()).collect()
        };
        assert_eq!(bits(&master), [0, (-0.0f64).to_bits(), nan, 0]);
        let saved = master.copy();
        assert_eq!(bits(&saved), bits(&master));
        master.set(3, V::R(5.0)).unwrap();
        saved.set(0, V::R(1.0)).unwrap();
        assert_eq!((bits(&saved)[3], bits(&lane)[3]), (0, 5.0f64.to_bits()));
        assert_eq!(bits(&master)[0], 0);
        let ints = ArrData::I(zeroed(3));
        ints.fill(-7, 0.5, true);
        assert_eq!((0..3).map(|i| ints.get(i)).collect::<Vec<_>>(), [V::I(-7); 3]);
    }
}
