//! External-memory image: functional buffer contents plus a base-address
//! layout so accesses have absolute DRAM addresses for the bank model.

use nymble_ir::walker::DataMemory;
use nymble_ir::{ArgId, ArgKind, Kernel, Type, Value};
use std::borrow::Cow;
use std::fmt;

/// Launch value for one kernel argument (same shape as the gold
/// interpreter's, re-declared here to keep crate dependencies one-way).
#[derive(Clone, Debug)]
pub enum LaunchArg {
    Scalar(Value),
    Buffer(Vec<Value>),
}

/// Why a launch does not fit a kernel's signature.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LaunchError {
    /// The launch has `got` arguments; the kernel takes `expected`.
    Arity { expected: usize, got: usize },
    /// Argument `index` (`name`) is a buffer given a scalar, or a scalar
    /// given a buffer.
    Kind {
        index: usize,
        name: String,
        buffer_expected: bool,
    },
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchError::Arity { expected, got } => write!(
                f,
                "the launch has {got} argument(s), the kernel takes {expected}"
            ),
            LaunchError::Kind {
                index,
                name,
                buffer_expected,
            } => {
                let (want, got) = if *buffer_expected {
                    ("a buffer", "a scalar")
                } else {
                    ("a scalar", "a buffer")
                };
                write!(f, "argument {index} (`{name}`) takes {want}, got {got}")
            }
        }
    }
}

impl std::error::Error for LaunchError {}

/// Functional memory image with a flat address layout: buffers are placed
/// back to back, each aligned to 4 KiB (how the OpenMP runtime's device
/// allocator would place them in the FPGA board DRAM).
///
/// The image borrows the launch's buffers and copies one only when it is
/// first written ([`DataMemory::store_ext`]), so a reader of the pristine
/// image (the analytic model) copies nothing. The simulator, which writes,
/// holds an owned image ([`MemImage::into_owned`]).
pub struct MemImage<'a> {
    bufs: Vec<Cow<'a, [Value]>>,
    base: Vec<u64>,
    elem_size: Vec<u32>,
}

impl<'a> MemImage<'a> {
    /// Lay out the buffers of `launch` according to `kernel`'s signature and
    /// return the image plus the scalar-argument vector for walkers.
    ///
    /// # Panics
    ///
    /// When the launch does not fit the signature; [`Self::try_new`]
    /// returns that as an error instead.
    pub fn new(kernel: &Kernel, launch: &'a [LaunchArg]) -> (Self, Vec<Value>) {
        Self::try_new(kernel, launch).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::new`], or why `launch` does not fit `kernel`'s signature:
    /// one argument per kernel argument, a scalar for each scalar and a
    /// buffer for each buffer.
    pub fn try_new(
        kernel: &Kernel,
        launch: &'a [LaunchArg],
    ) -> Result<(Self, Vec<Value>), LaunchError> {
        if launch.len() != kernel.args.len() {
            return Err(LaunchError::Arity {
                expected: kernel.args.len(),
                got: launch.len(),
            });
        }
        let mut bufs = Vec::with_capacity(launch.len());
        let mut base = Vec::with_capacity(launch.len());
        let mut elem_size = Vec::with_capacity(launch.len());
        let mut scalars = Vec::with_capacity(launch.len());
        let mut cursor = 0u64;
        const ALIGN: u64 = 4096;
        for (index, (arg, la)) in kernel.args.iter().zip(launch).enumerate() {
            base.push(cursor);
            match (&arg.kind, la) {
                (ArgKind::Scalar(_), LaunchArg::Scalar(v)) => {
                    scalars.push(v.clone());
                    bufs.push(Cow::Borrowed(&[][..]));
                    elem_size.push(0);
                }
                (ArgKind::Buffer { elem, .. }, LaunchArg::Buffer(b)) => {
                    scalars.push(Value::I32(0));
                    elem_size.push(elem.size_bytes());
                    cursor +=
                        (b.len() as u64 * elem.size_bytes() as u64).div_ceil(ALIGN) * ALIGN + ALIGN;
                    bufs.push(Cow::Borrowed(b.as_slice()));
                }
                (kind, _) => {
                    return Err(LaunchError::Kind {
                        index,
                        name: arg.name.clone(),
                        buffer_expected: matches!(kind, ArgKind::Buffer { .. }),
                    })
                }
            }
        }
        Ok((
            MemImage {
                bufs,
                base,
                elem_size,
            },
            scalars,
        ))
    }

    /// The image with every buffer copied out of the launch.
    pub fn into_owned(self) -> MemImage<'static> {
        MemImage {
            bufs: self
                .bufs
                .into_iter()
                .map(|b| Cow::Owned(b.into_owned()))
                .collect(),
            base: self.base,
            elem_size: self.elem_size,
        }
    }

    /// Absolute DRAM byte address of `buf`'s byte offset.
    pub fn abs_addr(&self, buf: ArgId, byte_off: u64) -> u64 {
        self.base[buf.0 as usize] + byte_off
    }

    /// Final buffer contents (for result read-back).
    pub fn into_buffers(self) -> Vec<Vec<Value>> {
        self.bufs.into_iter().map(Cow::into_owned).collect()
    }

    /// Borrow a buffer's contents.
    pub fn buffer(&self, buf: ArgId) -> &[Value] {
        &self.bufs[buf.0 as usize]
    }

    /// Element size in bytes of a buffer argument.
    pub fn elem_size(&self, buf: ArgId) -> u32 {
        self.elem_size[buf.0 as usize]
    }
}

impl DataMemory for MemImage<'_> {
    fn load_ext(&mut self, buf: ArgId, elem_idx: u64, ty: Type) -> Value {
        let b = &self.bufs[buf.0 as usize];
        let i = elem_idx as usize;
        assert!(
            i + (ty.lanes.max(1) as usize - 1) < b.len(),
            "device load out of bounds: buffer {:?} len {} index {} lanes {}",
            buf,
            b.len(),
            i,
            ty.lanes
        );
        if ty.lanes <= 1 {
            b[i].clone()
        } else {
            let lanes: Vec<Value> = (0..ty.lanes as usize).map(|l| b[i + l].clone()).collect();
            Value::Vec(lanes.into_boxed_slice())
        }
    }

    fn store_ext(&mut self, buf: ArgId, elem_idx: u64, v: Value) {
        let b = self.bufs[buf.0 as usize].to_mut();
        let i = elem_idx as usize;
        match v {
            Value::Vec(lanes) => {
                assert!(
                    i + lanes.len() <= b.len(),
                    "device vector store out of bounds"
                );
                for (l, lv) in lanes.iter().enumerate() {
                    b[i + l] = lv.clone();
                }
            }
            s => {
                assert!(i < b.len(), "device store out of bounds");
                b[i] = s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nymble_ir::{KernelBuilder, MapDir, ScalarType};

    #[test]
    fn layout_is_aligned_and_disjoint() {
        let mut kb = KernelBuilder::new("t", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let b = kb.buffer("B", ScalarType::F32, MapDir::To);
        let n = kb.scalar_arg("N", ScalarType::I64);
        let _ = n;
        let k = kb.finish();
        let launch = [
            LaunchArg::Buffer(vec![Value::F32(0.0); 100]),
            LaunchArg::Buffer(vec![Value::F32(0.0); 100]),
            LaunchArg::Scalar(Value::I64(100)),
        ];
        let (img, scalars) = MemImage::new(&k, &launch);
        assert_eq!(scalars[2], Value::I64(100));
        let a0 = img.abs_addr(a, 0);
        let b0 = img.abs_addr(b, 0);
        assert_eq!(a0 % 4096, 0);
        assert_eq!(b0 % 4096, 0);
        assert!(b0 >= a0 + 400, "buffers must not overlap");
        assert_eq!(img.elem_size(a), 4);
    }

    #[test]
    fn functional_roundtrip() {
        let mut kb = KernelBuilder::new("t", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::ToFrom);
        let k = kb.finish();
        let launch = [LaunchArg::Buffer(vec![Value::F32(0.0); 8])];
        let (mut img, _) = MemImage::new(&k, &launch);
        img.store_ext(a, 3, Value::F32(7.5));
        assert_eq!(img.load_ext(a, 3, Type::F32), Value::F32(7.5));
        let v = img.load_ext(a, 2, Type::vector(ScalarType::F32, 2));
        assert_eq!(v.lane(1), &Value::F32(7.5));
    }

    fn two_buffers() -> (Kernel, ArgId, ArgId, Vec<LaunchArg>) {
        let mut kb = KernelBuilder::new("t", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let b = kb.buffer("B", ScalarType::F32, MapDir::ToFrom);
        let launch = vec![
            LaunchArg::Buffer(vec![Value::F32(1.0); 8]),
            LaunchArg::Buffer(vec![Value::F32(2.0); 8]),
        ];
        (kb.finish(), a, b, launch)
    }

    fn launch_ptr(la: &LaunchArg) -> *const Value {
        match la {
            LaunchArg::Buffer(v) => v.as_ptr(),
            LaunchArg::Scalar(_) => panic!("buffer expected"),
        }
    }

    #[test]
    fn unwritten_buffers_alias_the_launch() {
        let (k, a, b, launch) = two_buffers();
        let (mut img, _) = MemImage::new(&k, &launch);
        assert_eq!(img.load_ext(b, 1, Type::F32), Value::F32(2.0));
        assert_eq!(img.buffer(a).as_ptr(), launch_ptr(&launch[0]));
        assert_eq!(img.buffer(b).as_ptr(), launch_ptr(&launch[1]));
    }

    #[test]
    fn a_store_copies_only_the_written_buffer() {
        let (k, a, b, launch) = two_buffers();
        let (mut img, _) = MemImage::new(&k, &launch);
        img.store_ext(b, 3, Value::F32(9.0));
        assert_eq!(img.buffer(a).as_ptr(), launch_ptr(&launch[0]));
        assert_ne!(img.buffer(b).as_ptr(), launch_ptr(&launch[1]));
        assert_eq!(img.load_ext(b, 3, Type::F32), Value::F32(9.0));
        let LaunchArg::Buffer(untouched) = &launch[1] else {
            unreachable!()
        };
        assert_eq!(untouched, &vec![Value::F32(2.0); 8]);
        let out = img.into_buffers();
        assert_eq!(out[0], vec![Value::F32(1.0); 8]);
        let mut want = vec![Value::F32(2.0); 8];
        want[3] = Value::F32(9.0);
        assert_eq!(out[1], want);
    }

    #[test]
    fn a_launch_that_does_not_fit_is_an_error() {
        let (k, _, _, mut launch) = two_buffers();
        let short = &launch[..1];
        assert_eq!(
            MemImage::try_new(&k, short).err(),
            Some(LaunchError::Arity {
                expected: 2,
                got: 1
            })
        );
        launch[1] = LaunchArg::Scalar(Value::I64(4));
        let err = MemImage::try_new(&k, &launch).err();
        assert_eq!(
            err,
            Some(LaunchError::Kind {
                index: 1,
                name: "B".into(),
                buffer_expected: true
            })
        );
        assert_eq!(
            err.unwrap().to_string(),
            "argument 1 (`B`) takes a buffer, got a scalar"
        );
    }
}
