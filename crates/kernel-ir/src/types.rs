//! Scalar and pointer types for the kernel IR.
//!
//! The type system mirrors the subset of OpenCL C that accelerator kernels
//! use in practice: sized integers, single/double precision floats, booleans
//! (comparison results) and pointers qualified by an address space.

use std::fmt;

/// OpenCL address spaces.
///
/// Address spaces are part of a pointer's type: a `global float*` and a
/// `local float*` are distinct, never interchangeable without a cast, and the
/// verifier enforces that (`C-NEWTYPE` style static distinction).
///
/// # Examples
///
/// ```
/// use kernel_ir::types::AddressSpace;
/// assert_ne!(AddressSpace::Global, AddressSpace::Local);
/// assert_eq!(AddressSpace::Global.to_string(), "global");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AddressSpace {
    /// Device global memory, visible to all work items of all work groups.
    Global,
    /// On-chip memory shared by the work items of one work group.
    Local,
    /// Per-work-item memory (stack allocations).
    Private,
    /// Read-only device memory.
    Constant,
}

impl fmt::Display for AddressSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AddressSpace::Global => "global",
            AddressSpace::Local => "local",
            AddressSpace::Private => "private",
            AddressSpace::Constant => "constant",
        };
        f.write_str(s)
    }
}

/// An IR type.
///
/// # Examples
///
/// ```
/// use kernel_ir::types::{AddressSpace, Type};
/// let p = Type::ptr(AddressSpace::Global, Type::F32);
/// assert!(p.is_ptr());
/// assert_eq!(p.pointee(), Some(&Type::F32));
/// assert_eq!(Type::I64.byte_size(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Type {
    /// No value; only valid as a function return type.
    Void,
    /// Boolean produced by comparisons.
    Bool,
    /// 32-bit signed integer (`int`).
    I32,
    /// 64-bit signed integer (`long` / `size_t`).
    I64,
    /// 32-bit float (`float`).
    F32,
    /// 64-bit float (`double`).
    F64,
    /// Pointer into `space` with element type `elem`.
    Ptr {
        /// Address space the pointer refers to.
        space: AddressSpace,
        /// Pointee element type.
        elem: Box<Type>,
    },
}

impl Type {
    /// Convenience constructor for a pointer type.
    pub fn ptr(space: AddressSpace, elem: Type) -> Self {
        Type::Ptr {
            space,
            elem: Box::new(elem),
        }
    }

    /// Returns `true` for any pointer type.
    pub fn is_ptr(&self) -> bool {
        matches!(self, Type::Ptr { .. })
    }

    /// Returns `true` for `I32`/`I64`.
    pub fn is_int(&self) -> bool {
        matches!(self, Type::I32 | Type::I64)
    }

    /// Returns `true` for `F32`/`F64`.
    pub fn is_float(&self) -> bool {
        matches!(self, Type::F32 | Type::F64)
    }

    /// Returns `true` for any numeric scalar (int or float).
    pub fn is_numeric(&self) -> bool {
        self.is_int() || self.is_float()
    }

    /// The pointee type if this is a pointer.
    pub fn pointee(&self) -> Option<&Type> {
        match self {
            Type::Ptr { elem, .. } => Some(elem),
            _ => None,
        }
    }

    /// The address space if this is a pointer.
    pub fn space(&self) -> Option<AddressSpace> {
        match self {
            Type::Ptr { space, .. } => Some(*space),
            _ => None,
        }
    }

    /// Size of one value of this type in bytes.
    ///
    /// Pointers are modelled as 8 bytes (64-bit device).
    ///
    /// # Panics
    ///
    /// Panics if called on [`Type::Void`], which has no size.
    pub fn byte_size(&self) -> usize {
        match self {
            Type::Void => panic!("void has no size"),
            Type::Bool => 1,
            Type::I32 | Type::F32 => 4,
            Type::I64 | Type::F64 | Type::Ptr { .. } => 8,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => f.write_str("void"),
            Type::Bool => f.write_str("bool"),
            Type::I32 => f.write_str("i32"),
            Type::I64 => f.write_str("i64"),
            Type::F32 => f.write_str("f32"),
            Type::F64 => f.write_str("f64"),
            Type::Ptr { space, elem } => write!(f, "{space} {elem}*"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_sizes() {
        assert_eq!(Type::Bool.byte_size(), 1);
        assert_eq!(Type::I32.byte_size(), 4);
        assert_eq!(Type::F32.byte_size(), 4);
        assert_eq!(Type::I64.byte_size(), 8);
        assert_eq!(Type::F64.byte_size(), 8);
        assert_eq!(Type::ptr(AddressSpace::Global, Type::F32).byte_size(), 8);
    }

    #[test]
    #[should_panic(expected = "void has no size")]
    fn void_has_no_size() {
        let _ = Type::Void.byte_size();
    }

    #[test]
    fn predicates() {
        assert!(Type::I32.is_int());
        assert!(Type::I64.is_int());
        assert!(!Type::F32.is_int());
        assert!(Type::F32.is_float());
        assert!(Type::F64.is_numeric());
        assert!(Type::I32.is_numeric());
        assert!(!Type::Bool.is_numeric());
        let p = Type::ptr(AddressSpace::Local, Type::I32);
        assert!(p.is_ptr());
        assert_eq!(p.space(), Some(AddressSpace::Local));
        assert_eq!(p.pointee(), Some(&Type::I32));
        assert_eq!(Type::I32.pointee(), None);
        assert_eq!(Type::I32.space(), None);
    }

    #[test]
    fn display() {
        assert_eq!(
            Type::ptr(AddressSpace::Global, Type::F32).to_string(),
            "global f32*"
        );
        assert_eq!(Type::Void.to_string(), "void");
        assert_eq!(Type::Bool.to_string(), "bool");
        assert_eq!(Type::F64.to_string(), "f64");
        assert_eq!(AddressSpace::Private.to_string(), "private");
        assert_eq!(AddressSpace::Constant.to_string(), "constant");
    }
}
