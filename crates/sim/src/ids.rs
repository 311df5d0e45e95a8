use serde::{Deserialize, Serialize};

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct $name(pub usize);

        impl $name {
            /// The raw index.
            #[inline]
            pub fn index(self) -> usize {
                self.0
            }
        }

        impl From<usize> for $name {
            fn from(i: usize) -> Self {
                Self(i)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

id_type! {
    /// Index of a server within a [`crate::Topology`].
    ServerId
}
id_type! {
    /// Index of a blade enclosure within a [`crate::Topology`].
    EnclosureId
}
id_type! {
    /// Index of a virtual machine (equivalently, of its workload trace).
    VmId
}
id_type! {
    /// Index of a rack (a group of enclosures) within a [`crate::Topology`].
    RackId
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_and_displayable() {
        assert!(ServerId(1) < ServerId(2));
        assert_eq!(VmId::from(3).index(), 3);
        assert_eq!(EnclosureId(0).to_string(), "EnclosureId(0)");
    }
}
