//! The one declaration form of a counter struct.

/// Declares a counter struct from its field list and generates its `merge`
/// and `for_each`, so a counter is written once.
///
/// Each field is `pub name: u64` with its doc comments, and the struct is
/// emitted as written, attributes and derives included. `merge(&mut self,
/// other: &Self)` adds `other`'s counters into `self`, except that a field
/// marked `[max]` after its type (`pub queue_depth_hwm: u64 [max],`) is a
/// high-water mark and keeps the larger of the two values. `for_each(&self,
/// f)` calls `f(name, value)` once per field, in declaration order: the
/// order of the list is the order of the walk.
#[macro_export]
macro_rules! counters {
    (@merge $into:expr, $from:expr) => {
        $into += $from
    };
    (@merge $into:expr, $from:expr, max) => {
        $into = $into.max($from)
    };
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident {
            $($(#[$field_attr:meta])* pub $field:ident: u64 $([$merge:ident])?,)+
        }
    ) => {
        $(#[$attr])*
        $vis struct $name {
            $($(#[$field_attr])* pub $field: u64,)+
        }

        impl $name {
            /// Merges another counter set into this one: counters add, and a
            /// high-water mark keeps the larger value.
            pub fn merge(&mut self, other: &Self) {
                $($crate::counters!(@merge self.$field, other.$field $(, $merge)?);)+
            }

            /// Calls `f` with each counter's name and value, in declaration
            /// order.
            pub fn for_each(&self, mut f: impl FnMut(&'static str, u64)) {
                $(f(stringify!($field), self.$field);)+
            }
        }
    };
}

#[cfg(test)]
mod tests {
    crate::counters! {
        /// Three counters, the middle one a high-water mark.
        #[derive(Debug, Default, PartialEq, Eq)]
        pub struct Sample {
            /// A volume.
            pub first: u64,
            /// A high-water mark.
            pub deepest: u64 [max],
            /// Another volume.
            pub last: u64,
        }
    }

    #[test]
    fn sums_add_marks_keep_the_larger_and_the_walk_is_in_declaration_order() {
        let mut a = Sample {
            first: 1,
            deepest: 9,
            last: 0,
        };
        a.merge(&Sample {
            first: 2,
            deepest: 4,
            last: 5,
        });
        assert_eq!(
            a,
            Sample {
                first: 3,
                deepest: 9,
                last: 5
            }
        );
        a.merge(&Sample {
            deepest: 12,
            ..Default::default()
        });
        assert_eq!(a.deepest, 12);

        let mut walked = Vec::new();
        a.for_each(|name, value| walked.push((name, value)));
        assert_eq!(walked, [("first", 3), ("deepest", 12), ("last", 5)]);
    }
}
