//! The event-log wire codec: one field trait and two table macros.
//!
//! [`crate::events`] declares each event's fields exactly once, inside a
//! [`wire_enum!`] or [`wire_struct!`] table; the table *is* the type and
//! its JSON form. A field's type picks its encoding through [`Field`].
//! Every malformed input is an `Err`, never a panic: a missing key, a
//! wrong type, an out-of-range integer, a counter name outside the
//! metric-name grammar.

use serde_json::Value;

use crate::counters::TaskCounters;
use crate::metrics::valid_metric_name;

pub(crate) fn raise(msg: impl Into<String>) -> serde_json::Error {
    serde_json::Error::Raise(serde::Error::new(msg))
}

pub(crate) fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value, serde_json::Error> {
    v.get(key)
        .ok_or_else(|| raise(format!("missing field {key:?}")))
}

/// Read `key` through `pick`; `None` from `pick` means the wrong type.
fn typed<T>(
    obj: &Value,
    key: &str,
    ty: &str,
    pick: impl FnOnce(&Value) -> Option<T>,
) -> Result<T, serde_json::Error> {
    pick(field(obj, key)?).ok_or_else(|| raise(format!("field {key:?} is not {ty}")))
}

/// How one field type is written to and read from a JSON object. A
/// missing key, a wrong type and an out-of-range integer are all errors.
pub(crate) trait Field: Sized {
    /// Append this field to `obj` under `key`.
    fn put(&self, key: &str, obj: &mut Vec<(String, Value)>);
    fn get(obj: &Value, key: &str) -> Result<Self, serde_json::Error>;
}

macro_rules! int_fields {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn put(&self, key: &str, obj: &mut Vec<(String, Value)>) {
                obj.push((key.to_string(), Value::from(*self)));
            }
            fn get(obj: &Value, key: &str) -> Result<Self, serde_json::Error> {
                let n = typed(obj, key, "a u64", Value::as_u64)?;
                <$t>::try_from(n).map_err(|_| raise(format!("field {key:?} out of range")))
            }
        }
    )*};
}
int_fields!(u64, usize, u32);

impl Field for bool {
    fn put(&self, key: &str, obj: &mut Vec<(String, Value)>) {
        obj.push((key.to_string(), Value::from(*self)));
    }
    fn get(obj: &Value, key: &str) -> Result<Self, serde_json::Error> {
        typed(obj, key, "a bool", Value::as_bool)
    }
}

impl Field for String {
    fn put(&self, key: &str, obj: &mut Vec<(String, Value)>) {
        obj.push((key.to_string(), Value::from(self)));
    }
    fn get(obj: &Value, key: &str) -> Result<Self, serde_json::Error> {
        typed(obj, key, "a string", |v| v.as_str().map(str::to_string))
    }
}

/// `None` is an explicit `null`, not an absent key.
impl Field for Option<u64> {
    fn put(&self, key: &str, obj: &mut Vec<(String, Value)>) {
        obj.push((key.to_string(), Value::from(*self)));
    }
    fn get(obj: &Value, key: &str) -> Result<Self, serde_json::Error> {
        typed(obj, key, "a u64 or null", |v| match v {
            Value::Null => Some(None),
            v => v.as_u64().map(Some),
        })
    }
}

/// One `{"name": value, …}` object in name order; `{}` for no counters.
impl Field for TaskCounters {
    fn put(&self, key: &str, obj: &mut Vec<(String, Value)>) {
        obj.push((key.to_string(), self.to_json()));
    }
    fn get(obj: &Value, key: &str) -> Result<Self, serde_json::Error> {
        let Value::Object(pairs) = field(obj, key)? else {
            return Err(raise(format!("field {key:?} is not an object")));
        };
        let mut counters = TaskCounters::default();
        for (name, v) in pairs {
            if !valid_metric_name(name) {
                return Err(raise(format!("invalid counter name {name:?}")));
            }
            let n = v
                .as_u64()
                .ok_or_else(|| raise(format!("counter {name:?} is not a u64")))?;
            counters.add(name.clone(), n);
        }
        Ok(counters)
    }
}

/// Define a struct whose fields are written once: the declaration is also
/// its JSON form (a nested object, keys in declaration order).
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident: $ty:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $ty, )*
        }

        impl Field for $name {
            fn put(&self, key: &str, obj: &mut Vec<(String, Value)>) {
                let mut inner = Vec::new();
                $( self.$field.put(stringify!($field), &mut inner); )*
                obj.push((key.to_string(), Value::Object(inner)));
            }
            fn get(obj: &Value, key: &str) -> Result<Self, serde_json::Error> {
                let inner = field(obj, key)?;
                Ok($name {
                    $( $field: Field::get(inner, stringify!($field))?, )*
                })
            }
        }
    };
}

pub(crate) use wire_struct;

/// Define an enum of struct-like variants whose fields are written once:
/// the declaration generates `name()`, `to_json()` and `from_json()`. The
/// JSON form is a flat object — the `$tag` key holding the variant name,
/// then the variant's fields in declaration order.
macro_rules! wire_enum {
    (
        tag = $tag:literal;
        $(#[$meta:meta])*
        pub enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident {
                    $( $(#[$fmeta:meta])* $field:ident: $ty:ty ),* $(,)?
                }
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $(
                $(#[$vmeta])*
                $variant {
                    $( $(#[$fmeta])* $field: $ty, )*
                },
            )*
        }

        impl $name {
            /// The variant name — the discriminator in the JSON form.
            pub fn name(&self) -> &'static str {
                match self {
                    $( $name::$variant { .. } => stringify!($variant), )*
                }
            }

            /// Serialize to a JSON object led by the discriminator.
            pub fn to_json(&self) -> Value {
                let mut obj = vec![($tag.to_string(), Value::from(self.name()))];
                match self {
                    $(
                        $name::$variant { $($field,)* } => {
                            $( $field.put(stringify!($field), &mut obj); )*
                        }
                    )*
                }
                Value::Object(obj)
            }

            /// Parse the JSON form back into a typed value.
            pub fn from_json(v: &Value) -> Result<Self, serde_json::Error> {
                match String::get(v, $tag)?.as_str() {
                    $(
                        stringify!($variant) => Ok($name::$variant {
                            $( $field: Field::get(v, stringify!($field))?, )*
                        }),
                    )*
                    other => Err(raise(format!("unknown {} {other:?}", $tag))),
                }
            }
        }
    };
}
pub(crate) use wire_enum;
