//! The one JSON codec behind the crate's documents: `lnuca-scenario/v1`
//! files, `lnuca-journal/v1` records and `lnuca-report/v1` reports
//! (DESIGN.md §12.3).
//!
//! A `record!` declaration lists a type's JSON members once, as
//! `"key" => field: Kind`; the encoder and a strict decoder are generated
//! from that list. A `names!` table does the same for a fieldless enum.
//! Decoding overwrites the declared members of a base value (a preset, a
//! builder default or `Default`): `required` declarations (journal, report)
//! need every member that is not `Omit`/`Maybe`, `optional` ones (scenario
//! files) keep the base for an absent or `null` member. Unknown keys fail
//! with their JSON path ([`At`], rendered only on error). Floats are
//! declared per member: `Bits` (exact IEEE pattern) or `Float` (decimal).

use serde::json::Value;
use std::fmt;
use std::marker::PhantomData;

/// Where a value sits in its document: a chain of borrowed path segments,
/// rendered (`$.configs[1].fabric.levels`) only when an error needs it.
#[derive(Clone, Copy)]
pub(crate) enum At<'a> {
    /// The document root, spelled as given (usually `$`).
    Root(&'a str),
    /// A member of an object.
    Key(&'a At<'a>, &'a str),
    /// An element of an array.
    Index(&'a At<'a>, usize),
}

impl At<'_> {
    /// The path of member `key` below this one.
    pub(crate) fn key<'b>(&'b self, key: &'b str) -> At<'b> {
        At::Key(self, key)
    }

    /// An error at this path.
    pub(crate) fn error(&self, message: impl Into<String>) -> DecodeError {
        DecodeError {
            path: self.to_string(),
            message: message.into(),
        }
    }
}

impl fmt::Display for At<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            At::Root(root) => f.write_str(root),
            At::Key(parent, key) => write!(f, "{parent}.{key}"),
            At::Index(parent, index) => write!(f, "{parent}[{index}]"),
        }
    }
}

/// Why a document was rejected: the JSON path of the violation and what is
/// wrong there. Each document surface adds its own prefix (`invalid
/// scenario at …`, `invalid report at …`, a journal line number).
#[derive(Debug)]
pub(crate) struct DecodeError {
    /// JSON path of the violation.
    pub(crate) path: String,
    /// What is wrong there.
    pub(crate) message: String,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.message)
    }
}

/// How one JSON value maps to a Rust value of type [`Kind::T`].
pub(crate) trait Kind {
    /// The Rust type.
    type T;

    /// Whether the member may be absent from an object (it then keeps its
    /// base value).
    const MAY_BE_ABSENT: bool = false;

    /// The value decoding starts from when there is no slot to overwrite:
    /// array elements and a `None` becoming `Some`.
    fn base() -> Self::T;

    /// Encodes `value`.
    fn encode(value: &Self::T) -> Value;

    /// Decodes `json` onto `slot`.
    fn decode(at: At<'_>, json: &Value, slot: &mut Self::T) -> Result<(), DecodeError>;

    /// Whether the encoder leaves the member out entirely.
    fn omit(_value: &Self::T) -> bool {
        false
    }
}

/// Decodes `json` from the kind's base value.
pub(crate) fn read<K: Kind>(at: At<'_>, json: &Value) -> Result<K::T, DecodeError> {
    let mut value = K::base();
    K::decode(at, json, &mut value)?;
    Ok(value)
}

fn expected(at: At<'_>, what: &str, json: &Value) -> DecodeError {
    at.error(format!("expected {what}, got {}", json.type_name()))
}

/// Scalar kinds: `Kind => T: "what", |value| encode, |json| decode`, where
/// `decode` yields `None` for a value that is not `what`.
macro_rules! scalars {
    ($($kind:ty => $t:ty: $what:expr, |$v:ident| $encode:expr, |$j:ident| $decode:expr;)*) => {$(
        impl Kind for $kind {
            type T = $t;
            fn base() -> $t {
                <$t>::default()
            }
            fn encode($v: &$t) -> Value {
                $encode
            }
            fn decode(at: At<'_>, $j: &Value, slot: &mut $t) -> Result<(), DecodeError> {
                *slot = $decode.ok_or_else(|| expected(at, $what, $j))?;
                Ok(())
            }
        }
    )*};
}

/// An `f64` stored as its exact IEEE bit pattern (a JSON integer), so it
/// survives a round trip bit for bit.
pub(crate) struct Bits;

/// An `f64` stored as a JSON number; any number decodes.
pub(crate) struct Float;

macro_rules! unsigned {
    ($($t:ty),*) => {
        scalars! {$(
            $t => $t: concat!("a non-negative integer that fits in ", stringify!($t)),
                |v| Value::UInt(*v as u64), |json| json.as_u64().and_then(|n| <$t>::try_from(n).ok());
        )*}
    };
}

unsigned!(u8, u32, u64, usize);

scalars! {
    String => String: "a string", |v| Value::String(v.clone()), |json| json.as_str().map(str::to_owned);
    bool => bool: "a boolean", |v| Value::Bool(*v), |json| json.as_bool();
    Float => f64: "a number", |v| Value::Float(*v), |json| json.as_f64();
    Bits => f64: "a bit pattern", |v| Value::UInt(v.to_bits()), |json| json.as_u64().map(f64::from_bits);
}

/// `null` or a value: decodes over the slot's current value when there is
/// one, so an override refines a preset instead of replacing it.
impl<K: Kind> Kind for Option<K> {
    type T = Option<K::T>;
    fn base() -> Self::T {
        None
    }
    fn encode(value: &Self::T) -> Value {
        value.as_ref().map_or(Value::Null, K::encode)
    }
    fn decode(at: At<'_>, json: &Value, slot: &mut Self::T) -> Result<(), DecodeError> {
        *slot = match json {
            Value::Null => None,
            present => {
                let mut inner = slot.take().unwrap_or_else(K::base);
                K::decode(at, present, &mut inner)?;
                Some(inner)
            }
        };
        Ok(())
    }
}

/// An array; every element decodes from the element kind's base value.
impl<K: Kind> Kind for Vec<K> {
    type T = Vec<K::T>;
    fn base() -> Self::T {
        Vec::new()
    }
    fn encode(value: &Self::T) -> Value {
        Value::Array(value.iter().map(K::encode).collect())
    }
    fn decode(at: At<'_>, json: &Value, slot: &mut Self::T) -> Result<(), DecodeError> {
        let items = json
            .as_array()
            .ok_or_else(|| expected(at, "an array", json))?;
        *slot = items
            .iter()
            .enumerate()
            .map(|(i, item)| read::<K>(At::Index(&at, i), item))
            .collect::<Result<_, _>>()?;
        Ok(())
    }
}

/// A member that may be absent from its object, keeping its base value;
/// with `OMIT` the encoder also leaves it out while it equals the base
/// (`None`, an empty array). Spelled [`Omit`] and [`Maybe`].
pub(crate) struct Absent<K, const OMIT: bool>(PhantomData<K>);

/// Left out of the document while it holds nothing.
pub(crate) type Omit<K> = Absent<K, true>;

/// Always written, but may be absent on input.
pub(crate) type Maybe<K> = Absent<K, false>;

impl<K: Kind, const OMIT: bool> Kind for Absent<K, OMIT>
where
    K::T: PartialEq,
{
    type T = K::T;
    const MAY_BE_ABSENT: bool = true;
    fn base() -> K::T {
        K::base()
    }
    fn encode(value: &K::T) -> Value {
        K::encode(value)
    }
    fn decode(at: At<'_>, json: &Value, slot: &mut K::T) -> Result<(), DecodeError> {
        K::decode(at, json, slot)
    }
    fn omit(value: &K::T) -> bool {
        OMIT && *value == K::base()
    }
}

/// The strict object walker: hands out members by key, remembers which
/// were consumed and rejects the rest in [`Obj::finish`].
pub(crate) struct Obj<'v, 'p> {
    /// The object's own path.
    pub(crate) at: At<'p>,
    members: &'v [(String, Value)],
    seen: Vec<bool>,
}

impl<'v, 'p> Obj<'v, 'p> {
    /// Starts walking `json`, which must be an object.
    pub(crate) fn new(at: At<'p>, json: &'v Value) -> Result<Self, DecodeError> {
        let members = json
            .as_object()
            .ok_or_else(|| expected(at, "an object", json))?;
        Ok(Obj {
            at,
            members,
            seen: vec![false; members.len()],
        })
    }

    /// Member `key` as written (`null` included), marked consumed.
    pub(crate) fn get(&mut self, key: &str) -> Option<&'v Value> {
        let i = self.members.iter().position(|(k, _)| k == key)?;
        self.seen[i] = true;
        Some(&self.members[i].1)
    }

    /// Member `key` unless it is absent or `null`.
    pub(crate) fn present(&mut self, key: &str) -> Option<&'v Value> {
        self.get(key).filter(|json| !matches!(json, Value::Null))
    }

    /// Member `key`, which must be present.
    pub(crate) fn need(&mut self, key: &str) -> Result<&'v Value, DecodeError> {
        self.get(key)
            .ok_or_else(|| self.at.error(format!("missing required field {key:?}")))
    }

    /// Rejects every member that was never consumed.
    pub(crate) fn finish(self) -> Result<(), DecodeError> {
        let unknown: Vec<&str> = self
            .members
            .iter()
            .zip(&self.seen)
            .filter(|(_, seen)| !**seen)
            .map(|((k, _), _)| k.as_str())
            .collect();
        if unknown.is_empty() {
            Ok(())
        } else {
            Err(self
                .at
                .error(format!("unknown field(s): {}", unknown.join(", "))))
        }
    }
}

/// A member of a `required` declaration.
pub(crate) fn required<'v, K: Kind>(
    obj: &mut Obj<'v, '_>,
    key: &str,
) -> Result<Option<&'v Value>, DecodeError> {
    if K::MAY_BE_ABSENT {
        Ok(obj.get(key))
    } else {
        obj.need(key).map(Some)
    }
}

/// A member of an `optional` declaration: absent and `null` both keep the
/// base value.
pub(crate) fn optional<'v, K: Kind>(
    obj: &mut Obj<'v, '_>,
    key: &str,
) -> Result<Option<&'v Value>, DecodeError> {
    Ok(obj.present(key))
}

/// Writes the document's `schema` marker.
pub(crate) fn push_schema(out: &mut Vec<(String, Value)>, schema: &str) {
    out.push(("schema".to_owned(), Value::String(schema.to_owned())));
}

/// Checks the document's `schema` marker.
pub(crate) fn check_schema(obj: &mut Obj<'_, '_>, schema: &str) -> Result<(), DecodeError> {
    let here = obj.at;
    let at = here.key("schema");
    let found = read::<String>(at, obj.need("schema")?)?;
    if found == schema {
        Ok(())
    } else {
        Err(at.error(format!("expected {schema:?}, got {found:?}")))
    }
}

/// Member check: a count (or an optional count) of at least one.
pub(crate) fn at_least_one<T: Copy + Into<Option<usize>>>(
    message: &'static str,
) -> impl FnOnce(&T) -> Result<(), String> {
    move |n| match (*n).into() {
        Some(0) => Err(message.to_owned()),
        _ => Ok(()),
    }
}

/// Member check: a non-empty array.
pub(crate) fn non_empty<T>(message: &'static str) -> impl FnOnce(&Vec<T>) -> Result<(), String> {
    move |items| {
        if items.is_empty() {
            Err(message.to_owned())
        } else {
            Ok(())
        }
    }
}

/// `"a"`, `"a or b"`, `"a, b or c"`.
pub(crate) fn one_of(names: &[&str]) -> String {
    match names {
        [] => String::new(),
        [only] => (*only).to_owned(),
        [init @ .., last] => format!("{} or {last}", init.join(", ")),
    }
}

/// Declares the JSON members of a record type once; generates the encoder
/// and the strict decoder.
///
/// ```text
/// record! {
///     /// Docs of the generated kind.
///     KindName(RecordType), required|optional
///         [, schema SCHEMA_CONST] [, base { expr }] [, decode hook_fn] {
///         "key" => field.path: MemberKind [where rule],
///         ...
///     }
/// }
/// ```
///
/// The kind implements [`Kind`] (encoding every member, the schema marker
/// first when declared; decoding from `base`, `Default::default()` when
/// omitted) and gets `fields`, which decodes the declared members from an
/// [`Obj`]. A `decode` hook
/// `fn(&mut Obj, &mut RecordType) -> Result<(), DecodeError>` replaces the
/// plain member walk, for records with cross-member rules; it calls
/// `fields` itself.
macro_rules! record {
    (
        $(#[$meta:meta])*
        $name:ident($ty:ty), $mode:ident
            $(, schema $schema:ident)? $(, base $base:block)? $(, decode $walk:path)? {
            $($key:literal => $($field:ident).+ : $kind:ty $(where $rule:expr)?),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub(crate) struct $name;

        impl $name {
            /// Decodes the declared members of `obj` onto `value`.
            pub(crate) fn fields(
                obj: &mut $crate::codec::Obj<'_, '_>,
                value: &mut $ty,
            ) -> Result<(), $crate::codec::DecodeError> {
                $($crate::codec::check_schema(obj, $schema)?;)?
                let here = obj.at;
                $(
                    if let Some(json) = $crate::codec::$mode::<$kind>(obj, $key)? {
                        let at = here.key($key);
                        let slot = &mut value.$($field).+;
                        <$kind as $crate::codec::Kind>::decode(at, json, slot)?;
                        $(($rule)(&*slot).map_err(|message| at.error(message))?;)?
                    }
                )*
                Ok(())
            }
        }

        impl $crate::codec::Kind for $name {
            type T = $ty;
            fn base() -> $ty {
                $crate::codec::first!($($base,)? Default::default())
            }
            /// Encodes every declared member of `value`, in declaration order.
            fn encode(value: &$ty) -> serde::json::Value {
                let mut out = Vec::new();
                $($crate::codec::push_schema(&mut out, $schema);)?
                $(
                    if !<$kind as $crate::codec::Kind>::omit(&value.$($field).+) {
                        out.push((
                            $key.to_owned(),
                            <$kind as $crate::codec::Kind>::encode(&value.$($field).+),
                        ));
                    }
                )*
                serde::json::Value::Object(out)
            }
            fn decode(
                at: $crate::codec::At<'_>,
                json: &serde::json::Value,
                slot: &mut $ty,
            ) -> Result<(), $crate::codec::DecodeError> {
                let mut obj = $crate::codec::Obj::new(at, json)?;
                $crate::codec::first!($($walk,)? Self::fields)(&mut obj, slot)?;
                obj.finish()
            }
        }
    };
}

/// The first of its arguments: a declared value, else the default.
macro_rules! first {
    ($given:expr $(, $default:expr)?) => {
        $given
    };
}

/// Declares the JSON names of a fieldless enum once: the first name of each
/// variant is written, every listed name is accepted, and an unknown name
/// fails with the list of written names. `Enum, "what" { ... }` implements
/// [`Kind`] on the enum itself; `Marker(Enum), "what" { ... }` declares a
/// second spelling under a marker kind.
macro_rules! names {
    ($marker:ident($ty:ty), $what:literal { $($body:tt)* }) => {
        /// A JSON spelling of the enum, declared with `names!`.
        pub(crate) struct $marker;
        $crate::codec::names!(@impl $marker, $ty, $what { $($body)* });
    };
    ($ty:ident, $what:literal { $($body:tt)* }) => {
        $crate::codec::names!(@impl $ty, $ty, $what { $($body)* });
    };
    (@impl $kind:ty, $ty:ty, $what:literal {
        $($variant:path => $name:literal $(| $alias:literal)*),+ $(,)?
    }) => {
        impl $crate::codec::Kind for $kind {
            type T = $ty;
            fn base() -> $ty {
                [$($variant),+][0]
            }
            fn encode(value: &$ty) -> serde::json::Value {
                serde::json::Value::String(match value { $($variant => $name,)+ }.to_owned())
            }
            fn decode(
                at: $crate::codec::At<'_>,
                json: &serde::json::Value,
                slot: &mut $ty,
            ) -> Result<(), $crate::codec::DecodeError> {
                let name = $crate::codec::read::<String>(at, json)?;
                *slot = match name.as_str() {
                    $($name $(| $alias)* => $variant,)+
                    other => {
                        return Err(at.error(format!(
                            "unknown {} {other:?} (expected {})",
                            $what,
                            $crate::codec::one_of(&[$($name),+]),
                        )))
                    }
                };
                Ok(())
            }
        }
    };
}

pub(crate) use {first, names, record};

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default, PartialEq)]
    pub(crate) struct Inner {
        pub(crate) n: usize,
        tags: Vec<String>,
    }

    #[derive(Debug, Default, PartialEq)]
    pub(crate) struct Outer {
        name: String,
        ratio: f64,
        exact: f64,
        inner: Option<Inner>,
        extra: Vec<u32>,
    }

    record! {
        /// Test record.
        InnerDoc(Inner), required {
            "n" => n: usize where at_least_one("n must be positive"),
            "tags" => tags: Vec<String>,
        }
    }

    record! {
        /// Test record.
        OuterDoc(Outer), required {
            "name" => name: String,
            "ratio" => ratio: Float,
            "exact" => exact: Bits,
            "inner" => inner: Option<InnerDoc>,
            "extra" => extra: Omit<Vec<u32>>,
        }
    }

    record! {
        /// Test record.
        Overrides(Inner), optional, base { Inner { n: 7, tags: vec!["base".to_owned()] } } {
            "n" => n: usize,
            "tags" => tags: Vec<String>,
        }
    }

    fn parse(text: &str) -> Value {
        serde::json::parse(text).expect("test documents parse")
    }

    fn root() -> At<'static> {
        At::Root("$")
    }

    #[test]
    fn records_round_trip_and_omit_empty_members() {
        let value = Outer {
            name: "x".to_owned(),
            ratio: 0.1 + 0.2,
            exact: 0.1 + 0.2,
            inner: Some(Inner {
                n: 3,
                tags: vec!["a".to_owned()],
            }),
            extra: Vec::new(),
        };
        let json = OuterDoc::encode(&value);
        assert!(json.get("extra").is_none(), "empty Omit members are left out");
        assert_eq!(json.get("exact"), Some(&Value::UInt((0.1f64 + 0.2).to_bits())));
        assert_eq!(read::<OuterDoc>(root(), &json).unwrap(), value);
        let text = json.to_compact();
        assert_eq!(read::<OuterDoc>(root(), &parse(&text)).unwrap(), value);
    }

    #[test]
    fn required_members_unknown_keys_and_checks_report_their_paths() {
        let err = read::<OuterDoc>(root(), &parse(r#"{"name": "x", "ratio": 1}"#)).unwrap_err();
        assert_eq!(
            (err.path.as_str(), err.message.as_str()),
            ("$", "missing required field \"exact\"")
        );

        let doc =
            r#"{"name": "x", "ratio": 1, "exact": 0, "inner": {"n": 1, "tags": [], "bad": 1}}"#;
        let err = read::<OuterDoc>(root(), &parse(doc)).unwrap_err();
        assert_eq!(err.to_string(), "$.inner: unknown field(s): bad");

        let doc = r#"{"name": "x", "ratio": 1, "exact": 0, "inner": {"n": 1, "tags": ["a", 2]}}"#;
        let err = read::<OuterDoc>(root(), &parse(doc)).unwrap_err();
        assert_eq!(err.to_string(), "$.inner.tags[1]: expected a string, got number");

        let doc = r#"{"name": "x", "ratio": 1, "exact": 0, "inner": {"n": 0, "tags": []}}"#;
        let err = read::<OuterDoc>(root(), &parse(doc)).unwrap_err();
        assert_eq!(err.to_string(), "$.inner.n: n must be positive");

        let doc = r#"{"name": "x", "ratio": 1, "exact": 0, "inner": null, "extra": [300]}"#;
        let decoded = read::<OuterDoc>(root(), &parse(doc)).unwrap();
        assert_eq!((decoded.inner, decoded.extra), (None, vec![300]));
        let err = read::<OuterDoc>(
            root(),
            &parse(r#"{"name": "x", "ratio": 1, "exact": 0, "inner": null, "extra": [-1]}"#),
        )
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            "$.extra[0]: expected a non-negative integer that fits in u32, got number"
        );
    }

    #[test]
    fn optional_members_keep_the_base_when_absent_or_null() {
        let decoded = read::<Overrides>(root(), &parse(r#"{"n": null}"#)).unwrap();
        assert_eq!(
            decoded,
            Inner {
                n: 7,
                tags: vec!["base".to_owned()]
            }
        );
        let decoded = read::<Overrides>(root(), &parse(r#"{"tags": []}"#)).unwrap();
        assert_eq!(
            decoded,
            Inner {
                n: 7,
                tags: Vec::new()
            }
        );
        let err = read::<u8>(root(), &Value::UInt(256)).unwrap_err();
        assert_eq!(err.message, "expected a non-negative integer that fits in u8, got number");
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    pub(crate) enum Shade {
        Light,
        Dark,
        Dim,
    }

    names! { Shade, "shade" {
        Shade::Light => "light" | "pale",
        Shade::Dark => "dark",
        Shade::Dim => "dim",
    } }

    #[test]
    fn name_tables_write_the_first_name_and_accept_aliases() {
        assert_eq!(Shade::encode(&Shade::Light), Value::String("light".to_owned()));
        assert_eq!(read::<Shade>(root(), &Value::String("pale".to_owned())).unwrap(), Shade::Light);
        let err = read::<Shade>(root(), &Value::String("grey".to_owned())).unwrap_err();
        assert_eq!(err.message, "unknown shade \"grey\" (expected light, dark or dim)");
        assert_eq!(Shade::base(), Shade::Light);
    }
}
