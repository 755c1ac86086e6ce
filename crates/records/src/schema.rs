//! Declared wire schemas: every wire type states its keys and encodings
//! once, in one [`schema!`](crate::schema!) table, from which both
//! directions and one error style are generated.
//!
//! A row is `("key", Codec) => field`, or `("key", Codec)` alone for a
//! fixed value such as a kind tag or a format version ([`Tag`]). The codec
//! is the field's encoding, chosen per field rather than per Rust type: a
//! `u64` goes as [`Hex`] or as a [`Num`], an `f64` as [`Bits`] or as a
//! [`Num`], an unset `Option` is written as `null` ([`OrNull`]) or its row
//! left out ([`Omit`]). Keys are written in row order. An enum lists one
//! row set per variant, whose first row is its tag: the first variant whose
//! tag row reads decodes the document, and a document no tag row reads is
//! an unknown kind. A decode error names the first row that does not read.

use crate::Json;

/// How one field travels.
pub trait Codec<T> {
    /// The value as a JSON node.
    fn enc(&self, v: &T) -> Json;
    /// The value back from its node; `None` when malformed.
    fn dec(&self, node: &Json) -> Option<T>;
    /// Writes the field under `key`.
    fn put(&self, key: &str, v: &T, out: &mut Vec<(String, Json)>) {
        out.push((key.to_string(), self.enc(v)));
    }
    /// Reads the field under `key`; `None` when missing or malformed.
    fn take(&self, doc: &Json, key: &str) -> Option<T> {
        doc.get(key).and_then(|node| self.dec(node))
    }
}

/// A `u64` as 16 hex digits, since a JSON number cannot carry 64 bits.
pub struct Hex;
/// A plain JSON number: an integer, or an `f64` that must be finite.
pub struct Num;
/// An `f64` as its 16-hex-digit bit pattern: exact, NaN and ±∞ included.
pub struct Bits;
/// A string.
pub struct Text;
/// A bool.
pub struct Flag;
/// A document carried as it is (an opaque spec or result).
pub struct Raw;
/// A nested declared type.
pub struct Doc;
/// A fixed string or number, always written; any other value is refused.
pub struct Tag<T>(pub T);
/// An array of one codec's values.
pub struct List<C>(pub C);
/// An optional value written as `null` when unset.
pub struct OrNull<C>(pub C);
/// An optional field whose row is left out when unset, and reads as unset
/// when absent: `Omit(OrNull(Num))`.
pub struct Omit<C>(pub C);

// `$s` is the `self` token, passed in so the expressions may use it.
macro_rules! scalar {
    ($s:ident; $($C:ty, $T:ty: |$v:ident| $enc:expr, |$n:ident| $dec:expr;)*) => {$(
        impl Codec<$T> for $C {
            fn enc(&$s, $v: &$T) -> Json {
                $enc
            }
            fn dec(&$s, $n: &Json) -> Option<$T> {
                $dec
            }
        }
    )*};
}

scalar! { self;
    Hex, u64: |v| Json::u64_hex(*v), |n| n.as_u64_hex();
    Bits, f64: |v| Json::f64_bits(*v), |n| n.as_f64_bits();
    Num, f64: |v| Json::Num(*v), |n| n.as_f64();
    Num, usize: |v| Json::Num(*v as f64), |n| n.as_usize();
    Num, u64: |v| Json::Num(*v as f64), |n| n.as_usize().map(|v| v as u64);
    Num, u32: |v| Json::Num(f64::from(*v)), |n| u32::try_from(n.as_usize()?).ok();
    Num, i64: |v| Json::Num(*v as f64),
        |n| n.as_f64().filter(|v| v.fract() == 0.0 && v.abs() < 2f64.powi(53)).map(|v| v as i64);
    Text, String: |v| Json::Str(v.clone()), |n| n.as_str().map(str::to_string);
    Flag, bool: |v| Json::Bool(*v), |n| n.as_bool();
    Raw, Json: |v| v.clone(), |n| Some(n.clone());
    Tag<&'static str>, (): |_v| Json::Str(self.0.to_string()),
        |n| (n.as_str() == Some(self.0)).then_some(());
    Tag<usize>, (): |_v| Num.enc(&self.0), |n| (n.as_usize() == Some(self.0)).then_some(());
}

impl<T, C: Codec<T>> Codec<Vec<T>> for List<C> {
    fn enc(&self, v: &Vec<T>) -> Json {
        Json::Arr(v.iter().map(|x| self.0.enc(x)).collect())
    }
    fn dec(&self, node: &Json) -> Option<Vec<T>> {
        node.as_arr()?.iter().map(|x| self.0.dec(x)).collect()
    }
}

impl<T, C: Codec<T>, const N: usize> Codec<[T; N]> for List<C> {
    fn enc(&self, v: &[T; N]) -> Json {
        Json::Arr(v.iter().map(|x| self.0.enc(x)).collect())
    }
    fn dec(&self, node: &Json) -> Option<[T; N]> {
        Codec::<Vec<T>>::dec(self, node)?.try_into().ok()
    }
}

impl<T, C: Codec<T>> Codec<Option<T>> for OrNull<C> {
    fn enc(&self, v: &Option<T>) -> Json {
        v.as_ref().map_or(Json::Null, |v| self.0.enc(v))
    }
    fn dec(&self, node: &Json) -> Option<Option<T>> {
        match node {
            Json::Null => Some(None),
            node => self.0.dec(node).map(Some),
        }
    }
}

impl<T, C: Codec<Option<T>>> Codec<Option<T>> for Omit<C> {
    fn enc(&self, v: &Option<T>) -> Json {
        self.0.enc(v)
    }
    fn dec(&self, node: &Json) -> Option<Option<T>> {
        self.0.dec(node)
    }
    fn put(&self, key: &str, v: &Option<T>, out: &mut Vec<(String, Json)>) {
        if v.is_some() {
            self.0.put(key, v, out);
        }
    }
    fn take(&self, doc: &Json, key: &str) -> Option<Option<T>> {
        doc.get(key).map_or(Some(None), |node| self.0.dec(node))
    }
}

/// Reads one row; `Err` says that its key is missing or malformed.
pub fn take<T, C: Codec<T>>(doc: &Json, (key, codec): &(&str, C)) -> Result<T, String> {
    codec.take(doc, key).ok_or_else(|| format!("{key:?} is missing or malformed"))
}

/// The error for a document no tag row under `key` reads.
pub fn unknown(doc: &Json, key: &str) -> String {
    match doc.get(key).and_then(Json::as_str) {
        Some(kind) => format!("unknown or malformed {key} {kind:?}"),
        None => format!("{key:?} is missing or malformed"),
    }
}

/// A decoded value's check when the table names none.
pub fn unchecked<T>(_: &T) -> Result<(), String> {
    Ok(())
}

/// Declares a struct's or an enum's wire table (see the
/// [`schema`](mod@crate::schema) module), generating its `to_json`, its
/// `from_json` and its [`Doc`] codec. `checked by f` runs `f(&value)?` on
/// every decoded struct.
#[macro_export]
macro_rules! schema {
    (struct $T:ident, checked by $check:path { $($rows:tt)* }) => {
        $crate::schema!(@impl $T, $check, [$T] { $($rows)* });
    };
    (struct $T:ident { $($rows:tt)* }) => {
        $crate::schema!(@impl $T, $crate::schema::unchecked, [$T] { $($rows)* });
    };
    (enum $T:ident { $($V:ident { $($rows:tt)* }),* $(,)? }) => {
        $crate::schema!(@impl $T, $crate::schema::unchecked, $([$T::$V] { $($rows)* })*);
    };
    (@ref) => { &() };
    (@ref $f:ident) => { $f };
    (@pat) => { _ };
    (@pat $f:ident) => { $f };
    (@impl $T:ident, $check:path,
        $([$($P:ident)::+] { $tag:tt $(=> $g:ident)? $(, $row:tt $(=> $f:ident)?)* $(,)? })*) => {
        impl $T {
            /// Encodes the value by its wire table.
            pub fn to_json(&self) -> $crate::Json {
                use $crate::schema::Codec;
                let mut out = Vec::new();
                match self {$(
                    $($P)::+ { $($g,)? $($($f,)?)* } => {
                        $tag.1.put($tag.0, $crate::schema!(@ref $($g)?), &mut out);
                        $($row.1.put($row.0, $crate::schema!(@ref $($f)?), &mut out);)*
                    }
                )*}
                $crate::Json::Obj(out)
            }

            /// Decodes a document by the wire table; `Err` names the first
            /// row that is missing or malformed.
            pub fn from_json(doc: &$crate::Json) -> Result<Self, String> {
                use $crate::schema::Codec;
                $(if let Some(tag) = $tag.1.take(doc, $tag.0) {
                    let $crate::schema!(@pat $($g)?) = tag;
                    $(let $crate::schema!(@pat $($f)?) = $crate::schema::take(doc, &$row)?;)*
                    let value = $($P)::+ { $($g,)? $($($f,)?)* };
                    $check(&value)?;
                    return Ok(value);
                })*
                Err($crate::schema::unknown(doc, [$($tag.0),*][0]))
            }
        }

        impl $crate::schema::Codec<$T> for $crate::schema::Doc {
            fn enc(&self, v: &$T) -> $crate::Json {
                v.to_json()
            }
            fn dec(&self, node: &$crate::Json) -> Option<$T> {
                $T::from_json(node).ok()
            }
        }
    };
}
