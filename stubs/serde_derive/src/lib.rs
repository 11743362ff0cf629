//! Working stand-in for serde_derive: expands `#[derive(Serialize)]` /
//! `#[derive(Deserialize)]` into real impls of the offline stub's traits
//! (`serde::Serialize::to_content` / `serde::Deserialize::from_content`).
//!
//! The macro parses the item structurally from the raw `TokenStream` (no
//! `syn`/`quote` — the build is hermetic) and supports exactly the shapes
//! the workspace uses:
//!
//! * structs with named fields (honouring `#[serde(default)]`),
//! * tuple structs (newtype and general),
//! * unit structs,
//! * enums with unit, newtype, tuple and struct variants
//!   (externally tagged, as in real serde),
//! * simple type generics (`struct CacheArray<M>`), which keep their
//!   declared bounds and gain `Serialize`/`Deserialize` ones,
//! * the container attributes `#[serde(from = "T", into = "T")]`: the
//!   type (de)serializes as `T`, through its `From`/`Into` impls (and
//!   `Clone`, for `into`) — the body's shape is then irrelevant.
//!
//! Unsupported syntax (where-clauses, lifetimes on the item, const
//! generics) panics with a clear message at expansion time rather than
//! generating wrong code.

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::iter::Peekable;

struct Field {
    name: String,
    /// `#[serde(default)]`: substitute `Default::default()` when missing.
    default: bool,
    /// `#[serde(default = "path")]`: substitute `path()` when missing.
    default_path: Option<String>,
    /// `#[serde(skip_serializing_if = "path")]`: omit the field from the
    /// serialized map when `path(&self.field)` is true.
    skip_if: Option<String>,
}

/// Field-level serde attributes recognised by the stub.
#[derive(Default)]
struct FieldAttrs {
    default: bool,
    default_path: Option<String>,
    skip_if: Option<String>,
}

enum Shape {
    Named(Vec<Field>),
    Tuple(usize),
    Unit,
    Enum(Vec<Variant>),
}

enum VariantShape {
    Unit,
    Named(Vec<Field>),
    Tuple(usize),
}

struct Variant {
    name: String,
    shape: VariantShape,
}

/// One type parameter: its name and its declared bounds (`""` if none).
struct Generic {
    name: String,
    bounds: String,
}

struct Item {
    name: String,
    generics: Vec<Generic>,
    shape: Shape,
    /// `#[serde(from = "T")]`: deserialize a `T`, then `From::from` it.
    from: Option<String>,
    /// `#[serde(into = "T")]`: serialize `Into::<T>::into(self.clone())`.
    into: Option<String>,
}

type Tokens = Peekable<proc_macro::token_stream::IntoIter>;

/// Consumes leading attributes; returns the recognised serde field
/// attributes (`default`, `default = "path"`,
/// `skip_serializing_if = "path"`).
fn skip_attrs(it: &mut Tokens) -> FieldAttrs {
    let mut attrs = FieldAttrs::default();
    while matches!(it.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        it.next();
        let Some(TokenTree::Group(g)) = it.next() else {
            panic!("serde_derive stub: malformed attribute");
        };
        let mut inner = g.stream().into_iter();
        if let Some(TokenTree::Ident(id)) = inner.next() {
            if id.to_string() == "serde" {
                if let Some(TokenTree::Group(args)) = inner.next() {
                    let mut args = args.stream().into_iter().peekable();
                    while let Some(t) = args.next() {
                        if let TokenTree::Ident(a) = t {
                            match a.to_string().as_str() {
                                "default" => {
                                    // Bare `default`, or `default = "path"`.
                                    if matches!(
                                        args.peek(),
                                        Some(TokenTree::Punct(p)) if p.as_char() == '='
                                    ) {
                                        args.next();
                                        match args.next() {
                                            Some(TokenTree::Literal(path)) => {
                                                let raw = path.to_string();
                                                attrs.default_path =
                                                    Some(raw.trim_matches('"').to_owned());
                                            }
                                            _ => panic!(
                                                "serde_derive stub: default needs a \
                                                 string path"
                                            ),
                                        }
                                    } else {
                                        attrs.default = true;
                                    }
                                }
                                "skip_serializing_if" => {
                                    // `= "Type::predicate"` follows.
                                    match (args.next(), args.next()) {
                                        (
                                            Some(TokenTree::Punct(eq)),
                                            Some(TokenTree::Literal(path)),
                                        ) if eq.as_char() == '=' => {
                                            let raw = path.to_string();
                                            attrs.skip_if = Some(
                                                raw.trim_matches('"').to_owned(),
                                            );
                                        }
                                        _ => panic!(
                                            "serde_derive stub: skip_serializing_if needs \
                                             a string path"
                                        ),
                                    }
                                }
                                other => panic!(
                                    "serde_derive stub: unsupported serde attribute `{other}`"
                                ),
                            }
                        }
                    }
                }
            }
        }
    }
    attrs
}

/// Consumes `pub` / `pub(crate)` / `pub(super)` if present.
fn skip_visibility(it: &mut Tokens) {
    if matches!(it.peek(), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        it.next();
        if matches!(it.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            it.next();
        }
    }
}

/// Consumes a `<...>` generics list, returning each type parameter with
/// the bounds it was declared with (real serde copies them onto its
/// impls too, which is what lets a `from`/`into` conversion rely on them).
fn parse_generics(it: &mut Tokens) -> Vec<Generic> {
    let mut params: Vec<Generic> = Vec::new();
    if !matches!(it.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return params;
    }
    it.next();
    let mut depth = 1usize;
    // Tokens of the current parameter's bounds, once its `:` was seen.
    let mut bounds: Option<Vec<TokenTree>> = None;
    let close = |params: &mut Vec<Generic>, bounds: &mut Option<Vec<TokenTree>>| {
        if let (Some(g), Some(b)) = (params.last_mut(), bounds.take()) {
            g.bounds = b.into_iter().collect::<TokenStream>().to_string();
        }
    };
    for t in it.by_ref() {
        match &t {
            TokenTree::Punct(p) if p.as_char() == '>' && depth == 1 => break,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 1 => {
                close(&mut params, &mut bounds);
                continue;
            }
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == '\'' && depth == 1 => {
                panic!("serde_derive stub: lifetime parameters are not supported");
            }
            TokenTree::Punct(p) if p.as_char() == '=' && depth == 1 => {
                panic!("serde_derive stub: default type parameters are not supported");
            }
            _ => {}
        }
        match (&mut bounds, &t) {
            (Some(b), _) => b.push(t),
            (None, TokenTree::Punct(p)) if p.as_char() == ':' => bounds = Some(Vec::new()),
            (None, TokenTree::Ident(id)) => {
                if id.to_string() == "const" {
                    panic!("serde_derive stub: const generics are not supported");
                }
                params.push(Generic {
                    name: id.to_string(),
                    bounds: String::new(),
                });
            }
            (None, _) => {}
        }
    }
    close(&mut params, &mut bounds);
    params
}

/// Skips one type (after `:` in a field), stopping at a top-level `,`.
fn skip_type(it: &mut Tokens) {
    let mut angle = 0i32;
    while let Some(t) = it.peek() {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                it.next();
                return;
            }
            _ => {}
        }
        it.next();
    }
}

fn parse_named_fields(ts: TokenStream) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut it = ts.into_iter().peekable();
    loop {
        let attrs = skip_attrs(&mut it);
        skip_visibility(&mut it);
        let Some(TokenTree::Ident(name)) = it.next() else {
            break;
        };
        match it.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            _ => panic!("serde_derive stub: expected `:` after field `{name}`"),
        }
        skip_type(&mut it);
        fields.push(Field {
            name: name.to_string(),
            default: attrs.default,
            default_path: attrs.default_path,
            skip_if: attrs.skip_if,
        });
    }
    fields
}

/// Number of comma-separated entries at angle-bracket depth zero.
fn count_tuple_fields(ts: TokenStream) -> usize {
    let mut angle = 0i32;
    let mut any = false;
    let mut count = 0usize;
    for t in ts {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => count += 1,
            _ => any = true,
        }
    }
    // A trailing comma does not add a field.
    if any {
        count + 1
    } else {
        0
    }
}

fn parse_variants(ts: TokenStream) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut it = ts.into_iter().peekable();
    loop {
        skip_attrs(&mut it);
        let Some(TokenTree::Ident(name)) = it.next() else {
            break;
        };
        let shape = match it.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let g = g.stream();
                it.next();
                VariantShape::Named(parse_named_fields(g))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let g = g.stream();
                it.next();
                VariantShape::Tuple(count_tuple_fields(g))
            }
            _ => VariantShape::Unit,
        };
        // Skip a possible discriminant, then the separating comma.
        for t in it.by_ref() {
            if matches!(&t, TokenTree::Punct(p) if p.as_char() == ',') {
                break;
            }
        }
        variants.push(Variant {
            name: name.to_string(),
            shape,
        });
    }
    variants
}

/// The string value of a `name = "value"` pair whose name was just read.
fn string_value(name: &str, args: &mut impl Iterator<Item = TokenTree>) -> String {
    match (args.next(), args.next()) {
        (Some(TokenTree::Punct(eq)), Some(TokenTree::Literal(value))) if eq.as_char() == '=' => {
            value.to_string().trim_matches('"').to_owned()
        }
        _ => panic!("serde_derive stub: `{name}` needs a string value"),
    }
}

/// Reads one container attribute's `[...]` group: `serde(from = "T")` and
/// `serde(into = "T")` are recorded, every other attribute is ignored.
fn parse_container_attr(group: TokenStream, from: &mut Option<String>, into: &mut Option<String>) {
    let mut inner = group.into_iter();
    match (inner.next(), inner.next()) {
        (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args))) if id.to_string() == "serde" => {
            let mut args = args.stream().into_iter();
            while let Some(t) = args.next() {
                match t {
                    TokenTree::Ident(a) if a.to_string() == "from" => {
                        *from = Some(string_value("from", &mut args));
                    }
                    TokenTree::Ident(a) if a.to_string() == "into" => {
                        *into = Some(string_value("into", &mut args));
                    }
                    TokenTree::Ident(a) => panic!(
                        "serde_derive stub: unsupported serde container attribute `{a}`"
                    ),
                    _ => {}
                }
            }
        }
        _ => {}
    }
}

fn parse_item(input: TokenStream) -> Item {
    let mut it = input.into_iter().peekable();
    let (mut from, mut into) = (None, None);
    let kind = loop {
        match it.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                if let Some(TokenTree::Group(g)) = it.next() {
                    parse_container_attr(g.stream(), &mut from, &mut into);
                }
            }
            Some(TokenTree::Ident(id)) => {
                let s = id.to_string();
                if s == "struct" || s == "enum" {
                    break s;
                }
                // `pub`, `pub(crate)` …
                if s == "pub" {
                    if matches!(it.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                    {
                        it.next();
                    }
                } else if s == "union" {
                    panic!("serde_derive stub: unions are not supported");
                }
            }
            Some(_) => {}
            None => panic!("serde_derive stub: no struct or enum found"),
        }
    };
    let Some(TokenTree::Ident(name)) = it.next() else {
        panic!("serde_derive stub: expected item name");
    };
    let generics = parse_generics(&mut it);
    if matches!(it.peek(), Some(TokenTree::Ident(id)) if id.to_string() == "where") {
        panic!("serde_derive stub: where-clauses are not supported");
    }
    let shape = if kind == "enum" {
        match it.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum(parse_variants(g.stream()))
            }
            _ => panic!("serde_derive stub: expected enum body"),
        }
    } else {
        match it.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::Unit,
            _ => panic!("serde_derive stub: expected struct body"),
        }
    };
    Item {
        name: name.to_string(),
        generics,
        shape,
        from,
        into,
    }
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

const C: &str = "::serde::content::Content";

/// `<A, B>` for the type position, or the empty string.
fn type_args(item: &Item) -> String {
    if item.generics.is_empty() {
        String::new()
    } else {
        let names: Vec<&str> = item.generics.iter().map(|g| g.name.as_str()).collect();
        format!("<{}>", names.join(", "))
    }
}

/// The impl's type-parameter declarations: each parameter with its
/// declared bounds plus `extra`.
fn bounded_params(item: &Item, extra: &str) -> Vec<String> {
    let declare = |g: &Generic| match g.bounds.as_str() {
        "" => format!("{}: {extra}", g.name),
        bounds => format!("{}: {bounds} + {extra}", g.name),
    };
    item.generics.iter().map(declare).collect()
}

fn ser_named_fields(fields: &[Field], accessor: impl Fn(&str) -> String) -> String {
    let entry = |f: &Field| {
        format!(
            "(::std::string::String::from(\"{n}\"), ::serde::Serialize::to_content({a}))",
            n = f.name,
            a = accessor(&f.name)
        )
    };
    if fields.iter().all(|f| f.skip_if.is_none()) {
        let entries: Vec<String> = fields.iter().map(entry).collect();
        return format!("{C}::Map(::std::vec![{}])", entries.join(", "));
    }
    // Conditional fields: build the map imperatively so skipped fields
    // leave no trace (matches real serde's `skip_serializing_if`).
    let pushes: Vec<String> = fields
        .iter()
        .map(|f| match &f.skip_if {
            None => format!("__entries.push({});", entry(f)),
            Some(pred) => format!(
                "if !{pred}({a}) {{ __entries.push({e}); }}",
                a = accessor(&f.name),
                e = entry(f)
            ),
        })
        .collect();
    format!(
        "{{ let mut __entries: ::std::vec::Vec<(::std::string::String, {C})> = \
         ::std::vec::Vec::new(); {} {C}::Map(__entries) }}",
        pushes.join(" ")
    )
}

fn de_named_fields(ty_label: &str, fields: &[Field], map_var: &str) -> String {
    fields
        .iter()
        .map(|f| {
            let missing = if let Some(path) = &f.default_path {
                format!("{path}()")
            } else if f.default {
                "::std::default::Default::default()".to_owned()
            } else {
                format!(
                    "return ::std::result::Result::Err(::serde::content::missing_field(\"{ty_label}\", \"{n}\"))",
                    n = f.name
                )
            };
            format!(
                "{n}: match ::serde::content::find({map_var}, \"{n}\") {{ \
                   ::std::option::Option::Some(v) => ::serde::Deserialize::from_content(v)?, \
                   ::std::option::Option::None => {missing}, \
                 }},",
                n = f.name
            )
        })
        .collect::<Vec<_>>()
        .join("\n            ")
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let args = type_args(item);
    let params = if item.generics.is_empty() {
        String::new()
    } else {
        format!("<{}>", bounded_params(item, "::serde::Serialize").join(", "))
    };
    let body = match (&item.into, &item.shape) {
        (Some(into), _) => format!(
            "let converted: {into} = ::std::convert::Into::into(::std::clone::Clone::clone(self));\n        \
             ::serde::Serialize::to_content(&converted)"
        ),
        (None, Shape::Named(fields)) => ser_named_fields(fields, |n| format!("&self.{n}")),
        (None, Shape::Tuple(1)) => format!("::serde::Serialize::to_content(&self.0)"),
        (None, Shape::Tuple(n)) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_content(&self.{i})"))
                .collect();
            format!("{C}::Seq(::std::vec![{}])", items.join(", "))
        }
        (None, Shape::Unit) => format!("{C}::Null"),
        (None, Shape::Enum(variants)) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    match &v.shape {
                        VariantShape::Unit => format!(
                            "{name}::{vn} => {C}::Str(::std::string::String::from(\"{vn}\")),"
                        ),
                        VariantShape::Named(fields) => {
                            let binds = fields
                                .iter()
                                .map(|f| f.name.clone())
                                .collect::<Vec<_>>()
                                .join(", ");
                            let inner = ser_named_fields(fields, |n| n.to_owned());
                            format!(
                                "{name}::{vn} {{ {binds} }} => {C}::Map(::std::vec![(::std::string::String::from(\"{vn}\"), {inner})]),"
                            )
                        }
                        VariantShape::Tuple(1) => format!(
                            "{name}::{vn}(x0) => {C}::Map(::std::vec![(::std::string::String::from(\"{vn}\"), ::serde::Serialize::to_content(x0))]),"
                        ),
                        VariantShape::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("x{i}")).collect();
                            let items: Vec<String> = binds
                                .iter()
                                .map(|b| format!("::serde::Serialize::to_content({b})"))
                                .collect();
                            format!(
                                "{name}::{vn}({}) => {C}::Map(::std::vec![(::std::string::String::from(\"{vn}\"), {C}::Seq(::std::vec![{}]))]),",
                                binds.join(", "),
                                items.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!("match self {{\n            {}\n        }}", arms.join("\n            "))
        }
    };
    format!(
        "#[automatically_derived]\n\
         #[allow(unused_variables, unused_mut, clippy::all, clippy::pedantic)]\n\
         impl{params} ::serde::Serialize for {name}{args} {{\n    \
             fn to_content(&self) -> {C} {{\n        {body}\n    }}\n\
         }}\n"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let args = type_args(item);
    let mut params: Vec<String> = vec!["'de".to_owned()];
    params.extend(bounded_params(item, "::serde::Deserialize<'de>"));
    let params = format!("<{}>", params.join(", "));
    let err = |msg: &str| {
        format!(
            "::std::result::Result::Err(::serde::content::Error::msg(::std::format!(\"{msg}\", c.kind())))"
        )
    };
    let body = match (&item.from, &item.shape) {
        (Some(from), _) => format!(
            "let raw: {from} = ::serde::Deserialize::from_content(c)?;\n        \
             ::std::result::Result::Ok(::std::convert::From::from(raw))"
        ),
        (None, Shape::Named(fields)) => {
            let build = de_named_fields(name, fields, "m");
            format!(
                "let m = match c {{ {C}::Map(m) => m, other => return ::std::result::Result::Err(::serde::content::expected_map(\"{name}\", other)) }};\n        \
                 ::std::result::Result::Ok({name} {{\n            {build}\n        }})"
            )
        }
        (None, Shape::Tuple(1)) => format!(
            "::std::result::Result::Ok({name}(::serde::Deserialize::from_content(c)?))"
        ),
        (None, Shape::Tuple(n)) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_content(&items[{i}])?"))
                .collect();
            format!(
                "match c {{ {C}::Seq(items) if items.len() == {n} => ::std::result::Result::Ok({name}({})), _ => {} }}",
                items.join(", "),
                err(&format!("expected {n}-element array for `{name}`, got {{}}"))
            )
        }
        (None, Shape::Unit) => format!(
            "match c {{ {C}::Null => ::std::result::Result::Ok({name}), _ => {} }}",
            err(&format!("expected null for unit struct `{name}`, got {{}}"))
        ),
        (None, Shape::Enum(variants)) => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|v| matches!(v.shape, VariantShape::Unit))
                .map(|v| {
                    format!(
                        "\"{vn}\" => ::std::result::Result::Ok({name}::{vn}),",
                        vn = v.name
                    )
                })
                .collect();
            let data_arms: Vec<String> = variants
                .iter()
                .filter_map(|v| {
                    let vn = &v.name;
                    match &v.shape {
                        VariantShape::Unit => None,
                        VariantShape::Named(fields) => {
                            let label = format!("{name}::{vn}");
                            let build = de_named_fields(&label, fields, "fm");
                            Some(format!(
                                "\"{vn}\" => {{ let fm = match v {{ {C}::Map(fm) => fm, other => return ::std::result::Result::Err(::serde::content::expected_map(\"{label}\", other)) }}; ::std::result::Result::Ok({name}::{vn} {{ {build} }}) }}"
                            ))
                        }
                        VariantShape::Tuple(1) => Some(format!(
                            "\"{vn}\" => ::std::result::Result::Ok({name}::{vn}(::serde::Deserialize::from_content(v)?)),"
                        )),
                        VariantShape::Tuple(n) => {
                            let items: Vec<String> = (0..*n)
                                .map(|i| format!("::serde::Deserialize::from_content(&items[{i}])?"))
                                .collect();
                            Some(format!(
                                "\"{vn}\" => match v {{ {C}::Seq(items) if items.len() == {n} => ::std::result::Result::Ok({name}::{vn}({})), _ => ::std::result::Result::Err(::serde::content::Error::msg(\"expected {n}-element array for `{name}::{vn}`\")) }},",
                                items.join(", ")
                            ))
                        }
                    }
                })
                .collect();
            format!(
                "match c {{\n            \
                     {C}::Str(s) => match s.as_str() {{\n                \
                         {unit}\n                \
                         other => ::std::result::Result::Err(::serde::content::Error::msg(::std::format!(\"unknown variant `{{}}` of `{name}`\", other))),\n            \
                     }},\n            \
                     {C}::Map(m) if m.len() == 1 => {{\n                \
                         let (k, v) = &m[0];\n                \
                         match k.as_str() {{\n                    \
                             {data}\n                    \
                             other => ::std::result::Result::Err(::serde::content::Error::msg(::std::format!(\"unknown variant `{{}}` of `{name}`\", other))),\n                \
                         }}\n            \
                     }},\n            \
                     _ => {fallback},\n        \
                 }}",
                unit = unit_arms.join("\n                "),
                data = data_arms.join("\n                    "),
                fallback = err(&format!("expected string or single-key object for enum `{name}`, got {{}}"))
            )
        }
    };
    format!(
        "#[automatically_derived]\n\
         #[allow(unused_variables, unused_mut, clippy::all, clippy::pedantic)]\n\
         impl{params} ::serde::Deserialize<'de> for {name}{args} {{\n    \
             fn from_content(c: &{C}) -> ::std::result::Result<Self, ::serde::content::Error> {{\n        {body}\n    }}\n\
         }}\n"
    )
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("serde_derive stub: generated Serialize impl failed to parse")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("serde_derive stub: generated Deserialize impl failed to parse")
}
