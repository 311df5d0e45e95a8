//! Derive macros for the in-tree `serde` shim.
//!
//! Supports the subset this workspace actually uses: non-generic structs
//! (unit, tuple, named) and enums (unit, tuple, and struct variants),
//! with no `#[serde(...)]` attributes. The JSON shape matches upstream
//! serde's externally-tagged default so hand-authored fixtures keep
//! working.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
enum Shape {
    UnitStruct,
    TupleStruct(usize),
    NamedStruct(Vec<String>),
    Enum(Vec<Variant>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    shape: VariantShape,
}

#[derive(Debug)]
enum VariantShape {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

struct Parsed {
    name: String,
    shape: Shape,
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

/// Skips outer attributes (`#[...]`, including expanded doc comments) and
/// visibility modifiers, returning the remaining tokens.
fn skip_attrs_and_vis(tokens: &mut std::iter::Peekable<proc_macro::token_stream::IntoIter>) {
    loop {
        match tokens.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                tokens.next();
                // The bracketed attribute body.
                tokens.next();
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                tokens.next();
                // `pub(crate)` and friends carry a parenthesized scope.
                if let Some(TokenTree::Group(g)) = tokens.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        tokens.next();
                    }
                }
            }
            _ => return,
        }
    }
}

/// Counts top-level (angle-bracket-aware) comma-separated segments in a
/// field list, i.e. the arity of a tuple struct / tuple variant.
fn count_tuple_fields(group: &proc_macro::Group) -> usize {
    let mut depth = 0i32;
    let mut fields = 0usize;
    let mut in_segment = false;
    for tt in group.stream() {
        match &tt {
            TokenTree::Punct(p) if p.as_char() == '<' => {
                depth += 1;
                in_segment = true;
            }
            TokenTree::Punct(p) if p.as_char() == '>' => {
                depth -= 1;
                in_segment = true;
            }
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                if in_segment {
                    fields += 1;
                }
                in_segment = false;
            }
            _ => in_segment = true,
        }
    }
    if in_segment {
        fields += 1;
    }
    fields
}

/// Extracts field names from a named-field brace group.
fn named_field_names(group: &proc_macro::Group) -> Vec<String> {
    let mut names = Vec::new();
    let mut tokens = group.stream().into_iter().peekable();
    loop {
        skip_attrs_and_vis(&mut tokens);
        let name = match tokens.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            Some(_) => continue,
            None => break,
        };
        // Expect `:`; then skip the type until a top-level comma.
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            _ => continue,
        }
        names.push(name);
        let mut depth = 0i32;
        for tt in tokens.by_ref() {
            match tt {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => break,
                _ => {}
            }
        }
    }
    names
}

fn parse_variants(group: &proc_macro::Group) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut tokens = group.stream().into_iter().peekable();
    loop {
        skip_attrs_and_vis(&mut tokens);
        let name = match tokens.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            Some(_) => continue,
            None => break,
        };
        let shape = match tokens.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let arity = count_tuple_fields(g);
                tokens.next();
                VariantShape::Tuple(arity)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let names = named_field_names(g);
                tokens.next();
                VariantShape::Named(names)
            }
            _ => VariantShape::Unit,
        };
        variants.push(Variant { name, shape });
        // Skip an optional discriminant and the trailing comma.
        let mut depth = 0i32;
        while let Some(tt) = tokens.peek() {
            match tt {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    tokens.next();
                    break;
                }
                _ => {}
            }
            tokens.next();
        }
    }
    variants
}

fn parse_item(input: TokenStream) -> Result<Parsed, String> {
    let mut tokens = input.into_iter().peekable();
    skip_attrs_and_vis(&mut tokens);
    let kind = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected `struct` or `enum`, got {other:?}")),
    };
    if kind != "struct" && kind != "enum" {
        return Err(format!("expected `struct` or `enum`, got `{kind}`"));
    }
    let name = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected item name, got {other:?}")),
    };
    if let Some(TokenTree::Punct(p)) = tokens.peek() {
        if p.as_char() == '<' {
            return Err(format!(
                "the serde shim derive does not support generic type `{name}`"
            ));
        }
    }
    let shape = if kind == "enum" {
        match tokens.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum(parse_variants(&g))
            }
            other => return Err(format!("expected enum body, got {other:?}")),
        }
    } else {
        match tokens.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::NamedStruct(named_field_names(&g))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::TupleStruct(count_tuple_fields(&g))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::UnitStruct,
            None => Shape::UnitStruct,
            other => return Err(format!("expected struct body, got {other:?}")),
        }
    };
    Ok(Parsed { name, shape })
}

// ----- Serialize codegen -------------------------------------------------

fn gen_serialize(p: &Parsed) -> String {
    let name = &p.name;
    let body = match &p.shape {
        Shape::UnitStruct => "__s.null();".to_string(),
        Shape::TupleStruct(1) => "::serde::Serialize::serialize(&self.0, __s);".to_string(),
        Shape::TupleStruct(n) => {
            let mut out = String::from("__s.begin_array();\n");
            for i in 0..*n {
                out.push_str(&format!("::serde::Serialize::serialize(&self.{i}, __s);\n"));
            }
            out.push_str("__s.end_array();");
            out
        }
        Shape::NamedStruct(fields) => {
            let mut out = String::from("__s.begin_object();\n");
            for f in fields {
                out.push_str(&format!(
                    "__s.key({f:?}); ::serde::Serialize::serialize(&self.{f}, __s);\n"
                ));
            }
            out.push_str("__s.end_object();");
            out
        }
        Shape::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.shape {
                    VariantShape::Unit => {
                        arms.push_str(&format!("{name}::{vn} => __s.string({vn:?}),\n"));
                    }
                    VariantShape::Tuple(1) => {
                        arms.push_str(&format!(
                            "{name}::{vn}(__f0) => {{ __s.begin_object(); __s.key({vn:?}); \
                             ::serde::Serialize::serialize(__f0, __s); __s.end_object(); }}\n"
                        ));
                    }
                    VariantShape::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        let mut arm = format!(
                            "{name}::{vn}({}) => {{ __s.begin_object(); __s.key({vn:?}); __s.begin_array();\n",
                            binds.join(", ")
                        );
                        for b in &binds {
                            arm.push_str(&format!("::serde::Serialize::serialize({b}, __s);\n"));
                        }
                        arm.push_str("__s.end_array(); __s.end_object(); }\n");
                        arms.push_str(&arm);
                    }
                    VariantShape::Named(fields) => {
                        let binds: Vec<String> =
                            fields.iter().map(|f| format!("{f}: __b_{f}")).collect();
                        let mut arm = format!(
                            "{name}::{vn} {{ {} }} => {{ __s.begin_object(); __s.key({vn:?}); __s.begin_object();\n",
                            binds.join(", ")
                        );
                        for f in fields {
                            arm.push_str(&format!(
                                "__s.key({f:?}); ::serde::Serialize::serialize(__b_{f}, __s);\n"
                            ));
                        }
                        arm.push_str("__s.end_object(); __s.end_object(); }\n");
                        arms.push_str(&arm);
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn serialize(&self, __s: &mut ::serde::Serializer) {{\n{body}\n}}\n\
         }}\n"
    )
}

// ----- Deserialize codegen ----------------------------------------------

fn gen_deserialize(p: &Parsed) -> String {
    let name = &p.name;
    let body = match &p.shape {
        Shape::UnitStruct => format!("::std::result::Result::Ok({name})"),
        Shape::TupleStruct(1) => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::deserialize(__v)?))")
        }
        Shape::TupleStruct(n) => {
            let mut fields = String::new();
            for i in 0..*n {
                fields.push_str(&format!("::serde::__private::index(__arr, {i})?,\n"));
            }
            format!(
                "let __arr = __v.elements().ok_or_else(|| ::serde::Error::msg(\
                 \"expected array for tuple struct {name}\"))?;\n\
                 ::std::result::Result::Ok({name}(\n{fields}))"
            )
        }
        Shape::NamedStruct(fields) => {
            let mut inits = String::new();
            for f in fields {
                inits.push_str(&format!("{f}: ::serde::__private::field(__obj, {f:?})?,\n"));
            }
            format!(
                "let __obj = __v.as_object().ok_or_else(|| ::serde::Error::msg(\
                 \"expected object for struct {name}\"))?;\n\
                 ::std::result::Result::Ok({name} {{\n{inits}}})"
            )
        }
        Shape::Enum(variants) => {
            let mut str_arms = String::new();
            for v in variants {
                if matches!(v.shape, VariantShape::Unit) {
                    let vn = &v.name;
                    str_arms.push_str(&format!(
                        "{vn:?} => return ::std::result::Result::Ok({name}::{vn}),\n"
                    ));
                }
            }
            let mut tag_arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.shape {
                    VariantShape::Unit => {
                        tag_arms.push_str(&format!(
                            "{vn:?} => ::std::result::Result::Ok({name}::{vn}),\n"
                        ));
                    }
                    VariantShape::Tuple(1) => {
                        tag_arms.push_str(&format!(
                            "{vn:?} => ::std::result::Result::Ok({name}::{vn}(\
                             ::serde::Deserialize::deserialize(__payload)?)),\n"
                        ));
                    }
                    VariantShape::Tuple(n) => {
                        let mut fields = String::new();
                        for i in 0..*n {
                            fields.push_str(&format!("::serde::__private::index(__arr, {i})?,\n"));
                        }
                        tag_arms.push_str(&format!(
                            "{vn:?} => {{ let __arr = __payload.elements().ok_or_else(|| \
                             ::serde::Error::msg(\"expected array for variant {name}::{vn}\"))?;\n\
                             ::std::result::Result::Ok({name}::{vn}(\n{fields})) }}\n"
                        ));
                    }
                    VariantShape::Named(fields) => {
                        let mut inits = String::new();
                        for f in fields {
                            inits.push_str(&format!(
                                "{f}: ::serde::__private::field(__o, {f:?})?,\n"
                            ));
                        }
                        tag_arms.push_str(&format!(
                            "{vn:?} => {{ let __o = __payload.as_object().ok_or_else(|| \
                             ::serde::Error::msg(\"expected object for variant {name}::{vn}\"))?;\n\
                             ::std::result::Result::Ok({name}::{vn} {{\n{inits}}}) }}\n"
                        ));
                    }
                }
            }
            format!(
                "if let ::std::option::Option::Some(__tag) = __v.as_str() {{\n\
                     match __tag {{\n{str_arms}\
                         _ => return ::std::result::Result::Err(::serde::Error::msg(\
                             \"unknown variant for enum {name}\")),\n\
                     }}\n\
                 }}\n\
                 let __obj = __v.as_object().ok_or_else(|| ::serde::Error::msg(\
                     \"expected string or single-key object for enum {name}\"))?;\n\
                 if __obj.len() != 1 {{\n\
                     return ::std::result::Result::Err(::serde::Error::msg(\
                         \"expected single-key object for enum {name}\"));\n\
                 }}\n\
                 let (__tag, __payload) = &__obj[0];\n\
                 match __tag.as_str() {{\n{tag_arms}\
                     _ => ::std::result::Result::Err(::serde::Error::msg(\
                         \"unknown variant for enum {name}\")),\n\
                 }}"
            )
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
             fn deserialize(__v: &::serde::Value) \
               -> ::std::result::Result<Self, ::serde::Error> {{\n{body}\n}}\n\
         }}\n"
    )
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(parsed) => gen_serialize(&parsed)
            .parse()
            .unwrap_or_else(|e| compile_error(&format!("serde shim codegen error: {e}"))),
        Err(e) => compile_error(&e),
    }
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(parsed) => gen_deserialize(&parsed)
            .parse()
            .unwrap_or_else(|e| compile_error(&format!("serde shim codegen error: {e}"))),
        Err(e) => compile_error(&e),
    }
}
