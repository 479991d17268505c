//! Stand-in for `serde_derive`: `#[derive(Serialize, Deserialize)]` that
//! type-checks and nothing more.
//!
//! The generated impls ignore the fields and return
//! `Error::custom(serde::UNSUPPORTED)`, so a type that derives here can be
//! named wherever a `Serialize`/`Deserialize` bound is required, while any
//! attempt to encode or decode it fails with a typed error. `#[serde(..)]`
//! field and container attributes are accepted and ignored. Written
//! against `proc_macro` alone (no `syn`/`quote`), so only the item's name,
//! generics and `where` clause are parsed.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = Item::parse(input);
    format!(
        "impl<{decl}> ::serde::Serialize for {name}<{args}> {wh} {{
            fn serialize<__S: ::serde::Serializer>(
                &self,
                _: __S,
            ) -> ::core::result::Result<__S::Ok, __S::Error> {{
                ::core::result::Result::Err(
                    <__S::Error as ::serde::ser::Error>::custom(::serde::UNSUPPORTED),
                )
            }}
        }}",
        decl = item.decl.join(", "),
        name = item.name,
        args = item.args.join(", "),
        wh = item.where_clause,
    )
    .parse()
    .expect("generated Serialize impl parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = Item::parse(input);
    let mut decl = vec!["'de".to_owned()];
    decl.extend(item.decl);
    format!(
        "impl<{decl}> ::serde::Deserialize<'de> for {name}<{args}> {wh} {{
            fn deserialize<__D: ::serde::Deserializer<'de>>(
                _: __D,
            ) -> ::core::result::Result<Self, __D::Error> {{
                ::core::result::Result::Err(
                    <__D::Error as ::serde::de::Error>::custom(::serde::UNSUPPORTED),
                )
            }}
        }}",
        decl = decl.join(", "),
        name = item.name,
        args = item.args.join(", "),
        wh = item.where_clause,
    )
    .parse()
    .expect("generated Deserialize impl parses")
}

/// What an impl header needs from `struct Name<'a, T: Bound = Default,
/// const N: usize> where ..`.
struct Item {
    name: String,
    /// Parameters as declared, defaults dropped: `'a`, `T: Bound`,
    /// `const N: usize`.
    decl: Vec<String>,
    /// Parameters as used: `'a`, `T`, `N`.
    args: Vec<String>,
    /// `where ..` up to the body, or empty.
    where_clause: String,
}

impl Item {
    fn parse(input: TokenStream) -> Item {
        let mut toks = input.into_iter().peekable();
        // Attributes, doc comments and visibility precede the keyword.
        let name = loop {
            match toks
                .next()
                .expect("derive input has a struct or enum keyword")
            {
                TokenTree::Ident(kw)
                    if matches!(kw.to_string().as_str(), "struct" | "enum" | "union") =>
                {
                    break toks
                        .next()
                        .expect("type name follows the keyword")
                        .to_string();
                }
                _ => {}
            }
        };

        let mut params: Vec<Vec<TokenTree>> = Vec::new();
        if matches!(toks.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
            toks.next();
            let mut depth = 1usize;
            let mut cur = Vec::new();
            for t in toks.by_ref() {
                if let TokenTree::Punct(p) = &t {
                    match p.as_char() {
                        '<' => depth += 1,
                        '>' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        ',' if depth == 1 => {
                            params.push(std::mem::take(&mut cur));
                            continue;
                        }
                        _ => {}
                    }
                }
                cur.push(t);
            }
            if !cur.is_empty() {
                params.push(cur);
            }
        }

        let mut decl = Vec::new();
        let mut args = Vec::new();
        for p in params {
            // A default (`= ..`) is not allowed in an impl header.
            let eq = p
                .iter()
                .position(|t| matches!(t, TokenTree::Punct(c) if c.as_char() == '='))
                .unwrap_or(p.len());
            decl.push(render(&p[..eq]));
            args.push(match &p[0] {
                TokenTree::Punct(q) if q.as_char() == '\'' => render(&p[..2]),
                TokenTree::Ident(c) if c.to_string() == "const" => p[1].to_string(),
                first => first.to_string(),
            });
        }

        // `where` sits before a brace body, or after a tuple body.
        let mut where_toks = Vec::new();
        let mut in_where = false;
        for t in toks {
            match &t {
                TokenTree::Ident(w) if w.to_string() == "where" => in_where = true,
                TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => break,
                TokenTree::Punct(p) if p.as_char() == ';' => break,
                _ => {}
            }
            if in_where {
                where_toks.push(t);
            }
        }

        Item {
            name,
            decl,
            args,
            where_clause: render(&where_toks),
        }
    }
}

fn render(toks: &[TokenTree]) -> String {
    toks.iter().cloned().collect::<TokenStream>().to_string()
}
