//! Per-file symbol/scope table with local type resolution.
//!
//! Built on the AST-lite ([`crate::parser`]), this resolves a type
//! *spelling* to the canonical name it denotes within the file: import
//! renames (`use std::collections::HashMap as Map`) and `type` aliases
//! are chased (with a cycle guard), so a rule asking "is this
//! hash-ordered?" sees through `Map`, `type Cache = Map<K, V>`, and a
//! struct field declared as `Cache`. Resolution is per-file by design —
//! an alias exported from another crate is invisible — which keeps the
//! analysis dependency-free and O(file); the gap is documented in
//! DESIGN.md §10.

use crate::lexer::{Tok, TokKind};
use crate::parser::{is_keyword, Ast, FnDef, Type};
use std::collections::BTreeSet;

/// Collection names whose iteration order is hash-dependent.
pub const HASH_ORDERED: &[&str] = &[
    "HashMap",
    "HashSet",
    "RandomState",
    "FxHashMap",
    "FxHashSet",
    "IndexMap",
    "IndexSet",
];

/// What a resolved type means to the determinism rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeClass {
    /// Iteration order varies run to run (`HashMap`, `HashSet`, …).
    HashOrdered,
    /// `f32` / `f64`.
    Float,
    /// Anything else (including unresolved).
    Other,
}

/// Classifies a canonical (already-resolved) type name.
pub fn classify_name(name: &str) -> TypeClass {
    if HASH_ORDERED.contains(&name) {
        TypeClass::HashOrdered
    } else if name == "f32" || name == "f64" {
        TypeClass::Float
    } else {
        TypeClass::Other
    }
}

/// The per-file resolution context.
pub struct Scope<'a> {
    ast: &'a Ast,
}

impl<'a> Scope<'a> {
    /// Builds a scope over a parsed file.
    pub fn new(ast: &'a Ast) -> Scope<'a> {
        Scope { ast }
    }

    /// The underlying AST.
    pub fn ast(&self) -> &Ast {
        self.ast
    }

    /// Resolves a type spelling to its canonical name, chasing import
    /// renames and `type` aliases defined in this file.
    pub fn canonical(&self, ty: &Type) -> String {
        let mut seen = BTreeSet::new();
        self.canonical_inner(ty, &mut seen)
    }

    fn canonical_inner(&self, ty: &Type, seen: &mut BTreeSet<String>) -> String {
        let mut name = ty.name().to_string();
        // A multi-segment path's *first* segment may itself be a renamed
        // import of a module; the final segment is still the name that
        // matters (`collections::HashMap` → `HashMap`).
        loop {
            if !seen.insert(name.clone()) {
                return name; // alias cycle: stop where we are
            }
            if let Some((target, _line)) = self.ast.aliases.get(&name) {
                name = self.canonical_inner(&target.clone(), seen);
                continue;
            }
            if let Some((path, _line)) = self.ast.imports.get(&name) {
                if let Some(last) = path.last() {
                    if *last != name {
                        name = last.clone();
                        continue;
                    }
                }
            }
            return name;
        }
    }

    /// Resolves and classifies a type spelling.
    pub fn classify(&self, ty: &Type) -> TypeClass {
        classify_name(&self.canonical(ty))
    }

    /// Resolves and classifies a bare name used in type position.
    pub fn classify_ident(&self, name: &str) -> TypeClass {
        self.classify(&Type::simple(name))
    }

    /// Names introduced in this file (import renames and `type` aliases)
    /// that resolve to the given class while being *spelled* as something
    /// the token rules would not recognize. Each entry is
    /// `(local name, declaration line, canonical name)`.
    pub fn resolved_names(&self, class: TypeClass) -> Vec<(String, u32, String)> {
        let mut out = Vec::new();
        for (name, (_, line)) in &self.ast.imports {
            self.push_resolved(name, *line, class, &mut out);
        }
        for (name, (_, line)) in &self.ast.aliases {
            self.push_resolved(name, *line, class, &mut out);
        }
        out.sort();
        out.dedup_by(|a, b| a.0 == b.0);
        out
    }

    fn push_resolved(
        &self,
        name: &str,
        line: u32,
        class: TypeClass,
        out: &mut Vec<(String, u32, String)>,
    ) {
        if classify_name(name) == class {
            return; // the spelling itself already matches: token rules see it
        }
        let canon = self.canonical(&Type::simple(name));
        if classify_name(&canon) == class {
            out.push((name.to_string(), line, canon));
        }
    }

    /// The declared type of `field` on struct/enum `owner`, if known.
    pub fn field_type(&self, owner: &str, field: &str) -> Option<&Type> {
        self.ast
            .structs
            .get(owner)?
            .iter()
            .find(|f| f.name == field)
            .map(|f| &f.ty)
    }

    /// The type of a local name inside `f`: the last `let` binding before
    /// anything else, else a parameter. Declared types win; otherwise the
    /// initializer is inspected for a constructor call.
    pub fn local_type(&self, f: &FnDef, name: &str, toks: &[Tok]) -> Option<Type> {
        for l in f.lets.iter().rev() {
            if l.name == name {
                if let Some(ty) = &l.ty {
                    return Some(ty.clone());
                }
                if let Some(range) = l.init {
                    return infer_init_type(toks, range);
                }
                return None;
            }
        }
        f.params
            .iter()
            .find(|(p, _)| p == name)
            .map(|(_, ty)| ty.clone())
    }

    /// Classifies the base of a `.method()` receiver chain ending just
    /// before token index `dot` (the `.` of the method call): walks back
    /// over `ident(.ident)*`, then resolves the base through locals
    /// (`f`'s params and lets) or `self.field` through the impl target's
    /// fields.
    pub fn classify_receiver(&self, f: &FnDef, toks: &[Tok], dot: usize) -> TypeClass {
        // Collect the chain: walk backwards while we see ident / '.'.
        let mut names = Vec::new();
        let mut i = dot; // index of the '.'
        loop {
            if i == 0 {
                break;
            }
            let prev = &toks[i - 1];
            if prev.kind == TokKind::Ident && !is_keyword(&prev.text) || prev.is_ident("self") {
                names.push(prev.text.clone());
                i -= 1;
                if i > 0 && toks[i - 1].is_punct('.') {
                    i -= 1;
                    continue;
                }
            }
            break;
        }
        names.reverse();
        let ty = match names.as_slice() {
            [] => None,
            [one] if one == "self" => None,
            [one] => self.local_type(f, one, toks).or_else(|| {
                // A bare uppercase path base (`HashMap::new`-style
                // receivers) is its own type name.
                one.chars()
                    .next()
                    .filter(char::is_ascii_uppercase)
                    .map(|_| Type::simple(one))
            }),
            // self.field(.field)* — start from the impl target's fields
            // (chasing the impl target through aliases first).
            [base, field, rest @ ..] if base == "self" => (|| {
                let owner = self.canonical(&Type::simple(f.self_ty.as_deref()?));
                let mut ty = self.field_type(&owner, field).cloned()?;
                for fname in rest {
                    let owner = self.canonical(&ty);
                    ty = self.field_type(&owner, fname).cloned()?;
                }
                Some(ty)
            })(),
            // local.field(.field)* — resolve the local, then walk
            // fields through any structs defined in this file.
            [base, rest @ ..] => (|| {
                let mut ty = self.local_type(f, base, toks)?;
                for fname in rest {
                    let owner = self.canonical(&ty);
                    ty = self.field_type(&owner, fname).cloned()?;
                }
                Some(ty)
            })(),
        };
        ty.map_or(TypeClass::Other, |t| self.classify(&t))
    }
}

/// Infers a type from a `let` initializer token range: recognizes
/// constructor calls (`Name::new()`, `Name::with_capacity(..)`,
/// `Name::default()`, `Name::from(..)`) and `.collect::<Type>()`
/// turbofish. Anything else is unknown.
pub fn infer_init_type(toks: &[Tok], range: (usize, usize)) -> Option<Type> {
    let (start, end) = range;
    let end = end.min(toks.len());
    const CTORS: &[&str] = &["new", "default", "with_capacity", "from", "with_hasher"];
    let mut i = start;
    while i < end {
        let t = &toks[i];
        // `.collect :: < Type > (` — turbofish names the collected type.
        if t.is_ident("collect")
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_punct('<'))
        {
            let mut p = TypeCursor::new(toks, i + 4, end);
            return Some(p.parse());
        }
        // Path constructor: collect `Seg(::Seg)*::ctor(`.
        if t.kind == TokKind::Ident
            && !is_keyword(&t.text)
            && (i == start || !toks[i - 1].is_punct('.'))
        {
            let mut segs = vec![t.text.clone()];
            let mut j = i + 1;
            while toks.get(j).is_some_and(|t| t.is_punct(':'))
                && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(j + 2).is_some_and(|t| t.kind == TokKind::Ident)
            {
                segs.push(toks[j + 2].text.clone());
                j += 3;
            }
            if segs.len() >= 2
                && toks.get(j).is_some_and(|t| t.is_punct('('))
                && CTORS.contains(&segs.last().map(String::as_str).unwrap_or(""))
            {
                segs.pop(); // drop the ctor name
                return Some(Type {
                    segments: segs,
                    args: Vec::new(),
                });
            }
            i = j.max(i + 1);
            continue;
        }
        i += 1;
    }
    None
}

/// A tiny standalone type parser for turbofish positions (avoids
/// constructing a full [`crate::parser::Parser`]).
struct TypeCursor<'a> {
    toks: &'a [Tok],
    pos: usize,
    end: usize,
}

impl<'a> TypeCursor<'a> {
    fn new(toks: &'a [Tok], pos: usize, end: usize) -> TypeCursor<'a> {
        TypeCursor { toks, pos, end }
    }

    fn parse(&mut self) -> Type {
        let mut segments = Vec::new();
        let mut args = Vec::new();
        while self.pos < self.end {
            let Some(t) = self.toks.get(self.pos) else {
                break;
            };
            match t.kind {
                TokKind::Ident if !is_keyword(&t.text) => {
                    segments.push(t.text.clone());
                    self.pos += 1;
                    if self.toks.get(self.pos).is_some_and(|t| t.is_punct(':'))
                        && self.toks.get(self.pos + 1).is_some_and(|t| t.is_punct(':'))
                    {
                        self.pos += 2;
                        continue;
                    }
                    if self.toks.get(self.pos).is_some_and(|t| t.is_punct('<')) {
                        self.pos += 1;
                        while self.pos < self.end
                            && !self.toks.get(self.pos).is_some_and(|t| t.is_punct('>'))
                        {
                            let before = self.pos;
                            args.push(self.parse());
                            if self.toks.get(self.pos).is_some_and(|t| t.is_punct(',')) {
                                self.pos += 1;
                            }
                            if self.pos == before {
                                self.pos += 1;
                            }
                        }
                        self.pos += 1; // '>'
                    }
                    break;
                }
                _ => {
                    self.pos += 1;
                    break;
                }
            }
        }
        if segments.is_empty() {
            segments.push("(unknown)".to_string());
        }
        Type { segments, args }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn scoped(src: &str) -> (Ast, Vec<Tok>) {
        let toks = lex(src).toks;
        let ast = parse(&toks);
        (ast, toks)
    }

    #[test]
    fn canonical_chases_imports_and_aliases() {
        let (ast, _) = scoped(
            "use std::collections::HashMap as Map;\n\
             type Cache = Map<u64, u64>;\n\
             type Deep = Cache;",
        );
        let s = Scope::new(&ast);
        assert_eq!(s.canonical(&Type::simple("Map")), "HashMap");
        assert_eq!(s.canonical(&Type::simple("Cache")), "HashMap");
        assert_eq!(s.canonical(&Type::simple("Deep")), "HashMap");
        assert_eq!(s.classify_ident("Deep"), TypeClass::HashOrdered);
        assert_eq!(s.classify_ident("BTreeMap"), TypeClass::Other);
    }

    #[test]
    fn alias_cycles_terminate() {
        let (ast, _) = scoped("type A = B;\ntype B = A;");
        let s = Scope::new(&ast);
        let _ = s.canonical(&Type::simple("A")); // must not hang
    }

    #[test]
    fn field_and_local_resolution() {
        let (ast, toks) = scoped(
            "use std::collections::HashMap as Shared;\n\
             struct S { inner: Shared<u64, u64> }\n\
             impl S { fn f(&self, x: f64) { let m = std::collections::HashMap::new(); \
             let y: Shared<u8, u8> = make(); self.inner.len(); } }",
        );
        let s = Scope::new(&ast);
        assert_eq!(
            s.field_type("S", "inner").map(|t| s.classify(t)),
            Some(TypeClass::HashOrdered)
        );
        let f = &ast.fns[0];
        assert_eq!(
            s.local_type(f, "m", &toks).map(|t| s.classify(&t)),
            Some(TypeClass::HashOrdered)
        );
        assert_eq!(
            s.local_type(f, "y", &toks).map(|t| s.classify(&t)),
            Some(TypeClass::HashOrdered)
        );
        assert_eq!(
            s.local_type(f, "x", &toks).map(|t| s.classify(&t)),
            Some(TypeClass::Float)
        );
    }

    #[test]
    fn receiver_chains_resolve_through_self_fields() {
        let src = "use std::collections::HashMap as Map;\n\
                   struct S { homes: Map<u64, u64> }\n\
                   impl S { fn g(&self) { for k in self.homes.keys() { let _ = k; } } }";
        let (ast, toks) = scoped(src);
        let s = Scope::new(&ast);
        let f = &ast.fns[0];
        // Find the '.' before `keys`.
        let dot = toks
            .iter()
            .position(|t| t.is_ident("keys"))
            .expect("keys token")
            - 1;
        assert_eq!(s.classify_receiver(f, &toks, dot), TypeClass::HashOrdered);
    }

    #[test]
    fn resolved_names_surface_renames_and_aliases() {
        let (ast, _) = scoped(
            "use std::collections::HashMap as Map;\n\
             use std::collections::BTreeMap;\n\
             type Cache = Map<u64, u64>;\n\
             type Sorted = BTreeMap<u64, u64>;",
        );
        let s = Scope::new(&ast);
        let names = s.resolved_names(TypeClass::HashOrdered);
        let just_names: Vec<&str> = names.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(just_names, vec!["Cache", "Map"]);
        assert!(names.iter().all(|(_, _, c)| c == "HashMap"));
    }

    #[test]
    fn collect_turbofish_is_inferred() {
        let (_, toks) = scoped("fn f() { let m = v.iter().collect::<HashMap<u64, u64>>(); }");
        let ast = parse(&toks);
        let l = &ast.fns[0].lets[0];
        let ty = infer_init_type(&toks, l.init.expect("init")).expect("inferred");
        assert_eq!(ty.name(), "HashMap");
    }
}
