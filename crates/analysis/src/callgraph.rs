//! The workspace call graph: per-call-site candidate resolution plus
//! whole-graph reachability, shared by every pass.
//!
//! Resolution refines a name + arity + dependency-closure scheme with
//! what the token model knows about receivers:
//!
//! 1. **Path calls** `Type::name(..)` restrict to that type's methods
//!    when the type has workspace impls.
//! 2. **Method calls** `recv.name(..)` resolve the receiver chain
//!    through struct field types: `self.f.name()` looks up the caller's
//!    impl type `T`, then `field_types[(T, "f")]`:
//!    * a workspace impl type `U` → only `U::name` candidates;
//!    * a workspace trait `Tr` → the union of `name` over every type
//!      with `impl Tr for ..` (plus `Tr::name` default bodies) — the
//!      documented **trait-impl fan-out** over-approximation;
//!    * any other *known* type ident (std types, generic parameters) →
//!      external, no workspace callees. Builtin effect tables
//!      (fsync/rename/wait/pager I/O) catch what matters there.
//! 3. **Unknown receivers** (locals, expressions) fall back to global
//!    name + arity + closure fan-out — conservative over-approximation,
//!    identical to the per-function passes.
//!
//! All of this is token-level approximation, not type inference; the
//! limits are documented in DESIGN.md §7b.

use crate::model::{Event, Model};

/// One resolved call site inside a function body.
pub struct CallSite {
    /// Index of the `Event::Call` in the function's event list.
    pub ev: usize,
    pub line: u32,
    /// Candidate callee function ids (empty = external call).
    pub callees: Vec<usize>,
}

pub struct CallGraph {
    /// Per-function resolved call sites, in body order.
    pub sites: Vec<Vec<CallSite>>,
    /// Per-function deduplicated callee adjacency.
    pub adj: Vec<Vec<usize>>,
}

impl CallGraph {
    pub fn build(model: &Model, closures: &[Vec<usize>]) -> CallGraph {
        let mut sites: Vec<Vec<CallSite>> = Vec::with_capacity(model.functions.len());
        let mut adj: Vec<Vec<usize>> = Vec::with_capacity(model.functions.len());
        for (id, f) in model.functions.iter().enumerate() {
            let self_type = f.qname.split_once("::").map(|(t, _)| t);
            let mut fsites = Vec::new();
            let mut fadj: Vec<usize> = Vec::new();
            for (ev_idx, ev) in f.events.iter().enumerate() {
                let Event::Call { name, chain, args, line, .. } = ev else { continue };
                let mut callees =
                    resolve_site(model, closures, f.krate, self_type, name, chain, *args);
                callees.retain(|&c| c != id);
                fadj.extend(callees.iter().copied());
                fsites.push(CallSite { ev: ev_idx, line: *line, callees });
            }
            fadj.sort_unstable();
            fadj.dedup();
            sites.push(fsites);
            adj.push(fadj);
        }
        CallGraph { sites, adj }
    }

    /// Forward reachability (inclusive) from the given root functions.
    pub fn reachable(&self, roots: impl IntoIterator<Item = usize>) -> Vec<bool> {
        let mut seen = vec![false; self.adj.len()];
        let mut stack: Vec<usize> = roots.into_iter().collect();
        for &r in &stack {
            seen[r] = true;
        }
        while let Some(id) = stack.pop() {
            for &c in &self.adj[id] {
                if !std::mem::replace(&mut seen[c], true) {
                    stack.push(c);
                }
            }
        }
        seen
    }
}

/// Global name + arity + dependency-closure candidates.
fn base_candidates(
    model: &Model,
    closures: &[Vec<usize>],
    krate: usize,
    name: &str,
    args: u8,
) -> Vec<usize> {
    let Some(ids) = model.by_name.get(name) else { return Vec::new() };
    ids.iter()
        .copied()
        .filter(|&id| {
            let f = &model.functions[id];
            f.arity == args && closures[krate].contains(&f.krate)
        })
        .collect()
}

/// Candidates whose qname is `ty::name`.
fn of_type(model: &Model, candidates: &[usize], ty: &str) -> Vec<usize> {
    candidates
        .iter()
        .copied()
        .filter(|&id| {
            model.functions[id]
                .qname
                .split_once("::")
                .is_some_and(|(t, _)| t == ty)
        })
        .collect()
}

fn resolve_site(
    model: &Model,
    closures: &[Vec<usize>],
    krate: usize,
    self_type: Option<&str>,
    name: &str,
    chain: &[String],
    args: u8,
) -> Vec<usize> {
    let base = base_candidates(model, closures, krate, name, args);
    if base.is_empty() {
        return base;
    }
    // Path call `Type::name(..)`: the chain's last segment is the type.
    if let Some(last) = chain.last() {
        if last.chars().next().is_some_and(|c| c.is_ascii_uppercase())
            && model.impl_types.contains(last)
        {
            let narrowed = of_type(model, &base, last);
            if !narrowed.is_empty() {
                return narrowed;
            }
        }
    }
    // Method call: walk the receiver chain through field types.
    // `self.a.b.name()` → T = impl type, then field_types[(T,"a")], …
    // The lexed chain can carry leading expression keywords
    // (`match self.stream.read(..)` → ["match","self","stream"]), so
    // the walk starts at `self` wherever it sits.
    let mut recv: Option<String> = None;
    let mut known = true;
    if let Some(self_pos) = chain.iter().position(|c| c == "self") {
        let Some(mut cur) = self_type.map(str::to_string) else {
            return base;
        };
        for field in &chain[self_pos + 1..] {
            match model.field_types.get(&(cur.clone(), field.clone())) {
                Some(t) => cur = t.clone(),
                None => {
                    known = false;
                    break;
                }
            }
        }
        if known {
            recv = Some(cur);
        }
    }
    let Some(recv) = recv else { return base };
    // Known workspace impl type: its methods only. A miss means the
    // method lives outside the workspace (std/trait-object/etc.).
    if model.impl_types.contains(&recv) {
        let mut narrowed = of_type(model, &base, &recv);
        let is_trait = model.trait_impls.iter().any(|(tr, _)| *tr == recv);
        if !is_trait {
            if narrowed.is_empty() {
                // Possibly a default body of a trait this type implements.
                for (tr, ty) in &model.trait_impls {
                    if *ty == recv {
                        narrowed.extend(of_type(model, &base, tr));
                    }
                }
                narrowed.sort_unstable();
                narrowed.dedup();
            }
            return narrowed;
        }
        // A trait name: fan out to every implementing type, plus the
        // trait's own default bodies.
        let mut out = narrowed;
        for (tr, ty) in &model.trait_impls {
            if tr == &recv {
                out.extend(of_type(model, &base, ty));
            }
        }
        out.sort_unstable();
        out.dedup();
        return out;
    }
    if model.trait_impls.iter().any(|(tr, _)| *tr == recv) {
        let mut out = Vec::new();
        for (tr, ty) in &model.trait_impls {
            if tr == &recv {
                out.extend(of_type(model, &base, ty));
            }
        }
        out.sort_unstable();
        out.dedup();
        return out;
    }
    // A known non-workspace type (std container, generic parameter):
    // the call cannot land on workspace code.
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::build;
    use crate::workspace::{CrateInfo, WorkspaceLayout};

    fn graph_of(src: &str) -> (Model, CallGraph) {
        let dir = std::env::temp_dir().join(format!(
            "xk-analyze-cg-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("src")).unwrap();
        std::fs::write(dir.join("src/lib.rs"), src).unwrap();
        let layout = WorkspaceLayout {
            root: dir.clone(),
            crates: vec![CrateInfo {
                name: "fixture".into(),
                dir: dir.clone(),
                deps: vec![],
                files: vec!["src/lib.rs".into()],
                vendored: false,
            }],
        };
        let model = build(&layout).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let cg = CallGraph::build(&model, &[vec![0]]);
        (model, cg)
    }

    fn fid(model: &Model, qname: &str) -> usize {
        model.functions.iter().position(|f| f.qname == qname).unwrap()
    }

    #[test]
    fn field_type_narrows_method_calls() {
        let (m, cg) = graph_of(
            "struct Wal; impl Wal { fn sync(&self) {} }\n\
             struct Other; impl Other { fn sync(&self) {} }\n\
             struct Env { wal: Wal }\n\
             impl Env { fn go(&self) { self.wal.sync(); } }",
        );
        let go = fid(&m, "Env::go");
        assert_eq!(cg.adj[go], vec![fid(&m, "Wal::sync")]);
    }

    #[test]
    fn known_external_field_type_resolves_to_nothing() {
        let (m, cg) = graph_of(
            "struct Env { stream: S }\n\
             impl Env { fn go(&self) { self.stream.flush(); } }\n\
             struct Store; impl Store { fn flush(&self) {} }",
        );
        let go = fid(&m, "Env::go");
        assert!(cg.adj[go].is_empty(), "generic S must not alias Store::flush");
    }

    #[test]
    fn trait_field_fans_out_to_impls() {
        let (m, cg) = graph_of(
            "trait Io { fn finalize(&self); }\n\
             struct DirIo; impl Io for DirIo { fn finalize(&self) {} }\n\
             struct MemIo; impl Io for MemIo { fn finalize(&self) {} }\n\
             struct Env { io: Box<dyn Io> }\n\
             impl Env { fn seal(&self) { self.io.finalize(); } }",
        );
        let seal = fid(&m, "Env::seal");
        let mut want = vec![fid(&m, "DirIo::finalize"), fid(&m, "MemIo::finalize")];
        want.sort_unstable();
        assert_eq!(cg.adj[seal], want);
    }

    #[test]
    fn trait_field_skips_same_named_non_impls() {
        let (m, cg) = graph_of(
            "trait Pager { fn write_page(&self, id: u32); }\n\
             struct MemPager; impl Pager for MemPager { fn write_page(&self, _id: u32) {} }\n\
             struct ListWriter; impl ListWriter { fn write_page(&self, _id: u32) {} }\n\
             struct Env { pager: Box<dyn Pager> }\n\
             impl Env { fn flush(&self) { self.pager.write_page(1); } }",
        );
        let flush = fid(&m, "Env::flush");
        assert_eq!(cg.adj[flush], vec![fid(&m, "MemPager::write_page")]);
    }

    #[test]
    fn keyword_prefixed_self_chain_still_narrows() {
        // `match self.stream.read(..)` lexes its chain as
        // ["match","self","stream"]; the walk must still find `self`.
        let (m, cg) = graph_of(
            "struct Env { stream: S }\n\
             impl Env { fn go(&self) -> bool { match self.stream.read() { _ => true } } }\n\
             struct Cursor; impl Cursor { fn read(&self) {} }",
        );
        let go = fid(&m, "Env::go");
        assert!(cg.adj[go].is_empty(), "generic S receiver must not alias Cursor::read");
    }

    #[test]
    fn unknown_receiver_falls_back_to_fanout() {
        let (m, cg) = graph_of(
            "struct A; impl A { fn work(&self) {} }\n\
             fn go(x: u32) { helper(x); }\n\
             fn helper(_x: u32) { let a = make(); a.work(); }\n\
             fn make() -> u32 { 0 }",
        );
        let helper = fid(&m, "helper");
        assert!(cg.adj[helper].contains(&fid(&m, "A::work")), "local receiver fans out");
    }

    #[test]
    fn reachability_walks_transitively() {
        let (m, cg) = graph_of(
            "fn a() { b(); }\nfn b() { c(); }\nfn c() {}\nfn d() {}",
        );
        let reach = cg.reachable([fid(&m, "a")]);
        assert!(reach[fid(&m, "c")]);
        assert!(!reach[fid(&m, "d")]);
    }
}
