//! The four analysis passes, run over the extracted [`Model`]:
//!
//! * `lock_order` — builds the lock-acquisition digraph (which lock
//!   classes are acquired while which guards are held, across
//!   intra-workspace calls) and flags cycles, double-locks of one class,
//!   and the specific shard-before-global inversion the storage layer
//!   documents as forbidden.
//! * `io_under_lock` — flags calls that can reach `Pager`
//!   read/write/sync/grow while a pool-shard or cache guard is live.
//! * `panic_path` — flags unwrap/expect/panic-macros/dynamic indexing/
//!   dynamic division reachable from `root(panic_path)` functions.
//! * `swallowed_result` — flags `let _ = <fallible>`, `.ok()` in
//!   statement position, and `Err(_) => {}` arms.
//!
//! Every pass resolves calls through the one workspace [`CallGraph`]:
//! name + arity + dependency closure, narrowed by what the token model
//! knows about receivers (a call on a trait-object field reaches only
//! that trait's implementors). Ambiguity unions the candidates' effects
//! — conservative over-approximation. The one deliberate gap: a call on
//! a field whose type is a known non-workspace type ident — a std type
//! or a generic parameter such as `S` in `Conn<S>` — is treated as
//! external and reaches no workspace callee, even when the parameter's
//! bound is a workspace trait; only the builtin effect tables (syncs,
//! renames, pager I/O by name) see such a call.

use crate::callgraph::CallGraph;
use crate::model::{Event, LockKind, Model};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Pass names accepted by the annotation grammar.
pub const PASS_NAMES: [&str; 7] = [
    "lock_order",
    "io_under_lock",
    "panic_path",
    "swallowed_result",
    "durability_order",
    "reactor_blocking",
    "unsafe_audit",
];

/// Roles accepted by `protocol(<pass>, <role>)` annotations.
pub fn protocol_roles(pass: &str) -> &'static [&'static str] {
    match pass {
        "durability_order" => &["ack", "sync", "publish"],
        "reactor_blocking" => &["contended"],
        _ => &[],
    }
}

/// Pseudo-pass for malformed `// xk-analyze:` comments.
pub const ANNOTATION_PASS: &str = "annotation";

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub pass: &'static str,
    /// Workspace-root-relative file path.
    pub file: String,
    pub line: u32,
    /// Qualified name of the enclosing function (empty for file-level).
    pub qname: String,
    /// Finding kind within the pass (e.g. `cycle`, `unwrap`).
    pub kind: String,
    /// Kind-specific detail used for baseline keying.
    pub detail: String,
}

impl Finding {
    pub fn render(&self) -> String {
        format!(
            "[{}] {}:{} {} — {} ({})",
            self.pass, self.file, self.line, self.qname, self.kind, self.detail
        )
    }
}

/// Built-in fallible std calls worth flagging in `let _ = ...` position
/// even though their definitions live outside the workspace.
const BUILTIN_FALLIBLE: &[&str] = &[
    "join", "flush", "sync_all", "sync_data", "remove_file", "remove_dir_all",
    "create_dir_all", "rename", "set_len", "write_all", "set_read_timeout",
    "set_write_timeout", "connect", "shutdown", "send", "recv", "wait",
];

/// Calls that reach the pager when the receiver chain names `pager`.
const IO_NAMES: &[&str] = &["read_page", "write_page", "sync", "grow"];

/// Per-function effect summary, computed to a fixpoint.
#[derive(Debug, Default, Clone)]
struct Summary {
    /// Lock classes this function may acquire (directly or transitively).
    may_acquire: BTreeSet<usize>,
    /// May reach a `Pager` read/write/sync/grow call.
    reaches_io: bool,
    /// For guard-returning helpers: the class of the returned guard.
    guard_class: Option<usize>,
    /// Return type mentions `Result`.
    returns_result: bool,
}

pub struct Analysis<'m> {
    model: &'m Model,
    cg: &'m CallGraph,
    summaries: Vec<Summary>,
    /// Names of guard-returning helper functions (`shard`, `write_lock`).
    guard_helpers: BTreeSet<String>,
}

pub fn run(model: &Model, closures: Vec<Vec<usize>>) -> Vec<Finding> {
    let cg = CallGraph::build(model, &closures);
    let mut analysis = Analysis {
        model,
        cg: &cg,
        summaries: Vec::new(),
        guard_helpers: BTreeSet::new(),
    };
    analysis.compute_summaries();
    analysis.guard_helpers = analysis
        .summaries
        .iter()
        .enumerate()
        .filter(|(_, s)| s.guard_class.is_some())
        .map(|(i, _)| model.functions[i].name.clone())
        .collect();
    let mut findings = Vec::new();
    analysis.annotation_findings(&mut findings);
    analysis.lock_passes(&mut findings);
    analysis.panic_path(&mut findings);
    analysis.swallowed_result(&mut findings);
    let guard_class: Vec<Option<usize>> =
        analysis.summaries.iter().map(|s| s.guard_class).collect();
    crate::protocol::ProtocolPasses { model, cg: &cg, guard_class: &guard_class }
        .run(&mut findings);
    findings.sort();
    findings
}

/// One lock-order edge: `held` was live when `acquired` was taken.
struct Edge {
    held: usize,
    acquired: usize,
    /// First witness site.
    file: String,
    line: u32,
    qname: String,
}

/// A guard live in the walk.
struct Held {
    class: usize,
    /// Brace depth at which the guard's binding lives.
    depth: u32,
    /// Binding names (empty = temporary, dies at statement end).
    names: Vec<String>,
}

impl<'m> Analysis<'m> {
    /// Candidate callee ids of the call at event `ev` of function `fid`.
    fn callees(&self, fid: usize, ev: usize) -> &[usize] {
        let sites = &self.cg.sites[fid];
        match sites.binary_search_by_key(&ev, |s| s.ev) {
            Ok(i) => &sites[i].callees,
            Err(_) => &[],
        }
    }

    fn compute_summaries(&mut self) {
        let model = self.model;
        let mut sums: Vec<Summary> = Vec::with_capacity(model.functions.len());
        for f in &model.functions {
            let mut s = Summary {
                returns_result: f.ret.contains("Result"),
                ..Summary::default()
            };
            let returns_guard = ["MutexGuard", "RwLockReadGuard", "RwLockWriteGuard"]
                .iter()
                .any(|g| f.ret.contains(g));
            for ev in &f.events {
                match ev {
                    Event::Acquire { class, .. } => {
                        s.may_acquire.insert(*class);
                        if returns_guard && s.guard_class.is_none() {
                            s.guard_class = Some(*class);
                        }
                    }
                    Event::Call { name, chain, .. } if is_direct_io(name, chain) => {
                        s.reaches_io = true;
                    }
                    _ => {}
                }
            }
            sums.push(s);
        }
        // Propagate across calls to a fixpoint.
        loop {
            let mut changed = false;
            for id in 0..model.functions.len() {
                for &callee in &self.cg.adj[id] {
                    let (acq, io, guard) = {
                        let c = &sums[callee];
                        (c.may_acquire.clone(), c.reaches_io, c.guard_class)
                    };
                    let s = &mut sums[id];
                    for class in acq {
                        changed |= s.may_acquire.insert(class);
                    }
                    if let Some(g) = guard {
                        changed |= s.may_acquire.insert(g);
                    }
                    if io && !s.reaches_io {
                        s.reaches_io = true;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        self.summaries = sums;
    }

    fn annotation_findings(&self, out: &mut Vec<Finding>) {
        for file in &self.model.files {
            for bad in &file.bad_annotations {
                out.push(Finding {
                    pass: ANNOTATION_PASS,
                    file: file.path.clone(),
                    line: bad.line,
                    qname: String::new(),
                    kind: "bad_annotation".into(),
                    detail: bad.message.clone(),
                });
            }
        }
    }

    /// Walks every function's guard scopes once, producing both the
    /// lock-order edge set and the io-under-lock findings.
    fn lock_passes(&self, out: &mut Vec<Finding>) {
        let mut edges: BTreeMap<(usize, usize), Edge> = BTreeMap::new();
        for (fid, f) in self.model.functions.iter().enumerate() {
            let file = &self.model.files[f.file];
            let mut held: Vec<Held> = Vec::new();
            let mut pending_let: Option<(Vec<String>, u32)> = None;
            for (ev_idx, ev) in f.events.iter().enumerate() {
                match ev {
                    Event::LetBind { names, .. } => {
                        pending_let = Some((names.clone(), 0));
                    }
                    Event::BlockOpen { .. } => {}
                    Event::Acquire { class, depth, line } => {
                        for h in &held {
                            edges.entry((h.class, *class)).or_insert_with(|| Edge {
                                held: h.class,
                                acquired: *class,
                                file: file.path.clone(),
                                line: *line,
                                qname: f.qname.clone(),
                            });
                        }
                        let names =
                            pending_let.take().map(|(n, _)| n).unwrap_or_default();
                        held.push(Held { class: *class, depth: *depth, names });
                    }
                    Event::Call { name, chain, depth, line, .. } => {
                        // A call through a guard (`lru.insert(..)` where `lru`
                        // is the guard binding, or `self.lock().clear()` where
                        // the chain runs through a guard source) targets the
                        // guarded data, not a workspace type — name/arity
                        // resolution would alias it to unrelated functions,
                        // so skip it.
                        let through_guard = chain.iter().any(|c| {
                            held.iter().any(|h| h.names.iter().any(|n| n == c))
                                || matches!(c.as_str(), "lock" | "read" | "write")
                                || self.guard_helpers.contains(c)
                        });
                        let callees = if through_guard { &[] } else { self.callees(fid, ev_idx) };
                        // A guard-returning helper call is an acquisition.
                        let guard = callees
                            .iter()
                            .find_map(|&c| self.summaries[c].guard_class);
                        if let Some(class) = guard {
                            for h in &held {
                                edges.entry((h.class, class)).or_insert_with(|| Edge {
                                    held: h.class,
                                    acquired: class,
                                    file: file.path.clone(),
                                    line: *line,
                                    qname: f.qname.clone(),
                                });
                            }
                            let names =
                                pending_let.take().map(|(n, _)| n).unwrap_or_default();
                            held.push(Held { class, depth: *depth, names });
                            continue;
                        }
                        // Propagated edges: callee may acquire while we hold.
                        for h in &held {
                            for &acq in callees
                                .iter()
                                .flat_map(|&c| self.summaries[c].may_acquire.iter())
                            {
                                edges.entry((h.class, acq)).or_insert_with(|| Edge {
                                    held: h.class,
                                    acquired: acq,
                                    file: file.path.clone(),
                                    line: *line,
                                    qname: f.qname.clone(),
                                });
                            }
                        }
                        // io-under-lock: direct pager call or a callee that
                        // reaches the pager, while a shard/cache guard lives.
                        let does_io = is_direct_io(name, chain)
                            || callees.iter().any(|&c| self.summaries[c].reaches_io);
                        if does_io {
                            if let Some(h) = held.iter().find(|h| {
                                matches!(
                                    self.model.lock_classes[h.class].kind,
                                    LockKind::Shard | LockKind::Cache
                                )
                            }) {
                                if !file.allowed("io_under_lock", *line) {
                                    out.push(Finding {
                                        pass: "io_under_lock",
                                        file: file.path.clone(),
                                        line: *line,
                                        qname: f.qname.clone(),
                                        kind: "io_while_holding".into(),
                                        detail: format!(
                                            "{} under {}",
                                            name,
                                            self.model.lock_classes[h.class].label()
                                        ),
                                    });
                                }
                            }
                        }
                    }
                    Event::DropBinding { name } => {
                        held.retain(|h| !h.names.iter().any(|n| n == name));
                    }
                    Event::StmtEnd { depth } => {
                        held.retain(|h| !(h.names.is_empty() && h.depth >= *depth));
                        pending_let = None;
                    }
                    Event::BlockClose { depth } => {
                        held.retain(|h| h.depth <= *depth);
                        pending_let = None;
                    }
                    _ => {}
                }
            }
        }
        self.lock_order_findings(edges, out);
    }

    fn lock_order_findings(&self, edges: BTreeMap<(usize, usize), Edge>, out: &mut Vec<Finding>) {
        let classes = &self.model.lock_classes;
        let push = |out: &mut Vec<Finding>, e: &Edge, kind: &str| {
            let file = self
                .model
                .files
                .iter()
                .find(|fl| fl.path == e.file);
            if file.is_some_and(|fl| fl.allowed("lock_order", e.line)) {
                return;
            }
            out.push(Finding {
                pass: "lock_order",
                file: e.file.clone(),
                line: e.line,
                qname: e.qname.clone(),
                kind: kind.into(),
                detail: format!(
                    "{} -> {}",
                    classes[e.held].label(),
                    classes[e.acquired].label()
                ),
            });
        };
        for e in edges.values() {
            if e.held == e.acquired {
                // Same class re-acquired while held: self-deadlock for a
                // Mutex, writer starvation hazard for RwLock.
                push(out, e, "double_lock");
            }
            if classes[e.held].kind == LockKind::Shard
                && classes[e.acquired].kind == LockKind::Global
            {
                push(out, e, "inversion");
            }
        }
        // Cycles: an edge participates in a cycle iff its endpoints are in
        // the same strongly connected component (self-edges handled above).
        let scc = scc_ids(classes.len(), edges.keys().copied());
        for e in edges.values() {
            if e.held != e.acquired && scc[e.held] == scc[e.acquired] {
                push(out, e, "cycle");
            }
        }
    }

    fn panic_path(&self, out: &mut Vec<Finding>) {
        let model = self.model;
        // Reachability from root(panic_path) functions.
        let mut reachable = vec![false; model.functions.len()];
        let mut queue: VecDeque<usize> = (0..model.functions.len())
            .filter(|&id| model.is_root(id, "panic_path"))
            .collect();
        for &id in &queue {
            reachable[id] = true;
        }
        while let Some(id) = queue.pop_front() {
            for &callee in &self.cg.adj[id] {
                if !std::mem::replace(&mut reachable[callee], true) {
                    queue.push_back(callee);
                }
            }
        }
        for (id, f) in model.functions.iter().enumerate() {
            if !reachable[id] {
                continue;
            }
            let file = &model.files[f.file];
            for ev in &f.events {
                let Event::Panic { kind, detail, line } = ev else { continue };
                if file.allowed("panic_path", *line) {
                    continue;
                }
                out.push(Finding {
                    pass: "panic_path",
                    file: file.path.clone(),
                    line: *line,
                    qname: f.qname.clone(),
                    kind: kind.name().into(),
                    detail: detail.clone(),
                });
            }
        }
    }

    fn swallowed_result(&self, out: &mut Vec<Finding>) {
        for (fid, f) in self.model.functions.iter().enumerate() {
            let file = &self.model.files[f.file];
            // `let _ = ...` statement tracking: true between the bind and
            // the closing `;`.
            let mut discarding = false;
            let mut push = |line: u32, kind: &str, detail: String| {
                if !file.allowed("swallowed_result", line) {
                    out.push(Finding {
                        pass: "swallowed_result",
                        file: file.path.clone(),
                        line,
                        qname: f.qname.clone(),
                        kind: kind.into(),
                        detail,
                    });
                }
            };
            for (ev_idx, ev) in f.events.iter().enumerate() {
                match ev {
                    Event::LetBind { names, .. } => {
                        discarding = names.len() == 1 && names[0] == "_";
                    }
                    Event::StmtEnd { .. } | Event::BlockClose { .. } => discarding = false,
                    Event::Call { name, line, .. } if discarding => {
                        let fallible = BUILTIN_FALLIBLE.contains(&name.as_str())
                            || self
                                .callees(fid, ev_idx)
                                .iter()
                                .any(|&c| self.summaries[c].returns_result);
                        if fallible {
                            push(*line, "let_underscore", name.clone());
                            discarding = false; // one finding per statement
                        }
                    }
                    Event::OkDiscard { line } => push(*line, "ok_discard", String::new()),
                    Event::ErrArmDrop { line } => push(*line, "err_arm", String::new()),
                    _ => {}
                }
            }
        }
    }
}

fn is_direct_io(name: &str, chain: &[String]) -> bool {
    IO_NAMES.contains(&name) && chain.iter().any(|c| c == "pager")
}

/// Tarjan strongly-connected components over the lock-class digraph;
/// returns a component id per node.
fn scc_ids(n: usize, edges: impl Iterator<Item = (usize, usize)>) -> Vec<usize> {
    let mut adj = vec![Vec::new(); n];
    for (a, b) in edges {
        adj[a].push(b);
    }
    struct Tarjan<'a> {
        adj: &'a [Vec<usize>],
        index: Vec<Option<u32>>,
        low: Vec<u32>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        next: u32,
        comp: Vec<usize>,
        ncomp: usize,
    }
    impl Tarjan<'_> {
        fn visit(&mut self, v: usize) {
            self.index[v] = Some(self.next);
            self.low[v] = self.next;
            self.next += 1;
            self.stack.push(v);
            self.on_stack[v] = true;
            for i in 0..self.adj[v].len() {
                let w = self.adj[v][i];
                if self.index[w].is_none() {
                    self.visit(w);
                    self.low[v] = self.low[v].min(self.low[w]);
                } else if self.on_stack[w] {
                    let wi = match self.index[w] {
                        Some(x) => x,
                        None => continue,
                    };
                    self.low[v] = self.low[v].min(wi);
                }
            }
            if Some(self.low[v]) == self.index[v] {
                while let Some(w) = self.stack.pop() {
                    self.on_stack[w] = false;
                    self.comp[w] = self.ncomp;
                    if w == v {
                        break;
                    }
                }
                self.ncomp += 1;
            }
        }
    }
    let mut t = Tarjan {
        adj: &adj,
        index: vec![None; n],
        low: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        next: 0,
        comp: vec![0; n],
        ncomp: 0,
    };
    for v in 0..n {
        if t.index[v].is_none() {
            t.visit(v);
        }
    }
    t.comp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scc_finds_two_cycle() {
        let ids = scc_ids(3, [(0, 1), (1, 0), (1, 2)].into_iter());
        assert_eq!(ids[0], ids[1]);
        assert_ne!(ids[1], ids[2]);
    }

    #[test]
    fn pass_names_cover_the_seven_passes() {
        assert_eq!(PASS_NAMES.len(), 7);
        assert!(PASS_NAMES.contains(&"lock_order"));
        assert!(PASS_NAMES.contains(&"swallowed_result"));
        assert!(PASS_NAMES.contains(&"durability_order"));
        assert!(PASS_NAMES.contains(&"reactor_blocking"));
        assert!(PASS_NAMES.contains(&"unsafe_audit"));
    }

    #[test]
    fn protocol_roles_cover_the_protocol_passes() {
        assert_eq!(protocol_roles("durability_order"), ["ack", "sync", "publish"]);
        assert_eq!(protocol_roles("reactor_blocking"), ["contended"]);
        assert!(protocol_roles("panic_path").is_empty());
    }
}
