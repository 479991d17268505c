//! The six concurrency lint passes (L001–L006) over the token stream of
//! one file, plus the cross-file rank harvest they share.
//!
//! Every pass honours a universal suppression: a comment on the same line
//! or the line above reading `lint:allow(LXXX) <reason>` silences that
//! code at that site — and the reason must be non-empty, so every
//! suppression carries its justification (this is how L003's SeqCst
//! allowlist works, and how the seeded-defect fixtures annotate their own
//! miniature shim).

use crate::diag::{Diagnostic, LintCode, Span};
use crate::tokens::{path_at, tokenize, Tok, TokenStream};
use std::collections::HashMap;

/// `std::sync` items that must go through the shim.
const DENY_STD_SYNC: [&str; 9] = [
    "Mutex",
    "RwLock",
    "Condvar",
    "Barrier",
    "Once",
    "OnceLock",
    "MutexGuard",
    "RwLockReadGuard",
    "RwLockWriteGuard",
];

// Everything else in `std::sync` stays allowed — `Arc`, `Weak`, and
// `mpsc` carry no lock-rank concerns.

const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Ranks harvested from the scanned file set: the `LockRank` enum values
/// plus, per file, which struct field holds which rank (read off
/// `field: RankedMutex::new(LockRank::Name, …)` constructor sites).
#[derive(Debug, Default)]
pub struct RankTable {
    /// `LockRank` variant → discriminant value.
    pub values: HashMap<String, u64>,
    /// file → (field name → rank variant name).
    pub fields: HashMap<String, HashMap<String, String>>,
}

impl RankTable {
    fn field_rank(&self, file: &str, field: &str) -> Option<(&str, u64)> {
        let name = self.fields.get(file)?.get(field)?;
        let v = self.values.get(name)?;
        Some((name.as_str(), *v))
    }
}

/// Harvest pass: runs over every file (including the shim) before linting.
pub fn harvest_ranks(files: &[(String, TokenStream)]) -> RankTable {
    let mut table = RankTable::default();
    for (path, ts) in files {
        let toks = &ts.toks;
        let mut i = 0;
        while i < toks.len() {
            // enum LockRank { Name = N, … }
            if toks[i].is_ident("enum")
                && i + 2 < toks.len()
                && toks[i + 1].is_ident("LockRank")
                && toks[i + 2].is("{")
            {
                let mut j = i + 3;
                while j < toks.len() && !toks[j].is("}") {
                    if j + 2 < toks.len()
                        && toks[j].kind == crate::tokens::TokKind::Ident
                        && toks[j + 1].is("=")
                    {
                        if let Ok(v) = toks[j + 2].text.replace('_', "").parse::<u64>() {
                            table.values.insert(toks[j].text.clone(), v);
                        }
                        j += 3;
                    } else {
                        j += 1;
                    }
                }
                i = j;
                continue;
            }
            // field: RankedMutex::new(LockRank::Name  (struct literals and
            // `let field = RankedMutex::new(…)` both match — the ident two
            // tokens back is the binding either way)
            if (toks[i].is_ident("RankedMutex") || toks[i].is_ident("RankedRwLock"))
                && path_at(toks, i, &[&toks[i].text, "new"])
                && i >= 2
                && (toks[i - 1].is(":") || toks[i - 1].is("="))
                && toks[i - 2].kind == crate::tokens::TokKind::Ident
            {
                // …( LockRank :: Name
                let mut j = i + 4; // past `RankedMutex : : new`
                if j < toks.len() && toks[j].is("(") {
                    j += 1;
                    if path_at(toks, j, &["LockRank"]) && j + 3 < toks.len() {
                        let name = toks[j + 3].text.clone();
                        table
                            .fields
                            .entry(path.clone())
                            .or_default()
                            .insert(toks[i - 2].text.clone(), name);
                    }
                }
            }
            i += 1;
        }
    }
    table
}

/// True when `code` is suppressed at `line` by a justified
/// `lint:allow(LXXX) reason` comment on the same or the preceding line.
fn allowed(ts: &TokenStream, code: LintCode, line: u32) -> bool {
    let needle = format!("lint:allow({})", code.as_str());
    for l in [line.saturating_sub(1), line] {
        for c in ts.comments_on(l) {
            if let Some(pos) = c.text.find(&needle) {
                let reason = c.text[pos + needle.len()..]
                    .trim_start_matches([' ', ':', '-', '—', '–'])
                    .trim();
                if !reason.is_empty() {
                    return true;
                }
            }
        }
    }
    false
}

fn span(t: &Tok) -> Span {
    Span::at(t.line, t.col, t.col + t.text.chars().count() as u32)
}

/// Index of the `)` matching the `(` at `open`, or the last token.
fn match_paren(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is("(") {
            depth += 1;
        } else if toks[i].is(")") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// Token index ranges covered by `#[cfg(test)]` or `#[test]` items.
fn test_regions(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let is_cfg_test = toks[i].is("#")
            && i + 6 < toks.len()
            && toks[i + 1].is("[")
            && toks[i + 2].is_ident("cfg")
            && toks[i + 3].is("(")
            && toks[i + 4].is_ident("test")
            && toks[i + 5].is(")")
            && toks[i + 6].is("]");
        let is_test_attr = toks[i].is("#")
            && i + 3 < toks.len()
            && toks[i + 1].is("[")
            && toks[i + 2].is_ident("test")
            && toks[i + 3].is("]");
        if is_cfg_test || is_test_attr {
            // the attached item runs to the close of its first brace block
            let mut j = i;
            while j < toks.len() && !toks[j].is("{") && !toks[j].is(";") {
                j += 1;
            }
            if j < toks.len() && toks[j].is("{") {
                let mut depth = 0usize;
                let mut k = j;
                while k < toks.len() {
                    if toks[k].is("{") {
                        depth += 1;
                    } else if toks[k].is("}") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                regions.push((i, k.min(toks.len() - 1)));
                i = k + 1;
                continue;
            }
        }
        i += 1;
    }
    regions
}

fn in_regions(regions: &[(usize, usize)], i: usize) -> bool {
    regions.iter().any(|(s, e)| i >= *s && i <= *e)
}

/// Receiver field of a method call: the ident directly before the `.` at
/// `dot`, looking through one `[index]` suffix (`self.shards[i].lock()`).
fn receiver_field(toks: &[Tok], dot: usize) -> Option<usize> {
    if dot == 0 {
        return None;
    }
    let mut j = dot - 1;
    if toks[j].is("]") {
        let mut depth = 0usize;
        loop {
            if toks[j].is("]") {
                depth += 1;
            } else if toks[j].is("[") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if j == 0 {
                return None;
            }
            j -= 1;
        }
        if j == 0 {
            return None;
        }
        j -= 1;
    }
    (toks[j].kind == crate::tokens::TokKind::Ident).then_some(j)
}

/// Lint one file. `ranks` comes from [`harvest_ranks`] over the whole file
/// set; `file` is the path key used there.
pub fn lint_file(file: &str, src: &str, ranks: &RankTable) -> Vec<Diagnostic> {
    let ts = tokenize(src);
    let mut diags = Vec::new();
    l001_raw_primitives(file, &ts, &mut diags);
    l002_lock_ranks(file, &ts, ranks, &mut diags);
    l003_seqcst(file, &ts, &mut diags);
    l004_ordering_mismatch(file, &ts, &mut diags);
    l005_blocking_io(file, &ts, &mut diags);
    l006_poison_unwrap(file, &ts, &mut diags);
    diags.sort_by_key(|d| (d.span.line, d.span.start));
    diags
}

fn push(
    diags: &mut Vec<Diagnostic>,
    ts: &TokenStream,
    code: LintCode,
    file: &str,
    t: &Tok,
    message: String,
    note: &str,
) {
    if allowed(ts, code, t.line) {
        return;
    }
    let mut d = Diagnostic::new(code, file, span(t), message);
    if !note.is_empty() {
        d = d.with_note(note.to_owned());
    }
    diags.push(d);
}

/// L001: raw `std::sync` primitives outside the shim.
fn l001_raw_primitives(file: &str, ts: &TokenStream, diags: &mut Vec<Diagnostic>) {
    const NOTE: &str = "route synchronization through rock_crystal::sync so lock ranks see it";
    let toks = &ts.toks;
    let mut i = 0;
    while i < toks.len() {
        // std :: sync :: …
        if path_at(toks, i, &["std", "sync"])
            && i + 5 < toks.len()
            && toks[i + 4].is(":")
            && toks[i + 5].is(":")
        {
            let after = i + 6; // `std : : sync : :` → the item
            if after < toks.len() {
                let t = &toks[after];
                if DENY_STD_SYNC.contains(&t.text.as_str()) || t.is_ident("atomic") {
                    push(
                        diags,
                        ts,
                        LintCode::L001,
                        file,
                        t,
                        format!("direct use of std::sync::{}", t.text),
                        NOTE,
                    );
                } else if t.is("{") {
                    // use std::sync::{Arc, Mutex, atomic::{…}}
                    let mut j = after + 1;
                    let mut depth = 1usize;
                    while j < toks.len() && depth > 0 {
                        if toks[j].is("{") {
                            depth += 1;
                        } else if toks[j].is("}") {
                            depth -= 1;
                        } else if depth == 1
                            && toks[j].kind == crate::tokens::TokKind::Ident
                            && (DENY_STD_SYNC.contains(&toks[j].text.as_str())
                                || toks[j].is_ident("atomic"))
                        {
                            push(
                                diags,
                                ts,
                                LintCode::L001,
                                file,
                                &toks[j],
                                format!("direct use of std::sync::{}", toks[j].text),
                                NOTE,
                            );
                        }
                        j += 1;
                    }
                    i = j;
                    continue;
                }
            }
        }
        i += 1;
    }
}

/// L002: acquiring a ranked lock while holding one of equal or higher
/// rank. Intraprocedural over guard bindings: `let g = self.f.lock()` is
/// held to end of scope (or `drop(g)`); a chained call
/// (`self.f.read().get(…)`) and bare statement temporaries die at the end
/// of their statement; condition temporaries at the `{` that follows.
fn l002_lock_ranks(file: &str, ts: &TokenStream, ranks: &RankTable, diags: &mut Vec<Diagnostic>) {
    struct Guard {
        name: Option<String>,
        rank_name: String,
        rank: u64,
        depth: usize,
        temp: bool,
    }
    let toks = &ts.toks;
    let mut held: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    let mut pending_let: Option<String> = None;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is("{") {
            depth += 1;
            held.retain(|g| !g.temp);
            pending_let = None;
        } else if t.is("}") {
            depth = depth.saturating_sub(1);
            held.retain(|g| g.depth <= depth);
            pending_let = None;
        } else if t.is(";") {
            held.retain(|g| !(g.temp && g.depth >= depth));
            pending_let = None;
        } else if t.is_ident("let") {
            // let [mut] name =
            let mut j = i + 1;
            if j < toks.len() && toks[j].is_ident("mut") {
                j += 1;
            }
            if j + 1 < toks.len()
                && toks[j].kind == crate::tokens::TokKind::Ident
                && toks[j + 1].is("=")
            {
                pending_let = Some(toks[j].text.clone());
            }
        } else if t.is_ident("drop") && i + 2 < toks.len() && toks[i + 1].is("(") {
            let name = &toks[i + 2].text;
            held.retain(|g| g.name.as_deref() != Some(name.as_str()));
        } else if (t.is_ident("lock")
            || t.is_ident("read")
            || t.is_ident("write")
            || t.is_ident("try_lock"))
            && i >= 2
            && toks[i - 1].is(".")
            && i + 2 < toks.len()
            && toks[i + 1].is("(")
            && toks[i + 2].is(")")
        {
            if let Some(fidx) = receiver_field(toks, i - 1) {
                if let Some((rname, rank)) = ranks.field_rank(file, &toks[fidx].text) {
                    for g in &held {
                        if g.rank >= rank {
                            push(
                                diags,
                                ts,
                                LintCode::L002,
                                file,
                                t,
                                format!(
                                    "acquiring {} (rank {rank}) while holding {} (rank {})",
                                    rname, g.rank_name, g.rank
                                ),
                                "LockRank order is total: nested acquisitions must strictly \
                                 increase; restructure or drop the outer guard first",
                            );
                        }
                    }
                    // chained call → the guard is consumed, not bound
                    let chained = i + 3 < toks.len() && toks[i + 3].is(".");
                    let bound = pending_let.clone().filter(|_| !chained);
                    held.push(Guard {
                        temp: bound.is_none(),
                        name: bound,
                        rank_name: rname.to_owned(),
                        rank,
                        depth,
                    });
                }
            }
        }
        i += 1;
    }
}

/// L003: `SeqCst` without a justified `lint:allow(L003)` comment.
fn l003_seqcst(file: &str, ts: &TokenStream, diags: &mut Vec<Diagnostic>) {
    for t in &ts.toks {
        if t.is_ident("SeqCst") {
            push(
                diags,
                ts,
                LintCode::L003,
                file,
                t,
                "Ordering::SeqCst without justification".to_owned(),
                "state why acquire/release is insufficient in a `lint:allow(L003) <reason>` \
                 comment, or weaken the ordering",
            );
        }
    }
}

/// L004: a field written with `store` and read with `load` at mismatched
/// strengths — Release stores read by Relaxed loads (lost publication) or
/// Relaxed stores read by Acquire loads (acquire with nothing to pair).
fn l004_ordering_mismatch(file: &str, ts: &TokenStream, diags: &mut Vec<Diagnostic>) {
    #[derive(Default)]
    struct Sites {
        stores: Vec<(String, usize)>,
        loads: Vec<(String, usize)>,
    }
    let toks = &ts.toks;
    let mut fields: HashMap<String, Sites> = HashMap::new();
    for i in 0..toks.len() {
        let is_store = toks[i].is_ident("store");
        let is_load = toks[i].is_ident("load");
        if !(is_store || is_load) || i == 0 || !toks[i - 1].is(".") {
            continue;
        }
        if i + 1 >= toks.len() || !toks[i + 1].is("(") {
            continue;
        }
        let Some(fidx) = receiver_field(toks, i - 1) else {
            continue;
        };
        let close = match_paren(toks, i + 1);
        let ordering = toks[i + 1..close]
            .iter()
            .rev()
            .find(|t| ORDERINGS.contains(&t.text.as_str()));
        let Some(ord) = ordering else { continue };
        let entry = fields.entry(toks[fidx].text.clone()).or_default();
        if is_store {
            entry.stores.push((ord.text.clone(), i));
        } else {
            entry.loads.push((ord.text.clone(), i));
        }
    }
    for (field, sites) in fields {
        let store_pub = sites
            .stores
            .iter()
            .any(|(o, _)| matches!(o.as_str(), "Release" | "AcqRel" | "SeqCst"));
        let store_relaxed = sites.stores.iter().any(|(o, _)| o == "Relaxed");
        let load_acq = sites
            .loads
            .iter()
            .any(|(o, _)| matches!(o.as_str(), "Acquire" | "AcqRel" | "SeqCst"));
        let load_relaxed = sites.loads.iter().any(|(o, _)| o == "Relaxed");
        if store_pub && load_relaxed {
            for (o, i) in &sites.loads {
                if o == "Relaxed" {
                    push(
                        diags,
                        ts,
                        LintCode::L004,
                        file,
                        &toks[*i],
                        format!(
                            "field `{field}` is published with Release stores but read with a \
                             Relaxed load"
                        ),
                        "a Relaxed load does not synchronize with the Release store: memory \
                         written before the store may not be visible; load with Acquire",
                    );
                }
            }
        }
        if store_relaxed && load_acq {
            for (o, i) in &sites.stores {
                if o == "Relaxed" {
                    push(
                        diags,
                        ts,
                        LintCode::L004,
                        file,
                        &toks[*i],
                        format!(
                            "field `{field}` is read with Acquire loads but written with a \
                             Relaxed store"
                        ),
                        "an Acquire load only synchronizes with a Release (or stronger) store; \
                         store with Release",
                    );
                }
            }
        }
    }
}

/// L005: blocking file I/O inside a scheduler work closure (the argument
/// list of an `.execute(…)` call).
fn l005_blocking_io(file: &str, ts: &TokenStream, diags: &mut Vec<Diagnostic>) {
    const NOTE: &str = "work closures run on scheduler worker threads; a blocked worker stalls \
                        every unit behind it — move I/O outside execute() or hand it to a \
                        dedicated thread";
    let toks = &ts.toks;
    for i in 0..toks.len() {
        if !(toks[i].is_ident("execute") && i > 0 && toks[i - 1].is(".")) {
            continue;
        }
        if i + 1 >= toks.len() || !toks[i + 1].is("(") {
            continue;
        }
        let close = match_paren(toks, i + 1);
        let mut j = i + 2;
        while j < close {
            let hit = if path_at(toks, j, &["std", "fs"]) {
                Some("std::fs")
            } else if toks[j].is_ident("fs")
                && j + 2 < close
                && toks[j + 1].is(":")
                && toks[j + 2].is(":")
                && (j == 0 || !toks[j - 1].is(":"))
            {
                Some("fs::")
            } else if path_at(toks, j, &["File", "open"]) || path_at(toks, j, &["File", "create"]) {
                Some("File")
            } else if toks[j].is_ident("OpenOptions") {
                Some("OpenOptions")
            } else {
                None
            };
            if let Some(what) = hit {
                push(
                    diags,
                    ts,
                    LintCode::L005,
                    file,
                    &toks[j],
                    format!("blocking file I/O ({what}) inside a scheduler work closure"),
                    NOTE,
                );
                // one diagnostic per execute() call is enough
                break;
            }
            j += 1;
        }
    }
}

/// L006: `.lock().unwrap()` (and rwlock read/write variants) outside test
/// code — poison propagation where the shim's poison-free guards belong.
fn l006_poison_unwrap(file: &str, ts: &TokenStream, diags: &mut Vec<Diagnostic>) {
    let toks = &ts.toks;
    let regions = test_regions(toks);
    for i in 0..toks.len() {
        if !(toks[i].is_ident("lock") || toks[i].is_ident("read") || toks[i].is_ident("write")) {
            continue;
        }
        // . lock ( ) . unwrap ( )
        if i == 0
            || !toks[i - 1].is(".")
            || i + 6 >= toks.len()
            || !toks[i + 1].is("(")
            || !toks[i + 2].is(")")
            || !toks[i + 3].is(".")
            || !(toks[i + 4].is_ident("unwrap") || toks[i + 4].is_ident("expect"))
            || !toks[i + 5].is("(")
        {
            continue;
        }
        if in_regions(&regions, i) {
            continue;
        }
        push(
            diags,
            ts,
            LintCode::L006,
            file,
            &toks[i + 4],
            format!(
                "`.{}().{}()` propagates lock poisoning",
                toks[i].text,
                toks[i + 4].text
            ),
            "a panic in one critical section poisons the lock and cascades panics through \
             every later user; use the rock_crystal::sync shim (poison-free guards)",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_src(src: &str) -> Vec<Diagnostic> {
        let files = vec![("t.rs".to_owned(), tokenize(src))];
        let ranks = harvest_ranks(&files);
        lint_file("t.rs", src, &ranks)
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn l001_flags_raw_primitives_and_groups() {
        let d = lint_src("use std::sync::Mutex;\n");
        assert_eq!(codes(&d), vec!["L001"]);
        let d = lint_src("use std::sync::{Arc, RwLock, atomic::{AtomicU64, Ordering}};\n");
        assert_eq!(codes(&d), vec!["L001", "L001"]); // RwLock + atomic, not Arc
    }

    #[test]
    fn l001_allows_arc_and_channels() {
        let d = lint_src("use std::sync::Arc;\nuse std::sync::mpsc;\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn l001_ignores_comments_and_strings() {
        let d = lint_src("// std::sync::Mutex\nlet s = \"std::sync::RwLock\";\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn l002_flags_inverted_nesting() {
        let src = "\
enum LockRank { Low = 10, High = 20 }
struct S;
fn new() {
    let s = T { low: RankedMutex::new(LockRank::Low, 0), high: RankedMutex::new(LockRank::High, 0) };
}
fn bad(s: &T) {
    let g = s.high.lock();
    let h = s.low.lock();
}
fn good(s: &T) {
    let g = s.low.lock();
    let h = s.high.lock();
}
";
        let d = lint_src(src);
        assert_eq!(codes(&d), vec!["L002"]);
        assert_eq!(d[0].span.line, 8);
        assert!(d[0].message.contains("Low (rank 10)"));
        assert!(d[0].message.contains("High (rank 20)"));
    }

    #[test]
    fn l002_guard_drops_release_ranks() {
        let src = "\
enum LockRank { Low = 10, High = 20 }
fn new() {
    let s = T { low: RankedMutex::new(LockRank::Low, 0), high: RankedMutex::new(LockRank::High, 0) };
}
fn ok(s: &T) {
    let g = s.high.lock();
    drop(g);
    let h = s.low.lock();
}
fn ok_scoped(s: &T) {
    { let g = s.high.lock(); }
    let h = s.low.lock();
}
fn ok_chained(s: &T) {
    let v = s.high.lock().clone();
    let h = s.low.lock();
}
";
        let d = lint_src(src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn l002_same_rank_reacquisition_flagged() {
        let src = "\
enum LockRank { Only = 10 }
fn new() { let s = T { a: RankedMutex::new(LockRank::Only, 0) }; }
fn bad(s: &T) {
    let g = s.a.lock();
    let h = s.a.lock();
}
";
        let d = lint_src(src);
        assert_eq!(codes(&d), vec!["L002"]);
    }

    #[test]
    fn l003_requires_justification() {
        let d = lint_src("x.store(1, Ordering::SeqCst);\n");
        assert_eq!(codes(&d), vec!["L003"]);
        let d = lint_src(
            "// lint:allow(L003) store must order with the CAS in try_claim\n\
             x.store(1, Ordering::SeqCst);\n",
        );
        assert!(d.is_empty(), "{d:?}");
        // an empty reason does not count
        let d = lint_src("// lint:allow(L003)\nx.store(1, Ordering::SeqCst);\n");
        assert_eq!(codes(&d), vec!["L003"]);
    }

    #[test]
    fn l004_flags_release_store_relaxed_load() {
        let src = "\
fn a(s: &S) { s.flag.store(true, Ordering::Release); }
fn b(s: &S) -> bool { s.flag.load(Ordering::Relaxed) }
";
        let d = lint_src(src);
        assert_eq!(codes(&d), vec!["L004"]);
        assert!(d[0].message.contains("`flag`"));
    }

    #[test]
    fn l004_flags_relaxed_store_acquire_load() {
        let src = "\
fn a(s: &S) { s.flag.store(true, Ordering::Relaxed); }
fn b(s: &S) -> bool { s.flag.load(Ordering::Acquire) }
";
        let d = lint_src(src);
        assert_eq!(codes(&d), vec!["L004"]);
    }

    #[test]
    fn l004_consistent_pairs_and_rmws_are_clean() {
        let src = "\
fn a(s: &S) { s.flag.store(true, Ordering::Release); }
fn b(s: &S) -> bool { s.flag.load(Ordering::Acquire) }
fn c(s: &S) { s.count.fetch_add(1, Ordering::Relaxed); }
fn d(s: &S) -> u64 { s.count.load(Ordering::Relaxed) }
";
        let d = lint_src(src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn l005_flags_fs_in_execute_closure() {
        let src = "\
fn run(c: &Cluster) {
    let out = c.execute(units, |u| {
        std::fs::write(\"/tmp/x\", b\"y\").unwrap();
        u.id
    });
}
";
        let d = lint_src(src);
        assert_eq!(codes(&d), vec!["L005"]);
        // I/O outside the closure is fine
        let d = lint_src("fn f() { std::fs::write(\"/tmp/x\", b\"y\").unwrap(); }\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn l006_flags_poison_unwrap_outside_tests() {
        let d = lint_src("fn f(m: &Mutex<u8>) -> u8 { *m.lock().unwrap() }\n");
        assert_eq!(codes(&d), vec!["L006"]);
        let d = lint_src(
            "#[cfg(test)]\nmod tests {\n    fn f(m: &M) -> u8 { *m.lock().unwrap() }\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
        // io-style read(&mut buf) has arguments: not a lock
        let d = lint_src("fn f(mut r: R) { r.read(&mut buf).unwrap(); }\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn harvest_reads_enum_and_fields() {
        let files = vec![(
            "a.rs".to_owned(),
            tokenize(
                "enum LockRank { A = 10, B = 20 }\n\
                 fn n() { let s = S { x: RankedMutex::new(LockRank::A, 0) }; }\n",
            ),
        )];
        let t = harvest_ranks(&files);
        assert_eq!(t.values.get("A"), Some(&10));
        assert_eq!(t.values.get("B"), Some(&20));
        assert_eq!(t.field_rank("a.rs", "x"), Some(("A", 10)));
        assert_eq!(t.field_rank("a.rs", "y"), None);
    }
}
