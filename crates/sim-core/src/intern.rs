//! Global string interning for kernel / thread-block labels.
//!
//! Hot paths copy labels around (per-launch kernel spans, report rows);
//! interning turns each label into a copyable [`Symbol`] that resolves to
//! its string only at report time.
//!
//! # Determinism
//!
//! The interner is one of two deliberate exceptions to the crate's "no
//! global state" rule (the other is [`crate::audit`]). Symbol ids are
//! assigned in first-intern order, which can differ across runs when a
//! parallel sweep interns from several worker threads — so `Symbol`
//! intentionally implements **no `Ord` and no `Hash`**: it cannot be used
//! as a sort key or hash-map key, and simulation results can therefore
//! never depend on interning order. Comparisons against strings
//! ([`PartialEq<str>`]) and [`Display`](std::fmt::Display) go through the
//! resolved text, which is stable.
//!
//! Interned strings are leaked (never freed). Labels are a small, bounded
//! set per process (kernel names, table row labels), so the leak is a few
//! kilobytes at most.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// A copyable handle to an interned string.
///
/// Construct via [`Symbol::new`] or any of the `From` impls; resolve with
/// [`Symbol::as_str`]. Two symbols are equal iff their strings are equal.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Symbol(u32);

#[derive(Default)]
struct Interner {
    map: HashMap<&'static str, u32>,
    strings: Vec<&'static str>,
}

impl Interner {
    fn lookup(&self, s: &str) -> Option<Symbol> {
        self.map.get(s).map(|&id| Symbol(id))
    }

    /// Inserts an already-leaked string. Caller must have checked `lookup`
    /// under the same write lock.
    fn insert(&mut self, leaked: &'static str) -> Symbol {
        let id = self.strings.len() as u32;
        self.strings.push(leaked);
        self.map.insert(leaked, id);
        Symbol(id)
    }
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(Default::default)
}

impl Symbol {
    /// Interns `s`, returning its symbol. Fast path is a read-locked
    /// lookup; only the first sighting of a string takes the write lock.
    pub fn new(s: &str) -> Symbol {
        let lock = interner();
        if let Some(sym) = lock.read().unwrap().lookup(s) {
            return sym;
        }
        let mut w = lock.write().unwrap();
        // Re-check: another thread may have interned between the locks.
        if let Some(sym) = w.lookup(s) {
            return sym;
        }
        w.insert(Box::leak(s.to_owned().into_boxed_str()))
    }

    /// Interns an owned string without re-copying it on first sighting.
    pub fn from_owned(s: String) -> Symbol {
        let lock = interner();
        if let Some(sym) = lock.read().unwrap().lookup(&s) {
            return sym;
        }
        let mut w = lock.write().unwrap();
        if let Some(sym) = w.lookup(&s) {
            return sym;
        }
        w.insert(Box::leak(s.into_boxed_str()))
    }

    /// The interned text. O(1): an index into the intern table.
    pub fn as_str(self) -> &'static str {
        interner().read().unwrap().strings[self.0 as usize]
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::new(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::from_owned(s)
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Symbol {
        Symbol::new(s)
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedupes() {
        let a = Symbol::new("attn_qk");
        let b = Symbol::from_owned("attn_qk".to_owned());
        let c: Symbol = "attn_qk".into();
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a.as_str(), "attn_qk");
    }

    #[test]
    fn distinct_strings_distinct_symbols() {
        assert_ne!(Symbol::new("prod0"), Symbol::new("prod1"));
    }

    #[test]
    fn compares_against_str() {
        let s = Symbol::new("consumer");
        assert!(s == *"consumer");
        assert!(s == "consumer");
        assert!(s != "producer");
        assert_eq!(format!("{s}"), "consumer");
        assert_eq!(format!("{s:?}"), "\"consumer\"");
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..64)
                        .map(|i| Symbol::new(&format!("ccy{}", (i + t) % 16)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let all: Vec<Vec<Symbol>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for syms in &all {
            for s in syms {
                // Every symbol resolves back to the text it was made from.
                assert!(s.as_str().starts_with("ccy"));
            }
        }
        // Same text ⇒ same symbol across threads.
        assert_eq!(Symbol::new("ccy0"), all[0][0]);
    }
}
