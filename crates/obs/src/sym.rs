//! Global symbol interning for trace names and string field values.
//!
//! The trace fast path must not allocate, so span/event names and hot
//! string labels are interned once into `u32` symbol ids ([`Sym`]) and
//! records carry only the id. Two lookup paths exist:
//!
//! * [`Sym::intern_static`] — for `&'static str` names. A small
//!   pointer-identity cache makes the warm case a couple of atomic loads
//!   with no hashing of the string contents.
//! * [`Sym::intern`] — for dynamic strings (drive labels, media names).
//!   Content-hashed via FNV-1a into an open-addressed atomic table; the
//!   warm case hashes the bytes but allocates nothing. The first sight
//!   of a string copies it into leaked storage (bounded by
//!   [`MAX_SYMS`]; beyond that everything maps to the `"!overflow"`
//!   sentinel so the table cannot grow without bound).

use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Hard cap on distinct interned strings. Past this every new string
/// interns to [`SYM_OVERFLOW`].
pub const MAX_SYMS: usize = 1 << 16;

/// Content-table capacity (50% max load factor, power of two).
const SLOT_CAP: usize = MAX_SYMS * 2;

/// Pointer-cache capacity for `&'static str` fast-path hits.
const PTR_CAP: usize = 1 << 12;
/// Linear-probe bound in the pointer cache before falling back to the
/// content table.
const PTR_PROBES: usize = 16;

/// An interned string id. `Sym(0)` is the `"!overflow"` sentinel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(pub u32);

/// The sentinel every string interns to once the table is full.
pub const SYM_OVERFLOW: Sym = Sym(0);

struct Interner {
    /// Open-addressed content table; entry = `(hash_tag << 32) | (id + 1)`,
    /// `0` = empty. Published with `Release` after the string storage.
    slots: Box<[AtomicU64]>,
    /// Pointer-identity cache for `&'static str`: key = `ptr ^ (len << 48)`.
    ptr_keys: Box<[AtomicU64]>,
    /// Value for the key at the same index, stored as `id + 1` (`0` = not
    /// yet published; readers fall back to the content table).
    ptr_vals: Box<[AtomicU32]>,
    /// id → string storage (leaked copies or `'static` originals).
    strs: Box<[AtomicPtr<u8>]>,
    lens: Box<[AtomicU32]>,
    next: AtomicU32,
    /// Writers serialize inserts; readers never take this.
    write: Mutex<()>,
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(|| {
        let it = Interner {
            slots: (0..SLOT_CAP).map(|_| AtomicU64::new(0)).collect(),
            ptr_keys: (0..PTR_CAP).map(|_| AtomicU64::new(0)).collect(),
            ptr_vals: (0..PTR_CAP).map(|_| AtomicU32::new(0)).collect(),
            strs: (0..MAX_SYMS)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
            lens: (0..MAX_SYMS).map(|_| AtomicU32::new(0)).collect(),
            next: AtomicU32::new(0),
            write: Mutex::new(()),
        };
        // Reserve id 0 for the overflow sentinel.
        it.insert_locked("!overflow", fnv1a(b"!overflow"), None);
        it
    })
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Nonzero 32-bit tag stored next to the id in a content slot.
fn hash_tag(h: u64) -> u32 {
    ((h >> 32) as u32) | 1
}

impl Interner {
    fn str_of(&self, id: u32) -> &'static str {
        let ptr = self.strs[id as usize].load(Ordering::Acquire);
        let len = self.lens[id as usize].load(Ordering::Acquire) as usize;
        if ptr.is_null() {
            return "!overflow";
        }
        // SAFETY: (ptr, len) were stored from a leaked `Box<str>` or a
        // `&'static str` and are never freed or mutated; the Release store
        // of the slot entry (or ptr_vals entry) that delivered `id`
        // happens-after both stores.
        unsafe { std::str::from_utf8_unchecked(std::slice::from_raw_parts(ptr, len)) }
    }

    /// Look up `s` in the content table; insert on miss.
    fn intern_content(&self, s: &str, static_src: Option<&'static str>) -> Sym {
        let h = fnv1a(s.as_bytes());
        let tag = hash_tag(h);
        let mask = SLOT_CAP - 1;
        let mut i = (h as usize) & mask;
        loop {
            let e = self.slots[i].load(Ordering::Acquire);
            if e == 0 {
                return self.insert_locked(s, h, static_src);
            }
            if (e >> 32) as u32 == tag {
                let id = (e as u32) - 1;
                if self.str_of(id) == s {
                    return Sym(id);
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Insert `s` (serialized under the write lock; re-probes first in
    /// case another thread inserted it meanwhile).
    fn insert_locked(&self, s: &str, h: u64, static_src: Option<&'static str>) -> Sym {
        let _guard = self.write.lock().unwrap_or_else(|e| e.into_inner());
        let tag = hash_tag(h);
        let mask = SLOT_CAP - 1;
        let mut i = (h as usize) & mask;
        loop {
            let e = self.slots[i].load(Ordering::Acquire);
            if e == 0 {
                break;
            }
            if (e >> 32) as u32 == tag {
                let id = (e as u32) - 1;
                if self.str_of(id) == s {
                    return Sym(id);
                }
            }
            i = (i + 1) & mask;
        }
        let id = self.next.load(Ordering::Relaxed);
        if id as usize >= MAX_SYMS {
            return SYM_OVERFLOW;
        }
        let stored: &'static str = match static_src {
            Some(st) => st,
            None => Box::leak(s.to_string().into_boxed_str()),
        };
        self.strs[id as usize].store(stored.as_ptr() as *mut u8, Ordering::Release);
        self.lens[id as usize].store(stored.len() as u32, Ordering::Release);
        self.next.store(id + 1, Ordering::Relaxed);
        self.slots[i].store(((tag as u64) << 32) | (id as u64 + 1), Ordering::Release);
        Sym(id)
    }

    fn ptr_key(s: &'static str) -> u64 {
        (s.as_ptr() as u64) ^ ((s.len() as u64) << 48)
    }

    fn intern_static(&self, s: &'static str) -> Sym {
        let key = Interner::ptr_key(s);
        // Fibonacci-hash the pointer into the cache.
        let mut i = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 52) as usize & (PTR_CAP - 1);
        for _ in 0..PTR_PROBES {
            let k = self.ptr_keys[i].load(Ordering::Acquire);
            if k == key {
                let v = self.ptr_vals[i].load(Ordering::Acquire);
                if v != 0 {
                    return Sym(v - 1);
                }
                break; // key visible before value: treat as miss
            }
            if k == 0 {
                break;
            }
            i = (i + 1) & (PTR_CAP - 1);
        }
        let sym = self.intern_content(s, Some(s));
        self.cache_ptr(key, sym);
        sym
    }

    fn cache_ptr(&self, key: u64, sym: Sym) {
        let _guard = self.write.lock().unwrap_or_else(|e| e.into_inner());
        let mut i = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 52) as usize & (PTR_CAP - 1);
        for _ in 0..PTR_PROBES {
            let k = self.ptr_keys[i].load(Ordering::Acquire);
            if k == key {
                return; // already cached
            }
            if k == 0 {
                // Publish the value before the key so readers never see a
                // key without its id.
                self.ptr_vals[i].store(sym.0 + 1, Ordering::Release);
                self.ptr_keys[i].store(key, Ordering::Release);
                return;
            }
            i = (i + 1) & (PTR_CAP - 1);
        }
        // Cache full around this hash: skip; content table still serves.
    }
}

impl Sym {
    /// Intern a dynamic string by content. Warm hits allocate nothing.
    pub fn intern(s: &str) -> Sym {
        interner().intern_content(s, None)
    }

    /// Intern a `'static` string; warm hits avoid hashing the contents.
    pub fn intern_static(s: &'static str) -> Sym {
        interner().intern_static(s)
    }

    /// The interned string.
    pub fn resolve(self) -> &'static str {
        interner().str_of(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_content_addressed() {
        let a = Sym::intern("tape.mount");
        let b = Sym::intern(&String::from("tape.mount"));
        let c = Sym::intern_static("tape.mount");
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a.resolve(), "tape.mount");
        assert_ne!(a, Sym::intern("tape.unmount"));
    }

    #[test]
    fn static_fast_path_round_trips() {
        static NAME: &str = "heaven.fetch_region";
        let a = Sym::intern_static(NAME);
        let b = Sym::intern_static(NAME);
        assert_eq!(a, b);
        assert_eq!(a.resolve(), NAME);
    }

    #[test]
    fn overflow_sentinel_resolves() {
        assert_eq!(SYM_OVERFLOW.resolve(), "!overflow");
    }
}
